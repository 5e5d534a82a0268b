//! Tiny flag parser shared by the subcommands (no CLI crate dependency).

use std::collections::HashMap;

/// Parsed `--key value` flags plus boolean switches.
#[derive(Debug, Default)]
pub struct Opts {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Opts {
    /// Parses `args`; `bool_flags` lists switches that take no value.
    pub fn parse(args: &[String], bool_flags: &[&str]) -> Result<Self, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| format!("expected a flag, got {a:?}"))?;
            if bool_flags.contains(&key) {
                o.switches.push(key.to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                o.values.insert(key.to_string(), v.clone());
            }
        }
        Ok(o)
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed numeric value with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// Parsed numeric value; `None` when the flag is absent.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// Required numeric value.
    pub fn require_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("--{key} expects a number"))
    }

    /// Boolean switch presence.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str], b: &[&str]) -> Result<Opts, String> {
        Opts::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>(), b)
    }

    #[test]
    fn values_and_switches() {
        let o = parse(
            &["--scale", "18", "--validate", "-o", "x.bin"],
            &["validate"],
        )
        .unwrap();
        assert_eq!(o.get("scale"), Some("18"));
        assert_eq!(o.get("o"), Some("x.bin"));
        assert!(o.has("validate"));
        assert!(!o.has("other"));
    }

    #[test]
    fn numeric_parsing_with_defaults() {
        let o = parse(&["--scale", "18"], &[]).unwrap();
        assert_eq!(o.num::<u32>("scale", 0).unwrap(), 18);
        assert_eq!(o.num::<u32>("missing", 7).unwrap(), 7);
        assert!(o.require_num::<u32>("missing").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse(&["notaflag"], &[]).is_err());
        assert!(parse(&["--key"], &[]).is_err());
        let o = parse(&["--n", "abc"], &[]).unwrap();
        assert!(o.num::<u32>("n", 0).is_err());
    }
}
