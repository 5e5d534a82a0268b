//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --fastbfs PATH
//! perfbench --workload all --seed N --seconds S --fastbfs PATH
//! perfbench gen --workload NAME --seed N --out FILE
//! ```
//!
//! A run generates the workload's inputs from the seed (in a child
//! process, so input generation shows in neither `setup_s` nor
//! `peak_rss_mb`), sets up, measures for `--seconds`, checks every answer
//! against the serial oracle, writes a detailed result with the
//! host-capability header under `perfbench/out/`, and prints the result
//! line last on standard output. `perfbench/run.sh` builds everything and
//! calls this; see `perfbench/README.md`.

mod batch;
mod client;
mod host;
mod input;
mod layers;
mod report;
mod rng;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use input::Family;
use report::Outcome;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["rmat-batch", "serve-mixed"];

/// Where runs keep their inputs, logs and detailed results.
const OUT_DIR: &str = "perfbench/out";

/// The input graph of each workload.
fn family(workload: &str) -> Result<Family, String> {
    Ok(match workload {
        // 2.1M vertices, 67M directed edges: a 256 MiB adjacency.
        "rmat-batch" => Family::Rmat {
            scale: 21,
            edge_factor: 16,
        },
        // The small graph that fits in cache (2^16 vertices).
        "serve-mixed" => Family::Rmat {
            scale: 16,
            edge_factor: 8,
        },
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    })
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    fastbfs: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        fastbfs: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds expects an integer")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--fastbfs" => a.fastbfs = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" {
        family(&a.workload)?;
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// `perfbench gen`: writes the workload's input graph.
fn gen(a: &Args) -> Result<(), String> {
    if a.workload == "all" {
        return Err("gen takes one workload".into());
    }
    let out = a.out.as_ref().ok_or("gen needs --out FILE")?;
    let g = family(&a.workload)?.generate(a.seed);
    input::write_graph_file(&g, out).map_err(|e| format!("write {}: {e}", out.display()))
}

/// Generates the input in a child process and returns its path.
fn generate_input(a: &Args, dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join(format!("{}-{}.fbfs", a.workload, a.seed));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args([
            "gen",
            "--workload",
            &a.workload,
            "--seed",
            &a.seed.to_string(),
        ])
        .arg("--out")
        .arg(&path)
        .status()
        .map_err(|e| format!("spawn input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator exited with {status}"));
    }
    Ok(path)
}

/// Runs one workload once and writes its detailed result (header,
/// details, result line) under [`OUT_DIR`]. Returns the header, the
/// outcome and the result line.
fn measure(a: &Args) -> Result<(String, Outcome, String), String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let header = host::header(&a.workload, a.seed, a.seconds, a.trace);
    let t = std::time::Instant::now();
    let input = generate_input(a, &dir)?;
    eprintln!(
        "perfbench: input generated in {:.1} s",
        t.elapsed().as_secs_f64()
    );
    let window = Duration::from_secs(a.seconds);
    let outcome = if a.workload == "serve-mixed" {
        let fastbfs = a
            .fastbfs
            .as_deref()
            .ok_or("serve-mixed needs --fastbfs PATH")?;
        serve::run(fastbfs, &input, &dir, a.seed, window, a.trace)
    } else {
        batch::run(&input, a.seed, window, a.trace)
    };
    let _ = std::fs::remove_file(&input);
    let outcome = outcome?;
    let (line, not_applicable) = report::result_line(&outcome, a.trace)?;
    let detail = format!(
        "{{\"header\":{header},\"details\":{},\"not_applicable\":{:?},\"result\":{line}}}\n",
        outcome.details, not_applicable
    );
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(&path, detail).map_err(|e| format!("write {}: {e}", path.display()))?;
    if !not_applicable.is_empty() {
        eprintln!(
            "perfbench: {} does not exercise {} (reported as 0)",
            a.workload,
            not_applicable.join(", ")
        );
    }
    Ok((header, outcome, line))
}

/// `--workload all`: every workload, untraced then traced, printed as a
/// table of metric, value and unit.
fn run_all(a: &Args) -> Result<(), String> {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let one = Args {
                workload: workload.to_string(),
                trace,
                ..a.clone()
            };
            let (_, o, _) = measure(&one)?;
            let catalogue = if trace {
                report::PER_LAYER
            } else {
                report::END_TO_END
            };
            for (name, unit) in catalogue {
                if let Some(v) = o.metrics.get(name) {
                    println!("{workload:<12} {name:<34} {v:>16.4} {unit}");
                }
            }
            println!(
                "{workload:<12} trace={} correct={} attempted={} failed={}",
                u8::from(trace),
                o.correct && o.failed == 0,
                o.attempted,
                o.failed
            );
        }
    }
    Ok(())
}

fn run(a: &Args) -> Result<(), String> {
    if a.workload == "all" {
        return run_all(a);
    }
    let (header, _, line) = measure(a)?;
    println!("{header}");
    println!("{line}");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (is_gen, rest) = match argv.first().map(String::as_str) {
        Some("gen") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let result = parse_args(rest).and_then(|a| if is_gen { gen(&a) } else { run(&a) });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
