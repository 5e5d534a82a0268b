//! The host-capability header written into every result. A capability the
//! host lacks appears as an explicit `unavailable: <reason>` marker, never
//! as a zero.

use std::path::Path;

use bfs_core::{BfsEngine, BfsOptions, HugepageStatus, HwCounterStatus};
use bfs_graph::CsrGraph;
use bfs_platform::Topology;

use crate::report::json_str;

fn marker(r: Result<String, String>) -> String {
    r.unwrap_or_else(|reason| format!("unavailable: {reason}"))
}

/// The THP mode: the bracketed choice in the sysfs setting.
fn thp_mode() -> Result<String, String> {
    let path = "/sys/kernel/mm/transparent_hugepage/enabled";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let start = text.find('[').ok_or("no selected mode")?;
    let end = text[start..].find(']').ok_or("no selected mode")?;
    Ok(text[start + 1..start + end].to_string())
}

/// The level-3 cache size as sysfs reports it (e.g. `300M`; on a VM this
/// is what the hypervisor exposes, shared with other tenants).
fn l3_size() -> Result<String, String> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let read =
            |f: &str| std::fs::read_to_string(entry.path().join(f)).map(|s| s.trim().to_string());
        if read("level").ok().as_deref() == Some("3") {
            return read("size").map_err(|e| format!("L3 size: {e}"));
        }
    }
    Err("no level-3 cache in sysfs".into())
}

fn rustc_version() -> Result<String, String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map_err(|e| format!("rustc: {e}"))?;
    if !out.status.success() {
        return Err(format!("rustc --version exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout, read from `.git` in the working directory
/// only (the benchmark reads nothing outside its checkout).
fn git_rev() -> Result<String, String> {
    let head = std::fs::read_to_string(".git/HEAD").map_err(|_| "not a git checkout")?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Ok(head.to_string()),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .map_err(|_| format!("unresolved ref {r}")),
    }
}

/// The PMU and hugepage status exactly as the library reports them: an
/// engine over a tiny graph, with both hardware counters and hugepage
/// arenas requested.
fn library_status() -> (String, String) {
    let offsets = vec![0u64, 1, 2];
    let g = CsrGraph::from_parts(offsets, vec![1, 0]);
    let opts = BfsOptions {
        hw_counters: true,
        huge_pages: true,
        ..Default::default()
    };
    let engine = BfsEngine::new(&g, Topology::synthetic(1, 1), opts);
    let pmu = match engine.hw_status() {
        HwCounterStatus::Enabled => "available".to_string(),
        HwCounterStatus::Disabled => "unavailable: not requested".to_string(),
        HwCounterStatus::Unavailable(r) => format!("unavailable: {r}"),
    };
    let huge = match engine.hugepage_status() {
        HugepageStatus::Enabled => "available".to_string(),
        HugepageStatus::Disabled => "unavailable: not requested".to_string(),
        HugepageStatus::Unavailable(r) => format!("unavailable: {r}"),
    };
    (pmu, huge)
}

/// The header as one JSON object.
pub fn header(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .map_err(|e| e.to_string());
    let (pmu, hugepages) = library_status();
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", traced.to_string()),
        ("nproc", json_str(&marker(nproc))),
        ("thp_mode", json_str(&marker(thp_mode()))),
        ("pmu", json_str(&pmu)),
        ("hugepages", json_str(&hugepages)),
        ("l3_size", json_str(&marker(l3_size()))),
        ("rustc", json_str(&marker(rustc_version()))),
        ("git_rev", json_str(&marker(git_rev()))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}
