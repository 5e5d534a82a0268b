//! Golden-file back-compat: a `fastbfs-run-v1` report emitted by the PR 3
//! binary (before the environment header and metrics block existed) must
//! keep parsing through the current report types, and the fields added
//! since must come back `None`.
//!
//! This pins the schema-evolution rule: additions to `RunReport` are
//! `Option<T>` only; renames and removals are breaking and need a schema
//! bump. If this test fails after you touched the report structs, you broke
//! every saved report and external tooling parsing them — add an optional
//! field instead.

use bfs_bench::report::{RunReport, SCHEMA};

/// Parses a committed golden report through the current report types.
fn read(path: &str) -> RunReport {
    let text = std::fs::read_to_string(path).expect("golden report is committed");
    serde_json::from_str(&text).expect("golden report must parse")
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/run_report_v1_pr3.json"
);

const GOLDEN_PR5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/run_report_v1_pr5.json"
);

#[test]
fn pr3_era_report_still_parses() {
    let report = read(GOLDEN);
    assert_eq!(report.schema, SCHEMA);

    // Workload identity as captured when the golden was generated.
    assert_eq!(report.vertices, 1024);
    assert_eq!(report.edges, 16384);
    assert_eq!(report.sockets, 1);
    assert_eq!(report.lanes_per_socket, 2);
    assert_eq!(report.threads, 2);
    assert_eq!(report.vis, "bit");
    assert_eq!(report.scheduling, "load-balanced");
    assert_eq!(report.direction, "auto");

    // Per-query rows survive with full fidelity.
    assert_eq!(report.queries.len(), 4);
    let q0 = &report.queries[0];
    assert_eq!(q0.root, 317);
    assert_eq!(q0.depth, 4);
    assert_eq!(q0.visited_vertices, 807);
    assert_eq!(q0.traversed_edges, 16384);
    assert_eq!(q0.bottom_up_steps, 3);
    assert_eq!(q0.directions.len(), q0.depth as usize);
    assert!(q0.mteps > 0.0 && q0.latency_ms > 0.0);

    // The batch block predates nothing — it was already optional in PR 3.
    let batch = report.batch.as_ref().expect("golden was a batch run");
    assert_eq!(batch.queries, 4);
    assert!(batch.harmonic_mteps > 0.0);
    assert!(batch.harmonic_mteps <= batch.mean_mteps + 1e-9);

    // Fields added after PR 3 must be absent, not errors.
    assert_eq!(report.git_rev, None);
    assert_eq!(report.rustc, None);
    assert_eq!(report.host_cores, None);
    assert_eq!(report.llc_bytes, None);
    assert!(report.metrics.is_none());
}

#[test]
fn pr5_era_report_still_parses() {
    // A report emitted by the PR 5 binary: environment header and
    // hw_events exist, but the batch latency percentiles added in PR 6 do
    // not. They must deserialize as `None`, never as an error.
    let report = read(GOLDEN_PR5);
    assert_eq!(report.schema, SCHEMA);

    // The PR 4/5 additions are populated in this era.
    assert_eq!(report.git_rev.as_deref(), Some("4e8942c"));
    assert!(report.rustc.as_deref().unwrap().starts_with("rustc 1."));
    assert_eq!(report.host_cores, Some(8));
    assert_eq!(report.llc_bytes, Some(33_554_432));
    assert!(report
        .hw_events
        .as_deref()
        .unwrap()
        .starts_with("unavailable:"));
    assert!(
        report.metrics.is_none(),
        "golden carried a null metrics block"
    );

    // The PR 6 additions must come back absent.
    let batch = report.batch.as_ref().expect("golden was a batch run");
    assert_eq!(batch.latency_p50_ms, None);
    assert_eq!(batch.latency_p99_ms, None);
    assert_eq!(batch.latency_p999_ms, None);
}

const GOLDEN_PR6: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/run_report_v1_pr6.json"
);

#[test]
fn pr6_era_report_still_parses() {
    // A report emitted by the PR 6 binary: batch latency percentiles
    // exist, but the PR 7 memory-layout provenance (`relabel`,
    // `hugepages`) does not. The new fields must deserialize as `None`,
    // never as an error.
    let report = read(GOLDEN_PR6);
    assert_eq!(report.schema, SCHEMA);
    assert_eq!(report.git_rev.as_deref(), Some("3f95ba5"));
    let batch = report.batch.as_ref().expect("golden was a batch run");
    assert!(batch.latency_p50_ms.is_some());
    assert!(batch.latency_p999_ms.is_some());

    // The PR 7 additions must come back absent.
    assert_eq!(report.relabel, None);
    assert_eq!(report.hugepages, None);
}

#[test]
fn reserialized_golden_roundtrips() {
    // Writing a parsed old report back out and re-reading it must preserve
    // every query row and the batch block exactly.
    let report = read(GOLDEN);
    let text = report.to_json().unwrap();
    let back: RunReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back.queries.len(), report.queries.len());
    for (a, b) in back.queries.iter().zip(&report.queries) {
        assert_eq!(
            (a.root, a.depth, a.bottom_up_steps, &a.directions),
            (b.root, b.depth, b.bottom_up_steps, &b.directions)
        );
        assert_eq!((a.mteps, a.latency_ms), (b.mteps, b.latency_ms));
    }
    let (a, b) = (back.batch.unwrap(), report.batch.unwrap());
    assert_eq!(a.harmonic_mteps, b.harmonic_mteps);
    assert_eq!(a.queries_per_sec, b.queries_per_sec);
}
