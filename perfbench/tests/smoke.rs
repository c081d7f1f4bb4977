//! Tiny end-to-end runs of the benchmark binary at SF1: every metric that
//! BENCHMARK.json names is printed with its unit, the correctness gates
//! pass, a corrupted expected digest is caught, and a seed fixes the
//! inputs and the result digests.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct RunRecord {
    query_list: QueryList,
    result_digest: String,
}

#[derive(Deserialize)]
struct QueryList {
    hash: String,
}

/// The metrics BENCHMARK.json declares for a traced or an untraced run.
fn declared(trace: bool) -> Vec<Declared> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let bench: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    if trace {
        bench.per_layer
    } else {
        bench.end_to_end
    }
}

/// Runs the benchmark small and returns (run record, result line).
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (RunRecord, ResultLine) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&work).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_s2rdf-perfbench"))
        .current_dir(&work)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "1"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let record = lines[lines.len() - 2]
        .strip_prefix("run ")
        .expect("run record before the result");
    (
        serde_json::from_str(record).expect("run record parses"),
        serde_json::from_str(lines[lines.len() - 1]).expect("result line parses"),
    )
}

fn assert_reports(workload: &str, trace: bool) {
    let (_, result) = run(workload, 7, trace, &[]);
    assert!(result.correct, "{workload}");
    assert_eq!(result.failed, 0, "{workload}");
    assert!(result.attempted >= 1);
    let metrics = &result.metrics;
    let want = declared(trace);
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for Declared { name, unit } in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(m.unit, unit, "{workload}: unit of {name}");
        assert!(m.value.is_finite(), "{workload}: {name}");
    }
    if !trace {
        assert_eq!(metrics["success_ratio"].value, 1.0);
        for name in [
            "queries_per_s",
            "query_p50_ms",
            "write_triples_per_s",
            "setup_s",
        ] {
            assert!(metrics[name].value > 0.0, "{workload}: {name}");
        }
    }
}

#[test]
fn bound_reports_every_metric() {
    assert_reports("bound", false);
    assert_reports("bound", true);
}

#[test]
fn cold_reports_every_metric() {
    assert_reports("cold", false);
    assert_reports("cold", true);
}

#[test]
fn corrupted_expected_digest_counts_as_failure() {
    let (_, result) = run("cold", 7, false, &["--corrupt-digest"]);
    assert!(!result.correct);
    assert_eq!(result.failed, 1);
    let ratio = result.metrics["success_ratio"].value;
    assert!(ratio < 1.0, "success_ratio {ratio}");
}

#[test]
fn seed_fixes_queries_and_digests() {
    let (a, _) = run("cold", 5, false, &[]);
    let (b, _) = run("cold", 5, false, &[]);
    let (c, _) = run("cold", 6, false, &[]);
    assert_eq!(a.query_list.hash, b.query_list.hash);
    assert_eq!(a.result_digest, b.result_digest);
    assert_ne!(a.query_list.hash, c.query_list.hash);
}
