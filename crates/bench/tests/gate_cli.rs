//! End-to-end tests of the `sprayer-bench` command line. Mostly `gate`:
//! exit codes 0/1/2 and the `BENCH_*.json` trajectory artifacts, driven
//! against synthetic baseline/result directories (including the
//! acceptance fixture: a −20% throughput perturbation must exit 2). Then
//! the usage errors of the command line itself, which all exit 1.

use sprayer_obs::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch layout `<tmp>/<tag>/{baselines,results}`.
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir()
        .join("sprayer_bench_gate_tests")
        .join(format!("{tag}_{}", std::process::id()));
    let baselines = root.join("baselines");
    let results = root.join("results");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&baselines).unwrap();
    std::fs::create_dir_all(&results).unwrap();
    (baselines, results)
}

fn doc(mpps: f64, jain: f64) -> String {
    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "6");
    reg.set_raw_json(
        "datapoints",
        format!("[{{\"cycles\":10000,\"mpps\":{mpps},\"jain\":{jain}}}]"),
    );
    reg.to_json()
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sprayer-bench"))
}

fn run_gate(baselines: &Path, results: &Path) -> std::process::Output {
    bench()
        .arg("gate")
        .arg("--baselines")
        .arg(baselines)
        .arg("--results")
        .arg(results)
        .output()
        .expect("sprayer-bench runs")
}

#[test]
fn identical_documents_pass_with_exit_0_and_write_the_artifact() {
    let (baselines, results) = scratch("pass");
    std::fs::write(baselines.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    std::fs::write(results.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The trajectory artifact is a parseable, current-version registry document.
    let artifact = std::fs::read_to_string(results.join("BENCH_fig6_telemetry.json")).unwrap();
    let (v, parsed) = MetricsRegistry::parse_document(&artifact).unwrap();
    assert_eq!(v, sprayer_obs::TELEMETRY_SCHEMA_VERSION);
    assert_eq!(parsed.get("regressions").unwrap().as_u64(), Some(0));
    assert_eq!(parsed.get("gated_metrics").unwrap().as_u64(), Some(2));
}

#[test]
fn twenty_percent_throughput_drop_exits_2() {
    let (baselines, results) = scratch("regress");
    std::fs::write(baselines.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    // The acceptance fixture: −20% mpps, fairness untouched.
    std::fs::write(results.join("fig6_telemetry.json"), doc(8.0, 0.99)).unwrap();
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSED"), "{stderr}");
    assert!(stderr.contains("mpps"), "{stderr}");

    let artifact = std::fs::read_to_string(results.join("BENCH_fig6_telemetry.json")).unwrap();
    let (_, parsed) = MetricsRegistry::parse_document(&artifact).unwrap();
    assert_eq!(parsed.get("regressions").unwrap().as_u64(), Some(1));
}

#[test]
fn small_drift_within_threshold_still_passes() {
    let (baselines, results) = scratch("drift");
    std::fs::write(baselines.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    std::fs::write(results.join("fig6_telemetry.json"), doc(9.5, 0.96)).unwrap();
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn missing_fresh_document_exits_1() {
    let (baselines, results) = scratch("missing");
    std::fs::write(baselines.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn malformed_fresh_document_exits_1() {
    let (baselines, results) = scratch("malformed");
    std::fs::write(baselines.join("fig6_telemetry.json"), doc(10.0, 0.99)).unwrap();
    std::fs::write(results.join("fig6_telemetry.json"), "not json at all").unwrap();
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn empty_baseline_dir_exits_1() {
    let (baselines, results) = scratch("empty");
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn only_flag_restricts_gating_and_regression_beats_error() {
    let (baselines, results) = scratch("only");
    std::fs::write(baselines.join("a.json"), doc(10.0, 0.99)).unwrap();
    std::fs::write(baselines.join("b.json"), doc(10.0, 0.99)).unwrap();
    // `a` regresses; `b` has no fresh document (an error) — but with
    // --only a, only `a` is gated and the regression exit code wins.
    std::fs::write(results.join("a.json"), doc(5.0, 0.99)).unwrap();
    let out = bench()
        .arg("gate")
        .arg("--baselines")
        .arg(&baselines)
        .arg("--results")
        .arg(&results)
        .arg("--only")
        .arg("a")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Without --only: both run; regression still wins over the error.
    let out = run_gate(&baselines, &results);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// Every experiment name the usage message must list.
const EXPERIMENTS: [&str; 17] = [
    "fig1",
    "fig2",
    "table1",
    "fig6",
    "fig7",
    "fig8_latency",
    "fig9",
    "fig_elastic",
    "fig_chaos",
    "fig_health",
    "fig_tail",
    "fig_soak",
    "ablation_checksum",
    "ablation_dpi",
    "ablation_redirect",
    "ablation_subset",
    "hotpath_smoke",
];

fn assert_usage_error(out: &std::process::Output) {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("no experiment list in: {stderr}"));
    let listed: Vec<&str> = listed.split_whitespace().collect();
    assert_eq!(listed, EXPERIMENTS, "{stderr}");
}

#[test]
fn unknown_subcommand_exits_1_with_usage() {
    assert_usage_error(&bench().arg("frobnicate").output().unwrap());
    assert_usage_error(&bench().output().unwrap());
}

#[test]
fn unknown_experiment_exits_1_with_usage() {
    let (_, results) = scratch("unknown_experiment");
    let out = bench()
        .args(["run", "table1", "fig10"])
        .current_dir(results.parent().unwrap())
        .output()
        .unwrap();
    assert_usage_error(&out);
    // Names are checked before anything runs: table1 printed nothing.
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn baseline_naming_no_experiment_exits_1_before_running_anything() {
    let (_, results) = scratch("stray_baseline");
    let baselines = results.join("baselines");
    std::fs::create_dir_all(&baselines).unwrap();
    std::fs::write(baselines.join("ablation_checksum_telemetry.json"), "{}").unwrap();
    std::fs::write(baselines.join("fig10_quick_telemetry.json"), "{}").unwrap();
    let out = bench()
        .args(["run", "--baselines"])
        .current_dir(results.parent().unwrap())
        .output()
        .unwrap();
    assert_usage_error(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig10_quick_telemetry.json"), "{stderr}");
    assert!(!results.join("ablation_checksum.csv").exists());
}
