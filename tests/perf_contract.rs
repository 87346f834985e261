//! Tier-1 builds the frozen benchmark.
//!
//! `perf/` is a workspace of its own, so nothing else in `cargo test`
//! compiles it, and it is frozen: a PR that claims a gain may not edit
//! it. It compiles against public items of `net`/`core`/`nf` by name, so
//! an API change that strands one of them, or a datapath change that
//! trips one of its invariant checks, has to fail here, not in the
//! pipeline's benchmark step after the PR is finished.
//!
//! Its own tests only ever run `--smoke` sizes, so the pipeline's own
//! command runs here too, at full size: what `BENCHMARK.json` says to
//! run, for each workload it lists — the 200 000-packet threaded trials
//! with their conservation checks and the `*.full.*` digests of
//! `perf/expected.json`. One second each of timed trials; no timing is
//! judged.

use sprayer_obs::JsonValue;
use std::process::{Command, Output};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn transcript(out: &Output) -> String {
    format!(
        "--- stdout\n{}\n--- stderr\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// `BENCHMARK.json`'s `command` and the names of its `workloads`.
fn declared_benchmark() -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let strings = |v: &JsonValue| v.as_str().expect("a string").to_string();
    let command = doc.get("command").and_then(JsonValue::as_array);
    let workloads = doc.get("workloads").and_then(JsonValue::as_array);
    (
        command.expect("command").iter().map(strings).collect(),
        workloads
            .expect("workloads")
            .iter()
            .map(|w| strings(w.get("name").expect("a workload has a name")))
            .collect(),
    )
}

#[test]
fn the_frozen_benchmark_builds_and_passes_its_smoke_run() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/perf/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args([
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            manifest,
        ])
        // Its own workspace builds into its own `perf/target`, wherever
        // this run was told to build.
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo test --release --offline --manifest-path perf/Cargo.toml` failed\n{}",
        transcript(&out)
    );

    // Then what the pipeline runs, as it runs it (the build above is
    // warm, so this is the trials and little else).
    let (command, workloads) = declared_benchmark();
    assert!(!workloads.is_empty());
    let program = match command[0].as_str() {
        "cargo" => env!("CARGO"),
        other => other,
    };
    for workload in &workloads {
        let out = Command::new(program)
            .args(&command[1..])
            .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
            .current_dir(ROOT)
            .env_remove("CARGO_TARGET_DIR")
            .output()
            .expect("the benchmark command runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout.lines().last().map(JsonValue::parse);
        let verdict = match &result {
            Some(Ok(doc)) => (
                doc.get("correct").cloned(),
                doc.get("failed").and_then(JsonValue::as_u64),
            ),
            _ => (None, None),
        };
        assert!(
            out.status.success() && verdict == (Some(JsonValue::Bool(true)), Some(0)),
            "`{} --workload {workload} --seed 1 --seconds 1`: {}, last line says {verdict:?}\n{}",
            command.join(" "),
            out.status,
            transcript(&out)
        );
    }
}
