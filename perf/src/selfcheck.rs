//! `--selfcheck`: every workload twice, each run in a fresh process, and
//! the two sets must agree on every end-to-end metric within the bound
//! `BENCHMARK.json` fixes for it, with no failed packet in either.

use crate::{Size, BENCHMARK_JSON};
use sprayer_obs::JsonValue;
use std::process::{Command, ExitCode};

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_once(workload: &str, seed: u64, seconds: f64, size: Size) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let doc = JsonValue::parse(last).map_err(|e| format!("{workload}: {e}: {last}"))?;
    let field = |name: &str| doc.get(name).ok_or(format!("{workload}: no {name}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: field("correct")? == &JsonValue::Bool(true) && out.status.success(),
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
    })
}

pub fn run(seed: u64, seconds: f64, size: Size) -> ExitCode {
    let contract = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<&JsonValue> {
        contract
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("BENCHMARK.json lists it")
            .iter()
            .collect()
    };
    let mut ok = true;
    for workload in names("workloads") {
        let workload = workload
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("a workload has a name");
        let sets: Vec<RunResult> = match (0..2)
            .map(|_| run_once(workload, seed, seconds, size))
            .collect()
        {
            Ok(sets) => sets,
            Err(e) => {
                println!("{workload}: {e}");
                ok = false;
                continue;
            }
        };
        for (i, set) in sets.iter().enumerate() {
            if !set.correct || set.failed != 0 {
                println!(
                    "{workload}: set {i} failed its checks ({} packets)",
                    set.failed
                );
                ok = false;
            }
        }
        for metric in names("end_to_end") {
            let name = metric
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("name");
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .expect("bound");
            let value =
                |set: &RunResult| set.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (Some(a), Some(b)) = (value(&sets[0]), value(&sets[1])) else {
                println!("{workload} {name}: not reported");
                ok = false;
                continue;
            };
            let gap = a.max(b) / a.min(b) - 1.0;
            let verdict = if gap <= bound { "ok" } else { "DISAGREE" };
            println!("{workload:<8} {name:<16} {a:>12.4} {b:>12.4}  gap {gap:>6.3}  bound {bound}  {verdict}");
            ok &= gap <= bound;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
