//! Every workload and metric name `BENCHMARK.json` promises is emitted,
//! with its unit, by a smoke-sized run of the real binary.

use sprayer_obs::JsonValue;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no {key}"))
}

#[test]
fn every_promised_metric_is_emitted_by_every_workload() {
    let contract = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    for workload in list(&contract, "workloads") {
        let workload = text(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perf"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = JsonValue::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics");
            let promised = list(&contract, key);
            assert_eq!(metrics.len(), promised.len(), "{workload} {key}");
            for m in promised {
                let (name, unit) = (text(m, "name"), text(m, "unit"));
                let got = metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("{workload} does not emit {name}"));
                assert_eq!(text(&got.1, "unit"), unit, "{workload} {name}");
                let value = got.1.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
            }
        }
    }
}
