//! `sprayer-bench gate`: the benchmark regression gate.
//!
//! For every committed baseline `<baselines>/<name>.json`, compare the
//! freshly generated `<results>/<name>.json` under the per-metric rules
//! in [`sprayer_bench::gate`] and write a `<results>/BENCH_<name>.json`
//! trajectory artifact.
//!
//! Exit codes: `0` every gate passed; `1` an error prevented gating
//! (missing/unreadable document, shape mismatch, empty baseline dir);
//! `2` at least one metric regressed. Regressions win over errors so CI
//! never masks a real regression behind a noisy error.

use crate::{json_stems, save, Words};
use sprayer_bench::gate;
use sprayer_bench::report::{fmt_f, Table};
use std::path::{Path, PathBuf};

pub fn main(mut words: Words) -> Result<u8, String> {
    let mut baselines = PathBuf::from("results/baselines");
    let mut results = PathBuf::from("results");
    let mut only = None;
    while let Some(w) = words.next() {
        match w {
            "--baselines" => baselines = PathBuf::from(words.value(w)?),
            "--results" => results = PathBuf::from(words.value(w)?),
            "--only" => only = Some(words.value(w)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mut names = json_stems(&baselines).unwrap_or_default();
    names.retain(|n| only.is_none_or(|o| n == o));
    if names.is_empty() {
        eprintln!("gate: no baselines matched in {}", baselines.display());
        return Ok(1);
    }

    println!("== gate: {} baseline(s) ==\n", names.len());
    let mut table = Table::new(vec!["gate", "metrics", "worst rel change", "verdict"]);
    let mut errors = 0usize;
    let mut regressions = 0usize;
    for name in &names {
        let read = |dir: &Path| {
            let path = dir.join(format!("{name}.json"));
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let pair = read(&baselines).and_then(|b| Ok((b, read(&results)?)));
        let report = match pair.and_then(|(b, c)| gate::compare(name, &b, &c)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gate: {e}");
                table.row(vec![name.clone(), "-".into(), "-".into(), "ERROR".into()]);
                errors += 1;
                continue;
            }
        };
        if let Err(e) = save(
            &results.join(format!("BENCH_{name}.json")),
            &report.to_json(),
        ) {
            eprintln!("gate: {e}");
            errors += 1;
        }
        let worst = report
            .metrics
            .iter()
            .map(|m| match m.rule.direction {
                gate::Direction::HigherIsBetter => m.rel_change,
                gate::Direction::LowerIsBetter => -m.rel_change,
            })
            .fold(f64::INFINITY, f64::min);
        // New gated metrics the baseline predates: informational — the
        // values have no reference yet, so they pass, but leaving them
        // unlisted would let them ride ungated forever.
        for p in &report.added {
            println!("gate: {name}: new gated metric (refresh the baseline): {p}");
        }
        let verdict = if !report.missing.is_empty() {
            errors += 1;
            for p in &report.missing {
                eprintln!("gate: {name}: gated path missing from fresh document: {p}");
            }
            "ERROR (shape)".to_string()
        } else if report.regressions() > 0 {
            regressions += report.regressions();
            for m in report.metrics.iter().filter(|m| m.regressed) {
                eprintln!(
                    "gate: {name}: REGRESSED {}: {} -> {} ({:+.1}%, allowed {:.3})",
                    m.path,
                    m.baseline,
                    m.current,
                    m.rel_change * 100.0,
                    m.rule.allowance(m.baseline),
                );
            }
            format!("REGRESSED ({})", report.regressions())
        } else {
            "pass".to_string()
        };
        table.row(vec![
            name.clone(),
            report.metrics.len().to_string(),
            if worst.is_finite() {
                format!("{:+}%", fmt_f(worst * 100.0, 2))
            } else {
                "-".to_string()
            },
            verdict,
        ]);
    }
    println!("\n{}", table.render());

    if regressions > 0 {
        eprintln!("gate: {regressions} metric(s) regressed");
        return Ok(2);
    }
    if errors > 0 {
        eprintln!("gate: {errors} error(s)");
        return Ok(1);
    }
    println!("gate: all gates passed");
    Ok(0)
}
