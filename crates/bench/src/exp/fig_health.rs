//! Health-plane figure: what the online observability stack sees while
//! Sprayer, RSS, and SCR ride through the same fault + reconfiguration
//! window.
//!
//! The chaos workload (adversarial bursts, a mid-run core crash, the
//! watchdog's unplanned rescale over the survivors) runs under all
//! three dispatch modes with the full health plane on: per-stage time
//! attribution, the streaming reordering-depth sketch, the typed
//! health-event bus, and the SLO evaluator. The experiment prints the
//! flame-style stage breakdown and the live reorder-depth histogram per
//! mode, and hard-asserts the plane's own correctness claims:
//!
//! * the injected crash raises a critical `worker_death` alert in every
//!   mode, and the unplanned rescale lands on the bus as a
//!   `reconfig_phase` lifecycle event;
//! * the online sketch's reordered-completion count equals the offline
//!   Fenwick analyzer's over the same trace — exactly, the simulator is
//!   deterministic (Sprayer and SCR reorder, RSS does not);
//! * every busy cycle is attributed to exactly one pipeline stage —
//!   including SCR's replay (classify) and publish (redirect-budget)
//!   cycles.
//!
//! Each mode's datapoint carries the `profile_*`, `reorder_*`, and
//! `health_*` metric sets the gate diffs against the committed
//! baselines (alert counts at zero slack, the NF stage share at 10%).

use crate::{Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::health::{run as run_health, HealthConfig};
use sprayer_obs::{export_health_telemetry, MetricsRegistry, Severity, Stage};
use sprayer_sim::Time;
use std::fmt::Write as _;

/// Text rendering of the reorder-depth histogram: one row per occupied
/// log-linear bucket, bar length proportional to the count.
fn depth_histogram(r: &sprayer_obs::ReorderReport) -> String {
    let buckets = r.depth_hist.nonzero_buckets();
    let peak = buckets.iter().map(|&(_, n)| n).max().unwrap_or(1);
    let mut out = String::new();
    for (depth, n) in buckets {
        let bar = ((n * 40).div_ceil(peak)) as usize;
        let _ = writeln!(out, "  depth {depth:>5}  {n:>8}  {}", "#".repeat(bar));
    }
    out
}

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&DispatchMode::ALL);
    let (flows, duration) = args.pick((64, Time::from_ms(18)), (256, Time::from_ms(60)));
    let mut report = Report::new(
        "== fig_health: online health plane through fault + rescale, Sprayer vs RSS vs SCR ==\n",
    );
    let mut table = Table::new(vec![
        "mode",
        "classify%",
        "redirect%",
        "nf%",
        "tx%",
        "reordered",
        "offline",
        "depth p99",
        "alerts",
        "critical",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut details = String::new();
    for &mode in &modes {
        let r = run_health(&HealthConfig::paper(mode, flows, duration, 1));

        // Hard gates: the plane must see the fault it was pointed at.
        assert_eq!(r.recoveries.len(), 1, "{mode}: the crash must be detected");
        assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
        let death = r
            .alert("worker_death")
            .unwrap_or_else(|| panic!("{mode}: the injected crash must raise an alert"));
        assert_eq!(death.severity, Severity::Critical, "{mode}");
        let counts = r.health.counts();
        assert!(
            counts.get("reconfig_phase").copied().unwrap_or(0) >= 1,
            "{mode}: the unplanned rescale must land on the bus"
        );
        // Cross-validation: streaming sketch vs offline Fenwick
        // analyzer over the same completions — exact in the simulator.
        assert_eq!(
            r.reorder.reordered, r.offline_reordered,
            "{mode}: online and offline reordered counts must agree"
        );
        match mode {
            DispatchMode::Sprayer | DispatchMode::Scr => {
                assert!(r.reorder.reordered > 0, "{mode}: spraying reorders")
            }
            DispatchMode::Rss => assert_eq!(r.reorder.reordered, 0, "per-flow RSS keeps order"),
        }
        if mode == DispatchMode::Scr {
            assert_eq!(
                r.stats.scr_replay_gap(),
                0,
                "{mode}: updates must be conserved through the crash: {:?}",
                r.stats
            );
        }
        // Attribution completeness: stage ticks are a partition of the
        // busy time, nothing double-counted or dropped — SCR's replay
        // and publish cycles included.
        let busy: u64 = r.stats.per_core.iter().map(|c| c.busy_cycles).sum();
        assert_eq!(r.profile.total_ticks(), busy, "{mode}: attribution leak");

        let pct = |s: Stage| fmt_f(r.profile.share(s) * 100.0, 1);
        table.row(vec![
            mode_slug(mode),
            pct(Stage::Classify),
            pct(Stage::Redirect),
            pct(Stage::Nf),
            pct(Stage::Tx),
            r.reorder.reordered.to_string(),
            r.offline_reordered.to_string(),
            r.reorder.depth_hist.p99().unwrap_or(0).to_string(),
            r.alerts.len().to_string(),
            r.alerts
                .iter()
                .filter(|a| a.severity == Severity::Critical)
                .count()
                .to_string(),
        ]);

        let _ = writeln!(details, "{mode}: reorder depth histogram (live sketch):");
        details.push_str(&depth_histogram(&r.reorder));
        for a in &r.alerts {
            let _ = writeln!(
                details,
                "{mode}: alert [{}] {} x{}: {}",
                a.severity.as_str(),
                a.rule,
                a.count,
                a.detail
            );
        }
        details.push('\n');

        let mut reg = MetricsRegistry::new();
        reg.set_str("mode", &mode_slug(mode));
        reg.set_u64("flows", flows as u64);
        reg.set_f64("offered_pps", r.offered_pps);
        reg.set_f64("processed_pps", r.processed_pps);
        reg.set_u64("adversarial_injected", r.injected);
        r.profile.export(&mut reg);
        r.reorder.export(&mut reg);
        reg.set_u64("reorder_offline_reordered", r.offline_reordered);
        reg.set_u64("reorder_offline_max_depth", r.offline_max_depth);
        // Ring-loss accounting: the offline cross-checks above are only
        // exact over a complete trace, so a nonzero drop count is a
        // gated regression, not a curiosity.
        reg.set_u64("trace_events_dropped", r.trace_events_dropped);
        export_health_telemetry(&mut reg, &r.health, &r.alerts);
        reg.set_raw_json("samples", r.samples.to_json());
        reg.set_raw_json("telemetry", r.stats.to_json());
        telemetry.push(reg.to_json());
    }
    report.table("fig_health", table);
    report.say(details.trim_end());

    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "health");
    reg.set_str("variant", args.pick("quick", "full"));
    report.telemetry(reg, &telemetry);
    report.say(
        "\npaper shape: the health plane watches spraying pay for its balance in\n\
         reordering (online sketch == offline analyzer) while every mode raises\n\
         the same critical alert for the injected crash; SCR's classify share\n\
         carries the replay work the other modes don't do.",
    );
    report
}
