//! Tail-latency attribution figure: *where* Fig. 8's p99 gap lives.
//!
//! Re-runs the Fig. 8 workload (single flow, 70 % of the minimal
//! processing rate, 10k-cycle NF) under both dispatch modes with the
//! tail attribution table, the flight recorder, and tracing on, and
//! renders the per-stage breakdown of every exemplar above the fixed
//! 7 µs threshold. The figure restates Fig. 8 in attribution terms:
//! RSS's tail is queue wait on its one hot core; Sprayer spreads the
//! data packets over every core and its far smaller tail is dominated
//! by the NF body.
//!
//! Hard gates, exact in the deterministic simulator:
//!
//! * the online table matches the offline trace replay
//!   ([`sprayer_obs::tail_attribution`]) tick-for-tick — exemplar
//!   count, summed sojourn, queue wait, and redirect transit;
//! * RSS's dominant tail stage is queue wait, concentrated on one core;
//! * Sprayer captures strictly fewer exemplars than RSS;
//! * no trace events were dropped and the flight recorder stayed
//!   unfrozen (healthy run).
//!
//! Each mode's datapoint carries the `tail_*` and `flight_*` metric
//! sets the gate diffs against the committed baselines
//! (`tail_exemplars` and the ring-loss counters at zero slack).

use crate::{Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::tail::{run as run_tail, TailConfig};
use sprayer_obs::{MetricsRegistry, TailStage};
use sprayer_sim::Time;

pub fn run(args: &RunArgs) -> Report {
    let duration = args.pick(Time::from_ms(15), Time::from_ms(50));
    let mut report =
        Report::new("== fig_tail: per-stage attribution of the Fig. 8 tail, Sprayer vs RSS ==\n");
    let mut table = Table::new(vec![
        "mode",
        "completions",
        "exemplars",
        "share%",
        "queue_wait%",
        "classify%",
        "transit%",
        "nf%",
        "tx%",
        "dominant",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut exemplars = [0u64; 2];
    for (i, mode) in [DispatchMode::Sprayer, DispatchMode::Rss]
        .into_iter()
        .enumerate()
    {
        let r = run_tail(&TailConfig::paper(mode, duration, 1));

        // Hard gates: the online table must agree with the offline
        // trace replay exactly, or the attribution cannot be trusted.
        assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
        r.assert_consistent();
        exemplars[i] = r.report.exemplars;
        if mode == DispatchMode::Rss {
            assert!(r.report.exemplars > 0, "70% on one core has a tail");
            assert_eq!(
                r.report.dominant_stage(),
                TailStage::QueueWait,
                "RSS's tail is queueing on the hot core"
            );
            let active = r.report.per_core.iter().filter(|c| c.exemplars > 0).count();
            assert_eq!(active, 1, "the single flow lives on one RSS core");
        }

        let pct = |s: TailStage| fmt_f(r.report.share(s) * 100.0, 1);
        table.row(vec![
            mode_slug(mode),
            r.report.completions.to_string(),
            r.report.exemplars.to_string(),
            fmt_f(
                100.0 * r.report.exemplars as f64 / r.report.completions.max(1) as f64,
                2,
            ),
            pct(TailStage::QueueWait),
            pct(TailStage::Classify),
            pct(TailStage::RedirectTransit),
            pct(TailStage::Nf),
            pct(TailStage::Tx),
            r.report.dominant_stage().as_str().to_string(),
        ]);

        let mut reg = MetricsRegistry::new();
        reg.set_str("mode", &mode_slug(mode));
        reg.set_f64("offered_pps", r.offered_pps);
        reg.set_u64("processed", r.stats.processed());
        r.report.export(&mut reg);
        r.flight.export(&mut reg);
        reg.set_u64("trace_events_dropped", r.trace_events_dropped);
        // Offline cross-check values, committed so a baseline diff shows
        // both sides of the identity.
        reg.set_u64("tail_offline_exemplars", r.offline.exemplars);
        reg.set_u64("tail_offline_sojourn_ticks", r.offline.sojourn_ticks);
        reg.set_u64("tail_offline_queue_wait_ticks", r.offline.queue_wait_ticks);
        reg.set_u64(
            "tail_offline_redirect_transit_ticks",
            r.offline.redirect_transit_ticks,
        );
        telemetry.push(reg.to_json());
    }
    assert!(
        exemplars[0] < exemplars[1],
        "Fig. 8 restated in exemplars: sprayer {} vs rss {}",
        exemplars[0],
        exemplars[1]
    );
    report.table("fig_tail", table);

    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "tail");
    reg.set_str("variant", args.pick("quick", "full"));
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: attribution explains Fig. 8 — RSS's p99 is queue wait on\n\
         its one hot core, while spraying spreads the flow over every core and\n\
         keeps only a thin, NF-dominated tail (online table == offline replay).",
    );
    report
}
