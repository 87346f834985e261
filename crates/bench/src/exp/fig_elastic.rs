//! Elasticity figure: Sprayer vs RSS vs SCR across online scale-up and
//! scale-down events (paper §6: "scaling up the number of cores requires
//! no migration at all" under spraying, while per-flow dispatch must
//! reprogram the RSS indirection table and migrate every remapped flow;
//! under replication a joining core bootstraps its replica from the
//! quiesced snapshot and nothing migrates at all, ever).
//!
//! One oversubscribed open-loop trace (600 kpps into 2×200 kpps cores)
//! runs through a 2→4→2 core plan under all three dispatch modes. The
//! table lists every transition's migration volume and downtime; the
//! per-core sample timelines embedded in the telemetry document show
//! drops appearing while the box is small and vanishing while it is
//! large.
//!
//! Each mode's datapoint is a full registry document carrying the
//! standard `reconfig_*` metric set
//! ([`sprayer_ctl::export_reconfig_telemetry`]), which the gate diffs
//! against the committed baselines.

use crate::{migrated_totals, Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::elastic::{run as run_elastic, ElasticConfig};
use sprayer_ctl::export_reconfig_telemetry;
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&DispatchMode::ALL);
    // Phases must outlast the queues: the small configuration's
    // ~205 kpps excess needs >5 ms to overrun 2x512 slots and show up as
    // drops, so even `--quick` runs 6 ms per phase.
    let (flows, duration) = args.pick((64, Time::from_ms(18)), (256, Time::from_ms(60)));
    let mut report =
        Report::new("== fig_elastic: online 2->4->2 scaling, Sprayer vs RSS vs SCR ==\n");
    let mut table = Table::new(vec![
        "mode",
        "epoch",
        "transition",
        "migrated",
        "retained",
        "downtime us",
        "at ms",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut totals: Vec<(DispatchMode, u64)> = Vec::new();
    for &mode in &modes {
        let r = run_elastic(&ElasticConfig::paper(mode, flows, duration, 1));
        assert_eq!(r.reports.len(), 2, "{mode}: both transitions must fire");
        for rep in &r.reports {
            table.row(vec![
                mode_slug(mode),
                rep.epoch.to_string(),
                format!("{}->{}", rep.from_cores, rep.to_cores),
                rep.migrated_flows.to_string(),
                rep.retained_flows.to_string(),
                fmt_f(rep.downtime_ns as f64 / 1e3, 1),
                fmt_f(rep.at_ns as f64 / 1e6, 2),
            ]);
        }
        if mode == DispatchMode::Scr {
            // Replication's elasticity claim, enforced: joiners clone
            // the snapshot, leavers just stop — no flow ever changes
            // owner, up or down.
            assert_eq!(
                r.migrated_flows_total(),
                0,
                "SCR rescales must migrate nothing"
            );
            assert_eq!(r.stats.scr_replay_gap(), 0, "SCR updates must be conserved");
        }
        totals.push((mode, r.migrated_flows_total()));
        let samples = r.samples.as_ref().expect("sampling enabled");
        let mut reg = MetricsRegistry::new();
        reg.set_str("mode", &mode_slug(mode));
        reg.set_u64("flows", flows as u64);
        reg.set_f64("offered_pps", r.offered_pps);
        reg.set_f64("processed_pps", r.processed_pps);
        export_reconfig_telemetry(&mut reg, mode, &r.reports);
        reg.set_raw_json("samples", samples.to_json());
        reg.set_raw_json("telemetry", r.stats.to_json());
        telemetry.push(reg.to_json());
    }
    report.table("fig_elastic", table);

    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "elastic");
    reg.set_str("variant", args.pick("quick", "full"));
    // The headline claim: same trace, same plan, strictly less migration
    // under spraying.
    migrated_totals(&mut reg, &totals, "rescaling");
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: the pinned designated set makes the whole Sprayer\n\
         up/down cycle near migration-free, RSS's indirection-table\n\
         reprogram moves remapped flows broadly, and SCR's replica\n\
         snapshot bootstrap moves exactly zero.",
    );
    report
}
