//! Soak figure: bounded-memory flow lifecycle under composed failures,
//! Sprayer vs RSS vs SCR.
//!
//! Heavy-tailed TCP flow churn runs for the whole horizon with the
//! flow-table lifecycle on (FIN-driven reclaim, idle aging, LRU
//! backstop) while one composed [`Plan`] fires a checksum-collapse
//! burst, a worker-core crash with watchdog recovery, and a planned
//! scale-up/scale-down pair. The run hard-asserts the soak invariants
//! in every dispatch mode: flat steady-state table occupancy, every
//! eviction accounted by reason (`flow_unaccounted() == 0`), packet
//! conservation through crash + rescales + attack
//! (`unaccounted() == 0`), and under SCR, update conservation
//! (`scr_replay_gap() == 0`) with zero flows lost at the crash.
//!
//! Each mode's datapoint carries the occupancy high-water mark and
//! LRU-eviction count (both gated with zero slack — memory must not
//! creep and quick runs must never hit the backstop), the standard
//! `recovery_*`/`reconfig_*` metric sets, and the full
//! occupancy/eviction-reason timeline as trajectory data.
//!
//! [`Plan`]: sprayer_ctl::Plan

use crate::{Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, json_array, mode_slug, Table};
use sprayer_bench::scenarios::soak::{run as run_soak, SoakConfig, SoakResult};
use sprayer_ctl::{export_fault_telemetry, export_reconfig_telemetry};
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

fn timeline_json(r: &SoakResult) -> String {
    let entries: Vec<String> = r
        .timeline
        .iter()
        .map(|s| {
            format!(
                "{{\"t_ns\":{},\"occupancy\":{},\"hwm\":{},\"fin\":{},\
                 \"idle\":{},\"lru\":{},\"dropped\":{}}}",
                s.at.as_ps() / 1_000,
                s.occupancy,
                s.hwm,
                s.fin,
                s.idle,
                s.lru,
                s.dropped
            )
        })
        .collect();
    json_array(&entries)
}

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&DispatchMode::ALL);
    let horizon = args.pick(Time::from_ms(60), Time::from_ms(300));
    let mut report = Report::new(
        "== fig_soak: long-horizon churn + crash + rescale + attack, Sprayer vs RSS vs SCR ==\n",
    );
    let mut table = Table::new(vec![
        "mode",
        "flows",
        "occ steady",
        "occ hwm",
        "fin",
        "idle",
        "lru",
        "dropped",
        "drift %",
        "jain steady",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    for &mode in &modes {
        let cfg = SoakConfig::paper(mode, horizon, 1);
        let r = run_soak(&cfg);

        // The composed schedule must fire completely…
        assert_eq!(r.recoveries.len(), 1, "{mode}: the crash must be detected");
        assert_eq!(r.reconfigs.len(), 2, "{mode}: both planned rescales fire");
        assert!(
            r.injected >= u64::from(cfg.attack_burst),
            "{mode}: the burst was injected"
        );
        // …every identity must close at drain…
        assert_eq!(
            r.stats.unaccounted(),
            0,
            "{mode}: leaks packets: {:?}",
            r.stats
        );
        assert_eq!(
            r.stats.flow_unaccounted(),
            0,
            "{mode}: an evicted entry went unaccounted: {:?}",
            r.stats
        );
        assert_eq!(
            r.stats.scr_replay_gap(),
            0,
            "{mode}: replicated updates must be conserved: {:?}",
            r.stats
        );
        // …and the memory story must hold: reclaim by FIN and by aging
        // both ran, and occupancy went flat after warm-up.
        assert!(r.stats.fin_reclaimed > 0, "{mode}: FIN reclaim never ran");
        assert!(r.stats.idle_expired > 0, "{mode}: idle aging never ran");
        assert!(
            r.steady_drift() < 0.35,
            "{mode}: steady-state occupancy drifts {}%: {} vs {}",
            (r.steady_drift() * 100.0) as u64,
            r.mean_occupancy(0.8, 0.9),
            r.mean_occupancy(0.9, 1.01)
        );
        if mode == DispatchMode::Scr {
            for rec in &r.recoveries {
                assert_eq!(rec.flows_lost, 0, "SCR crash must lose zero flows");
            }
        }

        table.row(vec![
            mode_slug(mode),
            format!("{}/{}", r.flows_completed, r.flows_spawned),
            fmt_f(r.mean_occupancy(0.8, 1.01), 1),
            r.stats.table_occupancy_hwm.to_string(),
            r.stats.fin_reclaimed.to_string(),
            r.stats.idle_expired.to_string(),
            r.stats.lru_evicted.to_string(),
            r.stats.flows_dropped.to_string(),
            fmt_f(r.steady_drift() * 100.0, 1),
            fmt_f(r.jain_steady(), 3),
        ]);

        let mut reg = MetricsRegistry::new();
        reg.set_str("mode", &mode_slug(mode));
        reg.set_u64("offered", r.offered);
        reg.set_u64("adversarial_injected", r.injected);
        reg.set_u64("flows_spawned", r.flows_spawned);
        reg.set_u64("flows_completed", r.flows_completed);
        reg.set_u64("flows_suppressed", r.flows_suppressed);
        // The two gated memory invariants: the high-water mark may not
        // creep upward at all, and the quick run must never need the
        // LRU backstop.
        reg.set_u64("table_occupancy_hwm", r.stats.table_occupancy_hwm);
        reg.set_u64("lru_evicted", r.stats.lru_evicted);
        reg.set_f64("steady_occupancy_mean", r.mean_occupancy(0.8, 1.01));
        reg.set_f64("steady_occupancy_drift", r.steady_drift());
        reg.set_f64("jain_steady", r.jain_steady());
        export_reconfig_telemetry(&mut reg, mode, &r.reconfigs);
        export_fault_telemetry(&mut reg, mode, &r.recoveries, &r.stats);
        reg.set_raw_json("timeline", timeline_json(&r));
        reg.set_raw_json("telemetry", r.stats.to_json());
        telemetry.push(reg.to_json());
    }
    report.table("fig_soak", table);

    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "soak");
    reg.set_str("variant", args.pick("quick", "full"));
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: with FIN reclaim + idle aging + the LRU backstop, the\n\
         flow table holds a flat steady state through a crash, a 2\u{2192}4\u{2192}2\n\
         rescale pair, and a checksum-collapse burst — every eviction lands\n\
         in exactly one reason counter, in every dispatch mode.",
    );
    report
}
