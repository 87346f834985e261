//! Chaos figure: Sprayer vs RSS vs SCR through a mid-run core failure
//! under adversarial traffic.
//!
//! One open-loop trace runs under all three dispatch modes while a
//! fault schedule fires: a checksum-collapse burst (every TCP checksum
//! identical — the attack on checksum-bit spraying), truncated and
//! garbage frames (dropped as malformed at the NIC), and a worker-core
//! crash detected after a 100 µs watchdog deadline. Recovery is an
//! *unplanned* rescale over the survivors: under Sprayer the rendezvous
//! designated set remaps only the dead core's flows (their
//! write-partitioned state is lost with the core, nothing migrates),
//! RSS rebuilds its indirection table and must migrate remapped
//! surviving flows too, and under SCR every survivor already holds the
//! full replica — recovery truncates the dead core's log and loses
//! *zero* flows while migrating *zero* flows.
//!
//! Each mode's datapoint is a full registry document carrying the
//! standard `recovery_*`/`fault_*` metric set
//! ([`sprayer_ctl::export_fault_telemetry`]), which the gate diffs
//! against the committed baselines. The flight recorder is on for all
//! runs: the crash latches it, the controller's alert→dump hook writes
//! `results/fig_chaos_flight_<mode>.txt`, and `sprayer-bench blackbox`
//! renders those dumps as a post-mortem timeline.

use crate::{migrated_totals, Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::chaos::{run as run_chaos, ChaosConfig};
use sprayer_ctl::export_fault_telemetry;
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;
use std::path::PathBuf;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&DispatchMode::ALL);
    let (flows, duration) = args.pick((64, Time::from_ms(18)), (256, Time::from_ms(60)));
    let mut report =
        Report::new("== fig_chaos: core failure + adversarial traffic, Sprayer vs RSS vs SCR ==\n");
    let mut table = Table::new(vec![
        "mode",
        "failed",
        "active",
        "migrated",
        "flows lost",
        "pkts lost",
        "detect us",
        "downtime us",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut migrated: Vec<(DispatchMode, u64)> = Vec::new();
    std::fs::create_dir_all("results").ok();
    for &mode in &modes {
        let dump = PathBuf::from(format!("results/fig_chaos_flight_{}.txt", mode_slug(mode)));
        let cfg = ChaosConfig {
            flight_dump: Some(dump.clone()),
            ..ChaosConfig::paper(mode, flows, duration, 1)
        };
        let r = run_chaos(&cfg);
        assert_eq!(r.recoveries.len(), 1, "{mode}: the crash must be detected");
        // The crash must also latch the flight recorder and trigger the
        // alert→dump hook, or the post-mortem story is broken.
        let flight = r.flight.as_ref().expect("flight recorder enabled");
        let freeze = flight.frozen.as_ref().expect("crash latches the recorder");
        assert_eq!(freeze.kind, "worker_death", "{mode}");
        assert_eq!(
            r.flight_dumped.as_deref(),
            Some(dump.as_path()),
            "{mode}: the alert\u{2192}dump hook must fire on the crash"
        );
        report.say(format!(
            "{}: flight recorder dumped to {} (render with `sprayer-bench blackbox {}`)",
            mode_slug(mode),
            dump.display(),
            dump.display()
        ));
        // Hard gate: every injected-fault run conserves packets — the
        // crash, the detection window, and the malformed bursts are all
        // accounted, nothing vanishes.
        assert_eq!(
            r.stats.unaccounted(),
            0,
            "{mode}: fault run leaks packets: {:?}",
            r.stats
        );
        assert_eq!(
            r.stats.malformed_drops, r.injected_malformed,
            "{mode}: every malformed frame must die accounted at the NIC"
        );
        if mode == DispatchMode::Scr {
            // Replication's recovery claim, enforced hard: every
            // survivor already holds the full table, so the crash
            // destroys no state and recovery moves none.
            for rec in &r.recoveries {
                assert_eq!(rec.flows_lost, 0, "SCR crash must lose zero flows");
                assert_eq!(
                    rec.migrated_flows, 0,
                    "SCR recovery must migrate zero flows"
                );
            }
            assert_eq!(
                r.stats.scr_replay_gap(),
                0,
                "SCR updates must be conserved through the crash: {:?}",
                r.stats
            );
        }
        for rec in &r.recoveries {
            table.row(vec![
                mode_slug(mode),
                rec.failed_core.to_string(),
                format!("{}->{}", rec.from_active, rec.to_active),
                rec.migrated_flows.to_string(),
                rec.flows_lost.to_string(),
                rec.packets_lost.to_string(),
                fmt_f(rec.detection_latency_ns as f64 / 1e3, 1),
                fmt_f(rec.downtime_ns as f64 / 1e3, 1),
            ]);
        }
        migrated.push((mode, r.migrated_flows_total()));
        let samples = r.samples.as_ref().expect("sampling enabled");
        let mut reg = MetricsRegistry::new();
        reg.set_str("mode", &mode_slug(mode));
        reg.set_u64("flows", flows as u64);
        reg.set_f64("offered_pps", r.offered_pps);
        reg.set_f64("processed_pps", r.processed_pps);
        reg.set_u64("adversarial_injected", r.injected);
        reg.set_f64("jain_floor_under_attack", r.jain_floor());
        if mode == DispatchMode::Scr {
            // The gated replication metrics: state destroyed by the
            // crash (zero slack — an invariant, not a trend) and the
            // replay cost of keeping every replica hot.
            reg.set_u64(
                "scr_flows_lost",
                r.recoveries.iter().map(|rec| rec.flows_lost).sum(),
            );
            reg.set_f64(
                "scr_replay_cycles_per_packet",
                r.stats.scr_replay_cycles as f64 / r.stats.processed().max(1) as f64,
            );
        }
        export_fault_telemetry(&mut reg, mode, &r.recoveries, &r.stats);
        flight.export(&mut reg);
        reg.set_raw_json("samples", samples.to_json());
        reg.set_raw_json("telemetry", r.stats.to_json());
        telemetry.push(reg.to_json());
    }
    report.table("fig_chaos", table);

    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "chaos");
    reg.set_str("variant", args.pick("quick", "full"));
    // The headline claim: recovery under spraying touches only the
    // failed core's flows, RSS's indirection-table remap many more.
    migrated_totals(&mut reg, &migrated, "recovery");
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: rendezvous recovery remaps only the dead core's flows\n\
         (their state died with the core), RSS's rebuilt indirection table\n\
         migrates survivors broadly on the same fault, and SCR's full\n\
         replicas lose nothing and move nothing — the crash costs only the\n\
         detection window.",
    );
    report
}
