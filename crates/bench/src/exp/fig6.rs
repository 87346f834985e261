//! Figure 6: effect of per-packet processing cycles with a SINGLE flow.
//!
//! (a) processing rate with 64 B packets at line rate;
//! (b) TCP throughput of one CUBIC connection.
//!
//! Paper reference points: at 0 cycles RSS ≈ line rate (14.88 Mpps) but
//! Sprayer plateaus at ≈10 Mpps (82599 Flow Director limitation); as
//! cycles grow, RSS decays as a single core (≈0.2 Mpps at 10 000) while
//! Sprayer keeps 8 cores busy. For TCP, RSS falls to ≈2.5 Gbps at
//! 10 000 cycles while Sprayer stays ≈9.4 Gbps. The third column is the
//! replication follow-up (SCR): sprayed like Sprayer, but state updates
//! are multicast and replayed instead of packets being redirected.

use crate::{mode_headers, Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::{rate, tcp};
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&[DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr]);
    let cycle_points: &[u64] = args.pick(
        &[0, 2_500, 10_000],
        &[0, 1_000, 2_500, 5_000, 7_500, 10_000],
    );
    let mut telemetry: Vec<String> = Vec::new();
    let mut report =
        Report::new("== Figure 6(a): processing rate vs cycles/packet (single flow, 64 B) ==\n");
    let mut t6a = Table::new(mode_headers(&["cycles"], &modes, &["Mpps"]));
    for &cycles in cycle_points {
        let mut cells = vec![cycles.to_string()];
        for &mode in &modes {
            let r = rate::run(&rate::RateConfig::paper(mode, cycles, 1, 1));
            telemetry.push(format!(
                "{{\"figure\":\"6a\",\"mode\":\"{}\",\"cycles\":{cycles},\
                 \"mpps\":{:.4},\"telemetry\":{}}}",
                mode_slug(mode),
                r.mpps(),
                r.stats.to_json()
            ));
            cells.push(fmt_f(r.mpps(), 3));
        }
        t6a.row(cells);
    }
    report.table("fig6a_processing_rate", t6a);

    report.say("\n== Figure 6(b): TCP throughput vs cycles/packet (single CUBIC flow) ==\n");
    let mut t6b = Table::new(mode_headers(&["cycles"], &modes, &["Gbps"]));
    for &cycles in cycle_points {
        let mut cells = vec![cycles.to_string()];
        for &mode in &modes {
            let mut cfg = tcp::TcpConfig::paper(mode, cycles, 1, 1);
            if args.quick {
                cfg.warmup = Time::from_ms(30);
                cfg.duration = Time::from_ms(120);
            }
            let r = tcp::run(&cfg);
            telemetry.push(format!(
                "{{\"figure\":\"6b\",\"mode\":\"{}\",\"cycles\":{cycles},\
                 \"gbps\":{:.4},\"telemetry\":{}}}",
                mode_slug(mode),
                r.gbps(),
                r.stats.to_json()
            ));
            cells.push(fmt_f(r.gbps(), 2));
        }
        t6b.row(cells);
    }
    report.table("fig6b_tcp_throughput", t6b);
    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "6");
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: (a) Sprayer plateaus ~10 Mpps at 0 cycles (NIC cap) then wins up to ~8x;\n\
         (b) RSS decays to ~2.5 Gbps at 10k cycles, Sprayer stays near line rate;\n\
         SCR tracks Sprayer without redirects, paying replay cycles instead.",
    );
    report
}
