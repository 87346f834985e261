//! Figure 7: effect of the number of flows at 10 000 cycles/packet.
//!
//! (a) processing rate (64 B packets at line rate);
//! (b) TCP throughput of concurrent CUBIC connections.
//!
//! Paper reference points: Sprayer is flat across flow counts; RSS
//! climbs as more flows spread over cores ("RSS shows considerably worse
//! throughput for a small number of flows and a slightly better
//! throughput for a sufficiently large number of flows"). The SCR column
//! is the replication follow-up: also flat (sprayed), with the
//! redirect-free connection path traded for per-update replay work.

use crate::{mode_headers, Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::{rate, tcp};
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

const CYCLES: u64 = 10_000;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&[DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr]);
    let flow_points: &[usize] = args.pick(&[1, 8, 64], &[1, 2, 4, 8, 16, 32, 64, 128]);
    let seeds: &[u64] = args.pick(&[1, 2], &[1, 2, 3, 4, 5]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut report =
        Report::new("== Figure 7(a): processing rate vs #flows (10k cycles, 64 B) ==\n");
    let mut t7a = Table::new(mode_headers(&["flows"], &modes, &["Mpps", "sd"]));
    for &flows in flow_points {
        let mut cells = vec![flows.to_string()];
        for &mode in &modes {
            // Seed sweep by hand so the first seed's telemetry block can
            // be recorded alongside the aggregate.
            let mut acc = sprayer_sim::Welford::new();
            for (i, &seed) in seeds.iter().enumerate() {
                let cfg = rate::RateConfig::paper(mode, CYCLES, flows, seed);
                let r = rate::run(&cfg);
                acc.add(r.mpps());
                if i == 0 {
                    telemetry.push(format!(
                        "{{\"figure\":\"7a\",\"mode\":\"{}\",\"flows\":{flows},\
                         \"seed\":{seed},\"mpps\":{:.4},\"telemetry\":{}}}",
                        mode_slug(mode),
                        r.mpps(),
                        r.stats.to_json()
                    ));
                }
            }
            cells.push(fmt_f(acc.mean(), 3));
            cells.push(fmt_f(acc.std_dev(), 3));
        }
        t7a.row(cells);
    }
    report.table("fig7a_processing_rate", t7a);

    report.say("\n== Figure 7(b): TCP throughput vs #flows (10k cycles) ==\n");
    let mut t7b = Table::new(mode_headers(&["flows"], &modes, &["Gbps", "sd"]));
    for &flows in flow_points {
        let mut cells = vec![flows.to_string()];
        for &mode in &modes {
            let mut acc = sprayer_sim::Welford::new();
            for (i, &seed) in seeds.iter().enumerate() {
                let mut cfg = tcp::TcpConfig::paper(mode, CYCLES, flows, seed);
                if args.quick {
                    cfg.warmup = Time::from_ms(30);
                    cfg.duration = Time::from_ms(100);
                }
                let r = tcp::run(&cfg);
                acc.add(r.gbps());
                if i == 0 {
                    telemetry.push(format!(
                        "{{\"figure\":\"7b\",\"mode\":\"{}\",\"flows\":{flows},\
                         \"seed\":{seed},\"gbps\":{:.4},\"telemetry\":{}}}",
                        mode_slug(mode),
                        r.gbps(),
                        r.stats.to_json()
                    ));
                }
            }
            cells.push(fmt_f(acc.mean(), 2));
            cells.push(fmt_f(acc.std_dev(), 2));
        }
        t7b.row(cells);
    }
    report.table("fig7b_tcp_throughput", t7b);
    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "7");
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: Sprayer flat (~1.5 Mpps / ~9 Gbps); RSS ramps with flows and\n\
         overtakes slightly once enough flows cover all cores (no reordering);\n\
         SCR stays flat like Sprayer with zero redirected packets.",
    );
    report
}
