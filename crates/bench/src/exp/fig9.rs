//! Figure 9: Jain's fairness index across per-flow TCP throughputs, for
//! an increasing number of flows. Error bars are min/max over runs.
//!
//! Paper reference points: "While Sprayer consistently achieves fair
//! throughput (Jain's index close to 1.0), RSS's fairness depends on the
//! number of flows each core has to process."
//!
//! Each datapoint of the telemetry document embeds a representative
//! run's time-series [`sprayer_obs::SampleSet`] — the instantaneous
//! per-core Jain timeline behind the end-of-run index — which is what
//! the gate diffs against the committed baselines.

use crate::{mode_headers, Report, RunArgs};
use sprayer::config::{DispatchMode, ObsConfig};
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::tcp::{run as run_tcp, run_seeds, TcpConfig};
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

const CYCLES: u64 = 10_000;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&[DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr]);
    let flow_points: &[usize] = args.pick(&[2, 8, 32], &[1, 2, 4, 8, 16, 32, 64, 128]);
    let seeds: &[u64] = args.pick(&[1, 2], &[1, 2, 3, 4, 5]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut report =
        Report::new("== Figure 9: Jain's fairness index vs #flows (TCP, 10k cycles) ==\n");
    let mut table = Table::new(mode_headers(&["flows"], &modes, &["mean", "min", "max"]));
    for &flows in flow_points {
        let base = |mode| {
            let mut cfg = TcpConfig::paper(mode, CYCLES, flows, 0);
            // Fairness needs a longer window than throughput: with many
            // flows, per-flow convergence takes tens of thousands of
            // RTTs (the paper's iperf runs last seconds).
            cfg.warmup = Time::from_ms(100);
            cfg.duration = Time::from_ms(900);
            if args.quick {
                cfg.warmup = Time::from_ms(30);
                cfg.duration = Time::from_ms(150);
            }
            cfg
        };
        let mut cells = vec![flows.to_string()];
        for &mode in &modes {
            let sweep = run_seeds(&base(mode), seeds);
            // One representative run (the first sweep seed) with the
            // per-core sampler on: the *timeline* of the imbalance the
            // table's end-of-run index summarizes.
            let sampled = run_tcp(&TcpConfig {
                seed: seeds[0],
                obs: ObsConfig::sampling(),
                ..base(mode)
            });
            let samples = sampled.samples.as_ref().expect("sampling enabled");
            telemetry.push(format!(
                "{{\"figure\":\"9\",\"mode\":\"{}\",\"flows\":{flows},\
                 \"jain_mean\":{:.4},\"jain_min\":{:.4},\"jain_max\":{:.4},\
                 \"gbps_mean\":{:.4},\"sampled_jain\":{:.4},\
                 \"sampled_gbps\":{:.4},\"samples\":{},\"telemetry\":{}}}",
                mode_slug(mode),
                sweep.jain_mean,
                sweep.jain_min,
                sweep.jain_max,
                sweep.gbps_mean,
                sampled.jain,
                sampled.gbps(),
                samples.to_json(),
                sampled.stats.to_json(),
            ));
            cells.push(fmt_f(sweep.jain_mean, 3));
            cells.push(fmt_f(sweep.jain_min, 3));
            cells.push(fmt_f(sweep.jain_max, 3));
        }
        table.row(cells);
    }
    report.table("fig9_fairness", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "9");
    reg.set_str("variant", args.pick("quick", "full"));
    report.telemetry(reg, &telemetry);
    report.say(
        "paper shape: Sprayer pinned at ~1.0; RSS dips (hash-collision\n\
         imbalance across cores) with wide min/max bars at moderate flow counts.",
    );
    report
}
