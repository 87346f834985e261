//! Figure 8: 99th-percentile RTT for 64 B packets at 70 % load, single
//! flow, vs cycles/packet.
//!
//! Paper reference points: both systems ≈10 µs at 0 cycles; RSS grows to
//! ≈20 µs at 10 000 cycles (queueing at one 70 %-utilized core) while
//! Sprayer stays low (≈12 µs) because the same load spreads over eight
//! cores. SCR spreads identically; its tail carries the replay work
//! instead of redirect hops.
//!
//! Percentiles come from the runtime-emitted sojourn histogram
//! ([`sprayer::config::ObsConfig::latency`]); the full per-datapoint
//! histograms land in the telemetry document.

use crate::{mode_headers, Report, RunArgs};
use sprayer::config::DispatchMode;
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::latency;
use sprayer_obs::MetricsRegistry;

pub fn run(args: &RunArgs) -> Report {
    let modes = args.modes(&[DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr]);
    let cycle_points: &[u64] = args.pick(
        &[0, 5_000, 10_000],
        &[0, 1_000, 2_500, 5_000, 7_500, 10_000],
    );
    let mut report = Report::new(
        "== Figure 8: p99 RTT at 70% of the minimal processing rate (single flow) ==\n",
    );
    let mut headers = mode_headers(&["cycles", "load Mpps"], &modes, &["p99 us"]);
    headers.extend(mode_headers(&[], &modes, &["p999 us"]));
    let mut table = Table::new(headers);
    let mut datapoints: Vec<String> = Vec::new();
    for &cycles in cycle_points {
        let runs: Vec<_> = modes
            .iter()
            .map(|&mode| latency::run(mode, cycles, 0.7, 1))
            .collect();
        for (&mode, r) in modes.iter().zip(&runs) {
            datapoints.push(format!(
                "{{\"figure\":\"8\",\"mode\":\"{}\",\"cycles\":{cycles},\
                 \"offered_pps\":{:.1},\"p50_us\":{:.3},\"p99_us\":{:.3},\
                 \"p999_us\":{:.3},\"sojourn_ns\":{}}}",
                mode_slug(mode),
                r.offered_pps,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.sojourn.to_json()
            ));
        }
        let mut cells = vec![cycles.to_string(), fmt_f(runs[0].offered_pps / 1e6, 3)];
        for r in &runs {
            cells.push(fmt_f(r.p99_us, 2));
        }
        for r in &runs {
            cells.push(fmt_f(r.p999_us, 2));
        }
        table.row(cells);
    }
    report.table("fig8_latency", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("figure", "8");
    reg.set_str("source", "runtime sojourn histogram (ObsConfig::latency)");
    reg.set_f64("base_rtt_us", latency::BASE_RTT_US);
    report.telemetry(reg, &datapoints);
    report.say(
        "paper shape: flat ~10 us for Sprayer; RSS rises toward ~20 us as the busy\n\
         loop grows (one core at 70% utilization queues; eight cores at ~9% do not).",
    );
    report
}
