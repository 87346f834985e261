//! Figure 1: CDF of TCP flow sizes, and distribution of bytes across
//! flow sizes, for the (synthetic) backbone trace.
//!
//! Paper reference points: "There are few large flows, but they are
//! responsible for the majority of the traffic. Flows with more than
//! 10 MB account for more than 75% of the traffic."

use crate::{Report, RunArgs};
use sprayer_bench::report::{fmt_f, Table};
use sprayer_trafficgen::trace::{SyntheticTrace, TraceConfig, LARGE_FLOW_BYTES};

const SEED: u64 = 1;

pub fn run(_: &RunArgs) -> Report {
    let trace = SyntheticTrace::generate(&TraceConfig::mawi_like(SEED));
    let mut report = Report::new("== Figure 1: flow-size CDF and byte distribution ==");
    report.say(format!(
        "trace: {} flows, {:.1} GB total, {:.0}s capture (seed {SEED})\n",
        trace.flows.len(),
        trace.total_bytes() as f64 / 1e9,
        trace.duration.as_secs_f64(),
    ));

    let flows = trace.flow_size_cdf();
    let bytes = trace.bytes_by_size_cdf();
    let mut table = Table::new(vec!["size (bytes)", "CDF flows", "CDF bytes"]);
    for exp in 4..=33 {
        // Log-spaced x axis, 10^1.2 .. 10^10-ish, matching the figure.
        let x = 10f64.powf(exp as f64 * 0.3);
        table.row(vec![
            format!("{:>12.0}", x),
            fmt_f(flows.fraction_at(x), 4),
            fmt_f(bytes.fraction_at(x), 4),
        ]);
    }
    report.table("fig1_flow_sizes", table);

    let share = trace.byte_share_above(LARGE_FLOW_BYTES);
    report.say(format!(
        "bytes in flows > 10 MB: {:.1}% (paper: >75%)",
        share * 100.0
    ));
    report.say(format!(
        "median flow size: {:.0} B; p99: {:.0} B",
        flows.quantile(0.5).unwrap_or(0.0),
        flows.quantile(0.99).unwrap_or(0.0),
    ));
    report
}
