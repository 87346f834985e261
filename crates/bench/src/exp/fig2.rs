//! Figure 2: CDF of the number of concurrent flows in every 150 µs
//! window, for all flows and for flows > 10 MB.
//!
//! Paper reference points: "The median number of concurrent flows is
//! only 4 and the 99th percentile is 14. ... If we only consider flows
//! with more than 10 MB, the median number of concurrent flows is 1 and
//! the 99th percentile is 6."

use crate::{Report, RunArgs};
use sprayer_bench::report::{fmt_f, Table};
use sprayer_trafficgen::cdf::Cdf;
use sprayer_trafficgen::concurrency::{concurrent_flows, ConcurrencyStats, PAPER_WINDOW};
use sprayer_trafficgen::trace::{SyntheticTrace, TraceConfig};

const SEED: u64 = 1;

pub fn run(_: &RunArgs) -> Report {
    let trace = SyntheticTrace::generate(&TraceConfig::mawi_like(SEED));
    let events = trace.packet_events();
    let mut report = Report::new("== Figure 2: concurrent flows per 150 µs window ==");
    report.say(format!(
        "trace: {} packets over {:.0}s (seed {SEED})\n",
        events.len(),
        trace.duration.as_secs_f64()
    ));

    let all = concurrent_flows(&events, trace.duration, PAPER_WINDOW, None);
    let large_ids = trace.large_flow_ids();
    let large = concurrent_flows(&events, trace.duration, PAPER_WINDOW, Some(&large_ids));

    let all_cdf = Cdf::from_samples(all.iter().map(|&c| f64::from(c)).collect());
    let large_cdf = Cdf::from_samples(large.iter().map(|&c| f64::from(c)).collect());

    let mut table = Table::new(vec!["concurrent flows", "CDF all", "CDF >10MB"]);
    for x in 0..=20 {
        table.row(vec![
            x.to_string(),
            fmt_f(all_cdf.fraction_at(f64::from(x)), 4),
            fmt_f(large_cdf.fraction_at(f64::from(x)), 4),
        ]);
    }
    report.table("fig2_concurrent_flows", table);

    let s_all = ConcurrencyStats::from_counts(&all);
    let s_large = ConcurrencyStats::from_counts(&large);
    report.say(format!(
        "all flows : median {:.0}, p99 {:.0}, max {} (paper: median 4, p99 14)",
        s_all.median, s_all.p99, s_all.max
    ));
    report.say(format!(
        ">10MB only: median {:.0}, p99 {:.0}, max {} (paper: median 1, p99 6)",
        s_large.median, s_large.p99, s_large.max
    ));
    report
}
