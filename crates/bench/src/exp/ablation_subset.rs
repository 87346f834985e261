//! Ablation: spraying each flow over a limited subset of cores (§7).
//!
//! "Although an increase in the number of CPU cores should increase
//! Sprayer's advantage over RSS, it also has the potential to increase
//! packet reordering. Therefore, it may be wise to only spray packets
//! from a particular flow to a limited subset of cores. We intend to
//! test this hypothesis in future work using programmable NICs."
//!
//! We test it here in the simulator: single-flow TCP goodput and
//! reordering statistics as the subset size k sweeps 1..=8. k=1 is
//! per-flow dispatch (RSS-like); k=8 is full spraying.

use crate::{Report, RunArgs};
use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer_bench::report::{fmt_f, Table};
use sprayer_bench::scenarios::tcp::{self, TcpConfig};
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

pub fn run(args: &RunArgs) -> Report {
    let mut report =
        Report::new("== Ablation: subset spraying (single CUBIC flow, 10k cycles) ==\n");
    let mut table = Table::new(vec![
        "k (cores/flow)",
        "Gbps",
        "ooo arrivals",
        "fast rtx",
        "dup acks",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let mut cfg = TcpConfig::paper(DispatchMode::Sprayer, 10_000, 1, 1);
        if args.quick {
            cfg.warmup = Time::from_ms(30);
            cfg.duration = Time::from_ms(120);
        }
        let r = tcp::run_with_mb_config(&cfg, {
            let mut mb = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 10_000);
            mb.spray_subset_k = Some(k);
            mb.fdir_cap_pps = None; // programmable NIC: no 82599 cap
            mb
        });
        telemetry.push(format!(
            "{{\"k\":{k},\"gbps\":{:.4},\"ooo_arrivals\":{},\
             \"fast_retransmits\":{},\"dup_acks\":{}}}",
            r.gbps(),
            r.ooo_arrivals,
            r.fast_retransmits,
            r.dup_acks,
        ));
        table.row(vec![
            k.to_string(),
            fmt_f(r.gbps(), 2),
            r.ooo_arrivals.to_string(),
            r.fast_retransmits.to_string(),
            r.dup_acks.to_string(),
        ]);
    }
    report.table("ablation_subset", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("ablation", "subset");
    reg.set_str("variant", args.pick("quick", "full"));
    report.telemetry(reg, &telemetry);
    report.say(
        "takeaway: throughput scales with k (k cores' worth of capacity) while\n\
         reordering grows with k — the trade-off §7 anticipates. For a single\n\
         flow, k must reach the core count needed for line rate.",
    );
    report
}
