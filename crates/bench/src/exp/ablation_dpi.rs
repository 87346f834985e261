//! Ablation: what §7's "DPI is incompatible with Sprayer" costs in
//! practice.
//!
//! The DPI NF keeps a per-flow pattern-matching automaton that must be
//! updated on every packet — the one access pattern the write partition
//! cannot serve. Under spraying, packets landing away from the designated
//! core cannot advance the automaton; this ablation measures the
//! resulting scan-coverage loss and detection recall, including for
//! patterns split across packet boundaries, under RSS, full spraying,
//! and subset spraying (the §7 mitigation).

use crate::{Report, RunArgs};
use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer_bench::report::{fmt_f, Table};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_nf::DpiNf;
use sprayer_obs::MetricsRegistry;
use sprayer_sim::Time;
use std::sync::atomic::Ordering;

/// Flows carrying the "attack" pattern split across two packets, plus
/// benign cover traffic.
fn run_case(mb_config: MiddleboxConfig) -> (f64, f64) {
    let dpi = DpiNf::new(&["attack"]);
    let mut mb = MiddleboxSim::new(mb_config, dpi);
    let flows = 64u32;
    let mut now = Time::ZERO;

    for f in 0..flows {
        let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 80);
        now += Time::from_us(5);
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        // 20 benign packets, then the split pattern ("att" | "ack").
        for j in 0..20u32 {
            now += Time::from_us(2);
            let benign = splitmix64(u64::from(f * 100 + j)).to_be_bytes();
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, j, 0, TcpFlags::ACK, &benign),
            );
        }
        now += Time::from_us(2);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(t, 100, 0, TcpFlags::ACK, b"...att"),
        );
        now += Time::from_us(2);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(t, 106, 0, TcpFlags::ACK, b"ack..."),
        );
    }
    mb.run_until(now + Time::from_ms(20));

    let nf = mb.nf();
    let scanned = nf.scanned_bytes.load(Ordering::Relaxed) as f64;
    let unscanned = nf.unscanned_bytes.load(Ordering::Relaxed) as f64;
    let coverage = scanned / (scanned + unscanned);
    let recall = nf.matches.load(Ordering::Relaxed) as f64 / f64::from(flows);
    (coverage, recall)
}

pub fn run(_: &RunArgs) -> Report {
    let mut report =
        Report::new("== Ablation: DPI under spraying (§7 incompatibility, quantified) ==\n");
    report.say("64 flows, each carrying one cross-packet \"attack\" among benign traffic\n");
    let mut table = Table::new(vec!["dispatch", "bytes scanned", "cross-packet recall"]);

    let subset = |k| {
        let mut c = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
        c.spray_subset_k = Some(k);
        c.fdir_cap_pps = None;
        c
    };
    let cases: Vec<(&str, MiddleboxConfig)> = vec![
        (
            "RSS (per-flow)",
            MiddleboxConfig::paper_testbed(DispatchMode::Rss),
        ),
        ("Sprayer k=2 subset", subset(2)),
        ("Sprayer k=4 subset", subset(4)),
        (
            "Sprayer (full spray)",
            MiddleboxConfig::paper_testbed(DispatchMode::Sprayer),
        ),
    ];
    let mut telemetry: Vec<String> = Vec::new();
    for (name, config) in cases {
        let (coverage, recall) = run_case(config);
        telemetry.push(format!(
            "{{\"dispatch\":\"{name}\",\"coverage\":{coverage:.4},\"recall\":{recall:.4}}}"
        ));
        table.row(vec![
            name.to_string(),
            format!("{:.1}%", coverage * 100.0),
            fmt_f(recall, 2),
        ]);
    }
    report.table("ablation_dpi", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("ablation", "dpi");
    report.telemetry(reg, &telemetry);
    report.say(
        "takeaway: RSS scans everything and finds every split pattern; full\n\
         spraying sees only the ~1/8 of bytes that land on the designated core\n\
         and misses essentially all cross-packet matches — the §7 claim, in\n\
         numbers. Subset spraying (with the designated core anchoring the\n\
         subset) recovers ~1/k coverage but still loses cross-packet matches.\n\
         An NF like this needs per-flow dispatch, or shared automata — which\n\
         reintroduce the synchronization Sprayer exists to avoid.",
    );
    report
}
