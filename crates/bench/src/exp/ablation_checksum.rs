//! Ablation: uniformity of the TCP checksum's low bits.
//!
//! The entire spraying trick rests on §4's claim that "the checksum
//! field looks random". This ablation measures how uniform the low 3
//! bits (the 8-queue spray key) actually are under several payload
//! models, including an adversarial one — quantifying when the
//! assumption holds.

use crate::{Report, RunArgs};
use sprayer_bench::report::{fmt_f, Table};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_obs::MetricsRegistry;

/// Max relative deviation from uniform across the 8 residue classes.
fn residue_imbalance(payloads: impl Iterator<Item = Vec<u8>>) -> f64 {
    let t = FiveTuple::tcp(0x0a000001, 40_000, 0x0a000002, 443);
    let mut buckets = [0u32; 8];
    let mut n = 0u32;
    for (i, payload) in payloads.enumerate() {
        let p = PacketBuilder::new().tcp(t, i as u32, 0, TcpFlags::ACK, &payload);
        buckets[usize::from(p.meta().tcp_checksum.unwrap() & 7)] += 1;
        n += 1;
    }
    let expected = f64::from(n) / 8.0;
    buckets
        .iter()
        .map(|&c| (f64::from(c) - expected).abs() / expected)
        .fold(0.0, f64::max)
}

pub fn run(_: &RunArgs) -> Report {
    let n = 16_384usize;
    let mut report = Report::new(format!(
        "== Ablation: low-checksum-bit uniformity by payload model ({n} packets) ==\n"
    ));
    let mut table = Table::new(vec!["payload model", "max residue deviation", "verdict"]);

    type PayloadCase = (&'static str, Box<dyn Iterator<Item = Vec<u8>>>);
    let cases: Vec<PayloadCase> = vec![
        (
            "random bytes (MoonGen, real payloads)",
            Box::new((0..n).map(|i| splitmix64(i as u64).to_be_bytes().to_vec())),
        ),
        (
            "mixed realistic lengths, random bytes",
            Box::new((0..n).map(|i| {
                let len = [0usize, 10, 100, 512, 1000][i % 5];
                (0..len)
                    .map(|j| (splitmix64((i * 1000 + j) as u64) & 0xff) as u8)
                    .collect()
            })),
        ),
        (
            "fixed payload, sequential seq (cycles)",
            // Identical payload; only the seq number varies, stepping the
            // checksum by one per packet: the low bits cycle through all
            // residues — uniform, though perfectly correlated in time.
            Box::new((0..n).map(|_| vec![0u8; 10])),
        ),
        (
            "ADVERSARIAL: counter payload tracking seq",
            // Payload increments in lockstep with seq: the checksum steps
            // by two per packet and half the residues never occur — the
            // even queues get everything, the odd ones starve.
            Box::new((0..n).map(|i| (i as u32).to_be_bytes().to_vec())),
        ),
    ];

    let mut telemetry: Vec<String> = Vec::new();
    for (name, payloads) in cases {
        let dev = residue_imbalance(payloads);
        let verdict = if dev < 0.1 {
            "uniform: sprays evenly"
        } else if dev < 0.5 {
            "biased: uneven cores"
        } else {
            "degenerate: cores starve"
        };
        telemetry.push(format!(
            "{{\"model\":\"{name}\",\"deviation\":{dev:.4},\"verdict\":\"{verdict}\"}}"
        ));
        table.row(vec![name.to_string(), fmt_f(dev, 3), verdict.to_string()]);
    }
    report.table("ablation_checksum", table);
    let mut reg = MetricsRegistry::new();
    reg.set_str("ablation", "checksum");
    reg.set_u64("packets", n as u64);
    report.telemetry(reg, &telemetry);
    report.say(
        "takeaway: with any real payload entropy the checksum's low bits are\n\
         uniform (the §4 assumption); pathological constant-content streams can\n\
         defeat it — a caveat the paper's MoonGen methodology implicitly handles\n\
         by varying payloads.",
    );
    report
}
