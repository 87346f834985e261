//! Hot-path microbench smoke: ns/packet for the vectorized inner loops
//! against their scalar references.
//!
//! Four cases, each emitting a gated `ns_per_packet` plus the scalar
//! reference cost and the resulting speedup as context:
//!
//! * `toeplitz_lut`       — the precomputed-table Toeplitz evaluator vs
//!   the bit-serial reference (`toeplitz_hash`);
//! * `checksum_wide`      — the wide-word Internet checksum over a full
//!   MTU frame vs the byte-pair loop (forced by feeding the same bytes
//!   as 2-byte fragments, which never reach the wide path);
//! * `nf_batch_monitor`   — `MonitorNf` through `engine::run_nf_batch`
//!   (one counter flush per batch) vs per-packet `regular_packets`;
//! * `nf_batch_synthetic` — the §5 synthetic NF the same way, adding
//!   the per-packet state lookup and header write both paths share.
//!
//! Wall clock is *not* simulator-deterministic, so the gate rule for
//! `ns_per_packet` carries generous slack (see `gate::rule_for`): the
//! gate exists to catch order-of-magnitude regressions — losing the
//! batch path, the LUT, or the wide loop — not percent-level jitter.

use crate::{Report, RunArgs};
use sprayer::api::{NetworkFunction, VerdictSink};
use sprayer::config::DispatchMode;
use sprayer::coremap::CoreMap;
use sprayer::engine;
use sprayer::tables::LocalTables;
use sprayer_bench::report::{fmt_f, Table};
use sprayer_net::checksum::{internet_checksum, Checksum};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_nf::{MonitorNf, SyntheticNf};
use sprayer_nic::toeplitz::{ToeplitzLut, SYMMETRIC_KEY};
use std::hint::black_box;
use std::time::Instant;

/// Packets per `handle_batch` call — the threaded runtime's RX burst.
const BATCH: usize = 32;

/// One measurement: best-of-`trials` wall time over `per_trial` units,
/// each trial on a fresh `setup()` made outside the timed window. Min
/// over trials rejects scheduler noise far better than the mean.
fn best_ns<S>(trials: usize, per_trial: u64, setup: impl Fn() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let input = setup();
        let t = Instant::now();
        f(input);
        best = best.min(t.elapsed().as_nanos() as f64 / per_trial as f64);
    }
    best
}

/// [`best_ns`] with nothing to set up.
fn best_ns_per_unit(trials: usize, per_trial: u64, mut f: impl FnMut()) -> f64 {
    best_ns(trials, per_trial, || (), |()| f())
}

/// Distinct-looking tuples so the hash input isn't branch-predictable.
fn tuples(n: usize) -> Vec<FiveTuple> {
    (0..n as u64)
        .map(|i| {
            let r = splitmix64(i);
            FiveTuple::tcp((r >> 32) as u32, (r >> 16) as u16 | 1024, !(r as u32), 443)
        })
        .collect()
}

fn case_toeplitz(trials: usize, passes: usize) -> (f64, f64) {
    let ts = tuples(256);
    let lut = ToeplitzLut::new(SYMMETRIC_KEY);
    let per_trial = (passes * ts.len()) as u64;
    let vec_ns = best_ns_per_unit(trials, per_trial, || {
        for _ in 0..passes {
            for t in &ts {
                black_box(lut.hash_v4_tuple(black_box(t)));
            }
        }
    });
    let ref_ns = best_ns_per_unit(trials, per_trial, || {
        for _ in 0..passes {
            for t in &ts {
                black_box(sprayer_nic::toeplitz::hash_v4_tuple(
                    &SYMMETRIC_KEY,
                    black_box(t),
                ));
            }
        }
    });
    // Both evaluators must agree (the proptests prove this exhaustively;
    // this catches a miswired benchmark, not a hash bug).
    for t in &ts {
        assert_eq!(
            lut.hash_v4_tuple(t),
            sprayer_nic::toeplitz::hash_v4_tuple(&SYMMETRIC_KEY, t)
        );
    }
    (vec_ns, ref_ns)
}

fn case_checksum(trials: usize, passes: usize) -> (f64, f64) {
    // A full MTU frame of pseudo-random bytes.
    let buf: Vec<u8> = (0..1500u64).map(|i| (splitmix64(i) >> 7) as u8).collect();
    let per_trial = passes as u64;
    let vec_ns = best_ns_per_unit(trials, per_trial, || {
        for _ in 0..passes {
            black_box(internet_checksum(black_box(&buf)));
        }
    });
    // 2-byte fragments keep `add_bytes` in the byte-pair loop: the same
    // public API, pinned to the pre-vectorization inner loop.
    let ref_ns = best_ns_per_unit(trials, per_trial, || {
        for _ in 0..passes {
            let mut c = Checksum::new();
            for pair in buf.chunks(2) {
                c.add_bytes(black_box(pair));
            }
            black_box(c.finish());
        }
    });
    (vec_ns, ref_ns)
}

/// Batch-vs-scalar ns/packet for one NF over `flows` established flows.
fn case_nf_batch<NF: NetworkFunction>(
    nf: &NF,
    trials: usize,
    passes: usize,
    ttl: u8,
) -> (f64, f64) {
    let map = CoreMap::new(DispatchMode::Sprayer, 1);
    let mut tables: LocalTables<NF::Flow> = LocalTables::new(map, 1024);
    let ts = tuples(8);
    // Establish state through the NF's own connection handler (core 0 is
    // the designated core for everything on a 1-core map).
    for t in &ts {
        let mut syn = PacketBuilder::new()
            .ttl(ttl)
            .tcp(*t, 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(0));
    }
    let build = || -> Vec<sprayer_net::Packet> {
        (0..BATCH * 2)
            .map(|i| {
                PacketBuilder::new().ttl(ttl).tcp(
                    ts[i % ts.len()],
                    i as u32 + 1,
                    0,
                    TcpFlags::ACK,
                    b"hotpath smoke payload",
                )
            })
            .collect()
    };
    let conn = vec![false; BATCH];
    let per_trial = (passes * BATCH * 2) as u64;
    let mut sink = VerdictSink::with_capacity(BATCH);

    // Packets are rebuilt outside each timed window: NFs that decrement
    // the TTL must never run a packet down to zero mid-measurement
    // (`passes` stays below the starting TTL), and both paths start each
    // trial from identical packet state.
    let vec_ns = best_ns(trials, per_trial, build, |mut pkts| {
        for _ in 0..passes {
            for chunk in pkts.chunks_mut(BATCH) {
                engine::run_nf_batch(nf, chunk, &conn, &mut tables.ctx(0), &mut sink);
                black_box(sink.len());
            }
        }
    });
    let ref_ns = best_ns(trials, per_trial, build, |mut pkts| {
        for _ in 0..passes {
            for pkt in pkts.iter_mut() {
                black_box(nf.regular_packets(pkt, &mut tables.ctx(0)));
            }
        }
    });
    (vec_ns, ref_ns)
}

pub fn run(args: &RunArgs) -> Report {
    let (trials, passes) = args.pick((5, 200), (20, 1_000));
    let mut report =
        Report::new("== Hot-path smoke: ns/packet, vectorized vs scalar reference ==\n");
    let mut table = Table::new(vec![
        "case",
        "ns/packet (vectorized)",
        "ns/packet (reference)",
        "speedup",
    ]);
    let mut telemetry: Vec<String> = Vec::new();
    let mut record = |case: &str, vec_ns: f64, ref_ns: f64| {
        let speedup = ref_ns / vec_ns;
        telemetry.push(format!(
            "{{\"case\":\"{case}\",\"ns_per_packet\":{vec_ns:.2},\
             \"ref_ns_per_packet\":{ref_ns:.2},\"speedup\":{speedup:.2}}}"
        ));
        table.row(vec![
            case.to_string(),
            fmt_f(vec_ns, 1),
            fmt_f(ref_ns, 1),
            format!("{}x", fmt_f(speedup, 2)),
        ]);
    };

    let (v, r) = case_toeplitz(trials, passes);
    record("toeplitz_lut", v, r);
    let (v, r) = case_checksum(trials, passes / 4);
    record("checksum_wide_mtu", v, r);
    let (v, r) = case_nf_batch(&MonitorNf::new(1), trials, passes / 4, 64);
    record("nf_batch_monitor", v, r);
    let (v, r) = case_nf_batch(&SyntheticNf::for_simulator(), trials, 100, 255);
    record("nf_batch_synthetic", v, r);

    report.table("hotpath_smoke", table);

    let mut reg = sprayer_obs::MetricsRegistry::new();
    reg.set_str("kind", "hotpath_smoke");
    reg.set_u64("batch", BATCH as u64);
    reg.set_u64("quick", u64::from(args.quick));
    report.telemetry(reg, &telemetry);
    report.say(
        "takeaway: the batch path amortizes per-packet counter traffic, the\n\
         Toeplitz LUT replaces 96 bit-steps with 12 table loads, and the wide\n\
         checksum loop sums 8 bytes per step — all proven bit-identical to the\n\
         scalar references by the equivalence suites.",
    );
    report
}
