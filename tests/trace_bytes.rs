//! The bytes of `sprayer-trace/1` files, pinned by digest.
//!
//! `sprayer-bench trace` and CI only parse trace files; these tests pin
//! what `trace_io::write_string` writes for four fixed captures:
//!
//! * the simulator's trace of a small run (one lane, so one ring):
//!   every byte, timestamps included — simulated time is exact;
//! * the threaded runtime's trace of a small closed-loop RSS run, with
//!   what a clock or the scheduler decides masked: the `seq` and `ts`
//!   columns, `drain` lines (how batches form), a `redirect_in`'s
//!   latency and the header's event total; the remaining lines are
//!   sorted, since their order is the threads' interleaving;
//! * a trace assembled from three hand-built rings whose sequences
//!   interleave, several storage chunks each (the threaded runtime's
//!   shape: workers plus ingress), every byte — this pins the merge;
//! * the same shape at four rings of over three full chunks each,
//!   with values that overflow each of a sealed chunk's narrow fields
//!   here and there (an `aux` and a `ts` span past `u32`, a `core`
//!   past `u8`, `seq` and `pkt` spans past `u16`) beside `drain`s that
//!   carry no packet, every byte — this pins sealed storage, packed
//!   and raw, through the merge.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::{AclRule, Action, FirewallNf};
use sprayer_obs::trace_io::write_string;
use sprayer_obs::{EventKind, Trace, TraceEvent, TraceMeta, TraceRing};
use sprayer_sim::Time;

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// 16 flows, half allowed by the firewall: a SYN phase, then 12 data
/// packets per flow.
fn work() -> Vec<Vec<Packet>> {
    let tuple = |f: u32| {
        let port = if f.is_multiple_of(2) { 443 } else { 8081 };
        FiveTuple::tcp(0x0a00_0000 + f, 41_000, 0x5db8_d800 + f, port)
    };
    let syns = (0..16)
        .map(|f| PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b""))
        .collect();
    let mut data = Vec::new();
    for j in 0..12u32 {
        for f in 0..16 {
            let payload = splitmix64(u64::from(f * 100 + j)).to_be_bytes();
            data.push(PacketBuilder::new().tcp(tuple(f), j, 0, TcpFlags::ACK, &payload));
        }
    }
    vec![syns, data]
}

fn firewall() -> FirewallNf {
    FirewallNf::new(vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ])
}

#[test]
fn the_simulators_trace_file_is_pinned() {
    let config = MiddleboxConfig {
        num_cores: 4,
        obs: ObsConfig::tracing(),
        ..MiddleboxConfig::paper_testbed(DispatchMode::Sprayer)
    };
    let mut mb = MiddleboxSim::new(config, firewall());
    let mut now = Time::ZERO;
    for phase in work() {
        for pkt in phase {
            now += Time::from_us(1);
            mb.ingress(now, pkt);
        }
        now += Time::from_ms(10);
        mb.run_until(now);
        assert!(mb.is_idle(), "phase must drain fully");
    }
    let trace = mb.take_obs().trace.expect("tracing on");
    let file = write_string(&trace);
    assert_eq!(trace.events.len(), 874);
    assert_eq!(fnv1a(file.as_bytes()), 0x8f88_9210_b1e1_6d82, "{file}");
}

#[test]
fn the_threaded_runtimes_trace_file_is_pinned_where_no_clock_decides() {
    let mut config = ThreadedConfig::new(DispatchMode::Rss, 2);
    config.obs = ObsConfig::tracing();
    // Closed loop: an open-loop ingress on a busy host drops bursts.
    config.ingress_retries = usize::MAX;
    let out = ThreadedMiddlebox::run(&config, &firewall(), work());
    assert_eq!(out.stats.unaccounted(), 0, "{:?}", out.stats);
    let trace = out.trace.expect("tracing on");
    let file = write_string(&trace);
    let mut lines = file.lines();
    let header = lines.next().expect("a header line");
    let total = format!("\"events\":{},", trace.events.len());
    assert!(header.contains(&total), "{header}");
    let mut masked = vec![header.replacen(&total, "", 1)];
    let mut body: Vec<String> = lines
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let (kind, mut aux) = (fields[3], fields[6]);
            if kind == EventKind::Drain.as_str() {
                return None;
            }
            if kind == EventKind::RedirectIn.as_str() {
                aux = "-";
            }
            Some(format!(
                "{},{kind},{},{},{aux}",
                fields[2], fields[4], fields[5]
            ))
        })
        .collect();
    body.sort();
    masked.extend(body);
    let masked = masked.join("\n");
    assert_eq!(fnv1a(masked.as_bytes()), 0x63f9_2da6_8158_6713, "{masked}");
}

#[test]
fn a_merged_trace_file_is_pinned() {
    // Three rings — two workers and an ingress — taking the sequence
    // in turns of 1-8 events; the last ring is bounded and drops.
    let mut rings = vec![
        TraceRing::new(1 << 20),
        TraceRing::new(1 << 20),
        TraceRing::new(3_000),
    ];
    let (mut seq, mut state) = (0u64, 7u64);
    while seq < 12_000 {
        state = splitmix64(state);
        let ring = (state % 3) as usize;
        for _ in 0..(1 + (state >> 8) % 8).min(12_000 - seq) {
            let kind = EventKind::ALL[(splitmix64(seq) % 7) as usize];
            rings[ring].push(TraceEvent {
                seq,
                ts: seq * 37 + state % 11,
                core: ring as u16,
                kind,
                flow: splitmix64(seq / 16) % 64,
                pkt: seq / 3,
                aux: seq % 5,
            });
            seq += 1;
        }
    }
    let meta = TraceMeta {
        runtime: "threads".into(),
        ticks_per_us: 1_000,
        num_cores: 2,
        expected: None,
    };
    let trace = Trace::assemble(meta, rings);
    let file = write_string(&trace);
    assert!(trace.dropped > 0, "the bounded ring drops");
    assert_eq!(
        (trace.events.len() as u64 + trace.dropped, trace.dropped),
        (12_000, 868),
    );
    assert_eq!(fnv1a(file.as_bytes()), 0x50aa_7cb0_a5f7_2d2b);
}

#[test]
fn a_sealed_and_merged_trace_file_is_pinned() {
    // Three workers and an ingress taking the sequence in turns of 1-8
    // events, ~8 000 events each.
    let mut rings: Vec<TraceRing> = (0..4).map(|_| TraceRing::new(1 << 20)).collect();
    let (mut seq, mut state, mut kept) = (0u64, 11u64, 0u64);
    while kept < 32_000 {
        state = splitmix64(state);
        let ring = (state % 4) as usize;
        for _ in 0..(1 + (state >> 8) % 8).min(32_000 - kept) {
            if kept == 26_000 {
                seq += 70_000;
            }
            let kind = EventKind::ALL[(splitmix64(seq) % 7) as usize];
            let (flow, pkt) = if kind == EventKind::Drain {
                (0, TraceEvent::NO_PKT)
            } else if (22_000..22_050).contains(&kept) {
                (splitmix64(seq / 16) % 64, seq + 70_000)
            } else {
                (splitmix64(seq / 16) % 64, seq / 3)
            };
            let gap = if kept >= 16_000 { 1 << 33 } else { 0 };
            let aux = if (4_000..4_200).contains(&kept) {
                u64::from(u32::MAX) + seq
            } else {
                seq % 5
            };
            let core = if (10_000..10_100).contains(&kept) {
                300
            } else {
                ring as u16
            };
            rings[ring].push(TraceEvent {
                seq,
                ts: seq * 37 + state % 11 + gap,
                core,
                kind,
                flow,
                pkt,
                aux,
            });
            seq += 1;
            kept += 1;
        }
    }
    assert!(
        rings.iter().all(|r| r.len() > 3 * 2048),
        "three chunks each"
    );
    let meta = TraceMeta {
        runtime: "threads".into(),
        ticks_per_us: 1_000,
        num_cores: 3,
        expected: None,
    };
    let trace = Trace::assemble(meta, rings);
    let file = write_string(&trace);
    assert_eq!((trace.events.len(), trace.dropped), (32_000, 0));
    let (packed, raw) = trace.events.sealed_chunks();
    assert!(packed > 0 && raw > 0, "{packed} packed, {raw} raw");
    assert_eq!(fnv1a(file.as_bytes()), 0xc3af_eaa0_493d_6907);
}
