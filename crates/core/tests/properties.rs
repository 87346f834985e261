//! Property-based tests for the Sprayer framework's invariants.

use proptest::prelude::*;
use sprayer::api::{FlowStateApi, InsertOutcome, NetworkFunction, NfDescriptor, Verdict};
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::coremap::CoreMap;
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{Step, ThreadedConfig, ThreadedMiddlebox};
use sprayer::tables::{LocalTables, SharedTables};
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_obs::CoreSample;
use sprayer_sim::Time;

/// A tiny bucket budget on a 1 µs grid: any realistic run outgrows it,
/// so these properties exercise mid-run downsampling, not just the
/// record path.
fn tight_sampling() -> ObsConfig {
    ObsConfig {
        sample: true,
        sample_interval_us: 1,
        sample_capacity: 8,
        ..ObsConfig::disabled()
    }
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>())
        .prop_map(|(sa, sp, da, dp)| FiveTuple::tcp(sa, sp, da, dp))
}

/// Stateful NF that forwards every packet: with nothing dropped by
/// verdict, the conservation identity pins every loss to an accounted
/// queue/ring overflow.
struct ForwardAllNf;
impl NetworkFunction for ForwardAllNf {
    type Flow = u8;
    fn descriptor(&self) -> NfDescriptor {
        NfDescriptor::named("forward-all")
    }
    fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u8>) -> Verdict {
        if let Some(t) = pkt.tuple() {
            ctx.insert_local_flow(t.key(), 0);
        }
        Verdict::Forward
    }
    fn regular_packets(&self, _pkt: &mut Packet, _ctx: &mut dyn FlowStateApi<u8>) -> Verdict {
        Verdict::Forward
    }
}

proptest! {
    /// The designated core is symmetric and in range for every tuple,
    /// core count, and dispatch mode.
    #[test]
    fn designated_core_symmetry(t in arb_tuple(), cores in 1usize..=32, spray in any::<bool>()) {
        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let map = CoreMap::new(mode, cores);
        let d = map.designated_for_tuple(&t);
        prop_assert!(d < cores);
        prop_assert_eq!(d, map.designated_for_tuple(&t.reversed()));
        prop_assert_eq!(d, map.designated_for_key(&t.key()));
    }

    /// Flow-table sequence invariant: after any sequence of operations on
    /// the designated core, `get_flow` from every core agrees with a
    /// model HashMap.
    #[test]
    fn local_tables_match_model(
        ops in proptest::collection::vec((0u8..4, 0u32..24, any::<u32>()), 1..200),
        cores in 1usize..=8,
    ) {
        let map = CoreMap::new(DispatchMode::Sprayer, cores);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 1 << 12);
        let mut model = std::collections::HashMap::new();

        for (op, flow_id, value) in ops {
            let t = FiveTuple::tcp(flow_id, 1000, 0xc0a8_0001, 443);
            let key = t.key();
            let d = map.designated_for_key(&key);
            let mut ctx = tables.ctx(d);
            match op {
                0 => {
                    ctx.insert_local_flow(key, value);
                    model.insert(key, value);
                }
                1 => {
                    let got = ctx.remove_local_flow(&key);
                    prop_assert_eq!(got, model.remove(&key));
                }
                2 => {
                    let changed = ctx.modify_local_flow(&key, &mut |v| *v = value);
                    if changed {
                        model.insert(key, value);
                    }
                    prop_assert_eq!(changed, model.contains_key(&key));
                }
                _ => {
                    // Read from a non-designated core.
                    let reader = (d + 1) % cores;
                    let got = tables.ctx(reader).get_flow(&key);
                    prop_assert_eq!(got, model.get(&key).copied());
                }
            }
        }
        // Final coherence from every core.
        for (key, value) in &model {
            for core in 0..cores {
                prop_assert_eq!(tables.ctx(core).get_flow(key), Some(*value));
            }
        }
        prop_assert_eq!(tables.total_entries(), model.len());
    }

    /// Shared (thread-safe) tables behave identically to local tables for
    /// single-threaded operation sequences.
    #[test]
    fn shared_tables_match_local(
        ops in proptest::collection::vec((0u8..3, 0u32..16, any::<u32>()), 1..100),
    ) {
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut local: LocalTables<u32> = LocalTables::new(map.clone(), 256);
        let shared: SharedTables<u32> = SharedTables::new(map.clone(), 256);

        for (op, flow_id, value) in ops {
            let t = FiveTuple::tcp(flow_id, 1, 2, 3);
            let key = t.key();
            let d = map.designated_for_key(&key);
            let mut lctx = local.ctx(d);
            let mut sctx = shared.ctx(d);
            match op {
                0 => {
                    let a = lctx.insert_local_flow(key, value);
                    let b = sctx.insert_local_flow(key, value);
                    prop_assert_eq!(a, b);
                }
                1 => {
                    prop_assert_eq!(lctx.remove_local_flow(&key), sctx.remove_local_flow(&key));
                }
                _ => {
                    prop_assert_eq!(lctx.get_flow(&key), sctx.get_flow(&key));
                }
            }
        }
        prop_assert_eq!(local.total_entries(), shared.total_entries());
    }

    /// Conservation on the threaded runtime: for any worker count, phase
    /// split, connection/regular mix, and ring capacity (including the
    /// pathological capacity-1 ring), every offered packet is accounted
    /// exactly once — `offered == forwarded + nf_drops + pre_nf_drops`
    /// with `unaccounted() == 0` after the drain — and no packet is ever
    /// processed twice.
    #[test]
    fn threaded_runtime_conserves_packets(
        workers in 1usize..=8,
        spray in any::<bool>(),
        ring_cap in prop_oneof![Just(1usize), Just(8usize), Just(1024usize)],
        pkts in proptest::collection::vec((0u32..12, any::<bool>(), 0u8..3), 1..120),
    ) {
        // Unique payload per packet (splitmix64 is a bijection), so a
        // duplicate in the output would be observable.
        let payload_of = |i: usize| sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
        let mut phases: Vec<Vec<Packet>> = vec![Vec::new(); 3];
        for (i, &(flow, is_conn, phase)) in pkts.iter().enumerate() {
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            let pkt = PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload_of(i));
            phases[usize::from(phase)].push(pkt);
        }
        let offered = pkts.len() as u64;

        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let mut config = ThreadedConfig::new(mode, workers);
        config.ring_capacity = ring_cap;
        let out = ThreadedMiddlebox::run(&config, &ForwardAllNf, phases);

        let s = &out.stats;
        prop_assert_eq!(s.offered, offered);
        prop_assert_eq!(s.unaccounted(), 0);
        prop_assert_eq!(s.forwarded + s.nf_drops + s.pre_nf_drops(), offered);
        prop_assert_eq!(s.per_core.iter().map(|c| c.processed).sum::<u64>(), s.processed());
        // The NF forwards everything it sees, so forwarded output equals
        // whatever survived the queues...
        prop_assert_eq!(s.nf_drops, 0);
        prop_assert_eq!(s.forwarded, offered - s.pre_nf_drops());
        // ...and each survivor appears exactly once (no double
        // processing): distinct payloads in == distinct payloads out.
        let unique: std::collections::HashSet<&[u8]> =
            out.forwarded.iter().map(|p| p.payload().unwrap_or(&[])).collect();
        prop_assert_eq!(unique.len() as u64, s.forwarded);
        if mode == DispatchMode::Rss {
            prop_assert_eq!(s.ring_drops, 0, "RSS has no rings to overflow");
        }
    }

    /// Trace-event conservation matches [`sprayer::stats::MiddleboxStats`]
    /// on the threaded runtime for any worker count, dispatch mode, phase
    /// split, and packet mix: the analyzer's counts derived purely from
    /// the event stream must agree with the runtime's own counters, and
    /// the analyzer must flag no violation.
    #[test]
    fn trace_event_conservation_matches_stats(
        workers in 1usize..=6,
        spray in any::<bool>(),
        pkts in proptest::collection::vec((0u32..10, any::<bool>(), 0u8..2), 1..80),
    ) {
        let mut phases: Vec<Vec<Packet>> = vec![Vec::new(); 2];
        for (i, &(flow, is_conn, phase)) in pkts.iter().enumerate() {
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            let payload = sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
            phases[usize::from(phase)].push(
                PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload),
            );
        }

        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let mut config = ThreadedConfig::new(mode, workers);
        config.obs = sprayer::config::ObsConfig::tracing();
        let out = ThreadedMiddlebox::run(&config, &ForwardAllNf, phases);

        let trace = out.trace.expect("tracing enabled");
        prop_assert_eq!(trace.dropped, 0, "default rings fit these runs");
        let a = sprayer_obs::analyze(&trace);
        prop_assert!(a.conservation.ok(), "violations: {:?}", a.conservation.violations);

        let s = &out.stats;
        prop_assert_eq!(a.conservation.nf_done, s.processed());
        prop_assert_eq!(a.conservation.forwarded, s.forwarded);
        prop_assert_eq!(a.conservation.nf_drops, s.nf_drops);
        prop_assert_eq!(a.conservation.queue_drops, s.queue_drops);
        prop_assert_eq!(a.conservation.ring_drops, s.ring_drops);
        prop_assert_eq!(a.conservation.redirect_out, s.redirects());
        prop_assert_eq!(
            a.conservation.ingress_enqueued,
            s.offered - s.queue_drops,
            "one admission event per non-dropped offered packet"
        );
        // Probe counts line up with the stats too.
        let probes = out.probes.expect("latency probes on");
        prop_assert_eq!(probes.sojourn_ns.count(), s.processed());
    }

    /// Sampling is conservative on the threaded runtime: for any worker
    /// count, dispatch mode, ring capacity (including the pathological
    /// capacity-1 ring, whose work-conserving retry nests one sampled
    /// batch inside another), and phase split, the merged per-core
    /// sampler deltas equal the final [`sprayer::stats::MiddleboxStats`]
    /// exactly — no double-count from nested drains, no loss across
    /// interval boundaries or downsampling steps.
    #[test]
    fn threaded_sampler_deltas_match_final_stats(
        workers in 1usize..=8,
        spray in any::<bool>(),
        ring_cap in prop_oneof![Just(1usize), Just(8usize), Just(1024usize)],
        pkts in proptest::collection::vec((0u32..12, any::<bool>(), 0u8..3), 1..120),
    ) {
        let payload_of = |i: usize| sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
        let mut phases: Vec<Vec<Packet>> = vec![Vec::new(); 3];
        for (i, &(flow, is_conn, phase)) in pkts.iter().enumerate() {
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            phases[usize::from(phase)].push(
                PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload_of(i)),
            );
        }

        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let mut config = ThreadedConfig::new(mode, workers);
        config.ring_capacity = ring_cap;
        config.obs = tight_sampling();
        let out = ThreadedMiddlebox::run(&config, &ForwardAllNf, phases);

        let s = &out.stats;
        prop_assert_eq!(s.unaccounted(), 0);
        let set = out.samples.as_ref().expect("sampling enabled");
        prop_assert_eq!(set.num_cores(), workers);
        let totals = set.totals();
        for (core, cs) in s.per_core.iter().enumerate() {
            prop_assert_eq!(totals[core].processed, cs.processed, "core {}", core);
            prop_assert_eq!(totals[core].redirected_in, cs.redirected_in, "core {}", core);
            prop_assert_eq!(totals[core].redirected_out, cs.redirected_out, "core {}", core);
        }
        let mut total = CoreSample::default();
        for t in &totals {
            total.merge(t);
        }
        prop_assert_eq!(total.processed, s.processed());
        prop_assert_eq!(total.forwarded, s.forwarded);
        prop_assert_eq!(total.nf_drops, s.nf_drops);
        prop_assert_eq!(total.ring_drops, s.ring_drops);
        prop_assert_eq!(total.queue_drops, s.queue_drops);
        // Derived timelines cover every bucket.
        prop_assert_eq!(set.jain_timeline().len(), set.num_buckets());
        prop_assert_eq!(set.util_skew_timeline().len(), set.num_buckets());
        prop_assert_eq!(set.drop_rate_timeline().len(), set.num_buckets());
    }

    /// The same conservation property on the simulator: merged sampler
    /// deltas reproduce the final stats for any dispatch mode, NF cost,
    /// and arrival pattern (including Sprayer runs dense enough to trip
    /// the Flow Director cap into `nic_cap_drops`).
    #[test]
    fn sim_sampler_deltas_match_final_stats(
        spray in any::<bool>(),
        nf_cycles in prop_oneof![Just(0u64), Just(2_000u64), Just(10_000u64)],
        pkts in proptest::collection::vec((0u32..8, any::<bool>(), 1u64..2_000), 1..100),
    ) {
        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let mut config = MiddleboxConfig::paper_testbed_with_cycles(mode, nf_cycles);
        config.obs = tight_sampling();
        let mut mb = MiddleboxSim::new(config, ForwardAllNf);
        let mut now = Time::ZERO;
        for (i, &(flow, is_conn, gap_ns)) in pkts.iter().enumerate() {
            now += Time::from_ns(gap_ns);
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            let payload = sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
            mb.ingress(now, PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload));
        }
        mb.run_until(now + Time::from_secs(1));
        prop_assert!(mb.is_idle());

        let s = mb.stats().clone();
        let set = mb.take_obs().samples.expect("sampling enabled");
        prop_assert_eq!(set.num_cores(), 8);
        let totals = set.totals();
        for (core, cs) in s.per_core.iter().enumerate() {
            prop_assert_eq!(totals[core].processed, cs.processed, "core {}", core);
            prop_assert_eq!(totals[core].redirected_in, cs.redirected_in, "core {}", core);
            prop_assert_eq!(totals[core].redirected_out, cs.redirected_out, "core {}", core);
        }
        let mut total = CoreSample::default();
        for t in &totals {
            total.merge(t);
        }
        prop_assert_eq!(total.processed, s.processed());
        prop_assert_eq!(total.forwarded, s.forwarded);
        prop_assert_eq!(total.nf_drops, s.nf_drops);
        prop_assert_eq!(total.queue_drops, s.queue_drops);
        prop_assert_eq!(total.ring_drops, s.ring_drops);
        prop_assert_eq!(total.nic_cap_drops, s.nic_cap_drops);
    }

    /// Conservation across an online reconfiguration on the threaded
    /// runtime: for any pair of worker counts, dispatch mode, and packet
    /// mix, every offered packet is accounted exactly once — packets in
    /// == processed + dropped + in-flight-migrated (the threaded path
    /// migrates at a quiesced barrier, so its in-flight-migrated term is
    /// structurally zero) — and no packet is processed twice.
    #[test]
    fn threaded_elastic_conserves_across_reconfig(
        w1 in 1usize..=6,
        w2 in 1usize..=6,
        spray in any::<bool>(),
        pkts in proptest::collection::vec((0u32..12, any::<bool>(), 0u8..2), 1..120),
    ) {
        let payload_of = |i: usize| sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
        let mut split: Vec<Vec<Packet>> = vec![Vec::new(); 2];
        for (i, &(flow, is_conn, phase)) in pkts.iter().enumerate() {
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            split[usize::from(phase)].push(
                PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload_of(i)),
            );
        }
        let offered = pkts.len() as u64;
        let second = split.pop().unwrap();
        let first = split.pop().unwrap();

        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let config = ThreadedConfig::new(mode, w1);
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &ForwardAllNf,
            vec![Step::Phase(first), Step::Rescale(w2), Step::Phase(second)],
        );

        let s = &out.stats;
        prop_assert_eq!(s.offered, offered);
        prop_assert_eq!(s.unaccounted(), 0);
        let migrated_pkts: u64 = out.reconfigs.iter().map(|r| r.migrated_packets).sum();
        prop_assert_eq!(
            s.forwarded + s.nf_drops + s.pre_nf_drops() + migrated_pkts,
            offered,
            "in == processed + dropped + in-flight-migrated"
        );
        prop_assert_eq!(migrated_pkts, 0, "the barrier drains before the remap");
        // Each survivor appears exactly once across the reconfiguration.
        let unique: std::collections::HashSet<&[u8]> =
            out.forwarded.iter().map(|p| p.payload().unwrap_or(&[])).collect();
        prop_assert_eq!(unique.len() as u64, s.forwarded);
        if w1 == w2 {
            prop_assert!(out.reconfigs.is_empty());
        } else {
            prop_assert_eq!(out.reconfigs.len(), 1);
            let r = out.reconfigs[0];
            prop_assert_eq!((r.from_cores, r.to_cores), (w1, w2));
            if spray && w2 > w1 {
                prop_assert_eq!(
                    r.migrated_flows, 0,
                    "Sprayer scale-up pins the designated set"
                );
            }
        }
    }

    /// The same identity on the simulator, where a reconfiguration can
    /// land mid-trace with packets queued and in service: the quiesced
    /// work is re-admitted (counted as `migrated_packets`) and the
    /// end-of-run totals still account for every offered packet exactly
    /// once.
    #[test]
    fn sim_elastic_conserves_across_reconfig(
        spray in any::<bool>(),
        cores1 in 1usize..=8,
        cores2 in 1usize..=8,
        cut in 0usize..100,
        pkts in proptest::collection::vec((0u32..8, any::<bool>(), 1u64..2_000), 1..100),
    ) {
        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let mut config = MiddleboxConfig::paper_testbed_with_cycles(mode, 2_000);
        config.num_cores = cores1;
        config.obs = tight_sampling();
        let mut mb = MiddleboxSim::new_elastic(config, ForwardAllNf);

        let cut = cut % pkts.len();
        let mut now = Time::ZERO;
        for (i, &(flow, is_conn, gap_ns)) in pkts.iter().enumerate() {
            if i == cut {
                let r = mb.reconfigure(now.max(mb.now()), cores2);
                prop_assert_eq!((r.from_cores, r.to_cores), (cores1, cores2));
                if spray && cores2 >= cores1 {
                    prop_assert_eq!(r.migrated_flows, 0);
                }
                now = now.max(mb.now());
            }
            now += Time::from_ns(gap_ns);
            let t = FiveTuple::tcp(0x0a00_0000 + flow, 40_000, 0xc0a8_0001, 443);
            let flags = if is_conn { TcpFlags::SYN } else { TcpFlags::ACK };
            let payload = sprayer_net::flow::splitmix64(i as u64).to_be_bytes();
            mb.ingress(now, PacketBuilder::new().tcp(t, i as u32, 0, flags, &payload));
        }
        mb.run_until(now + Time::from_secs(1));
        prop_assert!(mb.is_idle());

        let s = mb.stats();
        prop_assert_eq!(s.offered, pkts.len() as u64);
        prop_assert_eq!(s.unaccounted(), 0);
        // Re-admitted (migrated) packets are not re-offered: the identity
        // holds on the original offered count alone.
        prop_assert_eq!(s.forwarded + s.nf_drops + s.pre_nf_drops(), s.offered);
        let migrated_pkts: u64 = mb.reconfigs().iter().map(|r| r.migrated_packets).sum();
        prop_assert!(migrated_pkts <= s.offered);
        prop_assert_eq!(mb.active_cores(), cores2);
        prop_assert_eq!(mb.reconfigs().len(), 1);
    }

    /// Capacity: a table never exceeds its configured entry limit, and
    /// inserts report TableFull exactly at the boundary.
    #[test]
    fn capacity_is_never_exceeded(capacity in 1usize..16, n in 1u32..64) {
        let map = CoreMap::new(DispatchMode::Sprayer, 1); // one core: all local
        let mut tables: LocalTables<u32> = LocalTables::new(map, capacity);
        let mut ctx = tables.ctx(0);
        let mut stored = 0usize;
        for i in 0..n {
            let t = FiveTuple::tcp(i, 7, 8, 9);
            match ctx.insert_local_flow(t.key(), i) {
                InsertOutcome::Inserted => stored += 1,
                InsertOutcome::TableFull => prop_assert!(stored == capacity),
                InsertOutcome::Replaced => unreachable!("distinct keys"),
            }
            prop_assert!(ctx.local_len() <= capacity);
        }
    }
}
