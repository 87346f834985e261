//! The engine core: the per-packet pipeline both runtimes drive.
//!
//! [`MiddleboxSim`](crate::runtime_sim::MiddleboxSim) (discrete events,
//! virtual cycles) and
//! [`ThreadedMiddlebox`](crate::runtime_threads::ThreadedMiddlebox)
//! (real threads, crossbeam rings) differ only in *scheduling*; the
//! per-packet decisions are identical by contract, and the differential
//! harness in `tests/runtime_equivalence.rs` holds them to bit-equal
//! outcomes across the full config matrix. This module is where those
//! shared decisions live, so they cannot drift:
//!
//! * **classification** ([`PacketClass`]) — headers are parsed once at
//!   ingress; the connection-packet bit and canonical flow key ride with
//!   the packet through queueing and redirect instead of being re-parsed
//!   at every hop;
//! * **dispatch** ([`Engine::redirect_target`]) — the core picker of
//!   §3.3: under Sprayer, a stateful NF's connection packets transfer to
//!   the flow's designated core, everything else runs where it landed;
//! * **NF invocation** ([`run_nf_batch`]) — the batch-native call into
//!   [`NetworkFunction::handle_batch`], with the verdict-cursor contract
//!   the threaded runtime's panic accounting depends on;
//! * **outcome accounting** ([`account`]) — the per-core counter updates
//!   both [`crate::stats::CoreStats`] projections are built from;
//! * **NIC steering** (`nic_config`) — what each dispatch mode
//!   programs into the NIC, at start-up and at every epoch transition.
//!
//! The runtimes implement [`Engine`] (three accessors) and get the
//! dispatch decision as a provided method — one implementation, two
//! drivers.

use crate::api::{FlowStateApi, NetworkFunction, Verdict, VerdictSink};
use crate::config::DispatchMode;
use crate::stats::CoreStats;
use sprayer_net::{FlowKey, Packet};
use sprayer_nic::NicConfig;

/// Per-packet classification, computed once at ingress ("headers parsed
/// once") and reused at every later decision point: redirect selection,
/// handler choice, connection-packet accounting.
///
/// The designated core is deliberately *not* cached here: core maps
/// change across elastic epochs and failures, so the redirect decision
/// re-resolves `key` against the live map at pick-up time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketClass {
    /// SYN/FIN/RST — a candidate for designated-core redirect.
    pub is_conn: bool,
    /// Canonical flow key, if the packet parses to a five-tuple.
    /// Symmetric, so either direction resolves to the same core
    /// ([`crate::coremap::CoreMap::designated_for_key`]).
    pub key: Option<FlowKey>,
}

impl PacketClass {
    /// Parse the packet's headers once and classify it.
    pub fn of(pkt: &Packet) -> Self {
        PacketClass {
            is_conn: pkt.is_connection_packet(),
            key: pkt.tuple().map(|t| t.key()),
        }
    }
}

/// The per-core pipeline contract a runtime implements to drive the
/// shared engine. Everything here is a pure read of runtime
/// configuration; the provided methods are the pipeline itself.
pub trait Engine {
    /// The dispatch mode this runtime was configured with.
    fn mode(&self) -> DispatchMode;

    /// Whether the NF declared itself stateless (which disables flow
    /// tables *and* connection-packet redirection, §3.4).
    fn stateless(&self) -> bool;

    /// The designated core for a flow under the *current* core map.
    fn designated_core(&self, key: &FlowKey) -> usize;

    /// The core picker (§3.3), now a three-way policy: should a packet
    /// just picked up by `core` be transferred, and to where?
    ///
    /// `Some(target)` only under Sprayer, for a stateful NF, for a
    /// parseable connection packet whose designated core is not `core`.
    /// RSS never redirects (flow affinity already lands every packet of
    /// a flow on one core); SCR never redirects *by construction* —
    /// every core holds a full state replica, so there is no designated
    /// writer to transfer to (the state-update log does the moving
    /// instead, [`crate::scr`]); stateless NFs never redirect (no state
    /// to partition).
    fn redirect_target(&self, class: &PacketClass, core: usize) -> Option<usize> {
        match self.mode() {
            DispatchMode::Rss | DispatchMode::Scr => return None,
            DispatchMode::Sprayer => {}
        }
        if self.stateless() || !class.is_conn {
            return None;
        }
        let key = class.key.as_ref()?;
        let designated = self.designated_core(key);
        (designated != core).then_some(designated)
    }
}

/// Invoke the NF on a batch through [`NetworkFunction::handle_batch`],
/// returning the number of packets the NF completed.
///
/// `out` is cleared first, so on return `out.verdicts()[i]` is the
/// verdict for `pkts[i]`. The return value equals `pkts.len()` unless the
/// NF panicked mid-batch — and the caller only observes that case if it
/// wrapped this call in `catch_unwind`, as the threaded runtime does; the
/// sink then tells it exactly how far the batch got.
pub fn run_nf_batch<NF: NetworkFunction>(
    nf: &NF,
    pkts: &mut [Packet],
    conn: &[bool],
    ctx: &mut dyn FlowStateApi<NF::Flow>,
    out: &mut VerdictSink,
) -> usize {
    out.clear();
    nf.handle_batch(pkts, conn, ctx, out);
    debug_assert_eq!(
        out.len(),
        pkts.len(),
        "handle_batch must push exactly one verdict per packet"
    );
    out.len()
}

/// Account one processed packet into a core's counters — the shared
/// half of both runtimes' bookkeeping (the aggregate `forwarded` /
/// `nf_drops` split stays with the caller, which owns egress).
pub fn account(stats: &mut CoreStats, is_conn: bool, via_ring: bool) {
    stats.processed += 1;
    if is_conn {
        stats.connection_packets += 1;
    }
    if via_ring {
        stats.redirected_in += 1;
    }
}

/// The NIC steering `mode` programs over `queues` receive queues: a
/// fresh round-robin indirection table under RSS, fresh checksum-spray
/// filters otherwise. SCR sprays exactly like Sprayer — the difference
/// is what happens after the NIC (a state-update log instead of
/// redirect rings). The Flow Director cap and the spray subset bind
/// only when set; the threaded runtime models no wall-clock rate limit
/// and passes neither.
pub(crate) fn nic_config(
    mode: DispatchMode,
    queues: usize,
    fdir_cap_pps: Option<f64>,
    spray_subset_k: Option<usize>,
) -> NicConfig {
    match mode {
        DispatchMode::Rss => NicConfig::rss(queues),
        DispatchMode::Sprayer | DispatchMode::Scr => NicConfig {
            fdir_rate_cap_pps: fdir_cap_pps,
            spray_subset_k,
            ..NicConfig::sprayer(queues)
        },
    }
}

/// Convenience: was the verdict a forward?
pub fn is_forward(verdict: Verdict) -> bool {
    verdict == Verdict::Forward
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};

    struct FakeEngine {
        mode: DispatchMode,
        stateless: bool,
        cores: usize,
    }

    impl Engine for FakeEngine {
        fn mode(&self) -> DispatchMode {
            self.mode
        }
        fn stateless(&self) -> bool {
            self.stateless
        }
        fn designated_core(&self, key: &FlowKey) -> usize {
            (key.stable_hash() % self.cores as u64) as usize
        }
    }

    fn syn(i: u32) -> Packet {
        let t = FiveTuple::tcp(0x0a00_0000 + i, 40_000, 0xc0a8_0001, 443);
        PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")
    }

    fn data(i: u32) -> Packet {
        let t = FiveTuple::tcp(0x0a00_0000 + i, 40_000, 0xc0a8_0001, 443);
        PacketBuilder::new().tcp(t, 1, 0, TcpFlags::ACK, b"payload")
    }

    #[test]
    fn classification_matches_scalar_parsers() {
        for i in 0..32 {
            let s = syn(i);
            let d = data(i);
            let cs = PacketClass::of(&s);
            let cd = PacketClass::of(&d);
            assert!(cs.is_conn && !cd.is_conn);
            assert_eq!(cs.key, s.tuple().map(|t| t.key()));
            assert_eq!(cs.key, cd.key, "both directions share the canonical key");
        }
    }

    #[test]
    fn redirect_only_for_foreign_sprayer_connection_packets() {
        let e = FakeEngine {
            mode: DispatchMode::Sprayer,
            stateless: false,
            cores: 8,
        };
        for i in 0..64 {
            let class = PacketClass::of(&syn(i));
            let home = e.designated_core(&class.key.unwrap());
            assert_eq!(e.redirect_target(&class, home), None, "home core keeps it");
            let away = (home + 1) % 8;
            assert_eq!(e.redirect_target(&class, away), Some(home));
            // Data packets are processed wherever they were sprayed.
            assert_eq!(e.redirect_target(&PacketClass::of(&data(i)), away), None);
        }
    }

    #[test]
    fn rss_scr_and_stateless_never_redirect() {
        let rss = FakeEngine {
            mode: DispatchMode::Rss,
            stateless: false,
            cores: 8,
        };
        let scr = FakeEngine {
            mode: DispatchMode::Scr,
            stateless: false,
            cores: 8,
        };
        let stateless = FakeEngine {
            mode: DispatchMode::Sprayer,
            stateless: true,
            cores: 8,
        };
        for i in 0..64 {
            let class = PacketClass::of(&syn(i));
            for core in 0..8 {
                assert_eq!(rss.redirect_target(&class, core), None);
                assert_eq!(
                    scr.redirect_target(&class, core),
                    None,
                    "SCR replicates instead"
                );
                assert_eq!(stateless.redirect_target(&class, core), None);
            }
        }
    }

    #[test]
    fn account_splits_conn_and_ring_counters() {
        let mut cs = CoreStats::default();
        account(&mut cs, true, false);
        account(&mut cs, false, true);
        account(&mut cs, false, false);
        assert_eq!(cs.processed, 3);
        assert_eq!(cs.connection_packets, 1);
        assert_eq!(cs.redirected_in, 1);
    }
}
