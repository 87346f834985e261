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
//! * **dispatch** ([`Dispatch`]) — the one value that knows what a
//!   [`DispatchMode`] does: how the NIC steers, which core each flow is
//!   designated to, whether a packet is redirected (the core picker of
//!   §3.3, [`Engine::redirect_target`]) and whether flow state is
//!   replicated. Neither runtime names a mode;
//! * **NF invocation** ([`run_nf_batch`]) — the batch-native call into
//!   [`NetworkFunction::handle_batch`], with the verdict-cursor contract
//!   the threaded runtime's panic accounting depends on;
//! * **outcome accounting** ([`account`]) — the per-core counter updates
//!   both [`crate::stats::CoreStats`] projections are built from.

use crate::api::{FlowStateApi, NetworkFunction, VerdictSink};
use crate::config::{DispatchMode, SCR_LOG_CAPACITY};
use crate::coremap::CoreMap;
use crate::scr::{Backoff, ScrPort, SharedScrPlane};
use crate::stats::{CoreStats, MiddleboxStats, BATCH_HIST_BUCKETS};
use crate::tables::ReplicaWriter;
use sprayer_net::{FlowKey, Packet};
use sprayer_nic::{Nic, NicConfig};

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

/// The redirect decision's three inputs, and the decision itself as a
/// provided method: [`Dispatch`] implements it for both runtimes, and a
/// model of the pipeline can implement it over its own core map.
pub trait Engine {
    /// The dispatch mode in force.
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

/// The dispatch policy of one run, built once and advanced at every
/// epoch transition ([`Dispatch::rescale`], [`Dispatch::fail`]). It
/// answers how the NIC steers ([`Dispatch::nic`]), where each flow is
/// designated ([`Dispatch::map`]), whether a packet is redirected
/// ([`Engine::redirect_target`]) and whether state is replicated
/// ([`Dispatch::replication`]).
#[derive(Debug, Clone)]
pub struct Dispatch {
    mode: DispatchMode,
    stateless: bool,
    /// What the NIC is programmed with, but for its queue count.
    nic: NicConfig,
    map: CoreMap,
}

impl Dispatch {
    /// The policy of `mode` over `cores` cores for a `stateless` NF or
    /// not. The Flow Director cap and the spray subset bind only when
    /// set. An `elastic` run designates by rendezvous hash
    /// ([`CoreMap::elastic`]), so that rescales move few flows.
    pub fn new(
        mode: DispatchMode,
        stateless: bool,
        fdir_cap_pps: Option<f64>,
        spray_subset_k: Option<usize>,
        elastic: bool,
        cores: usize,
    ) -> Self {
        // SCR sprays like Sprayer: what differs is after the NIC.
        let nic = match mode {
            DispatchMode::Rss => NicConfig::rss(cores),
            DispatchMode::Sprayer | DispatchMode::Scr => NicConfig {
                fdir_rate_cap_pps: fdir_cap_pps,
                spray_subset_k,
                ..NicConfig::sprayer(cores)
            },
        };
        // Under subset spraying a flow's packets only visit the k queues
        // anchored at its RSS queue, so its state must live there too:
        // designation follows the RSS map, not the full-spray hash.
        let designation = match (mode, spray_subset_k) {
            (DispatchMode::Sprayer, Some(_)) => DispatchMode::Rss,
            _ => mode,
        };
        let map = if elastic {
            CoreMap::elastic(designation, cores)
        } else {
            CoreMap::new(designation, cores)
        };
        Dispatch {
            mode,
            stateless,
            nic,
            map,
        }
    }

    /// A NIC programmed for this epoch: a receive queue per active core.
    pub fn nic(&self) -> Nic {
        let num_queues = self.map.active_core_ids().len();
        Nic::new(NicConfig {
            num_queues,
            ..self.nic.clone()
        })
    }

    /// This epoch's designated-core map.
    pub fn map(&self) -> &CoreMap {
        &self.map
    }

    /// The next epoch, at `cores` cores ([`CoreMap::rescaled`]).
    pub fn rescale(&mut self, cores: usize) {
        self.map = self.map.rescaled(cores);
    }

    /// The next epoch, without the dead `core` ([`CoreMap::without_core`]).
    pub fn fail(&mut self, core: usize) {
        self.map = self.map.without_core(core);
    }

    /// A fresh replication plane over this epoch's cores: SCR's update
    /// logs for a stateful NF, inert otherwise (a stateless NF has
    /// nothing to replicate, so SCR is then pure spraying).
    pub fn replication<S>(&self) -> Replication<S> {
        let replicate = self.mode == DispatchMode::Scr && !self.stateless;
        Replication(replicate.then(|| SharedScrPlane::new(self.map.num_cores(), SCR_LOG_CAPACITY)))
    }
}

impl Engine for Dispatch {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn stateless(&self) -> bool {
        self.stateless
    }

    fn designated_core(&self, key: &FlowKey) -> usize {
        self.map.designated_for_key(key)
    }
}

/// One epoch's replication plane: the SCR plane ([`crate::scr`]) when
/// the run replicates flow state, else inert. A call on an inert plane
/// or on one of its [`Replica`] handles is one branch that does nothing.
#[derive(Debug)]
pub struct Replication<S>(Option<SharedScrPlane<S>>);

impl<S: Clone> Replication<S> {
    /// `core`'s handle.
    pub fn port(&self, core: usize) -> Replica<S> {
        Replica(self.0.as_ref().map(|plane| plane.port(core)))
    }

    /// A handle per core on the plane; an inert plane spans no core.
    pub fn ports(&self) -> Vec<Replica<S>> {
        let cores = self.0.as_ref().map_or(0, SharedScrPlane::num_cores);
        (0..cores).map(|core| self.port(core)).collect()
    }

    /// Discard a dead `core`'s log as accounted drops; returns how many.
    pub fn truncate(&self, core: usize) -> u64 {
        self.0.as_ref().map_or(0, |plane| plane.truncate(core))
    }

    /// The deepest any log has been.
    pub fn occupancy_hwm(&self) -> u64 {
        self.0.as_ref().map_or(0, SharedScrPlane::occupancy_hwm)
    }

    /// Once every core has stopped, truncate each log (a publish that
    /// raced a dying peer's truncation can strand updates there) and
    /// add the plane's counters to `stats`: `scr_replay_gap()` closes.
    pub fn settle(&self, stats: &mut MiddleboxStats) {
        let Some(plane) = &self.0 else {
            return;
        };
        for core in 0..plane.num_cores() {
            plane.truncate(core);
        }
        stats.scr_published += plane.published();
        stats.scr_applied += plane.applied();
        stats.scr_log_drops += plane.dropped();
        stats.scr_log_occupancy_hwm = stats.scr_log_occupancy_hwm.max(plane.occupancy_hwm());
    }
}

/// One core's replication handle: its [`ScrPort`], or inert.
#[derive(Debug)]
pub struct Replica<S>(Option<ScrPort<S>>);

impl<S: Clone> Replica<S> {
    /// [`ScrPort::replay`]: the remote updates consumed.
    pub fn replay<NF: NetworkFunction<Flow = S>>(
        &mut self,
        nf: &NF,
        floor: impl FnOnce(&SharedScrPlane<S>) -> u64,
        open: impl FnOnce(&mut dyn FnMut(ReplicaWriter<'_, S>)),
    ) -> u64 {
        self.0
            .as_mut()
            .map_or(0, |port| port.replay(nf, floor, open))
    }

    /// [`ScrPort::extract`] from `ctx`, then reset its log with `clear`.
    pub fn extract<NF, C>(
        &mut self,
        nf: &NF,
        pkts: &[Packet],
        conn: &[bool],
        ctx: &mut C,
        clear: fn(&mut C),
    ) where
        NF: NetworkFunction<Flow = S>,
        C: FlowStateApi<S>,
    {
        if let Some(port) = &mut self.0 {
            port.extract(nf, pkts, conn, ctx);
            clear(ctx);
        }
    }

    /// [`ScrPort::publish`]: the copies that landed; `None` if inert.
    pub fn publish(
        &mut self,
        live: impl Fn(usize) -> bool,
        full: impl FnMut(&mut ScrPort<S>, usize) -> Backoff,
    ) -> Option<u64> {
        self.0.as_mut().map(|port| port.publish(live, full))
    }

    /// [`SharedScrPlane::quiesce`] for this core.
    pub fn quiesce(&self) {
        if let Some(port) = &self.0 {
            port.plane().quiesce(port.core());
        }
    }

    /// Whether the core may leave its phase once its queues are done:
    /// at once if inert, else once `peers_done` and its log is dry.
    pub fn settled(&self, peers_done: impl FnOnce() -> bool) -> bool {
        let dry = |port: &ScrPort<S>| port.plane().pending(port.core()) == 0;
        self.0.as_ref().is_none_or(|port| peers_done() && dry(port))
    }

    /// The replay-lag histogram since the last take.
    pub fn take_lag_hist(&mut self) -> [u64; BATCH_HIST_BUCKETS] {
        let none = [0; BATCH_HIST_BUCKETS];
        self.0.as_mut().map_or(none, ScrPort::take_lag_hist)
    }

    /// Most records the core's version guard held at once.
    pub fn guard_hwm(&self) -> usize {
        self.0.as_ref().map_or(0, |port| port.guard().len_hwm())
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

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};

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
        let e = Dispatch::new(DispatchMode::Sprayer, false, None, None, false, 8);
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
        let rss = Dispatch::new(DispatchMode::Rss, false, None, None, false, 8);
        let scr = Dispatch::new(DispatchMode::Scr, false, None, None, false, 8);
        let stateless = Dispatch::new(DispatchMode::Sprayer, true, None, None, false, 8);
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

    /// Every dispatch decision in one table, a row per mode × NF
    /// statefulness × spray subset, each built static and elastic: the
    /// NIC (spray or RSS, the Flow Director cap, the subset), the
    /// designation family (subset spraying anchors it at the RSS
    /// queue), whether a foreign connection packet is redirected, and
    /// whether state is replicated — never for a stateless NF, which a
    /// runtime's outputs cannot show, since such an NF writes nothing.
    #[test]
    fn one_value_answers_steer_designate_redirect_and_replicate() {
        use DispatchMode::{Rss, Scr, Sprayer};
        const CAP: Option<f64> = Some(10.0e6);
        // mode, stateless, subset => sprays, designated by, redirects, replicates
        let rows = [
            (Rss, false, None, false, Rss, false, false),
            (Rss, true, None, false, Rss, false, false),
            (Rss, false, Some(2), false, Rss, false, false),
            (Sprayer, false, None, true, Sprayer, true, false),
            (Sprayer, true, None, true, Sprayer, false, false),
            (Sprayer, false, Some(2), true, Rss, true, false),
            (Sprayer, true, Some(2), true, Rss, false, false),
            (Scr, false, None, true, Scr, false, true),
            (Scr, true, None, true, Scr, false, false),
            (Scr, false, Some(2), true, Scr, false, true),
            (Scr, true, Some(2), true, Scr, false, false),
        ];
        for (mode, stateless, subset, sprays, family, redirects, replicates) in rows {
            for elastic in [false, true] {
                let row =
                    format!("{mode:?} stateless={stateless} subset={subset:?} elastic={elastic}");
                let mut d = Dispatch::new(mode, stateless, CAP, subset, elastic, 4);
                let nic = d.nic();
                let cfg = nic.config();
                assert_eq!((cfg.num_queues, cfg.spray_tcp), (4, sprays), "{row}");
                let (cap, k) = if sprays { (CAP, subset) } else { (None, None) };
                assert_eq!(
                    (cfg.fdir_rate_cap_pps, cfg.spray_subset_k),
                    (cap, k),
                    "{row}"
                );
                let map = d.map();
                assert_eq!(map.mode(), family, "{row}");
                assert_eq!(map.is_rendezvous(), elastic && family != Rss, "{row}");
                let anchor = CoreMap::new(Rss, 4);
                for i in 0..64 {
                    let class = PacketClass::of(&syn(i));
                    let key = class.key.unwrap();
                    let home = d.designated_core(&key);
                    if family == Rss && !elastic {
                        assert_eq!(home, anchor.designated_for_key(&key), "{row}");
                    }
                    let away = (home + 1) % 4;
                    assert_eq!(d.redirect_target(&class, home), None, "{row}");
                    let want = redirects.then_some(home);
                    assert_eq!(d.redirect_target(&class, away), want, "{row}");
                    // Data packets run wherever they were sprayed.
                    let data = PacketClass::of(&data(i));
                    assert_eq!(d.redirect_target(&data, away), None, "{row}");
                }
                let plane = d.replication::<u32>();
                assert_eq!(plane.0.is_some(), replicates, "{row}");
                assert_eq!(plane.ports().len(), if replicates { 4 } else { 0 }, "{row}");
                assert_eq!(plane.port(3).0.is_some(), replicates, "{row}");
                // Each epoch transition advances the one value.
                d.rescale(6);
                assert_eq!(d.nic().config().num_queues, 6, "{row}");
                let plane = d.replication::<u32>();
                assert_eq!(plane.ports().len(), if replicates { 6 } else { 0 }, "{row}");
                d.fail(2);
                assert_eq!(d.nic().config().num_queues, 5, "{row}");
                assert!(d.map().is_failed(2) && d.map().epoch() == 2, "{row}");
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
