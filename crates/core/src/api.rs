//! The Sprayer programming model (§3.4) and flow-state API (Table 2).
//!
//! An NF implements [`NetworkFunction`] with two packet handlers:
//!
//! * [`NetworkFunction::connection_packets`] — receives every SYN/FIN/RST
//!   packet of each flow, always on the flow's designated core, and is the
//!   only handler allowed to *create or remove* the flow's state;
//! * [`NetworkFunction::regular_packets`] — receives everything else, on
//!   whatever core the NIC sprayed the packet to, and may *read* any
//!   flow's state ([`FlowStateApi::get_flow`]) but only *modify* flows
//!   designated to the local core.
//!
//! The paper's Table 2 functions map as follows:
//!
//! | paper | here |
//! |---|---|
//! | `insert_local_flow(flow_id)` | [`FlowStateApi::insert_local_flow`] |
//! | `remove_local_flow(flow_id)` | [`FlowStateApi::remove_local_flow`] |
//! | `get_local_flow(flow_id)` | [`FlowStateApi::modify_local_flow`] (modifiable) |
//! | `get_flow(flow_id)` | [`FlowStateApi::get_flow`] (unmodifiable) |
//! | batched `get_flow` | [`FlowStateApi::get_flows`] |
//!
//! Where the C API hands out a `const` pointer whose constness "is only
//! lightly enforced", Rust lets us enforce the write partition for real:
//! foreign state is returned **by value** and local mutation goes through
//! a closure that the backend routes to the local table only. There is no
//! way to express a foreign write in this API.

use serde::{Deserialize, Serialize};
use sprayer_net::{FlowKey, Packet};

/// What the middlebox should do with a packet after the NF handled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Transmit the (possibly rewritten) packet.
    Forward,
    /// Drop the packet.
    Drop,
}

/// Ordered verdict collector for [`NetworkFunction::handle_batch`].
///
/// The sink's length doubles as the batch's progress cursor, and both
/// runtimes rely on that for panic accounting: implementations must push
/// verdict `i` only after packet `i` is *fully* handled (state updated,
/// packet rewritten). If a handler panics mid-batch, `len()` packets were
/// completed and carry verdicts, packet `len()` was in flight, and the
/// rest were never started.
#[derive(Debug, Default)]
pub struct VerdictSink {
    verdicts: Vec<Verdict>,
}

impl VerdictSink {
    /// An empty sink.
    pub fn new() -> Self {
        VerdictSink::default()
    }

    /// An empty sink with room for `n` verdicts.
    pub fn with_capacity(n: usize) -> Self {
        VerdictSink {
            verdicts: Vec::with_capacity(n),
        }
    }

    /// Record the verdict for the next packet in the batch. Call only
    /// once that packet is fully handled (see the progress-cursor
    /// contract above).
    pub fn push(&mut self, verdict: Verdict) {
        self.verdicts.push(verdict);
    }

    /// Number of packets fully handled so far.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// True if no verdict has been recorded.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// The verdicts recorded so far, in batch order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Reset for the next batch, keeping the allocation.
    pub fn clear(&mut self) {
        self.verdicts.clear();
    }
}

/// Why the lifecycle layer evicted a flow entry (the argument to
/// [`NetworkFunction::evict_flow`]).
///
/// NF-initiated teardowns (FIN/RST handling calling
/// [`FlowStateApi::remove_local_flow`]) do **not** fire the hook — the
/// NF removed the entry itself and releases its resources inline; the
/// runtime only counts those removals (`fin_reclaimed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictReason {
    /// The entry's idle timeout elapsed without a write-touch.
    Idle,
    /// The bounded-memory LRU backstop reclaimed the entry to admit a
    /// new flow at capacity.
    Capacity,
}

/// Result of [`FlowStateApi::insert_local_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was created.
    Inserted,
    /// An existing entry was overwritten.
    Replaced,
    /// The flow table is at capacity; nothing was stored.
    TableFull,
}

/// The flow-state API handed to NF packet handlers (paper Table 2).
///
/// `S` is the NF's per-flow state type. Implementations guarantee the
/// *write partition* (§3.2): mutating calls touch only the local core's
/// table; reads may touch any table.
pub trait FlowStateApi<S: Clone> {
    /// The core this handler invocation runs on.
    fn core_id(&self) -> usize;

    /// Number of cores in the middlebox.
    fn num_cores(&self) -> usize;

    /// The designated core for a flow (deterministic, symmetric).
    fn designated_core(&self, key: &FlowKey) -> usize;

    /// Insert (or replace) state for `key` in the **local** table.
    ///
    /// Callers are expected to be on the flow's designated core — which
    /// the runtime guarantees for `connection_packets` — otherwise later
    /// `get_flow` calls will look in the wrong table and miss.
    fn insert_local_flow(&mut self, key: FlowKey, state: S) -> InsertOutcome;

    /// Remove `key` from the local table, returning its state.
    fn remove_local_flow(&mut self, key: &FlowKey) -> Option<S>;

    /// Mutate local state in place. Returns `false` if the flow is not in
    /// the local table (wrong core or never inserted).
    fn modify_local_flow(&mut self, key: &FlowKey, f: &mut dyn FnMut(&mut S)) -> bool;

    /// Read local state by value.
    fn get_local_flow(&self, key: &FlowKey) -> Option<S>;

    /// Visit the local state of each of `keys`, in order, by reference:
    /// what [`Self::get_local_flow`] would return, without the clone
    /// and — on a locked backend — under one lock acquisition for the
    /// whole run. `visit` must not call back into this context.
    fn read_local_flows(
        &self,
        keys: &mut dyn Iterator<Item = &FlowKey>,
        visit: &mut dyn FnMut(&FlowKey, Option<&S>),
    ) {
        for key in keys {
            visit(key, self.get_local_flow(key).as_ref());
        }
    }

    /// Read any flow's state from its designated core's table
    /// (unmodifiable — returned by value).
    fn get_flow(&self, key: &FlowKey) -> Option<S>;

    /// Batched [`FlowStateApi::get_flow`] — "an optimized version of
    /// `get_flow` for looking up multiple flow states at a time" (§3.4).
    /// Appends one result per key to `out`.
    fn get_flows(&self, keys: &[FlowKey], out: &mut Vec<Option<S>>) {
        for key in keys {
            out.push(self.get_flow(key));
        }
    }

    /// Number of flows in the local table (diagnostics).
    fn local_len(&self) -> usize;

    /// Keys this batch successfully wrote (inserted or modified) in the
    /// local table. Maintained only under the SCR dispatch mode, where
    /// [`NetworkFunction::replicate_updates`]'s default ships exactly
    /// the batch's real mutations; empty everywhere else. The runtime
    /// clears the log after each batch's replication hook runs.
    fn written_keys(&self) -> &[FlowKey] {
        &[]
    }

    /// Keys this batch successfully removed from the local table (see
    /// [`Self::written_keys`]). A key can appear in both logs
    /// (written then removed, or removed then re-inserted); the
    /// post-batch table contents disambiguate.
    fn removed_keys(&self) -> &[FlowKey] {
        &[]
    }
}

/// Scope of one piece of NF state (paper Table 1, "State Scope").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// One instance per flow.
    PerFlow,
    /// One shared instance.
    Global,
}

/// Access pattern of one piece of NF state (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Not accessed at this granularity ("-").
    None,
    /// Read only ("R").
    Read,
    /// Read and written ("RW").
    ReadWrite,
}

impl core::fmt::Display for Access {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Access::None => write!(f, "-"),
            Access::Read => write!(f, "R"),
            Access::ReadWrite => write!(f, "RW"),
        }
    }
}

/// Declaration of one piece of state an NF keeps — the rows of the
/// paper's Table 1, regenerated by `sprayer-nf`'s audit binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StateDecl {
    /// Human-readable name ("Flow map", "Pool of IPs/ports", ...).
    pub name: &'static str,
    /// Per-flow or global.
    pub scope: Scope,
    /// Access on every packet.
    pub per_packet: Access,
    /// Access at flow start/end.
    pub per_flow: Access,
}

/// Static metadata describing an NF.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NfDescriptor {
    /// NF name.
    pub name: &'static str,
    /// Declared state and access patterns.
    pub states: Vec<StateDecl>,
    /// Whether this NF is compatible with Sprayer's write-partition model
    /// (§7 lists DPI and transparent proxies as incompatible).
    pub sprayer_compatible: bool,
}

impl NfDescriptor {
    /// A descriptor with no declared state (stateless NF).
    pub fn named(name: &'static str) -> Self {
        NfDescriptor {
            name,
            states: Vec::new(),
            sprayer_compatible: true,
        }
    }

    /// Add a state declaration (builder style).
    pub fn with_state(
        mut self,
        name: &'static str,
        scope: Scope,
        per_packet: Access,
        per_flow: Access,
    ) -> Self {
        self.states.push(StateDecl {
            name,
            scope,
            per_packet,
            per_flow,
        });
        self
    }

    /// Mark the NF as incompatible with the Sprayer model.
    pub fn incompatible(mut self) -> Self {
        self.sprayer_compatible = false;
        self
    }

    /// True if any per-flow state is written on every packet — the
    /// property that makes an NF a poor fit for spraying (only DPI in the
    /// paper's survey).
    pub fn writes_flow_state_per_packet(&self) -> bool {
        self.states
            .iter()
            .any(|s| s.scope == Scope::PerFlow && s.per_packet == Access::ReadWrite)
    }
}

/// NF runtime configuration, set via the initialization hook (§3.4: NFs
/// "can use this function to set parameters that Sprayer will use in its
/// own initialization, such as the size of the flow table").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NfConfig {
    /// Per-core flow-table capacity (entries).
    pub flow_table_capacity: usize,
    /// Stateless NFs "can set a flag to disable flow state features,
    /// i.e., flow tables and the redirection of connection packets".
    pub stateless: bool,
}

impl Default for NfConfig {
    fn default() -> Self {
        NfConfig {
            flow_table_capacity: 1 << 16,
            stateless: false,
        }
    }
}

/// A Sprayer network function (§3.4).
///
/// Implementations must be `Send + Sync`: all cores run the same NF
/// instance, so *global* state (the paper's Table 1 "Global" rows) lives
/// in the NF struct behind atomics or locks, exactly the shared-state
/// problem the paper notes is common to all multicore approaches.
pub trait NetworkFunction: Send + Sync {
    /// Per-flow state stored in the flow tables.
    type Flow: Clone + Send + Sync + 'static;

    /// Static metadata (drives the Table 1 audit).
    fn descriptor(&self) -> NfDescriptor;

    /// Initialization hook: flow-table sizing, stateless flag.
    fn config(&self) -> NfConfig {
        NfConfig::default()
    }

    /// Handle a connection packet (SYN/FIN/RST), on the designated core.
    fn connection_packets(
        &self,
        pkt: &mut Packet,
        ctx: &mut dyn FlowStateApi<Self::Flow>,
    ) -> Verdict;

    /// Handle a regular packet, on whichever core received it.
    fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<Self::Flow>) -> Verdict;

    /// Handle a batch of packets on one core, pushing exactly one verdict
    /// per packet into `out` (in order, respecting the [`VerdictSink`]
    /// progress-cursor contract). `conn[i]` tells whether `pkts[i]` is a
    /// connection packet — classified once at ingress, so implementations
    /// must not re-derive it.
    ///
    /// The default implementation loops over the scalar handlers and is
    /// always correct; NFs override it to amortize per-batch work
    /// (batched table lookups via [`FlowStateApi::get_flows`], hoisted
    /// config reads, single-pass scans). An override must be
    /// *observationally identical* to the default: same verdicts, same
    /// packet rewrites, same state transitions — the batch-vs-scalar
    /// proptests in `sprayer-nf` hold every override to that.
    fn handle_batch(
        &self,
        pkts: &mut [Packet],
        conn: &[bool],
        ctx: &mut dyn FlowStateApi<Self::Flow>,
        out: &mut VerdictSink,
    ) {
        debug_assert_eq!(pkts.len(), conn.len());
        for (pkt, &is_conn) in pkts.iter_mut().zip(conn) {
            let verdict = if is_conn {
                self.connection_packets(pkt, ctx)
            } else {
                self.regular_packets(pkt, ctx)
            };
            out.push(verdict);
        }
    }

    /// Replication hook of the SCR dispatch mode
    /// ([`crate::config::DispatchMode::Scr`]): after `handle_batch`
    /// returns, the runtime calls this to extract the compact
    /// state-updates the batch implies, which it multicasts to every
    /// peer's log ring for replay ([`crate::scr`]).
    ///
    /// The default ships exactly what the batch *mutated*: under SCR
    /// the flow-state backends log every successful local write and
    /// removal ([`FlowStateApi::written_keys`] /
    /// [`FlowStateApi::removed_keys`]), and each logged key's
    /// post-batch local state becomes the op — present is
    /// [`crate::scr::UpdateOp::Put`] (value shipping: peers converge
    /// to the writer's exact post-state), absent is
    /// [`crate::scr::UpdateOp::Del`] (the key was genuinely removed).
    /// Keys the batch merely *read* never ship: emitting a `Del` for a
    /// read miss would stamp a fresh global seq on "this flow does not
    /// exist" and tombstone live state on every replica whenever a
    /// sprayed data packet races ahead of its flow's SYN replay. This
    /// covers secondary writes no packet-key scan would see — the
    /// NAT's paired reverse-mapping entry, a DPI cursor write — for
    /// free, because the log records the write itself.
    ///
    /// NFs may still override it to compress what ships (delta
    /// encodings, batching several flows into one op). An override
    /// must uphold the replay contract: applying the emitted ops to a
    /// converged replica must reproduce the local table's post-batch
    /// contents for every key the batch wrote, and must never emit a
    /// `Del` for a key the batch did not remove.
    fn replicate_updates(
        &self,
        _pkts: &[Packet],
        _conn: &[bool],
        ctx: &dyn FlowStateApi<Self::Flow>,
        out: &mut Vec<crate::scr::UpdateOp<Self::Flow>>,
    ) {
        // Each log is already free of duplicates; a key in both ships
        // once, with the written keys.
        let written = ctx.written_keys();
        let removed = ctx.removed_keys().iter().filter(|k| !written.contains(k));
        ctx.read_local_flows(&mut written.iter().chain(removed), &mut |key, state| {
            out.push(match state {
                Some(state) => crate::scr::UpdateOp::Put(*key, state.clone()),
                None => crate::scr::UpdateOp::Del(*key),
            });
        });
    }

    /// Merge hook of the SCR replay path: how an incoming replicated
    /// `Put` combines with the replica's current entry. Called for
    /// every admitted `Put` — `newer = true` when the update
    /// post-dates everything the replica has seen for the flow
    /// ([`crate::scr::Admission::Fresh`]), `false` for a concurrent
    /// older write ([`crate::scr::Admission::Concurrent`]).
    ///
    /// The default is exact last-writer-wins — store the newer value,
    /// ignore the older — which is correct when each flow's state is
    /// only ever written by one core at a time. NFs whose conn-state
    /// transitions are read-modify-writes that can race on different
    /// cores under SCR (the firewall's two-FIN teardown) override this
    /// with a commutative merge (e.g. OR the per-direction FIN bits),
    /// returning [`crate::scr::ReplicaMerge::Remove`] when the merged
    /// state completes a teardown.
    fn merge_replica(
        &self,
        _key: &FlowKey,
        _existing: Option<&Self::Flow>,
        incoming: &Self::Flow,
        newer: bool,
    ) -> crate::scr::ReplicaMerge<Self::Flow> {
        if newer {
            crate::scr::ReplicaMerge::Store(incoming.clone())
        } else {
            crate::scr::ReplicaMerge::Keep
        }
    }

    /// Eviction hook of the flow lifecycle layer: called once per entry
    /// the runtime reclaims — idle-timeout expiry or the LRU capacity
    /// backstop ([`EvictReason`]) — with the evicted state, after the
    /// entry has left the table. NFs that hold external resources per
    /// flow release them here: the NAT returns the flow's translated
    /// port to the pool, the DPI drops the flow's scan cursor. The hook
    /// runs on the core that owned the entry; under SCR the matching
    /// `Del` has already been logged for replication, and replicas
    /// applying that `Del` do *not* re-fire the hook (resources are
    /// owned once, by the evicting core). Must be idempotent against
    /// duplicate eviction of the same logical flow (e.g. an idle expiry
    /// racing a replicated teardown). Default: no-op.
    fn evict_flow(&self, _key: &FlowKey, _state: &mut Self::Flow, _reason: EvictReason) {}

    /// Export hook of the flow-state migration protocol: called once per
    /// flow, on the flow's *old* designated core, just before the entry
    /// is moved during an elastic reconfiguration. NFs that keep
    /// core-dependent invariants (e.g. the NAT's designated-core-aligned
    /// port choice) seal or normalize them here. Default: no-op.
    fn freeze_flow(&self, _key: &FlowKey, _state: &mut Self::Flow) {}

    /// Import hook of the migration protocol: called once per migrated
    /// flow with the core that now owns it, after [`Self::freeze_flow`]
    /// and before the entry becomes visible in the new table. Default:
    /// no-op.
    fn adopt_flow(&self, _key: &FlowKey, _state: &mut Self::Flow, _new_core: usize) {}

    /// Label the stage profiler tags this NF's runs with (the
    /// `profile_nf` metric). Defaults to the descriptor name; NFs whose
    /// cost depends on configuration (e.g. a synthetic busy-loop NF or
    /// a pattern-count-parameterized DPI) override it to encode the
    /// variant, so profile documents from different sweeps stay
    /// distinguishable.
    fn profile_label(&self) -> String {
        self.descriptor().name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_replication_ships_each_mutated_key_once_with_its_post_batch_state() {
        use crate::config::DispatchMode;
        use crate::coremap::CoreMap;
        use crate::scr::UpdateOp;
        use crate::tables::{LocalTables, SharedTables};
        use sprayer_net::FiveTuple;

        struct Nop;
        impl NetworkFunction for Nop {
            type Flow = u32;
            fn descriptor(&self) -> NfDescriptor {
                NfDescriptor::named("nop")
            }
            fn connection_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
                Verdict::Forward
            }
            fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
                Verdict::Forward
            }
        }
        let key = |i: u32| FiveTuple::tcp(0x0a00_0000 + i, 1000, 0xc0a8_0001, 443).key();
        // k1 written; k2 written then removed (in both logs: ships once,
        // as the Del its absence makes it); k4 only removed.
        fn batch(ctx: &mut dyn FlowStateApi<u32>, key: impl Fn(u32) -> FlowKey) {
            ctx.insert_local_flow(key(1), 10);
            ctx.insert_local_flow(key(2), 20);
            ctx.modify_local_flow(&key(1), &mut |v| *v += 1);
            ctx.remove_local_flow(&key(2));
            ctx.remove_local_flow(&key(4));
        }
        let want = vec![
            UpdateOp::Put(key(1), 11),
            UpdateOp::Del(key(2)),
            UpdateOp::Del(key(4)),
        ];
        let map = CoreMap::new(DispatchMode::Scr, 2);

        let mut local: LocalTables<u32> = LocalTables::new(map.clone(), 16);
        local.apply_replica(0, &UpdateOp::Put(key(4), 40));
        let mut ctx = local.ctx(0);
        batch(&mut ctx, key);
        let mut ops = Vec::new();
        Nop.replicate_updates(&[], &[], &ctx, &mut ops);
        assert_eq!(ops, want, "simulator backend");

        let shared: SharedTables<u32> = SharedTables::new(map, 16);
        shared.apply_replica(0, &UpdateOp::Put(key(4), 40));
        let mut ctx = shared.ctx(0);
        batch(&mut ctx, key);
        let mut ops = Vec::new();
        Nop.replicate_updates(&[], &[], &ctx, &mut ops);
        assert_eq!(ops, want, "threaded backend, one read lock for the run");
    }

    #[test]
    fn descriptor_builder_accumulates_states() {
        let d = NfDescriptor::named("nat")
            .with_state("Flow map", Scope::PerFlow, Access::Read, Access::ReadWrite)
            .with_state(
                "Pool of IPs/ports",
                Scope::Global,
                Access::None,
                Access::ReadWrite,
            );
        assert_eq!(d.name, "nat");
        assert_eq!(d.states.len(), 2);
        assert!(d.sprayer_compatible);
        assert!(!d.writes_flow_state_per_packet());
    }

    #[test]
    fn dpi_style_descriptor_flags_per_packet_flow_writes() {
        let d = NfDescriptor::named("dpi")
            .with_state("Automata", Scope::PerFlow, Access::ReadWrite, Access::None)
            .incompatible();
        assert!(d.writes_flow_state_per_packet());
        assert!(!d.sprayer_compatible);
    }

    #[test]
    fn access_display_matches_table_1_notation() {
        assert_eq!(Access::None.to_string(), "-");
        assert_eq!(Access::Read.to_string(), "R");
        assert_eq!(Access::ReadWrite.to_string(), "RW");
    }

    #[test]
    fn default_config_is_stateful_with_64k_entries() {
        let c = NfConfig::default();
        assert!(!c.stateless);
        assert_eq!(c.flow_table_capacity, 65536);
    }
}
