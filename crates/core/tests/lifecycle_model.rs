//! Model-based tests for the flow lifecycle under SCR replication.
//!
//! Extends `flowtable_model.rs` level 4 with the lifecycle mutation
//! sources: besides NF puts and FIN-driven removes, entries now also
//! leave the table through idle-timeout sweeps and the bounded-memory
//! LRU backstop — both of which ship their `Del`s through the same
//! per-batch mutation log as NF writes. Under arbitrary interleavings
//! of all four mutation kinds plus replay schedules — published and
//! replayed through the runtimes' own per-core port — three properties
//! must hold:
//!
//! * **convergence** — once every log drains, all replicas are
//!   bit-identical and agree with the sequential publish-order
//!   reference;
//! * **conservation** — the flow-entry identity
//!   (`created == live + fin + idle + lru + replica_dels + dropped`)
//!   closes after every single operation, not just at quiesce;
//! * **single delivery** — every lifecycle eviction is staged for the
//!   `evict_flow` hook exactly once (the staging layer cannot
//!   double-deliver, which is what NF resource reclaim leans on).

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use sprayer::api::{
    EvictReason, FlowStateApi, InsertOutcome, NetworkFunction, NfDescriptor, Verdict,
};
use sprayer::config::DispatchMode;
use sprayer::config::LifecycleConfig;
use sprayer::coremap::CoreMap;
use sprayer::scr::{Backoff, ScrPort, SharedScrPlane};
use sprayer::tables::{SharedCtx, SharedTables};
use sprayer_net::{FiveTuple, FlowKey, Packet};

const CORES: usize = 4;
/// Small enough that the 64-key universe hits the LRU backstop
/// constantly (under SCR every core replicates every key).
const CAPACITY: usize = 12;
const IDLE_TIMEOUT_US: u64 = 50;

/// Same small key universe as `flowtable_model.rs`: collisions make
/// re-inserts after expiry, replace-vs-create, and sweep/write races
/// common at 128 cases.
fn key(id: u8) -> FlowKey {
    let id = u32::from(id % 64);
    FiveTuple::tcp(0x0a00_0000 + id, 40_000 + (id as u16 % 3), 0xc0a8_0001, 443).key()
}

/// One lifecycle event, as the runtime would produce it.
#[derive(Debug, Clone)]
enum LifeOp {
    /// `origin % CORES` inserts `key(k) = v` (a SYN landing there). At
    /// capacity this triggers the LRU backstop.
    Insert(u8, u8, u64),
    /// `origin % CORES` runs FIN teardown for `key(k)`.
    Fin(u8, u8),
    /// `origin % CORES` write-touches `key(k)` (a tracked data write),
    /// refreshing its idle stamp.
    Touch(u8, u8),
    /// `origin % CORES`'s lazy lifecycle clock advances by `1 + n % 40`
    /// simulated µs.
    Tick(u8, u8),
    /// `core % CORES` sweeps its table for idle entries (under SCR only
    /// keys rendezvous-designated to it actually expire there).
    Sweep(u8),
    /// `core % CORES` replays its log.
    Drain(u8),
}

fn arb_life_op() -> impl Strategy<Value = LifeOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(c, k, v)| LifeOp::Insert(c, k, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, k)| LifeOp::Fin(c, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, k)| LifeOp::Touch(c, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, n)| LifeOp::Tick(c, n)),
        any::<u8>().prop_map(LifeOp::Sweep),
        any::<u8>().prop_map(LifeOp::Drain),
    ]
}

/// The model NF: the default hooks only — `replicate_updates` ships the
/// batch's written values and removals, `merge_replica` is plain
/// last-writer-wins.
struct ModelNf;

impl NetworkFunction for ModelNf {
    type Flow = u64;
    fn descriptor(&self) -> NfDescriptor {
        NfDescriptor::named("model")
    }
    fn connection_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u64>) -> Verdict {
        Verdict::Forward
    }
    fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u64>) -> Verdict {
        Verdict::Forward
    }
}

/// The replication fixture: full-replica tables with the lifecycle on,
/// one long-lived ctx per worker (the logs live in the ctx, as in the
/// threaded runtime), the multicast plane, and one port per core.
struct Fixture {
    tables: SharedTables<u64>,
    ctxs: Vec<SharedCtx<u64>>,
    plane: SharedScrPlane<u64>,
    ports: Vec<ScrPort<u64>>,
    /// Per-core lazy lifecycle clocks (simulated µs, monotone).
    clocks: [u64; CORES],
    /// Sequential reference: every published op applied in seq order.
    reference: BTreeMap<FlowKey, u64>,
    /// `evict_flow` staging deliveries seen, by reason.
    hooks_idle: u64,
    hooks_capacity: u64,
}

impl Fixture {
    fn new() -> Self {
        let map = CoreMap::new(DispatchMode::Scr, CORES);
        let tables: SharedTables<u64> =
            SharedTables::with_lifecycle(map, CAPACITY, LifecycleConfig::bounded(IDLE_TIMEOUT_US));
        let ctxs: Vec<SharedCtx<u64>> = (0..CORES).map(|c| tables.ctx(c)).collect();
        let plane = SharedScrPlane::new(CORES, 8192);
        Fixture {
            tables,
            ctxs,
            ports: (0..CORES).map(|core| plane.port(core)).collect(),
            plane,
            clocks: [0; CORES],
            reference: BTreeMap::new(),
            hooks_idle: 0,
            hooks_capacity: 0,
        }
    }

    /// What the runtime does after every batch: extract the batch's
    /// updates from the ctx's mutation log through the port, publish,
    /// reset the log, and harvest staged evictions for the hook path.
    /// The reference takes the same writes in publish order: each
    /// logged key's current state, `None` meaning a removal.
    fn flush(&mut self, core: usize) {
        let ctx = &mut self.ctxs[core];
        for k in ctx.written_keys().iter().chain(ctx.removed_keys()) {
            match ctx.get_local_flow(k) {
                Some(state) => self.reference.insert(*k, state),
                None => self.reference.remove(k),
            };
        }
        let port = &mut self.ports[core];
        port.extract(&ModelNf, &[], &[], ctx);
        // The logs never fill here: nothing is ever abandoned.
        port.publish(|_| true, |_, _| Backoff::Abandon);
        ctx.clear_batch_log();
        for (_key, _state, reason) in ctx.take_evictions() {
            match reason {
                EvictReason::Idle => self.hooks_idle += 1,
                EvictReason::Capacity => self.hooks_capacity += 1,
            }
        }
    }

    /// `core` replays its whole log through its port. Every publish
    /// lands on its peers' logs within one call, so the global head is
    /// the guard floor.
    fn replay(&mut self, core: usize) {
        let tables = &self.tables;
        let floor = SharedScrPlane::head_seq;
        self.ports[core].replay(&ModelNf, floor, |run| tables.replica(core, run));
    }

    fn conservation_holds(&self) -> bool {
        self.tables
            .counters()
            .unaccounted(self.tables.total_entries() as u64)
            == 0
    }
}

proptest! {
    /// The lifecycle correctness property: arbitrary interleavings of
    /// inserts (with LRU-backstop evictions), FIN teardowns,
    /// write-touches, clock skew, idle sweeps, and replays converge every SCR replica to the same table, conserve
    /// every flow entry at every step, and stage every eviction for the
    /// hook exactly once.
    #[test]
    fn lifecycle_evictions_converge_scr_replicas(ops in vec(arb_life_op(), 0..280)) {
        let mut fx = Fixture::new();

        for op in &ops {
            match *op {
                LifeOp::Insert(c, k, v) => {
                    let core = usize::from(c) % CORES;
                    let out = fx.ctxs[core].insert_local_flow(key(k), v);
                    // The backstop claim: with `lru_backstop` on, a full
                    // table admits by evicting, never by shedding.
                    prop_assert!(out != InsertOutcome::TableFull);
                    fx.flush(core);
                }
                LifeOp::Fin(c, k) => {
                    let core = usize::from(c) % CORES;
                    fx.ctxs[core].remove_local_flow(&key(k));
                    fx.flush(core);
                }
                LifeOp::Touch(c, k) => {
                    let core = usize::from(c) % CORES;
                    fx.ctxs[core].modify_local_flow(&key(k), &mut |s| *s = s.wrapping_add(1));
                    fx.flush(core);
                }
                LifeOp::Tick(c, n) => {
                    let core = usize::from(c) % CORES;
                    fx.clocks[core] += 1 + u64::from(n) % 40;
                    let now = fx.clocks[core];
                    fx.ctxs[core].touch_clock(now);
                }
                LifeOp::Sweep(c) => {
                    let core = usize::from(c) % CORES;
                    let now = fx.clocks[core];
                    fx.ctxs[core].sweep_idle(now);
                    fx.flush(core);
                }
                LifeOp::Drain(c) => fx.replay(usize::from(c) % CORES),
            }
            // Conservation closes after *every* operation: an entry
            // leaving any table lands in exactly one reason counter the
            // same instant.
            prop_assert!(fx.conservation_holds(), "identity open: {:?}", fx.tables.counters());
        }

        // Quiesce: every core replays its whole inbox.
        for core in 0..CORES {
            fx.replay(core);
            prop_assert_eq!(fx.plane.pending(core), 0);
        }
        prop_assert_eq!(fx.plane.dropped(), 0);
        prop_assert_eq!(fx.plane.published(), fx.plane.applied());
        prop_assert!(fx.conservation_holds());

        // Bit-identical convergence with the publish-order reference —
        // a sweep's Del, a backstop's Del, and a FIN's Del are
        // indistinguishable to the replicas, so the lifecycle cannot
        // fork the tables.
        for k in 0..64u8 {
            let key = key(k);
            let want = fx.reference.get(&key).copied();
            for core in 0..CORES {
                prop_assert_eq!(
                    fx.ctxs[core].get_local_flow(&key),
                    want,
                    "core {} diverged on key {}",
                    core,
                    k
                );
            }
        }

        // Single delivery: the staging layer handed each lifecycle
        // eviction to the hook path exactly once.
        let c = fx.tables.counters();
        prop_assert_eq!(fx.hooks_idle, c.idle_expired);
        prop_assert_eq!(fx.hooks_capacity, c.lru_evicted);
    }
}

/// Deterministic companion: each lifecycle reclaim path demonstrably
/// fires and converges (the proptest above cannot assert existence on
/// random scripts).
#[test]
fn idle_sweep_and_lru_backstop_replicate_their_dels() {
    let mut fx = Fixture::new();

    // Fill core 0 to capacity; keys replicate everywhere on drain.
    for k in 0..CAPACITY as u8 {
        assert_eq!(
            fx.ctxs[0].insert_local_flow(key(k), u64::from(k)),
            InsertOutcome::Inserted
        );
        fx.flush(0);
    }
    for core in 0..CORES {
        fx.replay(core);
    }
    assert_eq!(fx.tables.entries_on(0), CAPACITY);

    // One more insert trips the LRU backstop: the victim's Del ships.
    assert_eq!(
        fx.ctxs[0].insert_local_flow(key(63), 63),
        InsertOutcome::Inserted
    );
    fx.flush(0);
    for core in 0..CORES {
        fx.replay(core);
        assert_eq!(
            fx.tables.entries_on(core),
            CAPACITY,
            "replica {core} must match the origin after the backstop"
        );
    }
    assert_eq!(fx.tables.counters().lru_evicted, 1);
    assert_eq!(fx.hooks_capacity, 1);

    // Let everything idle out. Each core only sweeps its designated
    // keys; the union of the four sweeps clears every replica.
    for core in 0..CORES {
        fx.clocks[core] = IDLE_TIMEOUT_US + 1;
        let now = fx.clocks[core];
        fx.ctxs[core].touch_clock(now);
        fx.ctxs[core].sweep_idle(now);
        fx.flush(core);
    }
    for core in 0..CORES {
        fx.replay(core);
        assert_eq!(fx.tables.entries_on(core), 0, "replica {core} must empty");
    }
    let c = fx.tables.counters();
    assert_eq!(c.idle_expired, CAPACITY as u64);
    assert_eq!(fx.hooks_idle, CAPACITY as u64);
    assert!(fx.conservation_holds(), "identity open: {c:?}");
}
