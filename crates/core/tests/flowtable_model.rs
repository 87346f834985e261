//! Model-based tests for the open-addressing flow-table layer.
//!
//! Three levels, each checked against a `BTreeMap` reference model under
//! randomized operation interleavings:
//!
//! * [`FlowTable`] — the raw open-addressing primitive (probe chains,
//!   tombstone reuse, growth, deterministic iteration);
//! * [`LocalTables`] — the per-core simulator backend, including
//!   `rescale` and `fail_core` epoch transitions with the
//!   freeze/adopt NF-hook path applied to every migrated flow;
//! * [`SharedTables`] — the threaded backend, held to byte-identical
//!   behaviour with `LocalTables` under the same operation script.
//!
//! Two more levels hold the SCR replay plane to its contracts: replica
//! convergence under any drain schedule, and the guard floor — a
//! version guard that forgets below the floor gives every verdict an
//! unpruned one gives.
//!
//! The model stores flow state by value; ownership (which core's table
//! holds a key) is always derivable as `designated_for_key` under the
//! *current* map, because inserts go through the designated core's ctx
//! (as the runtimes guarantee) and every epoch transition re-buckets.

use std::collections::{BTreeMap, VecDeque};

use proptest::collection::vec;
use proptest::prelude::*;
use sprayer::api::{FlowStateApi, InsertOutcome};
use sprayer::config::DispatchMode;
use sprayer::coremap::CoreMap;
use sprayer::flowtable::FlowTable;
use sprayer::scr::{Admission, ScrReplica, SharedScrPlane, StateUpdate, UpdateOp};
use sprayer::tables::{LocalTables, SharedTables};
use sprayer_net::{FiveTuple, FlowKey};

/// Small key universe so interleavings collide: replaces, re-inserts
/// after remove, and probe-chain reuse all happen at 128 cases.
fn key(id: u8) -> FlowKey {
    let id = u32::from(id % 64);
    FiveTuple::tcp(0x0a00_0000 + id, 40_000 + (id as u16 % 3), 0xc0a8_0001, 443).key()
}

// ---------------------------------------------------------------------
// Level 1: the raw primitive vs BTreeMap.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TableOp {
    Insert(u8, u64),
    Remove(u8),
    Get(u8),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
        any::<u8>().prop_map(TableOp::Remove),
        any::<u8>().prop_map(TableOp::Get),
    ]
}

proptest! {
    /// Every operation on the open-addressing table returns what the
    /// BTreeMap model returns, and the final contents agree.
    #[test]
    fn flowtable_matches_btreemap_model(ops in vec(arb_table_op(), 0..400)) {
        let mut table: FlowTable<u64> = FlowTable::new();
        let mut model: BTreeMap<FlowKey, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                TableOp::Insert(k, v) => {
                    prop_assert_eq!(table.insert(key(k), v), model.insert(key(k), v));
                }
                TableOp::Remove(k) => {
                    prop_assert_eq!(table.remove(&key(k)), model.remove(&key(k)));
                }
                TableOp::Get(k) => {
                    prop_assert_eq!(table.get(&key(k)), model.get(&key(k)));
                    prop_assert_eq!(table.contains_key(&key(k)), model.contains_key(&key(k)));
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Same multiset of entries at the end (model is sorted; sort ours).
        let mut got: Vec<(FlowKey, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort();
        let want: Vec<(FlowKey, u64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Iteration order is a pure function of the operation history:
    /// two tables built by the same script iterate identically — the
    /// property the regenerated telemetry docs and bench baselines
    /// lean on for byte-identical output.
    #[test]
    fn flowtable_iteration_is_deterministic(ops in vec(arb_table_op(), 0..300)) {
        let mut a: FlowTable<u64> = FlowTable::new();
        let mut b: FlowTable<u64> = FlowTable::new();
        for op in &ops {
            match *op {
                TableOp::Insert(k, v) => {
                    a.insert(key(k), v);
                    b.insert(key(k), v);
                }
                TableOp::Remove(k) => {
                    a.remove(&key(k));
                    b.remove(&key(k));
                }
                TableOp::Get(_) => {}
            }
        }
        let ia: Vec<(FlowKey, u64)> = a.iter().map(|(k, v)| (*k, *v)).collect();
        let ib: Vec<(FlowKey, u64)> = b.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(ia, ib);
        // And consuming iteration yields the same sequence as borrowed.
        let ca: Vec<(FlowKey, u64)> = a.into_iter().collect();
        prop_assert_eq!(ca, ib);
    }
}

// ---------------------------------------------------------------------
// Level 2: LocalTables with epoch transitions and NF hooks.
// ---------------------------------------------------------------------

/// The freeze/adopt transformation our fake migration hook applies —
/// deliberately non-commutative in `from`/`to` so a hook invoked with
/// swapped arguments (or twice) cannot cancel out.
fn migrate_state(state: u64, from: usize, to: usize) -> u64 {
    state
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((from as u64) << 8)
        ^ (to as u64)
}

#[derive(Debug, Clone)]
enum EpochOp {
    Insert(u8, u64),
    Remove(u8),
    Modify(u8),
    Lookup(u8),
    /// Elastic rescale to `1 + n % 6` cores (skipped after a failure,
    /// mirroring the runtime, which recovers before reconfiguring).
    Rescale(u8),
    /// Fail the `n % active`-th surviving core (skipped when only one
    /// core survives).
    FailCore(u8),
}

fn arb_epoch_op() -> impl Strategy<Value = EpochOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| EpochOp::Insert(k, v)),
        any::<u8>().prop_map(EpochOp::Remove),
        any::<u8>().prop_map(EpochOp::Modify),
        any::<u8>().prop_map(EpochOp::Lookup),
        any::<u8>().prop_map(EpochOp::Rescale),
        any::<u8>().prop_map(EpochOp::FailCore),
    ]
}

/// Reference model: global key→state map. Ownership is derived from the
/// current `CoreMap`, which stays exact because inserts are routed to
/// the designated core and transitions re-bucket everything.
struct Model {
    entries: BTreeMap<FlowKey, u64>,
}

impl Model {
    fn count_on(&self, map: &CoreMap, core: usize) -> usize {
        self.entries
            .keys()
            .filter(|k| map.designated_for_key(k) == core)
            .count()
    }
}

fn run_epoch_script(
    mode: DispatchMode,
    capacity: usize,
    ops: &[EpochOp],
) -> Result<(), TestCaseError> {
    let mut map = CoreMap::elastic(mode, 4);
    let mut tables: LocalTables<u64> = LocalTables::new(map.clone(), capacity);
    let mut model = Model {
        entries: BTreeMap::new(),
    };
    let mut failed_any = false;

    for op in ops {
        match *op {
            EpochOp::Insert(k, v) => {
                let key = key(k);
                let core = map.designated_for_key(&key);
                let expect = if model.entries.contains_key(&key) {
                    model.entries.insert(key, v);
                    InsertOutcome::Replaced
                } else if model.count_on(&map, core) >= capacity {
                    InsertOutcome::TableFull
                } else {
                    model.entries.insert(key, v);
                    InsertOutcome::Inserted
                };
                prop_assert_eq!(tables.ctx(core).insert_local_flow(key, v), expect);
            }
            EpochOp::Remove(k) => {
                let key = key(k);
                let core = map.designated_for_key(&key);
                prop_assert_eq!(
                    tables.ctx(core).remove_local_flow(&key),
                    model.entries.remove(&key)
                );
            }
            EpochOp::Modify(k) => {
                let key = key(k);
                let core = map.designated_for_key(&key);
                let hit = tables
                    .ctx(core)
                    .modify_local_flow(&key, &mut |s| *s = s.wrapping_add(1));
                prop_assert_eq!(hit, model.entries.contains_key(&key));
                if let Some(s) = model.entries.get_mut(&key) {
                    *s = s.wrapping_add(1);
                }
            }
            EpochOp::Lookup(k) => {
                let key = key(k);
                // get_flow reads the designated core's table from any ctx.
                let reader = map.active_core_ids()[0];
                prop_assert_eq!(
                    tables.ctx(reader).get_flow(&key),
                    model.entries.get(&key).copied()
                );
            }
            EpochOp::Rescale(n) => {
                if failed_any {
                    continue;
                }
                let new_map = map.rescaled(1 + usize::from(n) % 6);
                let mut hooks = 0u64;
                // The hook closure returns `()`, so violations panic
                // (std asserts) rather than failing the proptest case.
                let stats = tables.rescale(new_map.clone(), &mut |key, state, from, to| {
                    hooks += 1;
                    assert_ne!(from, to);
                    assert_eq!(new_map.designated_for_key(key), to);
                    *state = migrate_state(*state, from, to);
                });
                // Mirror the migration in the model.
                let mut migrated = 0u64;
                for (key, state) in model.entries.iter_mut() {
                    let from = map.designated_for_key(key);
                    let to = new_map.designated_for_key(key);
                    if from != to {
                        migrated += 1;
                        *state = migrate_state(*state, from, to);
                    }
                }
                prop_assert_eq!(stats.migrated_flows, migrated);
                prop_assert_eq!(hooks, migrated, "hooks run exactly once per migrated flow");
                prop_assert_eq!(stats.retained_flows, model.entries.len() as u64 - migrated);
                map = new_map;
            }
            EpochOp::FailCore(n) => {
                let active = map.active_core_ids();
                if active.len() <= 1 {
                    continue;
                }
                let dead = active[usize::from(n) % active.len()];
                let new_map = map.without_core(dead);
                let mut hooks = 0u64;
                let stats = tables.fail_core(dead, new_map.clone(), &mut |key, state, from, to| {
                    hooks += 1;
                    assert_ne!(from, to);
                    assert_eq!(new_map.designated_for_key(key), to);
                    *state = migrate_state(*state, from, to);
                });
                let mut migrated = 0u64;
                let mut lost = 0u64;
                let keys: Vec<FlowKey> = model.entries.keys().copied().collect();
                for key in keys {
                    let from = map.designated_for_key(&key);
                    if from == dead {
                        lost += 1;
                        model.entries.remove(&key);
                        continue;
                    }
                    let to = new_map.designated_for_key(&key);
                    if from != to {
                        migrated += 1;
                        let s = model.entries.get_mut(&key).unwrap();
                        *s = migrate_state(*s, from, to);
                    }
                }
                prop_assert_eq!(stats.flows_lost, lost);
                prop_assert_eq!(stats.migrated_flows, migrated);
                prop_assert_eq!(hooks, migrated);
                failed_any = true;
                map = new_map;
            }
        }
        prop_assert_eq!(tables.total_entries(), model.entries.len());
    }

    // Final audit: every model entry sits on its designated core with the
    // exact post-migration state, and nothing else exists.
    for (key, state) in &model.entries {
        let core = map.designated_for_key(key);
        prop_assert_eq!(tables.peek(core, key), Some(state));
    }
    Ok(())
}

proptest! {
    /// LocalTables under random insert/lookup/remove/modify/rescale/
    /// fail_core interleavings matches the BTreeMap model, with the
    /// freeze/adopt hook applied exactly once per migrated flow —
    /// Sprayer (rendezvous) designation.
    #[test]
    fn local_tables_epochs_match_model_sprayer(ops in vec(arb_epoch_op(), 0..120)) {
        run_epoch_script(DispatchMode::Sprayer, 8, &ops)?;
    }

    /// Same interleavings under RSS designation, whose indirection-table
    /// rebuilds migrate survivors much more broadly on rescale.
    #[test]
    fn local_tables_epochs_match_model_rss(ops in vec(arb_epoch_op(), 0..120)) {
        run_epoch_script(DispatchMode::Rss, 8, &ops)?;
    }

    /// Tiny capacity forces the TableFull path constantly; the model's
    /// occupancy-derived outcome must still agree everywhere.
    #[test]
    fn local_tables_capacity_pressure_matches_model(ops in vec(arb_epoch_op(), 0..120)) {
        run_epoch_script(DispatchMode::Sprayer, 2, &ops)?;
    }
}

// ---------------------------------------------------------------------
// Level 3: SharedTables held to LocalTables behaviour.
// ---------------------------------------------------------------------

proptest! {
    /// The threaded backend replays the same script as the simulator
    /// backend: identical insert outcomes, lookups, migration stats,
    /// hook counts, and final per-flow state.
    #[test]
    fn shared_tables_match_local_tables_under_epochs(
        ops in vec(arb_epoch_op(), 0..100),
        spray in any::<bool>(),
    ) {
        let mode = if spray { DispatchMode::Sprayer } else { DispatchMode::Rss };
        let capacity = 8;
        let mut map = CoreMap::elastic(mode, 4);
        let mut local: LocalTables<u64> = LocalTables::new(map.clone(), capacity);
        let mut shared: SharedTables<u64> = SharedTables::new(map.clone(), capacity);

        for op in &ops {
            match *op {
                EpochOp::Insert(k, v) => {
                    let key = key(k);
                    let core = map.designated_for_key(&key);
                    prop_assert_eq!(
                        local.ctx(core).insert_local_flow(key, v),
                        shared.ctx(core).insert_local_flow(key, v)
                    );
                }
                EpochOp::Remove(k) => {
                    let key = key(k);
                    let core = map.designated_for_key(&key);
                    prop_assert_eq!(
                        local.ctx(core).remove_local_flow(&key),
                        shared.ctx(core).remove_local_flow(&key)
                    );
                }
                EpochOp::Modify(k) => {
                    let key = key(k);
                    let core = map.designated_for_key(&key);
                    prop_assert_eq!(
                        local.ctx(core).modify_local_flow(&key, &mut |s| *s ^= 0xff),
                        shared.ctx(core).modify_local_flow(&key, &mut |s| *s ^= 0xff)
                    );
                }
                EpochOp::Lookup(k) => {
                    let key = key(k);
                    let reader = map.active_core_ids()[0];
                    prop_assert_eq!(
                        local.ctx(reader).get_flow(&key),
                        shared.ctx(reader).get_flow(&key)
                    );
                }
                EpochOp::Rescale(n) | EpochOp::FailCore(n) => {
                    // SharedTables has no fail_core (the threaded runtime
                    // fences dead workers instead); both op kinds drive a
                    // plain rescale here.
                    let new_map = map.rescaled(1 + usize::from(n) % 6);
                    let mut local_hooks = 0u64;
                    let local_stats =
                        local.rescale(new_map.clone(), &mut |_, state, from, to| {
                            local_hooks += 1;
                            *state = migrate_state(*state, from, to);
                        });
                    let mut shared_hooks = 0u64;
                    let (next, shared_stats) =
                        shared.rescaled(new_map.clone(), &mut |_, state, from, to| {
                            shared_hooks += 1;
                            *state = migrate_state(*state, from, to);
                        });
                    shared = next;
                    prop_assert_eq!(local_stats, shared_stats);
                    prop_assert_eq!(local_hooks, shared_hooks);
                    map = new_map;
                }
            }
            prop_assert_eq!(local.total_entries(), shared.total_entries());
        }

        for core in map.active_core_ids() {
            prop_assert_eq!(local.entries_on(*core), shared.entries_on(*core));
        }
        for k in 0..64u8 {
            let key = key(k);
            let reader = map.active_core_ids()[0];
            prop_assert_eq!(
                local.ctx(reader).get_flow(&key),
                shared.ctx(reader).get_flow(&key)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Level 4: SCR replay determinism.
// ---------------------------------------------------------------------

const SCR_CORES: usize = 4;

/// A write made by the NF on some (sprayed-to) core, or a slice of a
/// ring-drain schedule. The schedule is what varies between runs in the
/// threaded runtime: workers replay their inboxes at arbitrary points
/// relative to each other's publishes.
#[derive(Debug, Clone)]
enum ScrOp {
    /// `origin % SCR_CORES` writes `key(k) = v` locally and multicasts.
    Put(u8, u8, u64),
    /// `origin % SCR_CORES` removes `key(k)` locally and multicasts.
    Del(u8, u8),
    /// `core % SCR_CORES` replays at most `n` pending remote updates.
    Drain(u8, u8),
}

fn arb_scr_op() -> impl Strategy<Value = ScrOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(c, k, v)| ScrOp::Put(c, k, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, k)| ScrOp::Del(c, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(c, n)| ScrOp::Drain(c, n)),
    ]
}

/// Replay `n` updates (all of them for `n == None`) from `core`'s inbox
/// through its version guard into its full-replica table. The model NF
/// is plain LWW, so only `Fresh` admissions write (`Concurrent` keeps
/// the newer existing value, matching the runtimes' default
/// `merge_replica`).
fn scr_drain(
    plane: &SharedScrPlane<u64>,
    replicas: &mut [ScrReplica],
    tables: &SharedTables<u64>,
    core: usize,
    n: Option<usize>,
) {
    let mut left = n.unwrap_or(usize::MAX);
    while left > 0 {
        let Some(update) = plane.pop(core) else {
            break;
        };
        left -= 1;
        let is_del = matches!(update.op, UpdateOp::Del(_));
        if replicas[core].admit(*update.op.key(), update.seq, is_del) == Admission::Fresh {
            tables.apply_replica(core, &update.op);
        }
    }
}

proptest! {
    /// The SCR correctness property (§2 of the replication design, the
    /// paper's write-partition invariant turned on its head): under an
    /// arbitrary interleaving of per-core writes and ring-drain
    /// schedules, once every log drains, every core's replica holds
    /// exactly the state the Sprayer path would hold on the designated
    /// core — the sequential application of all writes — bit-identical
    /// across cores.
    #[test]
    fn scr_replicas_converge_to_designated_core_state(
        ops in vec(arb_scr_op(), 0..300),
    ) {
        let map = CoreMap::new(DispatchMode::Scr, SCR_CORES);
        let tables: SharedTables<u64> = SharedTables::new(map, 1024);
        // Capacity above the op count: overflow drops lose updates by
        // design and are covered by the conservation property below.
        let plane: SharedScrPlane<u64> = SharedScrPlane::new(SCR_CORES, 1024);
        let mut replicas: Vec<ScrReplica> = (0..SCR_CORES).map(|_| ScrReplica::new()).collect();
        let alive = [true; SCR_CORES];
        let mut reference: BTreeMap<FlowKey, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                ScrOp::Put(c, k, v) => {
                    let core = usize::from(c) % SCR_CORES;
                    let op = UpdateOp::Put(key(k), v);
                    tables.apply_replica(core, &op);
                    let seq = plane.publish(core, &op, &alive);
                    replicas[core].note_local(key(k), seq, false);
                    reference.insert(key(k), v);
                }
                ScrOp::Del(c, k) => {
                    let core = usize::from(c) % SCR_CORES;
                    let op: UpdateOp<u64> = UpdateOp::Del(key(k));
                    tables.apply_replica(core, &op);
                    let seq = plane.publish(core, &op, &alive);
                    replicas[core].note_local(key(k), seq, true);
                    reference.remove(&key(k));
                }
                ScrOp::Drain(c, n) => {
                    let core = usize::from(c) % SCR_CORES;
                    scr_drain(&plane, &mut replicas, &tables, core, Some(usize::from(n)));
                }
            }
        }
        // Quiesce: every core replays its whole inbox, in core order —
        // any drain order must yield the same fixpoint.
        for core in 0..SCR_CORES {
            scr_drain(&plane, &mut replicas, &tables, core, None);
            prop_assert_eq!(plane.pending(core), 0);
        }
        // Nothing dropped, and the conservation identity closes.
        prop_assert_eq!(plane.dropped(), 0);
        prop_assert_eq!(plane.published(), plane.applied());

        // Bit-identical convergence: every core agrees with the
        // sequential reference on the full key universe.
        for k in 0..64u8 {
            let key = key(k);
            let want = reference.get(&key).copied();
            for core in 0..SCR_CORES {
                prop_assert_eq!(
                    tables.ctx(core).get_local_flow(&key),
                    want,
                    "core {} diverged on key {}",
                    core,
                    k
                );
            }
        }
    }

    /// Under a deliberately tiny log the multicast overflows and updates
    /// are lost — replicas may go stale, but never silently: the
    /// attempted-copy accounting (`published == applied + dropped` after
    /// a full drain) holds for every capacity and schedule, which is
    /// what the runtime's `scr_replay_gap() == 0` gate leans on.
    #[test]
    fn scr_log_overflow_is_always_accounted(
        ops in vec(arb_scr_op(), 0..300),
        capacity in 1usize..8,
    ) {
        let map = CoreMap::new(DispatchMode::Scr, SCR_CORES);
        let tables: SharedTables<u64> = SharedTables::new(map, 1024);
        let plane: SharedScrPlane<u64> = SharedScrPlane::new(SCR_CORES, capacity);
        let mut replicas: Vec<ScrReplica> = (0..SCR_CORES).map(|_| ScrReplica::new()).collect();
        let alive = [true; SCR_CORES];

        for op in &ops {
            match *op {
                ScrOp::Put(c, k, v) => {
                    let core = usize::from(c) % SCR_CORES;
                    let op = UpdateOp::Put(key(k), v);
                    tables.apply_replica(core, &op);
                    let seq = plane.publish(core, &op, &alive);
                    replicas[core].note_local(key(k), seq, false);
                }
                ScrOp::Del(c, k) => {
                    let core = usize::from(c) % SCR_CORES;
                    let op: UpdateOp<u64> = UpdateOp::Del(key(k));
                    tables.apply_replica(core, &op);
                    let seq = plane.publish(core, &op, &alive);
                    replicas[core].note_local(key(k), seq, true);
                }
                ScrOp::Drain(c, n) => {
                    let core = usize::from(c) % SCR_CORES;
                    scr_drain(&plane, &mut replicas, &tables, core, Some(usize::from(n)));
                }
            }
            // The identity is closed mid-run too: pending updates are the
            // only difference between attempts and outcomes.
            let pending: u64 = (0..SCR_CORES).map(|c| plane.pending(c) as u64).sum();
            prop_assert_eq!(plane.published(), plane.applied() + plane.dropped() + pending);
        }
        for core in 0..SCR_CORES {
            scr_drain(&plane, &mut replicas, &tables, core, None);
        }
        prop_assert_eq!(plane.published(), plane.applied() + plane.dropped());
    }
}

// ---------------------------------------------------------------------
// Level 5: the guard floor — pruning changes no verdict.
// ---------------------------------------------------------------------

const FLOOR_CORES: usize = 3;

/// One step of a floor-protocol schedule. A write is `(key, Some(v))`
/// for a `Put` and `(key, None)` for a `Del`.
#[derive(Debug, Clone)]
enum FloorOp {
    /// The core claims one sequence range for a batch of writes,
    /// applies them to its own replica and notes them in its guard —
    /// and has pushed none of the copies yet.
    Claim(u8, Vec<(u8, Option<u64>)>),
    /// `(core, peer, n)`: the core pushes up to `n` of the copies it
    /// still owes the peer, oldest first.
    Push(u8, u8, u8),
    /// The core is at the top of its worker loop: it stores its
    /// `quiesced_at` — unless it still owes a copy, in which case it is
    /// really mid-publish and stores nothing.
    Quiesce(u8),
    /// `(core, n)`: the core reads its floor, then replays up to `n`
    /// updates; if that ran its log dry, its guard forgets below the
    /// floor.
    Drain(u8, u8),
}

fn arb_floor_op() -> impl Strategy<Value = FloorOp> {
    let write =
        (any::<u8>(), any::<bool>(), any::<u64>()).prop_map(|(k, put, v)| (k, put.then_some(v)));
    prop_oneof![
        (any::<u8>(), vec(write, 1..5)).prop_map(|(c, w)| FloorOp::Claim(c, w)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(c, p, n)| FloorOp::Push(c, p, n)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(c, p, n)| FloorOp::Push(c, p, n)),
        any::<u8>().prop_map(FloorOp::Quiesce),
        (any::<u8>(), any::<u8>()).prop_map(|(c, n)| FloorOp::Drain(c, n)),
    ]
}

/// The replay plane run twice over one update stream: every core has a
/// guard that forgets below the floor after each complete drain (never
/// waiting for `prune_due` — the harshest schedule) beside an oracle
/// guard that never forgets, and a replica table driven by each.
struct FloorWorld {
    plane: SharedScrPlane<u64>,
    /// Copies claimed and not yet pushed, `owed[origin][peer]`, oldest
    /// first.
    owed: Vec<Vec<VecDeque<StateUpdate<u64>>>>,
    pruned: Vec<ScrReplica>,
    oracle: Vec<ScrReplica>,
    pruned_tables: SharedTables<u64>,
    oracle_tables: SharedTables<u64>,
}

impl FloorWorld {
    fn new() -> Self {
        let tables = || SharedTables::new(CoreMap::new(DispatchMode::Scr, FLOOR_CORES), 1 << 12);
        let guards = || (0..FLOOR_CORES).map(|_| ScrReplica::new()).collect();
        FloorWorld {
            plane: SharedScrPlane::new(FLOOR_CORES, 1 << 12),
            owed: vec![vec![VecDeque::new(); FLOOR_CORES]; FLOOR_CORES],
            pruned: guards(),
            oracle: guards(),
            pruned_tables: tables(),
            oracle_tables: tables(),
        }
    }

    fn owes(&self, core: usize) -> bool {
        self.owed[core].iter().any(|q| !q.is_empty())
    }

    fn claim(&mut self, core: usize, writes: &[(u8, Option<u64>)]) {
        // A worker finishes one batch's pushes before the next claim.
        for peer in 0..FLOOR_CORES {
            self.push(core, peer, usize::MAX);
        }
        let first = self.plane.claim_seqs(writes.len() as u64);
        for (seq, &(k, v)) in (first..).zip(writes) {
            let op = match v {
                Some(v) => UpdateOp::Put(key(k), v),
                None => UpdateOp::Del(key(k)),
            };
            self.pruned_tables.apply_replica(core, &op);
            self.oracle_tables.apply_replica(core, &op);
            self.pruned[core].note_local(key(k), seq, v.is_none());
            self.oracle[core].note_local(key(k), seq, v.is_none());
            for peer in (0..FLOOR_CORES).filter(|&p| p != core) {
                self.owed[core][peer].push_back(StateUpdate {
                    seq,
                    origin: core,
                    op: op.clone(),
                });
            }
        }
    }

    fn push(&mut self, core: usize, peer: usize, n: usize) {
        let run = n.min(self.owed[core][peer].len());
        let refused = self
            .plane
            .try_send_from(peer, None, &mut self.owed[core][peer].drain(..run));
        assert!(refused.is_none(), "the log outsizes every schedule");
    }

    fn quiesce(&mut self, core: usize) {
        if !self.owes(core) {
            self.plane.quiesce(core);
        }
    }

    /// Replay up to `n` updates on `core`, returning each update's
    /// sequence number with the pruned guard's verdict — asserted equal
    /// to the oracle's.
    fn drain(&mut self, core: usize, n: usize) -> Vec<(u64, Admission)> {
        let floor = self.plane.floor(core);
        let mut inbox = Vec::new();
        let popped = self.plane.drain(core, n, |update| inbox.push(update));
        let mut verdicts = Vec::new();
        for update in inbox {
            let is_del = matches!(update.op, UpdateOp::Del(_));
            let k = *update.op.key();
            let got = self.pruned[core].admit(k, update.seq, is_del);
            let want = self.oracle[core].admit(k, update.seq, is_del);
            assert_eq!(
                got, want,
                "core {core}, seq {} from core {}: floor {floor}",
                update.seq, update.origin
            );
            // The model NF is plain LWW: only Fresh writes.
            if got == Admission::Fresh {
                self.pruned_tables.apply_replica(core, &update.op);
            }
            if want == Admission::Fresh {
                self.oracle_tables.apply_replica(core, &update.op);
            }
            verdicts.push((update.seq, got));
        }
        if popped < n {
            self.pruned[core].forget_below(floor);
        }
        verdicts
    }

    fn step(&mut self, op: &FloorOp) {
        let core = |c: u8| usize::from(c) % FLOOR_CORES;
        match op {
            FloorOp::Claim(c, writes) => self.claim(core(*c), writes),
            FloorOp::Push(c, p, n) => self.push(core(*c), core(*p), usize::from(*n)),
            FloorOp::Quiesce(c) => self.quiesce(core(*c)),
            FloorOp::Drain(c, n) => {
                self.drain(core(*c), usize::from(*n));
            }
        }
    }

    /// Push everything owed, drain every log, and hold the two worlds'
    /// replicas against each other on the whole key universe.
    fn settle_and_compare(&mut self) {
        for core in 0..FLOOR_CORES {
            for peer in 0..FLOOR_CORES {
                self.push(core, peer, usize::MAX);
            }
        }
        for core in 0..FLOOR_CORES {
            self.quiesce(core);
            self.drain(core, usize::MAX);
            assert_eq!(self.plane.pending(core), 0);
        }
        for core in 0..FLOOR_CORES {
            for k in 0..64u8 {
                assert_eq!(
                    self.pruned_tables.ctx(core).get_local_flow(&key(k)),
                    self.oracle_tables.ctx(core).get_local_flow(&key(k)),
                    "core {core} key {k}"
                );
            }
        }
    }
}

proptest! {
    /// The floor protocol's whole claim (`scr.rs`, "Guard growth"):
    /// under any schedule of range claims, partial per-origin-FIFO
    /// pushes, `quiesced_at` stores, partial and complete drains and a
    /// prune after every complete drain, a guard that forgets gives each
    /// update the `Admission` a guard that remembers everything gives,
    /// and the replicas they drive end identical.
    #[test]
    fn pruning_below_the_floor_changes_no_verdict(
        ops in vec(arb_floor_op(), 0..400),
    ) {
        let mut world = FloorWorld::new();
        for op in &ops {
            world.step(op);
        }
        world.settle_and_compare();
        let forgot = (0..FLOOR_CORES).any(|c| world.pruned[c].len() < world.oracle[c].len());
        let wrote = ops.iter().any(|op| matches!(op, FloorOp::Claim(..)));
        prop_assert!(forgot || !wrote, "the settled guards forgot nothing: the prune never ran");
    }
}

/// The schedule the floor exists for: origin 0 claims 480..=484 and
/// stalls before pushing; its peers run on to 500 and prune; the stalled
/// 480 is a `Put` for a key core 1 deleted at 490. Core 0 never
/// quiesced past 479, so the floor stayed below the tombstone and the
/// late `Put` is still `Superseded` — on a guard that did forget the
/// rest.
#[test]
fn a_stalled_origins_put_stays_superseded_after_its_peers_prune() {
    let mut world = FloorWorld::new();
    let k = 7u8;
    // Core 1 creates the flow; filler writes bring the head to 479.
    world.claim(1, &[(k, Some(1))]);
    while world.plane.head_seq() < 479 {
        let seq = world.plane.head_seq();
        world.claim((seq % 3) as usize, &[(8 + (seq % 50) as u8, Some(seq))]);
    }
    for core in 0..FLOOR_CORES {
        world.push(core, (core + 1) % 3, usize::MAX);
        world.push(core, (core + 2) % 3, usize::MAX);
    }
    for core in 0..FLOOR_CORES {
        world.quiesce(core);
        world.drain(core, usize::MAX);
    }
    // Origin 0 claims 480..=484 — the first op a Put for k — and stalls.
    world.claim(
        0,
        &[
            (k, Some(480)),
            (60, Some(0)),
            (61, Some(0)),
            (62, Some(0)),
            (63, Some(0)),
        ],
    );
    assert_eq!(world.plane.head_seq(), 484);
    // Core 1 runs on: 485..=489, the Del of k at 490, on to 500.
    world.claim(1, &[(60, Some(1)); 5]);
    world.claim(1, &[(k, None)]);
    assert_eq!(world.plane.head_seq(), 490);
    world.claim(1, &[(61, Some(1)); 10]);
    assert_eq!(world.plane.head_seq(), 500);
    world.push(1, 0, usize::MAX);
    world.push(1, 2, usize::MAX);
    for core in 0..FLOOR_CORES {
        world.quiesce(core); // a no-op on core 0: it owes its range
    }
    assert_eq!(
        world.plane.floor(2),
        479,
        "the stalled origin pins the floor"
    );
    assert_eq!(
        world.plane.floor(0),
        500,
        "which binds its peers, not itself"
    );
    let replayed = world.drain(2, usize::MAX);
    assert!(replayed.contains(&(490, Admission::Fresh)));
    assert!(
        world.pruned[2].len() < world.oracle[2].len(),
        "core 2 did forget the settled past: {} of {}",
        world.pruned[2].len(),
        world.oracle[2].len()
    );
    // The stalled range finally lands.
    world.push(0, 2, usize::MAX);
    let late = world.drain(2, usize::MAX);
    assert_eq!(late[0], (480, Admission::Superseded), "{late:?}");
    assert_eq!(world.pruned_tables.ctx(2).get_local_flow(&key(k)), None);
    world.settle_and_compare();
}
