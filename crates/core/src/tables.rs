//! Flow-table backends enforcing the write partition.
//!
//! "All cores run identical threads and have their own flow tables.
//! Moreover, cores can only write to their local flow tables, but can
//! read from any" (§3.3).
//!
//! There is one per-core table, the private `CoreTable`: an
//! open-addressing [`crate::flowtable::FlowTable`] (pinned
//! [`FlowKey::stable_hash`] probe positions, deterministic slot-order
//! iteration — migration traversals and telemetry are identical across
//! processes) plus that core's share of the [`LifecycleCounters`]. It
//! holds the only copy of every mutation — insert with its LRU
//! backstop, remove, modify, the idle sweep, replica put/del — and one
//! function runs every epoch transition. Two backends reach it, each a
//! thin [`crate::api::FlowStateApi`] wrapper:
//!
//! * [`LocalTables`] — a plain `Vec` of them for the deterministic
//!   simulator (single-threaded; the cycle model charges for accesses).
//!   It stays because `get_flow` runs per packet and even an
//!   uncontended lock is not free: `perf/` reads
//!   `tables.local_get_hit_ns` 9 against `shared_get_hit_ns` 16–20.
//!   (The SCR plane, touched per *connection* packet, has no such
//!   second form — see [`crate::scr`].)
//! * [`SharedTables`] — one `RwLock` around each for the real-thread
//!   runtime. The lock is a Rust-safety artifact, not part of the design
//!   being modeled: the write partition means there is exactly one writer
//!   per table, so the write lock is never contended by another writer,
//!   and foreign cores only ever take the read side. (The paper's C
//!   implementation relies on the same single-writer discipline without
//!   any lock; in `#![forbid(unsafe_code)]` Rust the RwLock is the
//!   cheapest sound encoding of that discipline.) The counters ride the
//!   same lock: the one writer bumps plain integers under the write
//!   side it already holds.

use crate::api::{EvictReason, FlowStateApi, InsertOutcome};
use crate::config::{DispatchMode, LifecycleConfig};
use crate::coremap::CoreMap;
use crate::flowtable::FlowTable;
use crate::scr::UpdateOp;
use parking_lot::RwLock;
use sprayer_net::FlowKey;
use std::sync::Arc;

/// Cumulative flow-entry lifecycle counters, maintained by the per-core
/// table so that every physical table-entry creation and removal is
/// attributed to exactly one cause. The conservation identity
/// [`LifecycleCounters::unaccounted`] checks (mirroring the packet-level
/// `MiddleboxStats::unaccounted`):
///
/// ```text
/// created == live + fin_reclaimed + idle_expired + lru_evicted
///                 + replica_dels + dropped
/// ```
///
/// Creations: NF inserts that landed (`Inserted`, including
/// LRU-backstop admissions), SCR replica `Put`s that materialized a new
/// entry, and epoch transitions re-materializing entries in next-epoch
/// tables. Removals: NF-initiated teardown (`fin_reclaimed` — FIN/RST
/// handling calls `remove_local_flow`), idle-timeout sweeps
/// (`idle_expired`), capacity evictions (`lru_evicted`), SCR replica
/// `Del`s (`replica_dels`), and everything an epoch transition drained
/// or a crash discarded (`dropped`). Epoch transitions (rescale /
/// failover) balance by charging every pre-epoch entry to `dropped` and
/// every post-epoch entry to `created`, so the identity holds across
/// arbitrary re-bucketing, replica unions, joiner bootstraps and
/// dead-shard discards (a dead shard's entries thus net out as dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounters {
    /// Table entries materialized (NF inserts, replica Puts, epoch
    /// re-materializations).
    pub created: u64,
    /// Entries removed by the NF itself (FIN/RST-driven teardown).
    pub fin_reclaimed: u64,
    /// Entries reclaimed by the idle-timeout sweep.
    pub idle_expired: u64,
    /// Entries evicted by the bounded-memory LRU backstop.
    pub lru_evicted: u64,
    /// Entries removed by applying a replicated SCR `Del`.
    pub replica_dels: u64,
    /// Entries drained at epoch transitions or discarded by crashes.
    pub dropped: u64,
}

impl LifecycleCounters {
    /// Conservation residue given the current live entry count; zero
    /// iff every creation and removal was attributed.
    pub fn unaccounted(&self, live: u64) -> i64 {
        self.created as i64
            - live as i64
            - self.fin_reclaimed as i64
            - self.idle_expired as i64
            - self.lru_evicted as i64
            - self.replica_dels as i64
            - self.dropped as i64
    }
}

impl std::ops::AddAssign for LifecycleCounters {
    fn add_assign(&mut self, other: Self) {
        self.created += other.created;
        self.fin_reclaimed += other.fin_reclaimed;
        self.idle_expired += other.idle_expired;
        self.lru_evicted += other.lru_evicted;
        self.replica_dels += other.replica_dels;
        self.dropped += other.dropped;
    }
}

/// A flow entry evicted by the lifecycle layer, queued for the owning
/// core's [`crate::api::NetworkFunction::evict_flow`] hook. The hook
/// cannot run inside the table context (the context has no NF handle),
/// so evictions are staged per-core and drained by the runtime.
pub type PendingEviction<S> = (FlowKey, S, EvictReason);

/// Record a key in a per-batch mutation log, deduping (batches are a
/// few dozen packets; a linear scan beats hashing at that size).
fn record_key(log: &mut Vec<FlowKey>, key: FlowKey) {
    if !log.contains(&key) {
        log.push(key);
    }
}

/// What one core's own mutations leave for its runtime to pick up
/// between batches. Owned by whoever drives the core and handed to the
/// table by `&mut`, so filling it writes nothing shared.
#[derive(Debug)]
struct BatchLog<S> {
    /// Keys successfully written / removed since the runtime last
    /// cleared them (SCR only; see
    /// [`crate::api::FlowStateApi::written_keys`]). Replay and epoch
    /// transitions never record — only the NF's own handler writes ship.
    written: Vec<FlowKey>,
    removed: Vec<FlowKey>,
    /// Evicted entries awaiting their `evict_flow` hook.
    pending: Vec<PendingEviction<S>>,
}

impl<S> BatchLog<S> {
    fn new() -> Self {
        BatchLog {
            written: Vec::new(),
            removed: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn clear_batch(&mut self) {
        self.written.clear();
        self.removed.clear();
    }
}

/// What every table of one epoch is bucketed and bounded by.
#[derive(Debug)]
struct Shape {
    map: CoreMap,
    capacity: usize,
    /// Flow-lifecycle policy (idle aging / LRU backstop); disabled by
    /// default so pre-lifecycle behavior (hard `TableFull`) persists.
    lifecycle: LifecycleConfig,
}

impl Shape {
    fn scr(&self) -> bool {
        self.map.mode() == DispatchMode::Scr
    }

    /// The core whose table answers for `key` when asked on `core`.
    /// Under SCR every core owns (a replica of) every flow, so the
    /// NF-visible designated core is always the local one: writes are
    /// legal everywhere, the update log does the propagating, and the
    /// foreign read Sprayer routes to the designated core's table is a
    /// local replica read — SCR's payoff.
    fn home(&self, key: &FlowKey, core: usize) -> usize {
        if self.scr() {
            core
        } else {
            self.map.designated_for_key(key)
        }
    }
}

/// One core's flow table and that core's share of the conservation
/// counters.
#[derive(Debug)]
struct CoreTable<S> {
    table: FlowTable<S>,
    counters: LifecycleCounters,
}

impl<S> CoreTable<S> {
    fn holding(table: FlowTable<S>) -> Self {
        CoreTable {
            table,
            counters: LifecycleCounters::default(),
        }
    }

    fn insert(
        &mut self,
        shape: &Shape,
        key: FlowKey,
        state: S,
        log: &mut BatchLog<S>,
    ) -> InsertOutcome {
        let outcome = if self.table.contains_key(&key) {
            InsertOutcome::Replaced
        } else {
            if self.table.len() >= shape.capacity {
                // Bounded-memory backstop: with `lru_backstop` on, a full
                // table evicts its approximately-least-recently-written
                // entry to admit the newcomer instead of shedding it. The
                // victim is staged for the `evict_flow` hook and, under
                // SCR, its `Del` ships with this batch's mutation log.
                let backstop = shape.lifecycle.lru_backstop;
                let Some(victim) = backstop.then(|| self.table.lru_victim()).flatten() else {
                    return InsertOutcome::TableFull;
                };
                if let Some(old) = self.table.remove(&victim) {
                    self.counters.lru_evicted += 1;
                    if shape.scr() {
                        record_key(&mut log.removed, victim);
                    }
                    log.pending.push((victim, old, EvictReason::Capacity));
                }
            }
            self.counters.created += 1;
            InsertOutcome::Inserted
        };
        self.table.insert(key, state);
        if shape.scr() {
            record_key(&mut log.written, key);
        }
        outcome
    }

    fn remove(&mut self, shape: &Shape, key: &FlowKey, log: &mut BatchLog<S>) -> Option<S> {
        let removed = self.table.remove(key);
        if removed.is_some() {
            // NF-initiated teardown (FIN/RST handling is the only caller
            // in-tree) — attributed separately from lifecycle evictions.
            self.counters.fin_reclaimed += 1;
            if shape.scr() {
                record_key(&mut log.removed, *key);
            }
        }
        removed
    }

    fn modify(
        &mut self,
        shape: &Shape,
        key: &FlowKey,
        f: &mut dyn FnMut(&mut S),
        log: &mut BatchLog<S>,
    ) -> bool {
        let Some(state) = self.table.get_mut(key) else {
            return false;
        };
        f(state);
        if shape.scr() {
            record_key(&mut log.written, *key);
        }
        true
    }

    /// Reclaim every entry idle for at least the configured timeout.
    /// Under SCR exactly one core sweeps each key (the key's
    /// rendezvous-designated core) and ships the `Del` through the
    /// mutation log; the other replicas wait for the replicated `Del`,
    /// keeping the tables bit-convergent.
    fn sweep_idle(&mut self, shape: &Shape, core: usize, now_us: u64, log: &mut BatchLog<S>) {
        let Some(timeout) = shape.lifecycle.idle_timeout_us else {
            return;
        };
        self.table.set_clock(now_us);
        let Some(deadline) = now_us.checked_sub(timeout) else {
            return;
        };
        let scr = shape.scr();
        for key in self.table.collect_idle(deadline) {
            if scr && shape.map.designated_for_key(&key) != core {
                continue; // a peer owns this key's sweep; its Del will arrive
            }
            if let Some(state) = self.table.remove(&key) {
                self.counters.idle_expired += 1;
                if scr {
                    record_key(&mut log.removed, key);
                }
                log.pending.push((key, state, EvictReason::Idle));
            }
        }
    }
}

/// One core's replica opened for replayed state-updates (the SCR
/// replay path, [`crate::scr::replay`]). Writes bypass the per-batch
/// mutation log — replay must not ship back — and the per-core
/// capacity cap, for the same reason migration does: a write a peer
/// already accepted must not be shed on replay, or replicas would
/// diverge.
#[derive(Debug)]
pub struct ReplicaWriter<'a, S>(&'a mut CoreTable<S>);

impl<S> ReplicaWriter<'_, S> {
    /// The replica's current entry for `key` (the merge hook's input).
    pub fn get(&self, key: &FlowKey) -> Option<&S> {
        self.0.table.get(key)
    }

    /// Store a replayed `Put`.
    pub fn put(&mut self, key: FlowKey, state: S) {
        if self.0.table.insert(key, state).is_none() {
            self.0.counters.created += 1;
        }
    }

    /// Apply a replayed `Del`.
    pub fn del(&mut self, key: &FlowKey) {
        if self.0.table.remove(key).is_some() {
            self.0.counters.replica_dels += 1;
        }
    }

    /// Apply one state-update as it stands: no guard, no merge hook.
    pub fn apply(&mut self, op: &UpdateOp<S>)
    where
        S: Clone,
    {
        match op {
            UpdateOp::Put(key, state) => self.put(*key, state.clone()),
            UpdateOp::Del(key) => self.del(key),
        }
    }
}

/// Counters from one table-rescale migration event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Flows whose designated core changed (export/import hooks ran).
    pub migrated_flows: u64,
    /// Flows that stayed on their core across the epoch.
    pub retained_flows: u64,
}

/// Counters from one [`LocalTables::fail_core`] recovery event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Surviving flows whose designated core changed (hooks ran).
    pub migrated_flows: u64,
    /// Surviving flows that stayed on their core.
    pub retained_flows: u64,
    /// Entries that lived only on the failed core — discarded.
    pub flows_lost: u64,
}

impl From<FailoverStats> for MigrationStats {
    fn from(moved: FailoverStats) -> Self {
        MigrationStats {
            migrated_flows: moved.migrated_flows,
            retained_flows: moved.retained_flows,
        }
    }
}

/// The epoch transition every backend runs at its quiesced barrier — a
/// planned rescale or, with `dead`, recovery from a core failure: build
/// the tables of `new_map`'s epoch from the drained tables of the one
/// that ends, carrying the counters across (balanced as
/// [`LifecycleCounters`] describes).
///
/// Write-partitioned modes re-bucket: every entry moves to its
/// designated core under `new_map`, through `on_move(key, state, from,
/// to)` — where the runtime invokes the NF's `freeze_flow`/`adopt_flow`
/// hooks — when that core changed. The entries of `dead` lived only
/// there: they are discarded and counted as `flows_lost`. Migration
/// never sheds state, so the per-core capacity cap is not enforced here
/// (a shrink can transiently overfill a table; subsequent inserts still
/// see `TableFull`).
fn next_epoch<S: Clone>(
    old: Vec<CoreTable<S>>,
    mut carried: LifecycleCounters,
    new_map: &CoreMap,
    dead: Option<usize>,
    on_move: &mut dyn FnMut(&FlowKey, &mut S, usize, usize),
) -> (Vec<CoreTable<S>>, LifecycleCounters, FailoverStats) {
    let mut stats = FailoverStats::default();
    let mut old_tables = Vec::with_capacity(old.len());
    for core in old {
        carried += core.counters;
        carried.dropped += core.table.len() as u64;
        old_tables.push(core.table);
    }
    let num_cores = new_map.num_cores();
    let tables: Vec<FlowTable<S>> = if new_map.mode() != DispatchMode::Scr {
        let mut tables: Vec<_> = (0..num_cores).map(|_| FlowTable::new()).collect();
        for (from, table) in old_tables.into_iter().enumerate() {
            if dead == Some(from) {
                stats.flows_lost += table.len() as u64;
                continue;
            }
            for (key, mut state) in table {
                let to = new_map.designated_for_key(&key);
                if to == from {
                    stats.retained_flows += 1;
                } else {
                    stats.migrated_flows += 1;
                    on_move(&key, &mut state, from, to);
                }
                tables[to].insert(key, state);
            }
        }
        tables
    } else if let Some(dead) = dead {
        // The dead core held a *replica*, not a partition: every
        // survivor already has the same state, so recovery drops the
        // dead shard and moves nothing — zero flows lost, zero flows
        // migrated, the asymmetry fig_chaos hard-asserts.
        old_tables[dead] = FlowTable::new();
        stats.retained_flows = old_tables[new_map.active_core_ids()[0]].len() as u64;
        old_tables
    } else {
        // Full replication: nothing migrates. The union of the old
        // replicas (identical at the quiesced barrier — the runtime
        // drains the update log first; the union covers any
        // stragglers deterministically, later cores winning) is the
        // snapshot every next-epoch core bootstraps from, joiners
        // included. No freeze/adopt hooks run: no flow changes
        // owner, because under SCR every core is an owner.
        let mut snapshot: FlowTable<S> = FlowTable::new();
        for (key, state) in old_tables.into_iter().flatten() {
            snapshot.insert(key, state);
        }
        stats.retained_flows = snapshot.len() as u64;
        (0..num_cores).map(|_| snapshot.clone()).collect()
    };
    carried.created += tables.iter().map(|t| t.len() as u64).sum::<u64>();
    let cores = tables.into_iter().map(CoreTable::holding).collect();
    (cores, carried, stats)
}

/// All cores' flow tables, owned by the single-threaded simulator.
#[derive(Debug)]
pub struct LocalTables<S> {
    cores: Vec<CoreTable<S>>,
    logs: Vec<BatchLog<S>>,
    shape: Shape,
    /// What the epochs already closed counted.
    carried: LifecycleCounters,
    /// Set by every path that may move a counter or an entry count;
    /// [`LocalTables::take_changed`] reads and clears it.
    changed: bool,
}

impl<S: Clone> LocalTables<S> {
    /// Tables for every core under the given mapping.
    pub fn new(map: CoreMap, capacity: usize) -> Self {
        let n = map.num_cores();
        LocalTables {
            cores: (0..n)
                .map(|_| CoreTable::holding(FlowTable::new()))
                .collect(),
            logs: (0..n).map(|_| BatchLog::new()).collect(),
            shape: Shape {
                map,
                capacity,
                lifecycle: LifecycleConfig::disabled(),
            },
            carried: LifecycleCounters::default(),
            changed: true,
        }
    }

    /// Whether [`LocalTables::counters`] or an entry count may have
    /// moved since the last call: inserts and removes through a
    /// [`LocalCtx`], idle sweeps, replica writes and epoch transitions
    /// all say so. Clears the flag.
    pub(crate) fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// Install the flow-lifecycle policy (idle timeout / LRU backstop).
    pub fn set_lifecycle(&mut self, cfg: LifecycleConfig) {
        self.shape.lifecycle = cfg;
    }

    /// The installed flow-lifecycle policy.
    pub fn lifecycle_config(&self) -> LifecycleConfig {
        self.shape.lifecycle
    }

    /// Snapshot of the cumulative flow-entry conservation counters:
    /// every core's share plus the closed epochs'.
    pub fn counters(&self) -> LifecycleCounters {
        let mut sum = self.carried;
        for core in &self.cores {
            sum += core.counters;
        }
        sum
    }

    /// Advance `core`'s lazy lifecycle clock to `now_us` (monotone max;
    /// the runtime calls this before dispatching a batch so that the
    /// batch's writes carry fresh touch stamps).
    pub fn touch_clock(&mut self, core: usize, now_us: u64) {
        self.cores[core].table.set_clock(now_us);
    }

    /// Reclaim every entry on `core` idle for at least the configured
    /// timeout — owner-sharded under SCR, the `Del`s shipping through
    /// the mutation log. Evicted entries are staged for the
    /// `evict_flow` hook ([`LocalTables::take_evictions`]).
    pub fn sweep_idle(&mut self, core: usize, now_us: u64) {
        self.changed = true;
        self.cores[core].sweep_idle(&self.shape, core, now_us, &mut self.logs[core]);
    }

    /// Drain `core`'s staged evictions so the runtime can run the NF's
    /// `evict_flow` hook on each (the entries have already left the
    /// table and been counted by reason).
    pub fn take_evictions(&mut self, core: usize) -> Vec<PendingEviction<S>> {
        std::mem::take(&mut self.logs[core].pending)
    }

    /// Reset `core`'s per-batch mutation log — called by the runtime
    /// right after the batch's `replicate_updates` hook consumed it.
    pub fn clear_batch_log(&mut self, core: usize) {
        self.logs[core].clear_batch();
    }

    /// A handler context bound to `core`.
    pub fn ctx(&mut self, core: usize) -> LocalCtx<'_, S> {
        assert!(core < self.cores.len());
        LocalCtx { tables: self, core }
    }

    /// Entries across all tables.
    pub fn total_entries(&self) -> usize {
        self.cores.iter().map(|c| c.table.len()).sum()
    }

    /// Entries in one core's table.
    pub fn entries_on(&self, core: usize) -> usize {
        self.cores[core].table.len()
    }

    /// Direct read access for assertions in tests/probes.
    pub fn peek(&self, core: usize, key: &FlowKey) -> Option<&S> {
        self.cores[core].table.get(key)
    }

    /// The mapping the tables are bucketed by.
    pub fn map(&self) -> &CoreMap {
        &self.shape.map
    }

    /// Open `core`'s replica for replayed state-updates.
    pub fn replica(&mut self, core: usize) -> ReplicaWriter<'_, S> {
        self.changed = true;
        ReplicaWriter(&mut self.cores[core])
    }

    /// Apply one replicated state-update into `core`'s replica.
    pub fn apply_replica(&mut self, core: usize, op: &UpdateOp<S>) {
        self.replica(core).apply(op);
    }

    /// Re-bucket every entry under `new_map` (an elastic reconfiguration
    /// epoch): entries whose designated core changed migrate through
    /// `on_move`; under SCR every next-epoch core bootstraps from the
    /// union of the replicas instead.
    pub fn rescale(
        &mut self,
        new_map: CoreMap,
        on_move: &mut dyn FnMut(&FlowKey, &mut S, usize, usize),
    ) -> MigrationStats {
        self.enter_epoch(new_map, None, on_move).into()
    }

    /// Re-bucket after an unplanned core failure: the dead core's
    /// entries are *discarded* (the write partition means their state
    /// lived only there — counted as `flows_lost`), and every surviving
    /// entry whose designated core changed under `new_map` (built with
    /// [`CoreMap::without_core`]) migrates through `on_move` exactly
    /// like [`LocalTables::rescale`]. Under Sprayer/rendezvous only the
    /// dead core's flows remapped, so `migrated_flows` is 0; under RSS
    /// the rebuilt indirection table moves survivors broadly; under SCR
    /// the dead replica is dropped and nothing else changes.
    pub fn fail_core(
        &mut self,
        failed: usize,
        new_map: CoreMap,
        on_move: &mut dyn FnMut(&FlowKey, &mut S, usize, usize),
    ) -> FailoverStats {
        assert!(new_map.is_failed(failed), "new_map must exclude the core");
        self.enter_epoch(new_map, Some(failed), on_move)
    }

    /// Run the one epoch transition over these tables and install
    /// `new_map`: [`LocalTables::rescale`] with no `dead` core,
    /// [`LocalTables::fail_core`] with one. The per-core logs start
    /// fresh and empty: batches never span a barrier, and the runtime
    /// drains the staged evictions before any epoch transition, so
    /// nothing is lost.
    pub(crate) fn enter_epoch(
        &mut self,
        new_map: CoreMap,
        dead: Option<usize>,
        on_move: &mut dyn FnMut(&FlowKey, &mut S, usize, usize),
    ) -> FailoverStats {
        let old = std::mem::take(&mut self.cores);
        let (cores, carried, stats) = next_epoch(old, self.carried, &new_map, dead, on_move);
        self.logs = cores.iter().map(|_| BatchLog::new()).collect();
        self.cores = cores;
        self.carried = carried;
        self.shape.map = new_map;
        self.changed = true;
        stats
    }
}

/// [`FlowStateApi`] view for one core over [`LocalTables`].
#[derive(Debug)]
pub struct LocalCtx<'a, S> {
    tables: &'a mut LocalTables<S>,
    core: usize,
}

impl<S: Clone> FlowStateApi<S> for LocalCtx<'_, S> {
    fn core_id(&self) -> usize {
        self.core
    }

    fn num_cores(&self) -> usize {
        self.tables.shape.map.num_cores()
    }

    fn designated_core(&self, key: &FlowKey) -> usize {
        self.tables.shape.home(key, self.core)
    }

    fn insert_local_flow(&mut self, key: FlowKey, state: S) -> InsertOutcome {
        let t = &mut *self.tables;
        t.changed = true;
        t.cores[self.core].insert(&t.shape, key, state, &mut t.logs[self.core])
    }

    fn remove_local_flow(&mut self, key: &FlowKey) -> Option<S> {
        let t = &mut *self.tables;
        t.changed = true;
        t.cores[self.core].remove(&t.shape, key, &mut t.logs[self.core])
    }

    fn modify_local_flow(&mut self, key: &FlowKey, f: &mut dyn FnMut(&mut S)) -> bool {
        let t = &mut *self.tables;
        t.cores[self.core].modify(&t.shape, key, f, &mut t.logs[self.core])
    }

    fn get_local_flow(&self, key: &FlowKey) -> Option<S> {
        self.tables.cores[self.core].table.get(key).cloned()
    }

    fn get_flow(&self, key: &FlowKey) -> Option<S> {
        let home = self.tables.shape.home(key, self.core);
        self.tables.cores[home].table.get(key).cloned()
    }

    fn local_len(&self) -> usize {
        self.tables.cores[self.core].table.len()
    }

    fn written_keys(&self) -> &[FlowKey] {
        &self.tables.logs[self.core].written
    }

    fn removed_keys(&self) -> &[FlowKey] {
        &self.tables.logs[self.core].removed
    }
}

/// One generation of thread-shared tables. Fixed once built: workers
/// read the shape on every insert, so it must not need a lock, and an
/// epoch transition builds the next generation instead.
#[derive(Debug)]
struct SharedInner<S> {
    cores: Vec<RwLock<CoreTable<S>>>,
    shape: Shape,
    /// What the epochs already closed counted.
    carried: LifecycleCounters,
}

/// Thread-shared flow tables; clone handles freely across workers.
#[derive(Debug, Clone)]
pub struct SharedTables<S> {
    inner: Arc<SharedInner<S>>,
}

impl<S: Clone + Send + Sync> SharedTables<S> {
    /// Tables for every core under the given mapping (lifecycle
    /// disabled — the pre-lifecycle hard-`TableFull` behavior).
    pub fn new(map: CoreMap, capacity: usize) -> Self {
        Self::with_lifecycle(map, capacity, LifecycleConfig::disabled())
    }

    /// Tables with a flow-lifecycle policy installed. The policy is
    /// fixed for the generation; [`SharedTables::rescaled`] propagates
    /// it (and the cumulative counters) to the next epoch.
    pub fn with_lifecycle(map: CoreMap, capacity: usize, lifecycle: LifecycleConfig) -> Self {
        let cores = (0..map.num_cores()).map(|_| CoreTable::holding(FlowTable::new()));
        let shape = Shape {
            map,
            capacity,
            lifecycle,
        };
        Self::generation(cores.collect(), shape, LifecycleCounters::default())
    }

    fn generation(cores: Vec<CoreTable<S>>, shape: Shape, carried: LifecycleCounters) -> Self {
        let cores = cores.into_iter().map(RwLock::new).collect();
        SharedTables {
            inner: Arc::new(SharedInner {
                cores,
                shape,
                carried,
            }),
        }
    }

    /// A handler context bound to `core` (one per worker thread).
    pub fn ctx(&self, core: usize) -> SharedCtx<S> {
        assert!(core < self.inner.cores.len());
        SharedCtx {
            tables: self.clone(),
            core,
            log: BatchLog::new(),
        }
    }

    /// The installed flow-lifecycle policy.
    pub fn lifecycle_config(&self) -> LifecycleConfig {
        self.inner.shape.lifecycle
    }

    /// Snapshot of the cumulative flow-entry conservation counters:
    /// every core's share, read under its lock, plus the closed
    /// epochs'. Exact at a quiesced point — joined workers, or a test
    /// between its own steps — which is where it is read.
    pub fn counters(&self) -> LifecycleCounters {
        let mut sum = self.inner.carried;
        for core in &self.inner.cores {
            sum += core.read().counters;
        }
        sum
    }

    /// Entries across all tables.
    pub fn total_entries(&self) -> usize {
        self.inner.cores.iter().map(|c| c.read().table.len()).sum()
    }

    /// Entries in one core's table.
    pub fn entries_on(&self, core: usize) -> usize {
        self.inner.cores[core].read().table.len()
    }

    /// The mapping the tables are bucketed by.
    pub fn map(&self) -> &CoreMap {
        &self.inner.shape.map
    }

    /// Open `core`'s replica for a run of replayed state-updates: one
    /// write-lock acquisition held for the whole of `run`, which must
    /// reach the table through the writer only. Only the owning worker
    /// calls this, so the lock is never writer-contended, like every
    /// other local write; under SCR no peer reads this table either.
    pub fn replica<R>(&self, core: usize, run: impl FnOnce(ReplicaWriter<'_, S>) -> R) -> R {
        run(ReplicaWriter(&mut self.inner.cores[core].write()))
    }

    /// Apply one replicated state-update into `core`'s replica: a
    /// [`Self::replica`] run of one.
    pub fn apply_replica(&self, core: usize, op: &UpdateOp<S>) {
        self.replica(core, |mut replica| replica.apply(op));
    }

    /// Build the next-epoch tables under `new_map`, draining this
    /// handle's entries into them (the threaded analogue of
    /// [`LocalTables::rescale`]; shared handles are immutable behind
    /// their `Arc`, so a rescale produces a fresh `SharedTables`, which
    /// inherits the cumulative counters, and leaves the old generation
    /// empty). Must only be called while no worker is running — i.e.
    /// at the quiesced barrier between phases.
    pub fn rescaled(
        &self,
        new_map: CoreMap,
        on_move: &mut dyn FnMut(&FlowKey, &mut S, usize, usize),
    ) -> (SharedTables<S>, MigrationStats) {
        let inner = &self.inner;
        let drain = |core: &RwLock<CoreTable<S>>| {
            std::mem::replace(&mut *core.write(), CoreTable::holding(FlowTable::new()))
        };
        let old = inner.cores.iter().map(drain).collect();
        let (cores, carried, stats) = next_epoch(old, inner.carried, &new_map, None, on_move);
        let shape = Shape {
            map: new_map,
            ..inner.shape
        };
        (Self::generation(cores, shape, carried), stats.into())
    }
}

/// [`FlowStateApi`] view for one worker thread over [`SharedTables`].
#[derive(Debug)]
pub struct SharedCtx<S> {
    tables: SharedTables<S>,
    core: usize,
    /// Each worker owns its ctx for the whole run, so its batch log
    /// lives here rather than in the shared tables.
    log: BatchLog<S>,
}

impl<S> SharedCtx<S> {
    /// Reset the per-batch mutation log — called by the worker right
    /// after `replicate_updates` consumed it.
    pub fn clear_batch_log(&mut self) {
        self.log.clear_batch();
    }

    /// Drain the staged evictions so the worker can run the NF's
    /// `evict_flow` hook on each.
    pub fn take_evictions(&mut self) -> Vec<PendingEviction<S>> {
        std::mem::take(&mut self.log.pending)
    }

    /// Advance this core's lazy lifecycle clock to `now_us` (monotone
    /// max) so subsequent writes carry fresh touch stamps.
    pub fn touch_clock(&mut self, now_us: u64) {
        let mut own = self.tables.inner.cores[self.core].write();
        own.table.set_clock(now_us);
    }

    /// Reclaim every local entry idle for at least the configured
    /// timeout (see [`LocalTables::sweep_idle`]).
    pub fn sweep_idle(&mut self, now_us: u64) {
        let inner = &self.tables.inner;
        let mut own = inner.cores[self.core].write();
        own.sweep_idle(&inner.shape, self.core, now_us, &mut self.log);
    }
}

impl<S: Clone + Send + Sync> FlowStateApi<S> for SharedCtx<S> {
    fn core_id(&self) -> usize {
        self.core
    }

    fn num_cores(&self) -> usize {
        self.tables.inner.shape.map.num_cores()
    }

    fn designated_core(&self, key: &FlowKey) -> usize {
        self.tables.inner.shape.home(key, self.core)
    }

    fn insert_local_flow(&mut self, key: FlowKey, state: S) -> InsertOutcome {
        let inner = &self.tables.inner;
        let mut own = inner.cores[self.core].write();
        own.insert(&inner.shape, key, state, &mut self.log)
    }

    fn remove_local_flow(&mut self, key: &FlowKey) -> Option<S> {
        let inner = &self.tables.inner;
        let mut own = inner.cores[self.core].write();
        own.remove(&inner.shape, key, &mut self.log)
    }

    fn modify_local_flow(&mut self, key: &FlowKey, f: &mut dyn FnMut(&mut S)) -> bool {
        let inner = &self.tables.inner;
        let mut own = inner.cores[self.core].write();
        own.modify(&inner.shape, key, f, &mut self.log)
    }

    fn get_local_flow(&self, key: &FlowKey) -> Option<S> {
        let own = self.tables.inner.cores[self.core].read();
        own.table.get(key).cloned()
    }

    fn read_local_flows(
        &self,
        keys: &mut dyn Iterator<Item = &FlowKey>,
        visit: &mut dyn FnMut(&FlowKey, Option<&S>),
    ) {
        let own = self.tables.inner.cores[self.core].read();
        for key in keys {
            visit(key, own.table.get(key));
        }
    }

    fn get_flow(&self, key: &FlowKey) -> Option<S> {
        let inner = &self.tables.inner;
        let home = inner.cores[inner.shape.home(key, self.core)].read();
        home.table.get(key).cloned()
    }

    fn local_len(&self) -> usize {
        self.tables.inner.cores[self.core].read().table.len()
    }

    fn written_keys(&self) -> &[FlowKey] {
        &self.log.written
    }

    fn removed_keys(&self) -> &[FlowKey] {
        &self.log.removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DispatchMode;
    use sprayer_net::FiveTuple;

    fn key(i: u32) -> FlowKey {
        FiveTuple::tcp(0x0a000000 + i, 1000, 0xc0a80001, 443).key()
    }

    #[test]
    fn local_insert_then_foreign_read() {
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 16);
        let k = key(1);
        let designated = map.designated_for_key(&k);

        tables.ctx(designated).insert_local_flow(k, 42);
        // Every other core can read it via get_flow.
        for core in 0..4 {
            let ctx = tables.ctx(core);
            assert_eq!(ctx.get_flow(&k), Some(42), "core {core}");
            if core != designated {
                assert_eq!(
                    ctx.get_local_flow(&k),
                    None,
                    "state must not leak to core {core}"
                );
            }
        }
    }

    #[test]
    fn foreign_cores_cannot_observe_unwritten_state() {
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 16);
        let k = key(2);
        let wrong_core = (map.designated_for_key(&k) + 1) % 4;
        // Inserting on the wrong core is *possible* (the paper's C API
        // cannot prevent it either) but get_flow then misses, surfacing
        // the bug immediately.
        tables.ctx(wrong_core).insert_local_flow(k, 7);
        assert_eq!(tables.ctx(0).get_flow(&k), None);
        assert_eq!(tables.ctx(wrong_core).get_local_flow(&k), Some(7));
    }

    #[test]
    fn capacity_is_enforced_per_core() {
        let map = CoreMap::new(DispatchMode::Sprayer, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 2);
        let mut ctx = tables.ctx(0);
        assert_eq!(ctx.insert_local_flow(key(1), 1), InsertOutcome::Inserted);
        assert_eq!(ctx.insert_local_flow(key(2), 2), InsertOutcome::Inserted);
        assert_eq!(ctx.insert_local_flow(key(3), 3), InsertOutcome::TableFull);
        // Replacing an existing key succeeds even at capacity.
        assert_eq!(ctx.insert_local_flow(key(1), 9), InsertOutcome::Replaced);
        assert_eq!(ctx.get_local_flow(&key(1)), Some(9));
    }

    #[test]
    fn modify_and_remove_roundtrip() {
        let map = CoreMap::new(DispatchMode::Sprayer, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 8);
        let mut ctx = tables.ctx(1);
        let k = key(5);
        ctx.insert_local_flow(k, 10);
        assert!(ctx.modify_local_flow(&k, &mut |v| *v += 5));
        assert_eq!(ctx.get_local_flow(&k), Some(15));
        assert_eq!(ctx.remove_local_flow(&k), Some(15));
        assert_eq!(ctx.remove_local_flow(&k), None);
        assert!(!ctx.modify_local_flow(&k, &mut |_| {}));
    }

    #[test]
    fn batch_get_flows_matches_singles() {
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 64);
        let keys: Vec<FlowKey> = (0..10).map(key).collect();
        for (i, k) in keys.iter().enumerate() {
            let d = map.designated_for_key(k);
            tables.ctx(d).insert_local_flow(*k, i as u32);
        }
        let ctx = tables.ctx(0);
        let mut batch = Vec::new();
        ctx.get_flows(&keys, &mut batch);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(batch[i], ctx.get_flow(k), "key {i}");
            assert_eq!(batch[i], Some(i as u32));
        }
    }

    #[test]
    fn shared_tables_agree_with_local_semantics() {
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let shared: SharedTables<u32> = SharedTables::new(map.clone(), 16);
        let k = key(8);
        let d = map.designated_for_key(&k);
        let mut writer = shared.ctx(d);
        assert_eq!(writer.insert_local_flow(k, 99), InsertOutcome::Inserted);
        for core in 0..4 {
            assert_eq!(shared.ctx(core).get_flow(&k), Some(99));
        }
        assert_eq!(writer.remove_local_flow(&k), Some(99));
        assert_eq!(shared.ctx(0).get_flow(&k), None);
        assert_eq!(shared.total_entries(), 0);
    }

    #[test]
    fn shared_tables_concurrent_read_write() {
        // One writer (the designated core) and many readers hammering the
        // same flow: readers must always see either absence or a fully
        // written value, never a torn one.
        let map = CoreMap::new(DispatchMode::Sprayer, 2);
        let shared: SharedTables<(u64, u64)> = SharedTables::new(map.clone(), 1024);
        let k = key(3);
        let d = map.designated_for_key(&k);

        std::thread::scope(|s| {
            let writer_tables = shared.clone();
            s.spawn(move || {
                let mut ctx = writer_tables.ctx(d);
                for i in 0..10_000u64 {
                    ctx.insert_local_flow(k, (i, i.wrapping_mul(3)));
                }
            });
            for _ in 0..3 {
                let reader_tables = shared.clone();
                s.spawn(move || {
                    let ctx = reader_tables.ctx((d + 1) % 2);
                    for _ in 0..10_000 {
                        if let Some((a, b)) = ctx.get_flow(&k) {
                            assert_eq!(b, a.wrapping_mul(3), "torn read");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn local_rescale_preserves_every_flow_and_runs_hooks_once() {
        // Scale *down* 4→2: the leavers' flows must move (a Sprayer
        // scale-up pins every assignment, so it would not exercise the
        // hooks).
        let old_map = CoreMap::elastic(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        let n = 200u32;
        for i in 0..n {
            let k = key(i);
            let d = old_map.designated_for_key(&k);
            tables.ctx(d).insert_local_flow(k, i);
        }
        let new_map = old_map.rescaled(2);
        let mut hook_calls = 0u64;
        let stats = tables.rescale(new_map.clone(), &mut |k, state, from, to| {
            hook_calls += 1;
            assert_ne!(from, to);
            assert_eq!(old_map.designated_for_key(k), from);
            assert_eq!(new_map.designated_for_key(k), to);
            *state += 1_000; // visible post-adopt marker
        });
        assert_eq!(stats.migrated_flows, hook_calls);
        assert_eq!(stats.migrated_flows + stats.retained_flows, u64::from(n));
        assert!(stats.migrated_flows > 0, "a 4->2 rescale must move flows");
        assert_eq!(tables.total_entries(), n as usize);
        // Every flow is findable at its new designated core, with the
        // hook's marker iff it moved.
        for i in 0..n {
            let k = key(i);
            let got = tables.ctx(0).get_flow(&k).unwrap();
            if old_map.designated_for_key(&k) == new_map.designated_for_key(&k) {
                assert_eq!(got, i);
            } else {
                assert_eq!(got, i + 1_000);
            }
        }
    }

    #[test]
    fn shared_rescale_matches_local_rescale() {
        let old_map = CoreMap::elastic(DispatchMode::Sprayer, 4);
        let mut local: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        let shared: SharedTables<u32> = SharedTables::new(old_map.clone(), 1 << 10);
        for i in 0..150u32 {
            let k = key(i);
            let d = old_map.designated_for_key(&k);
            local.ctx(d).insert_local_flow(k, i);
            shared.ctx(d).insert_local_flow(k, i);
        }
        let new_map = old_map.rescaled(2);
        let ls = local.rescale(new_map.clone(), &mut |_, _, _, _| {});
        let (shared2, ss) = shared.rescaled(new_map.clone(), &mut |_, _, _, _| {});
        assert_eq!(ls, ss);
        assert_eq!(shared.total_entries(), 0, "old generation is drained");
        assert_eq!(shared2.total_entries(), 150);
        for i in 0..150u32 {
            let k = key(i);
            assert_eq!(shared2.ctx(0).get_flow(&k), local.ctx(0).get_flow(&k));
        }
    }

    #[test]
    fn fail_core_discards_only_the_dead_cores_state_under_sprayer() {
        let old_map = CoreMap::elastic(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        let n = 200u32;
        let mut on_dead = 0u64;
        for i in 0..n {
            let k = key(i);
            let d = old_map.designated_for_key(&k);
            tables.ctx(d).insert_local_flow(k, i);
            if d == 2 {
                on_dead += 1;
            }
        }
        let new_map = old_map.without_core(2);
        let mut hook_calls = 0u64;
        let stats = tables.fail_core(2, new_map.clone(), &mut |_, _, _, _| hook_calls += 1);
        assert_eq!(stats.flows_lost, on_dead);
        assert_eq!(
            stats.migrated_flows, 0,
            "rendezvous recovery moves no surviving flow"
        );
        assert_eq!(hook_calls, 0);
        assert_eq!(stats.retained_flows, u64::from(n) - on_dead);
        assert_eq!(tables.total_entries(), (u64::from(n) - on_dead) as usize);
        assert_eq!(tables.entries_on(2), 0);
        // Survivors are still findable at their (unchanged) core.
        for i in 0..n {
            let k = key(i);
            if old_map.designated_for_key(&k) != 2 {
                assert_eq!(tables.ctx(0).get_flow(&k), Some(i));
            }
        }
    }

    #[test]
    fn fail_core_migrates_survivors_broadly_under_rss() {
        let old_map = CoreMap::new(DispatchMode::Rss, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        let n = 200u32;
        for i in 0..n {
            let k = key(i);
            tables
                .ctx(old_map.designated_for_key(&k))
                .insert_local_flow(k, i);
        }
        let new_map = old_map.without_core(1);
        let stats = tables.fail_core(1, new_map.clone(), &mut |k, state, from, to| {
            assert_ne!(from, to);
            assert_eq!(new_map.designated_for_key(k), to);
            *state += 1_000;
        });
        assert!(stats.flows_lost > 0);
        assert!(
            stats.migrated_flows > stats.retained_flows,
            "RSS table rebuild must remap most survivors: {stats:?}"
        );
        assert_eq!(
            stats.migrated_flows + stats.retained_flows + stats.flows_lost,
            u64::from(n)
        );
    }

    #[test]
    fn scr_ctx_reads_and_owns_locally() {
        let map = CoreMap::new(DispatchMode::Scr, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 16);
        let k = key(1);
        // Any core may write; the write is locally visible immediately
        // and foreign replicas see it only after replay.
        {
            let mut ctx = tables.ctx(2);
            assert_eq!(ctx.designated_core(&k), 2, "SCR: every core owns");
            ctx.insert_local_flow(k, 42);
            assert_eq!(ctx.get_flow(&k), Some(42), "get_flow is a local read");
        }
        assert_eq!(tables.ctx(0).get_flow(&k), None, "replica not yet replayed");
        tables.apply_replica(0, &crate::scr::UpdateOp::Put(k, 42));
        assert_eq!(tables.ctx(0).get_flow(&k), Some(42));
        tables.apply_replica(0, &crate::scr::UpdateOp::Del(k));
        assert_eq!(tables.ctx(0).get_flow(&k), None);
    }

    #[test]
    fn scr_rescale_replicates_the_snapshot_to_every_core() {
        let old_map = CoreMap::elastic(DispatchMode::Scr, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        // Converged replicas: the same 50 flows on both cores.
        for i in 0..50u32 {
            for core in 0..2 {
                tables.ctx(core).insert_local_flow(key(i), i);
            }
        }
        let mut hook_calls = 0u64;
        let stats = tables.rescale(old_map.rescaled(4), &mut |_, _, _, _| hook_calls += 1);
        assert_eq!(stats.migrated_flows, 0, "SCR rescale migrates nothing");
        assert_eq!(stats.retained_flows, 50);
        assert_eq!(hook_calls, 0);
        for core in 0..4 {
            assert_eq!(
                tables.entries_on(core),
                50,
                "joiner bootstrapped a full replica"
            );
            assert_eq!(tables.ctx(core).get_flow(&key(7)), Some(7));
        }
    }

    #[test]
    fn scr_fail_core_loses_and_migrates_nothing() {
        let old_map = CoreMap::elastic(DispatchMode::Scr, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        for i in 0..80u32 {
            for core in 0..4 {
                tables.ctx(core).insert_local_flow(key(i), i);
            }
        }
        let stats = tables.fail_core(2, old_map.without_core(2), &mut |_, _, _, _| {
            panic!("no migration hooks under SCR failover");
        });
        assert_eq!(stats.flows_lost, 0, "the dead shard was a replica");
        assert_eq!(stats.migrated_flows, 0);
        assert_eq!(stats.retained_flows, 80);
        assert_eq!(tables.entries_on(2), 0);
        for core in [0usize, 1, 3] {
            assert_eq!(tables.ctx(core).get_flow(&key(11)), Some(11), "core {core}");
        }
    }

    #[test]
    fn shared_scr_semantics_match_local() {
        let map = CoreMap::new(DispatchMode::Scr, 3);
        let shared: SharedTables<u32> = SharedTables::new(map.clone(), 16);
        let k = key(6);
        let mut writer = shared.ctx(1);
        assert_eq!(writer.designated_core(&k), 1);
        writer.insert_local_flow(k, 9);
        assert_eq!(shared.ctx(1).get_flow(&k), Some(9));
        assert_eq!(shared.ctx(0).get_flow(&k), None, "not yet replayed");
        shared.apply_replica(0, &crate::scr::UpdateOp::Put(k, 9));
        assert_eq!(shared.ctx(0).get_flow(&k), Some(9));
        assert_eq!(
            shared.ctx(0).get_flow(&k),
            Some(9),
            "survivor keeps the state"
        );
        // Shared SCR rescale replicates the union snapshot.
        let (next, stats) = shared.rescaled(map.rescaled(2), &mut |_, _, _, _| {
            panic!("no hooks under SCR")
        });
        assert_eq!(stats.migrated_flows, 0);
        assert_eq!(stats.retained_flows, 1);
        for core in 0..2 {
            assert_eq!(next.ctx(core).get_flow(&k), Some(9));
        }
    }

    #[test]
    fn a_replica_run_settles_its_counters_once_and_ignores_the_cap() {
        let map = CoreMap::new(DispatchMode::Scr, 2);
        let shared: SharedTables<u32> = SharedTables::new(map, 2);
        shared.replica(1, |mut replica| {
            for i in 0..5 {
                replica.put(key(i), i);
            }
            replica.put(key(0), 100);
            assert_eq!(
                replica.get(&key(0)),
                Some(&100),
                "a replace creates nothing"
            );
            replica.del(&key(4));
            replica.del(&key(9));
        });
        let c = shared.counters();
        assert_eq!((c.created, c.replica_dels), (5, 1));
        assert_eq!(shared.entries_on(1), 4, "replay is not shed at capacity 2");
        assert!(
            shared.ctx(1).written_keys().is_empty(),
            "and is never logged"
        );
        // One op is a run of one.
        shared.apply_replica(1, &crate::scr::UpdateOp::Del(key(0)));
        assert_eq!(shared.counters().replica_dels, 2);
    }

    #[test]
    fn scr_batch_log_records_only_real_mutations() {
        let map = CoreMap::new(DispatchMode::Scr, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 2);
        {
            let mut ctx = tables.ctx(0);
            assert_eq!(ctx.insert_local_flow(key(1), 1), InsertOutcome::Inserted);
            assert_eq!(ctx.insert_local_flow(key(2), 2), InsertOutcome::Inserted);
            assert_eq!(ctx.insert_local_flow(key(3), 3), InsertOutcome::TableFull);
            assert_eq!(ctx.get_flow(&key(9)), None, "read miss is not a write");
            assert!(ctx.modify_local_flow(&key(1), &mut |v| *v += 1));
            assert!(!ctx.modify_local_flow(&key(9), &mut |_| {}));
            assert_eq!(ctx.remove_local_flow(&key(2)), Some(2));
            assert_eq!(ctx.remove_local_flow(&key(9)), None);
            // Logged: the two live inserts (deduped with the modify)
            // and the one real removal. The TableFull insert, the read
            // miss, and the missed modify/remove never appear.
            assert_eq!(ctx.written_keys(), &[key(1), key(2)]);
            assert_eq!(ctx.removed_keys(), &[key(2)]);
        }
        // Replay writes are not local mutations and must not ship back.
        tables.apply_replica(0, &crate::scr::UpdateOp::Put(key(7), 7));
        assert_eq!(tables.ctx(0).written_keys(), &[key(1), key(2)]);
        tables.clear_batch_log(0);
        let ctx = tables.ctx(0);
        assert!(ctx.written_keys().is_empty());
        assert!(ctx.removed_keys().is_empty());
    }

    #[test]
    fn non_scr_modes_keep_batch_logs_empty() {
        let map = CoreMap::new(DispatchMode::Sprayer, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 8);
        let mut ctx = tables.ctx(0);
        ctx.insert_local_flow(key(1), 1);
        ctx.modify_local_flow(&key(1), &mut |v| *v += 1);
        ctx.remove_local_flow(&key(1));
        assert!(ctx.written_keys().is_empty());
        assert!(ctx.removed_keys().is_empty());
    }

    #[test]
    fn shared_scr_batch_log_matches_local() {
        let map = CoreMap::new(DispatchMode::Scr, 2);
        let shared: SharedTables<u32> = SharedTables::new(map, 8);
        let mut ctx = shared.ctx(1);
        ctx.insert_local_flow(key(1), 1);
        ctx.modify_local_flow(&key(1), &mut |v| *v += 1);
        ctx.insert_local_flow(key(2), 2);
        ctx.remove_local_flow(&key(2));
        assert_eq!(ctx.written_keys(), &[key(1), key(2)]);
        assert_eq!(ctx.removed_keys(), &[key(2)]);
        ctx.clear_batch_log();
        assert!(ctx.written_keys().is_empty());
        assert!(ctx.removed_keys().is_empty());
        assert_eq!(ctx.get_local_flow(&key(1)), Some(2));
        assert_eq!(shared.ctx(0).get_local_flow(&key(1)), None);
    }

    fn bounded(idle_us: u64) -> LifecycleConfig {
        LifecycleConfig::bounded(idle_us)
    }

    #[test]
    fn lru_backstop_evicts_the_coldest_entry_to_admit_a_newcomer() {
        let map = CoreMap::new(DispatchMode::Sprayer, 1);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 2);
        tables.set_lifecycle(bounded(1_000));
        tables.touch_clock(0, 10);
        tables.ctx(0).insert_local_flow(key(1), 1);
        tables.touch_clock(0, 20);
        tables.ctx(0).insert_local_flow(key(2), 2);
        tables.touch_clock(0, 30);
        // Full table: the third insert evicts key(1) (coldest stamp).
        assert_eq!(
            tables.ctx(0).insert_local_flow(key(3), 3),
            InsertOutcome::Inserted
        );
        assert_eq!(tables.ctx(0).get_local_flow(&key(1)), None);
        assert_eq!(tables.ctx(0).get_local_flow(&key(3)), Some(3));
        assert_eq!(tables.entries_on(0), 2);
        let c = tables.counters();
        assert_eq!(c.created, 3);
        assert_eq!(c.lru_evicted, 1);
        assert_eq!(
            tables.take_evictions(0),
            vec![(key(1), 1, EvictReason::Capacity)]
        );
        assert!(tables.take_evictions(0).is_empty(), "drained");
        assert_eq!(c.unaccounted(tables.total_entries() as u64), 0);
    }

    #[test]
    fn without_the_backstop_a_full_table_still_sheds() {
        let map = CoreMap::new(DispatchMode::Sprayer, 1);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 1);
        tables.ctx(0).insert_local_flow(key(1), 1);
        assert_eq!(
            tables.ctx(0).insert_local_flow(key(2), 2),
            InsertOutcome::TableFull
        );
        assert_eq!(tables.counters().lru_evicted, 0);
    }

    #[test]
    fn idle_sweep_reclaims_exactly_the_expired_entries() {
        let map = CoreMap::new(DispatchMode::Sprayer, 1);
        let mut tables: LocalTables<u32> = LocalTables::new(map, 16);
        tables.set_lifecycle(bounded(100));
        tables.touch_clock(0, 0);
        tables.ctx(0).insert_local_flow(key(1), 1);
        tables.touch_clock(0, 80);
        tables.ctx(0).insert_local_flow(key(2), 2);
        // At t=120 only key(1) (stamp 0) has been idle >= 100 µs.
        tables.sweep_idle(0, 120);
        assert_eq!(tables.ctx(0).get_local_flow(&key(1)), None);
        assert_eq!(tables.ctx(0).get_local_flow(&key(2)), Some(2));
        assert_eq!(tables.counters().idle_expired, 1);
        assert_eq!(
            tables.take_evictions(0),
            vec![(key(1), 1, EvictReason::Idle)]
        );
        // A write-touch refreshes the stamp and defers expiry.
        tables.touch_clock(0, 150);
        tables.ctx(0).modify_local_flow(&key(2), &mut |v| *v += 1);
        tables.sweep_idle(0, 200);
        assert_eq!(tables.ctx(0).get_local_flow(&key(2)), Some(3), "refreshed");
        tables.sweep_idle(0, 260);
        assert_eq!(tables.ctx(0).get_local_flow(&key(2)), None, "expired");
        assert_eq!(
            tables.counters().unaccounted(tables.total_entries() as u64),
            0
        );
    }

    #[test]
    fn scr_idle_sweep_is_owner_sharded_and_ships_dels() {
        let map = CoreMap::new(DispatchMode::Scr, 2);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 16);
        tables.set_lifecycle(bounded(100));
        let k = key(4);
        let owner = map.designated_for_key(&k);
        let peer = 1 - owner;
        // Converged replicas: the entry is on both cores.
        for core in 0..2 {
            tables.touch_clock(core, 0);
            tables.ctx(core).insert_local_flow(k, 7);
        }
        tables.clear_batch_log(owner);
        tables.clear_batch_log(peer);
        // Both cores sweep, but only the key's rendezvous owner
        // reclaims it — the peer waits for the replicated Del.
        tables.sweep_idle(peer, 500);
        assert_eq!(tables.ctx(peer).get_local_flow(&k), Some(7), "peer defers");
        assert!(tables.ctx(peer).removed_keys().is_empty());
        tables.sweep_idle(owner, 500);
        assert_eq!(tables.ctx(owner).get_local_flow(&k), None);
        assert_eq!(tables.ctx(owner).removed_keys(), &[k], "Del ships");
        assert_eq!(tables.counters().idle_expired, 1);
        // The replicated Del converges the peer.
        tables.apply_replica(peer, &crate::scr::UpdateOp::Del(k));
        assert_eq!(tables.ctx(peer).get_local_flow(&k), None);
        assert_eq!(tables.counters().replica_dels, 1);
        assert_eq!(
            tables.counters().unaccounted(tables.total_entries() as u64),
            0
        );
    }

    #[test]
    fn conservation_identity_survives_epoch_transitions() {
        let old_map = CoreMap::elastic(DispatchMode::Sprayer, 4);
        let mut tables: LocalTables<u32> = LocalTables::new(old_map.clone(), 1 << 10);
        for i in 0..100u32 {
            let k = key(i);
            let d = old_map.designated_for_key(&k);
            tables.ctx(d).insert_local_flow(k, i);
        }
        tables.ctx(0).remove_local_flow(&key(0));
        let live = tables.total_entries() as u64;
        assert_eq!(tables.counters().unaccounted(live), 0);
        let new_map = old_map.rescaled(2);
        tables.rescale(new_map.clone(), &mut |_, _, _, _| {});
        assert_eq!(
            tables.counters().unaccounted(tables.total_entries() as u64),
            0
        );
        let failed_map = new_map.without_core(1);
        tables.fail_core(1, failed_map, &mut |_, _, _, _| {});
        assert_eq!(
            tables.counters().unaccounted(tables.total_entries() as u64),
            0
        );
    }

    #[test]
    fn shared_lifecycle_matches_local_semantics() {
        let map = CoreMap::new(DispatchMode::Scr, 2);
        let shared: SharedTables<u32> = SharedTables::with_lifecycle(map.clone(), 2, bounded(100));
        let mut ctx = shared.ctx(0);
        ctx.touch_clock(10);
        ctx.insert_local_flow(key(1), 1);
        ctx.touch_clock(20);
        ctx.insert_local_flow(key(2), 2);
        ctx.clear_batch_log();
        ctx.touch_clock(30);
        assert_eq!(ctx.insert_local_flow(key(3), 3), InsertOutcome::Inserted);
        assert_eq!(ctx.get_local_flow(&key(1)), None, "LRU evicted");
        assert_eq!(ctx.removed_keys(), &[key(1)], "eviction Del ships");
        assert_eq!(
            ctx.take_evictions(),
            vec![(key(1), 1, EvictReason::Capacity)]
        );
        // Idle sweep through the worker's ctx, owner-sharding included.
        let owned_here: Vec<FlowKey> = [key(2), key(3)]
            .into_iter()
            .filter(|k| map.designated_for_key(k) == 0)
            .collect();
        ctx.sweep_idle(1_000);
        for k in &owned_here {
            assert_eq!(ctx.get_local_flow(k), None, "owned key swept");
        }
        let c = shared.counters();
        assert_eq!(c.lru_evicted, 1);
        assert_eq!(c.idle_expired, owned_here.len() as u64);
        assert_eq!(c.unaccounted(shared.total_entries() as u64), 0);
        // Counters carry across a rescale generation.
        let (next, _) = shared.rescaled(map.rescaled(4), &mut |_, _, _, _| {});
        let c2 = next.counters();
        assert_eq!(c2.lru_evicted, 1);
        assert_eq!(c2.unaccounted(next.total_entries() as u64), 0);
        assert_eq!(next.lifecycle_config(), bounded(100));
    }

    #[test]
    fn rss_mode_designation_allows_local_inserts_from_rss_core() {
        // Under RSS mode, the designated core is the RSS queue; an NF
        // running there inserts locally and finds its state locally.
        let map = CoreMap::new(DispatchMode::Rss, 8);
        let mut tables: LocalTables<u32> = LocalTables::new(map.clone(), 16);
        let t = FiveTuple::tcp(0x0a000001, 40000, 0x0a000002, 443);
        let core = map.designated_for_tuple(&t);
        let mut ctx = tables.ctx(core);
        ctx.insert_local_flow(t.key(), 1);
        assert_eq!(ctx.get_local_flow(&t.key()), Some(1));
        assert_eq!(ctx.get_flow(&t.key()), Some(1));
    }
}
