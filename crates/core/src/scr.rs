//! State-Compute Replication: the per-core state-update log and replay
//! plane behind [`crate::config::DispatchMode::Scr`].
//!
//! The third point in the dispatch design space (arXiv:2309.14647,
//! ROADMAP item 1). Where Sprayer write-partitions flow state and
//! redirects connection packets to each flow's designated core, SCR
//! replicates: every core holds a **full replica** of the flow tables
//! and *no packet is ever redirected*. What moves instead is state —
//! after an NF handles a batch, the runtime extracts a compact
//! [`UpdateOp`] per touched flow
//! ([`crate::api::NetworkFunction::replicate_updates`]) and multicasts
//! it, tagged with a global sequence number, onto every peer's bounded
//! **inbound log** ([`SharedScrPlane`]). Before a core dispatches local
//! work it **replays** pending remote updates into its replica
//! ([`replay`]), so reads that would have crossed cores under Sprayer
//! are local here.
//!
//! The protocol — extract, number, note, send, back off, drain, replay,
//! forget — is written once, in [`ScrPort`], one core's end of the
//! plane. Both runtimes and the model proptests in `crates/core/tests/`
//! drive it; each runtime keeps only what it *is*: the clock that
//! charges the work (model cycles, wall spans), its view of which
//! peers are alive, and what a publisher does about a full peer log,
//! below. The single-threaded simulator needs no cheaper form of the
//! log: it is touched per connection packet, not per packet, and
//! `simtcp` `pkt_ns.scr` reads the same on these rings as on plain
//! deques (`results/trajectory/BENCH_perf_pr19.json`).
//!
//! ## Replay ordering and convergence
//!
//! Updates carry a single global sequence number assigned at publish
//! time, and every replica runs them through a per-flow *version
//! guard* holding `(last_seq, last_del_seq)`. The guard classifies
//! each update ([`Admission`]):
//!
//! * **Fresh** — newer than anything the replica has seen for the
//!   flow. A `Del` removes the entry (and records a tombstone seq so
//!   older `Put`s cannot resurrect it); a `Put` is handed to the NF's
//!   [`crate::api::NetworkFunction::merge_replica`] hook with
//!   `newer = true` (default: store the incoming value — exact
//!   last-writer-wins).
//! * **Concurrent** — an older `Put` that is still newer than the last
//!   removal. Plain LWW ignores it, but NFs whose per-flow state is a
//!   read-modify-write (the firewall's per-direction FIN bits) merge
//!   it commutatively instead, so concurrent writers on different
//!   cores converge to the union rather than whichever value shipped
//!   last.
//! * **Superseded** — at or below the tombstone; consumed, counted,
//!   never applied.
//!
//! With a commutative `merge_replica`, convergence is
//! **order-independent**: however the per-core logs interleave or
//! drain, every replica that has consumed the same update set holds
//! the same table — the property the replay-determinism proptest in
//! `crates/core/tests/` checks against the Sprayer ground truth.
//!
//! ## Accounting and backpressure
//!
//! The log is bounded like every other queue in the model. Three
//! counters form SCR's own conservation identity, folded into the
//! telemetry contract next to `unaccounted()`:
//!
//! ```text
//! scr_published == scr_applied + scr_log_drops        (at drain)
//! ```
//!
//! ([`crate::stats::MiddleboxStats::scr_replay_gap`]). A full *live*
//! peer log is backpressure, not loss: [`ScrPort::publish`] asks the
//! runtime for a [`Backoff`]. The simulator replays the blocked peer's
//! log in its stead (charged to that peer) and retries; a threaded
//! publisher replays its *own* log, yields and retries — deadlock-free,
//! because two mutually blocked publishers each make room for the
//! other — and abandons the copy only if the peer died. So
//! `scr_log_drops` counts only updates that can never be replayed: a
//! dead core's truncated log, and abandoned copies. Nothing vanishes
//! silently, even under overload or mid-run core crashes.
//!
//! ## Guard growth
//!
//! A guard record must outlive its flow — the `Del` tombstone is what
//! stops a late stale `Put` from resurrecting removed state — but only
//! until no update old enough to need it can still arrive. The **guard
//! floor** says when that is. Every publisher stores, at the top of its
//! worker loop where it holds no claimed-but-unpushed sequence range,
//! `quiesced_at[me] = head_seq()` ([`SharedScrPlane::quiesce`]): every
//! number it has claimed is in its peers' logs, and every number it
//! claims later is larger. A consumer reads
//! `floor = min over every other core of quiesced_at`
//! ([`SharedScrPlane::floor`]) *before* a drain, drains its log until
//! empty, then drops every record with `last_seq ≤ floor`
//! ([`ScrReplica::forget_below`]).
//!
//! *Why no verdict changes.* When the drain ends, every update numbered
//! `≤ floor` that was ever owed to this core has been consumed: each
//! origin had pushed all of its own before it stored its `quiesced_at`,
//! the log is FIFO, and the drain ran it dry after the load. So any
//! update that can still arrive has `seq > floor ≥ last_seq ≥
//! last_del_seq` of a dropped record — against the record it is `Fresh`
//! and leaves `(seq, seq or last_del_seq)`; against nothing it is
//! `Fresh` and leaves `(seq, seq or 0)`; and since everything later is
//! again above `floor`, no comparison can tell `last_del_seq` from 0.
//! Every [`Admission`] is what the unpruned guard would have given. A
//! dead or stalled core stops advancing its `quiesced_at`, which stops
//! the floor — it is never left out of the minimum — so its peers'
//! guards grow until it is replaced, never wrongly forget.
//!
//! The guard stays what it was, a [`FlowTable`] of records; the prune
//! is a filter on each record's own `last_seq` into a table sized for
//! the survivors. It runs when the guard has doubled since the last
//! prune: amortised constant work per record, and guard memory within
//! a factor of two of the records written since the floor instead of
//! one per flow ever seen. In the simulator a publish lands on every
//! log at once, so a log run dry means `floor = head_seq()`.

use crate::api::{FlowStateApi, NetworkFunction};
use crate::flowtable::FlowTable;
use crate::stats::{batch_bucket, BATCH_HIST_BUCKETS};
use crate::tables::ReplicaWriter;
use crossbeam::queue::ArrayQueue;
use sprayer_net::{FlowKey, Packet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One replicated flow-state mutation, shipped by value.
///
/// Value shipping (rather than operation shipping) is what makes replay
/// idempotent and last-writer-wins sufficient: applying the newest
/// `Put` yields the writer's exact post-state regardless of how many
/// intermediate updates were superseded or dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp<S> {
    /// The flow's state after the originating core's write.
    Put(FlowKey, S),
    /// The flow was removed on the originating core.
    Del(FlowKey),
}

impl<S> UpdateOp<S> {
    /// The flow this update is about.
    pub fn key(&self) -> &FlowKey {
        match self {
            UpdateOp::Put(key, _) | UpdateOp::Del(key) => key,
        }
    }
}

/// A sequenced state-update as it travels a peer's log ring.
#[derive(Debug, Clone)]
pub struct StateUpdate<S> {
    /// Global sequence number (assigned once per published op; all
    /// peers see the same number). Strictly increasing across the run.
    pub seq: u64,
    /// Core that performed the write.
    pub origin: usize,
    /// The mutation itself.
    pub op: UpdateOp<S>,
}

/// Version-guard classification of one replayed update (see the module
/// docs): what the consumer should do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Newer than anything seen for the flow: a `Del` removes, a `Put`
    /// goes to `merge_replica` with `newer = true`.
    Fresh,
    /// An older `Put` that still post-dates the last removal: goes to
    /// `merge_replica` with `newer = false` (LWW keeps the existing
    /// value; commutative NFs fold it in).
    Concurrent,
    /// At or below the flow's tombstone: consumed and counted, never
    /// applied.
    Superseded,
}

/// What [`crate::api::NetworkFunction::merge_replica`] tells the replay
/// path to do with an incoming `Put` for a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaMerge<S> {
    /// Write this value into the replica.
    Store(S),
    /// Leave the replica's current entry (or absence) untouched.
    Keep,
    /// Remove the flow — the merge itself completed a teardown (e.g.
    /// the union of per-direction FIN bits). The replay path records a
    /// tombstone so the updates that fed the merge cannot resurrect
    /// the entry.
    Remove,
}

struct SharedScrInner<S> {
    inboxes: Vec<ArrayQueue<StateUpdate<S>>>,
    next_seq: AtomicU64,
    /// Per core: a global head at which the core held no
    /// claimed-but-unpushed sequence range (see the module docs,
    /// "Guard growth").
    quiesced_at: Vec<AtomicU64>,
    published: AtomicU64,
    applied: AtomicU64,
    dropped: AtomicU64,
    occupancy_hwm: AtomicU64,
}

/// The replay plane: per-core lock-free bounded inbound logs
/// (`crossbeam::queue::ArrayQueue`, the lap-stamped MPMC ring in
/// `vendor/crossbeam` — N−1 publishers CAS the tail, the owning core
/// or, once it is fenced, the watchdog too CAS the head; the same
/// structure the inter-core descriptor rings use) plus shared atomic
/// counters.
/// Clone handles freely across workers.
///
/// The version guards live with each *core* ([`ScrReplica`]) — they
/// are read/written only by the owning core, so sharing them would buy
/// nothing but contention.
pub struct SharedScrPlane<S> {
    inner: Arc<SharedScrInner<S>>,
}

impl<S> Clone for SharedScrPlane<S> {
    fn clone(&self) -> Self {
        SharedScrPlane {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S> std::fmt::Debug for SharedScrPlane<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedScrPlane")
            .field("cores", &self.inner.inboxes.len())
            .field("published", &self.published())
            .field("applied", &self.applied())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl<S> SharedScrPlane<S> {
    /// A plane for `num_cores` cores with per-core log capacity
    /// `capacity`.
    pub fn new(num_cores: usize, capacity: usize) -> Self {
        assert!(num_cores >= 1 && capacity >= 1);
        SharedScrPlane {
            inner: Arc::new(SharedScrInner {
                inboxes: (0..num_cores).map(|_| ArrayQueue::new(capacity)).collect(),
                next_seq: AtomicU64::new(1),
                quiesced_at: (0..num_cores).map(|_| AtomicU64::new(0)).collect(),
                published: AtomicU64::new(0),
                applied: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                occupancy_hwm: AtomicU64::new(0),
            }),
        }
    }

    /// Number of cores the plane spans.
    pub fn num_cores(&self) -> usize {
        self.inner.inboxes.len()
    }

    /// Claim `n` consecutive global sequence numbers with one
    /// `fetch_add`, returning the first (the first half of a batch
    /// multicast — the caller stamps `first + i` on every peer copy of
    /// its `i`-th op and records it in its own version guard before any
    /// send).
    pub fn claim_seqs(&self, n: u64) -> u64 {
        self.inner.next_seq.fetch_add(n, Ordering::Relaxed)
    }

    /// Assign the next global sequence number: a claim of one. Kept,
    /// like [`Self::try_send`], [`Self::publish`] and [`Self::pop`],
    /// for the layer benchmark under `perf/`; the runtimes go through
    /// [`ScrPort`].
    pub fn assign_seq(&self) -> u64 {
        self.claim_seqs(1)
    }

    /// Enqueue `held` (a copy an earlier call handed back), then the
    /// items of `rest`, onto `peer`'s log until one does not fit. The
    /// copies that landed count as published — one add and one
    /// high-water check for the whole run. A full log hands the
    /// refused update back **uncounted**, for the caller to retry as
    /// `held` or abandon ([`Self::count_drop`]) — [`ScrPort::publish`].
    pub fn try_send_from(
        &self,
        peer: usize,
        mut held: Option<StateUpdate<S>>,
        rest: &mut impl Iterator<Item = StateUpdate<S>>,
    ) -> Option<StateUpdate<S>> {
        let inbox = &self.inner.inboxes[peer];
        let mut sent = 0u64;
        let refused = loop {
            let Some(update) = held.take().or_else(|| rest.next()) else {
                break None;
            };
            match inbox.push(update) {
                Ok(()) => sent += 1,
                Err(back) => break Some(back),
            }
        };
        if sent > 0 {
            self.inner.published.fetch_add(sent, Ordering::Relaxed);
            // The mark moves a few times a run: read it, and pay the
            // read-modify-write on the shared line only to raise it.
            let depth = inbox.len() as u64;
            if depth > self.inner.occupancy_hwm.load(Ordering::Relaxed) {
                self.inner.occupancy_hwm.fetch_max(depth, Ordering::Relaxed);
            }
        }
        refused
    }

    /// Enqueue one copy onto `peer`'s log: [`Self::try_send_from`] with
    /// nothing behind it. `Ok` counts it published; a full log hands
    /// the update back uncounted.
    pub fn try_send(&self, peer: usize, update: StateUpdate<S>) -> Result<(), StateUpdate<S>> {
        match self.try_send_from(peer, Some(update), &mut std::iter::empty()) {
            None => Ok(()),
            Some(back) => Err(back),
        }
    }

    /// Account one abandoned copy: it counts as published *and*
    /// dropped, keeping `published == applied + dropped + pending`
    /// closed.
    pub fn count_drop(&self) {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Single-attempt multicast of one op from `origin` to every peer in
    /// `alive`, a full log counting straight as a drop. Returns the
    /// assigned global sequence number for the origin's own guard.
    pub fn publish(&self, origin: usize, op: &UpdateOp<S>, alive: &[bool]) -> u64
    where
        S: Clone,
    {
        let seq = self.assign_seq();
        for peer in 0..self.inner.inboxes.len() {
            if peer == origin || !alive.get(peer).copied().unwrap_or(false) {
                continue;
            }
            let update = StateUpdate {
                seq,
                origin,
                op: op.clone(),
            };
            if self.try_send(peer, update).is_err() {
                self.count_drop();
            }
        }
        seq
    }

    /// Pop up to `max` pending updates from `core`'s log, in order,
    /// handing each to `sink`, and count them applied with one add.
    /// Returns how many; fewer than `max` means the log was found
    /// empty. The caller runs its own [`ScrReplica`] version guard.
    pub fn drain(&self, core: usize, max: usize, mut sink: impl FnMut(StateUpdate<S>)) -> usize {
        let inbox = &self.inner.inboxes[core];
        let mut n = 0;
        while n < max {
            let Some(update) = inbox.pop() else {
                break;
            };
            sink(update);
            n += 1;
        }
        if n > 0 {
            self.inner.applied.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Pop the next pending update from `core`'s log, counting it
    /// applied: a [`Self::drain`] of one.
    pub fn pop(&self, core: usize) -> Option<StateUpdate<S>> {
        let mut next = None;
        self.drain(core, 1, |update| next = Some(update));
        next
    }

    /// `core` declares that it holds no claimed-but-unpushed sequence
    /// range: every number it ever claimed is in its peers' logs (or
    /// accounted as dropped), and whatever it claims from here on is
    /// above the head it records. The worker calls this at the top of
    /// its loop. `Release` pairs with the `Acquire` in [`Self::floor`],
    /// so a consumer that reads this head also finds those pushes.
    pub fn quiesce(&self, core: usize) {
        let head = self.head_seq();
        let slot = &self.inner.quiesced_at[core];
        // An idle worker re-reads an unchanged head; leave the shared
        // line clean then.
        if slot.load(Ordering::Relaxed) != head {
            slot.store(head, Ordering::Release);
        }
    }

    /// The guard floor for consumer `core`: the lowest head any *other*
    /// core last quiesced at (dead and stalled cores included — they
    /// hold the floor down, see the module docs). Read it before a
    /// drain; once that drain has emptied the log, no update numbered
    /// at or below it can still arrive and
    /// [`ScrReplica::forget_below`] may drop what only such an update
    /// could have needed. With no other core nothing can arrive at all.
    pub fn floor(&self, core: usize) -> u64 {
        self.inner
            .quiesced_at
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != core)
            .map(|(_, at)| at.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Updates pending in `core`'s log.
    pub fn pending(&self, core: usize) -> usize {
        self.inner.inboxes[core].len()
    }

    /// True when every core's log is empty (the shutdown-protocol
    /// condition: workers may only exit once nothing is left to
    /// replay).
    pub fn all_empty(&self) -> bool {
        self.inner.inboxes.iter().all(ArrayQueue::is_empty)
    }

    /// Truncate a dead core's log from the watchdog/zombie-drain path,
    /// counting the discarded updates as drops. Safe to call
    /// repeatedly.
    pub fn truncate(&self, core: usize) -> u64 {
        let mut n = 0u64;
        while self.inner.inboxes[core].pop().is_some() {
            n += 1;
        }
        self.inner.dropped.fetch_add(n, Ordering::Relaxed);
        n
    }

    /// The global sequence head (last assigned number; 0 before any
    /// publish).
    pub fn head_seq(&self) -> u64 {
        self.inner.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Copies enqueued onto peer logs so far.
    pub fn published(&self) -> u64 {
        self.inner.published.load(Ordering::Relaxed)
    }

    /// Copies consumed from logs so far.
    pub fn applied(&self) -> u64 {
        self.inner.applied.load(Ordering::Relaxed)
    }

    /// Copies dropped (full or truncated logs) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Highest log occupancy observed on any core.
    pub fn occupancy_hwm(&self) -> u64 {
        self.inner.occupancy_hwm.load(Ordering::Relaxed)
    }
}

/// One core's per-flow version guard: `(last_seq, last_del_seq)` per
/// flow, classifying replayed updates into [`Admission`] classes. Each
/// core's [`ScrPort`] holds one.
///
/// A record outlives its flow (the `last_del_seq` tombstone is what
/// blocks resurrection) until [`Self::forget_below`] drops it below the
/// guard floor — see the module docs ("Guard growth"). A guard that is
/// never told a floor keeps every record, and gives the same verdicts.
#[derive(Debug)]
pub struct ScrReplica {
    versions: FlowTable<(u64, u64)>,
    /// Record count at which the next prune runs: twice what the last
    /// one left.
    prune_at: usize,
    /// Most records held at once.
    hwm: usize,
}

/// The guard is not pruned below this many records. A prune scans the
/// table and moves the survivors, so pruning a guard of tens of records
/// every other drain costs more than the records do: on `churn` a
/// minimum of 64 gave back half of what bounding the guard buys, 256 to
/// 2 048 read alike, and from 8 192 up the guard is out of cache again.
const GUARD_PRUNE_MIN: usize = 1024;

impl Default for ScrReplica {
    fn default() -> Self {
        ScrReplica {
            versions: FlowTable::new(),
            prune_at: GUARD_PRUNE_MIN,
            hwm: 0,
        }
    }
}

impl ScrReplica {
    /// A fresh guard (every update is fresh).
    pub fn new() -> Self {
        ScrReplica::default()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when the guard holds no record.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Most records the guard has held at once.
    pub fn len_hwm(&self) -> usize {
        self.hwm.max(self.len())
    }

    /// True once the guard has doubled since its last prune: the owner
    /// should fetch a floor and call [`Self::forget_below`].
    pub fn prune_due(&self) -> bool {
        self.len() >= self.prune_at
    }

    /// Record a version this core just wrote locally (its own publish).
    pub fn note_local(&mut self, key: FlowKey, seq: u64, is_del: bool) {
        let v = self.versions.get_or_insert(key, (0, 0));
        *v = (seq, if is_del { seq } else { v.1 });
    }

    /// Version-guard a remote update (see [`Admission`]): `Fresh`
    /// advances the guard; `Concurrent` is an older `Put` still newer
    /// than the flow's last removal (merge material); `Superseded` is
    /// tombstoned history. One probe: a flow never seen starts at
    /// `(0, 0)`, below every sequence number.
    pub fn admit(&mut self, key: FlowKey, seq: u64, is_del: bool) -> Admission {
        let v = self.versions.get_or_insert(key, (0, 0));
        if seq > v.0 {
            *v = (seq, if is_del { seq } else { v.1 });
            Admission::Fresh
        } else if !is_del && seq > v.1 {
            Admission::Concurrent
        } else {
            Admission::Superseded
        }
    }

    /// Drop every record with `last_seq ≤ floor`. The caller guarantees
    /// that no update numbered at or below `floor` can still reach this
    /// guard (module docs, "Guard growth"); every later [`Self::admit`]
    /// then answers as if nothing had been dropped. The survivors move
    /// to a fresh table, so the guard's footprint — and the next
    /// prune's scan — follows what it holds, not what it once held.
    /// Correct whenever the floor is; worth its scan when
    /// [`Self::prune_due`].
    pub fn forget_below(&mut self, floor: u64) {
        self.hwm = self.hwm.max(self.len());
        let fresh = FlowTable::with_capacity_hint(self.prune_at);
        for (key, v) in std::mem::replace(&mut self.versions, fresh) {
            if v.0 > floor {
                self.versions.insert(key, v);
            }
        }
        self.prune_at = (2 * self.len()).max(GUARD_PRUNE_MIN);
    }

    /// Advance the flow's tombstone to its last-seen seq — called when
    /// a [`ReplicaMerge::Remove`] completes a teardown, so the updates
    /// that fed the merge read as `Superseded` from then on.
    pub fn note_defunct(&mut self, key: &FlowKey) {
        if let Some(v) = self.versions.get_mut(key) {
            v.1 = v.0;
        }
    }
}

/// Replay `updates` — what one drain took off a core's inbound log,
/// in log order — into that core's `replica`: the one place that
/// interprets an [`Admission`]. Each update is version-guarded through
/// `guard`; a fresh `Del` removes, an admitted `Put` routes through the
/// NF's [`NetworkFunction::merge_replica`] hook (default exact LWW —
/// store iff newer; commutative NFs fold concurrent writes in), and a
/// merge-completed teardown removes the entry and tombstones the
/// updates that fed it ([`ScrReplica::note_defunct`]). `head` is the
/// global head when the drain began: an update consumed while still
/// the head has lag 1, and every update lands in one `lag_hist`
/// bucket. Returns the updates consumed — `Superseded` ones included:
/// the conservation identity `scr_replay_gap() == 0` tracks log
/// consumption, not writes.
pub fn replay<NF: NetworkFunction>(
    nf: &NF,
    guard: &mut ScrReplica,
    mut replica: ReplicaWriter<'_, NF::Flow>,
    updates: impl Iterator<Item = StateUpdate<NF::Flow>>,
    head: u64,
    lag_hist: &mut [u64; BATCH_HIST_BUCKETS],
) -> u64 {
    let mut applied = 0;
    for update in updates {
        applied += 1;
        lag_hist[batch_bucket((head + 1).saturating_sub(update.seq))] += 1;
        let is_del = matches!(update.op, UpdateOp::Del(_));
        let admission = guard.admit(*update.op.key(), update.seq, is_del);
        match (update.op, admission) {
            (_, Admission::Superseded) => {}
            // The guard only ever admits a Del as Fresh.
            (UpdateOp::Del(key), _) => replica.del(&key),
            (UpdateOp::Put(key, state), admission) => {
                let newer = admission == Admission::Fresh;
                match nf.merge_replica(&key, replica.get(&key), &state, newer) {
                    ReplicaMerge::Store(merged) => replica.put(key, merged),
                    ReplicaMerge::Keep => {}
                    ReplicaMerge::Remove => {
                        replica.del(&key);
                        guard.note_defunct(&key);
                    }
                }
            }
        }
    }
    applied
}

/// What a publisher does with a copy a full live peer log refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// Room has been made, or may have been: send the copy again.
    Retry,
    /// Give the copy up as one accounted drop; the rest of the run is
    /// no longer owed to that peer.
    Abandon,
}

/// One core's end of the plane: its version guard, the op buffer a
/// batch is extracted into, the buffer a replay drains into, and its
/// lag histogram. A batch goes out as [`Self::extract`] then
/// [`Self::publish`]; remote updates come in with [`Self::replay`].
#[derive(Debug)]
pub struct ScrPort<S> {
    core: usize,
    plane: SharedScrPlane<S>,
    guard: ScrReplica,
    ops: Vec<UpdateOp<S>>,
    inbox: Vec<StateUpdate<S>>,
    lag_hist: [u64; BATCH_HIST_BUCKETS],
}

impl<S> SharedScrPlane<S> {
    /// `core`'s end of the plane, with a fresh guard.
    pub fn port(&self, core: usize) -> ScrPort<S> {
        assert!(core < self.num_cores(), "core {core} is not on the plane");
        ScrPort {
            core,
            plane: self.clone(),
            guard: ScrReplica::new(),
            ops: Vec::new(),
            inbox: Vec::new(),
            lag_hist: [0; BATCH_HIST_BUCKETS],
        }
    }
}

impl<S: Clone> ScrPort<S> {
    /// The core this port belongs to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The plane this port is an end of.
    pub fn plane(&self) -> &SharedScrPlane<S> {
        &self.plane
    }

    /// The core's version guard.
    pub fn guard(&self) -> &ScrReplica {
        &self.guard
    }

    /// The lag histogram since the last take, leaving it zeroed.
    pub fn take_lag_hist(&mut self) -> [u64; BATCH_HIST_BUCKETS] {
        std::mem::replace(&mut self.lag_hist, [0; BATCH_HIST_BUCKETS])
    }

    /// Replay every pending remote update into the core's replica;
    /// returns the updates consumed. An empty log with no prune due
    /// costs one `pending` load. Otherwise `floor` gives the guard floor
    /// (a runtime that times replays starts its span there), the log is
    /// drained and run through [`replay`] under one `open` of the
    /// replica — `open` hands the writer to the function it is given —
    /// and, the log run dry, the guard forgets below the floor if a
    /// prune is due.
    pub fn replay<NF: NetworkFunction<Flow = S>>(
        &mut self,
        nf: &NF,
        floor: impl FnOnce(&SharedScrPlane<S>) -> u64,
        open: impl FnOnce(&mut dyn FnMut(ReplicaWriter<'_, S>)),
    ) -> u64 {
        let (plane, inbox) = (&self.plane, &mut self.inbox);
        // A guard that only ever publishes still has to prune.
        if plane.pending(self.core) == 0 && !self.guard.prune_due() {
            return 0;
        }
        let floor = floor(plane);
        let applied = plane.drain(self.core, usize::MAX, |update| inbox.push(update)) as u64;
        if applied > 0 {
            let (guard, lag_hist, head) = (&mut self.guard, &mut self.lag_hist, plane.head_seq());
            open(&mut |replica| {
                replay(nf, guard, replica, inbox.drain(..), head, lag_hist);
            });
        }
        if self.guard.prune_due() {
            self.guard.forget_below(floor);
        }
        applied
    }

    /// Extract a completed batch's updates into the op buffer
    /// ([`NetworkFunction::replicate_updates`] over the batch's table
    /// context); the caller then resets the context's mutation log.
    pub fn extract<NF>(
        &mut self,
        nf: &NF,
        pkts: &[Packet],
        conn: &[bool],
        ctx: &dyn FlowStateApi<S>,
    ) where
        NF: NetworkFunction<Flow = S>,
    {
        self.ops.clear();
        nf.replicate_updates(pkts, conn, ctx, &mut self.ops);
    }

    /// Multicast the extracted ops: claim their sequence range once,
    /// note each in the guard before any send (a slower remote update
    /// must never downgrade a newer local write), and send the run to
    /// every other core `live` vouches for, cloned for all but the last.
    /// A refused copy asks `full` — handed this port and the peer —
    /// whether to retry or abandon it. Returns the copies that landed.
    pub fn publish(
        &mut self,
        live: impl Fn(usize) -> bool,
        mut full: impl FnMut(&mut Self, usize) -> Backoff,
    ) -> u64 {
        if self.ops.is_empty() {
            return 0;
        }
        let mut ops = std::mem::take(&mut self.ops);
        let first = self.plane.claim_seqs(ops.len() as u64);
        for (seq, op) in (first..).zip(&ops) {
            let is_del = matches!(op, UpdateOp::Del(_));
            self.guard.note_local(*op.key(), seq, is_del);
        }
        let me = self.core;
        let mut peers = (0..self.plane.num_cores())
            .filter(|&peer| peer != me && live(peer))
            .peekable();
        let mut sent = 0;
        while let Some(peer) = peers.next() {
            sent += match peers.peek() {
                Some(_) => self.send(peer, first, ops.iter().cloned(), &mut full),
                None => self.send(peer, first, ops.drain(..), &mut full),
            };
        }
        ops.clear();
        self.ops = ops;
        sent
    }

    /// Send one run, numbered from `first`, to `peer`'s log, backing off
    /// through `full`; returns the copies that landed.
    fn send(
        &mut self,
        peer: usize,
        first: u64,
        ops: impl ExactSizeIterator<Item = UpdateOp<S>>,
        full: &mut impl FnMut(&mut Self, usize) -> Backoff,
    ) -> u64 {
        let (origin, run) = (self.core, ops.len() as u64);
        let mut rest = ops.enumerate().map(|(i, op)| StateUpdate {
            seq: first + i as u64,
            origin,
            op,
        });
        let mut held = None;
        loop {
            held = self.plane.try_send_from(peer, held, &mut rest);
            if held.is_none() {
                return run;
            }
            if full(self, peer) == Backoff::Abandon {
                self.plane.count_drop();
                return run - 1 - rest.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::FiveTuple;

    fn key(i: u32) -> FlowKey {
        FiveTuple::tcp(0x0a00_0000 + i, 1000, 0xc0a8_0001, 443).key()
    }

    /// The plane with one guard per core, driven as both runtimes drive
    /// it: a publish is noted in the origin's guard, a take runs the
    /// consumer's.
    struct Guarded {
        plane: SharedScrPlane<u32>,
        guards: Vec<ScrReplica>,
    }

    /// One consumed update with its verdict and its lag behind the head.
    struct Taken {
        op: UpdateOp<u32>,
        admission: Admission,
        lag: u64,
    }

    impl Guarded {
        fn new(cores: usize, capacity: usize) -> Self {
            Guarded {
                plane: SharedScrPlane::new(cores, capacity),
                guards: (0..cores).map(|_| ScrReplica::new()).collect(),
            }
        }

        fn publish(&mut self, origin: usize, op: UpdateOp<u32>) {
            let seq = self
                .plane
                .publish(origin, &op, &vec![true; self.guards.len()]);
            self.guards[origin].note_local(*op.key(), seq, matches!(op, UpdateOp::Del(_)));
        }

        fn take(&mut self, core: usize) -> Option<Taken> {
            let update = self.plane.pop(core)?;
            let is_del = matches!(update.op, UpdateOp::Del(_));
            Some(Taken {
                admission: self.guards[core].admit(*update.op.key(), update.seq, is_del),
                lag: self.plane.head_seq() + 1 - update.seq,
                op: update.op,
            })
        }
    }

    #[test]
    fn version_guard_is_last_writer_wins_under_any_drain_order() {
        // Cores 0 and 1 both write flow k; core 2 replays in both
        // orders (the log is FIFO, so simulate orders via two planes)
        // and must end at the seq-2 value either way.
        let k = key(9);
        let mut a = Guarded::new(3, 8);
        a.publish(0, UpdateOp::Put(k, 10)); // seq 1
        a.publish(1, UpdateOp::Put(k, 20)); // seq 2
        let t1 = a.take(2).unwrap();
        let t2 = a.take(2).unwrap();
        assert!(t1.admission == Admission::Fresh && t1.lag >= 1);
        assert_eq!(t2.admission, Admission::Fresh, "newer seq supersedes");
        assert_eq!(t2.op, UpdateOp::Put(k, 20));

        // Reversed arrival (origin 1 first): both are fresh in the
        // FIFO per-core log, and the last global writer wins.
        let mut b = Guarded::new(3, 8);
        b.publish(1, UpdateOp::Put(k, 20)); // seq 1
        b.publish(0, UpdateOp::Put(k, 10)); // seq 2
        let u1 = b.take(2).unwrap();
        let u2 = b.take(2).unwrap();
        assert!(
            u1.admission == Admission::Fresh && u2.admission == Admission::Fresh,
            "FIFO per-core log is in seq order"
        );
        assert_eq!(u2.op, UpdateOp::Put(k, 10), "last global writer wins");
    }

    #[test]
    fn origin_version_classifies_remote_downgrade_as_concurrent() {
        // Core 0 publishes seq 1; core 1 publishes seq 2 for the same
        // flow. When core 1's own log delivers core 0's older update,
        // the guard classifies it Concurrent: LWW NFs keep their newer
        // local write, commutative NFs fold the older one in.
        let k = key(3);
        let mut plane = Guarded::new(2, 8);
        plane.publish(0, UpdateOp::Put(k, 1));
        plane.publish(1, UpdateOp::Put(k, 2));
        let taken = plane.take(1).unwrap();
        assert_eq!(
            taken.admission,
            Admission::Concurrent,
            "core 1 already holds seq 2 locally; seq 1 must not overwrite it"
        );
    }

    #[test]
    fn del_tombstone_blocks_resurrection() {
        let k = key(4);
        let mut plane = Guarded::new(2, 8);
        plane.publish(0, UpdateOp::Put(k, 5)); // seq 1
        plane.publish(0, UpdateOp::Del(k)); // seq 2
        let put = plane.take(1).unwrap();
        let del = plane.take(1).unwrap();
        assert_eq!(put.admission, Admission::Fresh);
        assert_eq!(del.admission, Admission::Fresh);
        assert!(matches!(del.op, UpdateOp::Del(_)));
        // A re-delivered stale Put (lower seq than the tombstone) must
        // read as Superseded, not Concurrent: the removal post-dates it.
        let mut replica = ScrReplica::new();
        assert_eq!(replica.admit(k, 2, true), Admission::Fresh);
        assert_eq!(
            replica.admit(k, 1, false),
            Admission::Superseded,
            "tombstoned version blocks seq 1"
        );
    }

    #[test]
    fn concurrent_put_is_merge_material_until_defunct() {
        let k = key(7);
        let mut replica = ScrReplica::new();
        // Two concurrent writers: seq 4 lands first, seq 3 after.
        assert_eq!(replica.admit(k, 4, false), Admission::Fresh);
        assert_eq!(
            replica.admit(k, 3, false),
            Admission::Concurrent,
            "older Put newer than any removal merges, not drops"
        );
        // A merge-derived removal advances the tombstone to the last
        // seen seq: both feeding updates now read Superseded.
        replica.note_defunct(&k);
        assert_eq!(replica.admit(k, 3, false), Admission::Superseded);
        assert_eq!(replica.admit(k, 4, false), Admission::Superseded);
        // A genuinely newer write may still recreate the flow.
        assert_eq!(replica.admit(k, 5, false), Admission::Fresh);
    }

    #[test]
    fn note_local_del_tombstones_for_later_admits() {
        let k = key(8);
        let mut replica = ScrReplica::new();
        replica.note_local(k, 2, false);
        replica.note_local(k, 5, true); // local teardown
        assert_eq!(
            replica.admit(k, 4, false),
            Admission::Superseded,
            "straggler Put below the local Del must not resurrect"
        );
        assert_eq!(replica.admit(k, 6, false), Admission::Fresh);
    }

    #[test]
    fn shared_plane_counters_close_the_gap() {
        let plane: SharedScrPlane<u32> = SharedScrPlane::new(3, 4);
        let alive = [true; 3];
        for i in 0..3 {
            plane.publish(0, &UpdateOp::Put(key(i), i), &alive);
        }
        assert_eq!(plane.published(), 6, "two live peers, three ops");
        assert_eq!(plane.occupancy_hwm(), 3);
        let mut replica = ScrReplica::new();
        let mut applied_fresh = 0;
        while let Some(u) = plane.pop(1) {
            let is_del = matches!(u.op, UpdateOp::Del(_));
            if replica.admit(*u.op.key(), u.seq, is_del) == Admission::Fresh {
                applied_fresh += 1;
            }
        }
        assert_eq!(applied_fresh, 3);
        assert_eq!(plane.truncate(2), 3, "dead core's log truncates as drops");
        assert_eq!(
            plane.published(),
            plane.applied() + plane.dropped(),
            "the SCR conservation identity closes at drain"
        );
        assert!(plane.all_empty());
        assert_eq!(plane.head_seq(), 3);
    }

    #[test]
    fn shared_plane_overflow_counts_drops() {
        let plane: SharedScrPlane<u32> = SharedScrPlane::new(2, 2);
        let alive = [true; 2];
        for i in 0..5 {
            plane.publish(0, &UpdateOp::Put(key(i), i), &alive);
        }
        // Every attempted copy is published; the three that found the
        // log full are also drops, so published == applied + dropped +
        // pending holds mid-overload.
        assert_eq!(plane.published(), 5);
        assert_eq!(plane.dropped(), 3);
        assert_eq!(plane.pending(1), 2);
    }

    #[test]
    fn try_send_hands_back_uncounted_on_full_log() {
        let plane: SharedScrPlane<u32> = SharedScrPlane::new(2, 1);
        let seq = plane.assign_seq();
        let update = StateUpdate {
            seq,
            origin: 0,
            op: UpdateOp::Put(key(1), 1),
        };
        assert!(plane.try_send(1, update).is_ok());
        let seq2 = plane.assign_seq();
        let back = plane
            .try_send(
                1,
                StateUpdate {
                    seq: seq2,
                    origin: 0,
                    op: UpdateOp::Put(key(2), 2),
                },
            )
            .unwrap_err();
        assert_eq!(back.seq, seq2, "full log hands the update back");
        assert_eq!(plane.published(), 1, "a refused push is not published");
        assert_eq!(plane.dropped(), 0);
        // Backpressure: drain, then the retry lands.
        assert!(plane.pop(1).is_some());
        assert!(plane.try_send(1, back).is_ok());
        assert_eq!(plane.published(), 2);
        // Abandoning a copy (peer died mid-retry) counts both sides.
        plane.count_drop();
        assert_eq!(plane.published(), 3);
        assert_eq!(plane.dropped(), 1);
        let pending = plane.pending(1) as u64;
        assert_eq!(
            plane.published(),
            plane.applied() + plane.dropped() + pending
        );
    }

    #[test]
    fn a_claimed_range_is_sent_in_order_and_counted_once_per_run() {
        let plane: SharedScrPlane<u32> = SharedScrPlane::new(2, 3);
        assert_eq!(plane.assign_seq(), 1);
        let first = plane.claim_seqs(5);
        assert_eq!(first, 2, "the range starts where the last claim ended");
        assert_eq!(plane.head_seq(), 6);
        assert_eq!(plane.assign_seq(), 7, "and the next claim follows it");
        let mut rest = (first..first + 5).map(|seq| StateUpdate {
            seq,
            origin: 0,
            op: UpdateOp::Put(key(seq as u32), seq as u32),
        });
        // Three fit; the fourth comes back uncounted, the fifth was
        // never taken from the iterator.
        let held = plane.try_send_from(1, None, &mut rest);
        assert_eq!(held.as_ref().map(|u| u.seq), Some(5));
        assert_eq!((plane.published(), plane.occupancy_hwm()), (3, 3));
        // Backpressure: make room, hand the refused copy back first.
        let mut got = Vec::new();
        assert_eq!(plane.drain(1, 2, |u| got.push(u.seq)), 2);
        assert_eq!(plane.applied(), 2);
        assert!(plane.try_send_from(1, held, &mut rest).is_none());
        assert_eq!(plane.published(), 5);
        assert_eq!(plane.drain(1, usize::MAX, |u| got.push(u.seq)), 3);
        assert_eq!(got, [2, 3, 4, 5, 6], "per-origin FIFO, nothing skipped");
        assert_eq!(plane.drain(1, usize::MAX, |_| unreachable!()), 0);
        assert_eq!(plane.published(), plane.applied());
    }

    #[test]
    fn the_floor_is_the_slowest_other_core_and_a_silent_core_pins_it() {
        let plane: SharedScrPlane<u32> = SharedScrPlane::new(3, 8);
        assert_eq!(plane.floor(0), 0, "nobody has quiesced yet");
        plane.claim_seqs(10);
        plane.quiesce(1);
        assert_eq!(plane.floor(0), 0, "core 2 has not: it may hold a range");
        assert_eq!(plane.floor(2), 0, "and core 0 pins core 2's floor");
        plane.quiesce(2);
        assert_eq!(plane.floor(0), 10);
        plane.claim_seqs(5);
        plane.quiesce(1);
        assert_eq!(plane.floor(0), 10, "core 2 went silent at 10");
        assert_eq!(plane.floor(2), 0, "core 0 never spoke");
        let alone: SharedScrPlane<u32> = SharedScrPlane::new(1, 8);
        assert_eq!(alone.floor(0), u64::MAX, "no peer, nothing can arrive");
    }

    #[test]
    fn the_guard_forgets_below_the_floor_once_it_has_doubled() {
        let mut replica = ScrReplica::new();
        for i in 0..GUARD_PRUNE_MIN as u32 - 1 {
            replica.note_local(key(i), u64::from(i) + 1, false);
        }
        assert!(!replica.prune_due(), "too small to be worth a scan");
        let head = GUARD_PRUNE_MIN as u64;
        assert_eq!(replica.admit(key(9_999), head, true), Admission::Fresh);
        assert!(replica.prune_due());
        replica.forget_below(head - 10);
        assert_eq!(replica.len(), 10, "only records above the floor stay");
        assert_eq!(replica.len_hwm(), GUARD_PRUNE_MIN);
        // What stayed still guards: the Del at the head blocks its past.
        assert_eq!(
            replica.admit(key(9_999), head - 1, false),
            Admission::Superseded
        );
        // A stalled floor drops nothing, and the next prune waits for
        // the guard to double again.
        let mut prunes = 0;
        for i in 0..4 * GUARD_PRUNE_MIN as u32 {
            replica.note_local(key(20_000 + i), head + 1 + u64::from(i), false);
            if replica.prune_due() {
                replica.forget_below(head - 10);
                prunes += 1;
            }
        }
        assert_eq!(replica.len(), 10 + 4 * GUARD_PRUNE_MIN);
        assert_eq!(prunes, 3, "at 1x, 2x and 4x the minimum");
    }

    #[test]
    fn shared_plane_concurrent_publish_and_replay_conserve_updates() {
        let plane: SharedScrPlane<u64> = SharedScrPlane::new(2, 1024);
        let alive = [true; 2];
        std::thread::scope(|s| {
            let publisher = plane.clone();
            s.spawn(move || {
                for i in 0..10_000u64 {
                    publisher.publish(0, &UpdateOp::Put(key((i % 64) as u32), i), &alive);
                }
            });
            let consumer = plane.clone();
            s.spawn(move || {
                let mut replica = ScrReplica::new();
                let mut idle = 0;
                while idle < 1_000 {
                    match consumer.pop(1) {
                        Some(u) => {
                            idle = 0;
                            let is_del = matches!(u.op, UpdateOp::Del(_));
                            replica.admit(*u.op.key(), u.seq, is_del);
                        }
                        None => {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        });
        // Whatever raced, every published copy is applied or dropped or
        // still pending — and pending + applied + dropped == published.
        let pending = plane.pending(1) as u64;
        assert_eq!(
            plane.published(),
            plane.applied() + plane.dropped() + pending
        );
    }

    #[test]
    fn replay_truth_table() {
        use crate::api::{FlowStateApi, NfDescriptor, Verdict};
        use crate::config::DispatchMode;
        use crate::coremap::CoreMap;
        use crate::tables::LocalTables;
        use sprayer_net::Packet;

        /// Answers every merge with what it was told to, marking a
        /// stored value with the `newer` flag it was called with.
        struct Says(ReplicaMerge<u32>);
        impl NetworkFunction for Says {
            type Flow = u32;
            fn descriptor(&self) -> NfDescriptor {
                NfDescriptor::named("says")
            }
            fn connection_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
                Verdict::Forward
            }
            fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
                Verdict::Forward
            }
            fn merge_replica(
                &self,
                _: &FlowKey,
                _: Option<&u32>,
                new: &u32,
                newer: bool,
            ) -> ReplicaMerge<u32> {
                match self.0 {
                    ReplicaMerge::Store(_) => ReplicaMerge::Store(new + u32::from(newer)),
                    ref other => other.clone(),
                }
            }
        }

        // The flow was removed locally at seq 4 and written again at 6,
        // so the guard holds (6, 4): the head itself is Fresh, a Put at
        // 5 is Concurrent, anything at 3 is Superseded — and a Del at 5
        // is Superseded too (the guard never calls a Del Concurrent).
        const HEAD: u64 = 12;
        let k = key(1);
        let classes = [
            (Admission::Fresh, HEAD),
            (Admission::Concurrent, 5),
            (Admission::Superseded, 3),
        ];
        let merges = [
            ReplicaMerge::Store(0),
            ReplicaMerge::Keep,
            ReplicaMerge::Remove,
        ];
        let mut cells = Vec::new();
        for class in classes {
            for is_del in [false, true] {
                for says in &merges {
                    for held in [Some(7), None] {
                        cells.push((class, is_del, says.clone(), held));
                    }
                }
            }
        }
        for ((class, seq), is_del, says, held) in cells {
            let cell = format!("{class:?} is_del={is_del} {says:?} held={held:?}");
            let mut tables: LocalTables<u32> =
                LocalTables::new(CoreMap::new(DispatchMode::Scr, 2), 16);
            if let Some(v) = held {
                tables.apply_replica(0, &UpdateOp::Put(k, v));
            }
            let before = tables.counters();
            let mut guard = ScrReplica::new();
            guard.note_local(k, 4, true);
            guard.note_local(k, 6, false);
            let op = if is_del {
                UpdateOp::Del(k)
            } else {
                UpdateOp::Put(k, 40)
            };
            let update = StateUpdate { seq, origin: 1, op };
            let nf = Says(says.clone());
            let mut lag_hist = [0u64; BATCH_HIST_BUCKETS];
            let applied = replay(
                &nf,
                &mut guard,
                tables.replica(0),
                std::iter::once(update),
                HEAD,
                &mut lag_hist,
            );

            assert_eq!(
                applied, 1,
                "{cell}: consumed is applied, Superseded included"
            );
            let mut want_hist = [0u64; BATCH_HIST_BUCKETS];
            want_hist[batch_bucket(HEAD + 1 - seq)] = 1;
            assert_eq!(lag_hist, want_hist, "{cell}");
            assert_eq!(
                lag_hist[0],
                u64::from(seq == HEAD),
                "{cell}: lag 1 is consumed while still the head"
            );

            let admitted =
                class != Admission::Superseded && !(is_del && class == Admission::Concurrent);
            let newer = class == Admission::Fresh;
            let (want, tombstoned) = match (admitted, is_del, &says) {
                (false, _, _) => (held, false),
                (true, true, _) => (None, false),
                (true, false, ReplicaMerge::Store(_)) => (Some(40 + u32::from(newer)), false),
                (true, false, ReplicaMerge::Keep) => (held, false),
                (true, false, ReplicaMerge::Remove) => (None, true),
            };
            assert_eq!(tables.peek(0, &k).copied(), want, "{cell}");
            let after = tables.counters();
            let created = u64::from(held.is_none() && want.is_some());
            let dels = u64::from(held.is_some() && want.is_none());
            assert_eq!(after.created - before.created, created, "{cell}");
            assert_eq!(after.replica_dels - before.replica_dels, dels, "{cell}");
            assert_eq!(
                after.unaccounted(tables.total_entries() as u64),
                0,
                "{cell}"
            );
            if tombstoned {
                assert_eq!(
                    guard.admit(k, seq, false),
                    Admission::Superseded,
                    "{cell}: the Put that fed a Remove cannot resurrect the flow"
                );
            }
        }
    }
}
