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
//! **inbound log** ([`ScrPlane`] in the simulator,
//! [`SharedScrPlane`] in the threaded runtime). Before a core
//! dispatches local work it **replays** pending remote updates into its
//! replica, so reads that would have crossed cores under Sprayer are
//! local here.
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
//! peer log is handled by backpressure, not loss: the simulator drains
//! the blocked peer's log in its stead before publishing
//! (`MiddleboxSim::scr_publish`), and a threaded publisher replays its
//! *own* inbox and retries ([`SharedScrPlane::try_send`]) — work-
//! conserving, and deadlock-free because two mutually-blocked
//! publishers each make room for the other. `scr_log_drops` therefore
//! counts only updates that can never be replayed: a dead core's
//! truncated log, and copies abandoned because the peer died
//! mid-retry. Nothing vanishes silently, even under overload or
//! mid-run core crashes.
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
//! log at once, so an empty log means `floor = next_seq − 1`
//! ([`ScrPlane::take`]).

use crate::flowtable::FlowTable;
use crossbeam::queue::ArrayQueue;
use sprayer_net::FlowKey;
use std::collections::VecDeque;
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

/// Result of one multicast [`ScrPlane::publish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Copies enqueued onto peer logs.
    pub sent: u64,
    /// Copies dropped on full peer logs (counted toward
    /// `scr_log_drops`).
    pub dropped: u64,
    /// Highest peer-log occupancy observed after the pushes.
    pub occupancy_hwm: u64,
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

/// One update consumed from a core's inbound log by
/// [`ScrPlane::take`].
#[derive(Debug)]
pub struct TakenUpdate<S> {
    /// The mutation.
    pub op: UpdateOp<S>,
    /// Core that wrote it.
    pub origin: usize,
    /// The version guard's verdict: how (whether) to apply `op`.
    pub admission: Admission,
    /// Replica lag at consumption: how many sequence numbers behind the
    /// global head this update was when replayed. Feeds the
    /// `scr_lag_hist` buckets.
    pub lag: u64,
}

/// The simulator's replay plane: per-core bounded inbound logs
/// (`VecDeque`s — the deterministic analogue of the threaded plane's
/// lock-free rings), per-core version guards, and the global sequence
/// counter. Pure mechanism: all counters live in
/// [`crate::stats::MiddleboxStats`], updated by the runtime from the
/// values these methods return.
#[derive(Debug)]
pub struct ScrPlane<S> {
    inboxes: Vec<VecDeque<StateUpdate<S>>>,
    /// Per-core version guards (one [`ScrReplica`] each), pruned below
    /// the floor whenever [`Self::take`] finds the core's log empty.
    versions: Vec<ScrReplica>,
    capacity: usize,
    /// Next sequence number to assign; `next_seq - 1` is the global
    /// head.
    next_seq: u64,
}

impl<S: Clone> ScrPlane<S> {
    /// A plane for `num_cores` cores with per-core log capacity
    /// `capacity` (updates). Sequence numbers start at 1 so version 0
    /// means "never seen".
    pub fn new(num_cores: usize, capacity: usize) -> Self {
        assert!(num_cores >= 1 && capacity >= 1);
        ScrPlane {
            inboxes: (0..num_cores).map(|_| VecDeque::new()).collect(),
            versions: (0..num_cores).map(|_| ScrReplica::new()).collect(),
            capacity,
            next_seq: 1,
        }
    }

    /// Number of cores the plane spans.
    pub fn num_cores(&self) -> usize {
        self.inboxes.len()
    }

    /// Updates pending in `core`'s inbound log.
    pub fn pending(&self, core: usize) -> usize {
        self.inboxes[core].len()
    }

    /// True when `core`'s inbound log has no room for another update —
    /// the simulator's backpressure trigger: the publisher drains the
    /// blocked peer's log in its stead instead of dropping.
    pub fn is_full(&self, core: usize) -> bool {
        self.inboxes[core].len() >= self.capacity
    }

    /// Total updates pending across all logs.
    pub fn total_pending(&self) -> usize {
        self.inboxes.iter().map(VecDeque::len).sum()
    }

    /// Records in `core`'s version guard ([`ScrReplica::len`]).
    pub fn guard_len(&self, core: usize) -> usize {
        self.versions[core].len()
    }

    /// Multicast one update from `origin` to every live peer
    /// (`failed[c]` peers are skipped — their logs are dark, not
    /// leaking). Assigns the op's global sequence number and records it
    /// in the origin's own version guard, so a slower remote update for
    /// the same flow can never overwrite the origin's newer local
    /// write.
    pub fn publish(&mut self, origin: usize, op: UpdateOp<S>, failed: &[bool]) -> PublishOutcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_del = matches!(op, UpdateOp::Del(_));
        self.versions[origin].note_local(*op.key(), seq, is_del);
        let mut out = PublishOutcome::default();
        for peer in 0..self.inboxes.len() {
            if peer == origin || failed.get(peer).copied().unwrap_or(false) {
                continue;
            }
            if self.inboxes[peer].len() >= self.capacity {
                out.dropped += 1;
                continue;
            }
            self.inboxes[peer].push_back(StateUpdate {
                seq,
                origin,
                op: op.clone(),
            });
            out.sent += 1;
            out.occupancy_hwm = out.occupancy_hwm.max(self.inboxes[peer].len() as u64);
        }
        out
    }

    /// Consume the next pending update from `core`'s log, running the
    /// version guard. The caller counts it applied either way and
    /// interprets `admission` (apply / merge / skip) against the
    /// replica. An empty log is the guard floor at the global head —
    /// a publish reaches every log at once, so nothing at or below
    /// `next_seq − 1` can still arrive — and the guard forgets below it.
    pub fn take(&mut self, core: usize) -> Option<TakenUpdate<S>> {
        let Some(update) = self.inboxes[core].pop_front() else {
            if self.versions[core].prune_due() {
                self.versions[core].forget_below(self.next_seq - 1);
            }
            return None;
        };
        let key = *update.op.key();
        let is_del = matches!(update.op, UpdateOp::Del(_));
        let admission = self.versions[core].admit(key, update.seq, is_del);
        Some(TakenUpdate {
            lag: self.next_seq - update.seq,
            origin: update.origin,
            admission,
            op: update.op,
        })
    }

    /// Record a merge-derived removal in `core`'s version guard (the
    /// replay path calls this when [`ReplicaMerge::Remove`] completes a
    /// teardown): the flow's tombstone advances to its last-seen seq,
    /// so the very updates whose merge removed the entry cannot
    /// re-admit it on another core's log.
    pub fn note_defunct(&mut self, core: usize, key: &FlowKey) {
        self.versions[core].note_defunct(key);
    }

    /// Truncate a dead core's inbound log (the crash-recovery hook):
    /// the updates it never replayed are discarded and returned for
    /// `scr_log_drops` accounting. Its replica dies with it — every
    /// survivor holds the same state, which is why SCR recovery loses
    /// zero flows.
    pub fn truncate(&mut self, core: usize) -> u64 {
        let n = self.inboxes[core].len() as u64;
        self.inboxes[core].clear();
        n
    }

    /// The next-epoch plane after a rescale to `num_cores` cores: fresh
    /// logs and version guards (the runtime drains every log *before*
    /// rescaling, so replicas are converged and no version history is
    /// needed), with the global sequence counter carried forward so
    /// post-rescale updates still dominate anything from earlier
    /// epochs.
    pub fn rescaled(&self, num_cores: usize) -> ScrPlane<S> {
        assert!(num_cores >= 1);
        ScrPlane {
            inboxes: (0..num_cores).map(|_| VecDeque::new()).collect(),
            versions: (0..num_cores).map(|_| ScrReplica::new()).collect(),
            capacity: self.capacity,
            next_seq: self.next_seq,
        }
    }
}

// ---------------------------------------------------------------------
// Thread-shared plane.
// ---------------------------------------------------------------------

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

/// The threaded runtime's replay plane: per-core lock-free bounded
/// inbound logs (`crossbeam::queue::ArrayQueue`, the lap-stamped MPMC
/// ring in `vendor/crossbeam` — N−1 publishers CAS the tail, the owning
/// core or, once it is fenced, the watchdog too CAS the head; the same
/// structure the inter-core descriptor rings use) plus shared atomic
/// counters.
/// Clone handles freely across workers.
///
/// Unlike [`ScrPlane`], the version guards live with each *worker*
/// ([`ScrReplica`]) — they are read/written only by the owning core, so
/// sharing them would buy nothing but contention.
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

    /// Assign the next global sequence number: a claim of one.
    pub fn assign_seq(&self) -> u64 {
        self.claim_seqs(1)
    }

    /// Enqueue `held` (a copy an earlier call handed back), then the
    /// items of `rest`, onto `peer`'s log until one does not fit. The
    /// copies that landed count as published — one add and one
    /// high-water check for the whole run. A full log hands the
    /// refused update back **uncounted** so the caller can apply
    /// backpressure — the threaded worker replays its *own* inbox
    /// (making room for a mutually-blocked peer publishing to it) and
    /// calls again with the refused update as `held`, until `None`
    /// says everything landed or the peer dies. Only a copy the caller
    /// abandons ([`Self::count_drop`]) or a truncated dead log ever
    /// shows up in `dropped`.
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

    /// Account one abandoned copy (the peer died mid-retry): it counts
    /// as published *and* dropped, keeping
    /// `published == applied + dropped + pending` closed.
    pub fn count_drop(&self) {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Single-attempt multicast from `origin` to every peer in `alive`:
    /// [`Self::assign_seq`] plus one [`Self::try_send`] per live peer,
    /// a full log counting straight as a drop. This is the convenience
    /// path for tests and models; the threaded runtime's
    /// `Worker::scr_publish` claims a whole batch's range and sends it
    /// with [`Self::try_send_from`] so it can drain-and-retry instead
    /// of dropping. Returns the assigned global sequence number for the
    /// origin's own version guard.
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
/// flow, classifying replayed updates into [`Admission`] classes. In
/// the threaded runtime each worker owns one privately; the simulator's
/// [`ScrPlane`] keeps one per core.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::FiveTuple;

    fn key(i: u32) -> FlowKey {
        FiveTuple::tcp(0x0a00_0000 + i, 1000, 0xc0a8_0001, 443).key()
    }

    #[test]
    fn publish_multicasts_to_every_live_peer() {
        let mut plane: ScrPlane<u32> = ScrPlane::new(4, 8);
        let out = plane.publish(1, UpdateOp::Put(key(1), 7), &[false; 4]);
        assert_eq!(out.sent, 3, "all peers but the origin");
        assert_eq!(out.dropped, 0);
        assert_eq!(out.occupancy_hwm, 1);
        assert_eq!(plane.pending(1), 0, "no self-loop");
        for peer in [0, 2, 3] {
            assert_eq!(plane.pending(peer), 1);
        }
        assert_eq!(plane.total_pending(), 3);
    }

    #[test]
    fn publish_skips_failed_peers_and_drops_on_full_logs() {
        let mut plane: ScrPlane<u32> = ScrPlane::new(3, 2);
        let mut failed = vec![false, false, true];
        let o1 = plane.publish(0, UpdateOp::Put(key(1), 1), &failed);
        assert_eq!((o1.sent, o1.dropped), (1, 0), "dead peer 2 is skipped");
        let o2 = plane.publish(0, UpdateOp::Put(key(2), 2), &failed);
        assert_eq!((o2.sent, o2.dropped), (1, 0));
        let o3 = plane.publish(0, UpdateOp::Put(key(3), 3), &failed);
        assert_eq!((o3.sent, o3.dropped), (0, 1), "core 1's log is full");
        failed[2] = false;
        assert_eq!(plane.pending(2), 0, "nothing leaked to the dead core");
    }

    #[test]
    fn version_guard_is_last_writer_wins_under_any_drain_order() {
        // Cores 0 and 1 both write flow k; core 2 replays in both
        // orders (the log is FIFO, so simulate orders via two planes)
        // and must end at the seq-2 value either way.
        let k = key(9);
        let mut a: ScrPlane<u32> = ScrPlane::new(3, 8);
        a.publish(0, UpdateOp::Put(k, 10), &[false; 3]); // seq 1
        a.publish(1, UpdateOp::Put(k, 20), &[false; 3]); // seq 2
        let t1 = a.take(2).unwrap();
        let t2 = a.take(2).unwrap();
        assert!(t1.admission == Admission::Fresh && t1.lag >= 1);
        assert_eq!(t2.admission, Admission::Fresh, "newer seq supersedes");
        assert_eq!(t2.op, UpdateOp::Put(k, 20));

        // Reversed arrival (origin 1 first): both are fresh in the
        // FIFO per-core log, and the last global writer wins.
        let mut b: ScrPlane<u32> = ScrPlane::new(3, 8);
        b.publish(1, UpdateOp::Put(k, 20), &[false; 3]); // seq 1
        b.publish(0, UpdateOp::Put(k, 10), &[false; 3]); // seq 2
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
        let mut plane: ScrPlane<u32> = ScrPlane::new(2, 8);
        plane.publish(0, UpdateOp::Put(k, 1), &[false; 2]);
        plane.publish(1, UpdateOp::Put(k, 2), &[false; 2]);
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
        let mut plane: ScrPlane<u32> = ScrPlane::new(2, 8);
        plane.publish(0, UpdateOp::Put(k, 5), &[false; 2]); // seq 1
        plane.publish(0, UpdateOp::Del(k), &[false; 2]); // seq 2
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
    fn truncate_discards_and_counts_a_dead_cores_log() {
        let mut plane: ScrPlane<u32> = ScrPlane::new(2, 8);
        for i in 0..5 {
            plane.publish(0, UpdateOp::Put(key(i), i), &[false; 2]);
        }
        assert_eq!(plane.pending(1), 5);
        assert_eq!(plane.truncate(1), 5);
        assert_eq!(plane.pending(1), 0);
        assert_eq!(plane.truncate(1), 0, "idempotent");
    }

    #[test]
    fn rescaled_plane_keeps_the_sequence_monotonic() {
        let mut plane: ScrPlane<u32> = ScrPlane::new(2, 8);
        plane.publish(0, UpdateOp::Put(key(1), 1), &[false; 2]);
        plane.publish(0, UpdateOp::Put(key(2), 2), &[false; 2]);
        let next = plane.rescaled(4);
        assert_eq!(next.num_cores(), 4);
        assert_eq!(next.total_pending(), 0);
        assert_eq!(
            next.next_seq, plane.next_seq,
            "epochs share one sequence space"
        );
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
    fn the_simulator_guard_forgets_when_its_log_runs_dry() {
        let mut plane: ScrPlane<u32> = ScrPlane::new(2, 4 * GUARD_PRUNE_MIN);
        let n = 3 * GUARD_PRUNE_MIN as u32;
        for i in 0..n {
            plane.publish(0, UpdateOp::Put(key(i), i), &[false; 2]);
            plane.publish(0, UpdateOp::Del(key(i)), &[false; 2]);
            while plane.take(1).is_some() {}
            assert!(plane.take(0).is_none(), "the origin's own log is empty");
        }
        for core in 0..2 {
            assert!(
                plane.guard_len(core) <= GUARD_PRUNE_MIN,
                "core {core}: {} records for {n} flows",
                plane.guard_len(core)
            );
        }
        // Nothing older than the head can arrive, so forgetting is safe.
        plane.publish(0, UpdateOp::Put(key(0), 7), &[false; 2]);
        assert_eq!(plane.take(1).unwrap().admission, Admission::Fresh);
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
}
