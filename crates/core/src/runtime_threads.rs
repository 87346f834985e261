//! A real-thread Sprayer runtime.
//!
//! Functionally equivalent to [`crate::runtime_sim`] but executing on
//! OS threads: one worker per simulated core, **bounded** lock-free
//! `ArrayQueue`s (`vendor/crossbeam`: one CAS per push and per pop, no
//! lock) as the NIC rx queues and inter-core descriptor rings, and
//! [`crate::tables::SharedTables`] as the write-partitioned flow state.
//!
//! This runtime exists to validate the *concurrency design* — that the
//! write partition, ring protocol, and shutdown logic are sound under
//! true parallel execution (including on machines with few physical
//! cores, where the scheduler interleaves adversarially). The paper's
//! figures (Mpps, Gbps, latency) come from the deterministic simulator,
//! whose cycle model is calibrated to the paper's hardware rather than
//! to this host; what a packet costs *this code* in host nanoseconds is
//! measured on this runtime, by `perf/` (workloads `steady` and
//! `churn`).
//!
//! ## Batched, bounded dataplane
//!
//! Mirroring the paper's DPDK-style fast path (§3.3) and the simulator's
//! queue model, workers drain their queues in bounded batches
//! ([`ThreadedConfig::batch_size`], default 32) rather than one packet at
//! a time, and release their shutdown-protocol claims **per batch** —
//! one atomic RMW per drain. The receive queues carry **bursts**: the
//! ingress thread fills one open burst of up to `batch_size` descriptors
//! per queue and hands it over with one SeqCst `rx_remaining` claim
//! (before the push), one push and one depth read, and a worker's
//! receive batch is one pop. Claiming per burst while still moving per
//! packet bought nothing on the lock-free ring; moving per burst took
//! `steady`'s `pkt_ns.sprayer` down by about a sixth (DESIGN.md, "What
//! the ring is worth"). Every queue is
//! bounded: receive-queue overflow is an accounted
//! [`MiddleboxStats::queue_drops`] event and ring overflow an accounted
//! [`MiddleboxStats::ring_drops`] event, never unbounded growth. Redirect
//! pushes are *work-conserving*: while a target ring is full the sender
//! drains its own ring (so two workers redirecting into each other's full
//! rings always make progress), retrying up to
//! [`ThreadedConfig::redirect_retries`] times before counting the drop.
//!
//! There is one worker path: whatever is being observed, a drained
//! batch's local packets go through one
//! [`NetworkFunction::handle_batch`] call and the per-packet planes are
//! fed from the completed batch — the observed system is the deployed
//! one.
//!
//! Both runtimes report the same [`MiddleboxStats`] telemetry, so
//! conservation (`stats.unaccounted() == 0` once drained) is assertable
//! on this path exactly as on the simulator.
//!
//! ## Failure model
//!
//! A worker can die mid-run — a panic inside the NF (a
//! [`Step::Crash`] or a genuine bug) or a silent stall
//! ([`Step::Stall`]). The runtime never lets either wedge the shutdown
//! protocol:
//!
//! * NF dispatch runs under `catch_unwind`; a panicking worker marks
//!   itself dead, counts the in-flight packet and the unprocessed
//!   remainder of its batch as [`MiddleboxStats::lost_packets`], and
//!   degrades to a *zombie drain loop* that keeps its queues empty (each
//!   drained descriptor is an accounted loss) until the system settles.
//! * A run whose steps hold a [`Step::Stall`] spawns a watchdog thread
//!   that polls the workers' [`LiveSlots`] progress counters; a worker
//!   with pending work and no progress for the stall's `deadline_ns` is
//!   declared dead, its queues are drained as losses, and a
//!   [`WorkerFailure`] is recorded — this is how a *stalled* (not
//!   panicked) worker is fenced.
//! * Ingress blackholes packets steered to a dead queue (the real NIC
//!   keeps steering there until reprogrammed), each with a trace-only
//!   [`DropKind::DeadCore`] event, and redirect pushes toward a dead
//!   core's ring declare the descriptor lost instead of spinning.
//!
//! Every loss is accounted, so `stats.unaccounted() == 0` still holds
//! after a crash — the conservation identity simply gains a
//! `lost_packets` term. Failures surface as structured
//! [`ThreadedOutcome::failures`] values, never as a propagated panic.
//!
//! Workers follow the guides' advice for CPU-bound work: plain scoped
//! threads, no async runtime.

use crate::api::{NetworkFunction, Verdict, VerdictSink};
use crate::config::{DispatchMode, LifecycleConfig, ObsConfig};
use crate::elastic::ReconfigReport;
use crate::engine::{self, Dispatch, Engine, PacketClass, Replica, Replication};
use crate::obs_sink::{Completion, ObsHub, ObsLane};
use crate::scr::{Backoff, ScrPort, SharedScrPlane};
use crate::stats::{CoreStats, MiddleboxStats, BATCH_HIST_BUCKETS};
use crate::tables::{SharedCtx, SharedTables};
use crossbeam::queue::ArrayQueue;
use sprayer_net::Packet;
use sprayer_obs::{
    DropKind, FlightSnapshot, HealthEvent, HealthReport, LatencyProbes, LiveSlots, ProfileSlots,
    ReorderReport, SampleSet, Stage, StageProfiler, TailReport, Trace,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace timestamps are wall-clock nanoseconds since the run's anchor
/// `Instant`: 10^3 ticks/µs.
const THREAD_TICKS_PER_US: u64 = 1_000;

/// Configuration of the real-thread runtime.
///
/// Queue and batch defaults mirror
/// [`crate::config::MiddleboxConfig::paper_testbed`] so the two runtimes
/// model the same dataplane shape.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// How the NIC assigns packets to workers.
    pub mode: DispatchMode,
    /// Number of OS worker threads (one per simulated core).
    pub num_workers: usize,
    /// Maximum packets drained from a queue per poll — the DPDK burst
    /// size. Accounting atomics are updated once per batch, and ingress
    /// hands a receive queue this many packets per push (fewer only in
    /// the bursts it flushes when a phase's input ends).
    pub batch_size: usize,
    /// Per-worker receive-queue capacity in packets, rounded up to whole
    /// bursts of [`ThreadedConfig::batch_size`]. Ingress retries a full
    /// queue up to [`ThreadedConfig::ingress_retries`] times (yielding
    /// so workers can drain), then drops the burst: each of its packets
    /// counts a `queue_drop`.
    pub queue_capacity: usize,
    /// Inter-core descriptor-ring capacity.
    pub ring_capacity: usize,
    /// Bounded spin for redirect pushes into a full ring: between
    /// attempts the sender drains its own ring (work conserving), and
    /// after this many failed attempts the descriptor is dropped and
    /// counted in [`MiddleboxStats::ring_drops`].
    pub redirect_retries: usize,
    /// Bounded spin for ingress pushes of a burst into a full receive
    /// queue before counting its packets as
    /// [`MiddleboxStats::queue_drops`].
    pub ingress_retries: usize,
    /// Observability switches (tracing, latency histograms, sampling,
    /// stage profiling, health events, reorder sketching). Off by
    /// default; near-zero-cost when off — no per-packet clock reads, no
    /// flow hashing, no event recording. The only always-on measurement
    /// is the per-*batch* busy-time pair of clock reads that feeds
    /// [`CoreStats::busy_cycles`].
    pub obs: ObsConfig,
    /// Live per-core counter slots for external observation while the
    /// run executes (e.g. the `sprayer-bench top` dashboard). Workers `fetch_add`
    /// their per-batch deltas into the shared slots; a reader polls
    /// [`LiveSlots::snapshot`] from any thread. `None` (the default)
    /// costs nothing.
    pub live: Option<Arc<LiveSlots>>,
    /// Live per-core *stage* tick slots for external observation while
    /// the run executes (the `sprayer-bench top` stage-breakdown pane). Only fed
    /// when [`ObsConfig::profile`] is also on; workers `fetch_add` each
    /// profiled span into the shared slots. `None` (the default) costs
    /// nothing.
    pub profile_live: Option<Arc<ProfileSlots>>,
    /// Flow-lifecycle policy: idle-timeout aging plus the bounded-memory
    /// LRU backstop. Disabled by default — entries then live until the
    /// NF removes them. The lifecycle clock is the wall clock in
    /// microseconds since the run anchor; sweeps run between batches on
    /// each worker's own thread, never concurrently with its NF calls.
    pub lifecycle: LifecycleConfig,
}

/// One step of a [`ThreadedMiddlebox::run_steps`] run, taken in list
/// order: a phase of packets, or an event at the barrier between two.
#[derive(Debug, Clone)]
pub enum Step {
    /// Admit these packets, then drain every queue: a barrier across
    /// which flow tables persist (so, e.g., every SYN installs its state
    /// before the next phase's data arrives, as TCP's handshake does).
    Phase(Vec<Packet>),
    /// Rescale to this many workers at the quiesced barrier: the core
    /// map advances a generation ([`Dispatch::rescale`]), the NIC is
    /// rebuilt, and [`SharedTables::rescaled`] migrates each flow whose
    /// designated core changed through [`NetworkFunction::freeze_flow`]
    /// / [`NetworkFunction::adopt_flow`]. A no-op at the current width.
    Rescale(usize),
    /// Worker `core` panics inside the NF once it has processed exactly
    /// `after` packets of a phase: the NF runs on the fatal batch's
    /// first packets up to that count, then panics. The panic is
    /// captured (never propagated); the worker is declared dead and its
    /// pending work is accounted as lost. Armed from this step until it
    /// fires; the count restarts at each phase.
    ///
    /// One ordering holds in every configuration: a batch's redirects
    /// leave before its NF call, so descriptors redirected out of the
    /// fatal batch survive (their designated cores process them); only
    /// the packet on the NF and the batch's unstarted local packets die
    /// with the worker.
    Crash {
        /// Worker that crashes.
        core: usize,
        /// Packets the worker processes before the crash.
        after: u64,
    },
    /// Worker `core` sleeps for `duration_ns` once it has processed
    /// `after` packets of a phase, armed like a [`Step::Crash`]. The run
    /// gets a watchdog (module docs, "Failure model") that fences a
    /// worker with pending work and no progress for `deadline_ns`.
    Stall {
        /// Worker that stalls.
        core: usize,
        /// Packets the worker processes before the stall.
        after: u64,
        /// How long the worker stays silent: less if the watchdog
        /// fences it first.
        duration_ns: u64,
        /// The watchdog's no-progress deadline.
        deadline_ns: u64,
    },
}

/// One worker failure, captured structurally instead of propagating the
/// panic: the core that died and a human-readable reason (the panic
/// message, or the watchdog's no-progress report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The worker (core id) that failed.
    pub core: usize,
    /// Why: the captured panic message or the watchdog verdict.
    pub message: String,
}

impl ThreadedConfig {
    /// Defaults for `mode` with `num_workers` threads: batch 32, rx
    /// queues of 512, rings of 1024 (the paper-testbed queue shape).
    pub fn new(mode: DispatchMode, num_workers: usize) -> Self {
        ThreadedConfig {
            mode,
            num_workers,
            batch_size: 32,
            queue_capacity: 512,
            ring_capacity: 1024,
            redirect_retries: 64,
            ingress_retries: 4096,
            obs: ObsConfig::disabled(),
            live: None,
            profile_live: None,
            lifecycle: LifecycleConfig::disabled(),
        }
    }
}

/// Extract a displayable message from a captured panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// What flows through the receive queues (a burst at a time) and the
/// descriptor rings: the packet, its classification, and its trace
/// identity and timestamps.
struct Desc {
    pkt: Packet,
    /// Classification from ingress: headers are parsed once and the
    /// result rides with the descriptor through queues and rings.
    class: PacketClass,
    meta: DescMeta,
}

/// A descriptor's trace identity and timestamps: what the per-packet
/// planes read once the batch it was staged into has run. The
/// timestamps are stamped only when a per-packet plane or the flight
/// recorder wants them (0 otherwise); the per-batch busy-time clock
/// reads in `drain_rx`/`drain_ring`/`process_batch_local` happen
/// regardless and never touch the descriptor.
#[derive(Clone, Copy)]
struct DescMeta {
    /// Arrival ordinal across the whole run (trace packet id).
    id: u64,
    /// Stable flow hash (0 when tracing is off or tuple unparseable).
    flow: u64,
    /// Ingress timestamp, ns since the run anchor: the clock read that
    /// labelled its admission, one per `batch_size` admissions (0 when
    /// obs is off).
    arrival_ns: u64,
    /// Redirect-push timestamp for ring-latency probes (0 until set).
    relay_ns: u64,
}

// Moved by value into every rx burst and ring: two cache lines at
// most (ISSUE 12 sizing table, DESIGN.md "Bytes moved per packet").
const _: () = assert!(std::mem::size_of::<Desc>() <= 128);

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Forwarded packets, in completion order (spraying reorders!).
    pub forwarded: Vec<Packet>,
    /// The full telemetry block, identical in shape to the simulator's
    /// [`crate::runtime_sim::MiddleboxSim::stats`]. Fully drained runs
    /// satisfy `stats.unaccounted() == 0`.
    pub stats: MiddleboxStats,
    /// The captured event trace, when [`ObsConfig::trace`] was on:
    /// per-worker rings plus the ingress thread's — each bounded once
    /// for the whole run — merged in global sequence order and stamped
    /// with the final stats.
    pub trace: Option<Trace>,
    /// Merged per-worker latency histograms, when [`ObsConfig::latency`]
    /// was on. Values are wall-clock nanoseconds.
    pub probes: Option<LatencyProbes>,
    /// Per-core sampled delta series, when [`ObsConfig::sample`] was on:
    /// one [`sprayer_obs::TimeSeries`] per worker on the wall-clock nanosecond grid
    /// (`ticks_per_us = 1000`), continuous across phase barriers
    /// (all phases share one anchor `Instant`). Ingress-side queue
    /// drops are folded into the target worker's series.
    pub samples: Option<SampleSet>,
    /// One report per [`Step::Rescale`] that changed the width (empty
    /// when none did). `downtime_ns` is the wall-clock cost of the
    /// quiesced remap + migration; `migrated_packets` is always 0 on
    /// this path because the phase barrier drains every queue before
    /// the swap.
    pub reconfigs: Vec<ReconfigReport>,
    /// Structured worker failures: captured NF panics (a
    /// [`Step::Crash`] or a genuine bug) and watchdog verdicts on a
    /// [`Step::Stall`], in detection order. Empty on a healthy run. The
    /// phase barrier re-provisions workers, so a failure fences a core
    /// only for the remainder of its phase.
    pub failures: Vec<WorkerFailure>,
    /// Per-core stage breakdown, when [`ObsConfig::profile`] was on.
    /// Ticks are wall nanoseconds (`ticks_per_us = 1000`), bracketed
    /// per batch with a watermark so nested drains on the
    /// work-conserving redirect path are attributed exactly once.
    pub profile: Option<StageProfiler>,
    /// Every health event the run emitted, when [`ObsConfig::health`]
    /// was on: ingress queue high-water crossings, captured worker
    /// deaths, watchdog fences, fault injections, and elastic
    /// reconfigurations, timestamped in wall nanoseconds.
    pub health: Option<HealthReport>,
    /// The streaming reorder estimate, when [`ObsConfig::reorder`] was
    /// on: per-flow reordered-completion counts (exact) and bounded
    /// windowed depth histograms, fed a completed NF batch at a time,
    /// in batch order — the order in which the batched dataplane hands
    /// packets to egress.
    pub reorder: Option<ReorderReport>,
    /// Tail-latency attribution, when [`ObsConfig::tail`] was on:
    /// per-worker exemplar tables (each tracker lives for the whole
    /// run, so a rolling threshold warms up once) merged into one
    /// report. Spans are wall nanoseconds at batch grain: a packet
    /// waits until its batch's NF call starts and completes when that
    /// call returns (that is when it can leave), so queue wait and
    /// redirect transit run from the descriptor timestamps to the
    /// batch's start and the NF span is the batch's service window. The
    /// framework classify/tx overhead is not separable per packet on
    /// this runtime, so those spans read 0 and the NF span absorbs them
    /// — the exact decomposition lives in the simulator.
    pub tail: Option<TailReport>,
    /// The flight-recorder snapshot, when [`ObsConfig::flight`] was on:
    /// each worker's last-N events (batch drains, redirects, ring-full
    /// drops), frozen at the first captured worker death or watchdog
    /// fence. Ingress-side events (queue-full drops, high-water
    /// crossings) are not recorded on this runtime: a ring has one
    /// writer, its worker, and the ingress lane owns none — a second
    /// writer per core would need a time-ordered merge.
    pub flight: Option<FlightSnapshot>,
    /// Most records any worker's SCR version guard held at once
    /// ([`crate::scr::ScrReplica::len_hwm`]; 0 outside SCR): what the
    /// guard floor keeps near the live flow count where it used to
    /// follow the cumulative one.
    pub scr_guard_hwm: usize,
}

/// The real-thread middlebox. See the module docs for scope.
pub struct ThreadedMiddlebox;

struct WorkerShared<NF: NetworkFunction> {
    /// The NIC receive queues, a burst of up to `batch_size`
    /// descriptors per slot: one claim, one push and one pop per burst.
    rx: Vec<ArrayQueue<Vec<Desc>>>,
    rings: Vec<ArrayQueue<Desc>>,
    tables: SharedTables<NF::Flow>,
    /// The run's dispatch policy at this phase's epoch.
    dispatch: Dispatch,
    ingress_done: AtomicBool,
    /// Packets pushed to rx queues and not yet claimed by a worker batch.
    rx_remaining: AtomicU64,
    /// Redirected descriptors not yet consumed (or dropped) by their
    /// target. Incremented *before* the owning batch releases its
    /// `rx_remaining` claim, so `rx_remaining + redirects_outstanding`
    /// never passes through zero while a packet is in flight — the
    /// invariant the shutdown protocol relies on.
    redirects_outstanding: AtomicU64,
    batch_size: usize,
    redirect_retries: usize,
    /// Per-worker "declared dead" flags: set by a worker that captured
    /// its own NF panic, or by the watchdog fencing a stalled worker.
    /// Ingress blackholes dead queues; redirects toward a dead ring are
    /// declared lost.
    dead: Vec<AtomicBool>,
    /// Packets lost to worker failures (in-NF at panic time, stranded in
    /// a dead worker's queues, steered or redirected to a dead core).
    /// Folded into [`MiddleboxStats::lost_packets`] at the phase end.
    lost: AtomicU64,
    /// The [`Step::Crash`] or [`Step::Stall`] armed for this phase, if
    /// any.
    fault: Option<Step>,
    /// Set by the worker that fired the injected fault, so the runner
    /// can disarm it for subsequent phases.
    fault_fired: AtomicBool,
    /// The run's observation hub: what the workers' lanes, the watchdog
    /// (which reads progress from its live slots) and the runner share.
    obs: Arc<ObsHub>,
    /// The phase's replication plane: under SCR workers publish their
    /// batch's updates into every live peer's log and replay their own
    /// log before claiming new work.
    replication: Replication<NF::Flow>,
    /// Workers that have permanently stopped publishing SCR updates
    /// (reached the quiesced exit condition, or died). A worker may only
    /// exit once every peer is counted here *and* its own log is empty —
    /// otherwise a replica could leave the phase behind its peers.
    scr_done: AtomicUsize,
    /// Wall-clock zero for trace timestamps (shared by all threads).
    anchor: Instant,
    /// Clock reads the phase's workers made, for [`clock_reads`].
    #[cfg(test)]
    clock_reads: AtomicU64,
}

/// Per-worker mutable state for one phase.
struct Worker<'a, NF: NetworkFunction> {
    nf: &'a NF,
    shared: &'a WorkerShared<NF>,
    id: usize,
    ctx: SharedCtx<NF::Flow>,
    out: Vec<Packet>,
    nf_drops: u64,
    ring_drops: u64,
    stats: CoreStats,
    /// This worker's lane of the observation sink, borrowed for the
    /// phase: the lane (its rings, series, tail threshold) outlives it.
    lane: &'a mut ObsLane,
    /// Counter values already attributed to a sampling bucket. Deltas
    /// are taken against this watermark, so the nested drains on the
    /// work-conserving redirect path attribute each increment exactly
    /// once (the inner drain advances the watermark; the enclosing
    /// batch picks up only the remainder).
    mark: SampleMark,
    /// Wall time already attributed to a profiled stage span. Spans are
    /// clamped to start at this watermark, so the nested drains on the
    /// work-conserving redirect path never double-attribute a window
    /// (the inner batch's spans advance the watermark; the enclosing
    /// span records only the remainder).
    prof_mark_ns: u64,
    /// Set when this worker captures its own NF panic.
    failure: Option<WorkerFailure>,
    /// The injected fault fires at most once per worker.
    fault_fired: bool,
    /// Packet buffer of the NF call: `drain_rx` and `drain_ring` pop a
    /// batch's local packets straight into it, the NF runs on it in
    /// place. Reused across drains so the hot path never allocates.
    scratch_pkts: Vec<Packet>,
    /// Connection-packet bits matching `scratch_pkts` by index.
    scratch_conn: Vec<bool>,
    /// The staged packets' identities and timestamps, matching
    /// `scratch_pkts` by index — filled only while a per-packet plane
    /// (or, for a ring batch's redirect-push stamps, the flight
    /// recorder) will read them; empty otherwise.
    scratch_meta: Vec<DescMeta>,
    /// The (rare) descriptors of the batch being formed whose designated
    /// core is elsewhere, with that core — set aside by `drain_rx` and
    /// pushed before the NF runs. `push_redirect` re-enters `drain_ring`
    /// (and hence `process_batch_local`) on its work-conserving retry
    /// path, so all four staging buffers are taken with `mem::take`
    /// while the redirects leave — a nested batch sees (and restores)
    /// empty ones.
    redirects: Vec<(Desc, usize)>,
    /// Scratch verdict buffer for [`engine::run_nf_batch`].
    sink: VerdictSink,
    /// This worker's handle on the phase's replication plane.
    replica: Replica<NF::Flow>,
    /// True once this worker counted itself into
    /// [`WorkerShared::scr_done`] (exactly once per phase).
    scr_done_marked: bool,
    /// True when any lifecycle policy is on (idle aging or the LRU
    /// backstop) — gates the per-iteration clock touch.
    lifecycle_on: bool,
    /// Next idle-sweep deadline, µs of wall clock since the run anchor.
    /// `None` when no idle timeout is configured (sweeps disabled).
    next_sweep_us: Option<u64>,
    /// Highest shared-table total occupancy this worker observed
    /// (sampled at its own sweeps and batch ends); max-folded into
    /// [`MiddleboxStats::table_occupancy_hwm`] at join.
    table_hwm: u64,
    /// Evicted entries whose NF hook this worker has fired — the
    /// running total the live memory pane polls.
    evictions_hooked: u64,
}

/// Watermark of counters (and the wall time) last folded into a
/// sampling bucket. See [`Worker::sample_batch`].
#[derive(Debug, Clone, Copy, Default)]
struct SampleMark {
    processed: u64,
    forwarded: u64,
    nf_drops: u64,
    ring_drops: u64,
    redirected_in: u64,
    redirected_out: u64,
    end_ns: u64,
}

struct WorkerResult {
    out: Vec<Packet>,
    nf_drops: u64,
    ring_drops: u64,
    stats: CoreStats,
    failure: Option<WorkerFailure>,
    scr_lag_hist: [u64; BATCH_HIST_BUCKETS],
    scr_guard_hwm: usize,
    table_hwm: u64,
}

impl<NF: NetworkFunction> WorkerShared<NF> {
    /// Nanoseconds since the run anchor (see [`Worker::now_ns`]).
    fn now_ns(&self) -> u64 {
        #[cfg(test)]
        self.clock_reads.fetch_add(1, Ordering::Relaxed);
        self.anchor.elapsed().as_nanos() as u64
    }
}

/// A worker's answer to a full log on a peer it publishes to
/// ([`ScrPort::publish`]). A peer that died holding a full log abandons
/// the copy: it can never be replayed. Otherwise the publisher replays
/// its *own* log — work-conserving, and deadlock-free, because two
/// mutually blocked publishers each make room for the other — yields,
/// and retries.
fn scr_make_room<NF: NetworkFunction>(
    nf: &NF,
    tables: &SharedTables<NF::Flow>,
    dead: &[AtomicBool],
    port: &mut ScrPort<NF::Flow>,
    peer: usize,
) -> Backoff {
    if dead[peer].load(Ordering::SeqCst) {
        return Backoff::Abandon;
    }
    let me = port.core();
    port.replay(nf, |plane| plane.floor(me), |run| tables.replica(me, run));
    std::thread::yield_now();
    Backoff::Retry
}

/// Drain a dead worker's queues, counting every stranded descriptor as
/// a lost packet and releasing its shutdown-protocol claims so the
/// survivors can terminate. The watchdog and the dead worker's own
/// zombie loop both call it, racing benignly: each descriptor is popped
/// — and thus counted — exactly once. Returns whether it popped
/// anything.
fn drain_dead_queues<NF: NetworkFunction>(shared: &WorkerShared<NF>, core: usize) -> bool {
    let mut any = false;
    while let Some(burst) = shared.rx[core].pop() {
        let n = burst.len() as u64;
        shared.lost.fetch_add(n, Ordering::SeqCst);
        shared.rx_remaining.fetch_sub(n, Ordering::SeqCst);
        any = true;
    }
    while shared.rings[core].pop().is_some() {
        shared.lost.fetch_add(1, Ordering::SeqCst);
        shared.redirects_outstanding.fetch_sub(1, Ordering::SeqCst);
        any = true;
    }
    // A fenced core's log truncates to accounted drops.
    any |= shared.replication.truncate(core) > 0;
    any
}

/// The ingress thread's side of one phase: what the NIC does between
/// steering a packet and a worker polling it. Each receive queue has
/// one open burst; it is pushed when it holds `batch_size` packets,
/// and every open burst is pushed when the phase's input ends.
struct Ingress<'a, NF: NetworkFunction> {
    shared: &'a WorkerShared<NF>,
    config: &'a ThreadedConfig,
    /// The burst being filled for each queue.
    open: Vec<Vec<Desc>>,
    /// Arrival stamps: one clock read labels the next `batch_size`
    /// admissions, and a fresh one follows a backpressure yield — a
    /// stamp is never later than the push it labels, and over-states a
    /// packet's wait by the admissions that share it plus the time the
    /// packet's burst took to fill.
    arrival_ns: u64,
    stamped: usize,
    /// `(id, flow, arrival)` of the burst being pushed, kept while
    /// tracing for the admission events emitted after the push.
    traced: Vec<(u64, u64, u64)>,
    /// Deepest each queue was seen after a push, in packets.
    rx_hwm: Vec<u64>,
    queue_drops: u64,
    /// Packets steered to a failed core's queue.
    lost: u64,
}

impl<'a, NF: NetworkFunction> Ingress<'a, NF> {
    fn new(shared: &'a WorkerShared<NF>, config: &'a ThreadedConfig) -> Self {
        let queues = shared.rx.len();
        Ingress {
            shared,
            config,
            open: (0..queues).map(|_| Vec::new()).collect(),
            arrival_ns: 0,
            stamped: 0,
            traced: Vec::new(),
            rx_hwm: vec![0; queues],
            queue_drops: 0,
            lost: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.anchor.elapsed().as_nanos() as u64
    }

    /// Admit packet `id`, which the NIC steered to queue `q`, into that
    /// queue's open burst, pushing the burst once it is full.
    fn admit(&mut self, lane: &mut ObsLane, q: usize, pkt: Packet, id: u64) {
        // Parse headers exactly once: the classification rides with the
        // descriptor through queues and rings.
        let class = PacketClass::of(&pkt);
        let flow = self.shared.obs.flow_hash(class.key);
        if self.shared.dead[q].load(Ordering::SeqCst) {
            // The NIC keeps steering to the failed queue until a
            // reconfiguration reprograms it; until then those packets
            // are simply gone.
            self.lost += 1;
            lane.lost(q, flow, id, || self.now_ns());
            return;
        }
        if self.shared.obs.cfg.any() {
            if self.stamped == 0 {
                self.arrival_ns = self.now_ns();
                self.stamped = self.config.batch_size;
                #[cfg(test)]
                clock_reads::count(clock_reads::INGRESS, 1);
            }
            self.stamped -= 1;
        }
        let batch = self.config.batch_size;
        let burst = &mut self.open[q];
        if burst.capacity() == 0 {
            burst.reserve_exact(batch);
        }
        burst.push(Desc {
            pkt,
            class,
            meta: DescMeta {
                id,
                flow,
                arrival_ns: self.arrival_ns,
                relay_ns: 0,
            },
        });
        if burst.len() == batch {
            self.push(lane, q);
        }
    }

    /// Push every open burst: the phase's input has ended.
    fn flush(&mut self, lane: &mut ObsLane) {
        for q in 0..self.open.len() {
            if !self.open[q].is_empty() {
                self.push(lane, q);
            }
        }
    }

    /// Push queue `q`'s open burst: one claim, one push, one depth read.
    /// A burst the queue still refuses after the retries is dropped
    /// whole, each packet an accounted `queue_drop`.
    fn push(&mut self, lane: &mut ObsLane, q: usize) {
        let mut burst = std::mem::take(&mut self.open[q]);
        let n = burst.len() as u64;
        // The burst's trace events get their sequence numbers *before*
        // the push, so a worker's first event for any of its packets
        // (allocated after its pop) sorts after.
        lane.reserve_seqs(n);
        if lane.tracing() {
            self.traced.clear();
            let meta = burst
                .iter()
                .map(|d| (d.meta.id, d.meta.flow, d.meta.arrival_ns));
            self.traced.extend(meta);
        }
        // Claim before push: a consumer's per-batch decrement must
        // never race the counter below zero.
        let shared = self.shared;
        shared.rx_remaining.fetch_add(n, Ordering::SeqCst);
        let rx = &shared.rx[q];
        let batch = self.config.batch_size as u64;
        let capacity = rx.capacity() as u64 * batch;
        for _ in 0..=self.config.ingress_retries {
            match rx.push(burst) {
                Ok(()) => {
                    let depth = rx.len() as u64 * batch;
                    self.rx_hwm[q] = self.rx_hwm[q].max(depth);
                    lane.queue_depth(q, depth, capacity, || self.now_ns());
                    for &(id, flow, arrival_ns) in &self.traced {
                        lane.ingress(q, arrival_ns, flow, id);
                    }
                    return;
                }
                Err(back) => {
                    burst = back;
                    self.rx_hwm[q] = capacity;
                    std::thread::yield_now();
                    // Whoever is admitted next waited less.
                    self.stamped = 0;
                    #[cfg(test)]
                    clock_reads::count(clock_reads::YIELDS, 1);
                }
            }
        }
        shared.rx_remaining.fetch_sub(n, Ordering::SeqCst);
        self.queue_drops += n;
        // Clock read only on this already-slow drop path.
        let ts = self.now_ns();
        for d in &burst {
            lane.drop(q, ts, DropKind::QueueFull, d.meta.flow, d.meta.id);
        }
    }
}

impl ThreadedMiddlebox {
    /// Run `phases` through `nf` on `config.num_workers` OS threads, one
    /// [`Step::Phase`] each. Ingress classification (RSS / checksum
    /// spray) runs on the calling thread, as the NIC performs it ahead
    /// of the cores.
    pub fn run<NF: NetworkFunction>(
        config: &ThreadedConfig,
        nf: &NF,
        phases: Vec<Vec<Packet>>,
    ) -> ThreadedOutcome {
        Self::run_steps(config, nf, phases.into_iter().map(Step::Phase).collect())
    }

    /// Take `steps` in order, starting on `config.num_workers` workers:
    /// phases of packets and, at the barriers between them, rescales, a
    /// crash or a stall. What the run needs follows from the list:
    ///
    /// * With a [`Step::Rescale`] the run is elastic ([`Dispatch::new`]:
    ///   under Sprayer a scale-up migrates nothing and a scale-down moves
    ///   only the leavers' flows; under RSS a rescale migrates every flow
    ///   whose queue changed).
    /// * Only a [`Step::Stall`] spawns the watchdog.
    /// * Telemetry covers the widest width any step asks for; cores
    ///   absent in a given phase simply record nothing during it.
    ///
    /// # Panics
    ///
    /// If `steps` holds more than one [`Step::Crash`] or
    /// [`Step::Stall`], or a `Rescale(0)`; or if `config.num_workers`
    /// or `config.batch_size` is 0.
    pub fn run_steps<NF: NetworkFunction>(
        config: &ThreadedConfig,
        nf: &NF,
        steps: Vec<Step>,
    ) -> ThreadedOutcome {
        let (mut elastic, mut watchdog_ns, mut faults) = (false, None, 0);
        let mut num_workers = config.num_workers;
        for step in &steps {
            match *step {
                Step::Phase(_) => {}
                Step::Rescale(workers) => {
                    assert!(workers >= 1, "cannot rescale to zero workers");
                    elastic = true;
                    num_workers = num_workers.max(workers);
                }
                Step::Crash { .. } => faults += 1,
                Step::Stall { deadline_ns, .. } => {
                    faults += 1;
                    watchdog_ns = Some(deadline_ns);
                }
            }
        }
        assert!(faults <= 1, "at most one Crash or Stall per run");
        assert!(config.num_workers >= 1 && config.batch_size >= 1);
        let nf_config = nf.config();
        // No rate cap and no spray subset: wall-clock timing is not
        // modeled here.
        let mut dispatch = Dispatch::new(
            config.mode,
            nf_config.stateless,
            None,
            None,
            elastic,
            config.num_workers,
        );
        let mut tables = SharedTables::with_lifecycle(
            dispatch.map().clone(),
            nf_config.flow_table_capacity,
            config.lifecycle,
        );
        let mut nic = dispatch.nic();
        let mut cur_workers = config.num_workers;
        let mut reconfigs: Vec<ReconfigReport> = Vec::new();
        let mut failures: Vec<WorkerFailure> = Vec::new();
        // The fault step stays armed until some worker fires it.
        let mut fault_pending = None;

        let mut stats = MiddleboxStats::new(num_workers);
        stats.lifecycle_enabled = config.lifecycle.enabled();
        let mut forwarded: Vec<Packet> = Vec::new();
        let mut scr_guard_hwm = 0;
        let anchor = Instant::now();
        // One hub and one lane per worker (plus the ingress thread's)
        // for the whole run: lanes outlive phases. The watchdog reads
        // progress from the live slots; allocate internal ones when it
        // is armed without an external reader.
        let profile = (&*nf.profile_label(), THREAD_TICKS_PER_US);
        let mut hub = ObsHub::new(
            config.obs,
            "threads",
            THREAD_TICKS_PER_US,
            profile,
            num_workers,
            num_workers,
        );
        hub.live = config
            .live
            .clone()
            .or_else(|| watchdog_ns.map(|_| Arc::new(LiveSlots::new(num_workers))));
        hub.profile_live = config.profile_live.clone();
        let hub = Arc::new(hub);
        let mut lanes: Vec<ObsLane> = (0..num_workers).map(|w| hub.lane(w..w + 1, true)).collect();
        // The ingress thread records admission events, queue drops (a
        // drop never reaches a worker, so only ingress can attribute it
        // to a bucket) and high-water crossings into its own lane.
        let mut ingress_lane = hub.lane(0..num_workers, false);
        let mut next_pkt_id: u64 = 0;
        for step in steps {
            let packets = match step {
                Step::Phase(packets) => packets,
                Step::Rescale(workers) if workers == cur_workers => continue,
                Step::Rescale(workers) => {
                    // Quiesced barrier: the previous phase's workers are
                    // joined and every queue is empty, so the swap needs
                    // no synchronization — quiesce → remap → migrate →
                    // resume.
                    let transition = Instant::now();
                    let at_ns = anchor.elapsed().as_nanos() as u64;
                    // Pre-migration occupancy is a high-water candidate
                    // the workers' own sampling can miss (they have
                    // joined).
                    stats.table_occupancy_hwm =
                        stats.table_occupancy_hwm.max(tables.total_entries() as u64);
                    dispatch.rescale(workers);
                    let (new_tables, migration) =
                        tables.rescaled(dispatch.map().clone(), &mut |key, state, _from, to| {
                            nf.freeze_flow(key, state);
                            nf.adopt_flow(key, state, to);
                        });
                    nic = dispatch.nic();
                    reconfigs.push(ReconfigReport {
                        epoch: dispatch.map().epoch(),
                        mode: config.mode,
                        from_cores: cur_workers,
                        to_cores: workers,
                        migrated_flows: migration.migrated_flows,
                        retained_flows: migration.retained_flows,
                        // The barrier drained everything first; no
                        // packet is in flight to re-steer on this path.
                        migrated_packets: 0,
                        downtime_ns: transition.elapsed().as_nanos() as u64,
                        at_ns,
                    });
                    tables = new_tables;
                    cur_workers = workers;
                    let event = HealthEvent::ReconfigPhase {
                        epoch: dispatch.map().epoch(),
                        phase: "rescale",
                        cores: workers,
                    };
                    hub.health(at_ns, event);
                    continue;
                }
                fault => {
                    fault_pending = Some(fault);
                    continue;
                }
            };
            stats.offered += packets.len() as u64;
            let shared = WorkerShared::<NF> {
                rx: (0..cur_workers)
                    .map(|_| ArrayQueue::new(config.queue_capacity.div_ceil(config.batch_size)))
                    .collect(),
                rings: (0..cur_workers)
                    .map(|_| ArrayQueue::new(config.ring_capacity))
                    .collect(),
                tables: tables.clone(),
                dispatch: dispatch.clone(),
                ingress_done: AtomicBool::new(false),
                rx_remaining: AtomicU64::new(0),
                redirects_outstanding: AtomicU64::new(0),
                batch_size: config.batch_size,
                redirect_retries: config.redirect_retries,
                dead: (0..cur_workers).map(|_| AtomicBool::new(false)).collect(),
                lost: AtomicU64::new(0),
                fault: fault_pending.clone(),
                fault_fired: AtomicBool::new(false),
                obs: hub.clone(),
                replication: dispatch.replication(),
                scr_done: AtomicUsize::new(0),
                anchor,
                #[cfg(test)]
                clock_reads: AtomicU64::new(0),
            };

            let mut results: Vec<(usize, WorkerResult)> = Vec::new();
            let mut ingress = Ingress::new(&shared, config);
            let watchdog_stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for (worker, lane) in lanes[..cur_workers].iter_mut().enumerate() {
                    let shared = &shared;
                    handles.push(s.spawn(move || Worker::new(nf, shared, worker, lane).run()));
                }
                let watchdog = watchdog_ns.map(|deadline_ns| {
                    let shared = &shared;
                    let stop = &watchdog_stop;
                    s.spawn(move || watchdog_loop(shared, stop, deadline_ns))
                });

                // Ingress on this thread: steer, classify and enqueue a
                // burst at a time, with bounded backpressure.
                for pkt in packets {
                    let (queue, _) = nic.steer(&pkt);
                    ingress.admit(&mut ingress_lane, usize::from(queue), pkt, next_pkt_id);
                    next_pkt_id += 1;
                }
                ingress.flush(&mut ingress_lane);
                shared.ingress_done.store(true, Ordering::SeqCst);

                for (worker, h) in handles.into_iter().enumerate() {
                    // Workers capture their own NF panics and return a
                    // structured failure; a panic that still escapes
                    // (e.g. outside the guarded dispatch) is converted
                    // here rather than propagated.
                    match h.join() {
                        Ok(r) => results.push((worker, r)),
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            // A panic that escaped the guarded dispatch
                            // never reached `record_death`: latch and
                            // announce here (the marker lives in the
                            // freeze record only).
                            let event = HealthEvent::WorkerDeath {
                                core: worker,
                                message: message.clone(),
                            };
                            hub.health(anchor.elapsed().as_nanos() as u64, event);
                            failures.push(WorkerFailure {
                                core: worker,
                                message,
                            });
                        }
                    }
                }
                watchdog_stop.store(true, Ordering::SeqCst);
                if let Some(h) = watchdog {
                    // Cut its poll sleep short: the last pass runs now.
                    h.thread().unpark();
                    failures.extend(h.join().unwrap_or_default());
                }
            });
            shared.replication.settle(&mut stats);
            stats.lost_packets += shared.lost.load(Ordering::SeqCst) + ingress.lost;
            stats.queue_drops += ingress.queue_drops;
            let rx_hwm = ingress.rx_hwm;
            #[cfg(test)]
            clock_reads::count(
                clock_reads::WORKER,
                shared.clock_reads.load(Ordering::Relaxed),
            );
            if shared.fault_fired.load(Ordering::SeqCst) {
                fault_pending = None;
            }

            for (worker, r) in results {
                if let Some(f) = r.failure {
                    failures.push(f);
                }
                stats.nf_drops += r.nf_drops;
                stats.ring_drops += r.ring_drops;
                stats.forwarded += r.out.len() as u64;
                forwarded.extend(r.out);
                stats.per_core[worker].merge(&r.stats);
                stats.per_core[worker].observe_rx_depth(rx_hwm[worker]);
                stats.table_occupancy_hwm = stats.table_occupancy_hwm.max(r.table_hwm);
                for (bucket, n) in stats.scr_lag_hist.iter_mut().zip(r.scr_lag_hist) {
                    *bucket += n;
                }
                scr_guard_hwm = scr_guard_hwm.max(r.scr_guard_hwm);
            }
        }
        // Lifecycle counters are cumulative on the shared tables (they
        // survive `rescaled` epoch transitions with the flow-entry
        // conservation identity rebalanced), so the final snapshot is
        // the run's total.
        stats.sync_lifecycle(tables.counters(), tables.total_entries());
        #[cfg(test)]
        seq_claims::count(lanes.iter().map(ObsLane::seq_claims).sum());
        lanes.push(ingress_lane);
        let report = hub.finish(lanes, &stats);
        ThreadedOutcome {
            forwarded,
            stats,
            trace: report.trace,
            probes: report.probes,
            samples: report.samples,
            reconfigs,
            failures,
            profile: report.profile,
            health: report.health,
            reorder: report.reorder,
            tail: report.tail,
            flight: report.flight,
            scr_guard_hwm,
        }
    }
}

/// The failure-detection watchdog: poll every worker's progress at a
/// quarter of the deadline; a worker with pending work whose
/// [`LiveSlots`] `processed` counter has not moved for a full deadline
/// is declared dead and fenced — its queues are drained as losses so
/// the survivors' shutdown protocol terminates. Already-dead workers
/// (self-declared after a captured panic) are re-drained every poll to
/// close the race with in-flight pushes.
fn watchdog_loop<NF: NetworkFunction>(
    shared: &WorkerShared<NF>,
    stop: &AtomicBool,
    deadline_ns: u64,
) -> Vec<WorkerFailure> {
    let watch = shared
        .obs
        .live
        .as_deref()
        .expect("watchdog requires live slots");
    let deadline = Duration::from_nanos(deadline_ns);
    let poll = (deadline / 4).max(Duration::from_micros(50));
    let n = shared.rx.len();
    let mut last_processed = vec![0u64; n];
    let mut stalled_since: Vec<Option<Instant>> = vec![None; n];
    let mut failures = Vec::new();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let snap = watch.snapshot();
        for w in 0..n {
            if shared.dead[w].load(Ordering::SeqCst) {
                drain_dead_queues(shared, w);
                continue;
            }
            let processed = snap.get(w).map_or(0, |c| c.processed);
            let pending = !shared.rx[w].is_empty() || !shared.rings[w].is_empty();
            if processed != last_processed[w] || !pending {
                last_processed[w] = processed;
                stalled_since[w] = None;
            } else {
                let since = *stalled_since[w].get_or_insert_with(Instant::now);
                if since.elapsed() >= deadline {
                    shared.dead[w].store(true, Ordering::SeqCst);
                    // The fenced worker's ring freezes as-is; the
                    // marker lives in the freeze record only (the ring
                    // is owned by the wedged thread).
                    let event = HealthEvent::WatchdogFence {
                        core: w,
                        stalled_ticks: since.elapsed().as_nanos() as u64,
                    };
                    shared
                        .obs
                        .health(shared.anchor.elapsed().as_nanos() as u64, event);
                    failures.push(WorkerFailure {
                        core: w,
                        message: format!(
                            "watchdog: no progress for {} ns with work pending \
                             (deadline {} ns)",
                            since.elapsed().as_nanos(),
                            deadline_ns
                        ),
                    });
                    drain_dead_queues(shared, w);
                }
            }
        }
        if stopping {
            break;
        }
        std::thread::park_timeout(poll);
    }
    failures
}

impl<'a, NF: NetworkFunction> Worker<'a, NF> {
    fn new(nf: &'a NF, shared: &'a WorkerShared<NF>, id: usize, lane: &'a mut ObsLane) -> Self {
        Worker {
            nf,
            shared,
            id,
            ctx: shared.tables.ctx(id),
            out: Vec::new(),
            nf_drops: 0,
            ring_drops: 0,
            stats: CoreStats::default(),
            lane,
            mark: SampleMark::default(),
            prof_mark_ns: 0,
            failure: None,
            fault_fired: false,
            scratch_pkts: Vec::with_capacity(shared.batch_size),
            scratch_conn: Vec::with_capacity(shared.batch_size),
            scratch_meta: Vec::new(),
            redirects: Vec::new(),
            sink: VerdictSink::with_capacity(shared.batch_size),
            replica: shared.replication.port(id),
            scr_done_marked: false,
            lifecycle_on: shared.tables.lifecycle_config().enabled(),
            next_sweep_us: {
                let lc = shared.tables.lifecycle_config();
                lc.idle_timeout_us.map(|_| lc.sweep_interval_us.max(1))
            },
            table_hwm: 0,
            evictions_hooked: 0,
        }
    }

    /// Where an armed [`Step::Crash`] cuts a batch of `len`
    /// local packets: `Some(k)` when this worker's `after`-th packet of
    /// the phase is the batch's `k`-th, so the NF runs on the first `k`
    /// and then panics — the fault fires at exactly its configured
    /// count wherever the batch boundaries fall. `None` when no panic is
    /// armed for this worker, or it falls in a later batch.
    fn panic_cut(&self, len: usize) -> Option<usize> {
        match self.shared.fault {
            Some(Step::Crash { core, after }) if core == self.id && !self.fault_fired => {
                let k = after.saturating_sub(self.stats.processed);
                (k < len as u64).then_some(k as usize)
            }
            _ => None,
        }
    }

    /// Mark the injected fault fired (at most once per run: the runner
    /// disarms it for later phases) and announce it on the flight
    /// recorder and the health bus.
    fn fire_fault(&mut self, kind: &'static str) {
        self.fault_fired = true;
        self.shared.fault_fired.store(true, Ordering::SeqCst);
        let core = self.id;
        self.lane
            .health(self.now_ns(), HealthEvent::FaultInjected { kind, core });
    }

    /// Nanoseconds since the run anchor. Read twice per non-empty batch
    /// whatever the configuration (the batch's start in
    /// `drain_rx`/`drain_ring`, its end in `process_batch_local`: that
    /// pair is [`CoreStats::busy_cycles`]). The planes add at most four
    /// more, because a stage boundary is one instant, read once and
    /// handed on: where batch formation began (profiling), the NF
    /// call's start and its end (profiling or a per-packet plane), and
    /// the end of an SCR publish. Every other caller is a redirect
    /// stamp, the lifecycle clock or a fault path.
    fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    /// Close a non-empty batch: charge its wall-clock busy window
    /// `start_ns..end_ns` (the batch's two unconditional clock reads)
    /// into [`CoreStats::busy_cycles`] and — when sampling or live
    /// telemetry is on — fold every counter delta since the last
    /// watermark into the bucket that `start_ns` falls in. Called once
    /// per non-empty batch; reads no clock itself.
    ///
    /// Busy time is watermarked: a nested drain on the work-conserving
    /// redirect path already claimed its window, so the enclosing batch
    /// charges only the remainder — nested drains are never
    /// double-counted.
    fn close_batch(&mut self, start_ns: u64, end_ns: u64, rx_depth: u64, ring_depth: u64) {
        let busy_ticks = end_ns.saturating_sub(start_ns.max(self.mark.end_ns));
        self.stats.busy_cycles += busy_ticks;
        let was = self.mark;
        let now = SampleMark {
            processed: self.stats.processed,
            forwarded: self.out.len() as u64,
            nf_drops: self.nf_drops,
            ring_drops: self.ring_drops,
            redirected_in: self.stats.redirected_in,
            redirected_out: self.stats.redirected_out,
            end_ns,
        };
        self.mark = now;
        // The delta is computed only if the series or the live slots
        // will take it.
        self.lane.sample(self.id, start_ns, |d| {
            d.processed = now.processed - was.processed;
            d.forwarded = now.forwarded - was.forwarded;
            d.nf_drops = now.nf_drops - was.nf_drops;
            d.ring_drops = now.ring_drops - was.ring_drops;
            d.redirected_in = now.redirected_in - was.redirected_in;
            d.redirected_out = now.redirected_out - was.redirected_out;
            d.rx_occupancy_hwm = rx_depth;
            d.ring_occupancy_hwm = ring_depth;
            d.busy_ticks = busy_ticks;
        });
        if let Some(live) = self.shared.obs.live.as_deref() {
            // The memory pane's view: own-core occupancy gauge (one
            // read-lock on our own table) and the running hook-confirmed
            // eviction total.
            live.table(
                self.id,
                self.shared.tables.entries_on(self.id) as u64,
                self.evictions_hooked,
            );
        }
    }

    /// A clock read only `wanted` planes pay for; 0 (and no read)
    /// otherwise.
    #[inline]
    fn now_if(&self, wanted: bool) -> u64 {
        if wanted {
            self.now_ns()
        } else {
            0
        }
    }

    /// A profiled span's starting clock read, where no earlier span
    /// ends; 0 (and no read) when profiling is off.
    #[inline]
    fn prof_start(&self) -> u64 {
        self.now_if(self.shared.obs.cfg.profile)
    }

    /// Attribute the wall time `start_ns..end_ns` to `stage`; the
    /// caller read `end_ns` and starts its next span there. Spans are
    /// clamped to the profiling watermark, so sections that nest (the
    /// work-conserving redirect path re-enters `drain_ring` mid-span)
    /// attribute every nanosecond to exactly one stage.
    fn prof_span(&mut self, stage: Stage, start_ns: u64, end_ns: u64) {
        if !self.shared.obs.cfg.profile {
            return;
        }
        let ticks = end_ns.saturating_sub(start_ns.max(self.prof_mark_ns));
        self.prof_mark_ns = end_ns;
        self.lane.stage(self.id, stage, ticks);
    }

    /// Declare this worker dead after a captured NF panic: raise the
    /// shared fence flag (so ingress and redirectors stop feeding us),
    /// record the structured failure, and emit a health event. Loss
    /// accounting stays with the caller — each capture site knows how
    /// many descriptors die with it.
    fn record_death(&mut self, message: String) {
        self.shared.dead[self.id].store(true, Ordering::SeqCst);
        // The crash is stamped into our own ring, then latches the run
        // (first crash wins).
        let event = HealthEvent::WorkerDeath {
            core: self.id,
            message: message.clone(),
        };
        self.lane.health(self.now_ns(), event);
        self.failure = Some(WorkerFailure {
            core: self.id,
            message,
        });
    }

    fn run(mut self) -> WorkerResult {
        loop {
            self.maybe_stall();
            if self.failure.is_some() || self.shared.dead[self.id].load(Ordering::SeqCst) {
                // Dead (own captured panic, or fenced by the watchdog):
                // degrade to draining our queues as accounted losses so
                // the survivors' shutdown protocol still terminates.
                self.zombie_drain();
                break;
            }
            // Advance the lifecycle clock before touching state so the
            // batch's writes carry fresh stamps — recency feeds both
            // idle aging and LRU victim choice (one uncontended write
            // lock on our own table; skipped when the lifecycle is off).
            if self.lifecycle_on {
                self.ctx.touch_clock(self.now_ns() / 1_000);
            }
            // SCR replay before new work — the same replay-before-
            // service ordering the simulator enforces per dequeue. Here
            // no claimed sequence range is waiting to be pushed, which
            // is what lets the peers' guards forget.
            self.replica.quiesce();
            let mut did_work = self.scr_replay() > 0;
            // Ring (connection) work first, as in §3.3.
            did_work |= self.drain_ring();
            did_work |= self.drain_rx();
            // Lifecycle housekeeping between batches: fire hooks for
            // LRU victims the drains staged (their Dels shipped with
            // the batch), then age idle entries. Sweeps stop once this
            // worker enters the SCR shutdown epilogue — a Del published
            // after the peers quiesced could strand in their logs.
            self.run_eviction_hooks();
            if !self.scr_done_marked {
                self.maybe_sweep();
            }

            if !did_work {
                // Shutdown: nothing can appear in any ring once all rx
                // queues are drained and no redirect is outstanding —
                // guaranteed because a batch registers its redirects
                // (`redirects_outstanding`) before releasing its
                // `rx_remaining` claim.
                if self.shared.ingress_done.load(Ordering::SeqCst)
                    && self.shared.rx_remaining.load(Ordering::SeqCst) == 0
                    && self.shared.redirects_outstanding.load(Ordering::SeqCst) == 0
                    && self.shared.rings[self.id].is_empty()
                {
                    // SCR epilogue: stop publishing (count ourselves
                    // done, once), then keep replaying until every peer
                    // has also stopped and our own log is dry. A worker
                    // must never exit with unapplied updates pending, or
                    // the phase barrier would leak replica divergence
                    // into the next phase.
                    self.mark_scr_done();
                    let shared = self.shared;
                    let all = || shared.scr_done.load(Ordering::SeqCst) == shared.rx.len();
                    if self.replica.settled(all) {
                        break;
                    }
                }
                std::thread::yield_now();
            }
        }
        WorkerResult {
            out: self.out,
            nf_drops: self.nf_drops,
            ring_drops: self.ring_drops,
            stats: self.stats,
            failure: self.failure,
            scr_lag_hist: self.replica.take_lag_hist(),
            scr_guard_hwm: self.replica.guard_hwm(),
            table_hwm: self.table_hwm,
        }
    }

    /// Replay every pending remote state-update into this core's full
    /// SCR replica through its handle, under one
    /// write-lock acquisition for the whole drain, then forget below
    /// the guard floor ([`crate::scr`], "Guard growth"). Profiled as
    /// classify work (replay is part of admission, exactly where the
    /// simulator charges it), from the floor read on. Returns updates
    /// consumed.
    fn scr_replay(&mut self) -> u64 {
        let (shared, id) = (self.shared, self.id);
        let mut span = None;
        let floor = |plane: &SharedScrPlane<_>| {
            span = shared.obs.cfg.profile.then(|| shared.now_ns());
            plane.floor(id)
        };
        let applied = self
            .replica
            .replay(self.nf, floor, |run| shared.tables.replica(id, run));
        if let Some(c0) = span {
            let c1 = self.now_ns();
            self.prof_span(Stage::Classify, c0, c1);
        }
        applied
    }

    /// Extract and multicast the SCR state updates of the first `n`
    /// staged packets (none between batches: a sweep's eviction `Del`s)
    /// through this core's handle, to each peer found alive (a dead
    /// peer's log is dark, not leaking: the copies were never owed to
    /// it). A full live peer log is met with [`scr_make_room`]. The
    /// callers profile it as redirect work — the update log is SCR's
    /// replacement for redirection. False when nothing replicates.
    fn scr_publish(&mut self, n: usize) -> bool {
        let (nf, shared) = (self.nf, self.shared);
        let (pkts, conn) = (&self.scratch_pkts[..n], &self.scratch_conn[..n]);
        let clear = SharedCtx::clear_batch_log;
        self.replica.extract(nf, pkts, conn, &mut self.ctx, clear);
        let sent = self.replica.publish(
            |peer| !shared.dead[peer].load(Ordering::SeqCst),
            |port, peer| scr_make_room(nf, &shared.tables, &shared.dead, port, peer),
        );
        sent.is_some()
    }

    /// Count this worker out of the SCR publishers, once per phase.
    fn mark_scr_done(&mut self) {
        if !self.scr_done_marked {
            self.scr_done_marked = true;
            self.shared.scr_done.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Run the NF's [`NetworkFunction::evict_flow`] hook on every
    /// eviction this worker staged (LRU victims at insert, idle-sweep
    /// reclaims). Runs between batches on the worker's own thread, so
    /// the hook never races the NF's packet path. Under SCR the
    /// victims' Dels were already recorded into the batch mutation log
    /// and shipped by the surrounding `scr_publish`; replicas applying
    /// those Dels do not re-fire the hook.
    fn run_eviction_hooks(&mut self) {
        let evicted = self.ctx.take_evictions();
        if evicted.is_empty() {
            return;
        }
        self.evictions_hooked += evicted.len() as u64;
        for (key, mut state, reason) in evicted {
            self.nf.evict_flow(&key, &mut state, reason);
        }
        // Eviction time is when the table is at its fullest — sample
        // the occupancy high-water here (and at sweeps).
        self.table_hwm = self
            .table_hwm
            .max(self.shared.tables.total_entries() as u64);
    }

    /// Idle-timeout aging on the wall clock: once the sweep deadline
    /// passes, advance this core's lifecycle clock, reclaim its expired
    /// entries (owner-sharded under SCR — see
    /// [`SharedCtx::sweep_idle`]), multicast the eviction Dels, and fire
    /// the NF hooks. A no-op (one branch) when no idle timeout is
    /// configured.
    fn maybe_sweep(&mut self) {
        let Some(due) = self.next_sweep_us else {
            return;
        };
        let now_us = self.now_ns() / 1_000;
        if now_us < due {
            return;
        }
        let lifecycle = self.shared.tables.lifecycle_config();
        self.next_sweep_us = Some(lifecycle.next_sweep(due, now_us, 1));
        self.table_hwm = self
            .table_hwm
            .max(self.shared.tables.total_entries() as u64);
        self.ctx.sweep_idle(now_us);
        let r0 = self.prof_start();
        if self.scr_publish(0) {
            let r1 = self.prof_start();
            self.prof_span(Stage::Redirect, r0, r1);
        }
        self.run_eviction_hooks();
    }

    /// Fire an armed [`Step::Stall`] once its packet
    /// threshold is reached: go silent between batches, exactly like a
    /// worker wedged outside the dataplane's view. The stall sleeps in
    /// short slices and ends early once the watchdog fences this
    /// worker, so a stall can be made far longer than any scheduling
    /// delay without holding the run up.
    fn maybe_stall(&mut self) {
        const SLICE: Duration = Duration::from_millis(1);
        match self.shared.fault {
            Some(Step::Stall {
                core,
                after,
                duration_ns,
                ..
            }) if core == self.id && !self.fault_fired && self.stats.processed >= after => {
                self.fire_fault("stall");
                let end = Instant::now() + Duration::from_nanos(duration_ns);
                while !self.shared.dead[self.id].load(Ordering::SeqCst) {
                    let left = end.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(SLICE));
                }
            }
            _ => {}
        }
    }

    /// A dead worker's exit path: keep both queues empty with
    /// [`drain_dead_queues`] — every drained descriptor is an accounted
    /// loss and a released shutdown-protocol claim — until the system
    /// has settled.
    fn zombie_drain(&mut self) {
        // A dead replica can never replay again: release the
        // publishers-done claim so live peers' SCR epilogue terminates,
        // and discard our log as accounted drops below.
        self.mark_scr_done();
        loop {
            let any = drain_dead_queues(self.shared, self.id);
            if !any
                && self.shared.ingress_done.load(Ordering::SeqCst)
                && self.shared.rx_remaining.load(Ordering::SeqCst) == 0
                && self.shared.redirects_outstanding.load(Ordering::SeqCst) == 0
            {
                break;
            }
            std::thread::yield_now();
        }
    }

    /// Stage one descriptor this worker will process itself for the NF
    /// call: the packet and its connection bit are all the NF reads;
    /// `keep_meta` keeps the descriptor's identity and timestamps
    /// beside them for the planes that read them after the call.
    #[inline]
    fn stage_local(&mut self, desc: Desc, keep_meta: bool) {
        self.scratch_conn.push(desc.class.is_conn);
        self.scratch_pkts.push(desc.pkt);
        if keep_meta {
            self.scratch_meta.push(desc.meta);
        }
    }

    /// The one way a worker runs the NF, over the batch `drain_rx` or
    /// `drain_ring` just staged: redirects leave first, then the NF sees
    /// the local packets as one [`NetworkFunction::handle_batch`] call,
    /// in the buffer they were popped into, and the per-packet planes
    /// (when any is on) are fed from the completed batch.
    ///
    /// A mid-batch panic — a genuine bug, or an armed
    /// [`Step::Crash`] cutting the batch at its configured
    /// count — is accounted through the verdict cursor: the NF completed
    /// exactly `sink.len()` packets, which keep their verdicts; the
    /// in-flight packet and the never-started rest die with the worker
    /// (their redirect registrations were all released up front, so only
    /// the loss count remains to settle).
    ///
    /// `start_ns` is the batch's first clock read, where its redirect
    /// span begins; the return value is its last, where its tx span —
    /// and the busy window `close_batch` charges — ends.
    fn process_batch_local(&mut self, via_ring: bool, start_ns: u64) -> u64 {
        debug_assert_eq!(self.scratch_pkts.len(), self.scratch_conn.len());
        if self.failure.is_none() {
            // Every redirect leaves before the NF runs. `push_redirect`'s
            // work-conserving retry re-enters `drain_ring`, which stages
            // and runs a whole nested batch through this function: the
            // staging buffers must not hold this batch when that
            // happens, so they are `mem::take`n and the nested call sees
            // empty ones.
            let pkts = std::mem::take(&mut self.scratch_pkts);
            let conn = std::mem::take(&mut self.scratch_conn);
            let meta = std::mem::take(&mut self.scratch_meta);
            let mut redirects = std::mem::take(&mut self.redirects);
            for (desc, core) in redirects.drain(..) {
                self.push_redirect(core, desc);
            }
            self.redirects = redirects;
            self.scratch_pkts = pkts;
            self.scratch_conn = conn;
            self.scratch_meta = meta;
        }
        if self.failure.is_some() {
            // Dead: a nested batch's NF panicked, either just now in the
            // redirect phase or before this batch was formed (then its
            // redirects were never pushed, and their registrations are
            // released here). Never run the NF again — the packets this
            // worker still holds die with it. Their queue claims were
            // released when the batch was formed; only the loss count
            // remains to settle.
            let unpushed_redirects = self.redirects.len() as u64;
            let rest = self.scratch_pkts.len() as u64 + unpushed_redirects;
            self.scratch_pkts.clear();
            self.scratch_conn.clear();
            self.scratch_meta.clear();
            self.redirects.clear();
            self.shared.lost.fetch_add(rest, Ordering::SeqCst);
            if unpushed_redirects > 0 {
                self.shared
                    .redirects_outstanding
                    .fetch_sub(unpushed_redirects, Ordering::SeqCst);
            }
            return self.now_ns();
        }
        let obs_on = self.shared.obs.cfg.any();
        // The instants between the batch's two unconditional reads are
        // read only if a plane will look at them.
        let timed = obs_on || self.shared.obs.cfg.profile;
        if self.scratch_pkts.is_empty() {
            // Every packet of the batch left for its designated core.
            let end_ns = self.now_ns();
            self.prof_span(Stage::Redirect, start_ns, end_ns);
            return end_ns;
        }
        let cut = self.panic_cut(self.scratch_pkts.len());
        if cut.is_some() {
            self.fire_fault("crash");
        }
        // One instant ends the redirect span, starts the NF span and is
        // the service start of every packet of the batch. Nested drains
        // inside `push_redirect` advanced the profiling watermark, so
        // the redirect span charges only what this batch itself did
        // since `start_ns`: its accounting and its pushes.
        let t0 = self.now_if(timed);
        self.prof_span(Stage::Redirect, start_ns, t0);
        let dispatch = {
            let nf = self.nf;
            let ctx = &mut self.ctx;
            let sink = &mut self.sink;
            let pkts = &mut self.scratch_pkts;
            let conn = &self.scratch_conn;
            let worker = self.id;
            catch_unwind(AssertUnwindSafe(|| {
                let k = cut.unwrap_or(pkts.len());
                engine::run_nf_batch(nf, &mut pkts[..k], &conn[..k], ctx, sink);
                if cut.is_some() {
                    panic!("injected crash on worker {worker}");
                }
            }))
        };
        // Likewise where the NF span ends: every completed packet of
        // the batch is done here, unless SCR still has to publish what
        // it wrote.
        let mut t1 = self.now_if(timed);
        self.prof_span(Stage::Nf, t0, t1);
        let completed = self.sink.len();
        if let Err(payload) = dispatch {
            // Account the packet that was on the NF when it went down
            // and the unstarted rest, then declare death so ingress and
            // redirectors stop feeding us.
            let unfinished = (self.scratch_pkts.len() - completed) as u64;
            self.shared.lost.fetch_add(unfinished, Ordering::SeqCst);
            self.record_death(panic_message(payload.as_ref()));
        }
        // Publish the completed prefix. The mutation log may also carry
        // writes from the packet that was in flight when a mid-batch
        // panic hit; shipping them keeps peers converged with whatever
        // this core's table actually holds.
        if completed > 0 && self.scr_publish(completed) {
            let published = self.now_if(timed);
            self.prof_span(Stage::Redirect, t1, published);
            t1 = published;
        }
        if obs_on {
            self.observe_completions(completed, via_ring, t0, t1);
        }
        for (i, pkt) in self.scratch_pkts.drain(..).enumerate() {
            if i >= completed {
                break;
            }
            engine::account(&mut self.stats, self.scratch_conn[i], false);
            match self.sink.verdicts()[i] {
                Verdict::Forward => self.out.push(pkt),
                Verdict::Drop => self.nf_drops += 1,
            }
        }
        self.scratch_conn.clear();
        self.scratch_meta.clear();
        // The post-NF remainder — the per-packet planes and verdict
        // accounting — is tx work, and its end is the batch's.
        let end_ns = self.now_ns();
        self.prof_span(Stage::Tx, t1, end_ns);
        end_ns
    }

    /// Feed the per-packet planes from a finished NF call: one pass, in
    /// batch order, over the `completed` prefix of the staged metadata.
    /// Timestamps are batch-grain because that is what batching does to
    /// a packet: every packet of the batch stopped waiting at `t0`
    /// (read just before the NF call) and can leave at `t1` (NF
    /// returned, SCR updates published), so two clock reads per batch
    /// give each packet its queue wait, ring transit, service window
    /// and sojourn, and the spans partition the sojourn exactly.
    /// Packets a mid-batch panic cut off never completed and report
    /// nothing.
    fn observe_completions(&mut self, completed: usize, via_ring: bool, t0: u64, t1: u64) {
        let batch = self.scratch_meta[..completed]
            .iter()
            .zip(self.sink.verdicts())
            .map(|(m, verdict)| Completion {
                id: m.id,
                flow: m.flow,
                arrival: m.arrival_ns,
                relay: via_ring.then_some(m.relay_ns),
                start: t0,
                done: t1,
                dropped: *verdict == Verdict::Drop,
                // Classify/tx framework overhead is not separable per
                // packet here, so those spans are 0 and the NF span
                // absorbs them.
                classify: 0,
                tx: 0,
            });
        self.lane.complete_batch(self.id, batch);
    }

    /// Drain one batch from this worker's ring. Returns true if any
    /// descriptor was consumed.
    fn drain_ring(&mut self) -> bool {
        let ring = &self.shared.rings[self.id];
        let depth = ring.len() as u64;
        self.stats.observe_ring_depth(depth);
        debug_assert!(self.scratch_pkts.is_empty());
        // The flight recorder reads a ring batch's redirect-push stamps.
        let flight = self.shared.obs.cfg.flight;
        let keep_meta = self.shared.obs.cfg.any() || flight;
        // Polling an empty ring is not a span: no read for it.
        let c0 = (depth > 0).then(|| self.prof_start());
        let mut n = 0u64;
        while n < self.shared.batch_size as u64 {
            let Some(desc) = ring.pop() else {
                break;
            };
            n += 1;
            // Every ring descriptor is local by construction (it was
            // redirected *to* us), so the whole batch is staged for one
            // NF call as it is popped.
            self.stage_local(desc, keep_meta);
        }
        if n == 0 {
            return false;
        }
        let sample_start = self.now_ns();
        // Pulling redirected descriptors off the ring is redirect work.
        self.prof_span(Stage::Redirect, c0.unwrap_or(sample_start), sample_start);
        // Per-batch accounting: these descriptors are now owned by this
        // worker and will be processed before its next shutdown check.
        self.shared
            .redirects_outstanding
            .fetch_sub(n, Ordering::SeqCst);
        self.stats.record_batch(n);
        self.stats.redirected_in += n;
        // The batch's trace events — its `Drain`, and each packet's
        // `RedirectIn`, `NfStart` and `NfDone` — in one reservation,
        // taken after the pops.
        self.lane.reserve_seqs(1 + 3 * n);
        self.lane.batch(self.id, sample_start, n, depth);
        if flight {
            // One transfer-latency event per redirected descriptor,
            // measured push → this drain (`relay_ns` is stamped on the
            // redirect path whenever the recorder is on).
            for m in &self.scratch_meta {
                let transfer = sample_start.saturating_sub(m.relay_ns);
                self.lane.redirect_in(self.id, sample_start, transfer);
            }
        }
        let end_ns = self.process_batch_local(true, sample_start);
        self.close_batch(sample_start, end_ns, 0, depth);
        true
    }

    /// Drain one burst — one batch — from this worker's receive queue.
    /// Returns true if any packet was consumed.
    fn drain_rx(&mut self) -> bool {
        let rx = &self.shared.rx[self.id];
        // In packets, counting every queued burst as full.
        let depth = rx.len() as u64 * self.shared.batch_size as u64;
        self.stats.observe_rx_depth(depth);
        debug_assert!(self.scratch_pkts.is_empty() && self.redirects.is_empty());
        let keep_meta = self.shared.obs.cfg.any();
        // Polling an empty queue is not a span: no read for it.
        let c0 = (depth > 0).then(|| self.prof_start());
        let Some(burst) = rx.pop() else {
            return false;
        };
        let n = burst.len() as u64;
        for desc in burst {
            // Core picker (§3.3): the engine's redirect decision over
            // the ingress classification — connection packets whose
            // designated core is elsewhere are transferred, not
            // processed. Locals are staged straight into the buffer the
            // NF runs on; redirects are set aside.
            match self.shared.dispatch.redirect_target(&desc.class, self.id) {
                None => self.stage_local(desc, keep_meta),
                Some(core) => self.redirects.push((desc, core)),
            }
        }
        let redirects = self.redirects.len() as u64;
        let sample_start = self.now_ns();
        // Batch formation — pops plus the per-packet core-picker
        // decision — is classify work.
        self.prof_span(Stage::Classify, c0.unwrap_or(sample_start), sample_start);
        // Register this batch's redirects BEFORE releasing its rx claim:
        // between the two updates `rx_remaining` still covers the batch,
        // and afterwards `redirects_outstanding` covers the in-flight
        // descriptors — no instant exists where a peer can observe
        // "nothing pending" while a packet of this batch is unprocessed.
        if redirects > 0 {
            self.shared
                .redirects_outstanding
                .fetch_add(redirects, Ordering::SeqCst);
        }
        self.shared.rx_remaining.fetch_sub(n, Ordering::SeqCst);
        self.stats.record_batch(n);
        // The batch's trace events — its `Drain`, a `RedirectOut` per
        // redirect and an `NfStart` and `NfDone` per local — in one
        // reservation, taken after the pop and before any redirect
        // leaves.
        self.lane.reserve_seqs(1 + redirects + 2 * (n - redirects));
        self.lane.batch(self.id, sample_start, n, depth);
        let end_ns = self.process_batch_local(false, sample_start);
        self.close_batch(sample_start, end_ns, depth, 0);
        true
    }

    /// Transfer a connection-packet descriptor to `target`'s ring, with a
    /// bounded work-conserving spin; a descriptor that still doesn't fit
    /// is dropped and accounted in `ring_drops`.
    fn push_redirect(&mut self, target: usize, mut desc: Desc) {
        self.stats.redirected_out += 1;
        let DescMeta { id, flow, .. } = desc.meta;
        // A per-packet plane or the flight recorder reads the stamps.
        let observed = self.shared.obs.cfg.any() || self.shared.obs.cfg.flight;
        if observed {
            desc.meta.relay_ns = self.now_ns();
            // Emitted *before* the push so this event's sequence precedes
            // the consumer's RedirectIn (allocated after its pop).
            self.lane
                .redirect_out(self.id, desc.meta.relay_ns, flow, id, target);
        }
        for attempt in 0..=self.shared.redirect_retries {
            if self.shared.dead[target].load(Ordering::SeqCst) {
                // The designated core is declared failed: this
                // descriptor is a loss (the flow's write path is gone),
                // not a ring-capacity drop.
                self.shared.lost.fetch_add(1, Ordering::SeqCst);
                self.shared
                    .redirects_outstanding
                    .fetch_sub(1, Ordering::SeqCst);
                return;
            }
            let ring = &self.shared.rings[target];
            self.stats.observe_ring_depth(ring.len() as u64);
            match ring.push(desc) {
                Ok(()) => return,
                Err(back) => {
                    desc = back;
                    if attempt == self.shared.redirect_retries {
                        break;
                    }
                    // Work conserving: make room in the system (and avoid
                    // two workers deadlocking on each other's full rings)
                    // by draining our own ring while we wait. That batch
                    // reserves its own trace sequence.
                    let held = self.lane.swap_seqs(0..0);
                    self.drain_ring();
                    self.lane.swap_seqs(held);
                    std::thread::yield_now();
                }
            }
        }
        self.ring_drops += 1;
        if observed {
            let drop_ns = self.now_ns();
            self.lane
                .drop(target, drop_ns, DropKind::RingFull, flow, id);
        }
        self.shared
            .redirects_outstanding
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// A census of the clock reads the runs started on this thread made,
/// so a test can hold the runtime to its per-batch and per-burst
/// budgets. Workers count into their phase's `WorkerShared`; the runner
/// folds that in here at the phase's end.
#[cfg(test)]
mod clock_reads {
    use std::cell::Cell;

    /// Worker-side reads of `now_ns`.
    pub const WORKER: usize = 0;
    /// Ingress arrival stamps.
    pub const INGRESS: usize = 1;
    /// Ingress backpressure yields.
    pub const YIELDS: usize = 2;

    thread_local! {
        static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    pub fn count(which: usize, n: u64) {
        COUNTS.with(|c| {
            let mut counts = c.get();
            counts[which] += n;
            c.set(counts);
        });
    }

    /// This thread's counts so far, reset to zero.
    pub fn take() -> [u64; 3] {
        COUNTS.with(|c| c.replace([0; 3]))
    }
}

/// A census of the claims on the run's trace sequence (one
/// `fetch_add` each) that the worker lanes of the runs started on this
/// thread made, so a test can hold a traced worker to one per batch.
/// The runner folds its workers' lane counts in at the run's end.
#[cfg(test)]
mod seq_claims {
    use std::cell::Cell;

    thread_local! {
        static CLAIMS: Cell<u64> = const { Cell::new(0) };
    }

    pub fn count(n: u64) {
        CLAIMS.with(|c| c.set(c.get() + n));
    }

    /// This thread's count so far, reset to zero.
    pub fn take() -> u64 {
        CLAIMS.with(|c| c.replace(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FlowStateApi, NfDescriptor};
    use crate::coremap::CoreMap;
    use sprayer_net::FlowKey;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_nic::Nic;
    use sprayer_nic::NicConfig;
    use sprayer_obs::CoreSample;

    /// NAT-ish test NF: SYN installs state on the designated core;
    /// regular packets must find it (from any worker) or be dropped.
    struct TrackerNf;
    impl NetworkFunction for TrackerNf {
        type Flow = u32;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("tracker")
        }
        fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u32>) -> Verdict {
            if let Some(t) = pkt.tuple() {
                ctx.insert_local_flow(t.key(), 1);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u32>) -> Verdict {
            match pkt.tuple().and_then(|t| ctx.get_flow(&t.key())) {
                Some(_) => Verdict::Forward,
                None => Verdict::Drop,
            }
        }
    }

    /// Random-looking payload for packet `i` so checksums (and thus spray
    /// targets) are uniform, as with the paper's MoonGen traffic.
    fn payload(i: u32) -> [u8; 8] {
        sprayer_net::flow::splitmix64(u64::from(i)).to_be_bytes()
    }

    fn syn_phase(flows: u32) -> Vec<Packet> {
        (0..flows)
            .map(|f| {
                let t = FiveTuple::tcp(0x0a000000 + f, 40000, 0xc0a80001, 443);
                PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")
            })
            .collect()
    }

    fn data_phase(flows: u32, packets_per_flow: u32) -> Vec<Packet> {
        let mut pkts = Vec::new();
        for i in 0..packets_per_flow {
            for f in 0..flows {
                let t = FiveTuple::tcp(0x0a000000 + f, 40000, 0xc0a80001, 443);
                pkts.push(PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i * 1000 + f)));
            }
        }
        pkts
    }

    /// Packets each worker processed.
    fn per_worker(out: &ThreadedOutcome) -> Vec<u64> {
        out.stats.per_core.iter().map(|c| c.processed).collect()
    }

    /// A watchdog deadline far above any stall a test injects: the
    /// stalled worker is never fenced.
    const UNFENCED_NS: u64 = 10_000_000_000;

    /// `fault` armed from the start, then one phase per `phases` entry.
    fn with_fault(fault: Step, phases: Vec<Vec<Packet>>) -> Vec<Step> {
        std::iter::once(fault)
            .chain(phases.into_iter().map(Step::Phase))
            .collect()
    }

    #[test]
    fn spray_mode_processes_everything_once() {
        let nf = TrackerNf;
        let total = 16 + 16 * 20;
        // Phase barrier stands in for TCP's own ordering: state exists
        // before data arrives.
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 4),
            &nf,
            vec![syn_phase(16), data_phase(16, 20)],
        );
        assert_eq!(
            out.forwarded.len(),
            total,
            "every packet must find its flow state"
        );
        assert_eq!(out.stats.nf_drops, 0);
        let processed: u64 = per_worker(&out).iter().sum();
        assert_eq!(processed as usize, total);
        assert!(
            out.stats.redirects() > 0,
            "some SYNs must have needed redirection"
        );
        // Unified telemetry: the threaded path accounts like the sim.
        assert_eq!(out.stats.offered, total as u64);
        assert_eq!(out.stats.forwarded, total as u64);
        assert_eq!(out.stats.unaccounted(), 0);
        let in_sum: u64 = out.stats.per_core.iter().map(|c| c.redirected_in).sum();
        assert_eq!(
            in_sum,
            out.stats.redirects(),
            "every redirect must be consumed"
        );
    }

    #[test]
    fn rss_mode_has_no_redirects_and_no_drops() {
        let nf = TrackerNf;
        let mut all = syn_phase(16);
        all.extend(data_phase(16, 20));
        let total = all.len();
        let out =
            ThreadedMiddlebox::run(&ThreadedConfig::new(DispatchMode::Rss, 4), &nf, vec![all]);
        assert_eq!(out.stats.redirects(), 0);
        assert_eq!(
            out.stats.nf_drops, 0,
            "per-flow dispatch has no redirect race"
        );
        assert_eq!(out.forwarded.len(), total);
        assert_eq!(out.stats.unaccounted(), 0);
        assert_eq!(out.stats.ring_drops, 0);
    }

    #[test]
    fn spray_mode_uses_multiple_workers_for_one_flow() {
        let nf = TrackerNf;
        let one_flow = |_: ()| {
            let t = FiveTuple::tcp(1, 2, 3, 4);
            let mut v = vec![PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")];
            for i in 0u32..400 {
                v.push(PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i)));
            }
            v
        };
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 4),
            &nf,
            vec![one_flow(())],
        );
        let busy = per_worker(&out).iter().filter(|&&p| p > 0).count();
        assert_eq!(busy, 4, "spraying one flow must reach all workers");

        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Rss, 4),
            &nf,
            vec![one_flow(())],
        );
        let busy = per_worker(&out).iter().filter(|&&p| p > 0).count();
        assert_eq!(busy, 1, "RSS keeps one flow on one worker");
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let nf = TrackerNf;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 1),
            &nf,
            vec![syn_phase(4), data_phase(4, 10)],
        );
        assert_eq!(out.forwarded.len(), 4 + 40);
        assert_eq!(
            out.stats.redirects(),
            0,
            "one worker: every core is designated"
        );
        assert_eq!(out.stats.unaccounted(), 0);
    }

    #[test]
    fn empty_input_terminates() {
        let nf = TrackerNf;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 4),
            &nf,
            vec![Vec::new()],
        );
        assert!(out.forwarded.is_empty());
        assert_eq!(per_worker(&out).iter().sum::<u64>(), 0);
        assert_eq!(out.stats.offered, 0);
        assert_eq!(out.stats.unaccounted(), 0);
    }

    #[test]
    fn batch_histograms_and_occupancy_are_populated() {
        let nf = TrackerNf;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 2),
            &nf,
            vec![syn_phase(32), data_phase(32, 10)],
        );
        let batches: u64 = out.stats.per_core.iter().map(|c| c.batches()).sum();
        assert!(
            batches > 0,
            "drains must be recorded in the batch histogram"
        );
        let hist_total: u64 = out
            .stats
            .per_core
            .iter()
            .flat_map(|c| c.batch_hist.iter())
            .sum();
        assert_eq!(hist_total, batches);
        assert!(
            out.stats.max_rx_occupancy() > 0,
            "rx occupancy high-water mark must be observed"
        );
    }

    /// Capacity-limited tracker with eviction-hook counters, for the
    /// lifecycle wiring tests. Regular packets of unknown flows burn a
    /// deterministic ~200 ns so a filler phase reliably spans several
    /// sweep intervals of wall clock.
    struct CappedNf {
        capacity: usize,
        idle: AtomicU64,
        lru: AtomicU64,
    }
    impl CappedNf {
        fn new(capacity: usize) -> Self {
            CappedNf {
                capacity,
                idle: AtomicU64::new(0),
                lru: AtomicU64::new(0),
            }
        }
    }
    impl NetworkFunction for CappedNf {
        type Flow = u32;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("capped")
        }
        fn config(&self) -> crate::api::NfConfig {
            crate::api::NfConfig {
                flow_table_capacity: self.capacity,
                ..crate::api::NfConfig::default()
            }
        }
        fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u32>) -> Verdict {
            if let Some(t) = pkt.tuple() {
                ctx.insert_local_flow(t.key(), 1);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u32>) -> Verdict {
            match pkt.tuple().and_then(|t| ctx.get_flow(&t.key())) {
                Some(_) => Verdict::Forward,
                None => {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_nanos(200) {
                        std::hint::spin_loop();
                    }
                    Verdict::Drop
                }
            }
        }
        fn evict_flow(&self, _key: &FlowKey, _state: &mut u32, reason: crate::api::EvictReason) {
            match reason {
                crate::api::EvictReason::Idle => self.idle.fetch_add(1, Ordering::SeqCst),
                crate::api::EvictReason::Capacity => self.lru.fetch_add(1, Ordering::SeqCst),
            };
        }
    }

    /// Regular packets from flows nobody installed: pure worker load.
    fn filler_phase(count: u32) -> Vec<Packet> {
        (0..count)
            .map(|i| {
                let t = FiveTuple::tcp(0xac100000 + (i % 512), 50000, 0xc0a80001, 80);
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i))
            })
            .collect()
    }

    #[test]
    fn lru_backstop_bounds_threaded_table_memory() {
        for mode in DispatchMode::ALL {
            let nf = CappedNf::new(8);
            let mut config = ThreadedConfig::new(mode, 4);
            config.lifecycle = LifecycleConfig {
                idle_timeout_us: None,
                sweep_interval_us: 1_000,
                lru_backstop: true,
            };
            let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(64)]);
            let s = &out.stats;
            assert!(s.lifecycle_enabled, "{mode:?}");
            assert_eq!(s.forwarded, 64, "{mode:?}: SYNs always forward");
            assert!(s.lru_evicted > 0, "{mode:?}: overload must shed: {s:?}");
            assert_eq!(
                nf.lru.load(Ordering::SeqCst),
                s.lru_evicted,
                "{mode:?}: one hook per LRU victim"
            );
            assert_eq!(nf.idle.load(Ordering::SeqCst), 0, "{mode:?}");
            // Each of the 4 owner tables is capped at 8; SCR replicas
            // additionally mirror every peer's survivors.
            let bound = if mode == DispatchMode::Scr {
                8 * 4 * 4
            } else {
                8 * 4
            };
            assert!(
                s.table_live <= bound,
                "{mode:?}: live {} exceeds bound {bound}",
                s.table_live
            );
            assert!(s.table_occupancy_hwm >= s.table_live, "{mode:?}");
            assert_eq!(s.flow_unaccounted(), 0, "{mode:?}: {s:?}");
            assert_eq!(s.unaccounted(), 0, "{mode:?}");
            assert_eq!(s.scr_replay_gap(), 0, "{mode:?}");
        }
    }

    #[test]
    fn idle_flows_expire_on_the_wall_clock_in_every_mode() {
        for mode in DispatchMode::ALL {
            let nf = CappedNf::new(1024);
            let mut config = ThreadedConfig::new(mode, 4);
            config.lifecycle = LifecycleConfig {
                idle_timeout_us: Some(200),
                sweep_interval_us: 100,
                lru_backstop: false,
            };
            // 24 flows installed up front, then a filler phase whose
            // spin-per-packet guarantees multiple sweep intervals pass
            // while every worker keeps polling.
            let out =
                ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(24), filler_phase(30_000)]);
            let s = &out.stats;
            assert!(s.lifecycle_enabled, "{mode:?}");
            // Under SCR every one of the 4 cores holds (and counts) a
            // replica of each entry.
            let copies = if mode == DispatchMode::Scr { 4 } else { 1 };
            assert_eq!(s.flows_created, 24 * copies, "{mode:?}: {s:?}");
            assert_eq!(s.idle_expired, 24, "{mode:?}: every flow idles out: {s:?}");
            assert_eq!(s.table_live, 0, "{mode:?}: tables must drain: {s:?}");
            assert_eq!(nf.idle.load(Ordering::SeqCst), 24, "{mode:?}");
            assert_eq!(nf.lru.load(Ordering::SeqCst), 0, "{mode:?}");
            // How many of the 24 are live at once depends on the
            // schedule: with a 200 µs timeout a loaded machine idles the
            // first flows out before the last SYN lands.
            assert!(
                (1..=24 * copies).contains(&s.table_occupancy_hwm),
                "{mode:?}: {s:?}"
            );
            assert_eq!(s.flow_unaccounted(), 0, "{mode:?}: {s:?}");
            assert_eq!(s.unaccounted(), 0, "{mode:?}");
            assert_eq!(s.scr_replay_gap(), 0, "{mode:?}");
            if mode == DispatchMode::Scr {
                // Each owner-side reclaim ships a Del to 3 replicas.
                assert_eq!(s.replica_dels, 24 * 3, "{mode:?}: {s:?}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_conservative() {
        // Stress the shutdown protocol under scheduler nondeterminism
        // with the nastiest queue shape — capacity-1 descriptor rings —
        // for 20 rounds: every packet must be accounted exactly once
        // (processed or counted as an overflow drop), every run.
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        config.ring_capacity = 1;
        for round in 0..20 {
            let total = (8 + 8 * 5) as u64;
            let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(8), data_phase(8, 5)]);
            let processed: u64 = per_worker(&out).iter().sum();
            assert_eq!(
                processed + out.stats.pre_nf_drops(),
                total,
                "round {round} lost or duplicated packets: {:?}",
                out.stats
            );
            assert_eq!(out.stats.unaccounted(), 0, "round {round}: {:?}", out.stats);
        }
    }

    #[test]
    fn capacity_one_ring_storm_counts_drops_and_terminates() {
        // A redirect storm into a capacity-1 ring with zero retries: the
        // overflow path must count ring_drops (conservation intact) and
        // the shutdown protocol must still terminate.
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.ring_capacity = 1;
        config.redirect_retries = 0;

        // Flows that arrive on worker 0 (spray steering of the SYN) but
        // are designated to worker 1 — every SYN must cross the ring.
        let nic = Nic::new(NicConfig::sprayer_uncapped(2));
        let map = CoreMap::new(DispatchMode::Sprayer, 2);
        let mut nic = nic;
        let mut storm = Vec::new();
        let mut f = 0u32;
        while storm.len() < 256 {
            let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 443);
            f += 1;
            let syn = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"");
            let (q, _) = nic.steer(&syn);
            if usize::from(q) == 0 && map.designated_for_tuple(&t) == 1 {
                storm.push(syn);
            }
        }
        let total = storm.len() as u64;

        let out = ThreadedMiddlebox::run(&config, &nf, vec![storm]);
        let s = &out.stats;
        assert_eq!(s.offered, total);
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.forwarded + s.ring_drops + s.queue_drops, total, "{s:?}");
        assert_eq!(
            s.redirects(),
            total - s.queue_drops,
            "every admitted SYN is foreign"
        );
        assert!(
            s.ring_drops > 0,
            "256 same-target redirects with no retries cannot all fit a 1-slot ring: {s:?}"
        );
        assert_eq!(
            s.max_ring_occupancy(),
            1,
            "ring occupancy can never exceed capacity"
        );
    }

    #[test]
    fn tracing_conserves_and_probes_match_stats() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        config.obs = ObsConfig::tracing();
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(16), data_phase(16, 20)]);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");

        let probes = out.probes.as_ref().expect("latency probes requested");
        assert_eq!(
            probes.sojourn_ns.count(),
            s.processed(),
            "one sojourn sample per processed packet"
        );
        let redirected_in: u64 = s.per_core.iter().map(|c| c.redirected_in).sum();
        assert_eq!(
            probes.redirect_ns.count(),
            redirected_in,
            "one ring-latency sample per consumed redirect"
        );

        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(trace.meta.runtime, "threads");
        assert_eq!(trace.meta.ticks_per_us, THREAD_TICKS_PER_US);
        assert_eq!(trace.dropped, 0, "default ring fits this run");
        let analysis = sprayer_obs::analyze(trace);
        assert!(
            analysis.conservation.ok(),
            "violations: {:?}",
            analysis.conservation.violations
        );
        assert_eq!(analysis.conservation.nf_done, s.processed());
        assert_eq!(analysis.conservation.redirect_out, s.redirects());
        assert_eq!(analysis.conservation.redirect_in, redirected_in);
        // Sequences are globally unique even across the phase barrier.
        let mut seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), trace.events.len(), "duplicate trace sequences");
    }

    /// 8 000 packets (SYNs first, so redirects happen) as one phase or
    /// as `phases` equal ones.
    fn eight_thousand(phases: usize) -> Vec<Vec<Packet>> {
        let mut pkts = syn_phase(400);
        pkts.extend(data_phase(16, 475));
        assert_eq!(pkts.len(), 8_000);
        pkts.chunks(8_000 / phases)
            .map(<[Packet]>::to_vec)
            .collect()
    }

    #[test]
    fn the_trace_bound_is_per_run_not_per_phase() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig::tracing_with_capacity(100);
        // Closed loop: both runs must process the same packets, and an
        // open-loop ingress on a busy host drops whole bursts.
        config.ingress_retries = usize::MAX;
        // Every event the run emitted, held or dropped, except the
        // `Drain` markers (how many batches form is the scheduler's).
        let emitted = |phases: usize| {
            let out = ThreadedMiddlebox::run(&config, &nf, eight_thousand(phases));
            let s = &out.stats;
            assert_eq!(s.unaccounted(), 0, "{s:?}");
            assert_eq!(s.queue_drops, 0, "{phases} phases: {s:?}");
            let trace = out.trace.expect("trace requested");
            assert!(
                trace.events.len() <= 300,
                "{phases} phases hold {} events: two worker lanes and the \
                 ingress lane are bounded at 100 each for the whole run",
                trace.events.len()
            );
            let batches: u64 = s.per_core.iter().map(|c| c.batches()).sum();
            let redirected_in: u64 = s.per_core.iter().map(|c| c.redirected_in).sum();
            let total = trace.events.len() as u64 + trace.dropped;
            assert_eq!(
                total - batches,
                s.offered + s.redirects() + redirected_in + s.ring_drops + 2 * s.processed(),
                "{phases} phases: one event per admission or queue drop, redirect \
                 push and pickup, ring drop, NF start and NF done"
            );
            total - batches
        };
        assert_eq!(emitted(20), emitted(1));
    }

    #[test]
    fn a_rolling_tail_threshold_survives_phase_barriers() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig::tail_attribution();
        for phases in [1, 20] {
            let out = ThreadedMiddlebox::run(&config, &nf, eight_thousand(phases));
            let tail = out.tail.expect("tail attribution requested");
            assert!(tail.rolling);
            assert_eq!(tail.completions, 8_000, "{phases} phases");
            // 400 packets a phase over two workers never reach the 256
            // completions a tracker warms up on; the run's 8 000 do.
            assert_ne!(tail.threshold_ticks, u64::MAX, "{phases} phases: warmed up");
            // Whether a later completion beats the rolling p99 is the
            // scheduler's to decide once barriers keep the queues short
            // (a cold first phase can hold the p99 for the whole run);
            // in one phase ingress outruns the workers and it must.
            assert!(phases > 1 || tail.exemplars > 0, "no exemplar in one phase");
        }
    }

    #[test]
    fn disabled_obs_returns_no_trace_or_probes() {
        let nf = TrackerNf;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 2),
            &nf,
            vec![syn_phase(8)],
        );
        assert!(out.trace.is_none());
        assert!(out.probes.is_none());
        assert!(out.samples.is_none());
        assert!(out.profile.is_none());
        assert!(out.health.is_none());
        assert!(out.reorder.is_none());
    }

    #[test]
    fn busy_cycles_accumulate_wall_nanoseconds_with_obs_off() {
        // The busy-time pair of clock reads per batch is always on:
        // even a fully obs-off run reports nonzero busy time, in wall
        // nanoseconds, for the workers that processed packets.
        let nf = TrackerNf;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Sprayer, 2),
            &nf,
            vec![syn_phase(32), data_phase(32, 20)],
        );
        assert_eq!(out.stats.unaccounted(), 0);
        let busy: u64 = out.stats.per_core.iter().map(|c| c.busy_cycles).sum();
        assert!(busy > 0, "batch execution must charge busy time");
    }

    #[test]
    fn sampled_busy_ticks_reproduce_the_busy_cycles_counter() {
        // Sampling buckets and the always-on counter share one
        // watermark, so their totals must agree exactly per core.
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        config.obs = ObsConfig::sampling();
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(32), data_phase(32, 10)]);
        let set = out.samples.as_ref().expect("sampling enabled");
        let totals = set.totals();
        for (core, cs) in out.stats.per_core.iter().enumerate() {
            assert_eq!(totals[core].busy_ticks, cs.busy_cycles, "core {core}");
        }
    }

    #[test]
    fn stage_profile_attributes_batch_time() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        config.obs = ObsConfig::profiling();
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(16), data_phase(16, 20)]);
        assert_eq!(out.stats.unaccounted(), 0);
        let prof = out.profile.as_ref().expect("profiling requested");
        assert_eq!(prof.nf(), "tracker");
        assert_eq!(prof.ticks_per_us(), THREAD_TICKS_PER_US);
        assert!(prof.total_ticks() > 0);
        assert!(prof.stage_ticks(Stage::Classify) > 0);
        assert!(prof.stage_ticks(Stage::Nf) > 0);
        let shares: f64 = Stage::ALL.into_iter().map(|s| prof.share(s)).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1: {shares}");
    }

    #[test]
    fn profile_live_slots_mirror_the_final_breakdown() {
        let nf = TrackerNf;
        let slots = Arc::new(ProfileSlots::new(2));
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig::profiling();
        config.profile_live = Some(slots.clone());
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(16), data_phase(16, 10)]);
        let prof = out.profile.expect("profiling requested");
        let snap = slots.snapshot();
        for (core, ticks) in snap.iter().enumerate() {
            for stage in Stage::ALL {
                assert_eq!(
                    ticks[stage.index()],
                    prof.cores()[core].ticks[stage.index()],
                    "core {core} stage {:?}",
                    stage
                );
            }
        }
    }

    #[test]
    fn health_bus_captures_fault_injection_and_worker_death() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        config.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Crash { core: 1, after: 5 },
                vec![syn_phase(16), data_phase(16, 20)],
            ),
        );
        assert_eq!(out.failures.len(), 1);
        let health = out.health.expect("health plane requested");
        assert_eq!(health.ticks_per_us, THREAD_TICKS_PER_US);
        assert_eq!(health.dropped, 0);
        let counts = health.counts();
        assert_eq!(counts.get("fault_injected"), Some(&1), "{counts:?}");
        assert_eq!(counts.get("worker_death"), Some(&1), "{counts:?}");
        let death = health
            .records
            .iter()
            .find(|r| r.event.kind() == "worker_death")
            .unwrap();
        assert_eq!(death.event.core(), Some(1));
    }

    #[test]
    fn threaded_tail_attribution_partitions_measured_sojourns() {
        use sprayer_obs::TailStage;
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        // 1 ns fixed threshold: every measured sojourn exceeds it, so
        // the exemplar table covers every completion.
        config.obs = ObsConfig::tail_with_threshold(1);
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(24), data_phase(24, 20)]);
        assert_eq!(out.stats.unaccounted(), 0);
        let tail = out.tail.expect("tail attribution requested");
        assert_eq!(tail.completions, out.stats.processed());
        assert_eq!(tail.exemplars, tail.completions, "1 ns captures all");
        assert_eq!(tail.sojourn.count(), tail.completions);
        let per_core: u64 = tail.per_core.iter().map(|c| c.exemplars).sum();
        assert_eq!(per_core, tail.exemplars);
        // Redirects happened, so ring transit shows up in the table;
        // this runtime cannot split out framework classify/tx time.
        assert!(out.stats.redirects() > 0);
        assert!(tail.stage_ticks(TailStage::RedirectTransit) > 0);
        assert!(tail.stage_ticks(TailStage::Nf) > 0);
        assert_eq!(tail.stage_ticks(TailStage::Classify), 0);
        assert_eq!(tail.stage_ticks(TailStage::Tx), 0);
    }

    #[test]
    fn threaded_flight_recorder_freezes_on_worker_panic() {
        use sprayer_obs::{flight, FlightKind};
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        config.obs = ObsConfig::flight_recorder();
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Crash { core: 1, after: 5 },
                vec![syn_phase(16), data_phase(16, 20)],
            ),
        );
        assert_eq!(out.failures.len(), 1);
        let snap = out.flight.expect("flight recorder requested");
        let freeze = snap.frozen.as_ref().expect("panic must latch the recorder");
        assert_eq!(freeze.kind, "worker_death");
        assert_eq!(freeze.core, 1);
        assert!(snap.recorded > 0, "batch events precede the crash");
        // The dying worker stamped the marker into its own ring.
        let last = snap.per_core[1].last().expect("marker stamped");
        assert_eq!(last.kind, FlightKind::Freeze);
        // One clock read per health event: the black box and the health
        // report agree on when it happened.
        let health = out.health.expect("the recorder's preset arms the bus");
        let on_bus = |kind: &str| {
            let rec = health.records.iter().find(|r| r.event.kind() == kind);
            rec.unwrap_or_else(|| panic!("{kind}: no record on the bus"))
                .ts
        };
        let in_ring = |kind: &str| {
            let code = sprayer_obs::health_kind_code(kind);
            let mut ring = snap.per_core[1].iter();
            let marker = ring.find(|e| e.kind == FlightKind::Health && e.a == code);
            marker
                .unwrap_or_else(|| panic!("{kind}: no marker in the ring"))
                .ts
        };
        assert_eq!(in_ring("fault_injected"), on_bus("fault_injected"));
        assert_eq!(in_ring("worker_death"), on_bus("worker_death"));
        assert_eq!(freeze.ts, on_bus("worker_death"), "freeze record vs bus");
        assert_eq!(last.ts, freeze.ts, "freeze marker vs freeze record");
        // Dump → parse is lossless (the blackbox analyzer's read path).
        let text = flight::write_string(&snap);
        assert_eq!(flight::parse(&text).expect("dump parses"), snap);
    }

    #[test]
    fn health_bus_records_elastic_reconfigurations() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            vec![
                Step::Phase(syn_phase(16)),
                Step::Rescale(4),
                Step::Phase(data_phase(16, 5)),
                Step::Rescale(2),
                Step::Phase(data_phase(16, 5)),
            ],
        );
        let health = out.health.expect("health plane requested");
        let recs: Vec<_> = health
            .records
            .iter()
            .filter(|r| r.event.kind() == "reconfig_phase")
            .collect();
        assert_eq!(recs.len(), out.reconfigs.len());
        assert_eq!(recs.len(), 2);
        for (rec, rep) in recs.iter().zip(&out.reconfigs) {
            assert_eq!(rec.ts, rep.at_ns);
            match &rec.event {
                HealthEvent::ReconfigPhase {
                    epoch,
                    phase,
                    cores,
                } => {
                    assert_eq!(*epoch, rep.epoch);
                    assert_eq!(*phase, "rescale");
                    assert_eq!(*cores, rep.to_cores);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn ingress_queue_high_water_is_edge_triggered() {
        // Worker 0 sleeps through ingress, so its queue must fill past
        // the 3/4 mark while it is silent and raise exactly one
        // edge-triggered event for the monotone fill.
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        config.ingress_retries = 0;
        let mut pkts = syn_phase(64);
        pkts.extend(data_phase(64, 20));
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Stall {
                    core: 0,
                    after: 0,
                    duration_ns: 100_000_000,
                    deadline_ns: UNFENCED_NS,
                },
                vec![pkts],
            ),
        );
        assert_eq!(out.stats.unaccounted(), 0);
        let health = out.health.expect("health plane requested");
        let counts = health.counts();
        assert!(
            counts.get("queue_high_water").copied().unwrap_or(0) >= 1,
            "{counts:?}"
        );
        assert_eq!(counts.get("fault_injected"), Some(&1), "{counts:?}");
    }

    #[test]
    fn online_reorder_sketch_tracks_sprayed_completions() {
        // Spraying plus a stalled worker: every flow with an early
        // ordinal stranded on worker 0 completes it after later
        // ordinals finished elsewhere — heavy, guaranteed reordering
        // that both the online sketch and the offline trace analyzer
        // must see. (Exact counts may differ between them: the sketch
        // serializes by lock order, the trace by sequence allocation.)
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        config.obs = ObsConfig {
            reorder: true,
            ..ObsConfig::tracing()
        };
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Stall {
                    core: 0,
                    after: 0,
                    duration_ns: 30_000_000,
                    deadline_ns: UNFENCED_NS,
                },
                vec![syn_phase(16), data_phase(16, 40)],
            ),
        );
        assert_eq!(out.stats.unaccounted(), 0);
        let online = out.reorder.expect("reorder sketch requested");
        assert_eq!(
            online.completions,
            out.stats.processed(),
            "every parseable completion feeds the sketch"
        );
        assert!(online.reordered > 0, "sprayed completions must invert");
        assert!(online.reordered <= online.completions);
        let analysis = sprayer_obs::analyze(out.trace.as_ref().unwrap());
        assert!(analysis.reordered_packets() > 0);

        // RSS keeps each flow on one worker in arrival order: the
        // sketch must report exactly zero reordered completions.
        let mut config = ThreadedConfig::new(DispatchMode::Rss, 4);
        config.obs = ObsConfig {
            reorder: true,
            ..ObsConfig::disabled()
        };
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(16), data_phase(16, 40)]);
        let online = out.reorder.expect("reorder sketch requested");
        assert_eq!(online.completions, out.stats.processed());
        assert_eq!(online.reordered, 0, "RSS preserves per-flow order");
    }

    #[test]
    fn sampling_totals_match_stats_across_phases() {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        // A 1 µs grid with a tiny bucket budget forces downsampling
        // mid-run; totals must survive it.
        config.obs = ObsConfig {
            sample: true,
            sample_interval_us: 1,
            sample_capacity: 8,
            ..ObsConfig::disabled()
        };
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(32), data_phase(32, 20)]);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        let set = out.samples.as_ref().expect("sampling enabled");
        assert_eq!(set.ticks_per_us, THREAD_TICKS_PER_US);
        assert_eq!(set.num_cores(), 3);
        let totals = set.totals();
        for (core, cs) in s.per_core.iter().enumerate() {
            assert_eq!(totals[core].processed, cs.processed, "core {core}");
            assert_eq!(totals[core].redirected_in, cs.redirected_in, "core {core}");
            assert_eq!(
                totals[core].redirected_out, cs.redirected_out,
                "core {core}"
            );
        }
        let mut total = CoreSample::default();
        for t in &totals {
            total.merge(t);
        }
        assert_eq!(total.forwarded, s.forwarded);
        assert_eq!(total.nf_drops, s.nf_drops);
        assert_eq!(total.ring_drops, s.ring_drops);
        assert_eq!(total.queue_drops, s.queue_drops);
        assert_eq!(set.jain_timeline().len(), set.num_buckets());
    }

    #[test]
    fn live_slots_observe_a_run() {
        let nf = TrackerNf;
        let live = Arc::new(LiveSlots::new(4));
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        config.live = Some(live.clone());
        // Live slots work without the sampling series being retained.
        assert!(!config.obs.sample);
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(16), data_phase(16, 10)]);
        assert!(out.samples.is_none());
        let snap = live.snapshot();
        let processed: u64 = snap.iter().map(|c| c.processed).sum();
        assert_eq!(processed, out.stats.processed());
        let forwarded: u64 = snap.iter().map(|c| c.forwarded).sum();
        assert_eq!(forwarded, out.stats.forwarded);
        let redirected_out: u64 = snap.iter().map(|c| c.redirected_out).sum();
        assert_eq!(redirected_out, out.stats.redirects());
    }

    #[test]
    fn elastic_threaded_sprayer_scales_without_migration() {
        // 2 → 4 → 2 under elastic Sprayer: the designated set is pinned
        // on the up-leg and never regrows, so neither transition moves a
        // single flow, yet every regular packet still finds its state
        // (foreign reads through the shared tables) on every width.
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            vec![
                Step::Phase(syn_phase(32)),
                Step::Rescale(4),
                Step::Phase(data_phase(32, 10)),
                Step::Rescale(2),
                Step::Phase(data_phase(32, 10)),
            ],
        );
        assert_eq!(out.reconfigs.len(), 2);
        let up = &out.reconfigs[0];
        assert_eq!((up.from_cores, up.to_cores), (2, 4));
        assert_eq!(up.epoch, 1);
        assert_eq!(up.migrated_flows, 0, "scale-up pins designated state");
        assert_eq!(up.retained_flows, 32);
        let down = &out.reconfigs[1];
        assert_eq!((down.from_cores, down.to_cores), (4, 2));
        assert_eq!(
            down.migrated_flows, 0,
            "the designated set never grew past 2, so shrinking back moves nothing"
        );
        assert_eq!(
            out.stats.nf_drops, 0,
            "every packet must find its flow state"
        );
        assert_eq!(out.stats.offered, 32 + 320 + 320);
        assert_eq!(out.stats.unaccounted(), 0);
        // The wide phase really used the joiners.
        assert_eq!(per_worker(&out).len(), 4);
        assert!(
            per_worker(&out).iter().all(|&p| p > 0),
            "spraying must reach every worker that was ever active: {:?}",
            per_worker(&out)
        );
    }

    #[test]
    fn elastic_threaded_rss_migrates_remapped_flows() {
        // The RSS comparison path: shrinking the queue count reprograms
        // the indirection table, so every flow whose bucket remapped must
        // be exported/imported at the barrier — and the run still
        // conserves and forwards everything afterwards.
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Rss, 4);
        let mut head = syn_phase(64);
        head.extend(data_phase(64, 4));
        let steps = vec![
            Step::Phase(head),
            Step::Rescale(2),
            Step::Phase(data_phase(64, 4)),
        ];
        let out = ThreadedMiddlebox::run_steps(&config, &nf, steps);
        assert_eq!(out.reconfigs.len(), 1);
        let r = &out.reconfigs[0];
        assert_eq!((r.from_cores, r.to_cores), (4, 2));
        assert!(
            r.migrated_flows > 0,
            "RSS rescale must migrate flows: {r:?}"
        );
        assert_eq!(r.migrated_flows + r.retained_flows, 64);
        assert_eq!(
            out.stats.nf_drops, 0,
            "migrated state must be found post-rescale"
        );
        assert_eq!(out.stats.unaccounted(), 0);
        assert_eq!(
            out.stats.redirects(),
            0,
            "RSS never redirects, before or after"
        );
        // Workers 2 and 3 are inactive in the shrunk phase: the narrow
        // phase's packets land only on queues 0 and 1.
        assert_eq!(out.stats.offered, (64 + 256 + 256) as u64);
    }

    #[test]
    fn worker_panic_is_captured_and_accounted() {
        // Worker 1 panics mid-NF. The panic must never propagate out of
        // the runtime: it surfaces as a structured WorkerFailure, the
        // in-flight packet and the fenced core's backlog are counted as
        // lost_packets, and conservation still closes. (The default
        // panic hook prints the injected panic to stderr — expected.)
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Crash { core: 1, after: 5 },
                vec![syn_phase(16), data_phase(16, 20)],
            ),
        );
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!(out.failures[0].core, 1);
        assert!(
            out.failures[0].message.contains("injected crash"),
            "{:?}",
            out.failures[0]
        );
        let s = &out.stats;
        assert!(
            s.lost_packets > 0,
            "at least the packet on the NF at crash time is lost: {s:?}"
        );
        assert_eq!(s.unaccounted(), 0, "losses must be accounted: {s:?}");
        assert!(
            (out.forwarded.len() as u64) < s.offered,
            "a mid-run crash cannot forward everything"
        );
    }

    #[test]
    fn injected_panic_fires_at_exactly_its_configured_count() {
        // The fault cuts whichever batch holds worker 1's `after`-th
        // packet of the phase: exactly `after` packets complete there,
        // with the per-packet planes off and on. One phase (a phase
        // barrier re-provisions workers and restarts the count); SYNs
        // and data interleave, so the fatal batch can be a ring batch.
        let nf = TrackerNf;
        let mut pkts = syn_phase(16);
        pkts.extend(data_phase(16, 20));
        let batch_size = ThreadedConfig::new(DispatchMode::Sprayer, 3).batch_size as u64;
        for obs in [ObsConfig::disabled(), ObsConfig::tracing()] {
            for after in [0, 5, batch_size + 5] {
                let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 3);
                config.obs = obs;
                let crash = Step::Crash { core: 1, after };
                let out = ThreadedMiddlebox::run_steps(
                    &config,
                    &nf,
                    with_fault(crash, vec![pkts.clone()]),
                );
                let what = format!("after={after} obs={}", obs.any());
                assert_eq!(per_worker(&out)[1], after, "{what}");
                assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
                assert_eq!(out.failures[0].core, 1, "{what}");
                assert!(out.stats.lost_packets > 0, "{what}");
                assert_eq!(out.stats.unaccounted(), 0, "{what}: {:?}", out.stats);
            }
        }
    }

    /// Forwards everything and remembers the largest batch the runtime
    /// ever handed it. So that the width does not hang on who the
    /// scheduler ran first, the first one-packet call (while nothing
    /// wider has come) holds its worker inside the NF until the other
    /// worker has run `HOLD_FOR` more packets: ingress is sequential and
    /// the rx queues are FIFO, so by then the held worker's own queue
    /// has its share of everything sprayed up to there, and its next
    /// batch is wide.
    struct BatchWidthNf {
        widest: AtomicUsize,
        seen: AtomicUsize,
        held: AtomicBool,
    }
    const HOLD_FOR: usize = 64;
    impl NetworkFunction for BatchWidthNf {
        type Flow = u32;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("batch-width")
        }
        fn connection_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
            Verdict::Forward
        }
        fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
            Verdict::Forward
        }
        fn handle_batch(
            &self,
            pkts: &mut [Packet],
            _conn: &[bool],
            _ctx: &mut dyn FlowStateApi<u32>,
            out: &mut VerdictSink,
        ) {
            let widest = self.widest.fetch_max(pkts.len(), Ordering::Relaxed);
            if pkts.len() == 1 && widest <= 1 && !self.held.swap(true, Ordering::Relaxed) {
                let until = self.seen.load(Ordering::Relaxed) + HOLD_FOR;
                // Only a steering so lopsided that the other worker
                // never gets `HOLD_FOR` packets reaches the deadline;
                // the width assertion then reports it.
                let give_up = Instant::now() + Duration::from_secs(10);
                while self.seen.load(Ordering::Relaxed) < until && Instant::now() < give_up {
                    std::thread::yield_now();
                }
            }
            self.seen.fetch_add(pkts.len(), Ordering::Relaxed);
            for _ in pkts {
                out.push(Verdict::Forward);
            }
        }
    }

    fn every_plane() -> ObsConfig {
        ObsConfig {
            trace: true,
            latency: true,
            sample: true,
            profile: true,
            health: true,
            reorder: true,
            tail: true,
            flight: true,
            ..ObsConfig::disabled()
        }
    }

    #[test]
    fn every_plane_on_still_runs_the_nf_on_whole_batches() {
        // Looking must not change what you see: with all eight planes
        // on, the NF is still called on batches, and every per-packet
        // plane still reports every packet.
        let nf = BatchWidthNf {
            widest: AtomicUsize::new(0),
            seen: AtomicUsize::new(0),
            held: AtomicBool::new(false),
        };
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = every_plane();
        let mut pkts = syn_phase(16);
        pkts.extend(data_phase(16, 20));
        let out = ThreadedMiddlebox::run(&config, &nf, vec![pkts]);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        let widest = nf.widest.load(Ordering::Relaxed);
        assert!(widest > 1, "planes forced one-packet NF calls: {widest}");
        assert_eq!(out.probes.unwrap().sojourn_ns.count(), s.processed());
        assert_eq!(out.tail.unwrap().completions, s.processed());
        assert_eq!(out.reorder.unwrap().completions, s.processed());
        let analysis = sprayer_obs::analyze(out.trace.as_ref().unwrap());
        assert!(analysis.conservation.ok(), "{:?}", analysis.conservation);
        assert_eq!(analysis.conservation.nf_done, s.processed());
    }

    /// Observation is priced per batch and per ingress burst, not per
    /// packet: with every plane on a worker reads the clock at most six
    /// times per non-empty batch (plus one stamp per redirect it
    /// pushes), with none on exactly twice; ingress stamps a burst at a
    /// time. And the coarser stamps still order every packet's life.
    #[test]
    fn every_plane_on_reads_the_clock_per_batch_and_per_burst() {
        use sprayer_obs::EventKind;
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        // Closed loop: every packet is admitted, so every packet has a life.
        config.ingress_retries = usize::MAX;
        let batches = |s: &MiddleboxStats| s.per_core.iter().map(|c| c.batches()).sum::<u64>();

        clock_reads::take();
        let out = ThreadedMiddlebox::run(&config, &nf, eight_thousand(2));
        let [worker, ingress, _] = clock_reads::take();
        assert_eq!(out.stats.unaccounted(), 0);
        assert_eq!(worker, 2 * batches(&out.stats), "all off: start and end");
        assert_eq!(ingress, 0, "all off: no arrival stamps");

        config.obs = every_plane();
        let out = ThreadedMiddlebox::run(&config, &nf, eight_thousand(2));
        let [worker, ingress, yields] = clock_reads::take();
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert!(
            s.redirects() > 0,
            "the SYNs must exercise the redirect path"
        );
        let redirect_stamps = s.redirects() + s.ring_drops;
        assert!(
            worker <= 6 * batches(s) + redirect_stamps,
            "{worker} worker reads over {} batches, {redirect_stamps} redirect stamps",
            batches(s)
        );
        assert!(worker >= 2 * batches(s));
        let bursts = s.offered / config.batch_size as u64;
        assert!(
            ingress <= bursts + yields + 2,
            "{ingress} arrival stamps: {bursts} bursts, {yields} yields, 2 phases"
        );

        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(trace.dropped, 0, "default ring fits this run");
        let analysis = sprayer_obs::analyze(trace);
        assert!(analysis.conservation.ok(), "{:?}", analysis.conservation);
        // Per packet: admitted, then started, then done; and the
        // arrival stamps never run backwards in arrival order.
        let mut life = vec![[None; 3]; s.offered as usize];
        for e in trace.events.iter() {
            let stage = match e.kind {
                EventKind::IngressEnqueue => 0,
                EventKind::NfStart => 1,
                EventKind::NfDone => 2,
                _ => continue,
            };
            life[e.pkt as usize][stage] = Some(e.ts);
        }
        let mut last_arrival = 0;
        for (id, stamps) in life.iter().enumerate() {
            let [Some(arrival), Some(start), Some(done)] = *stamps else {
                panic!("packet {id} is missing an event: {stamps:?}");
            };
            assert!(arrival <= start && start <= done, "packet {id}: {stamps:?}");
            assert!(
                last_arrival <= arrival,
                "packet {id} arrived before {}",
                id - 1
            );
            last_arrival = arrival;
        }
    }

    /// A traced worker claims its batch's trace sequence numbers at
    /// once: at most one `fetch_add` on the run's sequence per batch
    /// (a redirect bouncing off a full ring records one event more
    /// than its batch reserved, and that event claims its own). The
    /// reservation keeps every packet's life in causal order: in the
    /// merged trace each `IngressEnqueue` precedes its `NfStart`, and
    /// each `RedirectOut` its `RedirectIn`.
    #[test]
    fn a_traced_worker_claims_its_sequence_once_per_batch() {
        use sprayer_obs::EventKind;
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.ingress_retries = usize::MAX;
        config.obs = ObsConfig::tracing();
        seq_claims::take();
        let out = ThreadedMiddlebox::run(&config, &nf, eight_thousand(2));
        let claims = seq_claims::take();
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert!(
            s.redirects() > 0,
            "the SYNs must exercise the redirect path"
        );
        let batches: u64 = s.per_core.iter().map(|c| c.batches()).sum();
        assert!(
            claims <= batches + s.ring_drops,
            "{claims} claims over {batches} batches, {} ring drops",
            s.ring_drops
        );
        assert!(claims > 0);

        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(trace.dropped, 0, "default ring fits this run");
        let analysis = sprayer_obs::analyze(trace);
        assert!(analysis.conservation.ok(), "{:?}", analysis.conservation);
        assert_eq!(
            analysis.conservation.redirect_in,
            s.redirects() - s.ring_drops
        );
        // Walk the trace in sequence order: a packet's later event must
        // never come before its earlier one.
        let mut enqueued = vec![false; s.offered as usize];
        let mut relayed = vec![false; s.offered as usize];
        for e in trace.events.iter() {
            let id = e.pkt as usize;
            match e.kind {
                EventKind::IngressEnqueue => enqueued[id] = true,
                EventKind::NfStart => {
                    assert!(enqueued[id], "packet {id} started before its enqueue")
                }
                EventKind::RedirectOut => relayed[id] = true,
                EventKind::RedirectIn => {
                    assert!(relayed[id], "packet {id} picked up before it left")
                }
                _ => {}
            }
        }
    }

    /// Worker 0 goes silent with a detection deadline shorter than the
    /// stall: the watchdog must declare it dead, drain its backlog as
    /// accounted losses (so worker 1 can shut down), and record a
    /// structured failure. The sleeper wakes fenced and exits through
    /// the zombie path without double-counting anything.
    fn assert_stalled_worker_is_fenced(mode: DispatchMode, stall_ns: u64, deadline_ns: u64) {
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(mode, 2);
        config.ingress_retries = 8;
        let mut pkts = syn_phase(16);
        pkts.extend(data_phase(16, 50));
        let total = pkts.len() as u64;
        let stall = Step::Stall {
            core: 0,
            after: 32,
            duration_ns: stall_ns,
            deadline_ns,
        };
        let out = ThreadedMiddlebox::run_steps(&config, &nf, with_fault(stall, vec![pkts]));
        assert_eq!(out.failures.len(), 1, "{mode:?}: {:?}", out.failures);
        assert_eq!(out.failures[0].core, 0);
        assert!(
            out.failures[0].message.contains("watchdog"),
            "{:?}",
            out.failures[0]
        );
        let s = &out.stats;
        assert_eq!(s.offered, total);
        assert!(
            s.lost_packets > 0,
            "{mode:?}: the fenced core's backlog must be counted: {s:?}"
        );
        assert_eq!(s.unaccounted(), 0, "{mode:?}: {s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{mode:?}: {s:?}");
    }

    #[test]
    fn stalled_worker_is_fenced_by_the_watchdog() {
        assert_stalled_worker_is_fenced(DispatchMode::Sprayer, 400_000_000, 25_000_000);
    }

    #[test]
    fn watchdog_and_zombie_drain_pop_each_descriptor_once() {
        // The one place two threads pop the same queue: the watchdog's
        // `drain_dead_queues` and the fenced worker's own
        // `zombie_drain` (both also truncate its SCR log). A descriptor
        // or update popped twice, or by neither, leaves a nonzero
        // remainder in one of the conservation identities.
        // The stall ends once the worker is fenced, so it can outlast
        // any scheduling delay the watchdog meets on a busy host.
        for mode in [DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr] {
            for _ in 0..20 {
                assert_stalled_worker_is_fenced(mode, 2_000_000_000, 10_000_000);
            }
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        // A 1 ms stall under a generous deadline: the watchdog must not
        // produce false positives, and the run must be byte-for-byte as
        // complete as one without a watchdog.
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        let stall = Step::Stall {
            core: 0,
            after: 0,
            duration_ns: 1_000_000,
            deadline_ns: 250_000_000,
        };
        let phases = vec![syn_phase(16), data_phase(16, 20)];
        let out = ThreadedMiddlebox::run_steps(&config, &nf, with_fault(stall, phases));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.stats.lost_packets, 0);
        assert_eq!(out.forwarded.len(), 16 + 320);
        assert_eq!(out.stats.unaccounted(), 0);
    }

    #[test]
    fn capacity_one_ring_with_retries_still_conserves() {
        // Same storm, but with the default bounded work-conserving retry:
        // most descriptors should get through; whatever doesn't must be
        // counted, and shutdown must never hang.
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
        config.ring_capacity = 1;
        let out = ThreadedMiddlebox::run(&config, &nf, vec![syn_phase(128), data_phase(16, 8)]);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(
            s.forwarded + s.nf_drops + s.pre_nf_drops(),
            s.offered,
            "{s:?}"
        );
    }

    #[test]
    fn scr_mode_replicates_state_and_never_redirects() {
        // SCR sprays like the Sprayer but replicates writes through the
        // update log instead of redirecting: after the SYN phase drains
        // (the phase barrier waits for every replica to catch up), every
        // worker can serve any flow from its own replica.
        let nf = TrackerNf;
        let total = 16 + 16 * 20;
        let out = ThreadedMiddlebox::run(
            &ThreadedConfig::new(DispatchMode::Scr, 4),
            &nf,
            vec![syn_phase(16), data_phase(16, 20)],
        );
        assert_eq!(
            out.forwarded.len(),
            total,
            "every packet must find its flow state in the local replica"
        );
        assert_eq!(out.stats.nf_drops, 0);
        assert_eq!(out.stats.redirects(), 0, "SCR never redirects");
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{s:?}");
        assert!(s.scr_published > 0, "SYN writes must be multicast: {s:?}");
        assert!(s.scr_log_occupancy_hwm > 0, "{s:?}");
        let lag_total: u64 = s.scr_lag_hist.iter().sum();
        assert_eq!(lag_total, s.scr_applied, "one lag sample per replay");
        let busy = per_worker(&out).iter().filter(|&&p| p > 0).count();
        assert_eq!(busy, 4, "spraying one phase must reach all workers");
    }

    /// Opens a flow on SYN and closes it on FIN, so a long run walks
    /// many flows through a short live window.
    struct WindowNf;
    impl NetworkFunction for WindowNf {
        type Flow = u32;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("window")
        }
        fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u32>) -> Verdict {
            if let Some(t) = pkt.tuple() {
                if pkt
                    .meta()
                    .tcp_flags
                    .is_some_and(|f| f.contains(TcpFlags::FIN))
                {
                    ctx.remove_local_flow(&t.key());
                } else {
                    ctx.insert_local_flow(t.key(), 1);
                }
            }
            Verdict::Forward
        }
        fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<u32>) -> Verdict {
            Verdict::Forward
        }
    }

    #[test]
    fn scr_guard_stays_near_the_live_window_not_the_flow_count() {
        // 50 k flows, each closed 1 024 flows after it opened. A guard
        // that keeps a record per flow ever seen ends at ~50 k; the
        // floor lets every worker forget what no update can still need.
        // Closed loop over short queues, so a worker the host has
        // descheduled stalls its peers (and hence the floor's lag)
        // within a few hundred packets.
        const FLOWS: u32 = 50_000;
        const LIVE: u32 = 1_024;
        let conn = |f: u32, flags| {
            let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 443);
            PacketBuilder::new().tcp(t, 0, 0, flags, &payload(f))
        };
        let mut pkts = Vec::new();
        for f in 0..FLOWS + LIVE {
            if f < FLOWS {
                pkts.push(conn(f, TcpFlags::SYN));
            }
            if f >= LIVE {
                pkts.push(conn(f - LIVE, TcpFlags::FIN));
            }
        }
        let mut config = ThreadedConfig::new(DispatchMode::Scr, 3);
        config.queue_capacity = 64;
        config.ingress_retries = usize::MAX;
        let out = ThreadedMiddlebox::run(&config, &WindowNf, vec![pkts]);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{s:?}");
        assert_eq!(s.scr_log_drops, 0, "{s:?}");
        assert!(s.scr_published >= 2 * u64::from(FLOWS), "{s:?}");
        let bound = 4 * LIVE as usize + config.batch_size;
        assert!(
            out.scr_guard_hwm <= bound,
            "guard held {} records for a {LIVE}-flow window (bound {bound})",
            out.scr_guard_hwm
        );
        assert!(out.scr_guard_hwm > 0);
    }

    #[test]
    fn ports_on_threads_back_off_through_logs_of_one_or_two_slots() {
        // Two threads publish a thousand puts each to the other over
        // logs that hold one or two updates, so nearly every copy finds
        // the peer's log full. Under the workers' own policy nothing is
        // lost and the replicas agree; under the abandon policy each
        // abandoned one-op run is one drop, and the identity closes.
        const PUTS: u32 = 1_000;
        let key = |core: usize, i: u32| {
            FiveTuple::tcp(0x0a00_0000 + i, 40_000 + core as u16, 0xc0a8_0001, 443).key()
        };
        for capacity in [1, 2] {
            for abandon in [false, true] {
                let plane = SharedScrPlane::new(2, capacity);
                let tables =
                    SharedTables::new(CoreMap::new(DispatchMode::Scr, 2), 4 * PUTS as usize);
                let dead = [AtomicBool::new(false), AtomicBool::new(false)];
                let done = AtomicUsize::new(0);
                let abandoned: u64 = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..2)
                        .map(|core| {
                            let (plane, tables, dead, done) = (&plane, &tables, &dead, &done);
                            s.spawn(move || {
                                let (mut port, mut ctx) = (plane.port(core), tables.ctx(core));
                                let mut abandoned = 0;
                                // Only a blocked publisher replays
                                // before the epilogue, so a log fills
                                // whenever its owner is not blocked.
                                for i in 0..PUTS {
                                    plane.quiesce(core);
                                    ctx.insert_local_flow(key(core, i), i);
                                    port.extract(&TrackerNf, &[], &[], &ctx);
                                    ctx.clear_batch_log();
                                    port.publish(
                                        |_| true,
                                        |port, peer| match abandon {
                                            true => {
                                                abandoned += 1;
                                                Backoff::Abandon
                                            }
                                            false => {
                                                scr_make_room(&TrackerNf, tables, dead, port, peer)
                                            }
                                        },
                                    );
                                }
                                // The epilogue: publish no more, and
                                // replay until the peer is done too and
                                // the log is dry.
                                done.fetch_add(1, Ordering::SeqCst);
                                while done.load(Ordering::SeqCst) < 2 || plane.pending(core) > 0 {
                                    let floor = |plane: &SharedScrPlane<u32>| plane.floor(core);
                                    port.replay(&TrackerNf, floor, |run| tables.replica(core, run));
                                    std::thread::yield_now();
                                }
                                abandoned
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).sum()
                });
                let case = format!("capacity {capacity}, abandon {abandon}");
                let pending = (plane.pending(0) + plane.pending(1)) as u64;
                assert_eq!(
                    plane.published(),
                    plane.applied() + plane.dropped() + pending,
                    "{case}"
                );
                assert_eq!(
                    plane.dropped(),
                    abandoned,
                    "{case}: one drop per abandoned run"
                );
                if abandon {
                    // The first to finish published every put while its
                    // peer was not yet replaying.
                    let filled = u64::from(PUTS) - capacity as u64;
                    assert!(abandoned >= filled, "{case}: {abandoned} runs abandoned");
                    continue;
                }
                assert_eq!(plane.dropped(), 0, "{case}");
                assert_eq!(plane.published(), plane.applied(), "{case}");
                assert_eq!(plane.published(), 2 * u64::from(PUTS), "{case}");
                for (core, i) in (0..2).flat_map(|core| (0..PUTS).map(move |i| (core, i))) {
                    let k = key(core, i);
                    let replicas = [0, 1].map(|c| tables.ctx(c).get_local_flow(&k));
                    assert_eq!(replicas, [Some(i); 2], "{case}: key {i} of core {core}");
                }
            }
        }
    }

    #[test]
    fn scr_worker_crash_still_conserves_updates_and_packets() {
        // Worker 1 dies mid-run under SCR: its log truncates to
        // accounted drops, survivors finish their epilogue, and both
        // conservation identities close.
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Scr, 3);
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Crash { core: 1, after: 5 },
                vec![syn_phase(16), data_phase(16, 20)],
            ),
        );
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        let s = &out.stats;
        assert!(s.lost_packets > 0, "{s:?}");
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{s:?}");
        assert_eq!(
            out.stats.redirects(),
            0,
            "SCR never redirects, even crashing"
        );
    }

    #[test]
    fn scr_elastic_rescale_bootstraps_joiners_without_migration() {
        // 2 → 4 under elastic SCR: joiners clone the union replica at
        // the barrier, so nothing migrates and every packet still finds
        // its state on every width.
        let nf = TrackerNf;
        let config = ThreadedConfig::new(DispatchMode::Scr, 2);
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            vec![
                Step::Phase(syn_phase(32)),
                Step::Rescale(4),
                Step::Phase(data_phase(32, 10)),
            ],
        );
        assert_eq!(out.reconfigs.len(), 1);
        let r = &out.reconfigs[0];
        assert_eq!((r.from_cores, r.to_cores), (2, 4));
        assert_eq!(r.migrated_flows, 0, "full replication migrates nothing");
        assert_eq!(r.retained_flows, 32);
        assert_eq!(out.stats.nf_drops, 0, "joiners must hold the full replica");
        assert_eq!(out.stats.redirects(), 0);
        let s = &out.stats;
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{s:?}");
        assert!(
            per_worker(&out).iter().all(|&p| p > 0),
            "the wide phase must use the joiners: {:?}",
            per_worker(&out)
        );
    }

    /// A crash or a fenced stall, then a rescale, in one run: every
    /// conservation identity still closes, in every mode, with the
    /// lifecycle off and on. The fault fires in the first data phase;
    /// the rescale re-provisions the dead core with two joiners.
    #[test]
    fn steps_compose_faults_and_rescales_in_every_mode() {
        let faults = [
            Step::Crash { core: 1, after: 5 },
            Step::Stall {
                core: 1,
                after: 5,
                duration_ns: 40_000_000,
                deadline_ns: 10_000_000,
            },
        ];
        for mode in DispatchMode::ALL {
            for fault in &faults {
                for lifecycle in [
                    LifecycleConfig::disabled(),
                    LifecycleConfig::bounded(1_000_000),
                ] {
                    let nf = TrackerNf;
                    let mut config = ThreadedConfig::new(mode, 2);
                    config.ingress_retries = 8;
                    config.lifecycle = lifecycle;
                    let steps = vec![
                        Step::Phase(syn_phase(32)),
                        fault.clone(),
                        Step::Phase(data_phase(32, 20)),
                        Step::Rescale(4),
                        Step::Phase(data_phase(32, 20)),
                    ];
                    let out = ThreadedMiddlebox::run_steps(&config, &nf, steps);
                    let s = &out.stats;
                    let what = format!("{mode:?} {fault:?} {lifecycle:?}");
                    assert_eq!(s.offered, 32 + 2 * 640, "{what}");
                    assert_eq!(s.unaccounted(), 0, "{what}: {s:?}");
                    assert_eq!(s.scr_replay_gap(), 0, "{what}: {s:?}");
                    assert_eq!(out.failures.len(), 1, "{what}: {:?}", out.failures);
                    assert_eq!(out.failures[0].core, 1, "{what}");
                    assert_eq!(out.reconfigs.len(), 1, "{what}");
                    assert_eq!(s.per_core.len(), 4, "{what}");
                    if lifecycle.enabled() {
                        assert_eq!(s.flow_unaccounted(), 0, "{what}: {s:?}");
                    }
                }
            }
        }
    }

    /// A packet the NIC steers to a dead worker's queue is lost without
    /// ever being enqueued; its trace-only drop event keeps the trace's
    /// ingress identity closed in every mode.
    #[test]
    fn steering_to_a_dead_core_keeps_the_trace_conserved() {
        for mode in DispatchMode::ALL {
            let nf = TrackerNf;
            let mut config = ThreadedConfig::new(mode, 2);
            config.obs = ObsConfig::tracing();
            let mut pkts = syn_phase(16);
            pkts.extend(data_phase(16, 1_250));
            let out = ThreadedMiddlebox::run_steps(
                &config,
                &nf,
                with_fault(Step::Crash { core: 0, after: 0 }, vec![pkts]),
            );
            let s = &out.stats;
            assert_eq!(s.offered, 20_016);
            assert_eq!(s.unaccounted(), 0, "{mode:?}: {s:?}");
            assert_eq!(out.failures.len(), 1, "{mode:?}: {:?}", out.failures);
            let trace = out.trace.as_ref().expect("trace requested");
            assert_eq!(trace.dropped, 0, "{mode:?}: default ring fits this run");
            let c = sprayer_obs::analyze(trace).conservation;
            assert!(c.ok(), "{mode:?}: {:?}", c.violations);
            assert!(
                c.dead_core_drops > 0 && c.dead_core_drops <= s.lost_packets,
                "{mode:?}: {} dead-core drops, {} lost",
                c.dead_core_drops,
                s.lost_packets
            );
        }
    }

    /// Open bursts are pushed when a phase's input ends, however few
    /// packets they hold: nothing is left behind, in any mode or width.
    #[test]
    fn partial_bursts_flush_at_phase_end() {
        let nf = TrackerNf;
        let sizes = [1, 33, 8 * 32 + 5];
        for mode in DispatchMode::ALL {
            for workers in 1..=3 {
                let config = ThreadedConfig::new(mode, workers);
                let phases = sizes.iter().map(|&n| syn_phase(n)).collect();
                let out = ThreadedMiddlebox::run(&config, &nf, phases);
                let s = &out.stats;
                let what = format!("{mode:?} on {workers}");
                assert_eq!(s.forwarded, 1 + 33 + 8 * 32 + 5, "{what}: {s:?}");
                assert_eq!(s.unaccounted(), 0, "{what}: {s:?}");
            }
        }
    }

    /// A burst the queue refuses is dropped whole — every packet a
    /// `queue_drop` with one `QueueFull` event and no admission event —
    /// with a queue capacity that is not a whole number of bursts.
    #[test]
    fn refused_bursts_drop_whole_and_trace_once() {
        use sprayer_obs::EventKind;
        use std::collections::BTreeMap;
        let nf = TrackerNf;
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = ObsConfig::tracing();
        config.ingress_retries = 0;
        config.queue_capacity = 40;
        let mut pkts = syn_phase(64);
        pkts.extend(data_phase(64, 20));
        let out = ThreadedMiddlebox::run_steps(
            &config,
            &nf,
            with_fault(
                Step::Stall {
                    core: 0,
                    after: 0,
                    duration_ns: 50_000_000,
                    deadline_ns: UNFENCED_NS,
                },
                vec![pkts],
            ),
        );
        let s = &out.stats;
        assert!(s.queue_drops > 0, "{s:?}");
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(trace.dropped, 0, "default ring fits this run");
        let c = sprayer_obs::analyze(trace).conservation;
        assert!(c.ok(), "{:?}", c.violations);
        assert_eq!(c.queue_drops, s.queue_drops);
        // Per queue, in arrival order: admitted (true) or refused.
        let mut fate: Vec<BTreeMap<u64, bool>> = vec![BTreeMap::new(); 2];
        for e in trace.events.iter() {
            let admitted = match e.kind {
                EventKind::IngressEnqueue => true,
                EventKind::Drop if e.aux == DropKind::QueueFull.to_aux() => false,
                _ => continue,
            };
            let seen = fate[usize::from(e.core)].insert(e.pkt, admitted);
            assert!(seen.is_none(), "packet {} admitted or refused twice", e.pkt);
        }
        // Bursts are a queue's packets 32 at a time: each shares one fate.
        for (q, packets) in fate.iter().enumerate() {
            let fates: Vec<bool> = packets.values().copied().collect();
            for burst in fates.chunks(config.batch_size) {
                assert!(
                    burst.iter().all(|&f| f == burst[0]),
                    "queue {q}: a burst was split: {burst:?}"
                );
            }
        }
    }
}
