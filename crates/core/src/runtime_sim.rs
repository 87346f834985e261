//! The deterministic discrete-event middlebox runtime.
//!
//! Models the paper's middlebox server end to end: NIC classification
//! (RSS or checksum spraying), per-core receive queues, the Sprayer
//! architecture of §3.3 — connection-packet detection, descriptor rings
//! to designated cores, local processing of regular packets — and a
//! cycle-accurate cost model for the NF body.
//!
//! [`MiddleboxSim`] owns a private event queue so it can run standalone
//! ([`MiddleboxSim::run_until`]) or be co-simulated with other models
//! (e.g. TCP endpoints): call [`MiddleboxSim::ingress`] as packets
//! arrive, [`MiddleboxSim::advance_until`] to process internal events up
//! to a time, [`MiddleboxSim::next_event_time`] to interleave with an
//! outer event loop, and [`MiddleboxSim::take_egress`] to collect
//! forwarded packets with their departure times.

use crate::api::{NetworkFunction, NfConfig, Verdict, VerdictSink};
use crate::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use crate::coremap::CoreMap;
use crate::elastic::{ReconfigReport, RecoveryReport};
use crate::engine::{self, Engine, PacketClass};
use crate::obs_sink::{Completion, ObsHub, ObsLane, ObsReport};
use crate::scr::{self, ScrReplica, SharedScrPlane, StateUpdate, UpdateOp};
use crate::stats::{CoreStats, MiddleboxStats};
use crate::tables::{FailoverStats, LocalTables};
use sprayer_net::{FlowKey, Packet};
use sprayer_nic::{Nic, RxSteering};
use sprayer_obs::{DropKind, FlightSnapshot, HealthEvent, LatencyProbes, Stage};
use sprayer_sim::{BoundedFifo, EventQueue, Time};
use std::sync::Arc;

/// Trace timestamps are simulated-time picoseconds: 10^6 ticks/µs.
const SIM_TICKS_PER_US: u64 = 1_000_000;

/// One unit of work queued at a core.
#[derive(Debug)]
struct Job {
    pkt: Packet,
    /// Classification from ingress: headers are parsed once and the
    /// result rides with the packet through queueing and redirect.
    class: PacketClass,
    /// Wire arrival time (latency measurements are end-to-end).
    arrival: Time,
    /// Whether this job came in through the inter-core ring.
    via_ring: bool,
    /// Arrival ordinal (trace packet id). Always assigned — a counter
    /// bump — so traces from partial captures still have stable ids.
    id: u64,
    /// Stable flow hash for trace events; 0 when tracing is off or the
    /// packet has no parseable tuple.
    flow: u64,
    /// When the redirect push happened, for ring-latency probes.
    relayed_at: Option<Time>,
}

/// What the core will do when its current service completes.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Run the NF and emit the packet.
    Process,
    /// Transfer the descriptor to the designated core's ring.
    Redirect(usize),
}

#[derive(Debug)]
struct CoreSim {
    rx: BoundedFifo<Job>,
    ring: BoundedFifo<Job>,
    current: Option<(Job, Effect)>,
    /// Jobs served since the core last went idle. The simulator has no
    /// literal burst dequeue (each service is an event), so the
    /// busy-burst length is its analogue of the threaded runtime's batch
    /// size — both are recorded in [`crate::stats::CoreStats::batch_hist`].
    burst: u64,
    /// When the in-flight service began, and the SCR replay cycles
    /// folded into its head (zero outside SCR mode): what the
    /// completion reports besides the job.
    current_start: Time,
    current_replay: u64,
}

impl CoreSim {
    /// An idle core with empty queues sized per `config`.
    fn new(config: &MiddleboxConfig) -> Self {
        CoreSim {
            rx: BoundedFifo::new(config.queue_capacity),
            ring: BoundedFifo::new(config.ring_capacity),
            current: None,
            burst: 0,
            current_start: Time::ZERO,
            current_replay: 0,
        }
    }
}

/// How an epoch transition remaps the cores.
#[derive(Debug, Clone, Copy)]
enum Remap {
    /// A planned rescale to this many cores.
    Rescale(usize),
    /// An unplanned failover away from this dead core.
    Failover(usize),
}

/// What one epoch transition moved and cost, for its caller's report.
struct Transition {
    now: Time,
    moved: FailoverStats,
    migrated_packets: u64,
    downtime: Time,
}

/// The simulated middlebox.
pub struct MiddleboxSim<NF: NetworkFunction> {
    config: MiddleboxConfig,
    nic: Nic,
    coremap: CoreMap,
    tables: LocalTables<NF::Flow>,
    nf: NF,
    nf_config: NfConfig,
    cores: Vec<CoreSim>,
    /// Service completions, keyed by core.
    events: EventQueue<usize>,
    now: Time,
    /// Earliest time the Flow Director path can admit the next packet.
    nic_admit_free: Time,
    /// The Flow Director admission interval, `1 / fdir_cap_pps`; `None`
    /// when uncapped.
    fdir_interval: Option<Time>,
    stats: MiddleboxStats,
    egress: Vec<(Time, Packet)>,
    /// Every plane of `config.obs`: one lane over all cores. What the
    /// simulator adds to an event is exactness — each service's
    /// composition is known, so profiled stage ticks sum to
    /// [`CoreStats::busy_cycles`] and tail spans to the sojourn.
    obs: ObsLane,
    /// Cores pause until this instant after a reconfiguration (the
    /// quiesce-and-migrate downtime). `Time::ZERO` = not frozen.
    frozen_until: Time,
    /// Next idle-sweep instant for the flow-lifecycle aging pass;
    /// `None` when no idle timeout is configured (zero cost).
    next_sweep: Option<Time>,
    /// One report per completed [`MiddleboxSim::reconfigure`] call.
    reconfigs: Vec<ReconfigReport>,
    /// Per-core crash flags ([`MiddleboxSim::inject_core_failure`]); a
    /// failed core stays dark for the rest of the run.
    failed: Vec<bool>,
    /// When each failure was injected, for detection-latency accounting.
    fail_time: Vec<Option<Time>>,
    /// `lost_packets` value just before each core's failure was
    /// injected, so the recovery report can attribute the delta.
    lost_baseline: Vec<u64>,
    /// Cores wedged (alive but not picking up work) until this instant.
    stalled_until: Vec<Time>,
    /// One report per completed [`MiddleboxSim::recover`] call.
    recoveries: Vec<RecoveryReport>,
    /// NIC-queue → core translation. Identity until a recovery shrinks
    /// the NIC to the surviving queue count, after which it maps the
    /// (smaller) queue index space back to real core ids.
    queue_map: Vec<usize>,
    /// Present iff `config.mode` is [`DispatchMode::Scr`] and the NF is
    /// stateful: the state-update multicast log and replay plane
    /// ([`crate::scr`]). Counters fold into the `scr_*` fields of
    /// [`MiddleboxStats`].
    scr: Option<SharedScrPlane<NF::Flow>>,
    /// One version guard per core of the plane (empty without one).
    scr_guards: Vec<ScrReplica>,
    /// Scratch verdict buffer for [`engine::run_nf_batch`], reused
    /// across events so the hot path never allocates.
    sink: VerdictSink,
}

impl<NF: NetworkFunction> Engine for MiddleboxSim<NF> {
    fn mode(&self) -> DispatchMode {
        self.config.mode
    }

    fn stateless(&self) -> bool {
        self.nf_config.stateless
    }

    fn designated_core(&self, key: &FlowKey) -> usize {
        self.coremap.designated_for_key(key)
    }
}

impl<NF: NetworkFunction> MiddleboxSim<NF> {
    /// Build the middlebox from a model configuration and an NF.
    pub fn new(config: MiddleboxConfig, nf: NF) -> Self {
        Self::build(config, nf, false)
    }

    /// Build an *elastic* middlebox: identical to [`MiddleboxSim::new`]
    /// except that under Sprayer the designated-core mapping is the
    /// rendezvous hash ([`CoreMap::elastic`]), so later
    /// [`MiddleboxSim::reconfigure`] calls migrate only the flows
    /// touching the joining or leaving cores.
    pub fn new_elastic(config: MiddleboxConfig, nf: NF) -> Self {
        Self::build(config, nf, true)
    }

    /// The NIC for this configuration's dispatch mode at a queue count —
    /// built at construction and again at every epoch transition (the
    /// "reprogram the NIC" step). `paper_testbed` leaves the Flow
    /// Director cap `None` under SCR, since no perfect-filter redirect
    /// rules are needed there.
    fn nic_for(config: &MiddleboxConfig, queues: usize) -> Nic {
        let (cap, subset) = (config.fdir_cap_pps, config.spray_subset_k);
        Nic::new(engine::nic_config(config.mode, queues, cap, subset))
    }

    fn build(config: MiddleboxConfig, nf: NF, elastic: bool) -> Self {
        let nf_config = nf.config();
        // Under subset spraying, a flow's packets only visit the k queues
        // anchored at its RSS queue — so its state must live there too:
        // the designated core follows the RSS map (the subset anchor)
        // instead of the full-spray hash.
        let designated_mode =
            if config.mode == DispatchMode::Sprayer && config.spray_subset_k.is_some() {
                DispatchMode::Rss
            } else {
                config.mode
            };
        let coremap = if elastic {
            CoreMap::elastic(designated_mode, config.num_cores)
        } else {
            CoreMap::new(designated_mode, config.num_cores)
        };
        let mut tables = LocalTables::new(coremap.clone(), nf_config.flow_table_capacity);
        tables.set_lifecycle(config.lifecycle);
        let cores = (0..config.num_cores)
            .map(|_| CoreSim::new(&config))
            .collect();
        // A stateless NF has nothing to replicate: SCR degenerates to
        // pure spraying and the plane (and its per-update costs) is
        // elided entirely.
        let scr = (config.mode == DispatchMode::Scr && !nf_config.stateless)
            .then(|| SharedScrPlane::new(config.num_cores, config.scr_log_capacity));
        let scr_guards = Self::scr_guards_for(&scr);
        let mut stats = MiddleboxStats::new(config.num_cores);
        stats.lifecycle_enabled = config.lifecycle.enabled();
        // Profile ticks are model cycles; the scale is cycles per µs.
        let profile = (&*nf.profile_label(), config.clock.hz() / 1_000_000);
        let obs = Self::obs_lane(config.obs, config.num_cores, profile);
        MiddleboxSim {
            nic: Self::nic_for(&config, config.num_cores),
            coremap,
            tables,
            nf,
            nf_config,
            cores,
            events: EventQueue::new(),
            now: Time::ZERO,
            nic_admit_free: Time::ZERO,
            fdir_interval: config
                .fdir_cap_pps
                .map(|cap| Time::from_ps((1e12 / cap) as u64)),
            stats,
            egress: Vec::new(),
            obs,
            frozen_until: Time::ZERO,
            next_sweep: config
                .lifecycle
                .idle_timeout_us
                .map(|_| Time::from_us(config.lifecycle.sweep_interval_us.max(1))),
            reconfigs: Vec::new(),
            failed: vec![false; config.num_cores],
            fail_time: vec![None; config.num_cores],
            lost_baseline: vec![0; config.num_cores],
            stalled_until: vec![Time::ZERO; config.num_cores],
            recoveries: Vec::new(),
            queue_map: (0..config.num_cores).collect(),
            scr,
            scr_guards,
            sink: VerdictSink::with_capacity(1),
            config,
        }
    }

    /// One lane over all cores, on a fresh hub: ticks are simulated
    /// picoseconds, `profile` is the NF label and model cycles per µs.
    fn obs_lane(obs: ObsConfig, cores: usize, profile: (&str, u64)) -> ObsLane {
        Arc::new(ObsHub::new(obs, "sim", SIM_TICKS_PER_US, profile, cores, 1)).lane(0..cores, true)
    }

    /// Fresh version guards for `plane`'s cores.
    fn scr_guards_for(plane: &Option<SharedScrPlane<NF::Flow>>) -> Vec<ScrReplica> {
        let cores = plane.as_ref().map_or(0, SharedScrPlane::num_cores);
        (0..cores).map(|_| ScrReplica::new()).collect()
    }

    /// SCR replay-before-dispatch (see [`crate::scr`]): consume every
    /// pending remote state-update from `core`'s inbound log into its
    /// replica through [`scr::replay`]. Returns the model cycles the
    /// replay cost (`scr_apply_cycles` per consumed update) — already
    /// attributed to [`Stage::Classify`] and folded into the `scr_*`
    /// stats; the *caller* charges them to `busy_cycles` (and, on the
    /// dispatch path, extends the service by them). A no-op returning 0
    /// outside SCR mode.
    fn scr_replay(&mut self, core: usize) -> u64 {
        // Per-core structures never shrink on scale-down but the
        // next-epoch plane does: a retired core has no log, no guard
        // and no replica to maintain.
        let (Some(plane), Some(guard)) = (self.scr.as_ref(), self.scr_guards.get_mut(core)) else {
            return 0;
        };
        // Every kick comes through here: an empty log costs one read.
        if plane.pending(core) == 0 && !guard.prune_due() {
            return 0;
        }
        let applied = scr::replay(
            &self.nf,
            guard,
            self.tables.replica(core),
            std::iter::from_fn(|| plane.pop(core)),
            plane.head_seq(),
            &mut self.stats.scr_lag_hist,
        );
        // A publish lands on every log at once, so the log run dry is
        // the guard floor at the global head: nothing at or below it
        // can still arrive, and the guard forgets.
        if guard.prune_due() {
            guard.forget_below(plane.head_seq());
        }
        self.stats.scr_applied += applied;
        let cycles = applied * self.config.scr_apply_cycles;
        self.stats.scr_replay_cycles += cycles;
        self.obs.stage(core, Stage::Classify, cycles);
        cycles
    }

    /// True when `peer` is owed `origin`'s updates: any other core that
    /// has not crashed (a dead peer's log is dark, not leaking).
    fn scr_owed(&self, origin: usize, peer: usize) -> bool {
        peer != origin && !self.failed[peer]
    }

    /// SCR publish-after-dispatch: extract the batch's state-updates
    /// through [`NetworkFunction::replicate_updates`] and multicast each
    /// onto every live peer's log, stamped with its global sequence
    /// number and noted in this core's own version guard first, so a
    /// slower remote update for the same flow can never overwrite the
    /// newer local write. Publish cycles (`scr_publish_cycles` per
    /// enqueued copy) are charged to `busy_cycles` under
    /// [`Stage::Redirect`] — the ring-transfer budget SCR spends on
    /// state instead of descriptors — without extending the completed
    /// service's event time. A no-op outside SCR mode.
    ///
    /// A full *live* peer log is backpressure, not loss: before each
    /// multicast the publisher drains any blocked live peer's log in
    /// its stead ([`Self::scr_replay`], charged to the peer), so a
    /// live peer never drops an update and `scr_log_drops` counts only
    /// dead-core truncation.
    fn scr_publish(&mut self, core: usize, pkts: &[Packet], conn: &[bool]) {
        // Mirror of the scr_replay guard: a core retired by a
        // scale-down has no slot in the next-epoch plane.
        let num_cores = self.scr.as_ref().map_or(0, SharedScrPlane::num_cores);
        if core >= num_cores {
            return;
        }
        let mut ops = Vec::new();
        {
            let ctx = self.tables.ctx(core);
            self.nf.replicate_updates(pkts, conn, &ctx, &mut ops);
        }
        // The batch's mutation log fed the hook; reset it either way so
        // the next batch starts clean.
        self.tables.clear_batch_log(core);
        let (mut sent, mut dropped) = (0u64, 0u64);
        for op in ops {
            for peer in 0..num_cores {
                let full = |p: &SharedScrPlane<_>| p.pending(peer) >= self.config.scr_log_capacity;
                if self.scr_owed(core, peer) && self.scr.as_ref().is_some_and(full) {
                    let cycles = self.scr_replay(peer);
                    self.stats.per_core[peer].busy_cycles += cycles;
                }
            }
            let Some(plane) = self.scr.as_ref() else {
                return;
            };
            let seq = plane.assign_seq();
            self.scr_guards[core].note_local(*op.key(), seq, matches!(op, UpdateOp::Del(_)));
            for peer in 0..num_cores {
                if !self.scr_owed(core, peer) {
                    continue;
                }
                let update = StateUpdate {
                    seq,
                    origin: core,
                    op: op.clone(),
                };
                match plane.try_send(peer, update) {
                    Ok(()) => sent += 1,
                    // Not while the drain above runs first; counted so
                    // the identity closes whatever that policy becomes.
                    Err(_) => {
                        plane.count_drop();
                        dropped += 1;
                    }
                }
            }
        }
        if let Some(plane) = self.scr.as_ref() {
            self.stats.scr_log_occupancy_hwm =
                self.stats.scr_log_occupancy_hwm.max(plane.occupancy_hwm());
        }
        self.stats.scr_published += sent + dropped;
        self.stats.scr_log_drops += dropped;
        let cycles = sent * self.config.scr_publish_cycles;
        self.stats.per_core[core].busy_cycles += cycles;
        self.obs.stage(core, Stage::Redirect, cycles);
    }

    /// Replay every live core's pending updates (quiesced-plane
    /// convergence: before a rescale, at recovery, and whenever the
    /// event queue runs dry — an idle core polls its log, so replicas
    /// converge at rest and [`MiddleboxStats::scr_replay_gap`] closes).
    fn scr_drain_live(&mut self) {
        if self.scr.is_none() {
            return;
        }
        for core in 0..self.cores.len() {
            if self.failed[core] {
                continue;
            }
            let cycles = self.scr_replay(core);
            self.stats.per_core[core].busy_cycles += cycles;
        }
    }

    /// Run the NF's [`NetworkFunction::evict_flow`] hook on every entry
    /// the lifecycle layer staged on `core` (the hook cannot run inside
    /// the table context — it needs the NF), then, under SCR, publish
    /// any eviction `Del`s still sitting in the mutation log so the
    /// victims disappear from every replica.
    fn run_eviction_hooks(&mut self, core: usize) {
        // Per-core runtime structures never shrink on scale-down, but
        // the tables' do — cores past the current epoch have no table.
        if core >= self.tables.map().num_cores() {
            return;
        }
        let evicted = self.tables.take_evictions(core);
        if evicted.is_empty() {
            return;
        }
        for (key, mut state, reason) in evicted {
            self.nf.evict_flow(&key, &mut state, reason);
        }
        if self.scr.is_some() {
            self.scr_publish(core, &[], &[]);
        }
    }

    /// Lifecycle aging pass: when an idle timeout is configured and the
    /// sweep interval has elapsed, sweep every live core's table for
    /// expired entries and run the eviction hooks. Runs between events
    /// (from [`MiddleboxSim::advance_until`]), so it never interleaves
    /// with a batch's mutation log.
    fn maybe_sweep(&mut self, now: Time) {
        let Some(due) = self.next_sweep else {
            return;
        };
        if now < due {
            return;
        }
        let interval = Time::from_us(self.config.lifecycle.sweep_interval_us.max(1));
        let mut next = due;
        while next <= now {
            next += interval;
        }
        self.next_sweep = Some(next);
        let now_us = now.as_ps() / SIM_TICKS_PER_US;
        // Bound by the tables' core count: runtime per-core structures
        // never shrink on scale-down, the tables' do.
        for core in 0..self.tables.map().num_cores().min(self.cores.len()) {
            if self.failed[core] {
                continue;
            }
            self.tables.sweep_idle(core, now_us);
            self.run_eviction_hooks(core);
        }
        self.sync_lifecycle();
    }

    /// Copy the table layer's cumulative lifecycle counters into the
    /// stats block and advance the residency high-water mark, so
    /// `stats()` always reflects the tables. Called at four sync
    /// points: after every completion (the high-water mark must see
    /// the post-batch peak), after every idle sweep, at the end of
    /// [`MiddleboxSim::advance_until`], and after every epoch
    /// transition. A sync with the tables unchanged since the last one
    /// ([`LocalTables::take_changed`]) would write the values already
    /// there, so it returns at once.
    fn sync_lifecycle(&mut self) {
        if !self.tables.take_changed() {
            return;
        }
        let live = self.tables.total_entries();
        self.stats.sync_lifecycle(self.tables.counters(), live);
    }

    /// Emit a health event at the current simulated time — the hook the
    /// control plane (chaos/elastic controllers) uses to put its own
    /// lifecycle events (fault injections, scaling decisions) on the
    /// same bus as the runtime's.
    pub fn emit_health(&mut self, event: HealthEvent) {
        self.obs.health(self.now.as_ps(), event);
    }

    /// The configuration in use.
    pub fn config(&self) -> &MiddleboxConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &MiddleboxStats {
        &self.stats
    }

    /// The runtime-emitted latency histograms, when
    /// [`crate::config::ObsConfig::latency`] is on. Values are
    /// nanoseconds of simulated time.
    pub fn probes(&self) -> Option<&LatencyProbes> {
        self.obs.probes()
    }

    /// Detach everything the run observed: each field of the report is
    /// `Some` iff its [`ObsConfig`] plane is on. The trace is stamped
    /// with the current [`MiddleboxStats`] as its expected counts;
    /// timestamps are simulated-time picoseconds (`ticks_per_us =
    /// 10^6`), profile ticks model cycles. Call once, after the run:
    /// recording stops, and a second call reports nothing.
    pub fn take_obs(&mut self) -> ObsReport {
        let off = Self::obs_lane(ObsConfig::disabled(), self.config.num_cores, ("", 1));
        let lane = std::mem::replace(&mut self.obs, off);
        let hub = lane.hub.clone();
        hub.finish(vec![lane], &self.stats)
    }

    /// Snapshot the flight recorder without consuming it — the hook the
    /// ctl crate's alert→dump path uses to persist the black box the
    /// moment a critical alert fires, while the run continues.
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        self.obs.flight_snapshot()
    }

    /// The flow tables (for assertions about state placement).
    pub fn tables(&self) -> &LocalTables<NF::Flow> {
        &self.tables
    }

    /// The designated-core map currently in force.
    pub fn coremap(&self) -> &CoreMap {
        &self.coremap
    }

    /// Cores currently receiving work. The internal core array never
    /// shrinks — after a scale-down the trailing cores go inactive but
    /// keep their cumulative stats; after an unplanned failure the dead
    /// core's slot stays dark.
    pub fn active_cores(&self) -> usize {
        self.coremap.active_core_ids().len()
    }

    /// Reports from every [`MiddleboxSim::reconfigure`] call, in order.
    pub fn reconfigs(&self) -> &[ReconfigReport] {
        &self.reconfigs
    }

    /// Reports from every [`MiddleboxSim::recover`] call, in order.
    pub fn recoveries(&self) -> &[RecoveryReport] {
        &self.recoveries
    }

    /// The NF instance.
    pub fn nf(&self) -> &NF {
        &self.nf
    }

    /// Forwarded packets with their departure times, drained in order.
    /// The buffer keeps its capacity for the packets forwarded next.
    pub fn take_egress(&mut self) -> std::vec::Drain<'_, (Time, Packet)> {
        self.egress.drain(..)
    }

    /// Time of the earliest pending internal event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Current internal clock (the last event processed or ingress seen).
    pub fn now(&self) -> Time {
        self.now
    }

    fn schedule(&mut self, at: Time, core: usize) {
        self.events.push(at, core);
    }

    /// A packet arrives from the wire at `now`.
    ///
    /// Internally processes any events up to `now` first, so callers may
    /// interleave `ingress` and `advance_until` freely as long as `now`
    /// is monotone.
    pub fn ingress(&mut self, now: Time, pkt: Packet) {
        self.advance_until(now);
        self.now = self.now.max(now);
        let id = self.stats.offered;
        self.stats.offered += 1;
        // Parse headers exactly once: the classification rides with the
        // job through queueing, redirect, and NF dispatch.
        let class = PacketClass::of(&pkt);
        let flow = self.obs.hub.flow_hash(class.key);

        let (queue, steering) = self.nic.steer(&pkt);
        let core = self.queue_map[usize::from(queue)];

        // Between a failure and its recovery the NIC still steers to the
        // dead core's queue; nothing will ever drain it. These packets
        // are the detection-latency cost, accounted as lost.
        if self.failed[core] {
            self.stats.lost_packets += 1;
            return;
        }

        // The 82599's Flow Director rate limitation (§5): packets on the
        // perfect-filter path are admitted at no more than the cap;
        // excess packets are lost in the NIC.
        if steering == RxSteering::FlowDirector {
            if let Some(interval) = self.fdir_interval {
                if now < self.nic_admit_free {
                    self.stats.nic_cap_drops += 1;
                    self.obs.drop(core, now.as_ps(), DropKind::NicCap, flow, id);
                    return;
                }
                // Work-conserving limiter with one interval of credit:
                // long-run admission rate equals the cap even when
                // arrivals don't align with admission slots.
                self.nic_admit_free =
                    self.nic_admit_free.max(now.saturating_sub(interval)) + interval;
            }
        }

        let job = Job {
            pkt,
            class,
            arrival: now,
            via_ring: false,
            id,
            flow,
            relayed_at: None,
        };
        if self.cores[core].rx.push(job).is_err() {
            self.stats.queue_drops += 1;
            self.obs
                .drop(core, now.as_ps(), DropKind::QueueFull, flow, id);
            return;
        }
        self.obs.ingress(core, now.as_ps(), flow, id);
        let rx_depth = self.cores[core].rx.len() as u64;
        self.stats.per_core[core].observe_rx_depth(rx_depth);
        self.obs
            .sample(core, now.as_ps(), |s| s.rx_occupancy_hwm = rx_depth);
        self.kick(core, now);
    }

    /// A raw frame arrives from the wire at `now` — the adversarial
    /// ingress path. Parseable frames take the normal
    /// [`MiddleboxSim::ingress`] path; truncated or garbage frames are
    /// discarded *by the NIC* (they never reach a queue) and accounted
    /// as [`MiddleboxStats::malformed_drops`].
    pub fn ingress_frame(&mut self, now: Time, frame: Vec<u8>) {
        match Packet::parse(frame) {
            Ok(pkt) => self.ingress(now, pkt),
            Err(_) => {
                self.advance_until(now);
                self.now = self.now.max(now);
                self.stats.offered += 1;
                self.stats.malformed_drops += 1;
                self.nic.note_malformed();
            }
        }
    }

    /// Process all internal events at or before `deadline`.
    pub fn advance_until(&mut self, deadline: Time) {
        while let Some((t, core)) = self.events.pop_until(deadline) {
            self.now = self.now.max(t);
            self.complete(core, t);
            // Aging runs between events, at event granularity: each
            // completion checks whether a sweep came due.
            self.maybe_sweep(self.now);
        }
        self.now = self.now.max(deadline);
        // At rest (no events left), idle cores poll their SCR logs:
        // replicas converge and the replay gap closes whenever the
        // plane drains — the `scr_replay_gap() == 0` acceptance
        // condition holds at every quiet point, not just at shutdown.
        // Drain BEFORE the deadline sweep: a Put still queued in an
        // idle replica's log would otherwise materialize after the
        // last sweep and survive until the next advance. Then drain
        // again so the sweep's eviction Dels land on every replica.
        if self.events.is_empty() {
            self.scr_drain_live();
        }
        self.maybe_sweep(self.now);
        if self.events.is_empty() {
            self.scr_drain_live();
        }
        self.sync_lifecycle();
    }

    /// Run standalone until the internal queue empties or `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        self.advance_until(deadline);
    }

    /// True when no core is busy and no work is queued.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
            && self
                .cores
                .iter()
                .all(|c| c.current.is_none() && c.rx.is_empty() && c.ring.is_empty())
    }

    /// Start the next job on `core` if it is idle and work is available.
    fn kick(&mut self, core: usize, now: Time) {
        // Every pick-up attempt — the one that ends each ingress
        // included — shows the queue to the high-water latch.
        let (depth, capacity) = (self.cores[core].rx.len(), self.config.queue_capacity);
        self.obs
            .queue_depth(core, depth as u64, capacity as u64, || now.as_ps());
        if self.cores[core].current.is_some() {
            return;
        }
        // A crashed core never restarts; a stalled core resumes at the
        // wake event [`MiddleboxSim::stall_core`] schedules.
        if self.failed[core] || now < self.stalled_until[core] {
            return;
        }
        // During a reconfiguration pause, cores accept no new work. The
        // wake events [`MiddleboxSim::reconfigure`] schedules at the thaw
        // instant restart every active core.
        if now < self.frozen_until {
            return;
        }
        // Ring (connection) work first: §3.3 batches local and foreign
        // connection packets into the connection handler.
        let (job, service_cycles, ring_dq_cycles) = if let Some(job) = self.cores[core].ring.pop() {
            if let Some(at) = job.relayed_at {
                self.obs
                    .redirect_in(core, now.as_ps(), now.saturating_sub(at).as_ps());
            }
            let cycles = self.config.ring_dequeue_cycles + self.config.service_cycles_for(&job.pkt);
            (job, cycles, self.config.ring_dequeue_cycles)
        } else if let Some(job) = self.cores[core].rx.pop() {
            // Decide at pick-up time whether this is a redirect — the
            // engine's core picker over the ingress classification (the
            // designated core resolves against the *current* map, which
            // may have advanced an epoch since the packet queued).
            let redirect = Engine::redirect_target(self, &job.class, core);
            if let Some(target) = redirect {
                let cycles = self.config.overhead_cycles + self.config.ring_enqueue_cycles;
                let service = self.config.clock.cycles_to_time(cycles);
                let done = now + service;
                self.cores[core].burst += 1;
                self.stats.per_core[core].busy_cycles += cycles;
                // A redirect push is parse/classify work plus the ring
                // enqueue — no NF, no tx on this core.
                self.obs
                    .stage(core, Stage::Classify, self.config.overhead_cycles);
                self.obs
                    .stage(core, Stage::Redirect, self.config.ring_enqueue_cycles);
                // Whole service attributed to the bucket it starts in.
                self.obs
                    .sample(core, now.as_ps(), |s| s.busy_ticks = service.as_ps());
                self.cores[core].current = Some((job, Effect::Redirect(target)));
                self.schedule(done, core);
                return;
            }
            let cycles = self.config.service_cycles_for(&job.pkt);
            (job, cycles, 0)
        } else {
            // Going idle: the busy burst ends here. Record its length as
            // this runtime's batch-size observation.
            let burst = self.cores[core].burst;
            self.stats.per_core[core].record_batch(burst);
            if burst > 0 {
                let depth = self.cores[core].rx.len() as u64;
                self.obs.batch(core, now.as_ps(), burst, depth);
            }
            self.cores[core].burst = 0;
            return;
        };
        // SCR replay-before-dispatch: pending remote updates land in the
        // replica ahead of the service this core is about to start. The
        // replay is real work here — it extends the service.
        let replay_cycles = self.scr_replay(core);
        // Service begins here; the completion event reports it.
        let service = self
            .config
            .clock
            .cycles_to_time(service_cycles + replay_cycles);
        let done = now + service;
        self.cores[core].burst += 1;
        self.cores[core].current_start = now;
        self.cores[core].current_replay = replay_cycles;
        self.stats.per_core[core].busy_cycles += service_cycles + replay_cycles;
        if self.config.obs.profile {
            // Exact decomposition of the service: an optional ring
            // dequeue (redirected arrivals), the framework overhead —
            // split 3/4 rx/parse/classify, 1/4 verdict/tx, matching the
            // DPDK l2fwd profile the 120-cycle figure came from — and
            // the NF busy loop. The components sum to `service_cycles`,
            // so per-core stage ticks reproduce `busy_cycles` exactly.
            let overhead = self.config.overhead_cycles;
            let tx = overhead / 4;
            self.obs.stage(core, Stage::Classify, overhead - tx);
            self.obs.stage(core, Stage::Redirect, ring_dq_cycles);
            self.obs
                .stage(core, Stage::Nf, service_cycles - ring_dq_cycles - overhead);
            self.obs.stage(core, Stage::Tx, tx);
        }
        self.obs
            .sample(core, now.as_ps(), |s| s.busy_ticks = service.as_ps());
        self.cores[core].current = Some((job, Effect::Process));
        self.schedule(done, core);
    }

    /// A core's current service completed at `now`.
    fn complete(&mut self, core: usize, now: Time) {
        let Some((job, effect)) = self.cores[core].current.take() else {
            // A job-less event is a scheduled *kick*: either the wake
            // event a reconfiguration posts at its thaw instant, or the
            // orphaned completion of a service that was cancelled when
            // its packet was migrated mid-flight.
            self.kick(core, now);
            return;
        };
        match effect {
            Effect::Redirect(target) => {
                self.stats.per_core[core].redirected_out += 1;
                self.obs.sample(core, now.as_ps(), |s| s.redirected_out = 1);
                self.obs
                    .redirect_out(core, now.as_ps(), job.flow, job.id, target);
                let job = Job {
                    via_ring: true,
                    relayed_at: Some(now),
                    ..job
                };
                let (flow, id) = (job.flow, job.id);
                if self.failed[target] {
                    // The ring push to a dead core fails its bounded
                    // retries; the descriptor is declared lost (the
                    // threaded runtime's retry-with-backoff collapses to
                    // this in simulated time).
                    self.stats.lost_packets += 1;
                } else if self.cores[target].ring.push(job).is_err() {
                    self.stats.ring_drops += 1;
                    self.obs
                        .drop(target, now.as_ps(), DropKind::RingFull, flow, id);
                } else {
                    let depth = self.cores[target].ring.len() as u64;
                    self.stats.per_core[target].observe_ring_depth(depth);
                    self.obs
                        .sample(target, now.as_ps(), |s| s.ring_occupancy_hwm = depth);
                    self.kick(target, now);
                }
            }
            Effect::Process => {
                let Job {
                    mut pkt,
                    class,
                    arrival,
                    via_ring,
                    id,
                    flow,
                    relayed_at,
                } = job;
                let is_conn = class.is_conn;
                // Advance the lazy lifecycle clock so this batch's
                // writes carry fresh touch stamps (write-touch aging).
                self.tables
                    .touch_clock(core, now.as_ps() / SIM_TICKS_PER_US);
                // One invocation path with the threaded runtime: the
                // engine's batch call, here with the event's single
                // packet (each service completion is one event).
                let mut ctx = self.tables.ctx(core);
                engine::run_nf_batch(
                    &self.nf,
                    std::slice::from_mut(&mut pkt),
                    &[is_conn],
                    &mut ctx,
                    &mut self.sink,
                );
                let verdict = self.sink.verdicts()[0];
                // SCR publish-after-dispatch: whatever state the batch
                // wrote ships to every peer's log before the next job.
                // An LRU-backstop victim's Del is in this batch's
                // mutation log, so it ships here too.
                if self.scr.is_some() {
                    self.scr_publish(core, std::slice::from_ref(&pkt), &[is_conn]);
                }
                // Victims the batch's inserts evicted (LRU backstop):
                // their Dels just shipped; run the NF's hook.
                self.run_eviction_hooks(core);
                engine::account(&mut self.stats.per_core[core], is_conn, via_ring);
                // Exact partition of the service window, for tail
                // attribution. The framework overhead splits 3/4
                // classify, 1/4 tx (the same split the stage profiler
                // uses); ring-dequeue cycles are charged to classify so
                // redirect-transit equals the offline analyzer's
                // RedirectIn−RedirectOut without any config knowledge;
                // SCR replay cycles sit at the head of the service,
                // before classification — table maintenance ahead of
                // dispatch, charged to the classify span; the NF span is
                // the remainder, so the spans always sum to the sojourn.
                let (classify, tx) = if self.config.obs.tail {
                    let (clock, tx_cyc) = (self.config.clock, self.config.overhead_cycles / 4);
                    let ring_dq = match via_ring {
                        true => self.config.ring_dequeue_cycles,
                        false => 0,
                    };
                    let head = self.config.overhead_cycles - tx_cyc
                        + ring_dq
                        + self.cores[core].current_replay;
                    (
                        clock.cycles_to_time(head).as_ps(),
                        clock.cycles_to_time(tx_cyc).as_ps(),
                    )
                } else {
                    (0, 0)
                };
                let dropped = matches!(verdict, Verdict::Drop);
                self.obs.sample(core, now.as_ps(), |s| {
                    s.processed = 1;
                    s.redirected_in = u64::from(via_ring);
                    s.forwarded = u64::from(!dropped);
                    s.nf_drops = u64::from(dropped);
                });
                let done = Completion {
                    id,
                    flow,
                    arrival: arrival.as_ps(),
                    relay: relayed_at.map(Time::as_ps),
                    start: self.cores[core].current_start.as_ps(),
                    done: now.as_ps(),
                    dropped,
                    classify,
                    tx,
                };
                self.obs.complete_batch(core, [done]);
                match verdict {
                    Verdict::Forward => {
                        self.stats.forwarded += 1;
                        self.egress.push((now, pkt));
                    }
                    Verdict::Drop => self.stats.nf_drops += 1,
                }
                // Residency high-water must see the post-batch peak,
                // not just the quiet points advance_until syncs at.
                self.sync_lifecycle();
            }
        }
        self.kick(core, now);
    }

    /// Elastically resize the middlebox to `new_cores` worker cores at
    /// simulated time `at` — the quiesce → remap → migrate → resume
    /// epoch transition described in [`crate::elastic`].
    ///
    /// * Every queued or in-service packet is pulled off the cores and
    ///   re-admitted through the reprogrammed NIC (counted in
    ///   [`ReconfigReport::migrated_packets`]); re-admission overflow
    ///   lands in `queue_drops`, so
    ///   [`MiddleboxStats::unaccounted`] stays zero.
    /// * The core map advances one epoch and every flow whose designated
    ///   core changed migrates, running the NF's
    ///   [`NetworkFunction::freeze_flow`] /
    ///   [`NetworkFunction::adopt_flow`] hooks.
    /// * Processing then pauses for `reconfig_fixed_cycles +
    ///   migrate_flow_cycles × migrated_flows` cycles of downtime;
    ///   packets arriving during the pause queue up (and tail-drop once
    ///   the queues fill) — exactly the throughput dip the `fig_elastic`
    ///   experiment measures.
    ///
    /// Stats conservation holds across the transition; per-packet event
    /// *traces* do not (a cancelled service leaves an `NfStart` without
    /// a matching `NfDone`), so elastic runs are exercised with
    /// sampling, not tracing.
    pub fn reconfigure(&mut self, at: Time, new_cores: usize) -> ReconfigReport {
        assert!(new_cores >= 1, "cannot scale to zero cores");
        // A failed core whose recovery already ran (it is failed-over in
        // the core map) is merely *absent* — the rescale re-provisions
        // the deployment and reinstates it, exactly as
        // [`CoreMap::rescaled`] starting all-healthy implies. A failed
        // core the watchdog has NOT yet detected is a corpse, and
        // rescaling over it would silently resurrect it: still rejected.
        assert!(
            (0..self.failed.len()).all(|c| !self.failed[c] || self.coremap.is_failed(c)),
            "recover failed cores before a planned rescale"
        );
        self.failed.fill(false);
        self.fail_time.fill(None);
        let from_cores = self.coremap.num_cores();
        let t = self.transition(at, Remap::Rescale(new_cores));
        let report = ReconfigReport {
            epoch: self.coremap.epoch(),
            mode: self.config.mode,
            from_cores,
            to_cores: new_cores,
            migrated_flows: t.moved.migrated_flows,
            retained_flows: t.moved.retained_flows,
            migrated_packets: t.migrated_packets,
            downtime_ns: t.downtime.as_ps() / 1_000,
            at_ns: t.now.as_ps() / 1_000,
        };
        self.reconfigs.push(report);
        report
    }

    /// Crash `core` at simulated time `at`. The core stops dead:
    /// its in-service packet and everything in its rx queue and
    /// redirect ring are gone (accounted as
    /// [`MiddleboxStats::lost_packets`]), and until
    /// [`MiddleboxSim::recover`] runs, the NIC keeps steering to the
    /// dead queue (those packets are lost too — the detection-latency
    /// cost) and ring pushes to it fail as lost.
    pub fn inject_core_failure(&mut self, at: Time, core: usize) {
        self.advance_until(at);
        let now = self.now;
        assert!(core < self.cores.len(), "core out of range");
        assert!(!self.failed[core], "core {core} already failed");
        self.lost_baseline[core] = self.stats.lost_packets;
        self.failed[core] = true;
        self.fail_time[core] = Some(now);
        let mut dead = Vec::new();
        self.strand(core, &mut dead);
        let lost = dead.len() as u64;
        self.stats.lost_packets += lost;
        // The dead core's inbound state-update log is truncated: the
        // updates it never replayed are drops, not a leak — the SCR
        // conservation identity keeps closing through the crash. Its
        // replica needs no handling (every survivor holds the same
        // state), and publishes from here on skip the dark log.
        if let Some(plane) = self.scr.as_ref() {
            self.stats.scr_log_drops += plane.truncate(core);
        }
        self.obs.health(
            now.as_ps(),
            HealthEvent::WorkerDeath {
                core,
                message: format!("injected crash ({lost} packets stranded)"),
            },
        );
    }

    /// Wedge `core` at simulated time `at` for `duration`: it finishes
    /// its in-service packet but picks up no new work until the stall
    /// ends, so its queues back up (and tail-drop under pressure) — the
    /// live-lock shape a watchdog must distinguish from a crash.
    pub fn stall_core(&mut self, at: Time, core: usize, duration: Time) {
        self.advance_until(at);
        let now = self.now;
        assert!(core < self.cores.len(), "core out of range");
        self.stalled_until[core] = self.stalled_until[core].max(now + duration);
        self.obs.health(
            now.as_ps(),
            HealthEvent::WatchdogFence {
                core,
                stalled_ticks: duration.as_ps(),
            },
        );
        // Wake event at the stall end restarts the core.
        self.schedule(self.stalled_until[core], core);
    }

    /// Recover from the failure of `failed_core` at simulated time `at`
    /// (the instant detection completed): an *unplanned* epoch
    /// transition over the survivors.
    ///
    /// Quiesce and re-admission work exactly like
    /// [`MiddleboxSim::reconfigure`]; the differences are the remap and
    /// the accounting. The core map advances via
    /// [`CoreMap::without_core`] — under Sprayer/rendezvous only the
    /// dead core's designated flows remap, and because their state
    /// lived only there ([`crate::tables::LocalTables::fail_core`])
    /// they are *lost*, not migrated; under RSS the rebuilt indirection
    /// table also migrates surviving flows broadly. The NIC is
    /// reprogrammed over the surviving queue count and
    /// `detection_latency_ns` is `at` minus the injection instant.
    pub fn recover(&mut self, at: Time, failed_core: usize) -> RecoveryReport {
        assert!(self.failed[failed_core], "core {failed_core} is healthy");
        assert!(
            !self.coremap.is_failed(failed_core),
            "core {failed_core} already recovered"
        );
        let from_active = self.coremap.active_core_ids().len();
        let t = self.transition(at, Remap::Failover(failed_core));
        let fail_at = self.fail_time[failed_core].expect("failure recorded");
        let report = RecoveryReport {
            epoch: self.coremap.epoch(),
            mode: self.config.mode,
            failed_core,
            from_active,
            to_active: self.coremap.active_core_ids().len(),
            migrated_flows: t.moved.migrated_flows,
            retained_flows: t.moved.retained_flows,
            flows_lost: t.moved.flows_lost,
            packets_lost: self.stats.lost_packets - self.lost_baseline[failed_core],
            detection_latency_ns: t.now.saturating_sub(fail_at).as_ps() / 1_000,
            downtime_ns: t.downtime.as_ps() / 1_000,
            at_ns: t.now.as_ps() / 1_000,
        };
        self.recoveries.push(report);
        report
    }

    /// Pull every queued and in-service job off `core` into `into`. The
    /// already-scheduled completion event of a cancelled service
    /// resolves as a bare kick.
    fn strand(&mut self, core: usize, into: &mut Vec<Job>) {
        let c = &mut self.cores[core];
        into.extend(c.current.take().map(|(job, _)| job));
        into.extend(std::iter::from_fn(|| c.ring.pop()));
        into.extend(std::iter::from_fn(|| c.rx.pop()));
        c.burst = 0;
    }

    /// The one epoch transition under [`Self::reconfigure`] and
    /// [`Self::recover`], at `at`: quiesce every core, converge and
    /// flush against the old epoch, remap the core map, NIC and tables,
    /// then pause for the downtime, re-admit the stranded packets and
    /// wake the active cores at the thaw instant.
    fn transition(&mut self, at: Time, remap: Remap) -> Transition {
        self.advance_until(at);
        let now = self.now;

        // Quiesce: strip every core of queued and in-service work (a
        // crashed core was already drained at injection).
        let mut stranded: Vec<Job> = Vec::new();
        for core in 0..self.cores.len() {
            self.strand(core, &mut stranded);
        }

        // Converge the SCR replicas before remapping: every live core
        // replays its pending updates, so the union snapshot the Scr
        // rescale branch builds is the *converged* state and joining
        // cores bootstrap from snapshot + fully-drained log tail. A
        // failover re-truncates the dead core's log — idempotent after
        // the injection-time truncation, but a recovery driven by an
        // external watchdog may land before ours ran.
        self.scr_drain_live();
        let dead = match remap {
            Remap::Rescale(_) => None,
            Remap::Failover(core) => Some(core),
        };
        if let (Some(core), Some(plane)) = (dead, self.scr.as_ref()) {
            self.stats.scr_log_drops += plane.truncate(core);
        }
        // Flush staged lifecycle evictions too — the transition resets
        // the staging queues, and the hooks must run against the old
        // epoch (a failed core has none: sweeps skip it and its last
        // batch drained its own).
        for core in 0..self.cores.len() {
            if !self.failed[core] {
                self.run_eviction_hooks(core);
            }
        }

        // Remap: next core-map epoch + NIC reprogram for the active
        // queue count; `queue_map` translates the queue space back to
        // real core ids (the identity unless a failover shrank it).
        let new_map = match remap {
            Remap::Rescale(cores) => self.coremap.rescaled(cores),
            Remap::Failover(core) => self.coremap.without_core(core),
        };
        let active = new_map.active_core_ids().to_vec();
        self.nic = Self::nic_for(&self.config, active.len());
        self.queue_map = active.clone();

        // Migrate: re-bucket the flow tables under the new map, running
        // the NF's export/import hooks for each moved flow; a failover
        // discards the dead core's entries (flows_lost).
        let nf = &self.nf;
        let moved = self
            .tables
            .enter_epoch(new_map.clone(), dead, &mut |key, state, _from, to| {
                nf.freeze_flow(key, state);
                nf.adopt_flow(key, state, to);
            });
        self.coremap = new_map;

        if let Remap::Rescale(new_cores) = remap {
            // Grow per-core structures on scale-up (never shrink: removed
            // cores keep their history and stale queued events stay in
            // range).
            while self.cores.len() < new_cores {
                self.cores.push(CoreSim::new(&self.config));
            }
            while self.stats.per_core.len() < new_cores {
                self.stats.per_core.push(CoreStats::default());
            }
            while self.failed.len() < new_cores {
                self.failed.push(false);
                self.fail_time.push(None);
                self.lost_baseline.push(0);
                self.stalled_until.push(Time::ZERO);
            }
            self.obs.grow(new_cores);
            // Next-epoch replay plane: fresh (empty) logs and guards at
            // the new core count. Every log was drained above, so the
            // replicas are converged and no version history is needed.
            if self.scr.is_some() {
                self.scr = Some(SharedScrPlane::new(new_cores, self.config.scr_log_capacity));
                self.scr_guards = Self::scr_guards_for(&self.scr);
            }
        }

        // Downtime: fixed epoch cost plus per-migrated-flow export and
        // import (lost flows cost nothing — there is nothing to move).
        let pause_cycles = self.config.reconfig_fixed_cycles
            + self.config.migrate_flow_cycles * moved.migrated_flows;
        let downtime = self.config.clock.cycles_to_time(pause_cycles);
        self.frozen_until = now + downtime;

        // Resume: re-admit the stranded packets through the new steering
        // (they were admitted once already, so the Flow Director cap does
        // not re-apply) and wake every active core at the thaw instant.
        let migrated_packets = stranded.len() as u64;
        for job in stranded {
            let (queue, _) = self.nic.steer(&job.pkt);
            let core = self.queue_map[usize::from(queue)];
            let job = Job {
                via_ring: false,
                relayed_at: None,
                ..job
            };
            if self.cores[core].rx.push(job).is_err() {
                self.stats.queue_drops += 1;
                self.obs.sample(core, now.as_ps(), |s| s.queue_drops = 1);
            }
        }
        for &core in &active {
            self.schedule(self.frozen_until, core);
        }

        let event = HealthEvent::ReconfigPhase {
            epoch: self.coremap.epoch(),
            phase: match remap {
                Remap::Rescale(_) => "rescale",
                Remap::Failover(_) => "recover",
            },
            cores: active.len(),
        };
        self.obs.health(now.as_ps(), event);
        self.sync_lifecycle();
        Transition {
            now,
            moved,
            migrated_packets,
            downtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FlowStateApi, NfDescriptor};
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_obs::CoreSample;
    use sprayer_sim::time::LinkSpeed;

    /// Test NF: stores the SYN arrival core in flow state; regular
    /// packets verify they can read it from anywhere.
    struct TrackerNf;
    impl NetworkFunction for TrackerNf {
        type Flow = usize;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("tracker")
        }
        fn connection_packets(
            &self,
            pkt: &mut Packet,
            ctx: &mut dyn FlowStateApi<usize>,
        ) -> Verdict {
            if let Some(t) = pkt.tuple() {
                let core = ctx.core_id();
                ctx.insert_local_flow(t.key(), core);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<usize>) -> Verdict {
            match pkt.tuple().and_then(|t| ctx.get_flow(&t.key())) {
                Some(_) => Verdict::Forward,
                None => Verdict::Drop,
            }
        }
    }

    fn flow(i: u32) -> FiveTuple {
        FiveTuple::tcp(0x0a00_0000 + i, 40_000, 0xc0a8_0001, 443)
    }

    /// Random-looking payload for packet `i` — MoonGen generates packets
    /// "with variable payload content, and therefore variable checksum"
    /// (§5); a linear counter would alias the checksum's low bits.
    fn payload(i: u32) -> [u8; 8] {
        sprayer_net::flow::splitmix64(u64::from(i)).to_be_bytes()
    }

    fn cfg(mode: DispatchMode, cycles: u64) -> MiddleboxConfig {
        MiddleboxConfig::paper_testbed_with_cycles(mode, cycles)
    }

    /// Test NF with a bounded flow table that counts its `evict_flow`
    /// hook invocations by reason.
    struct EvictNf {
        capacity: usize,
        idle: std::sync::atomic::AtomicU64,
        lru: std::sync::atomic::AtomicU64,
    }
    impl EvictNf {
        fn with_capacity(capacity: usize) -> Self {
            EvictNf {
                capacity,
                idle: std::sync::atomic::AtomicU64::new(0),
                lru: std::sync::atomic::AtomicU64::new(0),
            }
        }
        fn hook_counts(&self) -> (u64, u64) {
            (
                self.idle.load(std::sync::atomic::Ordering::Relaxed),
                self.lru.load(std::sync::atomic::Ordering::Relaxed),
            )
        }
    }
    impl NetworkFunction for EvictNf {
        type Flow = usize;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("evict")
        }
        fn config(&self) -> NfConfig {
            NfConfig {
                flow_table_capacity: self.capacity,
                ..NfConfig::default()
            }
        }
        fn connection_packets(
            &self,
            pkt: &mut Packet,
            ctx: &mut dyn FlowStateApi<usize>,
        ) -> Verdict {
            if let Some(t) = pkt.tuple() {
                let core = ctx.core_id();
                ctx.insert_local_flow(t.key(), core);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<usize>) -> Verdict {
            if let Some(t) = pkt.tuple() {
                ctx.modify_local_flow(&t.key(), &mut |_| {});
            }
            Verdict::Forward
        }
        fn evict_flow(&self, _key: &FlowKey, _state: &mut usize, reason: crate::api::EvictReason) {
            use std::sync::atomic::Ordering;
            match reason {
                crate::api::EvictReason::Idle => self.idle.fetch_add(1, Ordering::Relaxed),
                crate::api::EvictReason::Capacity => self.lru.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    #[test]
    fn idle_flows_expire_with_hooks_and_conservation_in_every_mode() {
        for mode in DispatchMode::ALL {
            let mut config = cfg(mode, 1_000);
            config.lifecycle = crate::config::LifecycleConfig {
                idle_timeout_us: Some(200),
                sweep_interval_us: 50,
                lru_backstop: false,
            };
            let mut mb = MiddleboxSim::new(config, EvictNf::with_capacity(1 << 10));
            let mut now = Time::ZERO;
            for i in 0..24u32 {
                now += Time::from_us(2);
                let t = flow(i);
                mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            }
            // Long quiet horizon: every flow passes the idle deadline
            // and the periodic sweep reclaims it.
            mb.run_until(now + Time::from_ms(5));
            let s = mb.stats();
            assert!(s.lifecycle_enabled, "{mode:?}");
            assert_eq!(s.table_live, 0, "{mode:?}: all flows must idle out");
            assert_eq!(mb.tables().total_entries(), 0, "{mode:?}");
            assert_eq!(s.idle_expired, 24, "{mode:?}: one expiry per flow");
            assert_eq!(s.flow_unaccounted(), 0, "{mode:?}");
            assert_eq!(s.unaccounted(), 0, "{mode:?}");
            assert_eq!(s.scr_replay_gap(), 0, "{mode:?}");
            let (idle_hooks, lru_hooks) = mb.nf().hook_counts();
            assert_eq!(idle_hooks, 24, "{mode:?}: hook fires once per expiry");
            assert_eq!(lru_hooks, 0, "{mode:?}");
            if mode == DispatchMode::Scr {
                // The sweeping owner ships a Del to all 7 replicas.
                assert_eq!(s.replica_dels, 24 * 7, "{mode:?}");
            }
            // High-water reflects the warm phase, not the drained end.
            assert!(s.table_occupancy_hwm >= 24, "{mode:?}");
        }
    }

    #[test]
    fn lru_backstop_bounds_table_memory_under_flow_overload() {
        for mode in DispatchMode::ALL {
            let mut config = cfg(mode, 1_000);
            // No idle timeout: only the capacity backstop reclaims.
            config.lifecycle = crate::config::LifecycleConfig {
                idle_timeout_us: None,
                sweep_interval_us: 1_000,
                lru_backstop: true,
            };
            let capacity = 4usize;
            let mut mb = MiddleboxSim::new(config, EvictNf::with_capacity(capacity));
            let mut now = Time::ZERO;
            let n = 96u32;
            for i in 0..n {
                now += Time::from_us(2);
                let t = flow(i);
                mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            }
            mb.run_until(now + Time::from_ms(5));
            let s = mb.stats();
            let bound = (capacity * 8) as u64;
            assert!(
                s.table_live <= bound,
                "{mode:?}: live {} exceeds the {bound} backstop bound",
                s.table_live
            );
            assert!(
                s.table_occupancy_hwm <= bound,
                "{mode:?}: hwm {} exceeds the {bound} backstop bound",
                s.table_occupancy_hwm
            );
            assert!(s.lru_evicted > 0, "{mode:?}: overload must evict");
            assert_eq!(s.forwarded, u64::from(n), "{mode:?}: no insert sheds");
            assert_eq!(s.flow_unaccounted(), 0, "{mode:?}");
            assert_eq!(s.scr_replay_gap(), 0, "{mode:?}");
            let (_, lru_hooks) = mb.nf().hook_counts();
            assert_eq!(lru_hooks, s.lru_evicted, "{mode:?}");
        }
    }

    #[test]
    fn lifecycle_survives_crash_and_rescale_with_identity_intact() {
        for mode in DispatchMode::ALL {
            let mut config = cfg(mode, 1_000);
            config.num_cores = 4;
            config.lifecycle = crate::config::LifecycleConfig {
                idle_timeout_us: Some(300),
                sweep_interval_us: 50,
                lru_backstop: true,
            };
            let mut mb = MiddleboxSim::new_elastic(config, EvictNf::with_capacity(1 << 10));
            let mut now = Time::ZERO;
            for i in 0..32u32 {
                now += Time::from_us(2);
                let t = flow(i);
                mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            }
            mb.run_until(now + Time::from_us(50));
            mb.reconfigure(mb.now() + Time::from_us(10), 3);
            mb.run_until(mb.now() + Time::from_us(100));
            mb.inject_core_failure(mb.now() + Time::from_us(1), 1);
            mb.recover(mb.now() + Time::from_us(50), 1);
            mb.run_until(mb.now() + Time::from_ms(5));
            let s = mb.stats();
            assert_eq!(
                s.table_live, 0,
                "{mode:?}: survivors' flows idle out after the chaos"
            );
            assert_eq!(s.flow_unaccounted(), 0, "{mode:?}");
            assert_eq!(s.scr_replay_gap(), 0, "{mode:?}");
            assert!(s.flows_dropped > 0, "{mode:?}: epoch transitions drain");
        }
    }

    #[test]
    fn syn_state_lands_on_designated_core_under_spraying() {
        let config = cfg(DispatchMode::Sprayer, 0);
        let map = CoreMap::new(DispatchMode::Sprayer, config.num_cores);
        let mut mb = MiddleboxSim::new(config, TrackerNf);

        for i in 0..32 {
            let t = flow(i);
            let syn = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"");
            mb.ingress(Time::from_us(u64::from(i) * 10), syn);
        }
        mb.run_until(Time::from_ms(10));
        assert!(mb.is_idle());

        for i in 0..32 {
            let t = flow(i);
            let designated = map.designated_for_tuple(&t);
            assert_eq!(
                mb.tables().peek(designated, &t.key()),
                Some(&designated),
                "flow {i}: state must live on (and record) its designated core"
            );
        }
        assert_eq!(mb.stats().forwarded, 32);
    }

    #[test]
    fn regular_packets_find_state_from_any_core() {
        let config = cfg(DispatchMode::Sprayer, 0);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(7);

        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        // 256 regular packets with varying checksums → all 8 cores.
        for i in 0u32..256 {
            now += Time::from_us(1);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_ms(10));

        let s = mb.stats();
        assert_eq!(
            s.forwarded, 257,
            "every regular packet must find the flow state"
        );
        assert_eq!(s.nf_drops, 0);
        // Spraying must actually have used many cores.
        let active = s.per_core.iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 8);
    }

    #[test]
    fn rss_keeps_single_flow_on_one_core() {
        let config = cfg(DispatchMode::Rss, 0);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(3);

        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..100 {
            now += Time::from_us(1);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_ms(10));

        let s = mb.stats();
        assert_eq!(s.forwarded, 101);
        let active = s.per_core.iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 1, "RSS must keep the flow on one core");
        let redirects: u64 = s.per_core.iter().map(|c| c.redirected_out).sum();
        assert_eq!(redirects, 0, "RSS mode has no rings");
    }

    #[test]
    fn connection_packets_are_redirected_not_processed_in_place() {
        let config = cfg(DispatchMode::Sprayer, 0);
        let map = CoreMap::new(DispatchMode::Sprayer, 8);
        let mut mb = MiddleboxSim::new(config, TrackerNf);

        // Send SYNs from many flows; statistically most will land on a
        // non-designated queue and must be redirected.
        let mut now = Time::ZERO;
        let n = 64u32;
        for i in 0..n {
            now += Time::from_us(5);
            let t = flow(i);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        }
        mb.run_until(now + Time::from_ms(10));

        let s = mb.stats();
        let out: u64 = s.per_core.iter().map(|c| c.redirected_out).sum();
        let inn: u64 = s.per_core.iter().map(|c| c.redirected_in).sum();
        assert_eq!(out, inn, "every redirect must be consumed");
        assert!(
            out > u64::from(n) / 2,
            "most SYNs land on foreign cores: {out}"
        );
        assert_eq!(s.forwarded, u64::from(n));
        // And despite redirection, state sits on designated cores.
        for i in 0..n {
            let t = flow(i);
            let d = map.designated_for_tuple(&t);
            assert!(mb.tables().peek(d, &t.key()).is_some());
        }
    }

    #[test]
    fn rss_single_flow_rate_is_one_core_rate() {
        // Fig. 6(a) mechanism: at 10k cycles/packet, one core processes
        // ~198 kpps; offering line rate to a single RSS flow must yield
        // exactly the single-core rate.
        let config = cfg(DispatchMode::Rss, 10_000);
        let single_core_pps = config.single_core_pps();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );

        // Offer 64B packets at line rate (14.88 Mpps) for 20 ms.
        let gap = LinkSpeed::TEN_GBE.frame_time(60);
        let horizon = Time::from_ms(20);
        let mut now = Time::ZERO;
        let mut i = 0u32;
        while now < horizon {
            now += gap;
            i += 1;
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.advance_until(horizon);

        let processed = mb.stats().processed();
        let rate = processed as f64 / horizon.as_secs_f64();
        let rel = (rate - single_core_pps).abs() / single_core_pps;
        assert!(
            rel < 0.02,
            "measured {rate:.0} pps vs single-core {single_core_pps:.0}"
        );
        assert!(mb.stats().queue_drops > 0, "overload must tail-drop");
    }

    #[test]
    fn sprayer_single_flow_rate_uses_all_cores() {
        let config = cfg(DispatchMode::Sprayer, 10_000);
        let expect = config.all_cores_pps();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );

        let gap = LinkSpeed::TEN_GBE.frame_time(60);
        let horizon = Time::from_ms(20);
        let mut now = Time::ZERO;
        let mut i = 0u32;
        while now < horizon {
            now += gap;
            i += 1;
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.advance_until(horizon);

        let rate = mb.stats().processed() as f64 / horizon.as_secs_f64();
        let rel = (rate - expect).abs() / expect;
        assert!(rel < 0.05, "measured {rate:.0} pps vs 8-core {expect:.0}");
    }

    #[test]
    fn fdir_cap_limits_spray_rate_at_trivial_nf() {
        // Fig. 6(a)'s surprising plateau: with a 0-cycle NF, Sprayer is
        // limited to ~10 Mpps by the NIC, below 14.88 Mpps line rate.
        let config = cfg(DispatchMode::Sprayer, 0);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );

        let gap = LinkSpeed::TEN_GBE.frame_time(60);
        let horizon = Time::from_ms(20);
        let mut now = Time::ZERO;
        let mut i = 0u32;
        while now < horizon {
            now += gap;
            i += 1;
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.advance_until(horizon);

        let rate = mb.stats().processed() as f64 / horizon.as_secs_f64();
        assert!(
            (rate / 1e6 - 10.0).abs() < 0.3,
            "rate {:.2} Mpps should be ~10",
            rate / 1e6
        );
        assert!(mb.stats().nic_cap_drops > 0);
    }

    #[test]
    fn packet_accounting_is_conservative() {
        let config = cfg(DispatchMode::Sprayer, 5_000);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..5_000 {
            now += Time::from_ns(100);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(
            s.unaccounted(),
            0,
            "all packets accounted once drained: {s:?}"
        );
        assert_eq!(s.offered, 5_001);
        // Telemetry block is populated: bursts were recorded and queue
        // occupancy was observed while the cores fell behind.
        let batches: u64 = s.per_core.iter().map(|c| c.batches()).sum();
        assert!(batches > 0, "busy bursts must land in the batch histogram");
        assert!(
            s.max_rx_occupancy() > 1,
            "backlog must show up in the rx high-water mark"
        );
    }

    #[test]
    fn tracing_conserves_and_probes_match_stats() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Sprayer, 5_000);
        config.obs = ObsConfig::tracing();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..3_000 {
            now += Time::from_ns(100);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats().clone();
        assert_eq!(s.unaccounted(), 0);

        // The runtime-emitted sojourn histogram agrees with the stats
        // on event counts (the acceptance identity).
        let probes = mb.probes().expect("latency probes enabled").clone();
        assert_eq!(probes.sojourn_ns.count(), s.processed());
        assert_eq!(
            probes.redirect_ns.count(),
            s.per_core.iter().map(|c| c.redirected_in).sum::<u64>()
        );

        // And the event trace satisfies every conservation identity.
        let trace = mb.take_obs().trace.expect("tracing enabled");
        assert_eq!(trace.dropped, 0, "default ring capacity must suffice here");
        let analysis = sprayer_obs::analyze(&trace);
        assert!(
            analysis.conservation.ok(),
            "violations: {:?}",
            analysis.conservation.violations
        );
        assert_eq!(analysis.conservation.nf_done, s.processed());
        assert!(mb.take_obs().trace.is_none(), "trace detaches once");
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let config = cfg(DispatchMode::Sprayer, 0);
        assert!(!config.obs.any());
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(flow(1), 0, 0, TcpFlags::SYN, b""),
        );
        mb.run_until(Time::from_ms(1));
        assert!(mb.probes().is_none());
        assert!(mb.take_obs().trace.is_none());
        assert!(mb.take_obs().samples.is_none());
        assert!(mb.take_obs().profile.is_none());
        assert!(mb.take_obs().health.is_none());
        assert!(mb.take_obs().reorder.is_none());
        assert!(mb.flight_snapshot().is_none());
        assert!(mb.take_obs().tail.is_none());
        assert!(mb.take_obs().flight.is_none());
    }

    #[test]
    fn tail_spans_partition_sojourn_and_match_the_trace() {
        use crate::config::ObsConfig;
        use sprayer_obs::{EventKind, TailStage};
        use std::collections::HashMap;

        // Fixed 1-tick threshold: every completion's sojourn exceeds it
        // (a service alone is thousands of picoseconds), so the
        // exemplar table covers the whole run and can be checked
        // against the trace exactly.
        let mut config = cfg(DispatchMode::Sprayer, 2_000);
        config.obs = ObsConfig {
            tail: true,
            tail_threshold_ticks: 1,
            ..ObsConfig::tracing()
        };
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let mut now = Time::ZERO;
        // Many flows so a healthy share of packets redirect.
        for i in 0u32..48 {
            now += Time::from_us(2);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(flow(i), 0, 0, TcpFlags::SYN, b""),
            );
        }
        for i in 0u32..1_500 {
            now += Time::from_ns(400);
            let t = flow(i % 48);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let processed = mb.stats().processed();

        let obs = mb.take_obs();
        let report = obs.tail.expect("tail attribution enabled");
        assert_eq!(report.completions, processed);
        assert_eq!(report.exemplars, processed, "1-tick threshold captures all");

        // Offline ground truth from the event trace: pair each packet's
        // ingress, redirect, and completion events by id.
        let trace = obs.trace.expect("tracing enabled");
        assert_eq!(trace.dropped, 0);
        let mut ingress_ts = HashMap::new();
        let mut out_ts = HashMap::new();
        let mut nf_start_ts = HashMap::new();
        let (mut sojourn_sum, mut transit_sum) = (0u64, 0u64);
        for ev in &trace.events {
            match ev.kind {
                EventKind::IngressEnqueue => {
                    ingress_ts.insert(ev.pkt, ev.ts);
                }
                EventKind::RedirectOut => {
                    out_ts.insert(ev.pkt, ev.ts);
                }
                EventKind::RedirectIn => transit_sum += ev.aux,
                EventKind::NfStart => {
                    nf_start_ts.insert(ev.pkt, ev.ts);
                }
                EventKind::NfDone => sojourn_sum += ev.ts - ingress_ts[&ev.pkt],
                _ => {}
            }
        }
        let queue_wait_sum: u64 = ingress_ts
            .iter()
            .map(|(id, &ts)| {
                // Redirected packets wait from ingress to the relay
                // push; local packets from ingress to service start.
                out_ts.get(id).copied().unwrap_or(nf_start_ts[id]) - ts
            })
            .sum();

        // The online per-stage table reproduces the trace-derived sums
        // exactly — the fig_tail acceptance identity.
        assert_eq!(report.total_ticks(), sojourn_sum, "spans partition sojourn");
        assert_eq!(report.stage_ticks(TailStage::RedirectTransit), transit_sum);
        assert_eq!(report.stage_ticks(TailStage::QueueWait), queue_wait_sum);
        assert!(report.stage_ticks(TailStage::Nf) > 0);
        assert!(report.stage_ticks(TailStage::Tx) > 0);
        assert!(mb.take_obs().tail.is_none(), "tail report detaches once");
    }

    #[test]
    fn flight_recorder_freezes_on_crash_and_round_trips() {
        use crate::config::ObsConfig;
        use sprayer_obs::{flight, FlightKind};

        let mut config = cfg(DispatchMode::Sprayer, 2_000);
        config.obs = ObsConfig::flight_recorder();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let mut now = Time::ZERO;
        for i in 0u32..32 {
            now += Time::from_us(2);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(flow(i), 0, 0, TcpFlags::SYN, b""),
            );
        }
        for i in 0u32..500 {
            now += Time::from_ns(400);
            let t = flow(i % 32);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        let live = mb.flight_snapshot().expect("flight recorder enabled");
        assert!(live.frozen.is_none());
        assert!(live.recorded > 0, "batch/redirect events recorded");

        // The crash freezes the black box mid-run; later traffic must
        // not overwrite the evidence.
        let crash_at = now + Time::from_us(10);
        mb.inject_core_failure(crash_at, 3);
        let frozen_recorded = mb.flight_snapshot().unwrap().recorded;
        for i in 0u32..500 {
            now = crash_at + Time::from_ns(400 * u64::from(i + 1));
            let p = PacketBuilder::new().tcp(flow(i % 32), i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));

        let snap = mb.take_obs().flight.expect("flight recorder enabled");
        assert_eq!(
            snap.recorded, frozen_recorded,
            "frozen ring stops recording"
        );
        let freeze = snap.frozen.as_ref().expect("crash must freeze");
        assert_eq!(freeze.kind, "worker_death");
        assert_eq!(freeze.core, 3);
        assert_eq!(freeze.ts, crash_at.as_ps());
        // The dead core's ring ends with the freeze marker.
        let last = snap.per_core[3].last().expect("marker stamped");
        assert!(matches!(last.kind, FlightKind::Freeze));
        assert_eq!(last.ts, crash_at.as_ps());

        // Dump → parse is lossless (the blackbox analyzer's read path).
        let text = flight::write_string(&snap);
        let back = flight::parse(&text).expect("dump parses");
        assert_eq!(back, snap);
        assert!(mb.take_obs().flight.is_none(), "snapshot detaches once");
    }

    #[test]
    fn stage_profile_reproduces_busy_cycles_exactly() {
        use crate::config::ObsConfig;
        use sprayer_obs::Stage;
        let mut config = cfg(DispatchMode::Sprayer, 10_000);
        config.obs = ObsConfig::profiling();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..2_000 {
            now += Time::from_ns(500);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats().clone();
        let p = mb.take_obs().profile.expect("profiling enabled");
        assert_eq!(p.nf(), "tracker");
        assert_eq!(p.ticks_per_us(), 2_000, "2 GHz = 2000 cycles/µs");
        // The attribution is exact: per core, the four stages sum to
        // the busy-cycle counter the cycle model charged.
        for (core, cp) in p.cores().iter().enumerate() {
            assert_eq!(
                cp.total_ticks(),
                s.per_core[core].busy_cycles,
                "core {core}"
            );
        }
        // At 10k NF cycles against 120 overhead the NF dominates.
        assert!(p.share(Stage::Nf) > 0.8, "nf share {}", p.share(Stage::Nf));
        let shares: f64 = Stage::ALL.into_iter().map(|st| p.share(st)).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        assert!(mb.take_obs().profile.is_none(), "profile detaches once");
    }

    #[test]
    fn health_bus_reports_lifecycle_and_fault_events() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 4;
        config.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
        let now = drive_flows(&mut mb, 32, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(10));

        mb.stall_core(mb.now() + Time::from_us(1), 3, Time::from_us(50));
        mb.reconfigure(mb.now() + Time::from_us(100), 3);
        mb.run_until(mb.now() + Time::from_ms(1));
        mb.inject_core_failure(mb.now() + Time::from_us(1), 1);
        mb.recover(mb.now() + Time::from_us(50), 1);
        mb.emit_health(sprayer_obs::HealthEvent::FaultInjected {
            kind: "crash",
            core: 1,
        });
        mb.run_until(mb.now() + Time::from_ms(10));

        let report = mb.take_obs().health.expect("health bus enabled");
        assert_eq!(report.ticks_per_us, 1_000_000);
        assert_eq!(report.dropped, 0);
        let counts = report.counts();
        assert_eq!(counts.get("watchdog_fence"), Some(&1));
        assert_eq!(counts.get("worker_death"), Some(&1));
        assert_eq!(counts.get("reconfig_phase"), Some(&2), "rescale + recover");
        assert_eq!(counts.get("fault_injected"), Some(&1));
        // Timestamps are monotone simulated picoseconds.
        assert!(report.records.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(mb.take_obs().health.is_none(), "health detaches once");
    }

    #[test]
    fn queue_high_water_events_are_edge_triggered() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Rss, 10_000);
        config.num_cores = 2;
        config.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        // One sustained overload burst: the queue (512 deep) fills well
        // past 3/4 while the core grinds at ~5 µs/packet.
        for i in 0u32..500 {
            now += Time::from_ns(100);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        assert!(mb.stats().max_rx_occupancy() * 4 >= 512 * 3);
        let report = mb.take_obs().health.expect("health bus enabled");
        assert_eq!(
            report.counts().get("queue_high_water"),
            Some(&1),
            "one burst, one crossing — not one event per enqueue: {:?}",
            report.counts()
        );
    }

    #[test]
    fn online_reorder_sketch_matches_offline_analyzer() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Sprayer, 5_000);
        config.obs = ObsConfig {
            reorder: true,
            ..ObsConfig::tracing()
        };
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..3_000 {
            now += Time::from_ns(100);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        assert_eq!(mb.stats().unaccounted(), 0);

        let obs = mb.take_obs();
        let online = obs.reorder.expect("reorder sketch enabled");
        let trace = obs.trace.expect("tracing enabled");
        assert_eq!(trace.dropped, 0);
        let offline = sprayer_obs::analyze(&trace);
        // The acceptance identity: the streaming reordered count equals
        // the offline Fenwick analyzer's, on the same run.
        assert_eq!(online.reordered, offline.reordered_packets());
        assert!(online.reordered > 0, "spraying under load must reorder");
        assert_eq!(
            online.completions,
            mb.stats().processed(),
            "every NF completion feeds the sketch"
        );
        // The windowed depth estimate is a lower bound on the true max.
        assert!(online.depth_hist.max().unwrap_or(0) <= offline.max_depth());
        assert!(mb.take_obs().reorder.is_none(), "reorder detaches once");
    }

    #[test]
    fn sampling_totals_match_stats_and_time_resolves() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Sprayer, 5_000);
        config.obs = ObsConfig::sampling_with_interval(50);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..4_000 {
            now += Time::from_ns(100);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats().clone();
        let set = mb.take_obs().samples.expect("sampling enabled");
        assert_eq!(set.ticks_per_us, 1_000_000);
        assert_eq!(set.num_cores(), 8);
        assert!(set.num_buckets() > 1, "a 400 µs run spans several buckets");

        // Per-core totals reproduce the stats exactly: sampling is
        // conservative.
        let totals = set.totals();
        for (core, cs) in s.per_core.iter().enumerate() {
            assert_eq!(totals[core].processed, cs.processed, "core {core}");
            assert_eq!(totals[core].redirected_in, cs.redirected_in);
            assert_eq!(totals[core].redirected_out, cs.redirected_out);
        }
        let total: CoreSample = {
            let mut acc = CoreSample::default();
            for t in &totals {
                acc.merge(t);
            }
            acc
        };
        assert_eq!(total.forwarded, s.forwarded);
        assert_eq!(total.nf_drops, s.nf_drops);
        assert_eq!(total.queue_drops, s.queue_drops);
        assert_eq!(total.ring_drops, s.ring_drops);
        assert_eq!(total.nic_cap_drops, s.nic_cap_drops);

        // Derived timelines exist and are sane.
        let jain = set.jain_timeline();
        assert_eq!(jain.len(), set.num_buckets());
        assert!(jain.iter().all(|&j| (0.0..=1.0 + 1e-9).contains(&j)));
        assert!(mb.take_obs().samples.is_none(), "samples detach once");
    }

    #[test]
    fn latency_at_low_load_is_service_time() {
        let mut config = cfg(DispatchMode::Rss, 2_000);
        config.obs = ObsConfig::latency();
        // Service = (120 + 2000) cycles at 2 GHz = 1.06 us.
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..100 {
            now += Time::from_us(100); // far apart: no queueing
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_ms(1));
        let sojourn = &mb.probes().expect("latency probes on").sojourn_ns;
        let p50 = sojourn.p50().unwrap();
        assert!(
            p50.abs_diff(1_060) < 20,
            "p50 {p50} ns should equal the service time"
        );
    }

    #[test]
    fn egress_packets_carry_departure_times() {
        let config = cfg(DispatchMode::Rss, 1_000);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(2);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );
        mb.run_until(Time::from_ms(1));
        let egress: Vec<_> = mb.take_egress().collect();
        assert_eq!(egress.len(), 1);
        assert!(egress[0].0 > Time::ZERO);
        assert_eq!(egress[0].1.tuple(), Some(t));
        assert_eq!(mb.take_egress().len(), 0, "take_egress drains");
    }

    /// NF that counts migration-hook invocations, to pin the export /
    /// import protocol: freeze on the old core, adopt with the new
    /// owner, exactly once per moved flow.
    struct HookNf {
        freezes: std::sync::atomic::AtomicU64,
        adopts: std::sync::atomic::AtomicU64,
    }
    impl HookNf {
        fn new() -> Self {
            HookNf {
                freezes: std::sync::atomic::AtomicU64::new(0),
                adopts: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }
    impl NetworkFunction for HookNf {
        type Flow = usize;
        fn descriptor(&self) -> NfDescriptor {
            NfDescriptor::named("hooks")
        }
        fn connection_packets(
            &self,
            pkt: &mut Packet,
            ctx: &mut dyn FlowStateApi<usize>,
        ) -> Verdict {
            if let Some(t) = pkt.tuple() {
                let core = ctx.core_id();
                ctx.insert_local_flow(t.key(), core);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<usize>) -> Verdict {
            match pkt.tuple().and_then(|t| ctx.get_flow(&t.key())) {
                Some(_) => Verdict::Forward,
                None => Verdict::Drop,
            }
        }
        fn freeze_flow(&self, _key: &sprayer_net::FlowKey, _state: &mut usize) {
            self.freezes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn adopt_flow(&self, _key: &sprayer_net::FlowKey, state: &mut usize, new_core: usize) {
            *state = new_core;
            self.adopts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Install `n` flows (SYN each), then `pkts` regular packets per
    /// flow starting at `start`, 1 µs apart globally.
    fn drive_flows<NF: NetworkFunction>(
        mb: &mut MiddleboxSim<NF>,
        n: u32,
        pkts: u32,
        start: Time,
    ) -> Time {
        let mut now = start;
        for i in 0..n {
            now += Time::from_us(1);
            let t = flow(i);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        }
        for j in 0..pkts {
            for i in 0..n {
                now += Time::from_us(1);
                let p =
                    PacketBuilder::new().tcp(flow(i), j + 1, 0, TcpFlags::ACK, &payload(i * 7 + j));
                mb.ingress(now, p);
            }
        }
        now
    }

    #[test]
    fn elastic_scale_up_migrates_nothing_and_conserves() {
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 2;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let now = drive_flows(&mut mb, 32, 4, Time::ZERO);

        let report = mb.reconfigure(now + Time::from_us(10), 4);
        assert_eq!(report.from_cores, 2);
        assert_eq!(report.to_cores, 4);
        assert_eq!(report.epoch, 1);
        assert_eq!(
            report.migrated_flows, 0,
            "Sprayer scale-up pins designated assignments"
        );
        assert_eq!(report.retained_flows, 32);
        assert!(report.downtime_ns > 0, "fixed reconfig cost still applies");
        assert_eq!(mb.active_cores(), 4);

        // Post-scale traffic spreads over all four cores and still finds
        // every flow's state.
        let resume = mb.now() + Time::from_ms(1);
        let now = drive_flows(&mut mb, 32, 8, resume);
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.nf_drops, 0, "no regular packet may miss flow state");
        let active = s.per_core.iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 4, "joined cores must take sprayed work");
        assert_eq!(
            mb.nf().freezes.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn elastic_scale_down_migrates_leaver_state_and_conserves() {
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let n = 64u32;
        let now = drive_flows(&mut mb, n, 4, Time::ZERO);

        // Count flows designated to the leaving cores 2 and 3.
        let old_map = mb.coremap().clone();
        let on_leavers = (0..n)
            .filter(|&i| old_map.designated_for_tuple(&flow(i)) >= 2)
            .count() as u64;
        assert!(on_leavers > 0, "need flows on the leavers for this test");

        let report = mb.reconfigure(now + Time::from_us(10), 2);
        assert_eq!(report.migrated_flows, on_leavers);
        assert_eq!(report.retained_flows, u64::from(n) - on_leavers);
        let ord = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(mb.nf().freezes.load(ord), on_leavers);
        assert_eq!(mb.nf().adopts.load(ord), on_leavers);

        // Every flow's state now sits on its (new) designated core, with
        // the adopt hook having stamped the new owner.
        for i in 0..n {
            let key = flow(i).key();
            let d = mb.coremap().designated_for_key(&key);
            assert!(d < 2);
            assert_eq!(
                mb.tables().peek(d, &key).copied(),
                Some(if old_map.designated_for_key(&key) >= 2 {
                    d
                } else {
                    old_map.designated_for_key(&key)
                }),
                "flow {i}"
            );
        }

        // Traffic after the scale-down uses only the surviving cores.
        let before: Vec<u64> = mb.stats().per_core.iter().map(|c| c.processed).collect();
        let resume = mb.now() + Time::from_ms(1);
        let now = drive_flows(&mut mb, n, 4, resume);
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.nf_drops, 0);
        for (core, was) in before.iter().enumerate().take(4).skip(2) {
            assert_eq!(
                s.per_core[core].processed, *was,
                "removed core {core} must process nothing after the scale-down"
            );
        }
    }

    #[test]
    fn reconfigure_requeues_in_flight_packets_without_loss() {
        // Overload 2 cores with a heavy NF so queues are deep, then
        // rescale mid-burst: every in-flight packet must be re-admitted
        // or counted as a queue drop — never silently lost.
        let mut config = cfg(DispatchMode::Sprayer, 8_000);
        config.num_cores = 2;
        config.fdir_cap_pps = None;
        let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..600 {
            now += Time::from_ns(200);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        let report = mb.reconfigure(now, 4);
        assert!(
            report.migrated_packets > 0,
            "a mid-burst rescale must find in-flight packets"
        );
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.offered, 601);
        assert_eq!(s.unaccounted(), 0, "{s:?}");
    }

    #[test]
    fn reconfigure_downtime_pauses_processing() {
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 2;
        // Make the pause long and visible: 1 ms at 2 GHz.
        config.reconfig_fixed_cycles = 2_000_000;
        let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
        let now = drive_flows(&mut mb, 8, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(5));
        let processed_before = mb.stats().processed();

        let at = mb.now();
        let report = mb.reconfigure(at, 4);
        let pause_us = report.downtime_ns / 1_000;
        assert!((990..=1_010).contains(&pause_us), "pause {pause_us} µs");

        // Packets arriving inside the pause wait; none are processed
        // until the thaw instant.
        let mut now = at + Time::from_us(10);
        for i in 0u32..16 {
            now += Time::from_us(10);
            let p = PacketBuilder::new().tcp(flow(0), i + 100, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.advance_until(at + Time::from_us(900));
        assert_eq!(
            mb.stats().processed(),
            processed_before,
            "no packet may be processed during the reconfig pause"
        );
        mb.run_until(at + Time::from_ms(20));
        assert!(mb.is_idle());
        assert_eq!(mb.stats().unaccounted(), 0);
        assert_eq!(mb.stats().processed(), processed_before + 16);
    }

    #[test]
    fn elastic_sprayer_migrates_fewer_flows_than_rss_on_same_trace() {
        // The acceptance comparison: identical flow population, same
        // scale-up (2→4) and scale-down (4→2) events — Sprayer must
        // migrate strictly fewer flows than RSS.
        let run = |mode: DispatchMode| {
            let mut config = cfg(mode, 1_000);
            config.num_cores = 2;
            let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
            let now = drive_flows(&mut mb, 128, 2, Time::ZERO);
            let r1 = mb.reconfigure(now + Time::from_ms(1), 4);
            let resume = mb.now() + Time::from_ms(1);
            let now = drive_flows(&mut mb, 128, 2, resume);
            let r2 = mb.reconfigure(now + Time::from_ms(1), 2);
            mb.run_until(mb.now() + Time::from_ms(50));
            assert!(mb.is_idle());
            assert_eq!(mb.stats().unaccounted(), 0);
            r1.migrated_flows + r2.migrated_flows
        };
        let sprayer = run(DispatchMode::Sprayer);
        let rss = run(DispatchMode::Rss);
        assert_eq!(
            sprayer, 0,
            "pin on scale-up, survivors keep flows on scale-down"
        );
        assert!(rss > 0, "RSS table reprogramming must move flows");
    }

    #[test]
    fn stateless_nf_disables_redirection() {
        struct StatelessNf;
        impl NetworkFunction for StatelessNf {
            type Flow = ();
            fn descriptor(&self) -> NfDescriptor {
                NfDescriptor::named("stateless")
            }
            fn config(&self) -> NfConfig {
                NfConfig {
                    stateless: true,
                    ..NfConfig::default()
                }
            }
            fn connection_packets(
                &self,
                _pkt: &mut Packet,
                _ctx: &mut dyn FlowStateApi<()>,
            ) -> Verdict {
                Verdict::Forward
            }
            fn regular_packets(
                &self,
                _pkt: &mut Packet,
                _ctx: &mut dyn FlowStateApi<()>,
            ) -> Verdict {
                Verdict::Forward
            }
        }

        let config = cfg(DispatchMode::Sprayer, 0);
        let mut mb = MiddleboxSim::new(config, StatelessNf);
        let mut now = Time::ZERO;
        for i in 0..64 {
            now += Time::from_us(1);
            let t = flow(i);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        }
        mb.run_until(now + Time::from_ms(10));
        let redirects: u64 = mb.stats().per_core.iter().map(|c| c.redirected_out).sum();
        assert_eq!(
            redirects, 0,
            "stateless flag must disable connection-packet redirection"
        );
        assert_eq!(mb.stats().forwarded, 64);
    }

    #[test]
    fn scale_down_to_single_designated_core_conserves() {
        // The recovery path's degenerate endpoint: every flow must land
        // on (and be findable at) the one surviving designated core.
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
        let n = 48u32;
        let now = drive_flows(&mut mb, n, 2, Time::ZERO);
        let report = mb.reconfigure(now + Time::from_us(10), 1);
        assert_eq!(report.to_cores, 1);
        assert_eq!(report.migrated_flows + report.retained_flows, u64::from(n));
        assert_eq!(mb.active_cores(), 1);
        for i in 0..n {
            let key = flow(i).key();
            assert_eq!(mb.coremap().designated_for_key(&key), 0);
            assert!(mb.tables().peek(0, &key).is_some(), "flow {i}");
        }
        let resume = mb.now() + Time::from_ms(1);
        let now = drive_flows(&mut mb, n, 2, resume);
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.nf_drops, 0, "all state must survive the collapse");
    }

    #[test]
    fn reconfigure_with_zero_in_flight_packets_is_pure_fixed_cost() {
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 2;
        let mut mb = MiddleboxSim::new_elastic(config.clone(), TrackerNf);
        let now = drive_flows(&mut mb, 16, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle(), "the rescale must start from a drained plane");

        let report = mb.reconfigure(mb.now() + Time::from_us(1), 4);
        assert_eq!(report.migrated_packets, 0, "nothing was in flight");
        assert_eq!(report.migrated_flows, 0, "Sprayer scale-up pins flows");
        let fixed_ns = config
            .clock
            .cycles_to_time(config.reconfig_fixed_cycles)
            .as_ps()
            / 1_000;
        assert_eq!(
            report.downtime_ns, fixed_ns,
            "zero in-flight, zero migration: downtime is the fixed cost"
        );
        mb.run_until(mb.now() + Time::from_ms(5));
        assert_eq!(mb.stats().unaccounted(), 0);
    }

    #[test]
    fn core_failure_loses_only_the_dead_cores_flows_under_sprayer() {
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let n = 64u32;
        let now = drive_flows(&mut mb, n, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle());

        let dead = 2usize;
        let on_dead = (0..n)
            .filter(|&i| mb.coremap().designated_for_tuple(&flow(i)) == dead)
            .count() as u64;
        assert!(on_dead > 0, "need flows on the dead core");

        let fail_at = mb.now() + Time::from_us(10);
        mb.inject_core_failure(fail_at, dead);
        let report = mb.recover(fail_at + Time::from_us(50), dead);
        assert_eq!(report.failed_core, dead);
        assert_eq!((report.from_active, report.to_active), (4, 3));
        assert_eq!(report.flows_lost, on_dead);
        assert_eq!(
            report.migrated_flows, 0,
            "rendezvous recovery moves no surviving flow"
        );
        assert_eq!(report.retained_flows, u64::from(n) - on_dead);
        assert_eq!(report.detection_latency_ns, 50_000);
        let ord = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(mb.nf().freezes.load(ord), 0, "no survivor migrated");

        // Post-recovery traffic (regular packets only — no SYNs, so
        // lost flows cannot silently re-establish): survivors' flows
        // still find their state, the dead core's flows miss (dropped
        // by the NF), and the dead core processes nothing more.
        let before_dead = mb.stats().per_core[dead].processed;
        let mut now = mb.now() + Time::from_ms(1);
        for j in 0..2u32 {
            for i in 0..n {
                now += Time::from_us(1);
                let p =
                    PacketBuilder::new().tcp(flow(i), j + 10, 0, TcpFlags::ACK, &payload(i + j));
                mb.ingress(now, p);
            }
        }
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.per_core[dead].processed, before_dead);
        assert_eq!(
            s.nf_drops,
            on_dead * 2,
            "exactly the lost flows' regular packets miss state"
        );
        assert_eq!(mb.active_cores(), 3);
    }

    #[test]
    fn failure_window_packets_are_lost_and_accounted() {
        // Packets offered between injection and recovery blackhole on
        // the dead queue (or die on its ring) — counted, not leaked.
        let mut config = cfg(DispatchMode::Sprayer, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
        let now = drive_flows(&mut mb, 32, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(50));

        let fail_at = mb.now() + Time::from_us(10);
        mb.inject_core_failure(fail_at, 1);
        // Offer traffic during the detection window.
        let mut at = fail_at;
        for i in 0u32..200 {
            at += Time::from_us(1);
            let p = PacketBuilder::new().tcp(flow(i % 32), i + 50, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(at, p);
        }
        let report = mb.recover(at + Time::from_us(100), 1);
        assert!(report.packets_lost > 0, "the window must cost packets");
        assert_eq!(report.packets_lost, mb.stats().lost_packets);
        mb.run_until(mb.now() + Time::from_ms(50));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.offered, 32 * 3 + 200);
    }

    #[test]
    fn rss_recovery_migrates_survivors_sprayer_does_not() {
        let run = |mode: DispatchMode| {
            let mut config = cfg(mode, 1_000);
            config.num_cores = 4;
            let mut mb = MiddleboxSim::new_elastic(config, TrackerNf);
            let now = drive_flows(&mut mb, 96, 2, Time::ZERO);
            mb.run_until(now + Time::from_ms(50));
            let fail_at = mb.now() + Time::from_us(10);
            mb.inject_core_failure(fail_at, 1);
            let report = mb.recover(fail_at + Time::from_us(50), 1);
            mb.run_until(mb.now() + Time::from_ms(50));
            assert!(mb.is_idle());
            assert_eq!(mb.stats().unaccounted(), 0);
            report
        };
        let sprayer = run(DispatchMode::Sprayer);
        let rss = run(DispatchMode::Rss);
        assert_eq!(sprayer.migrated_flows, 0);
        assert!(
            rss.migrated_flows > sprayer.migrated_flows,
            "RSS recovery must remap survivors: {rss:?}"
        );
        assert!(sprayer.flows_lost > 0 && rss.flows_lost > 0);
        assert!(
            rss.downtime_ns > sprayer.downtime_ns,
            "migration makes RSS recovery downtime longer"
        );
    }

    #[test]
    fn stalled_core_backs_up_then_drains() {
        let mut config = cfg(DispatchMode::Rss, 1_000);
        config.num_cores = 2;
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let core = CoreMap::new(DispatchMode::Rss, 2).designated_for_tuple(&t);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        mb.run_until(Time::from_ms(1));
        let processed_before = mb.stats().processed();

        mb.stall_core(Time::from_ms(1), core, Time::from_ms(2));
        for i in 0u32..16 {
            now = Time::from_ms(1) + Time::from_us(u64::from(i) * 10);
            let p = PacketBuilder::new().tcp(t, i + 1, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.advance_until(Time::from_ms(2));
        assert_eq!(
            mb.stats().processed(),
            processed_before,
            "a stalled core must not pick up work"
        );
        mb.run_until(Time::from_ms(20));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.processed(), processed_before + 16, "stall is not loss");
    }

    #[test]
    fn scr_reads_locally_sprays_widely_and_never_redirects() {
        let config = cfg(DispatchMode::Scr, 0);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(7);
        let mut now = Time::ZERO;
        // No settling time between the SYN and its data: early data may
        // race the SYN's replication to some cores (a stale-replica
        // drop, which SCR permits), but a racing *read miss* must never
        // ship a `Del` that tombstones the flow on the replicas.
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..256 {
            now += Time::from_us(1);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.forwarded + s.nf_drops, 257, "{s:?}");
        let redirects: u64 = s.per_core.iter().map(|c| c.redirected_out).sum();
        assert_eq!(redirects, 0, "SCR never redirects — not even the SYN");
        let active = s.per_core.iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 8, "packets spray over all cores");
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "the plane drains at rest");
        assert!(s.scr_published > 0, "state-updates actually shipped");
        assert!(s.scr_log_occupancy_hwm > 0);
        assert!(s.scr_lag_hist.iter().sum::<u64>() > 0);
        // Every core converged to the full replica — the regression the
        // tracked mutation log fixes: a data packet's foreign-read miss
        // used to multicast a higher-seq `Del` that outran the SYN's
        // `Put` and killed the flow everywhere, permanently.
        for core in 0..8 {
            assert!(mb.tables().peek(core, &t.key()).is_some(), "core {core}");
        }
        // With replication settled, a second wave forwards from every
        // core — nothing was tombstoned.
        let before = s.forwarded;
        let mut now = mb.now() + Time::from_us(1);
        for i in 0u32..64 {
            let p = PacketBuilder::new().tcp(t, 300 + i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
            now += Time::from_us(1);
        }
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        assert_eq!(
            mb.stats().forwarded,
            before + 64,
            "settled replicas must all forward"
        );
    }

    #[test]
    fn scr_guard_stays_near_the_live_window_not_the_flow_count() {
        // The simulator's half of the guard bound: 50 k flows through a
        // 1 024-flow live window. Every core's log runs dry between
        // arrivals, so its guard forgets whenever it has doubled.
        struct WindowNf;
        impl NetworkFunction for WindowNf {
            type Flow = usize;
            fn descriptor(&self) -> NfDescriptor {
                NfDescriptor::named("window")
            }
            fn connection_packets(
                &self,
                pkt: &mut Packet,
                ctx: &mut dyn FlowStateApi<usize>,
            ) -> Verdict {
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
            fn regular_packets(&self, _: &mut Packet, _: &mut dyn FlowStateApi<usize>) -> Verdict {
                Verdict::Forward
            }
        }
        const FLOWS: u32 = 50_000;
        const LIVE: u32 = 1_024;
        let mut mb = MiddleboxSim::new(cfg(DispatchMode::Scr, 0), WindowNf);
        let mut now = Time::ZERO;
        let mut guard_hwm = 0;
        for f in 0..FLOWS + LIVE {
            now += Time::from_us(1);
            if f < FLOWS {
                let syn = PacketBuilder::new().tcp(flow(f), 0, 0, TcpFlags::SYN, &payload(f));
                mb.ingress(now, syn);
            }
            if f >= LIVE {
                let fin =
                    PacketBuilder::new().tcp(flow(f - LIVE), 0, 0, TcpFlags::FIN, &payload(f));
                mb.ingress(now, fin);
            }
            mb.advance_until(now);
            assert!(!mb.scr_guards.is_empty(), "stateful NF under SCR");
            for guard in &mb.scr_guards {
                guard_hwm = guard_hwm.max(guard.len());
            }
        }
        mb.run_until(now + Time::from_ms(10));
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0, "{s:?}");
        assert_eq!(s.scr_log_drops, 0, "{s:?}");
        assert_eq!(
            mb.tables().total_entries(),
            0,
            "every flow closed everywhere"
        );
        let bound = 4 * LIVE as usize + mb.config().batch_size;
        assert!(
            guard_hwm <= bound,
            "a guard held {guard_hwm} records for a {LIVE}-flow window (bound {bound})"
        );
        assert!(guard_hwm > 0);
    }

    #[test]
    fn scr_core_failure_loses_no_flows_and_migrates_none() {
        let mut config = cfg(DispatchMode::Scr, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let n = 64u32;
        let now = drive_flows(&mut mb, n, 2, Time::ZERO);
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle());

        let fail_at = mb.now() + Time::from_us(10);
        mb.inject_core_failure(fail_at, 2);
        let report = mb.recover(fail_at + Time::from_us(50), 2);
        assert_eq!(report.flows_lost, 0, "every survivor holds a full replica");
        assert_eq!(report.migrated_flows, 0, "nothing needed moving");
        assert_eq!(report.retained_flows, u64::from(n));
        let ord = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(mb.nf().freezes.load(ord), 0, "no migration hooks ran");

        // Regular packets only (no SYNs, so nothing can silently
        // re-establish): every flow still resolves on the survivors.
        let mut now = mb.now() + Time::from_ms(1);
        for j in 0..2u32 {
            for i in 0..n {
                now += Time::from_us(1);
                let p =
                    PacketBuilder::new().tcp(flow(i), j + 10, 0, TcpFlags::ACK, &payload(i + j));
                mb.ingress(now, p);
            }
        }
        mb.run_until(now + Time::from_ms(50));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.nf_drops, 0, "zero flows lost means zero state misses");
        assert_eq!(
            s.scr_replay_gap(),
            0,
            "the truncated dead-core log counts as drops"
        );
        assert_eq!(mb.active_cores(), 3);
    }

    #[test]
    fn scr_rescale_bootstraps_joiners_with_the_full_replica() {
        let mut config = cfg(DispatchMode::Scr, 1_000);
        config.num_cores = 2;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let n = 32u32;
        let now = drive_flows(&mut mb, n, 2, Time::ZERO);
        let report = mb.reconfigure(now + Time::from_us(10), 4);
        assert_eq!(
            report.migrated_flows, 0,
            "replication has no owners to move"
        );
        assert_eq!(report.retained_flows, u64::from(n));
        let ord = std::sync::atomic::Ordering::Relaxed;
        assert_eq!(mb.nf().freezes.load(ord), 0);
        assert_eq!(mb.nf().adopts.load(ord), 0);
        // Joiners hold the full replica the moment the epoch turns.
        for core in 0..4 {
            for i in 0..n {
                assert!(
                    mb.tables().peek(core, &flow(i).key()).is_some(),
                    "core {core} flow {i}"
                );
            }
        }
        // Regular-only traffic spreads over all four cores, zero misses.
        let mut now = mb.now() + Time::from_ms(1);
        for j in 0..4u32 {
            for i in 0..n {
                now += Time::from_us(1);
                let p = PacketBuilder::new().tcp(
                    flow(i),
                    j + 10,
                    0,
                    TcpFlags::ACK,
                    &payload(i * 3 + j),
                );
                mb.ingress(now, p);
            }
        }
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.nf_drops, 0);
        assert_eq!(s.scr_replay_gap(), 0);
        let active = s.per_core.iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 4, "joined cores take sprayed work immediately");
    }

    #[test]
    fn scr_scale_down_keeps_running_with_the_smaller_plane() {
        // Regression: per-core structures never shrink on scale-down,
        // but the next-epoch replay plane does — replay/publish must
        // skip retired cores instead of indexing past the plane.
        let mut config = cfg(DispatchMode::Scr, 1_000);
        config.num_cores = 4;
        let mut mb = MiddleboxSim::new_elastic(config, HookNf::new());
        let n = 16u32;
        let now = drive_flows(&mut mb, n, 4, Time::ZERO);
        let report = mb.reconfigure(now + Time::from_us(10), 2);
        assert_eq!(report.migrated_flows, 0);
        let mut now = mb.now() + Time::from_ms(1);
        for i in 0..n {
            now += Time::from_us(1);
            let p = PacketBuilder::new().tcp(flow(i), 10, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.unaccounted(), 0, "{s:?}");
        assert_eq!(s.scr_replay_gap(), 0);
        let active = s.per_core[2..].iter().filter(|c| c.processed > 0).count();
        assert_eq!(active, 2, "pre-rescale history survives on retired cores");
    }

    #[test]
    fn scr_stage_profile_still_reproduces_busy_cycles() {
        use crate::config::ObsConfig;
        let mut config = cfg(DispatchMode::Scr, 5_000);
        config.obs = ObsConfig::profiling();
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let t = flow(1);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0u32..1_000 {
            now += Time::from_ns(500);
            let p = PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i));
            mb.ingress(now, p);
        }
        mb.run_until(now + Time::from_secs(1));
        assert!(mb.is_idle());
        let s = mb.stats().clone();
        assert_eq!(s.unaccounted(), 0);
        assert_eq!(s.scr_replay_gap(), 0);
        assert!(
            s.scr_replay_cycles > 0,
            "replay must have run on the dispatch path"
        );
        // The attribution identity survives SCR's extra work: replay
        // (Classify) and publish (Redirect) cycles are both profiled
        // and both charged, so stage ticks still sum to busy cycles.
        let p = mb.take_obs().profile.expect("profiling enabled");
        for (core, cp) in p.cores().iter().enumerate() {
            assert_eq!(
                cp.total_ticks(),
                s.per_core[core].busy_cycles,
                "core {core}"
            );
        }
    }

    #[test]
    fn malformed_frames_are_dropped_at_the_nic_and_accounted() {
        let config = cfg(DispatchMode::Sprayer, 1_000);
        let mut mb = MiddleboxSim::new(config, TrackerNf);
        let mut now = Time::ZERO;
        mb.ingress(
            now,
            PacketBuilder::new().tcp(flow(1), 0, 0, TcpFlags::SYN, b""),
        );

        // Truncated, garbage, and corrupted-version frames.
        let good = PacketBuilder::new().tcp(flow(1), 1, 0, TcpFlags::ACK, b"x");
        let mut bad_version = good.bytes().to_vec();
        bad_version[14] = 0x00; // IPv4 version nibble smashed
        let mut bad_checksum = good.bytes().to_vec();
        bad_checksum[24] ^= 0xff; // IPv4 header checksum corrupted
        for frame in [
            Vec::new(),
            vec![0xff; 7],
            good.bytes()[..20].to_vec(),
            bad_version,
            bad_checksum,
        ] {
            now += Time::from_us(1);
            mb.ingress_frame(now, frame);
        }
        // A valid frame through the same path still flows.
        now += Time::from_us(1);
        mb.ingress_frame(now, good.bytes().to_vec());
        mb.run_until(now + Time::from_ms(10));
        assert!(mb.is_idle());
        let s = mb.stats();
        assert_eq!(s.malformed_drops, 5);
        assert_eq!(s.offered, 7);
        assert_eq!(s.forwarded, 2);
        assert_eq!(s.unaccounted(), 0, "{s:?}");
    }
}
