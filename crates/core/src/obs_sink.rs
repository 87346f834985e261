//! The observation seam: one sink under both runtimes.
//!
//! A runtime reports *what happened to a packet, and when on its own
//! clock*; this module owns the eight planes of [`ObsConfig`] and
//! decides which of them an event feeds. Three types:
//!
//! * `ObsHub` — built once per run from the configuration, the
//!   runtime's name and its two tick scales. Owns what every thread
//!   shares: the health bus and its collector, the reorder sketch, the
//!   flight recorder's freeze latch, the trace sequence, and the
//!   live-slot handles an outside observer polls.
//! * `ObsLane` — what one thread of control writes: a trace ring,
//!   latency probes and a tail tracker, and for each core it covers a
//!   sample series, a stage profile, a flight ring and the queue
//!   high-water latch. The simulator is one lane over every core; the
//!   threaded runtime is one lane per worker plus one for the ingress
//!   thread. **Lanes outlive phases** — a worker borrows its lane for
//!   a phase — so a ring's bound is the run's bound and a rolling tail
//!   threshold keeps across a barrier what it learned before it.
//! * [`ObsReport`] — what the hub's `finish` assembles from the lanes.
//!
//! A plane that is off has no storage, and an event that would feed it
//! is one predictable branch. Timestamps are the runtime's ticks
//! (simulator: picoseconds of simulated time; threads: wall nanoseconds
//! since the run's anchor); stage ticks may use a second scale (the
//! simulator profiles in model cycles). The sink stamps nothing itself,
//! so the grain is the runtime's: the simulator's instants are exact;
//! on threads a packet's arrival is its ingress burst's clock read
//! (never later than its push) and its start and end are its batch's.
//! Completions arrive a batch at a time (`ObsLane::complete_batch`):
//! the trace gets every packet's events, the latency and tail planes
//! every run of equal timings once, with its length, and the reorder
//! sketch the whole batch — it observes batch-completion order, which
//! is the order the timestamps already tell.

use crate::config::ObsConfig;
use crate::stats::MiddleboxStats;
use sprayer_net::FlowKey;
use sprayer_obs::{
    health_channel, health_kind_code, is_freeze_trigger, CoreSample, DropKind, EventKind,
    ExpectedCounts, FlightEvent, FlightFreeze, FlightKind, FlightRing, FlightSnapshot, HealthBus,
    HealthCollector, HealthEvent, HealthReport, LatencyProbes, LiveSlots, ProfileSlots,
    ReorderReport, ReorderScratch, SampleSet, SharedReorderSketch, Stage, StageProfile,
    StageProfiler, TailReport, TailSpans, TailTracker, TimeSeries, Trace, TraceEvent, TraceMeta,
    TraceRing,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The run-level half of the sink. See the module docs.
pub(crate) struct ObsHub {
    pub(crate) cfg: ObsConfig,
    runtime: &'static str,
    ticks_per_us: u64,
    /// NF label and tick scale of the stage profile.
    profile: (String, u64),
    num_cores: usize,
    /// The bus never blocks (a full bus counts the loss); the collector
    /// leaves at [`ObsHub::finish`].
    health: Option<(HealthBus, Mutex<Option<HealthCollector>>)>,
    /// Sharded internally; lanes feed it a completed batch at a time.
    reorder: Option<SharedReorderSketch>,
    /// The flight recorder's latch: a relaxed-read flag on the record
    /// path and a first-wins record of the trigger.
    frozen: AtomicBool,
    freeze: Mutex<Option<FlightFreeze>>,
    /// Global trace-event sequence: one relaxed `fetch_add` per
    /// reservation (an ingress burst, a worker batch) and per event
    /// recorded outside one; untouched when tracing is off or the
    /// event's ring is full.
    trace_seq: AtomicU64,
    /// Slots an outside observer polls while the run executes: sampled
    /// batch deltas and profiled spans are mirrored into them.
    pub(crate) live: Option<Arc<LiveSlots>>,
    pub(crate) profile_live: Option<Arc<ProfileSlots>>,
}

/// What a lane keeps for one core it covers.
#[derive(Clone)]
struct CoreObs {
    series: Option<TimeSeries>,
    profile: Option<StageProfile>,
    flight: Option<FlightRing>,
    /// Queue high-water latch, see [`ObsLane::queue_depth`].
    latched: bool,
}

/// One thread of control's half of the sink. See the module docs.
pub(crate) struct ObsLane {
    pub(crate) hub: Arc<ObsHub>,
    /// First covered core; `cores[i]` belongs to core `base + i`.
    base: usize,
    cores: Vec<CoreObs>,
    trace: Option<TraceRing>,
    /// Sequence numbers taken ahead for this lane's next events.
    reserved: Range<u64>,
    /// `trace_seq` claims this lane made, for the runtimes' census.
    #[cfg(test)]
    seq_claims: u64,
    /// Where a completed batch is partitioned by reorder-sketch shard.
    reorder_scratch: ReorderScratch,
    probes: Option<LatencyProbes>,
    tail: Option<TailTracker>,
    live: Option<Arc<LiveSlots>>,
    /// Runtime ticks per nanosecond, the probes' unit.
    ticks_per_ns: u64,
}

/// One NF completion: a packet's whole path, in the runtime's ticks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    /// Arrival ordinal (trace packet id).
    pub id: u64,
    /// Stable flow hash; 0 when the packet had no parseable tuple.
    pub flow: u64,
    /// When the packet arrived.
    pub arrival: u64,
    /// When it was pushed to the designated core's ring, if redirected.
    pub relay: Option<u64>,
    /// When its service began (it stopped waiting).
    pub start: u64,
    /// When the NF was done with it (it can leave).
    pub done: u64,
    /// NF verdict was Drop.
    pub dropped: bool,
    /// Framework ticks at the head of `start..done` (classify) and at
    /// its tail (tx), for tail attribution; the NF span is the rest.
    pub classify: u64,
    /// See `classify`.
    pub tx: u64,
}

impl Completion {
    /// Everything but the packet's identity and verdict: what the
    /// latency and tail planes read.
    #[inline]
    fn timing(&self) -> (u64, Option<u64>, u64, u64, u64, u64) {
        (
            self.arrival,
            self.relay,
            self.start,
            self.done,
            self.classify,
            self.tx,
        )
    }

    /// Queue wait and ring transit: a redirected packet's wait splits
    /// at its ring push.
    #[inline]
    fn waits(&self) -> (u64, u64) {
        match self.relay {
            Some(at) => (
                at.saturating_sub(self.arrival),
                self.start.saturating_sub(at),
            ),
            None => (self.start.saturating_sub(self.arrival), 0),
        }
    }
}

/// Everything a run observed; a field is `Some` iff its plane was on.
#[derive(Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Every lane's ring merged in global sequence order and stamped
    /// with the final stats ([`ObsConfig::trace`]).
    pub trace: Option<Trace>,
    /// Merged latency histograms, nanoseconds ([`ObsConfig::latency`]).
    pub probes: Option<LatencyProbes>,
    /// One series per core on a common grid ([`ObsConfig::sample`]).
    pub samples: Option<SampleSet>,
    /// Per-core stage breakdown ([`ObsConfig::profile`]).
    pub profile: Option<StageProfiler>,
    /// Every health event the run emitted ([`ObsConfig::health`]).
    pub health: Option<HealthReport>,
    /// The streaming reorder estimate ([`ObsConfig::reorder`]).
    pub reorder: Option<ReorderReport>,
    /// Merged tail-attribution table ([`ObsConfig::tail`]).
    pub tail: Option<TailReport>,
    /// The flight rings and freeze record ([`ObsConfig::flight`]).
    pub flight: Option<FlightSnapshot>,
}

impl ObsHub {
    /// A hub for `runtime`, whose timestamps run at `ticks_per_us` and
    /// whose stage ticks (`profile` = NF label, scale) may run at
    /// another. `writers` is how many lanes complete packets (the
    /// reorder sketch's shard count).
    pub fn new(
        cfg: ObsConfig,
        runtime: &'static str,
        ticks_per_us: u64,
        profile: (&str, u64),
        num_cores: usize,
        writers: usize,
    ) -> ObsHub {
        ObsHub {
            cfg,
            runtime,
            ticks_per_us,
            profile: (profile.0.to_string(), profile.1),
            num_cores,
            health: cfg.health.then(|| {
                let (bus, collector) = health_channel(cfg.health_capacity);
                (bus, Mutex::new(Some(collector)))
            }),
            reorder: cfg.reorder.then(|| {
                SharedReorderSketch::new(cfg.reorder_window, cfg.reorder_max_flows, writers)
            }),
            frozen: AtomicBool::new(false),
            freeze: Mutex::new(None),
            trace_seq: AtomicU64::new(0),
            live: None,
            profile_live: None,
        }
    }

    /// A lane over `cores`. A `datapath` lane belongs to a thread that
    /// runs the NF: everything, with one trace ring bounded at
    /// `cores.len() ×` the configured per-core capacity (one sequential
    /// write stream is markedly cheaper than one per core). The other
    /// kind belongs to a thread that only admits packets: a trace ring
    /// of the per-core capacity, and per core the queue-drop series and
    /// the high-water latch. It owns no flight ring — a second writer
    /// per core would need a time-ordered merge.
    pub fn lane(self: &Arc<Self>, cores: Range<usize>, datapath: bool) -> ObsLane {
        let cfg = &self.cfg;
        let ring_cores = if datapath { cores.len() } else { 1 };
        ObsLane {
            hub: self.clone(),
            base: cores.start,
            cores: vec![self.core_obs(datapath); cores.len()],
            trace: cfg
                .trace
                .then(|| TraceRing::new(cfg.trace_ring_capacity * ring_cores)),
            reserved: 0..0,
            #[cfg(test)]
            seq_claims: 0,
            reorder_scratch: ReorderScratch::default(),
            probes: (datapath && cfg.latency).then(LatencyProbes::new),
            tail: (datapath && cfg.tail)
                .then(|| TailTracker::new(self.num_cores, cfg.tail_threshold_ticks)),
            live: self.live.clone().filter(|_| datapath),
            ticks_per_ns: (self.ticks_per_us / 1_000).max(1),
        }
    }

    /// The stable flow hash a packet's events carry: what the tracer
    /// and the reorder sketch key on, so the (cheap but nonzero) mix is
    /// skipped when both are off. 0 without a parseable tuple.
    #[inline]
    pub fn flow_hash(&self, key: Option<FlowKey>) -> u64 {
        match key {
            Some(k) if self.cfg.trace || self.cfg.reorder => k.stable_hash(),
            _ => 0,
        }
    }

    fn core_obs(&self, datapath: bool) -> CoreObs {
        let cfg = &self.cfg;
        CoreObs {
            series: cfg.sample.then(|| {
                TimeSeries::new(
                    cfg.sample_interval_us.max(1) * self.ticks_per_us,
                    cfg.sample_capacity.max(2),
                )
            }),
            profile: (datapath && cfg.profile).then(StageProfile::default),
            flight: (datapath && cfg.flight).then(|| FlightRing::new(cfg.flight_capacity)),
            latched: false,
        }
    }

    /// Put a health event on record where no lane can be written — the
    /// watchdog fencing a wedged worker, the runner converting an
    /// escaped panic: latch the flight recorder on the critical kinds
    /// (first trigger wins; the marker lives in the freeze record
    /// only) and emit on the bus.
    pub fn health(&self, ts: u64, event: HealthEvent) {
        let kind = event.kind();
        if self.cfg.flight
            && is_freeze_trigger(kind)
            && self
                .frozen
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            *self.freeze.lock().expect("freeze record poisoned") = Some(FlightFreeze {
                ts,
                kind: kind.to_string(),
                core: event.core().unwrap_or(0) as u16,
            });
        }
        if let Some((bus, _)) = &self.health {
            bus.emit(ts, event);
        }
    }

    fn flight_snapshot(&self, rings: &[FlightRing]) -> FlightSnapshot {
        let frozen = self.freeze.lock().expect("freeze record poisoned").clone();
        FlightSnapshot::assemble(self.runtime, self.ticks_per_us, frozen, rings)
    }

    /// Assemble the run's report from its lanes — datapath lanes in
    /// core order, the ingress lane (if any) last — stamping the trace
    /// with `stats` as the counts the analyzer checks it against.
    pub fn finish(&self, lanes: Vec<ObsLane>, stats: &MiddleboxStats) -> ObsReport {
        let cfg = &self.cfg;
        let mut rings = Vec::new();
        let mut probes = cfg.latency.then(LatencyProbes::new);
        let mut series: Vec<TimeSeries> = Vec::new();
        let mut profile = cfg
            .profile
            .then(|| StageProfiler::new(&self.profile.0, self.profile.1, self.num_cores));
        let mut tail: Option<TailReport> = None;
        let mut flight = Vec::new();
        for lane in lanes {
            rings.extend(lane.trace);
            if let (Some(acc), Some(p)) = (probes.as_mut(), lane.probes.as_ref()) {
                acc.merge(p);
            }
            match (tail.as_mut(), lane.tail.map(|t| t.report())) {
                (Some(acc), Some(t)) => acc.merge(&t),
                (None, t) => tail = t,
                (Some(_), None) => {}
            }
            for (core, c) in (lane.base..).zip(lane.cores) {
                // Ingress-side queue drops fold into the target core's
                // series here.
                match (series.get_mut(core), c.series) {
                    (Some(acc), Some(s)) => acc.merge(&s),
                    (None, Some(s)) => {
                        debug_assert_eq!(core, series.len(), "lanes out of core order");
                        series.push(s);
                    }
                    (_, None) => {}
                }
                if let (Some(acc), Some(p)) = (profile.as_mut(), c.profile) {
                    acc.merge_core(core, &p);
                }
                flight.extend(c.flight);
            }
        }
        ObsReport {
            trace: cfg.trace.then(|| {
                let meta = TraceMeta {
                    runtime: self.runtime.to_string(),
                    ticks_per_us: self.ticks_per_us,
                    num_cores: self.num_cores,
                    expected: Some(ExpectedCounts {
                        offered: stats.offered,
                        processed: stats.processed(),
                        forwarded: stats.forwarded,
                        nf_drops: stats.nf_drops,
                        nic_cap_drops: stats.nic_cap_drops,
                        queue_drops: stats.queue_drops,
                        ring_drops: stats.ring_drops,
                        redirects: stats.redirects(),
                    }),
                };
                Trace::assemble(meta, rings)
            }),
            probes,
            samples: cfg
                .sample
                .then(|| SampleSet::assemble(self.ticks_per_us, series)),
            profile,
            health: self.health.as_ref().and_then(|(_, collector)| {
                let collector = collector.lock().expect("collector poisoned").take();
                collector.map(|c| c.collect(self.ticks_per_us))
            }),
            reorder: self.reorder.as_ref().map(|s| s.report()),
            tail,
            flight: cfg.flight.then(|| self.flight_snapshot(&flight)),
        }
    }
}

impl ObsLane {
    /// Cover cores `base..base + cores` from here on (the simulator
    /// scaling up; the trace bound and the tail table keep their size).
    pub fn grow(&mut self, cores: usize) {
        let fresh = self.hub.core_obs(true);
        if self.cores.len() < cores {
            self.cores.resize(cores, fresh);
        }
    }

    /// The latency histograms so far, when [`ObsConfig::latency`] is on.
    pub fn probes(&self) -> Option<&LatencyProbes> {
        self.probes.as_ref()
    }

    /// A mid-run (possibly frozen) view of this lane's flight rings.
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        let rings: Vec<FlightRing> = self.cores.iter().filter_map(|c| c.flight.clone()).collect();
        self.hub
            .cfg
            .flight
            .then(|| self.hub.flight_snapshot(&rings))
    }

    #[inline]
    fn core_mut(&mut self, core: usize) -> Option<&mut CoreObs> {
        self.cores.get_mut(core.wrapping_sub(self.base))
    }

    /// Out of line: inlined at its call sites, the trace writer grows the
    /// runtimes' batch loops (the simulator's `advance_until` by 12 %),
    /// which every mode runs, planes off included.
    #[inline(never)]
    fn emit(&mut self, core: usize, ts: u64, kind: EventKind, flow: u64, pkt: u64, aux: u64) {
        if let Some(ring) = self.trace.as_mut() {
            // A full ring refuses before anything is spent on the event:
            // kept events carry gapless sequence numbers.
            if !ring.admit() {
                return;
            }
            let seq = match self.reserved.next() {
                Some(seq) => seq,
                None => {
                    #[cfg(test)]
                    {
                        self.seq_claims += 1;
                    }
                    self.hub.trace_seq.fetch_add(1, Ordering::Relaxed)
                }
            };
            ring.push(TraceEvent {
                seq,
                ts,
                core: core as u16,
                kind,
                flow,
                pkt,
                aux,
            });
        }
    }

    /// Record into `core`'s flight ring; a no-op once the run-level
    /// latch has frozen. One writer per ring: what this lane saw happen
    /// at a core it does not cover (a worker's redirect bouncing off a
    /// peer's full ring) goes in its own first ring.
    #[inline]
    fn flight(&mut self, core: usize, ts: u64, kind: FlightKind, a: u64, b: u64) {
        let own = core.wrapping_sub(self.base);
        let slot = if own < self.cores.len() { own } else { 0 };
        if let Some(ring) = self.cores.get_mut(slot).and_then(|c| c.flight.as_mut()) {
            if !self.hub.frozen.load(Ordering::Relaxed) {
                ring.push(FlightEvent { ts, kind, a, b });
            }
        }
    }

    /// True when this lane records trace events.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// `trace_seq` claims this lane has made so far.
    #[cfg(test)]
    pub fn seq_claims(&self) -> u64 {
        self.seq_claims
    }

    /// Allocate this lane's next `n` trace events their sequence
    /// numbers now, with one `fetch_add`: the ingress thread per burst,
    /// a worker per batch. A thread that hands packets to another calls
    /// this *before* the hand-off, and a thread that takes packets
    /// *after* it took them, so the receiver's first event for each
    /// packet always sorts after the sender's last. Only what the ring
    /// still has room for is reserved: the rest will be refused (and
    /// counted) when it comes. What the previous reservation left
    /// unused (a batch whose NF died) is abandoned, its numbers never
    /// used.
    #[inline]
    pub fn reserve_seqs(&mut self, n: u64) {
        if let Some(room) = self.trace.as_ref().map(TraceRing::room) {
            let k = n.min(room as u64);
            self.reserved = if k > 0 {
                #[cfg(test)]
                {
                    self.seq_claims += 1;
                }
                let first = self.hub.trace_seq.fetch_add(k, Ordering::Relaxed);
                first..first + k
            } else {
                0..0
            };
        }
    }

    /// Put `seqs` in place of the lane's reservation and return what it
    /// held: a batch that runs nested inside another (a worker draining
    /// its own ring while it waits to redirect) takes packets the outer
    /// reservation predates, so it must reserve its own and leave the
    /// outer's for the outer batch.
    #[inline]
    pub fn swap_seqs(&mut self, seqs: Range<u64>) -> Range<u64> {
        std::mem::replace(&mut self.reserved, seqs)
    }

    /// Packet `id` was admitted to `core`'s receive queue.
    #[inline]
    pub fn ingress(&mut self, core: usize, ts: u64, flow: u64, id: u64) {
        self.emit(core, ts, EventKind::IngressEnqueue, flow, id, 0);
    }

    /// Packet `id` was lost at `core` (its NIC cap, its receive queue,
    /// its ring). Counted in `core`'s series when this lane covers it —
    /// a worker's ring-full drop at a peer rides its own batch delta.
    #[inline]
    pub fn drop(&mut self, core: usize, ts: u64, kind: DropKind, flow: u64, id: u64) {
        if let Some(s) = self.core_mut(core).and_then(|c| c.series.as_mut()) {
            s.record(ts, |b| match kind {
                DropKind::NicCap => b.nic_cap_drops += 1,
                DropKind::QueueFull => b.queue_drops += 1,
                DropKind::RingFull => b.ring_drops += 1,
                DropKind::DeadCore => {}
            });
        }
        self.emit(core, ts, EventKind::Drop, flow, id, kind.to_aux());
        self.flight(core, ts, FlightKind::Drop, kind.to_aux(), 0);
    }

    /// Packet `id` was steered to failed `core`'s queue and is lost
    /// there. A trace event only, read at `now`: the flight recorder
    /// and the sampled series see the loss in `lost_packets` instead.
    #[inline]
    pub fn lost(&mut self, core: usize, flow: u64, id: u64, now: impl FnOnce() -> u64) {
        if self.tracing() {
            let aux = DropKind::DeadCore.to_aux();
            self.emit(core, now(), EventKind::Drop, flow, id, aux);
        }
    }

    /// `core`'s receive queue holds `depth` of `capacity`. Edge
    /// triggered, not per packet: a [`HealthEvent::QueueHighWater`]
    /// fires on the upward crossing of 3/4 capacity and re-arms only
    /// once the queue is seen below half (the latch is only ever set
    /// with the health bus on, so this is two compares on the common
    /// path). `now` is read on a crossing.
    #[inline]
    pub fn queue_depth(
        &mut self,
        core: usize,
        depth: u64,
        capacity: u64,
        now: impl FnOnce() -> u64,
    ) {
        let Some(c) = self.cores.get_mut(core.wrapping_sub(self.base)) else {
            return;
        };
        if c.latched {
            c.latched = depth * 2 >= capacity;
        } else if depth * 4 >= capacity * 3 && self.hub.cfg.health {
            c.latched = true;
            let event = HealthEvent::QueueHighWater {
                core,
                depth,
                capacity,
            };
            self.health(now(), event);
        }
    }

    /// A batch of `n` ended on `core` (the simulator: a busy burst),
    /// leaving `depth` queued.
    #[inline]
    pub fn batch(&mut self, core: usize, ts: u64, n: u64, depth: u64) {
        self.emit(core, ts, EventKind::Drain, 0, TraceEvent::NO_PKT, n);
        self.flight(core, ts, FlightKind::Batch, n, depth);
    }

    /// Packet `id` leaves `core` for `target`'s ring.
    #[inline]
    pub fn redirect_out(&mut self, core: usize, ts: u64, flow: u64, id: u64, target: usize) {
        self.emit(core, ts, EventKind::RedirectOut, flow, id, target as u64);
        self.flight(core, ts, FlightKind::RedirectOut, target as u64, 0);
    }

    /// `core` popped a descriptor that spent `transfer` ticks in its
    /// ring — the pickup as the core's black box sees it. The packet's
    /// own `RedirectIn` trace event is [`ObsLane::complete_batch`]'s:
    /// its transit ends when its service begins.
    #[inline]
    pub fn redirect_in(&mut self, core: usize, ts: u64, transfer: u64) {
        self.flight(core, ts, FlightKind::RedirectIn, transfer, 0);
    }

    /// The NF finished a batch on `core` (the simulator: a batch of
    /// one), `batch` in completion order. Each packet gets its
    /// `RedirectIn` (if it was redirected), `NfStart` and `NfDone`
    /// trace events, its latency samples and its tail spans — which
    /// partition its sojourn; the batch as a whole takes its place in
    /// its flows' completion order. Consecutive packets with equal
    /// timings — on threads a whole receive batch shares its arrival,
    /// start and end — are one run to the latency and tail planes,
    /// recorded once with its length.
    #[inline]
    pub fn complete_batch<I>(&mut self, core: usize, batch: I)
    where
        I: IntoIterator<Item = Completion>,
        I::IntoIter: Clone,
    {
        let mut batch = batch.into_iter();
        // Streaming reorder estimate: completion order vs arrival
        // ordinal, the same (flow, id) pairs the offline analyzer
        // inverts over. Packets without a parseable tuple (flow 0) are
        // skipped on both sides.
        if let Some(sketch) = self.hub.reorder.as_ref() {
            let pairs = batch.clone().filter(|c| c.flow != 0);
            let pairs = pairs.map(|c| (c.flow, c.id));
            sketch.on_complete_batch(core, pairs, &mut self.reorder_scratch);
        }
        if self.tracing() {
            for c in batch.clone() {
                let (_, transit) = c.waits();
                if c.relay.is_some() {
                    self.emit(core, c.start, EventKind::RedirectIn, c.flow, c.id, transit);
                }
                self.emit(core, c.start, EventKind::NfStart, c.flow, c.id, 0);
                let verdict = u64::from(c.dropped);
                self.emit(core, c.done, EventKind::NfDone, c.flow, c.id, verdict);
            }
        }
        if self.probes.is_none() && self.tail.is_none() {
            return;
        }
        let Some(mut head) = batch.next() else {
            return;
        };
        let mut n = 1;
        for c in batch {
            if c.timing() == head.timing() {
                n += 1;
            } else {
                self.record_run(core, &head, n);
                (head, n) = (c, 1);
            }
        }
        self.record_run(core, &head, n);
    }

    /// `n` completions timed like `c`, into the latency and tail planes.
    #[inline]
    fn record_run(&mut self, core: usize, c: &Completion, n: u64) {
        let (queue_wait, transit) = c.waits();
        let sojourn = c.done.saturating_sub(c.arrival);
        if let Some(p) = self.probes.as_mut() {
            // Redirected packets report ring latency where local ones
            // report queue wait (admission to NF start).
            match c.relay {
                Some(_) => p.redirect_ns.record_n(transit / self.ticks_per_ns, n),
                None => p.queue_wait_ns.record_n(queue_wait / self.ticks_per_ns, n),
            }
            p.sojourn_ns.record_n(sojourn / self.ticks_per_ns, n);
        }
        if let Some(tail) = self.tail.as_mut() {
            let spans = TailSpans {
                queue_wait,
                classify: c.classify,
                redirect_transit: transit,
                nf: sojourn.saturating_sub(queue_wait + transit + c.classify + c.tx),
                tx: c.tx,
            };
            tail.on_complete_n(core, spans, n);
        }
    }

    /// Attribute `ticks` (profile scale) on `core` to `stage`; a zero
    /// component is no span.
    #[inline]
    pub fn stage(&mut self, core: usize, stage: Stage, ticks: u64) {
        if ticks == 0 {
            return;
        }
        if let Some(p) = self.core_mut(core).and_then(|c| c.profile.as_mut()) {
            p.record(stage, ticks);
            if let Some(slots) = self.hub.profile_live.as_deref() {
                slots.add(core, stage, ticks);
            }
        }
    }

    /// Fold a counter delta into the bucket of `core`'s series that
    /// `ts` falls in, and into the live slots. `fill` writes the delta
    /// into a zeroed sample and runs only when someone is listening.
    #[inline]
    pub fn sample(&mut self, core: usize, ts: u64, fill: impl FnOnce(&mut CoreSample)) {
        let slot = self.cores.get_mut(core.wrapping_sub(self.base));
        let series = slot.and_then(|c| c.series.as_mut());
        if series.is_none() && self.live.is_none() {
            return;
        }
        let mut delta = CoreSample::default();
        fill(&mut delta);
        if let Some(s) = series {
            s.record(ts, |b| b.merge(&delta));
        }
        if let Some(live) = self.live.as_deref() {
            live.add(core, &delta);
        }
    }

    /// Put a health event on record: mirror it into the affected
    /// core's flight ring, stamp the freeze marker behind it on the
    /// critical kinds — the black box stops writing the instant the
    /// crash is on record — then latch and emit through
    /// [`ObsHub::health`]. One `ts` for the ring, the freeze record and
    /// the bus.
    pub fn health(&mut self, ts: u64, event: HealthEvent) {
        let (kind, core) = (event.kind(), event.core().unwrap_or(0));
        let code = health_kind_code(kind);
        self.flight(core, ts, FlightKind::Health, code, core as u64);
        if is_freeze_trigger(kind) {
            // The marker must land before the latch turns `flight` into
            // a no-op.
            self.flight(core, ts, FlightKind::Freeze, code, core as u64);
        }
        self.hub.health(ts, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: u64 = 1_000_000;

    fn sim_lane(cfg: ObsConfig, cores: usize) -> ObsLane {
        Arc::new(ObsHub::new(cfg, "sim", PS, ("nf", 2_000), cores, 1)).lane(0..cores, true)
    }

    fn finish(lane: ObsLane) -> ObsReport {
        let hub = lane.hub.clone();
        hub.finish(vec![lane], &MiddleboxStats::new(2))
    }

    /// The flight recorder's contract, over hub + lane: a frozen recorder
    /// ignores later events, the first freeze wins, the `Freeze` marker
    /// is the affected core's last event, the totals add up.
    #[test]
    fn recorder_freezes_first_wins_and_stops_recording() {
        let mut lane = sim_lane(ObsConfig::flight_recorder(), 2);
        lane.batch(0, 10, 4, 1);
        let death = HealthEvent::WorkerDeath {
            core: 1,
            message: String::new(),
        };
        lane.health(20, death);
        lane.batch(0, 30, 4, 1); // ignored
        lane.health(40, HealthEvent::DropStorm { core: 0, drops: 9 }); // ignored: first wins
        let live = lane.flight_snapshot().expect("flight recorder on");
        let report = finish(lane);
        let snap = report.flight.expect("flight recorder on");
        assert_eq!(snap, live, "the mid-run view is the final one once frozen");
        let f = snap.frozen.as_ref().unwrap();
        assert_eq!((f.ts, f.kind.as_str(), f.core), (20, "worker_death", 1));
        assert_eq!(snap.per_core[0].len(), 1, "post-freeze events dropped");
        // The freeze marker is the affected core's final event, behind
        // the health marker it rode in on.
        let last = snap.per_core[1].last().unwrap();
        assert_eq!(last.kind, FlightKind::Freeze);
        assert_eq!(last.a, health_kind_code("worker_death"));
        assert_eq!(snap.per_core[1][0].kind, FlightKind::Health);
        assert_eq!((snap.recorded, snap.overwritten), (3, 0));
        // One timestamp for the ring, the freeze record and the bus.
        let health = report.health.expect("health bus on");
        assert_eq!(health.records[0].ts, 20);
        assert_eq!(last.ts, 20);
    }

    #[test]
    fn a_hub_level_freeze_lives_in_the_record_only() {
        // The watchdog's path: no lane to write, so no marker in a ring.
        let mut lane = sim_lane(ObsConfig::flight_recorder(), 2);
        lane.batch(1, 5, 1, 0);
        let fence = HealthEvent::WatchdogFence {
            core: 1,
            stalled_ticks: 7,
        };
        lane.hub.health(9, fence);
        lane.batch(1, 11, 1, 0); // ignored
        let snap = finish(lane).flight.unwrap();
        assert_eq!(snap.frozen.as_ref().unwrap().kind, "watchdog_fence");
        assert_eq!(snap.per_core[1].len(), 1);
        assert_eq!(snap.per_core[1][0].kind, FlightKind::Batch);
    }

    #[test]
    fn a_worker_lane_files_a_peers_drop_in_its_own_ring_and_not_its_series() {
        let cfg = ObsConfig {
            sample: true,
            trace: true,
            ..ObsConfig::flight_recorder()
        };
        let hub = Arc::new(ObsHub::new(cfg, "threads", 1_000, ("nf", 1_000), 2, 2));
        let mut lanes = vec![
            hub.lane(0..1, true),
            hub.lane(1..2, true),
            hub.lane(0..2, false),
        ];
        lanes[1].drop(0, 50, DropKind::RingFull, 7, 3);
        lanes[2].drop(0, 60, DropKind::QueueFull, 7, 4);
        let report = hub.finish(lanes, &MiddleboxStats::new(2));
        let flight = report.flight.unwrap();
        assert!(
            flight.per_core[0].is_empty(),
            "core 0's ring has one writer"
        );
        assert_eq!(flight.per_core[1].len(), 1, "the sender's black box has it");
        // Only the ingress lane covers core 0's series: its queue drop
        // folds in; the worker's ring drop rides its own batch delta.
        let totals = report.samples.unwrap().totals();
        assert_eq!((totals[0].queue_drops, totals[0].ring_drops), (1, 0));
        assert_eq!(totals[1].ring_drops, 0);
        let trace = report.trace.unwrap();
        assert!(trace.events.iter().all(|e| e.core == 0), "both name core 0");
    }

    #[test]
    fn the_high_water_latch_fires_on_the_edge_and_rearms_below_half() {
        let mut lane = sim_lane(ObsConfig::health_plane(), 1);
        for depth in [5, 6, 7, 8, 4, 3, 6, 7] {
            lane.queue_depth(0, depth, 8, || depth * 100);
        }
        let health = finish(lane).health.unwrap();
        let at: Vec<u64> = health.records.iter().map(|r| r.ts).collect();
        assert_eq!(at, [600, 600], "6/8 crossed twice, re-armed by 3/8 between");
    }

    #[test]
    fn a_reserved_sequence_goes_to_the_lanes_next_event() {
        let hub = Arc::new(ObsHub::new(
            ObsConfig::tracing(),
            "threads",
            1_000,
            ("nf", 1_000),
            1,
            1,
        ));
        let (mut worker, mut ingress) = (hub.lane(0..1, true), hub.lane(0..1, false));
        ingress.reserve_seqs(1);
        // The worker is faster than the ingress thread's bookkeeping.
        worker.batch(0, 5, 1, 0);
        ingress.ingress(0, 1, 1, 0);
        let trace = hub
            .finish(vec![worker, ingress], &MiddleboxStats::new(1))
            .trace
            .unwrap();
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::IngressEnqueue, EventKind::Drain]);
    }

    #[test]
    fn one_lane_over_all_cores_has_one_ring_of_their_summed_capacity() {
        let mut lane = sim_lane(ObsConfig::tracing_with_capacity(3), 2);
        for id in 0..10 {
            lane.ingress(1, id, 0, id);
        }
        let trace = finish(lane).trace.unwrap();
        assert_eq!((trace.events.len(), trace.dropped), (6, 4));
        // A refused event claims no sequence number: no gaps.
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
        assert_eq!(trace.meta.runtime, "sim");
        assert!(trace.meta.expected.is_some());
    }

    #[test]
    fn probes_are_nanoseconds_whatever_the_tick() {
        let mut lane = sim_lane(ObsConfig::latency(), 1);
        let local = Completion {
            id: 0,
            flow: 0,
            arrival: 1_000,
            relay: None,
            start: 5_000,
            done: 12_000,
            dropped: false,
            classify: 0,
            tx: 0,
        };
        lane.complete_batch(0, [local]);
        let redirected = Completion {
            relay: Some(2_000),
            start: 9_000,
            done: 9_000,
            ..local
        };
        lane.complete_batch(0, [redirected]);
        let p = lane.probes().unwrap();
        assert_eq!(p.queue_wait_ns.max(), Some(4));
        assert_eq!(p.redirect_ns.max(), Some(7));
        assert_eq!(p.sojourn_ns.max(), Some(11));
        assert_eq!(p.sojourn_ns.count(), 2);
    }

    /// Runs of equal timings are recorded once with their length, and
    /// the reorder sketch takes a sharded batch in one partition: fed
    /// the same completions one at a time, a lane must report the same
    /// — every plane `complete_batch` feeds, field for field. 600
    /// completions cross the rolling tail threshold's 256-completion
    /// recompute twice, inside runs.
    #[test]
    fn a_batch_reports_what_its_completions_do_one_at_a_time() {
        let cfg = ObsConfig {
            trace: true,
            latency: true,
            reorder: true,
            tail: true,
            ..ObsConfig::disabled()
        };
        let completions: Vec<Completion> = (0..600u64)
            .map(|i| {
                // Arrivals come in bursts of 7, a third of them
                // redirected; service windows in batches of 64.
                let (burst, batch) = (i / 7, i / 64);
                let start = 1_000 * batch + 700;
                Completion {
                    // Reversed in blocks of 32: reordered completions.
                    id: i ^ 31,
                    flow: match i % 13 {
                        0 => 0,
                        f => f.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    },
                    arrival: 100 * burst,
                    relay: (burst % 3 == 0).then_some(100 * burst + 40),
                    start,
                    done: start + 50 * (batch % 4) + 5 * (burst % 2),
                    dropped: i % 11 == 0,
                    classify: 0,
                    tx: 0,
                }
            })
            .collect();
        let report = |feed: &dyn Fn(&mut ObsLane)| {
            let hub = Arc::new(ObsHub::new(cfg, "threads", 1_000, ("nf", 1_000), 2, 2));
            let mut lane = hub.lane(0..1, true);
            feed(&mut lane);
            hub.finish(vec![lane], &MiddleboxStats::new(2))
        };
        let batched = report(&|lane| {
            for batch in completions.chunks(64) {
                lane.complete_batch(0, batch.iter().copied());
            }
        });
        let one_by_one = report(&|lane| {
            for &c in &completions {
                lane.complete_batch(0, [c]);
            }
        });
        assert_eq!(batched, one_by_one);
        let (tail, reorder) = (batched.tail.unwrap(), batched.reorder.unwrap());
        assert!(tail.exemplars > 0 && tail.threshold_ticks < u64::MAX);
        assert!(reorder.reordered > 0 && reorder.completions < 600);
        assert_eq!(batched.probes.unwrap().sojourn_ns.count(), 600);
    }

    #[test]
    fn a_disabled_hub_reports_nothing_and_records_nothing() {
        let mut lane = sim_lane(ObsConfig::disabled(), 2);
        lane.sample(0, 1, |_| panic!("nobody is listening"));
        lane.drop(0, 1, DropKind::NicCap, 1, 1);
        lane.stage(0, Stage::Nf, 5);
        assert!(lane.probes().is_none() && lane.flight_snapshot().is_none());
        let r = finish(lane);
        assert!(r.trace.is_none() && r.probes.is_none() && r.samples.is_none());
        assert!(r.profile.is_none() && r.health.is_none() && r.reorder.is_none());
        assert!(r.tail.is_none() && r.flight.is_none());
    }

    #[test]
    fn grown_cores_are_sampled_profiled_and_recorded() {
        let cfg = ObsConfig {
            flight: true,
            ..ObsConfig::health_plane()
        };
        let mut lane = sim_lane(cfg, 1);
        lane.grow(3);
        lane.sample(2, 0, |s| s.processed = 4);
        lane.stage(2, Stage::Nf, 9);
        lane.batch(2, 0, 1, 0);
        let r = finish(lane);
        assert_eq!(r.samples.unwrap().totals()[2].processed, 4);
        let profile = r.profile.unwrap();
        assert_eq!(profile.cores()[2].ticks[Stage::Nf.index()], 9);
        assert_eq!(profile.ticks_per_us(), 2_000, "the second tick scale");
        assert_eq!(r.flight.unwrap().per_core[2].len(), 1);
    }
}
