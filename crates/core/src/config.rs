//! Middlebox model configuration.

use serde::{Deserialize, Serialize};
use sprayer_sim::time::{ClockFreq, LinkSpeed};

/// How the NIC assigns packets to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchMode {
    /// Per-flow RSS with the symmetric key (the paper's baseline).
    Rss,
    /// Packet spraying by TCP checksum via Flow Director (Sprayer).
    Sprayer,
    /// State-Compute Replication (arXiv:2309.14647): packets are sprayed
    /// like Sprayer, but *nothing* is ever redirected — every core holds
    /// a full replica of flow state, kept convergent by a per-core
    /// state-update log multicast over the inter-core rings and replayed
    /// before local dispatch ([`crate::scr`]).
    Scr,
}

impl core::fmt::Display for DispatchMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DispatchMode::Rss => write!(f, "RSS"),
            DispatchMode::Sprayer => write!(f, "Sprayer"),
            DispatchMode::Scr => write!(f, "SCR"),
        }
    }
}

/// Error returned when parsing a [`DispatchMode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDispatchModeError(String);

impl core::fmt::Display for ParseDispatchModeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown dispatch mode {:?} (expected rss, sprayer, or scr)",
            self.0
        )
    }
}

impl std::error::Error for ParseDispatchModeError {}

impl core::str::FromStr for DispatchMode {
    type Err = ParseDispatchModeError;

    /// Case-insensitive: accepts `rss`, `sprayer`, and `scr` (so
    /// `Display` output round-trips through `parse`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rss" => Ok(DispatchMode::Rss),
            "sprayer" => Ok(DispatchMode::Sprayer),
            "scr" => Ok(DispatchMode::Scr),
            _ => Err(ParseDispatchModeError(s.to_string())),
        }
    }
}

impl DispatchMode {
    /// All dispatch modes, in the canonical presentation order used by
    /// the three-way figure tables.
    pub const ALL: [DispatchMode; 3] =
        [DispatchMode::Sprayer, DispatchMode::Rss, DispatchMode::Scr];
}

/// Observability switches shared by both runtimes.
///
/// All cost *nothing* when off: the one sink both runtimes report to
/// ([`crate::obs_sink`]) holds no storage for a plane that is off, and
/// the runtimes skip clock reads, flow hashing, and event recording
/// entirely (verified by the `obs` group in
/// `crates/bench/benches/microbench.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Record per-packet [`sprayer_obs::TraceEvent`]s into bounded
    /// per-core rings (retrievable as a [`sprayer_obs::Trace`]).
    pub trace: bool,
    /// Populate the [`sprayer_obs::LatencyProbes`] histograms
    /// (sojourn, queue wait, redirect latency).
    pub latency: bool,
    /// Capacity of each per-core trace ring, in events. When a ring
    /// fills, further events on that core are counted and discarded —
    /// tracing never grows unbounded (the bound holds for the whole
    /// run, however many phases it has).
    pub trace_ring_capacity: usize,
    /// Periodically sample per-core delta counters into bounded
    /// [`sprayer_obs::TimeSeries`] buckets (retrievable as a
    /// [`sprayer_obs::SampleSet`]). Unlike `trace`/`latency` this is a
    /// *per-batch* facility: the threaded runtime reads the clock once
    /// per batch (not per packet) and the simulator uses simulated time,
    /// so its overhead is a small fraction of the tracing budget.
    pub sample: bool,
    /// Target sampling bucket width in microseconds (simulated time in
    /// the simulator, wall time in the threaded runtime). Buckets
    /// coarsen automatically — the interval doubles whenever a run
    /// outgrows `sample_capacity` buckets.
    pub sample_interval_us: u64,
    /// Maximum buckets per core before the series downsamples.
    pub sample_capacity: usize,
    /// Attribute busy time to pipeline stages (classify / redirect /
    /// nf / tx) per core, exported as the `profile_*` metric set via
    /// [`sprayer_obs::StageProfiler`]. Per-*batch* in the threaded
    /// runtime (a handful of clock reads per batch); exact in the
    /// simulator (the cycle model already knows each stage's cost).
    pub profile: bool,
    /// Emit typed [`sprayer_obs::HealthEvent`]s (queue high-water,
    /// worker death, watchdog fence, reconfig phases, …) onto a bounded
    /// MPSC [`sprayer_obs::HealthBus`]. Events are edge-triggered and
    /// rare; when the bus fills further events are counted and dropped.
    pub health: bool,
    /// Capacity of the health-event channel, in events.
    pub health_capacity: usize,
    /// Estimate per-flow reordering depth online with a bounded
    /// [`sprayer_obs::ReorderSketch`]. Per-packet (needs the flow hash
    /// at completion), so it joins [`ObsConfig::any`], like
    /// `trace`/`latency`; the threaded runtime feeds it in batch order
    /// as each NF batch completes.
    pub reorder: bool,
    /// Sketch window: per-flow count of recently completed ordinals
    /// kept for depth estimation. Depth estimates are exact while every
    /// inversion spans fewer than this many completions of the flow.
    pub reorder_window: usize,
    /// Maximum flows tracked by the sketch; completions of flows beyond
    /// the cap are counted as `untracked` rather than growing memory.
    pub reorder_max_flows: usize,
    /// Capture tail exemplars: completions whose sojourn exceeds the
    /// threshold record a per-stage span breakdown into a per-(stage,
    /// core) attribution table ([`sprayer_obs::TailTracker`], the
    /// `tail_*` metric set). Per-packet (needs timestamps along the
    /// whole path), so it joins [`ObsConfig::any`]. On the threaded
    /// runtime service start and completion are batch-grain (one clock
    /// read before and one after each NF call), because a batched
    /// packet cannot leave before its batch does.
    pub tail: bool,
    /// Fixed tail threshold in runtime-native ticks; `0` selects the
    /// rolling mode (threshold tracks the live sojourn p99, recomputed
    /// every [`sprayer_obs::TAIL_RECOMPUTE_EVERY`] completions).
    /// Offline cross-checks use a fixed threshold so the online and
    /// replayed exemplar sets agree exactly.
    pub tail_threshold_ticks: u64,
    /// Run the crash flight recorder: an always-on, fixed-memory
    /// keep-newest ring of recent events per core
    /// ([`sprayer_obs::FlightRing`]) that freezes on a critical
    /// health event and dumps a `sprayer-flight/1` snapshot. Per-batch
    /// (batch boundaries, redirects, drops, health events), so it stays
    /// on the threaded runtime's batch path like `sample`/`profile`.
    pub flight: bool,
    /// Capacity of each per-core flight ring, in events.
    pub flight_capacity: usize,
}

impl ObsConfig {
    /// Default per-core trace-ring capacity (64 Ki events ≈ 1.5 MiB/core
    /// at 24 B a sealed event; 3 MiB if no chunk packs).
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

    /// Default sampling bucket width (100 µs ≈ thousands of packets per
    /// bucket at the paper's rates — fine enough to see drop bursts,
    /// coarse enough that a 1 s run fits the default capacity without
    /// downsampling).
    pub const DEFAULT_SAMPLE_INTERVAL_US: u64 = 100;

    /// Default per-core bucket budget before downsampling (512 buckets
    /// ≈ 51 ms of history at the default interval; doubles coverage on
    /// each downsample).
    pub const DEFAULT_SAMPLE_CAPACITY: usize = 512;

    /// Default health-event channel capacity. Health events are
    /// edge-triggered (high-water crossings, deaths, reconfig phases),
    /// so 1 Ki events outlasts any plausible run.
    pub const DEFAULT_HEALTH_CAPACITY: usize = 1024;

    /// Default reorder-sketch window. Spraying displaces packets by at
    /// most a few batches' worth of completions in practice; 32 recent
    /// ordinals per flow keeps the estimate exact for inversions
    /// spanning < 32 completions at 256 B/flow.
    pub const DEFAULT_REORDER_WINDOW: usize = 32;

    /// Default reorder-sketch flow cap (4 Ki flows ≈ 1 MiB at the
    /// default window).
    pub const DEFAULT_REORDER_MAX_FLOWS: usize = 4096;

    /// Default per-core flight-ring capacity (1 Ki events × 32 B =
    /// 32 KiB/core — milliseconds of batch-grained history, bounded
    /// forever).
    pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

    /// Everything off — the default.
    pub fn disabled() -> Self {
        ObsConfig {
            trace: false,
            latency: false,
            trace_ring_capacity: Self::DEFAULT_RING_CAPACITY,
            sample: false,
            sample_interval_us: Self::DEFAULT_SAMPLE_INTERVAL_US,
            sample_capacity: Self::DEFAULT_SAMPLE_CAPACITY,
            profile: false,
            health: false,
            health_capacity: Self::DEFAULT_HEALTH_CAPACITY,
            reorder: false,
            reorder_window: Self::DEFAULT_REORDER_WINDOW,
            reorder_max_flows: Self::DEFAULT_REORDER_MAX_FLOWS,
            tail: false,
            tail_threshold_ticks: 0,
            flight: false,
            flight_capacity: Self::DEFAULT_FLIGHT_CAPACITY,
        }
    }

    /// Latency histograms only (no event ring).
    pub fn latency() -> Self {
        ObsConfig {
            latency: true,
            ..Self::disabled()
        }
    }

    /// Time-series sampling only, at the default interval.
    pub fn sampling() -> Self {
        ObsConfig {
            sample: true,
            ..Self::disabled()
        }
    }

    /// Time-series sampling with an explicit bucket width.
    pub fn sampling_with_interval(sample_interval_us: u64) -> Self {
        ObsConfig {
            sample_interval_us,
            ..Self::sampling()
        }
    }

    /// Full tracing + latency histograms at the default ring capacity.
    pub fn tracing() -> Self {
        ObsConfig {
            trace: true,
            latency: true,
            ..Self::disabled()
        }
    }

    /// Full tracing with an explicit per-core ring capacity.
    pub fn tracing_with_capacity(trace_ring_capacity: usize) -> Self {
        ObsConfig {
            trace_ring_capacity,
            ..Self::tracing()
        }
    }

    /// Stage profiling only (per-batch busy-time attribution).
    pub fn profiling() -> Self {
        ObsConfig {
            profile: true,
            ..Self::disabled()
        }
    }

    /// The full online health plane: sampling + stage profiling +
    /// health events + the streaming reorder sketch. This is the
    /// configuration `fig_health` and `sprayer-bench top --health` run with.
    pub fn health_plane() -> Self {
        ObsConfig {
            sample: true,
            profile: true,
            health: true,
            reorder: true,
            ..Self::disabled()
        }
    }

    /// Tail attribution with a rolling threshold (plus the latency
    /// histograms it builds on).
    pub fn tail_attribution() -> Self {
        ObsConfig {
            tail: true,
            latency: true,
            ..Self::disabled()
        }
    }

    /// Tail attribution with a fixed exemplar threshold in
    /// runtime-native ticks (what `fig_tail` runs with, so the offline
    /// trace replay reproduces the exact exemplar set).
    pub fn tail_with_threshold(tail_threshold_ticks: u64) -> Self {
        ObsConfig {
            tail_threshold_ticks,
            ..Self::tail_attribution()
        }
    }

    /// The flight recorder alone (always-on crash forensics).
    pub fn flight_recorder() -> Self {
        ObsConfig {
            flight: true,
            health: true,
            ..Self::disabled()
        }
    }

    /// True if a *per-packet* facility is enabled: ingress labels each
    /// descriptor (its flow hash, and the arrival time its burst of
    /// `batch_size` admissions shares — one clock read per burst) and
    /// the threaded worker walks every completed NF batch once more to
    /// feed the planes — on the same batch path it runs with everything
    /// off, with two more clock reads per batch. Sampling
    /// and stage profiling are deliberately excluded: they need only a
    /// few clock reads per batch, which the runtimes gate on
    /// [`ObsConfig::sample`] /
    /// [`ObsConfig::profile`] directly. Health events are rarer still
    /// (edge-triggered), and the flight recorder records at batch
    /// grain. The reorder sketch and tail attribution *are* per-packet —
    /// one needs the flow hash, the other timestamps, at every NF
    /// completion.
    pub fn any(&self) -> bool {
        self.trace || self.latency || self.reorder || self.tail
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

/// Default [`MiddleboxConfig::reconfig_fixed_cycles`]: 20 000 cycles
/// (10 µs at 2 GHz) — the order of an ethtool indirection-table write
/// plus a barrier across eight polling cores.
fn default_reconfig_fixed_cycles() -> u64 {
    20_000
}

/// Default [`MiddleboxConfig::migrate_flow_cycles`]: 400 cycles per
/// moved entry (hash, remove, hook calls, insert — a few cache misses).
fn default_migrate_flow_cycles() -> u64 {
    400
}

/// Default [`MiddleboxConfig::scr_publish_cycles`]: 50 cycles per
/// state-update enqueued to one peer's log ring — the same
/// cache-line-transfer cost as a descriptor ring enqueue.
fn default_scr_publish_cycles() -> u64 {
    50
}

/// Default [`MiddleboxConfig::scr_apply_cycles`]: 150 cycles per remote
/// state-update replayed into the local replica (log dequeue plus one
/// flow-table write — dequeue-miss-dominated, like a ring dequeue).
fn default_scr_apply_cycles() -> u64 {
    150
}

/// Per-core inbound state-update log capacity, in updates, in both
/// runtimes. Sized like the inter-core rings times the peer count so a
/// full batch from every peer fits. A full live log is backpressure,
/// not loss ([`crate::scr::Backoff`]).
pub const SCR_LOG_CAPACITY: usize = 8192;

/// Default [`MiddleboxConfig::lifecycle`]: disabled — tables behave
/// exactly as before the lifecycle layer existed (seed-compatible).
fn default_lifecycle() -> LifecycleConfig {
    LifecycleConfig::disabled()
}

/// Flow-state lifecycle knobs: idle-timeout aging and the
/// bounded-memory LRU backstop (see [`crate::tables`]).
///
/// Disabled by default: with `idle_timeout_us = None` and
/// `lru_backstop = false` the tables grow until the configured capacity
/// and reject further inserts ([`crate::api::InsertOutcome::TableFull`])
/// — the pre-lifecycle behavior, byte-identical telemetry included.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Evict entries not write-touched for this long (runtime-native
    /// microseconds: simulated µs in the simulator, wall µs in the
    /// threaded runtime). `None` disables idle aging.
    pub idle_timeout_us: Option<u64>,
    /// How often the runtime sweeps each core's table for idle entries.
    pub sweep_interval_us: u64,
    /// At capacity, evict the approximate-LRU entry to admit the new
    /// flow instead of returning `TableFull`.
    pub lru_backstop: bool,
}

impl LifecycleConfig {
    /// Default sweep cadence: 1 ms — coarse enough to be invisible in
    /// the cycle budget, fine enough that idle reclaim lag stays a few
    /// sweep periods.
    pub const DEFAULT_SWEEP_INTERVAL_US: u64 = 1_000;

    /// Lifecycle off: unbounded-until-capacity tables, `TableFull` on
    /// overflow (the seed behavior).
    pub fn disabled() -> Self {
        LifecycleConfig {
            idle_timeout_us: None,
            sweep_interval_us: Self::DEFAULT_SWEEP_INTERVAL_US,
            lru_backstop: false,
        }
    }

    /// Bounded-memory production shape: idle aging at `idle_timeout_us`
    /// plus the LRU capacity backstop.
    pub fn bounded(idle_timeout_us: u64) -> Self {
        LifecycleConfig {
            idle_timeout_us: Some(idle_timeout_us),
            sweep_interval_us: Self::DEFAULT_SWEEP_INTERVAL_US,
            lru_backstop: true,
        }
    }

    /// True when any reclaim path is active (gates the lifecycle stats
    /// block and the runtime's sweep scheduling).
    pub fn enabled(&self) -> bool {
        self.idle_timeout_us.is_some() || self.lru_backstop
    }

    /// When the sweep after the one due at `due` is due, if that one
    /// runs at `now`: the first instant past `now` on the grid of whole
    /// sweep intervals from `due` (`due` itself while `now` is
    /// earlier). Instants are in ticks, `ticks_per_us` to the µs — each
    /// runtime's own clock.
    pub fn next_sweep(&self, due: u64, now: u64, ticks_per_us: u64) -> u64 {
        if now < due {
            return due;
        }
        let interval = self.sweep_interval_us.max(1) * ticks_per_us;
        due + ((now - due) / interval + 1) * interval
    }
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig::disabled()
    }
}

/// Parameters of the simulated middlebox server.
///
/// Defaults reproduce the paper's testbed (§5): 8 worker cores on a
/// 2.0 GHz Xeon E5-2650, one Intel 82599ES 10 GbE NIC, DPDK-style
/// polling with batching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MiddleboxConfig {
    /// Worker cores ("The NF uses 8 cores in all experiments").
    pub num_cores: usize,
    /// Core clock (2.0 GHz).
    pub clock: ClockFreq,
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// Framework cycles per packet: rx descriptor handling, parse,
    /// classification, tx — everything except the NF body. ~120 cycles
    /// lets one 2 GHz core forward ≈16.7 Mpps, consistent with DPDK l2fwd
    /// on this hardware class (so the 0-cycle RSS point in Fig. 6a sits
    /// at line rate, as measured).
    pub overhead_cycles: u64,
    /// Busy-loop cycles in the NF body (the paper sweeps 0..=10000).
    pub nf_cycles: u64,
    /// Cost, on the *receiving* core, of taking a connection-packet
    /// descriptor from another core (cache-miss-dominated ring dequeue).
    pub ring_dequeue_cycles: u64,
    /// Cost, on the *sending* core, of pushing a descriptor to a foreign
    /// ring.
    pub ring_enqueue_cycles: u64,
    /// Per-core receive-queue capacity in packets (rx descriptor ring).
    pub queue_capacity: usize,
    /// Inter-core ring capacity in descriptors.
    pub ring_capacity: usize,
    /// Flow Director packet-rate ceiling (82599 erratum the paper hit:
    /// ~10 Mpps). Only applies in [`DispatchMode::Sprayer`].
    pub fdir_cap_pps: Option<f64>,
    /// Spray each flow over only `k` cores (§7 programmable-NIC subset
    /// spraying; implies no Flow Director cap). `None` = all cores.
    pub spray_subset_k: Option<usize>,
    /// Fixed cycle cost of one elastic reconfiguration (quiesce the
    /// cores, reprogram the NIC, swap the core map) regardless of table
    /// size. Charged as downtime by the simulator's
    /// [`crate::runtime_sim::MiddleboxSim::reconfigure`].
    #[serde(default = "default_reconfig_fixed_cycles")]
    pub reconfig_fixed_cycles: u64,
    /// Per-migrated-flow cycle cost (export + import of one table
    /// entry, including the NF freeze/adopt hooks). Multiplied by the
    /// number of flows whose designated core changes.
    #[serde(default = "default_migrate_flow_cycles")]
    pub migrate_flow_cycles: u64,
    /// Cycles charged per state-update published to one peer's log ring
    /// ([`DispatchMode::Scr`] only).
    #[serde(default = "default_scr_publish_cycles")]
    pub scr_publish_cycles: u64,
    /// Cycles charged per remote state-update replayed into the local
    /// replica ([`DispatchMode::Scr`] only).
    #[serde(default = "default_scr_apply_cycles")]
    pub scr_apply_cycles: u64,
    /// Link speed of the NIC ports.
    pub link: LinkSpeed,
    /// Observability switches (tracing, latency histograms). Off by
    /// default; zero-cost when off.
    pub obs: ObsConfig,
    /// Flow-state lifecycle: idle-timeout aging and the bounded-memory
    /// LRU backstop. Disabled by default (seed behavior).
    #[serde(default = "default_lifecycle")]
    pub lifecycle: LifecycleConfig,
}

impl MiddleboxConfig {
    /// The paper's testbed configuration with a 0-cycle NF body.
    pub fn paper_testbed(mode: DispatchMode) -> Self {
        MiddleboxConfig {
            num_cores: 8,
            clock: ClockFreq::PAPER_2GHZ,
            mode,
            overhead_cycles: 120,
            nf_cycles: 0,
            ring_dequeue_cycles: 150,
            ring_enqueue_cycles: 50,
            queue_capacity: 512,
            ring_capacity: 1024,
            fdir_cap_pps: match mode {
                DispatchMode::Sprayer => Some(10.0e6),
                // SCR sprays every packet, so it needs no Flow Director
                // perfect filters at all — the 82599 erratum never binds.
                DispatchMode::Rss | DispatchMode::Scr => None,
            },
            spray_subset_k: None,
            reconfig_fixed_cycles: default_reconfig_fixed_cycles(),
            migrate_flow_cycles: default_migrate_flow_cycles(),
            scr_publish_cycles: default_scr_publish_cycles(),
            scr_apply_cycles: default_scr_apply_cycles(),
            link: LinkSpeed::TEN_GBE,
            obs: ObsConfig::disabled(),
            lifecycle: default_lifecycle(),
        }
    }

    /// Same testbed with an NF that busy-loops for `nf_cycles`.
    pub fn paper_testbed_with_cycles(mode: DispatchMode, nf_cycles: u64) -> Self {
        MiddleboxConfig {
            nf_cycles,
            ..Self::paper_testbed(mode)
        }
    }

    /// Total service cycles for a payload-carrying packet processed where
    /// it arrived.
    pub fn local_service_cycles(&self) -> u64 {
        self.overhead_cycles + self.nf_cycles
    }

    /// Service cycles for a specific packet.
    ///
    /// The NF busy loop emulates *work on the packet's contents* (the
    /// paper's NF "retrieves the flow state, modifies the header, and
    /// busy loops"); payload-less segments (pure ACKs, bare SYN/FIN)
    /// cost only the framework overhead. This matches the paper's
    /// numbers: at 10 000 cycles/packet Fig. 6(b) reports ≈2.5 Gbps for
    /// RSS — exactly one core's worth of *data* packets, which is only
    /// achievable if the returning ACK stream is not also charged
    /// 10 000 cycles each.
    pub fn service_cycles_for(&self, pkt: &sprayer_net::Packet) -> u64 {
        let has_payload = pkt.payload().is_some_and(|p| !p.is_empty());
        if has_payload {
            self.local_service_cycles()
        } else {
            self.overhead_cycles
        }
    }

    /// Single-core processing rate in packets/second for this NF cost —
    /// the capacity of the RSS baseline with one flow.
    pub fn single_core_pps(&self) -> f64 {
        self.clock.hz() as f64 / self.local_service_cycles() as f64
    }

    /// Aggregate processing rate with all cores busy.
    pub fn all_cores_pps(&self) -> f64 {
        self.single_core_pps() * self.num_cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section_5() {
        let c = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.clock, ClockFreq::PAPER_2GHZ);
        assert_eq!(c.fdir_cap_pps, Some(10.0e6));
        let r = MiddleboxConfig::paper_testbed(DispatchMode::Rss);
        assert_eq!(
            r.fdir_cap_pps, None,
            "the Flow Director cap only binds when spraying"
        );
        let s = MiddleboxConfig::paper_testbed(DispatchMode::Scr);
        assert_eq!(
            s.fdir_cap_pps, None,
            "SCR sprays without perfect filters, so no 82599 cap"
        );
    }

    #[test]
    fn dispatch_mode_display_parse_round_trips() {
        for mode in DispatchMode::ALL {
            let shown = mode.to_string();
            let parsed: DispatchMode = shown.parse().expect("Display output must parse");
            assert_eq!(parsed, mode, "{shown} must round-trip");
            // The lowercase CLI spellings parse too.
            let lower: DispatchMode = shown.to_ascii_lowercase().parse().unwrap();
            assert_eq!(lower, mode);
        }
        assert_eq!("rss".parse::<DispatchMode>(), Ok(DispatchMode::Rss));
        assert_eq!("sprayer".parse::<DispatchMode>(), Ok(DispatchMode::Sprayer));
        assert_eq!("scr".parse::<DispatchMode>(), Ok(DispatchMode::Scr));
        let err = "tonic".parse::<DispatchMode>().unwrap_err();
        assert!(err.to_string().contains("tonic"));
    }

    #[test]
    fn single_core_rate_at_10k_cycles_is_about_200kpps() {
        let c = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Rss, 10_000);
        let pps = c.single_core_pps();
        assert!((pps - 2.0e9 / 10_120.0).abs() < 1.0);
        assert!(pps > 195_000.0 && pps < 200_000.0);
    }

    #[test]
    fn only_per_packet_facilities_ask_for_per_packet_stamps() {
        assert!(!ObsConfig::disabled().any());
        assert!(!ObsConfig::profiling().any());
        let mut h = ObsConfig::health_plane();
        assert!(h.any(), "the reorder sketch needs per-packet flow hashes");
        h.reorder = false;
        assert!(
            !h.any(),
            "sampling/profiling/health alone record at batch grain"
        );
        assert!(
            ObsConfig::tail_attribution().any(),
            "tail attribution needs per-packet timestamps"
        );
        assert!(
            !ObsConfig::flight_recorder().any(),
            "the flight recorder is batch-grained"
        );
    }

    #[test]
    fn zero_cycle_core_exceeds_line_rate() {
        // At 0 NF cycles a single core forwards faster than 14.88 Mpps,
        // matching the paper's observation that RSS achieves line rate
        // with a trivial NF.
        let c = MiddleboxConfig::paper_testbed(DispatchMode::Rss);
        assert!(c.single_core_pps() > 14.88e6);
    }

    #[test]
    fn the_next_sweep_is_the_stepping_loop_in_one_step() {
        // What both runtimes computed before: step from the due instant
        // by whole intervals until past `now`.
        let stepped = |due: u64, now: u64, interval: u64| {
            let mut next = due;
            while next <= now {
                next += interval;
            }
            next
        };
        for interval_us in [0, 1, 3, 1_000] {
            let lifecycle = LifecycleConfig {
                sweep_interval_us: interval_us,
                ..LifecycleConfig::bounded(50)
            };
            for ticks_per_us in [1, 7, 1_000_000] {
                let interval = interval_us.max(1) * ticks_per_us;
                for due in [0, 1, 5, interval, 3 * interval + 2] {
                    // Every grid point, one tick either side, and a
                    // stretch of small instants.
                    let grid = (0..4).flat_map(|k| {
                        let at = due + k * interval;
                        [at.saturating_sub(1), at, at + 1]
                    });
                    for now in grid.chain(0..40) {
                        assert_eq!(
                            lifecycle.next_sweep(due, now, ticks_per_us),
                            stepped(due, now, interval),
                            "interval {interval_us} µs x {ticks_per_us}, due {due}, now {now}"
                        );
                    }
                }
            }
        }
    }
}
