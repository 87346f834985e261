//! Mid-run core failure under adversarial traffic (`fig_chaos`).
//!
//! An open-loop MoonGen trace is offered to an elastic middlebox driven
//! by a [`sprayer_ctl::Controller`]. A sixth of the way into the
//! measured window an attacker injects a burst of checksum-crafted
//! packets (every TCP checksum identical — the traffic that defeats
//! checksum-bit spraying), then bursts of truncated and garbage frames
//! that must die at the NIC as malformed drops. At one third of the
//! window a worker core crashes; the watchdog notices after the
//! configured detection deadline and recovery runs an *unplanned*
//! rescale over the survivors.
//!
//! The paper-shaped comparison: under Sprayer the rendezvous designated
//! set means recovery remaps **only the dead core's flows** — and since
//! their write-partitioned state lived only there, they are *lost*, not
//! migrated (`migrated_flows == 0`); RSS rebuilds its indirection table
//! over the survivors and must migrate remapped surviving flows too.
//! Same trace, same fault, strictly less movement under spraying.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::stats::MiddleboxStats;
use sprayer::RecoveryReport;
use sprayer_ctl::{Action, AdversarialProfile, Controller, Plan};
use sprayer_nf::SyntheticNf;
use sprayer_obs::{FlightSnapshot, SampleSet};
use sprayer_sim::Time;
use std::path::PathBuf;

/// Parameters of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Number of concurrent flows.
    pub num_flows: usize,
    /// Offered rate in packets/s. The default fits the surviving core
    /// count, so sustained drops come from the fault, not overload.
    pub offered_pps: f64,
    /// Core count before the failure.
    pub cores: usize,
    /// The core the fault kills (one third into the window).
    pub fail_core: usize,
    /// Watchdog detection deadline: recovery starts this long after the
    /// crash, and everything the NIC steered at the corpse in between
    /// is lost.
    pub detect_deadline: Time,
    /// Packets per adversarial burst.
    pub attack_burst: u32,
    /// The TCP checksum every crafted attack packet carries.
    pub attack_checksum: u16,
    /// Measurement window.
    pub duration: Time,
    /// RNG seed (flow endpoints and adversarial traffic).
    pub seed: u64,
    /// Observability switches (sampling shows the fairness collapse
    /// under attack and the throughput hole around the crash).
    pub obs: ObsConfig,
    /// When set (and `obs.flight` is on), the controller's alert→dump
    /// hook writes the frozen flight recorder here after the crash.
    pub flight_dump: Option<PathBuf>,
}

impl ChaosConfig {
    /// Paper-shaped defaults: 10k-cycle NF (200 kpps/core), 4 cores with
    /// core 1 failing, 500 kpps offered (fits 3 survivors), 100 µs
    /// detection deadline.
    pub fn paper(mode: DispatchMode, num_flows: usize, duration: Time, seed: u64) -> Self {
        ChaosConfig {
            mode,
            nf_cycles: 10_000,
            num_flows,
            offered_pps: 500_000.0,
            cores: 4,
            fail_core: 1,
            detect_deadline: Time::from_us(100),
            attack_burst: 512,
            attack_checksum: 0x00ff,
            duration,
            seed,
            obs: ObsConfig {
                flight: true,
                ..ObsConfig::sampling()
            },
            flight_dump: None,
        }
    }
}

/// Result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// One report per detected failure, in firing order.
    pub recoveries: Vec<RecoveryReport>,
    /// End-of-run telemetry block.
    pub stats: MiddleboxStats,
    /// Per-core time-series samples when sampling was enabled.
    pub samples: Option<SampleSet>,
    /// Offered foreground rate, packets/s.
    pub offered_pps: f64,
    /// Measured processing rate over the window, packets/s.
    pub processed_pps: f64,
    /// Adversarial frames/packets injected (malformed + crafted).
    pub injected: u64,
    /// Of those, frames that must be counted as malformed drops.
    pub injected_malformed: u64,
    /// The flight-recorder snapshot (frozen at the crash) when
    /// `obs.flight` was on.
    pub flight: Option<FlightSnapshot>,
    /// Where the alert→dump hook wrote the dump, if it fired.
    pub flight_dumped: Option<PathBuf>,
}

impl ChaosResult {
    /// Total flows migrated across every recovery.
    pub fn migrated_flows_total(&self) -> u64 {
        self.recoveries.iter().map(|r| r.migrated_flows).sum()
    }

    /// Total flows whose state died with the failed core.
    pub fn flows_lost_total(&self) -> u64 {
        self.recoveries.iter().map(|r| r.flows_lost).sum()
    }

    /// Total unplanned-transition downtime, ns.
    pub fn downtime_ns_total(&self) -> u64 {
        self.recoveries.iter().map(|r| r.downtime_ns).sum()
    }

    /// Worst watchdog detection latency, ns.
    pub fn detection_latency_ns_max(&self) -> u64 {
        self.recoveries
            .iter()
            .map(|r| r.detection_latency_ns)
            .max()
            .unwrap_or(0)
    }

    /// The fairness floor: the worst per-bucket Jain index over the run
    /// — the checksum-collapse burst and the dead core both dent it.
    pub fn jain_floor(&self) -> f64 {
        self.samples
            .as_ref()
            .map(|s| s.jain_timeline().into_iter().fold(1.0, f64::min))
            .unwrap_or(1.0)
    }
}

/// Run one mid-run-failure measurement.
pub fn run(cfg: &ChaosConfig) -> ChaosResult {
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.num_cores = cfg.cores;
    mb_config.obs = cfg.obs;

    // The fault schedule, at fractions of the measured window: attack
    // bursts at 1/6, 1/4 and 7/24, the crash at 1/3.
    let warmup_end = super::warmup_end(cfg.num_flows);
    let at = |num: u64, den: u64| warmup_end + Time::from_ps(cfg.duration.as_ps() * num / den);
    let half_burst = (cfg.attack_burst / 2).max(1);
    let collapse = AdversarialProfile::LowEntropyChecksum {
        target: cfg.attack_checksum,
    };
    let plan = Plan::new(warmup_end + cfg.duration)
        .detect_within(cfg.detect_deadline)
        .at(at(1, 6), Action::Burst(collapse, cfg.attack_burst))
        .at(
            at(1, 4),
            Action::Burst(AdversarialProfile::TruncatedFrames, half_burst),
        )
        .at(
            at(7, 24),
            Action::Burst(AdversarialProfile::GarbageHeaders, half_burst),
        )
        .at(at(1, 3), Action::Crash(cfg.fail_core));
    let mut ctl = Controller::new(mb_config, SyntheticNf::for_simulator(), plan, cfg.seed)
        .expect("static fault schedule is valid");
    if let Some(path) = &cfg.flight_dump {
        ctl = ctl.dump_flight_to(path.clone());
    }
    let processed_pps = super::drive_moongen(
        &mut ctl,
        cfg.num_flows,
        cfg.offered_pps,
        cfg.seed,
        cfg.duration,
    );

    let (injected, flight_dumped) = (ctl.injected(), ctl.flight_dumped().map(PathBuf::from));
    let mut mb = ctl.into_middlebox();
    let stats = mb.stats().clone();
    let obs = mb.take_obs();
    ChaosResult {
        recoveries: mb.recoveries().to_vec(),
        samples: obs.samples,
        offered_pps: cfg.offered_pps,
        processed_pps,
        stats,
        injected,
        injected_malformed: 2 * u64::from(half_burst),
        flight: obs.flight,
        flight_dumped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Matches the binary's `--quick` point.
    fn quick(mode: DispatchMode) -> ChaosConfig {
        ChaosConfig::paper(mode, 64, Time::from_ms(18), 1)
    }

    #[test]
    fn crash_is_detected_recovered_and_conserved() {
        for mode in [DispatchMode::Sprayer, DispatchMode::Rss] {
            let r = run(&quick(mode));
            assert_eq!(r.recoveries.len(), 1, "{mode}: one crash, one recovery");
            let rec = r.recoveries[0];
            assert_eq!(rec.failed_core, 1, "{mode}");
            assert_eq!((rec.from_active, rec.to_active), (4, 3), "{mode}");
            assert!(
                rec.detection_latency_ns >= 100_000,
                "{mode}: recovery cannot precede the 100 µs deadline: {rec:?}"
            );
            assert!(
                r.stats.lost_packets > 0,
                "{mode}: the detection window loses steered packets"
            );
            assert_eq!(
                r.stats.malformed_drops, r.injected_malformed,
                "{mode}: every malformed frame is accounted at the NIC"
            );
            assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
            assert!(r.processed_pps > 0.0, "{mode}");
        }
    }

    #[test]
    fn sprayer_recovery_moves_strictly_less_state_than_rss() {
        let spray = run(&quick(DispatchMode::Sprayer));
        let rss = run(&quick(DispatchMode::Rss));
        assert_eq!(
            spray.migrated_flows_total(),
            0,
            "rendezvous recovery touches only the dead core's flows, \
             and their state died with it"
        );
        assert!(
            rss.migrated_flows_total() > 0,
            "RSS's rebuilt indirection table must migrate survivors"
        );
        assert!(
            spray.flows_lost_total() > 0,
            "state on the dead core is gone"
        );
    }

    #[test]
    fn crash_dumps_a_flight_recording_the_analyzer_can_render() {
        let dir = std::env::temp_dir().join(format!("sprayer-chaos-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.txt");
        let cfg = ChaosConfig {
            flight_dump: Some(path.clone()),
            ..quick(DispatchMode::Sprayer)
        };
        let r = run(&cfg);

        // The in-memory snapshot froze at the crash…
        let snap = r.flight.expect("flight recorder was on");
        let freeze = snap.frozen.as_ref().expect("crash latches the recorder");
        assert_eq!((freeze.kind.as_str(), freeze.core), ("worker_death", 1));

        // …the alert→dump hook wrote it to disk…
        assert_eq!(r.flight_dumped.as_deref(), Some(path.as_path()));
        let loaded = sprayer_obs::flight::load(&path).expect("dump parses");
        assert_eq!(loaded, snap);

        // …and the post-mortem renderer tells the story.
        let report = crate::blackbox::render(&loaded, 5);
        assert!(report.contains("FROZEN: worker_death on core 1"));
        assert!(report.contains("<recorder latched here>"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_collapse_dents_the_fairness_floor() {
        let r = run(&quick(DispatchMode::Sprayer));
        assert!(
            r.jain_floor() < 0.9,
            "a single-checksum burst plus a dead core must dent per-bucket \
             fairness, got floor {}",
            r.jain_floor()
        );
    }
}
