//! The chaos controller: a fault plan applied to a live dataplane.
//!
//! [`ChaosController`] mirrors [`crate::ElasticController`], but the
//! schedule it executes is a [`FaultPlan`]. Before each admitted packet
//! it fires every due fault — crashes via
//! [`MiddleboxSim::inject_core_failure`], stalls via
//! [`MiddleboxSim::stall_core`], adversarial bursts via the raw-frame
//! and packet ingress paths — and, crucially, it *schedules the
//! recovery*: a crash at `t` is recovered at
//! `t + detect_deadline` through [`MiddleboxSim::recover`], modelling a
//! watchdog that needs that long to notice. Packets the NIC steers at
//! the corpse in the window are honestly lost; the
//! [`sprayer::RecoveryReport`] series the runs produce is the
//! experiment's raw data.

use crate::fault::{AdversarialProfile, FaultEvent, FaultKind, FaultPlan, FaultPlanError};
use crate::plan::Trigger;
use sprayer::api::NetworkFunction;
use sprayer::config::MiddleboxConfig;
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::RecoveryReport;
use sprayer_net::Packet;
use sprayer_obs::{flight, HealthEvent};
use sprayer_sim::Time;
use sprayer_trafficgen::Adversary;
use std::path::{Path, PathBuf};

/// Drives a [`MiddleboxSim`] through a [`FaultPlan`].
pub struct ChaosController<NF: NetworkFunction> {
    mb: MiddleboxSim<NF>,
    events: Vec<FaultEvent>,
    next_event: usize,
    detect_deadline: Time,
    /// Crashed cores awaiting their watchdog deadline: `(due, core)`.
    pending_recoveries: Vec<(Time, usize)>,
    adversary: Adversary,
    offered: u64,
    injected: u64,
    /// Where to dump a latched flight recorder at [`Self::finish`].
    flight_dump: Option<PathBuf>,
    flight_dumped: Option<PathBuf>,
}

impl<NF: NetworkFunction> ChaosController<NF> {
    /// Build an elastic middlebox for `config`/`nf` and arm `plan`.
    /// The plan is validated first; a rejected plan never touches the
    /// dataplane. `seed` makes the adversarial traffic reproducible.
    pub fn new(
        config: MiddleboxConfig,
        nf: NF,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, FaultPlanError> {
        plan.validate()?;
        Ok(ChaosController {
            mb: MiddleboxSim::new_elastic(config, nf),
            events: plan.events,
            next_event: 0,
            detect_deadline: plan.detect_deadline,
            pending_recoveries: Vec::new(),
            adversary: Adversary::new(seed),
            offered: 0,
            injected: 0,
            flight_dump: None,
            flight_dumped: None,
        })
    }

    /// Arm the alert→dump hook: if the dataplane's flight recorder is
    /// frozen by the end of [`Self::finish`] (a critical health event —
    /// worker death, watchdog fence, drop storm — latched it), the
    /// snapshot is written to `path` as a `sprayer-flight/1` dump for
    /// the `blackbox` post-mortem analyzer. Requires
    /// `ObsConfig::flight` on the middlebox config; a healthy run
    /// writes nothing.
    pub fn dump_flight_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// The dump written by the alert→dump hook, if a freeze happened.
    pub fn flight_dumped(&self) -> Option<&Path> {
        self.flight_dumped.as_deref()
    }

    /// Fire every fault and recovery due at `at` (in schedule order),
    /// then admit `pkt`.
    pub fn offer(&mut self, at: Time, pkt: Packet) {
        self.fire_due(at);
        self.mb.ingress(at, pkt);
        self.offered += 1;
    }

    /// Fire any remaining time-triggered faults and due recoveries up
    /// to `until`, then run the dataplane until it drains. A crash
    /// whose detection deadline lands past `until` is still recovered —
    /// a run never ends with a corpse undetected.
    pub fn finish(&mut self, until: Time) {
        self.fire_due(until);
        self.fire_recoveries(until);
        // Late deadlines: detection always completes before teardown.
        while let Some((due, core)) = self.pop_due_recovery(Time::from_ps(u64::MAX)) {
            let when = due.max(self.mb.now());
            self.mb.recover(when, core);
        }
        self.mb.run_until(until);
        // Alert→dump hook: a critical health event froze the recorder
        // mid-run; persist the evidence before anything tears down.
        if let (Some(path), Some(snap)) = (&self.flight_dump, self.mb.flight_snapshot()) {
            if snap.frozen.is_some() {
                match flight::save(&snap, path) {
                    Ok(()) => self.flight_dumped = Some(path.clone()),
                    Err(e) => eprintln!("flight dump to {} failed: {e}", path.display()),
                }
            }
        }
    }

    fn fire_due(&mut self, at: Time) {
        self.fire_recoveries(at);
        while let Some(ev) = self.events.get(self.next_event).copied() {
            let due = match ev.trigger {
                Trigger::AtPacket(n) => self.offered >= n,
                Trigger::AtTime(t) => at >= t,
            };
            if !due {
                break;
            }
            // Clamp to the dataplane clock, as the elastic controller
            // does: a fault due while the simulator has advanced past
            // its nominal instant fires "now".
            let when = match ev.trigger {
                Trigger::AtPacket(_) => at,
                Trigger::AtTime(t) => t,
            }
            .max(self.mb.now());
            // The control plane announces each injection on the health
            // bus (when armed) before the dataplane feels it, exactly
            // like a chaos harness logging what it is about to do.
            match ev.kind {
                FaultKind::CrashCore { core } => {
                    self.mb.emit_health(HealthEvent::FaultInjected {
                        kind: "crash",
                        core,
                    });
                    self.mb.inject_core_failure(when, core);
                    self.pending_recoveries
                        .push((when + self.detect_deadline, core));
                }
                FaultKind::StallCore { core, duration } => {
                    self.mb.emit_health(HealthEvent::FaultInjected {
                        kind: "stall",
                        core,
                    });
                    self.mb.stall_core(when, core, duration);
                }
                FaultKind::Adversarial { profile, count } => {
                    self.mb.emit_health(HealthEvent::FaultInjected {
                        kind: "adversarial",
                        core: usize::MAX,
                    });
                    self.inject_burst(when, profile, count);
                }
            }
            self.next_event += 1;
            self.fire_recoveries(at);
        }
    }

    /// Run every recovery whose watchdog deadline is at or before `at`.
    fn fire_recoveries(&mut self, at: Time) {
        while let Some((due, core)) = self.pop_due_recovery(at) {
            let when = due.max(self.mb.now());
            self.mb.recover(when, core);
        }
    }

    fn pop_due_recovery(&mut self, at: Time) -> Option<(Time, usize)> {
        let idx = self
            .pending_recoveries
            .iter()
            .enumerate()
            .filter(|(_, (due, _))| *due <= at)
            .min_by_key(|(_, (due, _))| *due)
            .map(|(i, _)| i)?;
        Some(self.pending_recoveries.swap_remove(idx))
    }

    /// Inject `count` adversarial frames/packets back-to-back at wire
    /// pace (one 64-byte slot ≈ 67 ns on 10 GbE) starting at `when`.
    fn inject_burst(&mut self, when: Time, profile: AdversarialProfile, count: u32) {
        for i in 0..u64::from(count) {
            let at = when + Time::from_ns(i * 67);
            match profile {
                AdversarialProfile::TruncatedFrames => {
                    let frame = self.adversary.truncated_frame();
                    self.mb.ingress_frame(at, frame);
                }
                AdversarialProfile::GarbageHeaders => {
                    let frame = self.adversary.garbage_frame();
                    self.mb.ingress_frame(at, frame);
                }
                AdversarialProfile::LowEntropyChecksum { target } => {
                    let pkt = self.adversary.crafted_burst(target, 1).pop().expect("one");
                    self.mb.ingress(at, pkt);
                }
            }
            self.injected += 1;
        }
    }

    /// Recovery reports of every crash detected so far, in firing order.
    pub fn recoveries(&self) -> &[RecoveryReport] {
        self.mb.recoveries()
    }

    /// Plan events not yet fired.
    pub fn pending_events(&self) -> &[FaultEvent] {
        &self.events[self.next_event..]
    }

    /// Foreground packets offered through the controller (adversarial
    /// injections are counted separately in
    /// [`ChaosController::injected`] and do not advance packet
    /// triggers).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Adversarial frames/packets injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The driven middlebox.
    pub fn middlebox(&self) -> &MiddleboxSim<NF> {
        &self.mb
    }

    /// The driven middlebox, mutably.
    pub fn middlebox_mut(&mut self) -> &mut MiddleboxSim<NF> {
        &mut self.mb
    }

    /// Tear down, keeping the middlebox (reports stay on it).
    pub fn into_middlebox(self) -> MiddleboxSim<NF> {
        self.mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer::config::DispatchMode;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_nf::firewall::{AclRule, Action, FirewallNf};

    fn allow_all_firewall() -> FirewallNf {
        FirewallNf::new(vec![AclRule::default_action(Action::Allow)])
    }

    fn config(mode: DispatchMode, cores: usize) -> MiddleboxConfig {
        let mut c = MiddleboxConfig::paper_testbed(mode);
        c.num_cores = cores;
        c
    }

    /// `flows` SYNs, then `rounds` data packets per flow, 1 µs apart.
    fn drive(ctl: &mut ChaosController<FirewallNf>, flows: u32, rounds: u32) {
        let mut at = ctl.middlebox().now();
        for f in 0..flows {
            let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 443);
            at += Time::from_us(1);
            ctl.offer(at, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        }
        for i in 0..rounds {
            for f in 0..flows {
                let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 443);
                at += Time::from_us(1);
                let payload = sprayer_net::flow::splitmix64(u64::from(i * 131 + f)).to_be_bytes();
                ctl.offer(
                    at,
                    PacketBuilder::new().tcp(t, i + 1, 0, TcpFlags::ACK, &payload),
                );
            }
        }
    }

    #[test]
    fn invalid_plans_never_build_a_controller() {
        let plan = FaultPlan::new().detect_within(Time::ZERO);
        let err = ChaosController::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            1,
        )
        .err();
        assert_eq!(err, Some(FaultPlanError::ZeroDeadline));
    }

    #[test]
    fn crash_is_recovered_after_the_detection_deadline() {
        let plan = FaultPlan::new()
            .crash_at_packet(40, 1)
            .detect_within(Time::from_us(20));
        let mut ctl = ChaosController::new(
            config(DispatchMode::Sprayer, 4),
            allow_all_firewall(),
            plan,
            2,
        )
        .unwrap();
        drive(&mut ctl, 32, 8);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        assert_eq!(ctl.recoveries().len(), 1);
        let r = ctl.recoveries()[0];
        assert_eq!(r.failed_core, 1);
        assert_eq!((r.from_active, r.to_active), (4, 3));
        assert_eq!(
            r.migrated_flows, 0,
            "Sprayer recovery touches only the dead core's flows: {r:?}"
        );
        assert!(
            r.detection_latency_ns >= 20_000,
            "recovery cannot precede the deadline: {r:?}"
        );
        assert!(ctl.pending_events().is_empty());
        let stats = ctl.middlebox().stats();
        assert!(stats.lost_packets > 0, "a crash loses in-flight packets");
        assert_eq!(
            stats.unaccounted(),
            0,
            "losses must be accounted: {stats:?}"
        );
    }

    #[test]
    fn rss_recovery_migrates_survivors() {
        let plan = FaultPlan::new()
            .crash_at_packet(80, 2)
            .detect_within(Time::from_us(20));
        let mut ctl =
            ChaosController::new(config(DispatchMode::Rss, 4), allow_all_firewall(), plan, 3)
                .unwrap();
        drive(&mut ctl, 64, 6);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        assert_eq!(ctl.recoveries().len(), 1);
        let r = ctl.recoveries()[0];
        assert!(
            r.migrated_flows > 0,
            "RSS rebuilds the indirection table broadly: {r:?}"
        );
        assert_eq!(ctl.middlebox().stats().unaccounted(), 0);
    }

    #[test]
    fn late_crashes_are_still_detected_at_finish() {
        // The crash fires on the last offered packet; its deadline lands
        // beyond the horizon, but finish() must still recover it.
        let plan = FaultPlan::new()
            .crash_at_packet(96, 0)
            .detect_within(Time::from_ms(50));
        let mut ctl = ChaosController::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            4,
        )
        .unwrap();
        drive(&mut ctl, 32, 2);
        ctl.finish(ctl.middlebox().now() + Time::from_us(10));
        assert_eq!(ctl.recoveries().len(), 1);
        assert_eq!(ctl.middlebox().stats().unaccounted(), 0);
    }

    #[test]
    fn malformed_bursts_land_in_malformed_drops() {
        let plan = FaultPlan::new()
            .adversarial_at_packet(16, AdversarialProfile::TruncatedFrames, 24)
            .adversarial_at_packet(32, AdversarialProfile::GarbageHeaders, 24);
        let mut ctl = ChaosController::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            5,
        )
        .unwrap();
        drive(&mut ctl, 16, 4);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        assert_eq!(ctl.injected(), 48);
        let stats = ctl.middlebox().stats();
        assert_eq!(stats.malformed_drops, 48, "every bad frame accounted");
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(stats.nf_drops, 0, "well-formed traffic is unharmed");
    }

    #[test]
    fn injections_are_announced_on_the_health_bus() {
        use sprayer::config::ObsConfig;
        let mut cfg = config(DispatchMode::Sprayer, 4);
        cfg.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let plan = FaultPlan::new()
            .crash_at_packet(40, 1)
            .adversarial_at_packet(60, AdversarialProfile::TruncatedFrames, 8)
            .detect_within(Time::from_us(20));
        let mut ctl = ChaosController::new(cfg, allow_all_firewall(), plan, 7).unwrap();
        drive(&mut ctl, 32, 4);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        let health = ctl
            .middlebox_mut()
            .take_obs()
            .health
            .expect("health bus armed via ObsConfig");
        let counts = health.counts();
        assert_eq!(counts.get("fault_injected"), Some(&2), "{counts:?}");
        assert_eq!(
            counts.get("worker_death"),
            Some(&1),
            "the crash itself is also reported: {counts:?}"
        );
        assert!(
            counts.get("reconfig_phase").copied().unwrap_or(0) >= 1,
            "the watchdog recovery runs a reconfiguration: {counts:?}"
        );
        let mut last = 0;
        for rec in &health.records {
            assert!(rec.ts >= last, "health timestamps are monotone");
            last = rec.ts;
        }
    }

    #[test]
    fn crash_triggers_the_flight_dump_and_healthy_runs_do_not() {
        use sprayer::config::ObsConfig;
        let dir = std::env::temp_dir().join(format!("sprayer-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let crash_path = dir.join("crash.txt");
        let healthy_path = dir.join("healthy.txt");

        let mut cfg = config(DispatchMode::Sprayer, 4);
        cfg.obs = ObsConfig::flight_recorder();
        let plan = FaultPlan::new()
            .crash_at_packet(40, 1)
            .detect_within(Time::from_us(20));
        let mut ctl = ChaosController::new(cfg.clone(), allow_all_firewall(), plan, 2)
            .unwrap()
            .dump_flight_to(&crash_path);
        drive(&mut ctl, 32, 8);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));
        assert_eq!(ctl.flight_dumped(), Some(crash_path.as_path()));
        let snap = flight::load(&crash_path).expect("the dump parses back");
        let freeze = snap.frozen.expect("the crash latched the recorder");
        assert_eq!(freeze.kind, "worker_death");
        assert_eq!(freeze.core, 1);
        assert!(snap.recorded > 0);

        // No fault, no freeze, no file.
        let mut ctl = ChaosController::new(cfg, allow_all_firewall(), FaultPlan::new(), 2)
            .unwrap()
            .dump_flight_to(&healthy_path);
        drive(&mut ctl, 32, 8);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));
        assert_eq!(ctl.flight_dumped(), None);
        assert!(!healthy_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn low_entropy_checksums_are_valid_traffic() {
        // Crafted packets are *valid*: they must be processed (and, with
        // no SYN, dropped by the firewall's flow check as unknown-flow
        // NF drops or forwarded, depending on NF policy) — never counted
        // malformed.
        let plan = FaultPlan::new().adversarial_at_packet(
            16,
            AdversarialProfile::LowEntropyChecksum { target: 0x00ff },
            64,
        );
        let mut ctl = ChaosController::new(
            config(DispatchMode::Sprayer, 4),
            allow_all_firewall(),
            plan,
            6,
        )
        .unwrap();
        drive(&mut ctl, 16, 4);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        let stats = ctl.middlebox().stats();
        assert_eq!(stats.malformed_drops, 0);
        assert_eq!(stats.offered, 16 + 16 * 4 + 64);
        assert_eq!(stats.unaccounted(), 0);
    }
}
