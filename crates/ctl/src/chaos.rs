//! Fault runs through the [`crate::Controller`]: crashes recovered at
//! their watchdog deadline, stalls, adversarial bursts, the health bus
//! and the flight dump.

#[cfg(test)]
mod tests {
    use crate::controller::tests::{after_packet, allow_all_firewall, config, drive, empty_plan};
    use crate::plan::{Action, AdversarialProfile, PlanError};
    use crate::Controller;
    use sprayer::config::{DispatchMode, ObsConfig};
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_obs::{flight, HealthEvent};
    use sprayer_sim::Time;

    #[test]
    fn invalid_plans_never_build_a_controller() {
        let plan = empty_plan().detect_within(Time::ZERO);
        let err = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            1,
        )
        .err();
        assert_eq!(err, Some(PlanError::ZeroDeadline));
    }

    #[test]
    fn crash_is_recovered_after_the_detection_deadline() {
        let plan = empty_plan()
            .at(after_packet(40), Action::Crash(1))
            .detect_within(Time::from_us(20));
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 4),
            allow_all_firewall(),
            plan,
            2,
        )
        .unwrap();
        drive(&mut ctl, 32, 8);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        let recoveries = ctl.middlebox().recoveries();
        assert_eq!(recoveries.len(), 1);
        let r = recoveries[0];
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
        let plan = empty_plan()
            .at(after_packet(80), Action::Crash(2))
            .detect_within(Time::from_us(20));
        let mut ctl =
            Controller::new(config(DispatchMode::Rss, 4), allow_all_firewall(), plan, 3).unwrap();
        drive(&mut ctl, 64, 6);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(2));

        let recoveries = ctl.middlebox().recoveries();
        assert_eq!(recoveries.len(), 1);
        assert!(
            recoveries[0].migrated_flows > 0,
            "RSS rebuilds the indirection table broadly: {:?}",
            recoveries[0]
        );
        assert_eq!(ctl.middlebox().stats().unaccounted(), 0);
    }

    #[test]
    fn late_crashes_are_still_detected_at_finish() {
        // The crash fires after the last offered packet; its deadline
        // lands beyond the horizon, but finish() must still recover it.
        let plan = empty_plan()
            .at(after_packet(96), Action::Crash(0))
            .detect_within(Time::from_ms(50));
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            4,
        )
        .unwrap();
        drive(&mut ctl, 32, 2);
        ctl.finish(ctl.middlebox().now() + Time::from_us(10));
        assert_eq!(ctl.middlebox().recoveries().len(), 1);
        assert_eq!(ctl.middlebox().stats().unaccounted(), 0);
    }

    #[test]
    fn malformed_bursts_land_in_malformed_drops() {
        let plan = empty_plan()
            .at(
                after_packet(16),
                Action::Burst(AdversarialProfile::TruncatedFrames, 24),
            )
            .at(
                after_packet(32),
                Action::Burst(AdversarialProfile::GarbageHeaders, 24),
            );
        let mut ctl = Controller::new(
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
        let mut cfg = config(DispatchMode::Sprayer, 4);
        cfg.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let plan = empty_plan()
            .at(after_packet(40), Action::Crash(1))
            .at(
                after_packet(60),
                Action::Burst(AdversarialProfile::TruncatedFrames, 8),
            )
            .detect_within(Time::from_us(20));
        let mut ctl = Controller::new(cfg, allow_all_firewall(), plan, 7).unwrap();
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
    fn a_fault_due_before_a_pending_recovery_fires_first() {
        // One packet at 2 ms finds everything due at once: the crash at
        // 1 ms, the stall at 1.05 ms, and the crash's recovery at 1.1 ms.
        // Nominal-time order puts the stall between the two.
        let mut cfg = config(DispatchMode::Sprayer, 4);
        cfg.obs = ObsConfig {
            health: true,
            ..ObsConfig::disabled()
        };
        let plan = empty_plan()
            .at(Time::from_ms(1), Action::Crash(1))
            .at(Time::from_us(1_050), Action::Stall(2, Time::from_us(20)))
            .detect_within(Time::from_us(100));
        let mut ctl = Controller::new(cfg, allow_all_firewall(), plan, 8).unwrap();
        let t = FiveTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 443);
        ctl.offer(
            Time::from_ms(2),
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );

        let health = ctl.middlebox_mut().take_obs().health.expect("armed");
        let position = |wanted: fn(&HealthEvent) -> bool| {
            let found = health.records.iter().position(|r| wanted(&r.event));
            found.expect("the event was emitted")
        };
        let stall = position(|e| matches!(e, HealthEvent::FaultInjected { kind: "stall", .. }));
        let recovery = position(|e| {
            matches!(
                e,
                HealthEvent::ReconfigPhase {
                    phase: "recover",
                    ..
                }
            )
        });
        assert!(
            stall < recovery,
            "the 1.05 ms stall must be injected before the 1.1 ms recovery: {:?}",
            health.records
        );
    }

    #[test]
    fn crash_triggers_the_flight_dump_and_healthy_runs_do_not() {
        let dir = std::env::temp_dir().join(format!("sprayer-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let crash_path = dir.join("crash.txt");
        let healthy_path = dir.join("healthy.txt");

        let mut cfg = config(DispatchMode::Sprayer, 4);
        cfg.obs = ObsConfig::flight_recorder();
        let plan = empty_plan()
            .at(after_packet(40), Action::Crash(1))
            .detect_within(Time::from_us(20));
        let mut ctl = Controller::new(cfg.clone(), allow_all_firewall(), plan, 2)
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
        let mut ctl = Controller::new(cfg, allow_all_firewall(), empty_plan(), 2)
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
        let burst = Action::Burst(
            AdversarialProfile::LowEntropyChecksum { target: 0x00ff },
            64,
        );
        let plan = empty_plan().at(after_packet(16), burst);
        let mut ctl = Controller::new(
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
