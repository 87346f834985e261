//! Composition in one [`crate::Plan`]: rescales, faults and bursts on
//! one clock — the window rules, and a long run that fires them all.

#[cfg(test)]
mod tests {
    use crate::controller::tests::{allow_all_firewall, config};
    use crate::plan::{Action, AdversarialProfile, Plan, PlanError};
    use crate::Controller;
    use sprayer::config::DispatchMode;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_sim::Time;

    fn timed_plan() -> Plan {
        Plan::new(Time::from_ms(10))
            .at(Time::from_ms(2), Action::Rescale(4))
            .at(Time::from_ms(4), Action::Crash(1))
            .at(
                Time::from_ms(5),
                Action::Burst(
                    AdversarialProfile::LowEntropyChecksum { target: 0x00ff },
                    32,
                ),
            )
            .at(Time::from_ms(6), Action::Rescale(2))
            .detect_within(Time::from_us(20))
    }

    #[test]
    fn disjoint_windows_validate() {
        assert_eq!(timed_plan().validate(), Ok(()));
        // An empty soak is valid: plain churn.
        assert_eq!(Plan::new(Time::from_ms(1)).validate(), Ok(()));
    }

    #[test]
    fn crash_inside_a_quiesce_window_is_rejected() {
        // The rescale at 2 ms owns [2 ms, 2 ms + RESCALE_WINDOW]; the
        // crash lands 10 µs into it.
        let plan = Plan::new(Time::from_ms(10))
            .at(Time::from_ms(2), Action::Rescale(4))
            .at(Time::from_ms(2) + Time::from_us(10), Action::Crash(1));
        assert_eq!(
            plan.validate(),
            Err(PlanError::FaultDuringRescale {
                fault: 1,
                rescale: 0
            })
        );
    }

    #[test]
    fn reconfig_inside_a_detection_window_is_rejected() {
        // Crash at 2 ms with a 100 µs watchdog owns [2 ms, 2.1 ms]; the
        // rescale lands 50 µs into it.
        let plan = Plan::new(Time::from_ms(10))
            .at(Time::from_ms(2), Action::Crash(1))
            .at(Time::from_ms(2) + Time::from_us(50), Action::Rescale(4))
            .detect_within(Time::from_us(100));
        assert_eq!(
            plan.validate(),
            Err(PlanError::RescaleDuringFault {
                rescale: 1,
                fault: 0
            })
        );
        // A stall's wedged window blocks rescales the same way.
        let plan = Plan::new(Time::from_ms(10))
            .at(Time::from_ms(3), Action::Stall(0, Time::from_us(400)))
            .at(Time::from_ms(3) + Time::from_us(100), Action::Rescale(4));
        assert_eq!(
            plan.validate(),
            Err(PlanError::RescaleDuringFault {
                rescale: 1,
                fault: 0
            })
        );
    }

    #[test]
    fn bursts_may_collide_with_anything() {
        // The burst fires *during* the rescale window — allowed: it is
        // traffic, and colliding it with a transition is the point.
        let plan = Plan::new(Time::from_ms(10))
            .at(Time::from_ms(2), Action::Rescale(4))
            .at(
                Time::from_ms(2) + Time::from_us(10),
                Action::Burst(AdversarialProfile::TruncatedFrames, 16),
            );
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn windows_must_close_before_the_horizon() {
        let plan = Plan::new(Time::from_ms(1))
            .at(Time::from_ms(1) - Time::from_us(5), Action::Crash(0))
            .detect_within(Time::from_us(100));
        assert!(matches!(
            plan.validate(),
            Err(PlanError::BeyondHorizon { .. })
        ));
    }

    #[test]
    fn composed_soak_fires_everything_and_stays_conservative() {
        let plan = timed_plan();
        let horizon = plan.horizon;
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            11,
        )
        .unwrap();
        // Churn for the whole horizon: 32 flows, a packet every 2 µs.
        let mut at = Time::ZERO;
        let mut i = 0u32;
        while at < horizon {
            let f = i % 32;
            let t = FiveTuple::tcp(0x0a00_0000 + f, 40_000, 0xc0a8_0001, 443);
            let pkt = if i < 32 {
                PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")
            } else {
                let payload = sprayer_net::flow::splitmix64(u64::from(i)).to_be_bytes();
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload)
            };
            ctl.offer(at, pkt);
            at += Time::from_us(2);
            i += 1;
        }
        ctl.finish(horizon + Time::from_ms(2));

        assert!(ctl.pending_events().is_empty(), "every event must fire");
        assert_eq!(ctl.middlebox().reconfigs().len(), 2);
        assert_eq!(ctl.middlebox().recoveries().len(), 1);
        assert_eq!(ctl.injected(), 32);
        let stats = ctl.middlebox().stats();
        assert!(stats.lost_packets > 0, "the crash loses in-flight packets");
        assert_eq!(stats.unaccounted(), 0, "{stats:?}");
    }

    #[test]
    fn sparse_traffic_fires_merged_events_in_nominal_order() {
        // Only two packets bracket the entire schedule: every event
        // comes due inside one fire_due call, and must still land
        // crash → recovery → rescale (nominal order).
        let plan = Plan::new(Time::from_ms(10))
            .at(Time::from_ms(2), Action::Crash(1))
            .at(Time::from_ms(5), Action::Rescale(4))
            .detect_within(Time::from_us(20));
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            13,
        )
        .unwrap();
        let t = FiveTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 443);
        ctl.offer(
            Time::from_us(1),
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );
        ctl.offer(
            Time::from_ms(9),
            PacketBuilder::new().tcp(t, 1, 0, TcpFlags::ACK, b"x"),
        );
        ctl.finish(Time::from_ms(12));

        let mb = ctl.middlebox();
        assert_eq!(mb.recoveries().len(), 1);
        assert_eq!(mb.reconfigs().len(), 1);
        let recovery_epoch = mb.recoveries()[0].epoch;
        let reconfig_epoch = mb.reconfigs()[0].epoch;
        assert!(
            recovery_epoch < reconfig_epoch,
            "the 2 ms crash (+20 µs recovery) must precede the 5 ms rescale: \
             recovery epoch {recovery_epoch}, reconfig epoch {reconfig_epoch}"
        );
        assert_eq!(mb.stats().unaccounted(), 0);
    }
}
