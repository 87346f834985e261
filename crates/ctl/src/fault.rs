//! Validation of fault actions in a [`crate::Plan`]: crashes, stalls,
//! bursts and the detection deadline.

#[cfg(test)]
mod tests {
    use crate::controller::tests::{after_packet, allow_all_firewall, config, empty_plan};
    use crate::plan::{Action, AdversarialProfile, Plan, PlanError};
    use crate::Controller;
    use sprayer::config::DispatchMode;
    use sprayer_sim::Time;

    #[test]
    fn builder_preserves_order_and_validates() {
        let plan = empty_plan()
            .at(
                after_packet(100),
                Action::Burst(AdversarialProfile::TruncatedFrames, 32),
            )
            .at(after_packet(500), Action::Crash(1))
            .detect_within(Time::from_us(50));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.detect_deadline, Time::from_us(50));
        assert_eq!(plan.validate(8), Ok(()));
        assert_eq!(empty_plan().validate(8), Ok(()), "empty plan is fine");
    }

    #[test]
    fn degenerate_faults_are_rejected() {
        let burst = Action::Burst(AdversarialProfile::TruncatedFrames, 0);
        let plan = empty_plan().at(after_packet(10), burst);
        assert_eq!(plan.validate(8), Err(PlanError::EmptyBurst { index: 0 }));
        let plan = empty_plan().at(after_packet(10), Action::Stall(0, Time::ZERO));
        assert_eq!(plan.validate(8), Err(PlanError::ZeroStall { index: 0 }));
        let plan = empty_plan().detect_within(Time::ZERO);
        assert_eq!(plan.validate(8), Err(PlanError::ZeroDeadline));
    }

    #[test]
    fn backwards_triggers_are_rejected() {
        let plan = empty_plan()
            .at(after_packet(100), Action::Crash(1))
            .at(after_packet(50), Action::Crash(2));
        assert_eq!(plan.validate(8), Err(PlanError::OutOfOrder { index: 1 }));
    }

    /// Whether a controller over `cores` cores refuses `plan`, and why.
    fn refused(cores: usize, plan: Plan) -> Option<PlanError> {
        let config = config(DispatchMode::Sprayer, cores);
        Controller::new(config, allow_all_firewall(), plan, 1).err()
    }

    #[test]
    fn faults_past_the_width_in_force_are_rejected() {
        let plan = empty_plan().at(after_packet(10), Action::Crash(5));
        assert_eq!(
            refused(2, plan),
            Some(PlanError::CoreOutOfRange { index: 0 })
        );
        let plan = empty_plan().at(after_packet(10), Action::Stall(7, Time::from_us(5)));
        assert_eq!(
            refused(2, plan),
            Some(PlanError::CoreOutOfRange { index: 0 })
        );
        // A rescale sets the width in force.
        let plan = empty_plan()
            .at(after_packet(10), Action::Rescale(2))
            .at(Time::from_ms(1), Action::Crash(3));
        assert_eq!(
            refused(4, plan),
            Some(PlanError::CoreOutOfRange { index: 1 })
        );
        let widened = empty_plan()
            .at(after_packet(10), Action::Rescale(4))
            .at(Time::from_ms(1), Action::Crash(3));
        assert_eq!(widened.validate(2), Ok(()));
    }

    #[test]
    fn crashing_a_dead_core_is_rejected_until_a_rescale() {
        let twice = empty_plan()
            .at(after_packet(10), Action::Crash(1))
            .at(after_packet(12), Action::Crash(1));
        assert_eq!(
            refused(2, twice),
            Some(PlanError::CoreAlreadyDown { index: 1 })
        );
        // The recovery keeps the core down; a rescale brings it back.
        let revived = empty_plan()
            .at(after_packet(10), Action::Crash(1))
            .at(Time::from_ms(1), Action::Rescale(2))
            .at(Time::from_ms(2), Action::Crash(1));
        assert_eq!(revived.validate(2), Ok(()));
    }

    #[test]
    fn crashing_the_last_survivor_is_rejected() {
        let plan = empty_plan()
            .at(after_packet(10), Action::Crash(0))
            .at(after_packet(12), Action::Crash(1));
        assert_eq!(
            refused(2, plan.clone()),
            Some(PlanError::NoSurvivor { index: 1 })
        );
        assert_eq!(plan.validate(3), Ok(()), "core 2 survives on three");
    }

    #[test]
    fn errors_display_their_index() {
        assert!(PlanError::EmptyBurst { index: 3 }.to_string().contains('3'));
        assert!(PlanError::ZeroStall { index: 2 }.to_string().contains('2'));
        assert!(PlanError::OutOfOrder { index: 1 }.to_string().contains('1'));
        assert!(!PlanError::ZeroDeadline.to_string().is_empty());
        assert!(PlanError::CoreOutOfRange { index: 4 }
            .to_string()
            .contains('4'));
        assert!(PlanError::CoreAlreadyDown { index: 5 }
            .to_string()
            .contains('5'));
        assert!(PlanError::NoSurvivor { index: 6 }.to_string().contains('6'));
    }
}
