//! Validation of fault actions in a [`crate::Plan`]: crashes, stalls,
//! bursts and the detection deadline.

#[cfg(test)]
mod tests {
    use crate::controller::tests::{after_packet, empty_plan};
    use crate::plan::{Action, AdversarialProfile, PlanError};
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
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(empty_plan().validate(), Ok(()), "empty plan is fine");
    }

    #[test]
    fn degenerate_faults_are_rejected() {
        let burst = Action::Burst(AdversarialProfile::TruncatedFrames, 0);
        let plan = empty_plan().at(after_packet(10), burst);
        assert_eq!(plan.validate(), Err(PlanError::EmptyBurst { index: 0 }));
        let plan = empty_plan().at(after_packet(10), Action::Stall(0, Time::ZERO));
        assert_eq!(plan.validate(), Err(PlanError::ZeroStall { index: 0 }));
        let plan = empty_plan().detect_within(Time::ZERO);
        assert_eq!(plan.validate(), Err(PlanError::ZeroDeadline));
    }

    #[test]
    fn backwards_triggers_are_rejected() {
        let plan = empty_plan()
            .at(after_packet(100), Action::Crash(1))
            .at(after_packet(50), Action::Crash(2));
        assert_eq!(plan.validate(), Err(PlanError::OutOfOrder { index: 1 }));
    }

    #[test]
    fn errors_display_their_index() {
        assert!(PlanError::EmptyBurst { index: 3 }.to_string().contains('3'));
        assert!(PlanError::ZeroStall { index: 2 }.to_string().contains('2'));
        assert!(PlanError::OutOfOrder { index: 1 }.to_string().contains('1'));
        assert!(!PlanError::ZeroDeadline.to_string().is_empty());
    }
}
