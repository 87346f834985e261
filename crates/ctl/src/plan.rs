//! The control plane's one schedule: a time-ordered [`Plan`].
//!
//! A plan lists what happens to a running middlebox and when — planned
//! rescales, worker crashes and stalls, adversarial bursts — on one
//! simulated clock, plus the watchdog's detection deadline and the
//! horizon every event's window must close before. A time is the whole
//! trigger: events are listed in nondecreasing time, and the
//! [`crate::Controller`] fires them in that order.
//!
//! [`Plan::validate`] rejects what would make a run meaningless before
//! the dataplane exists: degenerate events (zero cores, an empty burst,
//! a zero-length stall, a zero deadline), a crash or stall of a core
//! that is not there, a crash of a core that is down or of the last
//! survivor, times that run backwards, a window past the horizon, and
//! overlapping control-plane windows. A rescale at `t` owns
//! `[t, t + RESCALE_WINDOW]`; a crash owns its watchdog window
//! `[t, t + detect_deadline]` and a stall its wedged window
//! `[t, t + duration]`. A crash or stall inside a rescale's window
//! would hit a dataplane that is mid-migration, and a rescale inside a
//! fault's window would race the recovery's own epoch transition.
//! Bursts are exempt: they are traffic, and colliding them with a
//! transition is exactly the stress a soak exists to apply.

use sprayer_sim::Time;

/// The window a planned rescale owns: a conservative bound on one
/// quiesce-and-migrate transition (the simulator reports the exact cost
/// only after the fact, so plans are checked against this budget).
pub const RESCALE_WINDOW: Time = Time::from_us(200);

/// The adversarial traffic families an attacker can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialProfile {
    /// Frames cut off inside their headers — must be dropped as
    /// malformed at the NIC, never crash a parser.
    TruncatedFrames,
    /// IPv4-ethertype frames with garbage headers (bad version nibble).
    GarbageHeaders,
    /// Fully valid TCP packets engineered so every checksum equals
    /// `target` — defeats checksum-bit spraying by collapsing the
    /// spray onto one queue.
    LowEntropyChecksum {
        /// The TCP checksum every crafted packet carries.
        target: u16,
    },
}

/// One scheduled control-plane action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Rescale to this many active cores (an epoch transition).
    Rescale(usize),
    /// Kill this worker core dead: in-flight and queued packets are
    /// lost, and the NIC keeps steering at the corpse until the
    /// watchdog's recovery.
    Crash(usize),
    /// Wedge this core for a while; its queues back up but it comes
    /// back.
    Stall(usize, Time),
    /// Inject this many frames/packets of adversarial traffic.
    Burst(AdversarialProfile, u32),
}

/// Why a plan was rejected by [`Plan::validate`]. Indices point into
/// [`Plan::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// A rescale asked for zero cores.
    ZeroCores {
        /// Index of the offending event.
        index: usize,
    },
    /// A burst injects zero packets.
    EmptyBurst {
        /// Index of the offending event.
        index: usize,
    },
    /// A crash or stall targets a core at or past the width in force.
    CoreOutOfRange {
        /// Index of the offending event.
        index: usize,
    },
    /// A crash targets a core that is down: crashed since the last
    /// rescale.
    CoreAlreadyDown {
        /// Index of the offending event.
        index: usize,
    },
    /// A crash would leave no core alive.
    NoSurvivor {
        /// Index of the offending event.
        index: usize,
    },
    /// A stall with zero duration is a no-op masquerading as a fault.
    ZeroStall {
        /// Index of the offending event.
        index: usize,
    },
    /// The detection deadline is zero — instant detection would hide
    /// the cost the experiment exists to measure.
    ZeroDeadline,
    /// An event is listed before an earlier one.
    OutOfOrder {
        /// Index of the event whose time precedes its predecessor's.
        index: usize,
    },
    /// An event (or its window) extends past the horizon.
    BeyondHorizon {
        /// Nominal end of the offending window.
        window_end: Time,
    },
    /// A crash or stall is scheduled inside a rescale's window.
    FaultDuringRescale {
        /// Index of the offending fault.
        fault: usize,
        /// Index of the rescale whose window it violates.
        rescale: usize,
    },
    /// A rescale is scheduled inside a crash's detection window or a
    /// stall's wedged window.
    RescaleDuringFault {
        /// Index of the offending rescale.
        rescale: usize,
        /// Index of the fault whose window it violates.
        fault: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroCores { index } => write!(f, "plan event {index} targets zero cores"),
            PlanError::EmptyBurst { index } => {
                write!(f, "plan event {index} injects an empty burst")
            }
            PlanError::CoreOutOfRange { index } => write!(f, "plan event {index} targets no core"),
            PlanError::CoreAlreadyDown { index } => {
                write!(f, "plan event {index} crashes a dead core")
            }
            PlanError::NoSurvivor { index } => write!(f, "plan event {index} kills the last core"),
            PlanError::ZeroStall { index } => write!(f, "plan event {index} stalls for zero time"),
            PlanError::ZeroDeadline => write!(f, "detection deadline must be nonzero"),
            PlanError::OutOfOrder { index } => {
                write!(f, "plan event {index} is timed before its predecessor")
            }
            PlanError::BeyondHorizon { window_end } => write!(
                f,
                "an event window ends at {} ns, past the plan horizon",
                window_end.as_ps() / 1_000
            ),
            PlanError::FaultDuringRescale { fault, rescale } => write!(
                f,
                "fault event {fault} fires inside rescale {rescale}'s window"
            ),
            PlanError::RescaleDuringFault { rescale, fault } => write!(
                f,
                "rescale event {rescale} fires inside fault {fault}'s window"
            ),
        }
    }
}

/// A time-ordered schedule of control-plane actions over one horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The actions, each at its simulated time, in firing order.
    pub events: Vec<(Time, Action)>,
    /// How long after a crash the watchdog notices and recovery starts.
    pub detect_deadline: Time,
    /// End of the plan: every event window must close before it.
    pub horizon: Time,
}

impl Plan {
    /// An empty plan over `horizon` (valid: no events) with the default
    /// 100 µs detection deadline.
    pub fn new(horizon: Time) -> Self {
        Plan {
            events: Vec::new(),
            detect_deadline: Time::from_us(100),
            horizon,
        }
    }

    /// Set the watchdog detection deadline.
    pub fn detect_within(mut self, deadline: Time) -> Self {
        self.detect_deadline = deadline;
        self
    }

    /// Append `action` at simulated time `at`.
    pub fn at(mut self, at: Time, action: Action) -> Self {
        self.events.push((at, action));
        self
    }

    /// Nominal end of the window an event at `at` owns (`at` itself
    /// for a burst, which owns none).
    fn window_end(&self, at: Time, action: Action) -> Time {
        match action {
            Action::Rescale(_) => at + RESCALE_WINDOW,
            Action::Crash(_) => at + self.detect_deadline,
            Action::Stall(_, duration) => at + duration,
            Action::Burst(..) => at,
        }
    }

    /// Check the schedule is executable on a dataplane that starts with
    /// `cores` cores (see the module docs). A rescale sets the width in
    /// force and brings every crashed core back.
    pub fn validate(&self, cores: usize) -> Result<(), PlanError> {
        if self.detect_deadline == Time::ZERO {
            return Err(PlanError::ZeroDeadline);
        }
        let mut last = Time::ZERO;
        let (mut width, mut down) = (cores, Vec::new());
        for (index, &(at, action)) in self.events.iter().enumerate() {
            match action {
                Action::Rescale(0) => return Err(PlanError::ZeroCores { index }),
                Action::Burst(_, 0) => return Err(PlanError::EmptyBurst { index }),
                Action::Stall(_, Time::ZERO) => return Err(PlanError::ZeroStall { index }),
                Action::Crash(core) | Action::Stall(core, _) if core >= width => {
                    return Err(PlanError::CoreOutOfRange { index })
                }
                Action::Crash(core) if down.contains(&core) => {
                    return Err(PlanError::CoreAlreadyDown { index })
                }
                Action::Crash(_) if down.len() + 1 == width => {
                    return Err(PlanError::NoSurvivor { index })
                }
                Action::Crash(core) => down.push(core),
                Action::Rescale(n) => (width, down) = (n, Vec::new()),
                Action::Stall(..) | Action::Burst(..) => {}
            }
            if at < last {
                return Err(PlanError::OutOfOrder { index });
            }
            last = at;
            let window_end = self.window_end(at, action);
            if window_end > self.horizon {
                return Err(PlanError::BeyondHorizon { window_end });
            }
        }
        // Windows, both ways. Quadratic in events — plans are tiny.
        for (rescale, &(rt, ra)) in self.events.iter().enumerate() {
            if !matches!(ra, Action::Rescale(_)) {
                continue;
            }
            for (fault, &(ft, fa)) in self.events.iter().enumerate() {
                if !matches!(fa, Action::Crash(_) | Action::Stall(..)) {
                    continue;
                }
                if ft >= rt && ft <= rt + RESCALE_WINDOW {
                    return Err(PlanError::FaultDuringRescale { fault, rescale });
                }
                if rt >= ft && rt <= self.window_end(ft, fa) {
                    return Err(PlanError::RescaleDuringFault { rescale, fault });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order_and_validates() {
        let plan = Plan::new(Time::from_secs(1))
            .at(Time::from_ms(1), Action::Rescale(4))
            .at(Time::from_ms(50), Action::Rescale(2));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0], (Time::from_ms(1), Action::Rescale(4)));
        assert_eq!(plan.events[1].1, Action::Rescale(2));
        assert_eq!(plan.validate(8), Ok(()));
        assert_eq!(
            Plan::new(Time::from_secs(1)).validate(8),
            Ok(()),
            "empty plan is fine"
        );
    }

    #[test]
    fn zero_cores_is_rejected() {
        let plan = Plan::new(Time::from_secs(1)).at(Time::from_us(10), Action::Rescale(0));
        assert_eq!(plan.validate(8), Err(PlanError::ZeroCores { index: 0 }));
    }

    #[test]
    fn backwards_triggers_are_rejected() {
        let plan = Plan::new(Time::from_secs(1))
            .at(Time::from_ms(10), Action::Rescale(4))
            .at(Time::from_ms(5), Action::Rescale(2));
        assert_eq!(plan.validate(8), Err(PlanError::OutOfOrder { index: 1 }));
    }

    #[test]
    fn errors_display_their_index() {
        let e = PlanError::ZeroCores { index: 3 };
        assert!(e.to_string().contains('3'));
        let e = PlanError::OutOfOrder { index: 1 };
        assert!(e.to_string().contains('1'));
    }
}
