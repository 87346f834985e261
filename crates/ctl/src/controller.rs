//! The controller: a [`Plan`] applied to a live simulated dataplane.
//!
//! [`Controller`] owns a [`MiddleboxSim`] (built elastic via
//! [`MiddleboxSim::new_elastic`]) and a validated plan. Packets are
//! offered through [`Controller::offer`]; before each admission the
//! controller fires every due action, so an action lands exactly
//! between two packets — never mid-service:
//!
//! * a rescale runs [`MiddleboxSim::reconfigure`];
//! * a crash runs [`MiddleboxSim::inject_core_failure`] and schedules
//!   its recovery ([`MiddleboxSim::recover`]) at `crash +
//!   detect_deadline`, modelling a watchdog that needs that long to
//!   notice — packets the NIC steers at the corpse in between are
//!   honestly lost;
//! * a stall runs [`MiddleboxSim::stall_core`];
//! * a burst injects adversarial frames and packets through the
//!   raw-frame and packet ingress paths.
//!
//! Plan events and pending recoveries fire in nominal-time order, a
//! recovery first on a tie (it restores capacity the other actions
//! assume) — not source by source, which would invert firings when
//! several actions come due between two sparse packets. Each crash,
//! stall and burst is announced on the health bus (when armed) before
//! the dataplane feels it. The reports accumulate on the middlebox
//! ([`MiddleboxSim::reconfigs`], [`MiddleboxSim::recoveries`]).

use crate::plan::{Action, AdversarialProfile, Plan, PlanError};
use sprayer::api::NetworkFunction;
use sprayer::config::MiddleboxConfig;
use sprayer::runtime_sim::MiddleboxSim;
use sprayer_net::Packet;
use sprayer_obs::{flight, HealthEvent};
use sprayer_sim::Time;
use sprayer_trafficgen::Adversary;
use std::path::{Path, PathBuf};

/// Drives a [`MiddleboxSim`] through a [`Plan`].
pub struct Controller<NF: NetworkFunction> {
    mb: MiddleboxSim<NF>,
    plan: Plan,
    /// Index of the next plan event to fire.
    next: usize,
    /// Crashed cores awaiting their watchdog deadline: `(due, core)`.
    recoveries: Vec<(Time, usize)>,
    adversary: Adversary,
    offered: u64,
    injected: u64,
    /// Where to dump a latched flight recorder at [`Self::finish`].
    flight_dump: Option<PathBuf>,
    flight_dumped: Option<PathBuf>,
}

impl<NF: NetworkFunction> Controller<NF> {
    /// Build an elastic middlebox for `config`/`nf` and arm `plan`.
    /// The plan is validated first; a rejected plan never touches the
    /// dataplane. `seed` makes the adversarial traffic reproducible.
    pub fn new(config: MiddleboxConfig, nf: NF, plan: Plan, seed: u64) -> Result<Self, PlanError> {
        plan.validate(config.num_cores)?;
        Ok(Controller {
            mb: MiddleboxSim::new_elastic(config, nf),
            plan,
            next: 0,
            recoveries: Vec::new(),
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

    /// Fire everything due at `at`, then admit `pkt`.
    pub fn offer(&mut self, at: Time, pkt: Packet) {
        self.fire_due(at);
        self.mb.ingress(at, pkt);
        self.offered += 1;
    }

    /// Advance the control plane and dataplane to `at` without offering
    /// a packet — the periodic tick a snapshotting driver uses between
    /// packets.
    pub fn tick(&mut self, at: Time) {
        self.fire_due(at);
        self.mb.run_until(at);
    }

    /// Fire everything due up to `until`, recover every still-pending
    /// crash (a run never ends with a corpse undetected, even when its
    /// deadline lands past `until`), and run the dataplane until it
    /// drains or reaches `until`.
    pub fn finish(&mut self, until: Time) {
        self.fire_due(until);
        self.recoveries.sort_by_key(|&(due, _)| due);
        for (due, core) in std::mem::take(&mut self.recoveries) {
            self.mb.recover(due.max(self.mb.now()), core);
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

    /// Fire every plan event and recovery due at or before `at`, in
    /// nominal-time order, a recovery first on a tie.
    fn fire_due(&mut self, at: Time) {
        loop {
            let event = self.pending_events().first().copied();
            let event = event.filter(|&(t, _)| t <= at);
            let recovery = (self.recoveries.iter().copied().enumerate())
                .min_by_key(|&(_, (due, _))| due)
                .filter(|&(_, (due, _))| due <= at);
            // Clamp to the dataplane clock: an action due while the
            // simulator has advanced past its instant fires "now".
            match (recovery, event) {
                (Some((i, (due, core))), event) if event.is_none_or(|(t, _)| due <= t) => {
                    self.recoveries.swap_remove(i);
                    self.mb.recover(due.max(self.mb.now()), core);
                }
                (_, Some((t, action))) => {
                    self.next += 1;
                    self.fire(t.max(self.mb.now()), action);
                }
                (_, None) => return,
            }
        }
    }

    fn fire(&mut self, when: Time, action: Action) {
        let injected = |kind, core| HealthEvent::FaultInjected { kind, core };
        match action {
            Action::Rescale(cores) => {
                self.mb.reconfigure(when, cores);
            }
            Action::Crash(core) => {
                self.mb.emit_health(injected("crash", core));
                self.mb.inject_core_failure(when, core);
                let due = when + self.plan.detect_deadline;
                self.recoveries.push((due, core));
            }
            Action::Stall(core, duration) => {
                self.mb.emit_health(injected("stall", core));
                self.mb.stall_core(when, core, duration);
            }
            Action::Burst(profile, count) => {
                self.mb.emit_health(injected("adversarial", usize::MAX));
                self.inject_burst(when, profile, count);
            }
        }
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

    /// Plan events not yet fired.
    pub fn pending_events(&self) -> &[(Time, Action)] {
        &self.plan.events[self.next..]
    }

    /// Foreground packets offered through the controller (adversarial
    /// injections are counted separately in [`Controller::injected`]).
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

    /// The driven middlebox, mutably (e.g. to drain egress or take
    /// samples between plan events).
    pub fn middlebox_mut(&mut self) -> &mut MiddleboxSim<NF> {
        &mut self.mb
    }

    /// Tear down, keeping the middlebox (reports stay on it).
    pub fn into_middlebox(self) -> MiddleboxSim<NF> {
        self.mb
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sprayer::config::DispatchMode;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
    use sprayer_nf::firewall::{AclRule, Action as Acl, FirewallNf};

    pub(crate) fn allow_all_firewall() -> FirewallNf {
        FirewallNf::new(vec![AclRule::default_action(Acl::Allow)])
    }

    pub(crate) fn config(mode: DispatchMode, cores: usize) -> MiddleboxConfig {
        let mut c = MiddleboxConfig::paper_testbed(mode);
        c.num_cores = cores;
        c
    }

    /// An empty plan over a horizon no test run reaches.
    pub(crate) fn empty_plan() -> Plan {
        Plan::new(Time::from_secs(1))
    }

    /// Just after the `n`th packet [`drive`] offers from a fresh
    /// controller, before the next one.
    pub(crate) fn after_packet(n: u64) -> Time {
        Time::from_ns(n * 1_000 + 500)
    }

    /// `flows` SYNs, then `rounds` data packets per flow, 1 µs apart.
    pub(crate) fn drive(ctl: &mut Controller<FirewallNf>, flows: u32, rounds: u32) {
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
        let plan = empty_plan().at(after_packet(10), Action::Rescale(0));
        let err = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            1,
        )
        .err();
        assert_eq!(err, Some(PlanError::ZeroCores { index: 0 }));
    }

    #[test]
    fn timed_rescale_fires_between_packets() {
        // 32 SYNs then data; the scale-up must fire exactly once, after
        // 40 packets were offered, and (Sprayer) migrate nothing.
        let plan = empty_plan().at(after_packet(40), Action::Rescale(4));
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            1,
        )
        .unwrap();
        drive(&mut ctl, 32, 8);
        let end = ctl.middlebox().now() + Time::from_ms(2);
        ctl.finish(end);

        let reports = ctl.middlebox().reconfigs();
        assert_eq!(reports.len(), 1);
        let r = reports[0];
        assert_eq!((r.from_cores, r.to_cores), (2, 4));
        assert_eq!(r.at_ns, 40_500, "fired between packets 40 and 41");
        assert_eq!(r.migrated_flows, 0, "Sprayer scale-up pins assignments");
        assert!(ctl.pending_events().is_empty());
        let stats = ctl.middlebox().stats();
        assert_eq!(stats.offered, (32 + 32 * 8) as u64);
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(stats.nf_drops, 0, "all flows allowed; state must survive");
        assert_eq!(ctl.middlebox().active_cores(), 4);
    }

    #[test]
    fn time_trigger_fires_and_rss_migrates() {
        // RSS comparison: a timed scale-down reprograms the indirection
        // table and must migrate the remapped flows.
        let plan = empty_plan().at(Time::from_us(40), Action::Rescale(2));
        let mut ctl =
            Controller::new(config(DispatchMode::Rss, 4), allow_all_firewall(), plan, 1).unwrap();
        drive(&mut ctl, 64, 4);
        let end = ctl.middlebox().now() + Time::from_ms(2);
        ctl.finish(end);

        assert_eq!(ctl.middlebox().reconfigs().len(), 1);
        let r = ctl.middlebox().reconfigs()[0];
        assert_eq!((r.from_cores, r.to_cores), (4, 2));
        assert!(r.migrated_flows > 0, "RSS rescale must migrate: {r:?}");
        assert!(r.downtime_ns > 0);
        let stats = ctl.middlebox().stats();
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(
            ctl.middlebox()
                .nf()
                .migrated_contexts
                .load(std::sync::atomic::Ordering::Relaxed),
            r.migrated_flows,
            "controller transitions must run the NF migration hooks"
        );
    }

    #[test]
    fn multi_event_plans_fire_in_order() {
        let plan = empty_plan()
            .at(after_packet(32), Action::Rescale(4))
            .at(after_packet(160), Action::Rescale(2))
            .at(Time::from_ms(500), Action::Rescale(8));
        let mut ctl = Controller::new(
            config(DispatchMode::Sprayer, 2),
            allow_all_firewall(),
            plan,
            1,
        )
        .unwrap();
        drive(&mut ctl, 32, 8);
        ctl.finish(ctl.middlebox().now() + Time::from_ms(1));
        // The 500 ms rescale never came due on this short trace.
        let reports = ctl.middlebox().reconfigs();
        assert_eq!(reports.len(), 2);
        assert_eq!(ctl.pending_events().len(), 1);
        let epochs: Vec<u64> = reports.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2]);
        assert_eq!(reports[0].to_cores, 4);
        assert_eq!(reports[1].to_cores, 2);
        // Designated pinning: the full up/down cycle migrated nothing.
        assert_eq!(reports.iter().map(|r| r.migrated_flows).sum::<u64>(), 0);
        assert_eq!(ctl.middlebox().stats().unaccounted(), 0);
    }
}
