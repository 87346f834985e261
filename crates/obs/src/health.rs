//! The structured health-event bus.
//!
//! Both runtimes and the ctl crate emit typed [`HealthEvent`]s into a
//! bounded MPSC channel: a cheap, cloneable [`HealthBus`] on the
//! producing side (never blocks — a full bus counts the loss instead of
//! stalling the dataplane) and a [`HealthCollector`] the run drains at
//! teardown into a [`HealthReport`]. The SLO evaluator
//! ([`crate::slo`]) turns the report plus the run's sampled timelines
//! into alert records in the telemetry document.
//!
//! Timestamps are runtime-native ticks (model picoseconds in the
//! simulator, wall nanoseconds in the threaded runtime); the report
//! carries `ticks_per_us` so readers can rescale.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// A typed health event — the taxonomy the SLO evaluator and the
/// telemetry export understand.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// A receive queue or ring shed a burst of packets.
    DropStorm {
        /// Core whose queue shed the packets.
        core: usize,
        /// Packets dropped in the burst.
        drops: u64,
    },
    /// A receive queue crossed its high-water fraction (edge-triggered
    /// with hysteresis: re-armed once the queue drains below half).
    QueueHighWater {
        /// Core whose queue filled.
        core: usize,
        /// Depth at the crossing.
        depth: u64,
        /// Queue capacity.
        capacity: u64,
    },
    /// Sampled Jain fairness fell below the configured floor.
    FairnessDip {
        /// The observed Jain index.
        jain: f64,
    },
    /// The watchdog fenced a stalled worker.
    WatchdogFence {
        /// The fenced core.
        core: usize,
        /// How long the worker had been silent, ticks.
        stalled_ticks: u64,
    },
    /// A worker died (NF panic or injected crash).
    WorkerDeath {
        /// The dead core.
        core: usize,
        /// Captured panic message or fault description.
        message: String,
    },
    /// An elastic or recovery transition ran.
    ReconfigPhase {
        /// Transition epoch.
        epoch: u64,
        /// Phase name (`"rescale"`, `"recover"`, …).
        phase: &'static str,
        /// Active cores after the transition.
        cores: usize,
    },
    /// Load collapsed onto one core (adversarial traffic defeating the
    /// spray hash, detected from per-bucket core shares).
    AdversarialCollapse {
        /// The overloaded core.
        core: usize,
        /// Its share of the bucket's processed packets, `[0, 1]`.
        share: f64,
    },
    /// The control plane injected a fault (chaos schedule firing).
    FaultInjected {
        /// Fault kind (`"crash"`, `"stall"`, `"adversarial"`).
        kind: &'static str,
        /// Target core (or `usize::MAX` for traffic-level faults).
        core: usize,
    },
}

impl HealthEvent {
    /// Stable kind name for counting and alert mapping.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::DropStorm { .. } => "drop_storm",
            HealthEvent::QueueHighWater { .. } => "queue_high_water",
            HealthEvent::FairnessDip { .. } => "fairness_dip",
            HealthEvent::WatchdogFence { .. } => "watchdog_fence",
            HealthEvent::WorkerDeath { .. } => "worker_death",
            HealthEvent::ReconfigPhase { .. } => "reconfig_phase",
            HealthEvent::AdversarialCollapse { .. } => "adversarial_collapse",
            HealthEvent::FaultInjected { .. } => "fault_injected",
        }
    }

    /// The core the event concerns, when it has one.
    pub fn core(&self) -> Option<usize> {
        match *self {
            HealthEvent::DropStorm { core, .. }
            | HealthEvent::QueueHighWater { core, .. }
            | HealthEvent::WatchdogFence { core, .. }
            | HealthEvent::WorkerDeath { core, .. }
            | HealthEvent::AdversarialCollapse { core, .. } => Some(core),
            HealthEvent::FaultInjected { core, .. } if core != usize::MAX => Some(core),
            _ => None,
        }
    }
}

/// One timestamped event on the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// Emission time, runtime-native ticks.
    pub ts: u64,
    /// The event.
    pub event: HealthEvent,
}

impl HealthRecord {
    /// One JSON object (`{"ts":…,"kind":"…",…}`) with kind-specific
    /// detail fields.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"ts\":{},\"kind\":\"{}\"", self.ts, self.event.kind());
        match &self.event {
            HealthEvent::DropStorm { core, drops } => {
                let _ = write!(s, ",\"core\":{core},\"drops\":{drops}");
            }
            HealthEvent::QueueHighWater {
                core,
                depth,
                capacity,
            } => {
                let _ = write!(
                    s,
                    ",\"core\":{core},\"depth\":{depth},\"capacity\":{capacity}"
                );
            }
            HealthEvent::FairnessDip { jain } => {
                let _ = write!(
                    s,
                    ",\"jain\":{}",
                    if jain.is_finite() { *jain } else { 0.0 }
                );
            }
            HealthEvent::WatchdogFence {
                core,
                stalled_ticks,
            } => {
                let _ = write!(s, ",\"core\":{core},\"stalled_ticks\":{stalled_ticks}");
            }
            HealthEvent::WorkerDeath { core, message } => {
                let _ = write!(s, ",\"core\":{core},\"message\":\"");
                for c in message.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        '\n' => s.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(s, "\\u{:04x}", c as u32);
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            HealthEvent::ReconfigPhase {
                epoch,
                phase,
                cores,
            } => {
                let _ = write!(
                    s,
                    ",\"epoch\":{epoch},\"phase\":\"{phase}\",\"cores\":{cores}"
                );
            }
            HealthEvent::AdversarialCollapse { core, share } => {
                let _ = write!(
                    s,
                    ",\"core\":{core},\"share\":{}",
                    if share.is_finite() { *share } else { 0.0 }
                );
            }
            HealthEvent::FaultInjected { kind, core } => {
                let _ = write!(s, ",\"fault\":\"{kind}\"");
                if *core != usize::MAX {
                    let _ = write!(s, ",\"core\":{core}");
                }
            }
        }
        s.push('}');
        s
    }
}

/// Producer side of the bus: cloneable, never blocks. When the bounded
/// channel is full the event is counted in `dropped` and discarded —
/// health telemetry must never stall the dataplane.
#[derive(Debug, Clone)]
pub struct HealthBus {
    tx: SyncSender<HealthRecord>,
    dropped: Arc<AtomicU64>,
}

impl HealthBus {
    /// Emit `event` at `ts` (runtime-native ticks).
    pub fn emit(&self, ts: u64, event: HealthEvent) {
        if let Err(TrySendError::Full(_)) = self.tx.try_send(HealthRecord { ts, event }) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // A disconnected collector means teardown already ran; late
        // events are irrelevant, not losses.
    }

    /// Events lost to a full bus so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Consumer side of the bus.
#[derive(Debug)]
pub struct HealthCollector {
    rx: Receiver<HealthRecord>,
    dropped: Arc<AtomicU64>,
}

impl HealthCollector {
    /// Drain every event currently on the bus, in emission order per
    /// producer (cross-producer order follows channel arrival).
    pub fn drain(&self) -> Vec<HealthRecord> {
        let mut out = Vec::new();
        while let Ok(rec) = self.rx.try_recv() {
            out.push(rec);
        }
        out
    }

    /// Events lost to a full bus so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain and package everything into a [`HealthReport`].
    pub fn collect(self, ticks_per_us: u64) -> HealthReport {
        let records = self.drain();
        HealthReport {
            ticks_per_us,
            dropped: self.dropped(),
            records,
        }
    }
}

/// A bounded health bus: producers clone the [`HealthBus`], the run
/// keeps the [`HealthCollector`].
pub fn health_channel(capacity: usize) -> (HealthBus, HealthCollector) {
    let (tx, rx) = sync_channel(capacity.max(1));
    let dropped = Arc::new(AtomicU64::new(0));
    (
        HealthBus {
            tx,
            dropped: dropped.clone(),
        },
        HealthCollector { rx, dropped },
    )
}

/// Everything one run's bus carried, ready for SLO evaluation and
/// telemetry export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Tick unit of every record's `ts`.
    pub ticks_per_us: u64,
    /// Events lost to a full bus.
    pub dropped: u64,
    /// Delivered events, in arrival order.
    pub records: Vec<HealthRecord>,
}

impl HealthReport {
    /// Event counts per kind, deterministically ordered.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for rec in &self.records {
            *out.entry(rec.event.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Merge another report in (the threaded runtime produces one per
    /// phase on elastic runs).
    pub fn merge(&mut self, other: HealthReport) {
        if self.ticks_per_us == 0 {
            self.ticks_per_us = other.ticks_per_us;
        }
        self.dropped += other.dropped;
        self.records.extend(other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_drain_preserves_order_and_payload() {
        let (bus, col) = health_channel(16);
        bus.emit(
            10,
            HealthEvent::QueueHighWater {
                core: 2,
                depth: 400,
                capacity: 512,
            },
        );
        bus.emit(
            20,
            HealthEvent::WorkerDeath {
                core: 1,
                message: "nf panic: \"boom\"".into(),
            },
        );
        let recs = col.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, 10);
        assert_eq!(recs[0].event.kind(), "queue_high_water");
        assert_eq!(recs[1].event.core(), Some(1));
        assert_eq!(col.dropped(), 0);
    }

    #[test]
    fn full_bus_counts_losses_instead_of_blocking() {
        let (bus, col) = health_channel(2);
        for i in 0..5 {
            bus.emit(i, HealthEvent::FairnessDip { jain: 0.4 });
        }
        assert_eq!(bus.dropped(), 3);
        let report = col.collect(1_000);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.dropped, 3);
    }

    #[test]
    fn emitting_after_collector_drop_is_silent() {
        let (bus, col) = health_channel(4);
        drop(col);
        bus.emit(1, HealthEvent::FairnessDip { jain: 0.1 });
        assert_eq!(bus.dropped(), 0, "disconnect is teardown, not loss");
    }

    #[test]
    fn report_counts_group_by_kind() {
        let (bus, col) = health_channel(16);
        bus.emit(1, HealthEvent::DropStorm { core: 0, drops: 9 });
        bus.emit(2, HealthEvent::DropStorm { core: 1, drops: 3 });
        bus.emit(
            3,
            HealthEvent::ReconfigPhase {
                epoch: 1,
                phase: "rescale",
                cores: 4,
            },
        );
        let report = col.collect(1_000_000);
        let counts = report.counts();
        assert_eq!(counts.get("drop_storm"), Some(&2));
        assert_eq!(counts.get("reconfig_phase"), Some(&1));
        assert_eq!(report.ticks_per_us, 1_000_000);
    }

    #[test]
    fn records_serialize_with_kind_specific_fields() {
        let rec = HealthRecord {
            ts: 77,
            event: HealthEvent::WatchdogFence {
                core: 3,
                stalled_ticks: 120_000,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"ts\":77,\"kind\":\"watchdog_fence\",\"core\":3,\"stalled_ticks\":120000}"
        );
        let rec = HealthRecord {
            ts: 1,
            event: HealthEvent::WorkerDeath {
                core: 0,
                message: "a\"b".into(),
            },
        };
        assert!(rec.to_json().contains("\\\"b"));
        let rec = HealthRecord {
            ts: 5,
            event: HealthEvent::FaultInjected {
                kind: "adversarial",
                core: usize::MAX,
            },
        };
        let j = rec.to_json();
        assert!(j.contains("\"fault\":\"adversarial\""));
        assert!(!j.contains("\"core\""));
    }

    #[test]
    fn merge_accumulates_records_and_losses() {
        let mut a = HealthReport {
            ticks_per_us: 0,
            dropped: 1,
            records: vec![],
        };
        let b = HealthReport {
            ticks_per_us: 1_000,
            dropped: 2,
            records: vec![HealthRecord {
                ts: 9,
                event: HealthEvent::FairnessDip { jain: 0.2 },
            }],
        };
        a.merge(b);
        assert_eq!(a.ticks_per_us, 1_000);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.records.len(), 1);
    }
}
