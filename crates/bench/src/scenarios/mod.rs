//! Reusable experiment scenarios.

pub mod chaos;
pub mod elastic;
pub mod health;
pub mod latency;
pub mod rate;
pub mod soak;
pub mod tail;
pub mod tcp;

use sprayer_ctl::Controller;
use sprayer_net::{PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

/// Where a MoonGen scenario's measured window starts: one SYN per flow
/// at 2 µs spacing, then 1 ms of settling. It is known before the first
/// packet, so a whole plan can be laid out against it.
fn warmup_end(num_flows: usize) -> Time {
    Time::from_us(2 * num_flows as u64) + Time::from_ms(1)
}

/// One MoonGen run through `ctl`: connection setup outside the measured
/// window, settling until [`warmup_end`], then a constant-rate open-loop
/// trace over `duration` while the controller fires its plan between
/// packets, and finally a drain of the queued tail past the horizon so
/// the end-of-run block is conservation-clean. Returns the processing
/// rate over the measured window only, packets/s.
fn drive_moongen(
    ctl: &mut Controller<SyntheticNf>,
    num_flows: usize,
    offered_pps: f64,
    seed: u64,
    duration: Time,
) -> f64 {
    let mut gen = MoonGen::new(num_flows, offered_pps, Arrivals::Constant, seed);
    let mut t = Time::ZERO;
    for tuple in gen.flows().to_vec() {
        ctl.offer(t, PacketBuilder::new().tcp(tuple, 0, 0, TcpFlags::SYN, b""));
        t += Time::from_us(2);
    }
    let warmup_end = warmup_end(num_flows);
    ctl.middlebox_mut().run_until(warmup_end);
    let _ = ctl.middlebox_mut().take_egress();
    let processed_before = ctl.middlebox().stats().processed();

    let horizon = warmup_end + duration;
    loop {
        let (at, pkt) = gen.next_packet();
        let at = warmup_end + at;
        if at >= horizon {
            break;
        }
        ctl.offer(at, pkt);
    }
    ctl.finish(horizon);

    let mb = ctl.middlebox_mut();
    let processed = mb.stats().processed() - processed_before;
    let mut drain = horizon;
    while !mb.is_idle() {
        drain += Time::from_ms(1);
        mb.run_until(drain);
    }
    processed as f64 / duration.as_secs_f64()
}
