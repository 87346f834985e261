//! The trace plane's byte budget, counted by the allocator.
//!
//! A kept trace event costs 24 bytes once its chunk is sealed; what a
//! trace may hold beyond that is one open chunk and one chunk kept raw
//! (48-byte events) plus a fixed slack for its chunk index and metadata.
//! This binary replaces the global allocator with one that counts live
//! heap bytes, runs traced captures of at least 64 Ki kept events —
//! the simulator's (one ring, moved into the trace) and the threaded
//! runtime's (a ring per worker and one for ingress, merged) — and
//! checks what the assembled trace holds once everything else is
//! dropped. It prints each capture's raw-chunk share. One test only:
//! the counter is process-wide.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::Packet;
use sprayer_nf::firewall::{AclRule, Action, FirewallNf};
use sprayer_obs::Trace;
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes a sealed (packed) event costs.
const PACKED: usize = 24;
/// Events per chunk, and bytes an unsealed event costs.
const CHUNK: usize = 2048;
const RAW: usize = 48;
/// The chunk index (one small record per chunk, doubling as it grows)
/// and the metadata: far below this for any capture here.
const SLACK: usize = 16 << 10;
/// Kept events each capture must reach.
const KEPT: usize = 1 << 16;

/// Port 443 allowed, the rest denied: every packet takes the NF path.
fn firewall() -> FirewallNf {
    FirewallNf::new(vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ])
}

/// 24 000 MoonGen frames over 64 flows at 1 Mpps.
fn traffic() -> Vec<(Time, Packet)> {
    let mut gen = MoonGen::new(64, 1.0e6, Arrivals::Poisson, 17);
    (0..24_000).map(|_| gen.next_packet()).collect()
}

fn simulated(obs: ObsConfig) -> Option<Trace> {
    let config = MiddleboxConfig {
        num_cores: 4,
        obs,
        ..MiddleboxConfig::paper_testbed(DispatchMode::Sprayer)
    };
    let mut mb = MiddleboxSim::new(config, firewall());
    let mut last = Time::ZERO;
    for (at, pkt) in traffic() {
        mb.ingress(at, pkt);
        last = at;
    }
    mb.run_until(last + Time::from_ms(50));
    assert!(mb.is_idle(), "the run drains");
    mb.take_obs().trace
}

fn threaded(obs: ObsConfig) -> Option<Trace> {
    let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
    config.obs = obs;
    config.ingress_retries = usize::MAX;
    let packets = traffic().into_iter().map(|(_, pkt)| pkt).collect();
    ThreadedMiddlebox::run(&config, &firewall(), vec![packets]).trace
}

fn live() -> usize {
    LIVE.load(Ordering::SeqCst) as usize
}

#[test]
fn an_assembled_trace_holds_24_bytes_per_kept_event() {
    type Capture = fn(ObsConfig) -> Option<Trace>;
    let captures: [(&str, Capture); 2] = [("sim", simulated), ("threads", threaded)];
    let mut report = Vec::new();
    for (runtime, capture) in captures {
        // An untraced run first, so what a run sets up once for good
        // (thread-locals, lazily built tables) is in place before the
        // count starts.
        assert!(capture(ObsConfig::disabled()).is_none());
        let before = live();
        let trace = capture(ObsConfig::tracing()).expect("tracing on");
        let held = live().saturating_sub(before);
        let kept = trace.events.len();
        let budget = PACKED * kept + 2 * CHUNK * RAW + SLACK;
        let (packed, raw) = trace.events.sealed_chunks();
        report.push(format!(
            "{runtime}: {kept} events kept in {held} B ({:.2} B/event, budget {budget} B), \
             {raw} of {} sealed chunks raw",
            held as f64 / kept as f64,
            packed + raw,
        ));
        assert!(kept >= KEPT, "{runtime}: {kept} events kept");
        assert!(held <= budget, "{runtime}: {held} B held, over {budget} B");
        drop(trace);
    }
    println!("{}", report.join("\n"));
}
