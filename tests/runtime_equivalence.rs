//! Cross-runtime equivalence: the deterministic simulator and the
//! real-thread runtime must agree packet-for-packet on identical input.
//!
//! Both runtimes share the NIC classifier, the core map, and the NF —
//! the only thing that differs is the execution engine (event heap vs OS
//! threads). So for the same phases they must produce the same forwarded
//! packet *multiset* (order differs: spraying reorders, threads race),
//! the same redirect counts, and the same drop totals, in both dispatch
//! modes — and both must satisfy the conservation identity
//! `unaccounted() == 0` once drained.
//!
//! This file is the differential harness that gates the unified batch
//! engine: a config matrix over {RSS, Sprayer, SCR} × every NF × threaded
//! batch sizes {1, 8, 64} × observability {off, on}, plus elastic
//! rescale plans and chaos (worker-kill / worker-stall) plans, plus one
//! threaded-only leg: every observability plane on against all off, in
//! all three modes. Any engine refactor must keep every leg green.

use sprayer::api::NetworkFunction;
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{Step, ThreadedConfig, ThreadedMiddlebox, ThreadedOutcome};
use sprayer::stats::MiddleboxStats;
use sprayer::ObsReport;
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::{AclRule, Action, FirewallNf};
use sprayer_nf::load_balancer::Backend;
use sprayer_nf::nat::NatNf;
use sprayer_nf::{DpiNf, LoadBalancerNf, MonitorNf, Nat64Nf, RedundancyNf, SyntheticNf};
use sprayer_obs::{analyze, EventKind, ExpectedCounts};
use sprayer_sim::Time;

const NAT_IP: u32 = 0xc633_640a;
const WORKERS: usize = 4;
/// Threaded batch sizes the matrix sweeps (the simulator is event-driven;
/// its busy bursts are the batch analogue and need no knob).
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn payload(i: u32) -> [u8; 8] {
    splitmix64(u64::from(i)).to_be_bytes()
}

/// Flow `f`'s tuple: distinct client and server addresses per flow so a
/// packet's (server, payload) pair survives NAT rewriting unchanged.
fn tuple(f: u32, dst_port: u16) -> FiveTuple {
    FiveTuple::tcp(0x0a00_0000 + f, 41_000, 0x5db8_d800 + f, dst_port)
}

/// SYN phase + data phase over `flows` flows with arbitrary per-flow
/// tuples and per-packet payloads.
fn phases_gen(
    flows: u32,
    packets_per_flow: u32,
    tuple_of: impl Fn(u32) -> FiveTuple,
    payload_of: impl Fn(u32, u32) -> Vec<u8>,
) -> Vec<Vec<Packet>> {
    let syns = (0..flows)
        .map(|f| PacketBuilder::new().tcp(tuple_of(f), 0, 0, TcpFlags::SYN, b""))
        .collect();
    let mut data = Vec::new();
    for j in 0..packets_per_flow {
        for f in 0..flows {
            data.push(PacketBuilder::new().tcp(
                tuple_of(f),
                j,
                0,
                TcpFlags::ACK,
                &payload_of(f, j),
            ));
        }
    }
    vec![syns, data]
}

/// SYN phase + data phase over `flows` flows; `port_of` picks each flow's
/// server port (so the firewall workload can mix allowed/denied flows).
fn phases(flows: u32, packets_per_flow: u32, port_of: impl Fn(u32) -> u16) -> Vec<Vec<Packet>> {
    phases_gen(
        flows,
        packets_per_flow,
        |f| tuple(f, port_of(f)),
        |f, j| payload(f * 1_000 + j).to_vec(),
    )
}

/// Run `phases` through the simulator with the same phase barriers the
/// threaded runtime's `run` provides, drain fully, and return
/// the forwarded packets, the final stats and what the planes saw.
fn run_sim_report<NF: NetworkFunction>(
    mode: DispatchMode,
    nf: NF,
    phases: &[Vec<Packet>],
    obs: ObsConfig,
) -> (Vec<Packet>, MiddleboxStats, ObsReport) {
    // Same core count as the threaded runtime, or the core maps (and
    // hence redirect decisions) would differ.
    let config = MiddleboxConfig {
        num_cores: WORKERS,
        obs,
        ..MiddleboxConfig::paper_testbed(mode)
    };
    let mut mb = MiddleboxSim::new(config, nf);
    let mut now = Time::ZERO;
    let mut forwarded = Vec::new();
    for phase in phases {
        for pkt in phase {
            // 1 µs apart: far below the Flow Director cap and any queue
            // pressure, so nothing drops and steering decides everything.
            now += Time::from_us(1);
            mb.ingress(now, pkt.clone());
        }
        now += Time::from_ms(10);
        mb.run_until(now);
        assert!(mb.is_idle(), "phase must drain fully");
        forwarded.extend(mb.take_egress().map(|(_, p)| p));
    }
    let stats = mb.stats().clone();
    (forwarded, stats, mb.take_obs())
}

fn run_sim_obs<NF: NetworkFunction>(
    mode: DispatchMode,
    nf: NF,
    phases: &[Vec<Packet>],
    obs: ObsConfig,
) -> (Vec<Packet>, MiddleboxStats) {
    let (forwarded, stats, _) = run_sim_report(mode, nf, phases, obs);
    (forwarded, stats)
}

fn run_sim<NF: NetworkFunction>(
    mode: DispatchMode,
    nf: NF,
    phases: &[Vec<Packet>],
) -> (Vec<Packet>, MiddleboxStats) {
    run_sim_obs(mode, nf, phases, ObsConfig::disabled())
}

fn run_threaded_cfg<NF: NetworkFunction>(
    mode: DispatchMode,
    nf: &NF,
    phases: &[Vec<Packet>],
    batch_size: usize,
    obs: ObsConfig,
) -> ThreadedOutcome {
    let config = ThreadedConfig {
        batch_size,
        obs,
        ..ThreadedConfig::new(mode, WORKERS)
    };
    ThreadedMiddlebox::run(&config, nf, phases.to_vec())
}

fn run_threaded<NF: NetworkFunction>(
    mode: DispatchMode,
    nf: &NF,
    phases: &[Vec<Packet>],
) -> ThreadedOutcome {
    ThreadedMiddlebox::run(&ThreadedConfig::new(mode, WORKERS), nf, phases.to_vec())
}

/// Sorted multiset of raw frames (order-independent comparison).
fn frame_multiset(pkts: &[Packet]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = pkts.iter().map(|p| p.bytes().to_vec()).collect();
    v.sort();
    v
}

/// NAT-invariant projection: the server endpoint and payload identify the
/// original packet regardless of which external port the NAT allocated
/// (allocation order differs between runtimes).
fn nat_projection(pkts: &[Packet]) -> Vec<(u32, u16, Vec<u8>)> {
    let mut v: Vec<(u32, u16, Vec<u8>)> = pkts
        .iter()
        .map(|p| {
            let t = p.tuple().expect("forwarded NAT packets parse");
            (t.dst_addr, t.dst_port, p.payload().unwrap_or(&[]).to_vec())
        })
        .collect();
    v.sort();
    v
}

fn assert_stats_agree(sim: &MiddleboxStats, thr: &MiddleboxStats, what: &str) {
    assert_eq!(sim.unaccounted(), 0, "{what}: sim must conserve");
    assert_eq!(thr.unaccounted(), 0, "{what}: threaded must conserve");
    assert_eq!(sim.offered, thr.offered, "{what}: offered");
    assert_eq!(sim.forwarded, thr.forwarded, "{what}: forwarded");
    assert_eq!(sim.nf_drops, thr.nf_drops, "{what}: nf_drops");
    assert_eq!(sim.redirects(), thr.redirects(), "{what}: redirect counts");
    assert_eq!(sim.lost_packets, thr.lost_packets, "{what}: lost_packets");
    assert_eq!(
        sim.malformed_drops, thr.malformed_drops,
        "{what}: malformed_drops"
    );
    // At this gentle offered load neither runtime may drop pre-NF — and
    // therefore the totals trivially agree.
    assert_eq!(sim.pre_nf_drops(), 0, "{what}: sim pre-NF drops");
    assert_eq!(thr.pre_nf_drops(), 0, "{what}: threaded pre-NF drops");
}

/// The timing-independent per-core projection: which core processed,
/// classified, and redirected what. Steering (RSS hash / spray checksum)
/// and designation are deterministic functions of packet bytes, so both
/// runtimes must agree core-for-core, not just in aggregate.
fn per_core_projection(stats: &MiddleboxStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .per_core
        .iter()
        .map(|c| {
            (
                c.processed,
                c.connection_packets,
                c.redirected_out,
                c.redirected_in,
            )
        })
        .collect()
}

/// Run the full config matrix for one NF: every dispatch mode, obs off
/// and on, and every threaded batch size, asserting the forwarded-packet
/// projection and the stats agree on every leg.
fn check_matrix<NF: NetworkFunction>(
    name: &str,
    make_nf: impl Fn() -> NF,
    phases: &[Vec<Packet>],
    project: impl Fn(&Packet) -> Vec<u8>,
) {
    let sorted = |pkts: &[Packet]| {
        let mut v: Vec<Vec<u8>> = pkts.iter().map(&project).collect();
        v.sort();
        v
    };
    for mode in DispatchMode::ALL {
        for obs in [ObsConfig::disabled(), ObsConfig::tracing()] {
            let what = format!("{name}/{mode}/obs={}", if obs.any() { "on" } else { "off" });
            let (sim_fwd, sim_stats) = run_sim_obs(mode, make_nf(), phases, obs);
            let sim_proj = sorted(&sim_fwd);
            for batch in BATCH_SIZES {
                let nf = make_nf();
                let thr = run_threaded_cfg(mode, &nf, phases, batch, obs);
                let what = format!("{what}/batch={batch}");
                assert_eq!(
                    sim_proj,
                    sorted(&thr.forwarded),
                    "{what}: forwarded projections differ"
                );
                assert_stats_agree(&sim_stats, &thr.stats, &what);
                assert_eq!(
                    per_core_projection(&sim_stats),
                    per_core_projection(&thr.stats),
                    "{what}: per-core projections differ"
                );
                if mode == DispatchMode::Rss {
                    assert_eq!(thr.stats.redirects(), 0, "{what}: RSS never redirects");
                }
                if mode == DispatchMode::Scr {
                    // One state path under both runtimes: every update
                    // published was replayed or accounted, nothing was
                    // redirected, and — replicas being converged at every
                    // drained phase barrier — the tables end the same.
                    assert_eq!(sim_stats.scr_replay_gap(), 0, "{what}: sim replay gap");
                    assert_eq!(thr.stats.scr_replay_gap(), 0, "{what}: threaded replay gap");
                    assert_eq!(thr.stats.redirects(), 0, "{what}: SCR never redirects");
                    assert_eq!(
                        sim_stats.table_live, thr.stats.table_live,
                        "{what}: table_live"
                    );
                    assert_eq!(
                        sim_stats.flows_created, thr.stats.flows_created,
                        "{what}: flows_created"
                    );
                }
            }
        }
    }
}

fn whole_frame(p: &Packet) -> Vec<u8> {
    p.bytes().to_vec()
}

fn payload_only(p: &Packet) -> Vec<u8> {
    p.payload().unwrap_or(&[]).to_vec()
}

// ---------------------------------------------------------------------
// Matrix legs: one test per NF (failures localize; tests parallelize).
// ---------------------------------------------------------------------

#[test]
fn matrix_firewall() {
    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ];
    let port_of = |f: u32| if f.is_multiple_of(2) { 443 } else { 8081 };
    let work = phases(12, 8, port_of);
    check_matrix(
        "firewall",
        || FirewallNf::new(acl.clone()),
        &work,
        whole_frame,
    );
}

#[test]
fn matrix_nat() {
    let work = phases(12, 8, |_| 443);
    // Port allocation order is runtime-dependent: compare the
    // NAT-invariant (server, payload) projection, not raw frames.
    check_matrix(
        "nat",
        || NatNf::new(NAT_IP, 10_000..11_000),
        &work,
        |p| {
            let t = p.tuple().expect("forwarded NAT packets parse");
            let mut v = t.dst_addr.to_be_bytes().to_vec();
            v.extend_from_slice(&t.dst_port.to_be_bytes());
            v.extend_from_slice(p.payload().unwrap_or(&[]));
            v
        },
    );
}

#[test]
fn matrix_nat64() {
    let work = phases(10, 6, |_| 443);
    // The translator emits fresh IPv6 frames with a runtime-dependent
    // source port; the payload identifies the original packet.
    check_matrix(
        "nat64",
        || {
            Nat64Nf::new(
                [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0],
                [0xfd; 16],
                40_000..41_000,
            )
        },
        &work,
        payload_only,
    );
}

#[test]
fn matrix_dpi() {
    // IPS mode: matched flows drop, so both verdict paths are exercised.
    // Every third packet carries the needle.
    let work = phases_gen(
        10,
        8,
        |f| tuple(f, 443),
        |f, j| {
            let mut v = payload(f * 1_000 + j).to_vec();
            if j.is_multiple_of(3) {
                v.extend_from_slice(b"ATTACK");
            }
            v
        },
    );
    check_matrix(
        "dpi",
        || {
            let mut nf = DpiNf::new(&[b"ATTACK"]);
            nf.drop_on_match = true;
            nf
        },
        &work,
        whole_frame,
    );
}

#[test]
fn matrix_monitor() {
    let work = phases(12, 8, |_| 443);
    check_matrix("monitor", || MonitorNf::new(WORKERS), &work, whole_frame);
}

#[test]
fn matrix_synthetic() {
    let work = phases(12, 8, |_| 443);
    check_matrix("synthetic", SyntheticNf::for_simulator, &work, whole_frame);
}

#[test]
fn matrix_load_balancer() {
    const VIP: u32 = 0xc0a8_0101;
    // Half the flows address the VIP (rewritten to a runtime-dependent
    // backend), half pass through untouched; project onto the client
    // endpoint and payload, which both paths preserve.
    let work = phases_gen(
        12,
        8,
        |f| {
            if f.is_multiple_of(2) {
                FiveTuple::tcp(0x0a00_0000 + f, 41_000, VIP, 443)
            } else {
                tuple(f, 443)
            }
        },
        |f, j| payload(f * 1_000 + j).to_vec(),
    );
    let backends = vec![
        Backend {
            addr: 0x0b00_0001,
            port: 8080,
        },
        Backend {
            addr: 0x0b00_0002,
            port: 8080,
        },
        Backend {
            addr: 0x0b00_0003,
            port: 8080,
        },
    ];
    check_matrix(
        "load_balancer",
        || LoadBalancerNf::new((VIP, 443), backends.clone()),
        &work,
        |p| {
            let t = p.tuple().expect("forwarded LB packets parse");
            let mut v = t.src_addr.to_be_bytes().to_vec();
            v.extend_from_slice(&t.src_port.to_be_bytes());
            v.extend_from_slice(p.payload().unwrap_or(&[]));
            v
        },
    );
}

#[test]
fn matrix_redundancy() {
    // Unique payloads and a roomy cache: no elimination, no eviction —
    // the global cache stays deterministic across runtimes.
    let work = phases(12, 8, |_| 443);
    check_matrix(
        "redundancy",
        || RedundancyNf::new(1 << 12),
        &work,
        whole_frame,
    );
}

// ---------------------------------------------------------------------
// Observation: every plane on must change no outcome, in any mode.
// ---------------------------------------------------------------------

#[test]
fn every_plane_on_changes_no_threaded_outcome() {
    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ];
    let port_of = |f: u32| if f.is_multiple_of(2) { 443 } else { 8081 };
    let work = phases(16, 12, port_of);
    let every_plane = ObsConfig {
        trace: true,
        latency: true,
        sample: true,
        profile: true,
        health: true,
        reorder: true,
        tail: true,
        flight: true,
        ..ObsConfig::disabled()
    };
    for mode in DispatchMode::ALL {
        let run = |obs| run_threaded_cfg(mode, &FirewallNf::new(acl.clone()), &work, 32, obs);
        let (off, on) = (run(ObsConfig::disabled()), run(every_plane));
        let what = format!("planes/{mode}");
        assert_eq!(
            frame_multiset(&off.forwarded),
            frame_multiset(&on.forwarded),
            "{what}: forwarded frame multisets differ"
        );
        assert_stats_agree(&off.stats, &on.stats, &what);
        assert_eq!(
            per_core_projection(&off.stats),
            per_core_projection(&on.stats),
            "{what}: per-core projections differ"
        );
        let tables = |s: &MiddleboxStats| (s.scr_published, s.flows_created, s.table_live);
        assert_eq!(
            tables(&off.stats),
            tables(&on.stats),
            "{what}: state counters"
        );
        assert_eq!(on.stats.scr_replay_gap(), 0, "{what}: replicas converge");
    }
}

/// What one runtime's report must say about a drained run, whatever its
/// clock: returns the per-kind counts of the packet-path trace events.
fn check_report(what: &str, stats: &MiddleboxStats, report: &ObsReport) -> [u64; 6] {
    let trace = report.trace.as_ref().expect("tracing on");
    let expected = ExpectedCounts {
        offered: stats.offered,
        processed: stats.processed(),
        forwarded: stats.forwarded,
        nf_drops: stats.nf_drops,
        nic_cap_drops: stats.nic_cap_drops,
        queue_drops: stats.queue_drops,
        ring_drops: stats.ring_drops,
        redirects: stats.redirects(),
    };
    assert_eq!(trace.meta.expected, Some(expected), "{what}: trace stamp");
    assert_eq!(trace.dropped, 0, "{what}: the default rings hold this run");
    let c = analyze(trace).conservation;
    assert!(c.ok(), "{what}: {:?}", c.violations);
    let admitted = stats.offered - stats.nic_cap_drops - stats.queue_drops;
    assert_eq!(
        (c.ingress_enqueued, c.nf_done, c.forwarded, c.nf_drops),
        (admitted, stats.processed(), stats.forwarded, stats.nf_drops),
        "{what}: trace counts vs stats"
    );
    assert_eq!(
        (c.redirect_out, c.ring_drops, c.queue_drops, c.nic_cap_drops),
        (
            stats.redirects(),
            stats.ring_drops,
            stats.queue_drops,
            stats.nic_cap_drops
        ),
        "{what}: trace counts vs stats"
    );
    let probes = report.probes.as_ref().expect("latency on");
    let tail = report.tail.as_ref().expect("tail on");
    assert_eq!(
        probes.sojourn_ns.count(),
        stats.processed(),
        "{what}: sojourns"
    );
    assert_eq!(
        tail.completions,
        stats.processed(),
        "{what}: tail completions"
    );
    // Every packet of the workload parses to a tuple.
    let reorder = report.reorder.as_ref().expect("reorder on");
    assert_eq!(
        reorder.completions + reorder.untracked,
        stats.processed(),
        "{what}: reorder sketch"
    );
    let health = report.health.as_ref().expect("health on").counts();
    for kind in ["worker_death", "watchdog_fence"] {
        assert!(!health.contains_key(kind), "{what}: {health:?}");
    }
    let flight = report.flight.as_ref().expect("flight on");
    assert!(flight.frozen.is_none(), "{what}: a healthy run froze");
    assert!(flight.recorded > 0, "{what}: an empty black box");
    assert!(report.samples.is_some() && report.profile.is_some());
    [
        EventKind::IngressEnqueue,
        EventKind::NfStart,
        EventKind::NfDone,
        EventKind::RedirectOut,
        EventKind::RedirectIn,
        EventKind::Drop,
    ]
    .map(|kind| trace.count_of(kind))
}

#[test]
fn the_runtimes_reports_agree_on_what_a_clock_cannot_change() {
    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ];
    let port_of = |f: u32| if f.is_multiple_of(2) { 443 } else { 8081 };
    let work = phases(16, 12, port_of);
    let every_plane = ObsConfig {
        trace: true,
        latency: true,
        sample: true,
        profile: true,
        health: true,
        reorder: true,
        tail: true,
        flight: true,
        ..ObsConfig::disabled()
    };
    for mode in DispatchMode::ALL {
        let nf = || FirewallNf::new(acl.clone());
        let (_, sim_stats, sim) = run_sim_report(mode, nf(), &work, every_plane);
        let thr = run_threaded_cfg(mode, &nf(), &work, 32, every_plane);
        let thr_report = ObsReport {
            trace: thr.trace,
            probes: thr.probes,
            samples: thr.samples,
            profile: thr.profile,
            health: thr.health,
            reorder: thr.reorder,
            tail: thr.tail,
            flight: thr.flight,
        };
        assert_eq!(
            check_report(&format!("report/{mode}/sim"), &sim_stats, &sim),
            check_report(&format!("report/{mode}/threads"), &thr.stats, &thr_report),
            "report/{mode}: per-kind trace event counts differ across runtimes"
        );
    }
}

// ---------------------------------------------------------------------
// Elastic plan: width changes at drained phase barriers must agree.
// ---------------------------------------------------------------------

#[test]
fn elastic_transitions_agree_across_runtimes() {
    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ];
    let port_of = |f: u32| if f.is_multiple_of(2) { 443 } else { 8081 };
    let flows = 16u32;
    // Phase 0: SYNs at width 4. Phase 1: data at width 2 (scale-down
    // migrates state). Phase 2: data at width 6 (scale-up).
    let widths = [4usize, 2, 6];
    let all = phases(flows, 6, port_of);
    let syns = all[0].clone();
    let data = all[1].clone();
    let mid = data.len() / 2;
    let phase_pkts = [syns, data[..mid].to_vec(), data[mid..].to_vec()];

    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        // Simulator: explicit reconfigure() calls at the drained barriers.
        let config = MiddleboxConfig {
            num_cores: widths[0],
            ..MiddleboxConfig::paper_testbed(mode)
        };
        let mut mb = MiddleboxSim::new_elastic(config, FirewallNf::new(acl.clone()));
        let mut now = Time::ZERO;
        let mut sim_fwd = Vec::new();
        for (i, phase) in phase_pkts.iter().enumerate() {
            if i > 0 {
                now += Time::from_ms(1);
                mb.reconfigure(now, widths[i]);
                now += Time::from_ms(1);
            }
            for pkt in phase {
                now += Time::from_us(1);
                mb.ingress(now, pkt.clone());
            }
            now += Time::from_ms(10);
            mb.run_until(now);
            assert!(mb.is_idle(), "elastic phase must drain fully");
            sim_fwd.extend(mb.take_egress().map(|(_, p)| p));
        }
        let sim_stats = mb.stats().clone();
        let sim_reconfigs = mb.reconfigs().to_vec();

        // Threaded: per-phase worker counts drive the same transitions.
        let cfg = ThreadedConfig::new(mode, widths[0]);
        let nf = FirewallNf::new(acl.clone());
        let mut steps = Vec::new();
        for (&w, p) in widths.iter().zip(phase_pkts.iter()) {
            steps.extend([Step::Rescale(w), Step::Phase(p.clone())]);
        }
        let thr = ThreadedMiddlebox::run_steps(&cfg, &nf, steps);

        let what = format!("elastic/{mode}");
        assert_eq!(
            frame_multiset(&sim_fwd),
            frame_multiset(&thr.forwarded),
            "{what}: forwarded frame multisets differ"
        );
        assert_stats_agree(&sim_stats, &thr.stats, &what);
        assert_eq!(
            sim_reconfigs.len(),
            thr.reconfigs.len(),
            "{what}: reconfig count"
        );
        for (s, t) in sim_reconfigs.iter().zip(thr.reconfigs.iter()) {
            assert_eq!(s.epoch, t.epoch, "{what}: epoch");
            assert_eq!(s.from_cores, t.from_cores, "{what}: from_cores");
            assert_eq!(s.to_cores, t.to_cores, "{what}: to_cores");
            assert_eq!(s.migrated_flows, t.migrated_flows, "{what}: migrated_flows");
            assert_eq!(s.retained_flows, t.retained_flows, "{what}: retained_flows");
            assert_eq!(
                t.migrated_packets, 0,
                "{what}: barrier transitions move no packets"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Chaos plans: a core killed before processing anything loses exactly
// the packets homed to it, identically in both runtimes.
// ---------------------------------------------------------------------

/// Data-only traffic (no connection packets): under Sprayer nothing
/// redirects, so a dead core's loss set is exactly what the NIC steered
/// to it — deterministic in both runtimes.
fn data_only(flows: u32, packets_per_flow: u32) -> Vec<Vec<Packet>> {
    let mut data = Vec::new();
    for j in 0..packets_per_flow {
        for f in 0..flows {
            data.push(PacketBuilder::new().tcp(
                tuple(f, 443),
                j,
                0,
                TcpFlags::ACK,
                &payload(f * 1_000 + j),
            ));
        }
    }
    vec![data]
}

fn check_chaos_panic<NF: NetworkFunction>(
    name: &str,
    make_nf: impl Fn() -> NF,
    mode: DispatchMode,
    work: &[Vec<Packet>],
) {
    const DEAD: usize = 2;
    // One phase only: the threaded phase barrier re-provisions workers,
    // so a killed worker would come back for a second phase, while the
    // simulator's core stays dead until recover(). The NFs used here are
    // order-insensitive (always Forward), so SYN/data interleaving
    // within the single phase cannot change any verdict.
    let work = [work.concat()];
    let work = &work[..];
    // Simulator: the core is dead before any traffic arrives.
    let config = MiddleboxConfig {
        num_cores: WORKERS,
        ..MiddleboxConfig::paper_testbed(mode)
    };
    let mut mb = MiddleboxSim::new(config, make_nf());
    mb.inject_core_failure(Time::ZERO, DEAD);
    let mut now = Time::ZERO;
    let mut sim_fwd = Vec::new();
    for phase in work {
        for pkt in phase {
            now += Time::from_us(1);
            mb.ingress(now, pkt.clone());
        }
        now += Time::from_ms(10);
        mb.run_until(now);
        assert!(mb.is_idle(), "chaos phase must drain fully");
        sim_fwd.extend(mb.take_egress().map(|(_, p)| p));
    }
    let sim_stats = mb.stats().clone();

    // Threaded: the worker panics on its first packet, so it too
    // processes nothing; everything homed to it is lost.
    let nf = make_nf();
    let cfg = ThreadedConfig::new(mode, WORKERS);
    let crash = Step::Crash {
        core: DEAD,
        after: 0,
    };
    let steps = std::iter::once(crash).chain(work.iter().cloned().map(Step::Phase));
    let thr = ThreadedMiddlebox::run_steps(&cfg, &nf, steps.collect());

    let what = format!("chaos/{name}/{mode}");
    assert!(
        sim_stats.lost_packets > 0,
        "{what}: the dead core must have been offered traffic"
    );
    assert_eq!(
        frame_multiset(&sim_fwd),
        frame_multiset(&thr.forwarded),
        "{what}: surviving frame multisets differ"
    );
    assert_stats_agree(&sim_stats, &thr.stats, &what);
    assert_eq!(thr.failures.len(), 1, "{what}: one worker failure");
    assert_eq!(thr.failures[0].core, DEAD, "{what}: failed core id");
}

#[test]
fn chaos_panic_rss_synthetic() {
    check_chaos_panic(
        "synthetic",
        SyntheticNf::for_simulator,
        DispatchMode::Rss,
        &phases(12, 8, |_| 443),
    );
}

#[test]
fn chaos_panic_rss_monitor() {
    check_chaos_panic(
        "monitor",
        || MonitorNf::new(WORKERS),
        DispatchMode::Rss,
        &phases(12, 8, |_| 443),
    );
}

#[test]
fn chaos_panic_sprayer_stateless() {
    // Stateless NF: spraying never redirects, so the loss set under a
    // dead core is exactly the NIC's steering choice.
    check_chaos_panic(
        "redundancy",
        || RedundancyNf::new(1 << 12),
        DispatchMode::Sprayer,
        &phases(12, 8, |_| 443),
    );
}

#[test]
fn chaos_panic_sprayer_data_only() {
    // Stateful NF but no connection packets: again no redirects.
    check_chaos_panic(
        "synthetic",
        SyntheticNf::for_simulator,
        DispatchMode::Sprayer,
        &data_only(12, 8),
    );
}

#[test]
fn chaos_stall_converges_to_healthy_stats() {
    // A stalled worker merely delays: once it wakes and drains, the final
    // aggregates must equal the healthy run's on both runtimes.
    let work = phases(12, 8, |_| 443);
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let (_, healthy) = run_sim(mode, SyntheticNf::for_simulator(), &work);

        let config = MiddleboxConfig {
            num_cores: WORKERS,
            ..MiddleboxConfig::paper_testbed(mode)
        };
        let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
        mb.stall_core(Time::ZERO, 1, Time::from_us(300));
        let mut now = Time::ZERO;
        for phase in &work {
            for pkt in phase {
                now += Time::from_us(1);
                mb.ingress(now, pkt.clone());
            }
            now += Time::from_ms(10);
            mb.run_until(now);
            assert!(mb.is_idle(), "stalled sim must still drain");
        }

        let nf = SyntheticNf::for_simulator();
        let cfg = ThreadedConfig::new(mode, WORKERS);
        // A deadline far above the stall: it delays, never fences.
        let stall = Step::Stall {
            core: 1,
            after: 5,
            duration_ns: 300_000,
            deadline_ns: 10_000_000_000,
        };
        let steps = std::iter::once(stall).chain(work.iter().cloned().map(Step::Phase));
        let thr = ThreadedMiddlebox::run_steps(&cfg, &nf, steps.collect());

        let what = format!("stall/{mode}");
        assert_stats_agree(mb.stats(), &thr.stats, &what);
        assert_eq!(
            healthy.forwarded, thr.stats.forwarded,
            "{what}: stall loses nothing"
        );
        assert_eq!(healthy.lost_packets, 0, "{what}: healthy baseline");
        assert_eq!(thr.stats.lost_packets, 0, "{what}: stall is not a crash");
    }
}

// ---------------------------------------------------------------------
// The original named tests, kept verbatim in spirit: full-frame and
// NAT-projected equivalence at the default batch size.
// ---------------------------------------------------------------------

#[test]
fn firewall_outcomes_are_identical_across_runtimes() {
    // Ports 443 allowed, 8081 denied: flows alternate, so the verdict mix
    // exercises both ACL paths.
    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ];
    let port_of = |f: u32| if f.is_multiple_of(2) { 443 } else { 8081 };
    let work = phases(16, 12, port_of);

    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let (sim_fwd, sim_stats) = run_sim(mode, FirewallNf::new(acl.clone()), &work);
        let thr = run_threaded(mode, &FirewallNf::new(acl.clone()), &work);

        // The firewall forwards frames unmodified, so the full byte-level
        // multisets must coincide.
        assert_eq!(
            frame_multiset(&sim_fwd),
            frame_multiset(&thr.forwarded),
            "{mode}: forwarded frame multisets differ"
        );
        assert_stats_agree(&sim_stats, &thr.stats, &format!("firewall/{mode}"));
        if mode == DispatchMode::Rss {
            assert_eq!(thr.stats.redirects(), 0, "RSS never redirects");
        } else {
            assert!(
                thr.stats.redirects() > 0,
                "sprayed SYNs must mostly redirect"
            );
        }
    }
}

#[test]
fn nat_outcomes_are_identical_across_runtimes() {
    let work = phases(12, 10, |_| 443);

    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let (sim_fwd, sim_stats) = run_sim(mode, NatNf::new(NAT_IP, 10_000..11_000), &work);
        let thr = run_threaded(mode, &NatNf::new(NAT_IP, 10_000..11_000), &work);

        // Port allocation order is runtime-dependent, so compare on the
        // NAT-invariant projection — and check the rewrite itself.
        assert_eq!(
            nat_projection(&sim_fwd),
            nat_projection(&thr.forwarded),
            "{mode}: forwarded packet multisets (modulo NAT port) differ"
        );
        for pkt in sim_fwd.iter().chain(thr.forwarded.iter()) {
            assert_eq!(
                pkt.tuple().unwrap().src_addr,
                NAT_IP,
                "{mode}: source must be translated"
            );
        }
        assert_stats_agree(&sim_stats, &thr.stats, &format!("nat/{mode}"));
    }
}
