//! Validation of the closed-loop TCP scenario against the paper's
//! qualitative results (shortened windows; the figure experiments use the
//! full windows).

use sprayer::config::DispatchMode;
use sprayer_bench::scenarios::tcp::{run, Cc, TcpConfig};
use sprayer_sim::Time;

fn quick(mode: DispatchMode, cycles: u64, flows: usize, seed: u64) -> TcpConfig {
    TcpConfig {
        warmup: Time::from_ms(30),
        duration: Time::from_ms(120),
        ..TcpConfig::paper(mode, cycles, flows, seed)
    }
}

#[test]
fn fig6b_single_flow_rss_is_core_bound_sprayer_near_line_rate() {
    let rss = run(&quick(DispatchMode::Rss, 10_000, 1, 1));
    let spray = run(&quick(DispatchMode::Sprayer, 10_000, 1, 1));

    // RSS: one core at 10k cycles sustains ~198 kpps of data → ~2.3 Gbps.
    assert!(
        (1.6..=2.6).contains(&rss.gbps()),
        "RSS single flow at 10k cycles should be ~2.3 Gbps, got {:.2}",
        rss.gbps()
    );
    // Sprayer: eight cores lift the same flow to the vicinity of line
    // rate (paper: ≈9.4 Gbps; reordering costs some).
    assert!(
        spray.gbps() > 6.0,
        "Sprayer single flow at 10k cycles should approach line rate, got {:.2}",
        spray.gbps()
    );
    let speedup = spray.gbps() / rss.gbps();
    assert!(
        speedup > 2.5,
        "Fig 6b headline: Sprayer ≫ RSS, got {speedup:.2}x"
    );
}

#[test]
fn fig6b_zero_cycles_both_reach_line_rate() {
    let rss = run(&quick(DispatchMode::Rss, 0, 1, 2));
    let spray = run(&quick(DispatchMode::Sprayer, 0, 1, 2));
    assert!(
        rss.gbps() > 8.0,
        "RSS trivial NF ~line rate, got {:.2}",
        rss.gbps()
    );
    assert!(
        spray.gbps() > 7.0,
        "Sprayer trivial NF near line rate, got {:.2}",
        spray.gbps()
    );
}

#[test]
fn fig7b_many_flows_close_the_gap() {
    let rss = run(&quick(DispatchMode::Rss, 10_000, 32, 3));
    let spray = run(&quick(DispatchMode::Sprayer, 10_000, 32, 3));
    // With 32 flows, RSS uses (nearly) all cores: both should be well
    // above the single-flow RSS number, within ~2x of each other.
    assert!(rss.gbps() > 5.0, "RSS 32 flows, got {:.2}", rss.gbps());
    assert!(
        spray.gbps() > 5.0,
        "Sprayer 32 flows, got {:.2}",
        spray.gbps()
    );
    let ratio = rss.gbps() / spray.gbps();
    assert!(
        (0.7..=2.0).contains(&ratio),
        "gap should be closed, ratio {ratio:.2}"
    );
}

#[test]
fn reordering_exists_under_spraying_but_not_rss() {
    let rss = run(&quick(DispatchMode::Rss, 10_000, 1, 4));
    let spray = run(&quick(DispatchMode::Sprayer, 10_000, 1, 4));
    assert_eq!(rss.ooo_arrivals, 0, "per-flow dispatch cannot reorder");
    assert!(spray.ooo_arrivals > 0, "spraying must reorder some packets");
    assert!(spray.dup_acks > 0);
}

#[test]
fn fig9_fairness_sprayer_near_one_rss_lower_at_moderate_flows() {
    // The collision-prone regime: a handful of flows over 8 cores.
    let mut rss_jain = Vec::new();
    let mut spray_jain = Vec::new();
    for seed in [1, 2, 3] {
        rss_jain.push(run(&quick(DispatchMode::Rss, 10_000, 6, seed)).jain);
        spray_jain.push(run(&quick(DispatchMode::Sprayer, 10_000, 6, seed)).jain);
    }
    let rss_mean: f64 = rss_jain.iter().sum::<f64>() / 3.0;
    let spray_mean: f64 = spray_jain.iter().sum::<f64>() / 3.0;
    assert!(
        spray_mean > 0.95,
        "Sprayer fairness should be ~1.0, got {spray_mean:.3} ({spray_jain:?})"
    );
    assert!(
        spray_mean > rss_mean,
        "Sprayer must be fairer than RSS: {spray_mean:.3} vs {rss_mean:.3}"
    );
    assert!(
        rss_mean < 0.97,
        "RSS with 6 flows should show collision unfairness, got {rss_mean:.3} ({rss_jain:?})"
    );
}

#[test]
fn reno_also_transfers_under_spraying() {
    let cfg = TcpConfig {
        cc: Cc::Reno,
        ..quick(DispatchMode::Sprayer, 10_000, 1, 5)
    };
    let r = run(&cfg);
    assert!(
        r.gbps() > 3.0,
        "Reno under spraying still beats the RSS bound: {:.2}",
        r.gbps()
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(&quick(DispatchMode::Sprayer, 5_000, 2, 7));
    let b = run(&quick(DispatchMode::Sprayer, 5_000, 2, 7));
    assert_eq!(a.per_flow_bps, b.per_flow_bps);
    assert_eq!(a.fast_retransmits, b.fast_retransmits);
}

/// FNV-1a over bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One digest over everything a run computes: the middlebox stats, every
/// TCP counter and each flow's delivered bytes.
fn trajectory_digest(r: &sprayer_bench::scenarios::tcp::TcpResult) -> u64 {
    let mut words = vec![
        r.fast_retransmits,
        r.rtos,
        r.ooo_arrivals,
        r.dup_acks,
        r.probes,
        r.spurious,
    ];
    words.extend(&r.delivered);
    words.extend(r.reo_wnd_us.iter().map(|w| w.to_bits()));
    let stats = r.stats.to_json();
    fnv1a(
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .chain(stats.bytes()),
    )
}

/// Four fig7b-like trajectories (8 flows, 10 000 cycles, seeds 1-4)
/// of `mode` pinned bit for bit: the event loop may get faster, never
/// different. The digests were recorded before the event queue grew
/// lanes.
fn assert_trajectories_pinned(mode: DispatchMode, pinned: [u64; 4]) {
    let got: Vec<u64> = (1..=4)
        .map(|seed| trajectory_digest(&run(&quick(mode, 10_000, 8, seed))))
        .collect();
    assert_eq!(got, pinned, "{mode:?}: a TCP trajectory changed");
}

#[test]
fn rss_tcp_trajectories_are_pinned() {
    assert_trajectories_pinned(
        DispatchMode::Rss,
        [
            2391428396611991978,
            16067073691070781749,
            12521877940746844247,
            9995695113473395209,
        ],
    );
}

#[test]
fn sprayer_tcp_trajectories_are_pinned() {
    assert_trajectories_pinned(
        DispatchMode::Sprayer,
        [
            3541836076696826751,
            1727651365779632177,
            8625392659800595280,
            1794186078976975270,
        ],
    );
}

#[test]
fn scr_tcp_trajectories_are_pinned() {
    assert_trajectories_pinned(
        DispatchMode::Scr,
        [
            8229810721421357221,
            13843356076229180605,
            12025701748168662857,
            10061223419396040019,
        ],
    );
}
