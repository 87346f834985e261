//! The repo's wall-clock benchmark. See `perf/README.md`.
//!
//! `perf --workload <steady|churn|simrate|simtcp> [--seed N] [--seconds S]
//! [--trace 0|1] [--smoke]` runs one workload in this process and prints
//! every metric by name with its unit (timings are CPU time per packet,
//! scaled by the host's slowdown: see `measure::HostProbe`), then one JSON
//! object on the last line; `perf --selfcheck` runs every workload of
//! `BENCHMARK.json` twice in fresh processes and compares the two sets
//! against its bounds.

mod alloc;
mod gen;
mod layers;
mod measure;
mod selfcheck;
mod simwl;
mod threaded;
mod walk;

use measure::{process_cpu_ns, HostProbe, Summary};
use sprayer::config::{DispatchMode, ObsConfig};
use sprayer_obs::JsonValue;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark contract: workloads, metric names, units and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Simulator digests for seed 1, keyed `<workload>.<size>.<mode>`.
const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The four measured columns: the three dispatch modes with observation
/// off, and Sprayer with every observation plane on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Rss,
    Sprayer,
    Scr,
    Obs,
}

impl Mode {
    /// Trial order within a round. Modes are interleaved trial by trial
    /// so a slow stretch of the machine hits all four equally.
    pub const ALL: [Mode; 4] = [Mode::Rss, Mode::Sprayer, Mode::Scr, Mode::Obs];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Rss => "rss",
            Mode::Sprayer => "sprayer",
            Mode::Scr => "scr",
            Mode::Obs => "obs",
        }
    }

    pub fn dispatch(self) -> DispatchMode {
        match self {
            Mode::Rss => DispatchMode::Rss,
            Mode::Sprayer | Mode::Obs => DispatchMode::Sprayer,
            Mode::Scr => DispatchMode::Scr,
        }
    }

    pub fn obs(self) -> ObsConfig {
        match self {
            Mode::Obs => ObsConfig {
                trace: true,
                latency: true,
                sample: true,
                profile: true,
                health: true,
                reorder: true,
                tail: true,
                flight: true,
                ..ObsConfig::disabled()
            },
            _ => ObsConfig::disabled(),
        }
    }
}

/// Full-size trials, or the seconds-long smoke sizes the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Threaded(threaded::Kind),
    Sim(simwl::Kind),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "steady" => Workload::Threaded(threaded::Kind::Steady),
            "churn" => Workload::Threaded(threaded::Kind::Churn),
            "simrate" => Workload::Sim(simwl::Kind::Rate),
            "simtcp" => Workload::Sim(simwl::Kind::Tcp),
            _ => return None,
        })
    }

    fn loop_kind(self) -> &'static str {
        match self {
            Workload::Threaded(_) => "closed loop (the NIC thread waits for queue space)",
            Workload::Sim(simwl::Kind::Rate) => "open loop (constant 5 Mpps of simulated time)",
            Workload::Sim(simwl::Kind::Tcp) => "closed loop (8 CUBIC flows, ACK-clocked)",
        }
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A workload with its inputs generated, ready to run trials.
pub enum Prepared {
    Threaded(threaded::Input),
    Sim {
        kind: simwl::Kind,
        seed: u64,
        size: Size,
        /// First digest seen per mode and sub-seed: every later trial of
        /// the pair must repeat it.
        digests: [[Option<u64>; simwl::SUB_SEEDS]; 4],
    },
}

/// What the end-to-end loop needs from one trial.
struct TrialResult {
    pkt_ns: f64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Prepared {
    fn new(workload: Workload, seed: u64, size: Size) -> Prepared {
        match workload {
            Workload::Threaded(kind) => {
                Prepared::Threaded(threaded::Input::generate(kind, seed, size))
            }
            Workload::Sim(kind) => Prepared::Sim {
                kind,
                seed,
                size,
                digests: [[None; simwl::SUB_SEEDS]; 4],
            },
        }
    }

    /// One trial of round `round`. A threaded workload replays the input
    /// its set-up generated; a simulator workload plays the round's
    /// sub-seed (see [`simwl::sub_seed`]).
    fn trial(&mut self, mode: Mode, round: usize) -> TrialResult {
        match self {
            Prepared::Threaded(input) => {
                let t = input.trial(mode);
                TrialResult {
                    pkt_ns: t.pkt_ns(),
                    attempted: t.offered,
                    failed: t.failed(),
                    violations: t.violations,
                }
            }
            Prepared::Sim {
                kind,
                seed,
                size,
                digests,
            } => {
                let sub = round % simwl::SUB_SEEDS;
                let t = simwl::trial(*kind, mode, simwl::sub_seed(*seed, sub), *size);
                let mut violations = Vec::new();
                if t.failed > 0 {
                    violations.push(format!("the model lost {} packets", t.failed));
                }
                let mut digest_ok = true;
                let first = *digests[mode as usize][sub].get_or_insert(t.digest);
                if first != t.digest {
                    digest_ok = false;
                    violations.push(format!(
                        "digest {:016x} differs from the same seed's earlier {first:016x}",
                        t.digest
                    ));
                }
                let key = format!("{}.{}.{}", kind.name(), size.name(), mode.name());
                // Sub-seed 0 is the run's seed itself, the only one pinned.
                if let Some(pinned) = expected_digest(*seed, &key).filter(|_| sub == 0) {
                    if pinned != format!("{:016x}", t.digest) {
                        digest_ok = false;
                        violations.push(format!(
                            "digest {:016x} differs from expected.json's {pinned} ({key})",
                            t.digest
                        ));
                    }
                }
                TrialResult {
                    pkt_ns: t.pkt_ns(),
                    attempted: t.packets,
                    // A wrong statistic anywhere fails the whole trial.
                    failed: if digest_ok { t.failed } else { t.packets },
                    violations,
                }
            }
        }
    }
}

/// The pinned digest for `key`; only seed 1 is pinned.
fn expected_digest(seed: u64, key: &str) -> Option<String> {
    if seed != 1 {
        return None;
    }
    let doc = JsonValue::parse(EXPECTED_JSON).expect("perf/expected.json parses");
    doc.get(key)?.as_str().map(str::to_string)
}

/// Set-up, measured: input generation, the per-trial frame copy and one
/// warm-up trial (Sprayer), all outside any timed region. Done three
/// times; the median is `setup_s`. Like a trial it is timed in CPU time
/// and scaled by how slow the host is just then.
fn prepare(
    workload: Workload,
    seed: u64,
    size: Size,
    host: &HostProbe,
) -> (Prepared, Summary, Vec<String>) {
    let mut times = Vec::new();
    let mut violations = Vec::new();
    let mut prepared = None;
    for _ in 0..3 {
        // Drop the previous copy first so set-up repetitions do not
        // inflate the peak resident set.
        drop(prepared.take());
        let slowdown = host.slowdown();
        let c0 = process_cpu_ns();
        let mut p = Prepared::new(workload, seed, size);
        let warm = p.trial(Mode::Sprayer, 0);
        times.push((process_cpu_ns() - c0) as f64 / 1e9 / slowdown);
        violations.extend(warm.violations);
        prepared = Some(p);
    }
    (
        prepared.expect("three set-ups ran"),
        Summary::of(&times),
        violations,
    )
}

/// The result of one run, printed as the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end run: tracing off, modes interleaved trial by trial for
/// `seconds`, each timing reported as the median over trials of the
/// trial's CPU time per packet divided by the host's slowdown at the
/// start of its round.
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let host = HostProbe::new();
    let (mut prepared, setup, mut violations) = prepare(workload, seed, size, &host);
    let min_rounds = if size == Size::Smoke { 1 } else { 3 };
    let mut pkt_ns: [Vec<f64>; 4] = Default::default();
    let mut unscaled: [Vec<f64>; 4] = Default::default();
    let mut slowdowns = Vec::new();
    let mut peak_rss = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // One discarded round first: glibc's mmap threshold climbs as each
    // mode frees its largest buffers, and until it has seen all four
    // modes a buffer is either mapped afresh (and page-faulted in) or
    // reused depending on which trial came before.
    if size == Size::Full {
        for mode in Mode::ALL {
            violations.extend(prepared.trial(mode, 0).violations);
        }
    }
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds
        || (size == Size::Full && start.elapsed() < Duration::from_secs_f64(seconds))
    {
        // The peak of one round of all four modes; the median over rounds
        // ignores the one round in which a buffer happened to be copied
        // while its old self was still resident.
        measure::reset_peak_rss();
        let slowdown = host.slowdown();
        slowdowns.push(slowdown);
        for mode in Mode::ALL {
            let t = prepared.trial(mode, rounds);
            pkt_ns[mode as usize].push(t.pkt_ns / slowdown);
            unscaled[mode as usize].push(t.pkt_ns);
            attempted += t.attempted;
            failed += t.failed;
            violations.extend(
                t.violations
                    .into_iter()
                    .map(|v| format!("{} trial {rounds}: {v}", mode.name())),
            );
        }
        peak_rss.push(measure::peak_rss_mb());
        rounds += 1;
    }

    println!("loop: {}", workload.loop_kind());
    if let Prepared::Sim {
        kind,
        size,
        digests,
        ..
    } = &prepared
    {
        for mode in Mode::ALL {
            let digest = digests[mode as usize][0].expect("every mode ran round 0");
            println!(
                "digest {}.{}.{} {digest:016x}",
                kind.name(),
                size.name(),
                mode.name()
            );
        }
    }
    let mut metrics = Vec::new();
    for mode in Mode::ALL {
        let s = Summary::of(&pkt_ns[mode as usize]);
        println!(
            "pkt_ns.{:<8} {:>9.2} ns/pkt  (q1 {:.2}, q3 {:.2}, n {}; unscaled {:.2})",
            mode.name(),
            s.median,
            s.q1,
            s.q3,
            s.n,
            Summary::of(&unscaled[mode as usize]).median
        );
        metrics.push(Metric::new(
            format!("pkt_ns.{}", mode.name()),
            s.median,
            "ns/pkt",
        ));
    }
    let slow = Summary::of(&slowdowns);
    println!(
        "host slowdown   {:>9.4} x       (q1 {:.4}, q3 {:.4}, n {})",
        slow.median, slow.q1, slow.q3, slow.n
    );
    let rss = Summary::of(&peak_rss);
    println!(
        "peak_rss_mb     {:>9.2} MiB     (q1 {:.2}, q3 {:.2}, n {})",
        rss.median, rss.q1, rss.q3, rss.n
    );
    println!(
        "setup_s         {:>9.4} s       (q1 {:.4}, q3 {:.4}, n {})",
        setup.median, setup.q1, setup.q3, setup.n
    );
    println!(
        "fail_share      {:>9.6}         ({failed} of {attempted} packets)",
        failed as f64 / attempted as f64
    );
    metrics.push(Metric::new("peak_rss_mb", rss.median, "MiB"));
    metrics.push(Metric::new("setup_s", setup.median, "s"));
    for v in &violations {
        println!("FAILED CHECK: {v}");
    }
    Report {
        correct: violations.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 38.0,
        trace: false,
        size: Size::Full,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!(
                        "--seconds must be in (0, 60], not {}",
                        args.seconds
                    ));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selfcheck && args.workload.is_none() {
        return Err("--workload <steady|churn|simrate|simtcp> or --selfcheck".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run(args.seed, args.seconds, args.size);
    }
    let workload = args.workload.expect("checked by parse_args");
    match measure::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("NOT pinned: the kernel refused; expect noisier threaded numbers"),
    }
    let report = if args.trace {
        walk::run_traced(workload, args.seed, args.seconds, args.size)
    } else {
        run_end_to_end(workload, args.seed, args.seconds, args.size)
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
