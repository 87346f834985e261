//! Measurement helpers: quartiles, procfs readers, the micro-benchmark
//! loop and the output fingerprint.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median and quartiles of a set of trial values. No percentile is
/// claimed: trial counts (tens) do not support one.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// The quartiles Python's `statistics.quantiles(values, n=4)` gives
    /// (exclusive method), so the benchmark's own spread agrees with the
    /// driver's.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        if n == 1 {
            return Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`]. Read from procfs because no libc crate is vendored.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Restart the kernel's peak-RSS watermark at the current RSS. If the
/// kernel refuses, `VmHWM` simply keeps the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nanoseconds the calling thread has spent on a CPU (first field of its
/// `schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat is readable")
}

/// Pin this thread, and so every thread it spawns later, to one of the
/// CPUs the process may use; returns that CPU, or `None` if the kernel
/// refused (the run then goes on unpinned).
///
/// Three spinning threads on two virtual CPUs are scheduler chaos: a
/// trial's time then depends on which threads share a CPU and varies by
/// tens of per cent between trials and between processes. On one CPU the
/// threads take turns, wall time is the CPU time the packets cost, and
/// runs repeat. No parallel speed-up is claimed either way.
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread; the call writes at most
    // `cpusetsize` bytes and keeps no pointer.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    // The highest allowed CPU: interrupts and daemons favour CPU 0.
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + (63 - allowed[word].leading_zeros() as usize);
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, only
    // read by the call, which keeps no pointer.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Nanoseconds of CPU this process has used, all threads, ended ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`). Pinned to one CPU with nothing
/// else running it advances as the wall clock does (0.9996 of it over a
/// trial); when the hypervisor or another process takes the CPU away it
/// stands still, which is why trials are timed with it.
pub fn process_cpu_ns() -> u64 {
    // glibc's `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`; the call writes it and
    // keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Two fixed pieces of work owned by the benchmark — they call nothing of
/// the product — timed at the start of every round to read how fast the
/// host runs *now*. This box is a slice of a shared machine and moves in
/// two ways on its own, each for minutes at a time: the core runs ~19 %
/// faster whenever its neighbours go idle (everything speeds up alike,
/// memory latency does not), and memory gets 10-40 % slower whenever a
/// neighbour leans on it (a register-only loop does not notice). One
/// probe per effect:
///
/// * **core**: a chain of dependent multiplies in registers;
/// * **memory**: a chain of dependent cache-line fetches over a 4 MiB
///   table (past L2, as a trial's packets and tables are).
pub struct HostProbe {
    table: Vec<u64>,
}

impl HostProbe {
    const WORDS: usize = 512 * 1024;
    /// What the probes take on this box in its usual state; they only fix
    /// the scale, so that a scaled nanosecond is a real one on a usual day.
    const CORE_USUAL_NS: f64 = 6.09e6;
    const MEMORY_USUAL_NS: f64 = 8.8e6;

    pub fn new() -> HostProbe {
        let mut x = 0u64;
        let table = (0..Self::WORDS)
            .map(|_| {
                x = splitmix(x);
                x
            })
            .collect();
        HostProbe { table }
    }

    /// How slow the host is right now: 1.0 on a usual day, above when it
    /// is slower. A trial reacts to the core's speed in full and to
    /// memory's in part, so the factor is `core x sqrt(memory)`, each
    /// relative to its usual time; `perf/README.md` has the hundred
    /// minutes of runs that settled the shape.
    pub fn slowdown(&self) -> f64 {
        let c0 = process_cpu_ns();
        let mut x = 1u64;
        for _ in 0..1_500_000 {
            x = splitmix(x);
        }
        black_box(x);
        let c1 = process_cpu_ns();
        // The table is only read: every call walks the same lines.
        let mut acc = 0u64;
        for _ in 0..100_000 {
            x = splitmix(x);
            let line = ((x ^ acc) as usize & (Self::WORDS - 1)) & !7;
            for &w in &self.table[line..line + 8] {
                acc = (acc ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        black_box(acc);
        let c2 = process_cpu_ns();
        let core = (c1 - c0) as f64 / Self::CORE_USUAL_NS;
        let memory = (c2 - c1) as f64 / Self::MEMORY_USUAL_NS;
        core * memory.sqrt()
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median nanoseconds per operation of `run`, which performs `ops`
/// operations on a fresh input from `setup`; only `run` is timed, and
/// what it returns is dropped after the clock stops. The median over
/// samples rejects scheduler noise without claiming the machine's best
/// case. Callers size `ops` so that one sample outlasts the clock reads
/// by orders of magnitude.
pub fn bench<I, O>(
    budget: Duration,
    ops: u64,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> O,
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let input = black_box(setup());
        let t = Instant::now();
        let output = black_box(run(input));
        let elapsed = t.elapsed();
        drop(output);
        samples.push(elapsed.as_nanos() as f64 / ops as f64);
    }
    Summary::of(&samples).median
}

/// [`bench`] for work that needs no fresh input per sample.
pub fn bench_loop<O>(budget: Duration, ops: u64, mut run: impl FnMut() -> O) -> f64 {
    bench(budget, ops, || (), |()| run())
}

/// Order-independent fingerprint of an Ethernet/IPv4 frame the NF may
/// have forwarded: FNV-1a over the bytes with the TTL lowered by
/// `ttl_delta` and the IPv4 header checksum masked out (an incremental
/// checksum update and a full recompute may legitimately differ between
/// +0 and -0; [`ipv4_header_valid`] checks that field instead).
pub fn fingerprint(frame: &[u8], ttl_delta: u8) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in frame.iter().enumerate() {
        let b = match i {
            22 => b.wrapping_sub(ttl_delta),
            24 | 25 => 0,
            _ => b,
        };
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether the 20-byte IPv4 header at offset 14 sums to 0xffff — the
/// benchmark's own ones-complement check, independent of the product's.
pub fn ipv4_header_valid(frame: &[u8]) -> bool {
    let Some(header) = frame.get(14..34) else {
        return false;
    };
    let mut sum: u32 = header
        .chunks(2)
        .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
        .sum();
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn fingerprint_sees_a_ttl_decrement_but_not_the_checksum() {
        let pkt = sprayer_net::PacketBuilder::new().tcp(
            sprayer_net::FiveTuple::tcp(1, 2, 3, 4),
            0,
            0,
            sprayer_net::TcpFlags::ACK,
            b"0123456789",
        );
        let before = pkt.bytes().to_vec();
        let mut after = pkt.clone();
        after.decrement_ttl().unwrap();
        let after = after.into_bytes();
        assert!(ipv4_header_valid(&before) && ipv4_header_valid(&after));
        assert_eq!(fingerprint(&before, 1), fingerprint(&after, 0));
        assert_ne!(fingerprint(&before, 0), fingerprint(&after, 0));
        let mut corrupt = after.clone();
        corrupt[40] ^= 1;
        assert_ne!(fingerprint(&corrupt, 0), fingerprint(&after, 0));
        corrupt[24] ^= 1;
        assert!(!ipv4_header_valid(&corrupt));
    }
}
