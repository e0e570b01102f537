//! Sample statistics, seed derivation and process probes shared by the
//! three workloads.

use std::time::Duration;

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` of all samples are ≤ it. `sorted` must be ascending and
/// non-empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples of one run, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn mean_ms(&self) -> f64 {
        self.sum_ms() / self.ms.len().max(1) as f64
    }

    /// Nearest-rank percentile in ms; 0 for an empty sample.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, q)
    }

    /// How many samples lie strictly above the nearest-rank
    /// percentile's position.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.ms.len();
        n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the clock ids are the kernel's fixed CPU-time clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time this thread has run. Unlike wall time it leaves out the
/// time other tenants of a shared host hold the CPU (steal), which on
/// a small shared box varies a pass's wall time by tens of percent.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have run.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Host-wide CPU ticks from the first line of `/proc/stat`:
/// (steal, total over all states).
pub fn host_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return (0, 0);
    }
    (v[7], v.iter().sum())
}

/// Share of the CPUs' time the host's other tenants took (steal)
/// between two [`host_ticks`] readings; 0 when unknown.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// User + system CPU seconds process `pid` has run, all its threads
/// (also exited ones) included.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// SplitMix64 finalizer: a bijective scrambler, so distinct inputs
/// give distinct outputs.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pass number space of the set-up rounds' warm-up passes: far above
/// any timed pass, so warm-up inputs never repeat a timed one.
pub const WARMUP_PASS_BASE: u64 = 1 << 40;

/// A walker seed for input `idx` of pass `pass` under `tag`, derived
/// from the workload seed. Kept below 2^48 so it survives the service's
/// JSON number parsing unchanged.
pub fn derive_seed(workload_seed: u64, tag: &str, pass: u64, idx: u64) -> u64 {
    let t = casa_obs::fnv1a_64(tag.as_bytes());
    let h = splitmix(splitmix(splitmix(workload_seed ^ t) ^ pass) ^ idx);
    h & ((1 << 48) - 1)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for
/// this one) in MiB, if `/proc` reports it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Map `f` over `items` on two threads, thread `t` taking items
/// `t, t + 2, ...`, keeping the input order. Input generation and
/// `solve_hard`'s timed solves run this way.
pub fn par_map2<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let halves: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(2)
                        .map(|(i, x)| (i, f(x)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generation thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = halves.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[3.5], 0.9), 3.5);
    }

    #[test]
    fn tail_counts_samples_beyond_the_percentile() {
        let mut l = Latencies::default();
        for ms in 1..=200u64 {
            l.push(Duration::from_millis(ms));
        }
        assert_eq!(l.beyond(0.9), 20);
        assert!((l.percentile(0.9) - 180.0).abs() < 1e-9);
        assert!((l.percentile(0.5) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn seeds_are_stable_and_separate_warmup_from_timed_passes() {
        let a = derive_seed(1, "flow", 0, 0);
        assert_eq!(a, derive_seed(1, "flow", 0, 0));
        assert_ne!(a, derive_seed(2, "flow", 0, 0));
        assert_ne!(a, derive_seed(1, "flow", 1, 0));
        assert_ne!(a, derive_seed(1, "flow", WARMUP_PASS_BASE, 0));
        assert!(a < 1 << 48);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let t0 = thread_cpu();
        let p0 = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() >= p0 + (thread_cpu() - t0) / 2);
    }

    #[test]
    fn par_map_keeps_order() {
        let v: Vec<u64> = (0..7).collect();
        assert_eq!(par_map2(&v, |x| x * 10), vec![0, 10, 20, 30, 40, 50, 60]);
    }
}
