//! Host-speed calibration.
//!
//! The reference box is a shared VM. A fixed computation there runs
//! 1.05× to 2.1× its best time in phases lasting from seconds to
//! minutes, in CPU time as well as wall time, so one run can sit wholly
//! in a slow phase and the next in a fast one. Each run therefore times
//! a fixed probe between its ops — code of the benchmark's own, which no
//! change to the program under test can speed up or slow down — and
//! scales its time figures to a host on which the probe takes
//! [`PROBE_REF_MS`]. An op's time is scaled by the probe run next after
//! it on its thread ([`ScaledOps`]), a rate by the phase's time-weighted
//! scale, set-up time by the median of the set-up's probes
//! ([`HostSpeed`]). The raw figures are printed on each run's summary
//! line and the probe's median is the per-layer metric `host.probe_ms`.

use crate::report::Outcome;
use crate::stats::{median, thread_cpu, Latencies};
use std::cell::RefCell;
use std::time::Duration;

/// The probe's time on the reference box in a quiet phase, in ms of
/// thread CPU time. A pure unit: figures are scaled to a host this fast.
pub const PROBE_REF_MS: f64 = 1.1;

/// Words in the probe's table: 128 KiB, inside any core's L2.
const TABLE_WORDS: usize = 1 << 14;
const PROBE_STEPS: u32 = 400_000;

thread_local! {
    /// Each thread's probe table, allocated once so that no probe pays
    /// for page faults.
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; TABLE_WORDS]);
}

/// Run the probe once on this thread; returns its thread CPU time in ms.
/// The table is pulled back into the cache first, untimed, so the probe
/// does not time how much of it the preceding op evicted.
pub fn probe_ms() -> f64 {
    TABLE.with(|t| {
        let mut table = t.borrow_mut();
        for w in table.iter_mut() {
            *w = w.wrapping_add(1);
        }
        let start = thread_cpu();
        std::hint::black_box(probe(&mut table));
        (thread_cpu() - start).as_secs_f64() * 1e3
    })
}

/// Probe timings of one run (or one thread of it).
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Run the probe once on this thread and record its time.
    pub fn sample(&mut self) {
        self.samples_ms.push(probe_ms());
    }

    /// Record a probe time measured elsewhere.
    pub fn push(&mut self, ms: f64) {
        self.samples_ms.push(ms);
    }

    /// Add another recorder's samples (another thread of the run).
    pub fn merge(&mut self, other: HostSpeed) {
        self.samples_ms.extend(other.samples_ms);
    }

    /// Total time spent probing, in seconds.
    pub fn probe_s(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / 1e3
    }

    /// Median probe time in ms.
    pub fn probe_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Factor that turns a time measured in this run into one on the
    /// reference host: below 1 when the host ran slow.
    pub fn scale(&self) -> f64 {
        PROBE_REF_MS / self.probe_ms()
    }

    /// The probe's median and sample count, for a summary line.
    pub fn summary(&self) -> String {
        format!(
            "probe median {:.4} ms over {} samples, scale {:.4}",
            self.probe_ms(),
            self.samples_ms.len(),
            self.scale()
        )
    }
}

/// Op times of a timed phase (of one thread, until merged). Each op's
/// time is also scaled to the reference host by the probe run next
/// after it on the same thread, so an op that ran in a slow phase is
/// scaled by that phase's probe rather than by the run's.
#[derive(Debug, Default)]
pub struct ScaledOps {
    /// As measured.
    pub raw: Latencies,
    /// Scaled to the reference host.
    pub scaled: Latencies,
    pub host: HostSpeed,
    /// Ops waiting for the next probe.
    pending: Vec<Duration>,
}

impl ScaledOps {
    pub fn push(&mut self, d: Duration) {
        self.raw.push(d);
        self.pending.push(d);
    }

    /// Probe on this thread; the ops pushed since the last probe take
    /// its scale.
    pub fn probe(&mut self) {
        self.record_probe(probe_ms());
    }

    /// Like [`ScaledOps::probe`], for a probe the op's own thread ran.
    pub fn record_probe(&mut self, ms: f64) {
        self.host.push(ms);
        let k = PROBE_REF_MS / ms;
        for d in self.pending.drain(..) {
            self.scaled.push(d.mul_f64(k));
        }
    }

    /// Probe once more if ops still wait for a scale.
    pub fn finish(&mut self) {
        if !self.pending.is_empty() {
            self.probe();
        }
    }

    /// Add another thread's ops and probes.
    pub fn merge(&mut self, mut other: ScaledOps) {
        other.finish();
        self.raw.extend(&other.raw);
        self.scaled.extend(&other.scaled);
        self.host.merge(other.host);
    }

    /// Scaled over raw op time: the factor a rate of this phase is
    /// divided by.
    pub fn scale(&self) -> f64 {
        self.scaled.sum_ms() / self.raw.sum_ms()
    }
}

/// Set `ops_per_s` from a timed phase's raw rate, and `op_p50_ms` and
/// `op_p90_ms` from its ops, all scaled to the reference host; set
/// `host.probe_ms`. Returns the raw figures for the run's summary line.
pub fn set_op_metrics(out: &mut Outcome, raw_ops_per_s: f64, ops: &mut ScaledOps) -> String {
    ops.finish();
    let k = ops.scale();
    out.set("ops_per_s", raw_ops_per_s / k);
    out.set("op_p50_ms", ops.scaled.percentile(0.5));
    out.set("op_p90_ms", ops.scaled.percentile(0.9));
    out.set("host.probe_ms", ops.host.probe_ms());
    format!(
        "raw ops_per_s {raw_ops_per_s:.3} op_p50_ms {:.4} op_p90_ms {:.4}; {}, time-weighted scale {k:.4}",
        ops.raw.percentile(0.5),
        ops.raw.percentile(0.9),
        ops.host.summary()
    )
}

/// A fixed mix of integer arithmetic and data-dependent loads and
/// stores over an L2-resident table — the kinds of work the cache
/// simulator, the branch & bound and the service's JSON handling do.
fn probe(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
        acc = acc.wrapping_add(table[i.wrapping_mul(7) & mask]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_scale_is_inverse_to_its_time() {
        let (mut a, mut b) = (vec![0; TABLE_WORDS], vec![0; TABLE_WORDS]);
        assert_eq!(probe(&mut a), probe(&mut b));
        let mut h = HostSpeed::default();
        h.samples_ms = vec![2.2, 1.1, 3.3];
        assert!((h.scale() - PROBE_REF_MS / 2.2).abs() < 1e-12);
        let mut other = HostSpeed::default();
        other.sample();
        h.merge(other);
        assert_eq!(h.samples_ms.len(), 4);
        assert!(h.probe_s() > 6.6e-3);
    }

    #[test]
    fn ops_take_the_scale_of_the_next_probe() {
        let ms = Duration::from_millis;
        let mut a = ScaledOps::default();
        a.push(ms(10));
        a.push(ms(20));
        a.record_probe(2.0 * PROBE_REF_MS);
        a.push(ms(40));
        a.record_probe(PROBE_REF_MS);
        assert!((a.scaled.sum_ms() - (15.0 + 40.0)).abs() < 1e-9);
        assert!((a.raw.sum_ms() - 70.0).abs() < 1e-9);
        assert!((a.scale() - 55.0 / 70.0).abs() < 1e-12);
        let mut b = ScaledOps::default();
        b.push(ms(5));
        a.merge(b);
        assert_eq!((a.raw.len(), a.scaled.len()), (4, 4));
    }
}
