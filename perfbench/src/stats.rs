//! Small numeric helpers and the result record every workload returns.

use std::time::Duration;

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples; 0 for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` in `(0, 1)`: a mean of all order
/// statistics, the `i`-th of `n` weighted by the mass that the
/// Beta(q(n+1), (1−q)(n+1)) distribution puts on `((i−1)/n, i/n)`. Unlike
/// one or two order statistics it moves smoothly when samples cluster with
/// a gap near the quantile, as proof times do: a `dc-prove` batch holds a
/// few groups of similar instances, and its p75 falls between two of them.
/// The Beta density is integrated numerically (32 midpoints per interval)
/// and the weights normalised. Needs `q(n+1) ≥ 1` and `(1−q)(n+1) ≥ 1`, which
/// every tail with ten samples beyond it meets.
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    const STEPS: usize = 32;
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let cells = (n * STEPS) as f64;
    let log_pdf = |k: usize| {
        let x = (k as f64 + 0.5) / cells;
        (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
    };
    let top = (0..n * STEPS)
        .map(log_pdf)
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let w: f64 = (i * STEPS..(i + 1) * STEPS)
            .map(|k| (log_pdf(k) - top).exp())
            .sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99, p95, p90 and p75 with at least ten samples beyond
/// it, else the median: `(label, quantile)`.
pub fn tail_quantile(n: usize) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            return (label, q);
        }
    }
    ("p50", 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one workload run reports: the failure count against the attempts,
/// the correctness verdict, and its metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Violations of the benchmark's correctness checks, one line each.
    pub violations: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-operation latencies in ms, in operation order (for the record).
    pub ops_ms: Vec<f64>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The latency metrics every workload reports over its operations:
    /// median, tail (see [`tail_quantile`]; a [`harrell_davis`] estimate,
    /// or the median when there are too few operations for a tail) and
    /// operations per minute of measured wall time.
    pub fn latencies(&mut self, samples_ms: &[f64], wall_s: f64) {
        let (label, q) = tail_quantile(samples_ms.len());
        eprintln!(
            "perfbench: {} operations, tail_ms is the {label}",
            samples_ms.len()
        );
        self.put("p50_ms", median(samples_ms), "ms");
        let tail = if q > 0.5 {
            harrell_davis(samples_ms, q)
        } else {
            median(samples_ms)
        };
        self.put("tail_ms", tail, "ms");
        self.put(
            "ops_per_min",
            ratio(samples_ms.len() as f64 * 60.0, wall_s),
            "1/min",
        );
        self.ops_ms = samples_ms.to_vec();
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn violation(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.violations.push(msg);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64, the digest the benchmark uses for instance fingerprints.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }
}

/// Splitmix64 step: the benchmark's only source of randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
