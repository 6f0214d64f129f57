//! Small measurement helpers: percentiles, digests, a seeded RNG, the
//! peak-RSS probe and the metric record every workload fills in.

use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the workload record.
    pub name: &'static str,
    /// Unit, e.g. `us`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// The value of `name`, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Append every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Counts of checked operations and the reasons of those that failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Failure messages, one per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one checked operation; `Err` counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failures.push(message);
        }
    }

    /// Add every operation checked in `other`.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Part {
    /// `setup_s`, `throughput_per_s`, `latency_us_p50`.
    pub e2e: Metrics,
    /// The workload's end-to-end figures under their own names.
    pub named: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Checked operations and failures.
    pub checks: Checks,
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank method, or
/// `NaN` when there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of `samples` leaving out their largest tenth: interference
/// from outside the process only ever adds time, in bursts.
#[must_use]
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len() - sorted.len() / 10);
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// Microseconds elapsed since `start`.
#[must_use]
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// 64-bit FNV-1a digest of `bytes`.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `SplitMix64`: a tiny seeded generator for building workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cores this host offers the process.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert!(median(&[]).is_nan());
        assert_eq!(trimmed_mean(&samples), 45.5);
    }

    #[test]
    fn rng_repeats_for_a_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
