//! The perf-regression harness behind `icn bench`.
//!
//! It measures simulated cycles per wall-clock second for a fixed case
//! list, records baselines in `BENCH_PR3.json`, and fails CI when
//! throughput regresses by more than [`REGRESSION_TOLERANCE`].
//!
//! The cases: the §6 paper-scale 2048-port W=4 DMC network under
//! moderate uniform load, plus a 256-port smoke case small enough for a
//! CI gate. Both run the exact [`Engine::run`] loop the experiments use —
//! no special bench path, so a regression here is a regression
//! everywhere.

use std::collections::BTreeMap;
use std::time::Instant;

use icn_sim::{ChipModel, Engine, EngineOptions, SimConfig};
use icn_topology::StagePlan;
use icn_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Throughput may drop to `(1 − REGRESSION_TOLERANCE)` × baseline before
/// the check fails (noisy shared CI runners need headroom; a real
/// hot-path regression overshoots 25% easily).
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Default baseline path, relative to the invoking directory (the repo
/// root in CI).
pub const DEFAULT_BASELINE: &str = "BENCH_PR3.json";

/// One named benchmark case.
pub struct BenchCase {
    /// Stable name, the key in the baseline file.
    pub name: &'static str,
    /// Whether the case is cheap enough for the CI smoke gate.
    pub smoke: bool,
    /// The configuration to run.
    pub config: SimConfig,
}

/// The simulation config the throughput benches share: a W=4 DMC
/// network of 16×16 chips under uniform load, fixed cycle budget, no
/// warmup or drain (so every run simulates exactly `cycles` cycles).
///
/// # Panics
/// Panics if `ports` is not a power of two.
#[must_use]
pub fn sim_config(ports: u32, load: f64, cycles: u64) -> SimConfig {
    let plan = StagePlan::balanced_pow2(ports, 16).expect("power of two");
    let mut c = SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(load));
    c.warmup_cycles = 0;
    c.measure_cycles = cycles;
    c.drain_cycles = 0;
    c
}

/// The guarded case list.
#[must_use]
pub fn cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "smoke_256",
            smoke: true,
            config: sim_config(256, 0.02, 2_000),
        },
        BenchCase {
            name: "dmc2048_w4_load2",
            smoke: false,
            config: sim_config(2048, 0.02, 2_000),
        },
    ]
}

/// The machine's available parallelism, recorded alongside every
/// measurement so BENCH_*.json numbers are interpretable across hosts
/// (a 4-thread number from a 1-core container is not a 4-thread number
/// from a 16-core workstation).
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One measurement: the best (fastest) of N runs, reported as simulated
/// cycles per wall-clock second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Case name.
    pub name: String,
    /// Network ports.
    pub ports: u32,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// Wall-clock seconds of the fastest run.
    pub best_secs: f64,
    /// `cycles / best_secs`.
    pub cycles_per_sec: f64,
    /// Engine shard threads the run used (1 = serial).
    #[serde(default)]
    pub threads: usize,
    /// Cores available on the measuring host.
    #[serde(default)]
    pub host_cores: usize,
}

/// Measure one case serially: run it `iters` times and keep the fastest
/// run (minimum wall time is the standard noise-robust estimator for a
/// deterministic workload).
///
/// # Panics
/// Panics if `iters` is zero.
#[must_use]
pub fn measure(case: &BenchCase, iters: u32) -> Measurement {
    measure_with_threads(case, iters, 1)
}

/// [`measure`] with a shard-thread budget: the run is the exact
/// [`Engine::run`] loop under [`EngineOptions::threaded`], so the number
/// is the throughput a `--threads N` user actually gets.
///
/// # Panics
/// Panics if `iters` is zero.
#[must_use]
pub fn measure_with_threads(case: &BenchCase, iters: u32, threads: usize) -> Measurement {
    assert!(iters >= 1, "need at least one iteration");
    let options = EngineOptions::threaded(threads);
    let mut best_secs = f64::INFINITY;
    let mut cycles = 0;
    let mut resolved_threads = threads.max(1);
    for _ in 0..iters {
        let config = case.config.clone();
        let start = Instant::now();
        let engine = Engine::try_with_options(config, options).expect("bench cases are valid");
        resolved_threads = engine.threads();
        let result = engine.run();
        let secs = start.elapsed().as_secs_f64();
        cycles = result.cycles_run;
        best_secs = best_secs.min(secs);
    }
    Measurement {
        name: case.name.to_string(),
        ports: case.config.plan.ports(),
        cycles,
        best_secs,
        cycles_per_sec: cycles as f64 / best_secs,
        threads: resolved_threads,
        host_cores: host_cores(),
    }
}

/// One recorded baseline number.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Engine shard threads the baseline was recorded at. `0` marks a
    /// record written before threads were tracked — everything pre-PR-8
    /// was serial, so read it through [`BaselineEntry::recorded_threads`].
    #[serde(default)]
    pub threads: usize,
    /// Cores on the recording host (0 = unknown, for old records).
    #[serde(default)]
    pub host_cores: usize,
}

impl BaselineEntry {
    /// The thread budget this entry was recorded at, normalizing the
    /// pre-PR-8 "field absent" sentinel (0) to serial.
    #[must_use]
    pub fn recorded_threads(self) -> usize {
        self.threads.max(1)
    }
}

/// Whether a measurement and a baseline entry have the same execution
/// shape — the regression gate compares like-for-like only: a 4-thread
/// run must never be gated against a serial baseline (or vice versa).
/// Host core counts are recorded for cross-machine interpretation but
/// not matched, since CI runners legitimately vary.
#[must_use]
pub fn comparable(m: &Measurement, baseline: BaselineEntry) -> bool {
    m.threads.max(1) == baseline.recorded_threads()
}

/// The `BENCH_PR3.json` schema: cycles/sec per case, before and after
/// the PR-3 hot-path optimization. The regression gate compares against
/// `after` (the current engine's expected throughput); `before` is kept
/// as the recorded evidence of the optimization win.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Human note: machine, command, context.
    #[serde(default)]
    pub note: String,
    /// Pre-optimization numbers.
    #[serde(default)]
    pub before: BTreeMap<String, BaselineEntry>,
    /// Post-optimization numbers — the gate's reference.
    #[serde(default)]
    pub after: BTreeMap<String, BaselineEntry>,
}

impl BaselineFile {
    /// Parse a baseline file.
    ///
    /// # Errors
    /// Returns a description of the IO or JSON failure.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    }

    /// Write the baseline file (pretty-printed, trailing newline).
    ///
    /// # Errors
    /// Returns a description of the IO failure.
    pub fn store(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).expect("baselines serialize");
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
    }

    /// The named section, mutable (`"before"` or `"after"`).
    ///
    /// # Errors
    /// Rejects unknown section names.
    pub fn section_mut(
        &mut self,
        section: &str,
    ) -> Result<&mut BTreeMap<String, BaselineEntry>, String> {
        match section {
            "before" => Ok(&mut self.before),
            "after" => Ok(&mut self.after),
            other => Err(format!(
                "unknown baseline section `{other}` (want before|after)"
            )),
        }
    }
}

/// Compare a measurement against its `after` baseline. `Ok` carries the
/// measured/baseline ratio; `Err` describes a >25% regression.
///
/// # Errors
/// Returns the failure message when the measurement falls below
/// `(1 − REGRESSION_TOLERANCE)` × baseline.
pub fn check_regression(m: &Measurement, baseline: BaselineEntry) -> Result<f64, String> {
    let ratio = m.cycles_per_sec / baseline.cycles_per_sec;
    if ratio < 1.0 - REGRESSION_TOLERANCE {
        Err(format!(
            "{}: {:.0} cycles/sec is {:.1}% of the {:.0} cycles/sec baseline \
             (tolerance {:.0}%)",
            m.name,
            m.cycles_per_sec,
            ratio * 100.0,
            baseline.cycles_per_sec,
            (1.0 - REGRESSION_TOLERANCE) * 100.0
        ))
    } else {
        Ok(ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_case_measures_nonzero_throughput() {
        let mut case = cases().into_iter().find(|c| c.smoke).expect("smoke case");
        // Shrink far below the real smoke budget: this test checks the
        // harness plumbing, not the machine's speed.
        case.config.measure_cycles = 50;
        let m = measure(&case, 1);
        assert_eq!(m.cycles, 50);
        assert!(m.cycles_per_sec > 0.0);
        assert_eq!(m.ports, 256);
        assert_eq!(m.threads, 1);
        assert!(m.host_cores >= 1);
    }

    #[test]
    fn threaded_measurement_records_its_budget() {
        let mut case = cases().into_iter().find(|c| c.smoke).expect("smoke case");
        case.config.measure_cycles = 50;
        let m = measure_with_threads(&case, 1, 2);
        assert_eq!(m.cycles, 50);
        assert_eq!(m.threads, 2);
        assert!(m.host_cores >= 1);
    }

    fn entry(cycles_per_sec: f64, threads: usize) -> BaselineEntry {
        BaselineEntry {
            cycles_per_sec,
            threads,
            host_cores: 0,
        }
    }

    fn measurement(cycles_per_sec: f64, threads: usize) -> Measurement {
        Measurement {
            name: "x".into(),
            ports: 256,
            cycles: 1000,
            best_secs: 1.0,
            cycles_per_sec,
            threads,
            host_cores: 8,
        }
    }

    #[test]
    fn regression_gate_trips_beyond_tolerance() {
        let m = measurement(1000.0, 1);
        assert!(check_regression(&m, entry(1000.0, 1)).is_ok());
        assert!(check_regression(&m, entry(1400.0, 1)).is_err());
        assert!((check_regression(&m, entry(500.0, 1)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gate_comparability_is_like_for_like_on_threads() {
        let serial = measurement(1000.0, 1);
        let threaded = measurement(3000.0, 4);
        assert!(comparable(&serial, entry(900.0, 1)));
        assert!(!comparable(&serial, entry(3000.0, 4)));
        assert!(comparable(&threaded, entry(3000.0, 4)));
        assert!(!comparable(&threaded, entry(900.0, 1)));
    }

    /// Pre-PR-8 baseline files carry no threads/host_cores fields; they
    /// must parse as serial records so BENCH_PR3.json keeps gating.
    #[test]
    fn old_baseline_records_parse_as_serial() {
        let json = r#"{"after": {"smoke_256": {"cycles_per_sec": 123.0}}}"#;
        let file: BaselineFile = serde_json::from_str(json).unwrap();
        let entry = file.after["smoke_256"];
        assert_eq!(entry.recorded_threads(), 1);
        assert_eq!(entry.host_cores, 0);
        // …and a serial measurement still gates against it.
        assert!(comparable(&measurement(100.0, 1), entry));
        assert!(!comparable(&measurement(100.0, 4), entry));
    }

    #[test]
    fn baseline_sections_round_trip() {
        let mut file = BaselineFile {
            note: "test".into(),
            ..Default::default()
        };
        file.section_mut("before").unwrap().insert(
            "smoke_256".into(),
            BaselineEntry {
                cycles_per_sec: 123.0,
                threads: 2,
                host_cores: 4,
            },
        );
        assert!(file.section_mut("sideways").is_err());
        let json = serde_json::to_string(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.before["smoke_256"].cycles_per_sec, 123.0);
        assert_eq!(back.before["smoke_256"].threads, 2);
        assert!(back.after.is_empty());
    }
}
