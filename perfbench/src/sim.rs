//! The simulator workloads: `Engine::try_with_options` and `Engine::step`
//! timed from outside, below saturation, with every run checked.
//!
//! A run is a series of *episodes*. Each builds the engine and steps
//! through the warm-up (together the set-up time), then times a fixed
//! number of cycles in blocks. Because every episode simulates the same cycles of
//! the same config, their `SimResult`s must be byte-identical; a serial
//! episode of the same config must match as well.

use std::hint::black_box;
use std::time::Instant;

use icn_sim::{ChipModel, Engine, EngineOptions, SimConfig, SimResult};
use icn_topology::StagePlan;
use icn_workloads::Workload;

use crate::stats::{digest, median, micros_since, quantile, trimmed_mean, Part};

/// A live-packet count in the second half of the timed cycles may exceed
/// the first half's by this share (plus [`STEADY_SLACK`] packets) before
/// the run counts as saturated: past saturation the backlog, and with it
/// the cost of a cycle, grows for as long as the run lasts.
pub const STEADY_MARGIN: f64 = 0.10;

/// Absolute slack of the steady-state guard, in packets.
pub const STEADY_SLACK: f64 = 16.0;

/// One simulator workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Network ports.
    pub ports: u32,
    /// Offered load per port per cycle.
    pub load: f64,
    /// Engine shard threads.
    pub threads: usize,
    /// Untimed cycles stepped before timing starts.
    pub warmup: u64,
    /// Timed cycles per episode.
    pub measure: u64,
    /// Cycles per timed block (one latency sample).
    pub block: u64,
}

impl SimSpec {
    /// §6 network: 2048 ports, 16×16 DMC chips, W=4, P=100, load 0.01
    /// (ρ≈0.25), serial.
    #[must_use]
    pub fn paper2048() -> Self {
        Self {
            ports: 2048,
            load: 0.01,
            threads: 1,
            warmup: 1_000,
            measure: 6_000,
            block: 600,
        }
    }

    /// 256 ports, 2 stages, the same chip and per-port load, 2 threads.
    #[must_use]
    pub fn small256_2t() -> Self {
        Self {
            ports: 256,
            load: 0.01,
            threads: 2,
            warmup: 1_000,
            measure: 30_000,
            block: 3_000,
        }
    }

    /// A small network for tests and for the sim-layer probe of traced
    /// runs of other workloads.
    #[must_use]
    pub fn tiny(threads: usize) -> Self {
        Self {
            ports: 256,
            load: 0.01,
            threads,
            warmup: 200,
            measure: 1_000,
            block: 50,
        }
    }

    /// The simulation config for `seed`. The measurement window covers
    /// every cycle the episode steps; no drain phase is simulated.
    ///
    /// # Panics
    /// Panics if `ports` is not a power of two.
    #[must_use]
    pub fn config(&self, seed: u64) -> SimConfig {
        let plan = StagePlan::balanced_pow2(self.ports, 16).expect("ports is a power of two");
        let mut config =
            SimConfig::paper_baseline(plan, ChipModel::Dmc, 4, Workload::uniform(self.load));
        config.seed = seed;
        config.warmup_cycles = self.warmup;
        config.measure_cycles = self.measure;
        config.drain_cycles = 0;
        config
    }
}

/// What one episode measured.
struct Episode {
    /// `Engine::try_with_options` alone.
    build_s: f64,
    /// Build plus warm-up: the time until timing can start. The build
    /// alone takes microseconds and its cost depends on the allocator's
    /// state in the process, which differs from process to process.
    setup_s: f64,
    /// Host µs per simulated cycle, one sample per timed block.
    block_us: Vec<f64>,
    /// Host µs of each timed `Engine::step` (traced runs only).
    step_us: Vec<f64>,
    timed_s: f64,
    delivered_timed: u64,
    /// `live_packets` after each timed block.
    live: Vec<u64>,
    result: SimResult,
}

fn episode(
    spec: &SimSpec,
    config: &SimConfig,
    threads: usize,
    trace: bool,
) -> Result<Episode, String> {
    let start = Instant::now();
    let mut engine = Engine::try_with_options(config.clone(), EngineOptions::threaded(threads))
        .map_err(|e| format!("engine build failed: {e}"))?;
    let build_s = start.elapsed().as_secs_f64();
    for _ in 0..spec.warmup {
        engine.step();
    }
    let setup_s = start.elapsed().as_secs_f64();
    let delivered_before = engine.delivered_total();
    let blocks = (spec.measure / spec.block).max(1);
    let mut block_us = Vec::with_capacity(blocks as usize);
    let mut step_us = Vec::new();
    let mut live = Vec::with_capacity(blocks as usize);
    let mut timed_s = 0.0;
    for _ in 0..blocks {
        let start = Instant::now();
        if trace {
            for _ in 0..spec.block {
                let step_start = Instant::now();
                engine.step();
                step_us.push(micros_since(step_start));
            }
        } else {
            for _ in 0..spec.block {
                engine.step();
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        timed_s += elapsed;
        block_us.push(elapsed * 1e6 / spec.block as f64);
        live.push(engine.live_packets());
    }
    let delivered_timed = engine.delivered_total() - delivered_before;
    Ok(Episode {
        build_s,
        setup_s,
        block_us,
        step_us,
        timed_s,
        delivered_timed,
        live,
        result: black_box(engine.finish()),
    })
}

/// The steady-state guard: fail when the mean live-packet count of the
/// second half of the samples exceeds the first half's by more than
/// [`STEADY_MARGIN`] plus [`STEADY_SLACK`].
///
/// # Errors
/// Returns a message naming both means when the backlog grows.
pub fn steady(live: &[u64]) -> Result<(), String> {
    let half = live.len() / 2;
    if half == 0 {
        return Ok(());
    }
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let (first, second) = (mean(&live[..half]), mean(&live[half..]));
    if second > first * (1.0 + STEADY_MARGIN) + STEADY_SLACK {
        return Err(format!(
            "not steady: mean live packets grew from {first:.0} to {second:.0} between the halves of the run"
        ));
    }
    Ok(())
}

fn result_digest(result: &SimResult) -> Result<u64, String> {
    serde_json::to_string(result)
        .map(|json| digest(json.as_bytes()))
        .map_err(|e| format!("serializing SimResult: {e}"))
}

/// Check one episode: conservation, no stall, steady state, and the
/// result digest equal to `reference` (set by the first episode).
fn check(ep: &Episode, reference: &mut Option<u64>) -> Result<(), String> {
    if !ep.result.conservation_ok() {
        return Err("conservation failed".to_string());
    }
    if let Some(stall) = &ep.result.stall {
        return Err(format!("watchdog stall: {stall:?}"));
    }
    steady(&ep.live)?;
    let got = result_digest(&ep.result)?;
    match *reference {
        None => *reference = Some(got),
        Some(want) if want != got => {
            return Err(format!(
                "SimResult digest {got:016x} differs from {want:016x}"
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Run a simulator workload for about `seconds` of timed cycles (at least
/// two episodes), then one serial reference episode.
#[must_use]
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, trace: bool) -> Part {
    let config = spec.config(seed);
    let mut out = Part::default();
    let mut reference = None;
    let mut episodes = Vec::new();
    let mut timed_s = 0.0;
    while timed_s < seconds || episodes.len() < 2 {
        match episode(spec, &config, spec.threads, trace) {
            Ok(ep) => {
                out.checks.record(check(&ep, &mut reference));
                timed_s += ep.timed_s;
                episodes.push(ep);
            }
            Err(e) => {
                out.checks.record(Err(e));
                break;
            }
        }
    }
    let serial = episode(spec, &config, 1, trace);
    out.checks.record(
        serial
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|ep| check(ep, &mut reference).map_err(|e| format!("serial reference: {e}"))),
    );
    if episodes.is_empty() {
        return out;
    }

    let setups: Vec<f64> = episodes.iter().map(|ep| ep.setup_s).collect();
    let blocks: Vec<f64> = episodes
        .iter()
        .flat_map(|ep| ep.block_us.iter().copied())
        .collect();
    let throughput = 1e6 / trimmed_mean(&blocks);
    out.e2e.put("setup_s", "s", median(&setups));
    out.e2e.put("throughput_per_s", "1/s", throughput);
    out.e2e.put("latency_us_p50", "us", median(&blocks));
    out.named.put("sim_cycles_per_s", "1/s", throughput);

    if trace {
        let steps: Vec<f64> = episodes
            .iter()
            .flat_map(|ep| ep.step_us.iter().copied())
            .collect();
        let step_p50 = median(&steps);
        let step_total_ns: f64 = steps.iter().sum::<f64>() * 1e3;
        let delivered: u64 = episodes.iter().map(|ep| ep.delivered_timed).sum();
        let input_ports = f64::from(spec.ports) * f64::from(config.plan.stages());
        let serial_p50 = serial.as_ref().map_or(f64::NAN, |ep| median(&ep.step_us));
        let first = &episodes[0].result;
        let l = &mut out.layers;
        l.put("sim.step_us_p50", "us", step_p50);
        l.put("sim.step_us_p99", "us", quantile(&steps, 0.99));
        l.put("sim.ns_per_port_cycle", "ns", step_p50 * 1e3 / input_ports);
        l.put(
            "sim.ns_per_delivered",
            "ns",
            step_total_ns / delivered.max(1) as f64,
        );
        let builds: Vec<f64> = episodes.iter().map(|ep| ep.build_s).collect();
        l.put("sim.build_ms", "ms", median(&builds) * 1e3);
        l.put("sim.serial_step_us_p50", "us", serial_p50);
        l.put("sim.parallel_speedup", "x", serial_p50 / step_p50);
        l.put("sim.injected", "count", first.injected_total as f64);
        l.put("sim.delivered", "count", first.delivered_total as f64);
        l.put(
            "sim.delivered_ratio",
            "ratio",
            first.delivered_total as f64 / first.injected_total.max(1) as f64,
        );
        l.put(
            "sim.latency_p50_cycles",
            "cycles",
            first.total_latency.p50 as f64,
        );
        l.put(
            "sim.peak_source_backlog",
            "count",
            first.peak_source_backlog as f64,
        );
    }
    out
}
