//! The explorer workload: `icn_explore::explore` over a fixed grid,
//! repeated for the run length, plus its layers (`GridSpec::candidate`,
//! `Evaluator::evaluate`, `Frontier::insert`) timed one by one.

use std::hint::black_box;
use std::time::Instant;

use icn_core::pareto::Frontier;
use icn_explore::{
    explore, resolve_techs, Evaluator, ExploreOptions, ExploreOutcome, GridSpec, DEFAULT_CHUNK,
    OBJECTIVES,
};
use icn_sim::WorkerPool;

use crate::stats::{median, micros_since, trimmed_mean, Metrics, Part, Rng};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 500;

/// Candidates enumerated for `explore.enumerate_ns`.
const ENUMERATE_SAMPLE: u64 = 1 << 18;

/// Shards of the reference exploration that every run must equal. The
/// timed explorations run serially: at 2 threads on a 2-core host, CPU
/// stolen from either core by the host stalls every wave of the run.
const REFERENCE_THREADS: usize = 2;

/// One explorer workload.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The grid explored.
    pub grid: GridSpec,
    /// The frontier size the grid is known to have, if pinned.
    pub frontier_size: Option<usize>,
}

impl ExploreSpec {
    /// `GridSpec::million()` (1,163,520 candidates); its Pareto frontier
    /// has exactly 64 points.
    #[must_use]
    pub fn million() -> Self {
        Self {
            grid: GridSpec::million(),
            frontier_size: Some(64),
        }
    }

    /// `GridSpec::bench()` (~5k candidates), for tests and for the
    /// explorer-layer probe of traced runs of other workloads.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            grid: GridSpec::bench(),
            frontier_size: None,
        }
    }
}

/// Exploration options at `threads` shards, without spot checks.
fn options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        chunk: DEFAULT_CHUNK,
        spot_checks: 0,
    }
}

fn check(
    outcome: &ExploreOutcome,
    spec: &ExploreSpec,
    reference: &ExploreOutcome,
) -> Result<(), String> {
    if let Some(want) = spec.frontier_size {
        if outcome.frontier.len() != want {
            return Err(format!(
                "frontier has {} points, want {want}",
                outcome.frontier.len()
            ));
        }
    }
    if outcome != reference {
        return Err("frontier differs from the first exploration".to_string());
    }
    Ok(())
}

/// Run the explorer workload for about `seconds` of serial explorations
/// (at least two), then one reference exploration at
/// [`REFERENCE_THREADS`].
#[must_use]
pub fn run(spec: &ExploreSpec, seed: u64, seconds: f64, trace: bool) -> Part {
    let mut out = Part::default();
    let grid = &spec.grid;
    let total = match grid.candidate_count() {
        Ok(total) => total,
        Err(e) => {
            out.checks.record(Err(format!("grid: {e}")));
            return out;
        }
    };

    // Set-up as `explore` does it at REFERENCE_THREADS: resolve the
    // technologies, spawn the pool and wait until every shard has run
    // once; the pool's threads are joined before the next repetition.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let techs = resolve_techs(grid);
        let pool = WorkerPool::new(REFERENCE_THREADS - 1);
        pool.broadcast(&|shard| {
            black_box(shard);
        });
        setups.push(start.elapsed().as_secs_f64());
        drop(pool);
        if let Err(e) = black_box(techs) {
            out.checks
                .record(Err(format!("resolving technologies: {e}")));
            return out;
        }
    }

    let serial = options(1);
    let mut walls = Vec::new();
    let mut first: Option<ExploreOutcome> = None;
    let mut timed_s = 0.0;
    while timed_s < seconds || walls.len() < 2 {
        let start = Instant::now();
        let result = explore(grid, &serial, None);
        let wall = start.elapsed().as_secs_f64();
        match result {
            Ok(outcome) => {
                timed_s += wall;
                walls.push(wall);
                let reference = first.get_or_insert_with(|| outcome.clone());
                out.checks.record(check(&outcome, spec, reference));
            }
            Err(e) => {
                out.checks.record(Err(e));
                return out;
            }
        }
    }
    let Some(first) = first else { return out };
    let start = Instant::now();
    let parallel = explore(grid, &options(REFERENCE_THREADS), None);
    let parallel_wall = start.elapsed().as_secs_f64();
    out.checks.record(parallel.and_then(|parallel| {
        check(&parallel, spec, &first).map_err(|e| format!("parallel reference: {e}"))
    }));

    let throughput = total as f64 / trimmed_mean(&walls);
    let walls_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    out.e2e.put("setup_s", "s", median(&setups));
    out.e2e.put("throughput_per_s", "1/s", throughput);
    out.e2e.put("latency_us_p50", "us", median(&walls_us));
    out.named.put("candidates_per_s", "1/s", throughput);

    if trace {
        match layers(spec, seed, total, parallel_wall, &first) {
            Ok(layers) => {
                out.layers = layers;
                out.checks.record(Ok(()));
            }
            Err(e) => out.checks.record(Err(e)),
        }
    }
    out
}

/// Time the explorer's layers one by one over the whole grid, serially.
fn layers(
    spec: &ExploreSpec,
    seed: u64,
    total: u64,
    parallel_wall_s: f64,
    outcome: &ExploreOutcome,
) -> Result<Metrics, String> {
    let grid = &spec.grid;
    let sample = ENUMERATE_SAMPLE.min(total);
    let offset = Rng::new(seed).below(total);
    let start = Instant::now();
    for i in 0..sample {
        black_box(grid.candidate((offset + i) % total));
    }
    let enumerate_ns = micros_since(start) * 1e3 / sample as f64;

    let techs = resolve_techs(grid)?;
    let mut evaluator = Evaluator::new(grid, &techs);
    let mut feasible: Vec<(u64, [f64; OBJECTIVES])> = Vec::new();
    let start = Instant::now();
    for index in 0..total {
        if let Some(point) = evaluator.evaluate(index) {
            feasible.push((index, point.objectives()));
        }
    }
    let evaluate_s = start.elapsed().as_secs_f64();

    let mut frontier: Frontier<(), OBJECTIVES> = Frontier::new();
    let mut accepted = 0u64;
    let start = Instant::now();
    for &(index, objectives) in &feasible {
        accepted += u64::from(frontier.insert(index, objectives, ()));
    }
    let insert_ns = micros_since(start) * 1e3 / feasible.len().max(1) as f64;
    if frontier.len() != outcome.frontier.len() || feasible.len() as u64 != outcome.feasible {
        return Err(format!(
            "serial layer pass found {} feasible and a frontier of {}, explore found {} and {}",
            feasible.len(),
            frontier.len(),
            outcome.feasible,
            outcome.frontier.len()
        ));
    }

    let mut l = Metrics::default();
    l.put("explore.enumerate_ns", "ns", enumerate_ns);
    l.put("explore.evaluate_ns", "ns", evaluate_s * 1e9 / total as f64);
    l.put("explore.frontier_insert_ns", "ns", insert_ns);
    l.put(
        "explore.parallel_efficiency",
        "ratio",
        evaluate_s / (REFERENCE_THREADS as f64 * parallel_wall_s),
    );
    l.put(
        "explore.feasible_ratio",
        "ratio",
        feasible.len() as f64 / total as f64,
    );
    l.put(
        "explore.frontier_accept_ratio",
        "ratio",
        accepted as f64 / feasible.len().max(1) as f64,
    );
    l.put("explore.frontier_size", "count", frontier.len() as f64);
    Ok(l)
}
