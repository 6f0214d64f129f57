//! The repository's benchmark: four workloads that load the simulator,
//! the explorer and the job service, timed from outside through each
//! crate's public functions.
//!
//! An untraced run reports the end-to-end metrics listed in
//! `BENCHMARK.json`; a traced run reports the per-layer metrics. Every
//! output is checked, and a failed check counts as a failed operation.
//! See `README.md` in this directory for the metric definitions.

pub mod explore;
pub mod pool;
pub mod serve;
pub mod sim;
pub mod stats;

use stats::{host_cores, peak_rss_mb, Part};

/// The layer groups a traced run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Sim,
    Explore,
    Serve,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists and which layer it loads.
    pub why: &'static str,
    /// Threads the workload runs with (engine or explorer shards, or
    /// service clients).
    pub threads: usize,
    layer: Layer,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_paper2048",
        why: "Paper-scale serial engine below saturation: per-cycle sweeps over 6,144 input ports dominate, no pool involved; what simulate, the experiments and serve run.",
        threads: 1,
        layer: Layer::Sim,
    },
    Workload {
        name: "sim_small256_2t",
        why: "Small network at 2 engine threads: each cycle is ~15 us split over two WorkerPool broadcasts, so barrier and park/wake cost dominates.",
        threads: 2,
        layer: Layer::Sim,
    },
    Workload {
        name: "explore_million",
        why: "GridSpec::million, serial: the only workload where the closed-form evaluator, chassis memo and Pareto merge (icn-explore, icn-core, icn-phys) do most of the work.",
        threads: 1,
        layer: Layer::Explore,
    },
    Workload {
        name: "serve_mixed",
        why: "Closed loop of 2 clients on the in-process service: http accept, cache, spill, journal and job queue with the engine barely involved; shows the accept and stream polls.",
        threads: 2,
        layer: Layer::Serve,
    },
];

/// Look up a workload by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Run at the small size used by the tests.
    pub tiny: bool,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: &'static Workload,
    /// Its metrics and checks: `e2e` is the `BENCHMARK.json` `end_to_end`
    /// list, `layers` the `per_layer` list (traced runs only).
    pub part: Part,
}

impl Outcome {
    /// Failed operations divided by attempted ones.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.part.checks.failed() as f64 / self.part.checks.attempted.max(1) as f64
    }

    /// Whether the host has fewer cores than the workload's threads, in
    /// which case its numbers are not comparable and it counts as
    /// unmeasured (not failed).
    #[must_use]
    pub fn unmeasured(&self) -> bool {
        host_cores() < self.workload.threads
    }
}

fn run_layer(layer: Layer, threads: usize, p: &Params) -> Part {
    match layer {
        Layer::Sim => {
            let spec = match (p.tiny, threads) {
                (false, 1) => sim::SimSpec::paper2048(),
                (false, _) => sim::SimSpec::small256_2t(),
                (true, _) => sim::SimSpec::tiny(threads),
            };
            sim::run(&spec, p.seed, p.seconds, p.trace)
        }
        Layer::Explore => {
            let spec = if p.tiny {
                explore::ExploreSpec::tiny()
            } else {
                explore::ExploreSpec::million()
            };
            explore::run(&spec, p.seed, p.seconds, p.trace)
        }
        Layer::Serve => {
            let spec = if p.tiny {
                serve::ServeSpec::tiny()
            } else {
                serve::ServeSpec::mixed()
            };
            serve::run(&spec, p.seed, p.seconds, p.trace)
        }
    }
}

/// Seconds of the small probe that measures, in a traced run, the layers
/// the workload itself does not load.
const PROBE_SECONDS: f64 = 0.3;

/// Run one workload.
///
/// A traced run also times `WorkerPool::broadcast` at the workload's
/// thread count, and measures each layer group the workload does not load
/// on a small fixed probe (the same input on every workload), so every
/// traced run reports every per-layer metric.
#[must_use]
pub fn run(workload: &'static Workload, p: &Params) -> Outcome {
    let mut part = run_layer(workload.layer, workload.threads, p);
    if p.trace {
        let throughput = part.e2e.get("throughput_per_s").unwrap_or(f64::NAN);
        part.layers.put("trace.throughput_per_s", "1/s", throughput);
        part.layers.extend(pool::layers(workload.threads));
        let probe = Params {
            tiny: true,
            seconds: PROBE_SECONDS,
            ..*p
        };
        for layer in [Layer::Sim, Layer::Explore, Layer::Serve] {
            if layer != workload.layer {
                let probed = run_layer(layer, 1, &probe);
                part.layers.extend(probed.layers);
                part.checks.absorb(probed.checks);
            }
        }
    }
    let rss = peak_rss_mb();
    let setup = part.e2e.get("setup_s").unwrap_or(f64::NAN);
    part.e2e.put("peak_rss_mb", "MB", rss);
    part.named.put("setup_s", "s", setup);
    part.named.put("peak_rss_mb", "MB", rss);
    let reported = if p.trace { &part.layers } else { &part.e2e };
    let missing: Vec<String> = reported
        .0
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} was not measured", m.name))
        .collect();
    for message in missing {
        part.checks.record(Err(message));
    }
    Outcome { workload, part }
}
