//! The fixed-seed configuration matrix behind the byte-identical parity
//! suite (`tests/parity.rs`) and its fixture generator
//! (`examples/gen_parity.rs`).
//!
//! Each case renders to a canonical pair of strings — the pretty-printed
//! `SimResult` JSON and (for small cases) the full event stream as one
//! JSON line per `SimEvent` — that are checked in under
//! `tests/fixtures/parity/`. The fixtures were captured from the
//! pre-optimization engine, so an exact match proves the optimized hot
//! path changed no observable behaviour: not a counter, not a float, not
//! an event, not an event's order. The trace-replay fixtures were
//! captured from replay's former private loop in the same way.
//!
//! The matrix deliberately crosses the engine's behavioural switches:
//! chip model, width, cut-through vs store-and-forward, arbitration,
//! buffer depth, faults (permanent + transient, with retries), telemetry
//! sampling, packet tracing, hot-spot traffic, mixed radices, a watchdog
//! stall, trace-driven replay (the same recorded arrivals against a
//! cut-through and a store-and-forward switch), and one paper-scale
//! 2048-port run (result only — its event stream would dwarf the
//! repository).

use icn_sim::telemetry::MemorySink;
use icn_sim::{
    Arbitration, ChipModel, Engine, EngineOptions, FaultEvent, FaultPlan, FaultTarget, RetryPolicy,
    SimConfig, TelemetryConfig,
};
use icn_topology::StagePlan;
use icn_workloads::{TrafficTrace, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One parity configuration.
pub struct ParityCase {
    /// Fixture file stem.
    pub name: &'static str,
    /// Whether the event stream is part of the fixture (small cases only).
    pub record_events: bool,
    /// The configuration itself (fully deterministic given its seed).
    pub config: SimConfig,
    /// Recorded arrivals replayed in place of the config's workload
    /// (`None`: the workload drives injection).
    pub trace: Option<TrafficTrace>,
}

/// A uniform trace over `config`'s warmup + measurement window.
fn synthesized_trace(config: &SimConfig, load: f64, seed: u64) -> TrafficTrace {
    TrafficTrace::synthesize(
        &Workload::uniform(load),
        config.plan.ports(),
        config.warmup_cycles + config.measure_cycles,
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
}

/// The full parity matrix.
#[must_use]
pub fn cases() -> Vec<ParityCase> {
    let mut cases = Vec::new();

    // Baseline: cut-through DMC under uniform load.
    let mut clean = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.04),
    );
    clean.seed = 42;
    clean.warmup_cycles = 100;
    clean.measure_cycles = 400;
    clean.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "clean_dmc_w4",
        record_events: true,
        config: clean,
        trace: None,
    });

    // Store-and-forward MCC with deep buffers and fixed-priority
    // arbitration: the non-default value of every switch knob.
    let mut sf = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Mcc,
        2,
        Workload::uniform(0.012),
    );
    sf.seed = 7;
    sf.cut_through = false;
    sf.arbitration = Arbitration::FixedPriority;
    sf.buffer_capacity = 4;
    sf.warmup_cycles = 50;
    sf.measure_cycles = 400;
    sf.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "sf_fixedprio_mcc_w2",
        record_events: true,
        config: sf,
        trace: None,
    });

    // Faults with retries: permanent module + link failures mid-run, a
    // transient module outage, a dead source port, and packet tracing on.
    let plan = StagePlan::uniform(4, 2);
    let mut faulty =
        SimConfig::paper_baseline(plan.clone(), ChipModel::Dmc, 4, Workload::uniform(0.02));
    faulty.seed = 11;
    faulty.faults = FaultPlan::random_module_failures(&plan, 1, 150, 9)
        .merged(FaultPlan::random_link_failures(&plan, 2, 250, 9))
        .merged(FaultPlan::new(vec![
            FaultEvent::transient(
                FaultTarget::Module {
                    stage: 0,
                    module: 2,
                },
                80,
                120,
            ),
            FaultEvent::permanent(FaultTarget::SourcePort { port: 3 }, 200),
        ]));
    faulty.retry = RetryPolicy::retries(2);
    faulty.trace_packets = 4;
    faulty.warmup_cycles = 100;
    faulty.measure_cycles = 300;
    faulty.drain_cycles = 10_000;
    cases.push(ParityCase {
        name: "faulty_retry",
        record_events: true,
        config: faulty,
        trace: None,
    });

    // Telemetry sampling under hot-spot traffic: the report (time series,
    // histograms, stage waits) rides inside the SimResult fixture.
    let mut telem = SimConfig::paper_baseline(
        StagePlan::uniform(4, 3),
        ChipModel::Dmc,
        4,
        Workload::hot_spot(0.005, 0.1, 5),
    );
    telem.seed = 13;
    telem.telemetry = TelemetryConfig::sampled(25);
    telem.warmup_cycles = 100;
    telem.measure_cycles = 500;
    telem.drain_cycles = 20_000;
    cases.push(ParityCase {
        name: "telemetry_hotspot",
        record_events: true,
        config: telem,
        trace: None,
    });

    // Mixed radices with a long transient outage the watchdog gives up on:
    // covers the stall path and non-uniform stage geometry.
    let mut stall = SimConfig::paper_baseline(
        StagePlan::from_radices(vec![4, 2, 2]),
        ChipModel::Mcc,
        4,
        Workload::uniform(0.02),
    );
    stall.seed = 3;
    stall.faults = FaultPlan::new(vec![FaultEvent::transient(
        FaultTarget::Module {
            stage: 2,
            module: 0,
        },
        10,
        50_000,
    )]);
    stall.watchdog_cycles = 300;
    stall.warmup_cycles = 50;
    stall.measure_cycles = 300;
    stall.drain_cycles = 2_000;
    cases.push(ParityCase {
        name: "mixed_radix_stall",
        record_events: true,
        config: stall,
        trace: None,
    });

    // Trace replay: recorded arrivals drive injection (the configs'
    // workloads are ignored), once through the paper's cut-through
    // single-buffer switch and once through a store-and-forward switch
    // with deep buffers.
    let mut trace_ct = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.05),
    );
    trace_ct.seed = 21;
    trace_ct.buffer_capacity = 1;
    trace_ct.warmup_cycles = 100;
    trace_ct.measure_cycles = 400;
    trace_ct.drain_cycles = 20_000;
    let trace = synthesized_trace(&trace_ct, 0.03, 0x7ACE);
    cases.push(ParityCase {
        name: "trace_ct_b1",
        record_events: true,
        config: trace_ct,
        trace: Some(trace),
    });

    let mut trace_sf = SimConfig::paper_baseline(
        StagePlan::uniform(4, 2),
        ChipModel::Mcc,
        4,
        Workload::uniform(0.05),
    );
    trace_sf.seed = 22;
    trace_sf.cut_through = false;
    trace_sf.buffer_capacity = 4;
    trace_sf.warmup_cycles = 100;
    trace_sf.measure_cycles = 400;
    trace_sf.drain_cycles = 20_000;
    let trace = synthesized_trace(&trace_sf, 0.02, 0x5F04);
    cases.push(ParityCase {
        name: "trace_sf_b4",
        record_events: true,
        config: trace_sf,
        trace: Some(trace),
    });

    // Paper scale: the §6 2048-port DMC network, short run, result only.
    let mut big = SimConfig::paper_baseline(
        StagePlan::balanced_pow2(2048, 16).expect("power of two"),
        ChipModel::Dmc,
        4,
        Workload::uniform(0.02),
    );
    big.seed = 0x1986;
    big.warmup_cycles = 0;
    big.measure_cycles = 150;
    big.drain_cycles = 3_000;
    cases.push(ParityCase {
        name: "big_dmc2048",
        record_events: false,
        config: big,
        trace: None,
    });

    cases
}

/// The serial-vs-parallel matrix: every fixture config crossed with the
/// engine's optional subsystems toggled both ways — faults (with retries)
/// on/off and telemetry+profiler on/off — so sharded execution is proven
/// byte-identical on every per-cycle path, not just the paths each
/// fixture happens to exercise. Variants derive from [`cases`]; the
/// checked-in fixtures themselves are untouched.
#[must_use]
#[allow(dead_code)] // shared via #[path]; only tests/parity.rs walks the matrix
pub fn matrix() -> Vec<ParityCase> {
    let mut matrix = Vec::new();
    for case in cases() {
        for strip_faults in [false, true] {
            for force_profile in [false, true] {
                let mut config = case.config.clone();
                if strip_faults {
                    config.faults = FaultPlan::new(Vec::new());
                    config.retry = RetryPolicy::default();
                } else if config.faults.is_empty() {
                    // The faults-on leg of a clean fixture: a standard
                    // mix of permanent and transient failures + retries.
                    config.faults =
                        FaultPlan::random_module_failures(&config.plan, 1, 150, config.seed ^ 0xFA)
                            .merged(FaultPlan::random_link_failures(
                                &config.plan,
                                1,
                                250,
                                config.seed ^ 0x17,
                            ));
                    config.retry = RetryPolicy::retries(2);
                    if config.watchdog_cycles == 0 {
                        config.watchdog_cycles = 50_000;
                    }
                }
                if force_profile {
                    // Telemetry + the span profiler and hotspot heatmap:
                    // the report (time series, histograms, spans, heat)
                    // rides inside the SimResult JSON being compared.
                    config.telemetry = TelemetryConfig::profiled(25);
                } else {
                    config.telemetry = TelemetryConfig::default();
                }
                matrix.push(ParityCase {
                    name: case.name,
                    record_events: case.record_events,
                    config,
                    trace: case.trace.clone(),
                });
            }
        }
    }
    matrix
}

/// Run one case and render its canonical fixture strings: the
/// pretty-printed `SimResult` JSON and, if `record_events`, the event
/// stream as one JSON line per event (in emission order).
#[must_use]
pub fn render(case: &ParityCase) -> (String, Option<String>) {
    render_with_options(case, EngineOptions::default())
}

/// [`render`] under explicit [`EngineOptions`] — the parallel leg of the
/// serial-vs-parallel matrix.
#[must_use]
pub fn render_with_options(case: &ParityCase, options: EngineOptions) -> (String, Option<String>) {
    let mut engine =
        Engine::try_with_options(case.config.clone(), options).expect("parity configs are valid");
    let sink = MemorySink::new();
    if case.record_events {
        engine.set_event_sink(sink.clone());
    }
    let result = match &case.trace {
        None => engine.run(),
        Some(trace) => engine.run_trace(trace),
    };
    let result_json = result_json(&result);
    let events = case.record_events.then(|| {
        let mut out = String::new();
        for event in sink.events() {
            out.push_str(&serde_json::to_string(&event).expect("events serialize"));
            out.push('\n');
        }
        out
    });
    (result_json, events)
}

/// The canonical fixture rendering of a result: pretty JSON plus a
/// trailing newline.
#[must_use]
pub fn result_json(result: &icn_sim::SimResult) -> String {
    serde_json::to_string_pretty(result).expect("results serialize") + "\n"
}
