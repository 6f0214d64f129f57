//! Every workload at a tiny size: each metric named in `BENCHMARK.json`
//! is reported with its unit and a finite value, and no check fails.

use icn_perfbench::sim::{self, SimSpec};
use icn_perfbench::{run, Params, WORKLOADS};
use serde_json::Value;

/// The `(name, second)` pairs of one list of `BENCHMARK.json`.
fn listed(list: &str, second: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_array)
        .expect("list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field(second))
        })
        .collect()
}

#[test]
fn benchmark_json_records_why_each_workload_exists() {
    let recorded: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed("workloads", "why"), recorded);
}

fn check_workloads(trace: bool) {
    let wanted = listed(if trace { "per_layer" } else { "end_to_end" }, "unit");
    for w in &WORKLOADS {
        let p = Params {
            seed: 7,
            seconds: 0.2,
            trace,
            tiny: true,
        };
        let outcome = run(w, &p);
        assert!(
            outcome.part.checks.failures.is_empty(),
            "{}: {:?}",
            w.name,
            outcome.part.checks.failures
        );
        assert_eq!(outcome.error_rate(), 0.0, "{}", w.name);
        let got = if trace {
            &outcome.part.layers
        } else {
            &outcome.part.e2e
        };
        for (name, unit) in &wanted {
            let metric = got
                .0
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: no metric {name}", w.name));
            assert_eq!(metric.unit, unit, "{}: unit of {name}", w.name);
            assert!(
                metric.value.is_finite(),
                "{}: {name} = {}",
                w.name,
                metric.value
            );
        }
        assert_eq!(
            got.0.len(),
            wanted.len(),
            "{}: unlisted metrics reported",
            w.name
        );
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    check_workloads(false);
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    check_workloads(true);
}

#[test]
fn simulated_counters_repeat_for_a_seed() {
    let spec = SimSpec::tiny(2);
    let a = sim::run(&spec, 11, 0.05, true);
    let b = sim::run(&spec, 11, 0.05, true);
    for name in [
        "sim.injected",
        "sim.delivered",
        "sim.latency_p50_cycles",
        "sim.peak_source_backlog",
    ] {
        assert_eq!(a.layers.get(name), b.layers.get(name), "{name}");
    }
}

#[test]
fn steady_state_guard_rejects_a_saturated_network() {
    // ρ = load × flits per packet = 0.05 × 25: the backlog grows all run.
    let spec = SimSpec {
        load: 0.05,
        ..SimSpec::tiny(1)
    };
    let outcome = sim::run(&spec, 3, 0.05, false);
    assert!(
        outcome
            .checks
            .failures
            .iter()
            .any(|f| f.contains("not steady")),
        "{:?}",
        outcome.checks.failures
    );
    assert!(sim::steady(&[100, 104, 98, 101, 99, 103]).is_ok());
}
