//! X10 — graceful degradation under component failures.
//!
//! The paper sizes its networks assuming every crossbar module works; §2's
//! cost argument buys exactly one path per (source, destination) pair, so a
//! single dead module severs `radix²·(ports/stage-width)` connections
//! outright. This experiment kills a growing number of modules (chosen by a
//! seeded shuffle, so the sweep replays exactly) and measures what the
//! unique-path design gives up: connectivity, delivered fraction, and the
//! latency of the traffic that still gets through.

use icn_sim::{self, Engine, MemorySink, RetryPolicy};
use icn_workloads::Workload;

use crate::table::{trim_float, TextTable};

use super::loaded_network::SimEffort;
use super::ExperimentRecord;

/// Deterministic seed for the failed-module shuffle.
const FAULT_SEED: u64 = 0xF4_17;

/// X10: failed-module sweep — connectivity vs delivered fraction vs latency.
#[must_use]
pub fn fault_tolerance(effort: SimEffort) -> ExperimentRecord {
    let mut base = effort.base_config(Workload::uniform(0.0));
    let flit_cap = 1.0 / base.flits_per_packet() as f64;
    // Moderate load: far enough below saturation that losses are caused by
    // faults, not queueing.
    let moderate = 0.5 * flit_cap;
    base.workload = Workload::uniform(moderate);
    // Sources re-offer a severed packet twice before writing the
    // destination off; the unique-path topology guarantees those retries
    // fail, which is the point — the sweep accounts for them explicitly.
    base.retry = RetryPolicy::retries(2);

    let total_modules = base.plan.total_modules();
    let counts = [0u32, 1, 2, 4, 8];
    let points = icn_sim::sweep_module_failures(&base, &counts, FAULT_SEED);

    let pairs = u64::from(base.plan.ports()) * u64::from(base.plan.ports());
    let mut t = TextTable::new(vec![
        "failed modules",
        "unreachable pairs",
        "delivered",
        "dropped",
        "retries",
        "mean latency (cyc)",
        "expansion vs unloaded",
    ]);
    for p in &points {
        let r = &p.result;
        t.row(vec![
            p.failed_modules.to_string(),
            format!(
                "{} ({})",
                r.unreachable_pairs,
                trim_float(r.unreachable_pairs as f64 / pairs as f64, 4)
            ),
            trim_float(r.delivery_ratio(), 4),
            r.tracked_dropped.to_string(),
            r.retries_total.to_string(),
            trim_float(r.network_latency.mean, 1),
            trim_float(r.latency_expansion(), 2),
        ]);
    }

    // Re-run the heaviest failure point with an event sink attached and
    // reconcile the structured drop/retry/deliver stream against the
    // result's counters — the event stream and the aggregates must tell
    // the same story.
    let heaviest = points.last().expect("non-empty sweep");
    let mut heavy_config = base.clone();
    heavy_config.faults = icn_sim::FaultPlan::random_module_failures(
        &base.plan,
        heaviest.failed_modules,
        0,
        FAULT_SEED,
    );
    let sink = MemorySink::new();
    let mut engine = Engine::new(heavy_config);
    engine.set_event_sink(sink.clone());
    let heavy_result = engine.run();
    let counts = sink.counts_by_kind();
    let count = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    let reconciled = count("drop") == heavy_result.dropped_total
        && count("retry") == heavy_result.retries_total
        && count("deliver") == heavy_result.delivered_total
        && count("inject") == heavy_result.injected_total;
    assert!(
        reconciled,
        "event stream must reconcile with result totals: \
         drops {}/{}, retries {}/{}, delivers {}/{}, injects {}/{}",
        count("drop"),
        heavy_result.dropped_total,
        count("retry"),
        heavy_result.retries_total,
        count("deliver"),
        heavy_result.delivered_total,
        count("inject"),
        heavy_result.injected_total,
    );
    let event_text = format!(
        "event-stream reconciliation at {} failed modules: {} injects, {} delivers, \
         {} drops, {} retries, {} fault activations — all counters match the sink\n",
        heaviest.failed_modules,
        count("inject"),
        count("deliver"),
        count("drop"),
        count("retry"),
        count("fault_activate"),
    );

    let text = format!(
        "Fault tolerance of the {}-port network ({} modules, DMC, W=4) at \
         offered {:.4}\n\n{}\n{}",
        base.plan.ports(),
        total_modules,
        moderate,
        t.render(),
        event_text
    );
    let json = serde_json::json!({
        "ports": base.plan.ports(),
        "total_modules": total_modules,
        "offered_load": moderate,
        "fault_seed": FAULT_SEED,
        "retry": base.retry,
        "sweep": points,
        "event_reconciliation": {
            "failed_modules": heaviest.failed_modules,
            "inject_events": count("inject"),
            "deliver_events": count("deliver"),
            "drop_events": count("drop"),
            "retry_events": count("retry"),
            "fault_activate_events": count("fault_activate"),
            "reconciled": reconciled,
        },
    });
    ExperimentRecord::new(
        "X10",
        "Graceful degradation under module failures (unique-path cost of sec. 2)",
        text,
        json,
        vec![
            "failed modules are drawn by a seeded shuffle over all stages; the same \
             seed replays the same sweep"
                .into(),
            "the delta network provides exactly one path per pair, so retries of a \
             permanently severed route model bounded source persistence, not \
             re-routing"
                .into(),
            "every point satisfies injected == delivered + dropped + live \
             (checked by the conservation test)"
                .into(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tolerance_quick_degrades_in_connectivity_and_conserves() {
        let r = fault_tolerance(SimEffort::Quick);
        let sweep = r.json["sweep"].as_array().unwrap();
        assert_eq!(sweep.len(), 5);

        let metric = |i: usize, key: &str| sweep[i]["result"][key].as_u64().unwrap();
        // The healthy baseline loses nothing.
        assert_eq!(metric(0, "unreachable_pairs"), 0);
        assert_eq!(metric(0, "dropped_total"), 0);
        // Connectivity strictly degrades as modules die.
        for i in 1..sweep.len() {
            assert!(
                metric(i, "unreachable_pairs") > metric(i - 1, "unreachable_pairs"),
                "unreachable pairs must grow with failures"
            );
        }
        // With faults present, drops actually happen and are attributed.
        assert!(metric(4, "dropped_total") > 0);
        assert!(metric(4, "retries_total") > 0);
        // Conservation holds at every point, fault or no fault.
        for (i, p) in sweep.iter().enumerate() {
            let r = &p["result"];
            let injected = r["injected_total"].as_u64().unwrap();
            let delivered = r["delivered_total"].as_u64().unwrap();
            let dropped = r["dropped_total"].as_u64().unwrap();
            let live = r["live_at_end"].as_u64().unwrap();
            assert_eq!(
                injected,
                delivered + dropped + live,
                "conservation violated at sweep point {i}"
            );
            assert!(r["stall"].is_null(), "no point should stall");
        }
    }
}
