//! Byte-identical parity suite: the engine's observable behaviour —
//! the full `SimResult` (counters, float statistics, telemetry report)
//! and the complete event stream — must match the checked-in fixtures
//! exactly, for every fixed-seed configuration in the parity matrix.
//!
//! The fixtures were captured from the engine *before* the hot-path
//! optimization (arena packet store, precomputed routes, scratch-buffer
//! reuse), so these tests prove the optimization changed no behaviour.
//! The two trace-replay fixtures (`trace_*`) were captured while replay
//! still ran its own loop, before it moved onto the engine's run loop.
//! If a test fails after an *intentional* semantic change, regenerate
//! with `cargo run --release -p icn-sim --example gen_parity` and review
//! the fixture diff line by line.

#[path = "common/parity_cases.rs"]
mod parity_cases;

use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parity")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing parity fixture {} ({e}); regenerate with \
             `cargo run --release -p icn-sim --example gen_parity`",
            path.display()
        )
    })
}

/// Compare with a readable diagnostic: on mismatch report the first
/// differing line instead of dumping two multi-kilobyte strings.
fn assert_identical(kind: &str, case: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    for (number, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{case} {kind}: first divergence at line {}",
            number + 1
        );
    }
    panic!(
        "{case} {kind}: line counts differ (got {}, fixture {})",
        got.lines().count(),
        want.lines().count()
    );
}

/// The thread counts the serial-vs-parallel matrix runs at. CI shards
/// the matrix across jobs by setting `ICN_PARITY_THREADS` (e.g. `2` or
/// `4`); the default covers the whole satellite matrix.
fn matrix_threads() -> Vec<usize> {
    let spec = std::env::var("ICN_PARITY_THREADS").unwrap_or_else(|_| "1,2,4,8".into());
    let threads: Vec<usize> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .unwrap_or_else(|e| panic!("bad ICN_PARITY_THREADS entry {t:?}: {e}"))
        })
        .collect();
    assert!(!threads.is_empty(), "ICN_PARITY_THREADS is empty");
    threads
}

/// The tentpole's proof: the sharded parallel engine is byte-identical
/// to the serial engine — the full `SimResult` JSON (counters, float
/// statistics, telemetry report with spans + heatmap) and the complete
/// event stream — across every fixture config × faults on/off ×
/// telemetry+profiler on/off × thread count. Serial baselines are
/// rendered in-process, so this holds for the variant configs too, not
/// just the checked-in fixtures.
#[test]
fn parallel_engine_is_byte_identical_to_serial_across_the_matrix() {
    let threads = matrix_threads();
    for case in parity_cases::matrix() {
        let (want_result, want_events) = parity_cases::render(&case);
        for &t in &threads {
            let options = icn_sim::EngineOptions::threaded(t);
            let (got_result, got_events) = parity_cases::render_with_options(&case, options);
            let label = format!("{}@{t}t", case.name);
            assert_identical("result", &label, &got_result, &want_result);
            match (&got_events, &want_events) {
                (Some(got), Some(want)) => assert_identical("events", &label, got, want),
                (None, None) => {}
                _ => panic!("{label}: event recording diverged"),
            }
        }
    }
}

#[test]
fn results_and_event_streams_match_fixtures_byte_for_byte() {
    for case in parity_cases::cases() {
        let (result_json, events) = parity_cases::render(&case);
        let want_result = read_fixture(&format!("{}.result.json", case.name));
        assert_identical("result", case.name, &result_json, &want_result);
        if let Some(trace) = &case.trace {
            let direct = parity_cases::result_json(&icn_sim::run_trace(case.config.clone(), trace));
            assert_identical("run_trace result", case.name, &direct, &want_result);
        }
        if let Some(events) = events {
            let want_events = read_fixture(&format!("{}.events.jsonl", case.name));
            assert_identical("events", case.name, &events, &want_events);
        }
    }
}

/// The matrix itself must keep covering the paths it claims to cover:
/// faults, retries, telemetry, a stall, and both event-free and
/// event-recorded cases. Guards against someone trimming the matrix down
/// to trivial configs and the parity suite silently proving nothing.
#[test]
fn parity_matrix_exercises_the_interesting_paths() {
    let cases = parity_cases::cases();
    assert!(cases.len() >= 5);
    assert!(cases.iter().any(|c| !c.config.faults.is_empty()));
    assert!(cases.iter().any(|c| c.config.retry.max_retries > 0));
    assert!(cases.iter().any(|c| c.config.telemetry.enabled()));
    assert!(cases.iter().any(|c| !c.config.cut_through));
    assert!(cases
        .iter()
        .any(|c| c.config.arbitration == icn_sim::Arbitration::FixedPriority));
    assert!(cases.iter().any(|c| c.config.plan.ports() >= 2048));
    assert!(cases.iter().any(|c| !c.record_events));
    assert!(cases
        .iter()
        .any(|c| c.trace.is_some() && c.config.cut_through && c.config.buffer_capacity == 1));
    assert!(cases
        .iter()
        .any(|c| c.trace.is_some() && !c.config.cut_through && c.config.buffer_capacity > 1));

    // The recorded fixtures, between them, contain every event kind.
    let mut kinds = std::collections::BTreeSet::new();
    for case in &cases {
        if !case.record_events {
            continue;
        }
        let events = read_fixture(&format!("{}.events.jsonl", case.name));
        for line in events.lines() {
            let event: icn_sim::SimEvent = serde_json::from_str(line).expect("fixture parses");
            kinds.insert(event.kind());
        }
    }
    for kind in [
        "inject",
        "enter",
        "grant",
        "deliver",
        "retry",
        "drop",
        "fault_activate",
        "stall",
    ] {
        assert!(kinds.contains(kind), "no fixture records `{kind}` events");
    }
}
