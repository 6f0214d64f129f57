//! `icn-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines on stdout: a record with
//! the host context (`threads`, `host_cores`), the workload's own named
//! metrics and the error rate, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! every workload untraced and traced, each in a child process so that
//! peak memory is per workload, and prints the tracing overhead.

use std::process::{Command, ExitCode};

use icn_perfbench::stats::{host_cores, Metrics};
use icn_perfbench::{run, workload, Outcome, Params, WORKLOADS};
use serde_json::{Map, Value};

const USAGE: &str =
    "usage: icn-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Failure messages printed per run, at most.
const SHOWN_FAILURES: usize = 5;

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => params.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                params.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(params.seconds > 0.0 && params.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, params })
}

fn metrics_json(metrics: &Metrics) -> Value {
    let mut map = Map::new();
    for m in &metrics.0 {
        let mut entry = Map::new();
        entry.insert("value".to_string(), Value::from(m.value));
        entry.insert("unit".to_string(), Value::from(m.unit));
        map.insert(m.name.to_string(), Value::Object(entry));
    }
    Value::Object(map)
}

fn print_json(value: &Value) {
    println!(
        "{}",
        serde_json::to_string(value).expect("a JSON value serializes")
    );
}

/// Print the record and result lines of one run; returns whether every
/// check passed.
fn report(o: &Outcome, p: &Params) -> bool {
    let part = &o.part;
    let correct = part.checks.failures.is_empty();
    for failure in part.checks.failures.iter().take(SHOWN_FAILURES) {
        eprintln!("check failed: {failure}");
    }

    let mut record = Map::new();
    record.insert("workload".to_string(), Value::from(o.workload.name));
    record.insert("why".to_string(), Value::from(o.workload.why));
    record.insert("seed".to_string(), Value::from(p.seed));
    record.insert("seconds".to_string(), Value::from(p.seconds));
    record.insert("trace".to_string(), Value::from(p.trace));
    record.insert("threads".to_string(), Value::from(o.workload.threads));
    record.insert("host_cores".to_string(), Value::from(host_cores()));
    let status = if o.unmeasured() {
        "unmeasured"
    } else {
        "measured"
    };
    record.insert("status".to_string(), Value::from(status));
    record.insert("error_rate".to_string(), Value::from(o.error_rate()));
    record.insert("named".to_string(), metrics_json(&part.named));
    let failures = part
        .checks
        .failures
        .iter()
        .take(SHOWN_FAILURES)
        .map(|f| Value::from(f.as_str()));
    record.insert("failures".to_string(), Value::Array(failures.collect()));
    let mut line = Map::new();
    line.insert("record".to_string(), Value::Object(record));
    print_json(&Value::Object(line));

    let mut result = Map::new();
    result.insert("correct".to_string(), Value::from(correct));
    result.insert("attempted".to_string(), Value::from(part.checks.attempted));
    result.insert("failed".to_string(), Value::from(part.checks.failed()));
    let reported = if p.trace { &part.layers } else { &part.e2e };
    result.insert("metrics".to_string(), metrics_json(reported));
    print_json(&Value::Object(result));
    correct
}

/// Run every workload untraced then traced, each in a child process.
fn run_all(p: &Params) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let mut throughput = [f64::NAN; 2];
        for (trace, slot) in [(false, 0), (true, 1)] {
            let child = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &p.seed.to_string()])
                .args(["--seconds", &p.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("running {}: {e}", w.name))?;
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let result: Option<Value> = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok());
            let correct = result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Value::as_bool);
            all_correct &= child.status.success() && correct == Some(true);
            let key = if trace {
                "trace.throughput_per_s"
            } else {
                "throughput_per_s"
            };
            throughput[slot] = result
                .as_ref()
                .and_then(|r| r.get("metrics")?.get(key)?.get("value")?.as_f64())
                .unwrap_or(f64::NAN);
        }
        let overhead = (throughput[0] - throughput[1]) / throughput[0] * 100.0;
        eprintln!(
            "{}: throughput untraced {:.1}/s, traced {:.1}/s, tracing overhead {overhead:.2}%",
            w.name, throughput[0], throughput[1]
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args.params).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            false
        })
    } else {
        let Some(w) = workload(&args.workload) else {
            eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        };
        report(&run(w, &args.params), &args.params)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
