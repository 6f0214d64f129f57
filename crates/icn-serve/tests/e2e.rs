//! End-to-end tests: a real server on a loopback socket, driven by a raw
//! `TcpStream` HTTP client (the same dependency-light discipline as the
//! server itself).
//!
//! The headline assertions mirror the service's contract:
//! * two identical `POST /v1/simulate` requests produce **byte-identical**
//!   result bodies, with the second served from the content-addressed
//!   cache (verified via the `x-icn-cache` header and the `/v1/stats`
//!   hit counter);
//! * when the bounded job queue is full, `POST /v1/simulate` answers
//!   `429 Too Many Requests` with a `Retry-After` hint;
//! * graceful shutdown drains in-flight jobs and `run()` returns — within
//!   a second on an idle server, whatever the listen address and however
//!   shutdown is asked for, because shutdown wakes the blocking accept;
//! * nothing sleeps between accepting a connection and serving it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use icn_serve::{Limits, ServeConfig, Server};

/// One HTTP exchange: status line code, headers (lowercased names), body.
struct Exchange {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Exchange {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response (connection: close).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Exchange {
    call_with_headers(addr, method, path, body, &[])
}

/// [`call`], with extra request headers.
fn call_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> Exchange {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let extra_headers: String = extra
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Exchange {
        status,
        headers,
        body: body.to_string(),
    }
}

/// Poll a job's result endpoint until it is done (or the deadline hits).
fn poll_result(addr: SocketAddr, result_url: &str, deadline: Duration) -> Exchange {
    let started = Instant::now();
    loop {
        let got = call(addr, "GET", result_url, "");
        if got.status != 409 {
            return got;
        }
        assert!(
            started.elapsed() < deadline,
            "job still pending after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Extract `"field":<number>` from a flat JSON body without a parser.
fn json_u64(body: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let at = body
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {body}"));
    body[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {field} in {body}"))
}

/// Extract `"field":"<text>"` from a flat JSON body.
fn json_str(body: &str, field: &str) -> String {
    let tag = format!("\"{field}\":\"");
    let at = body
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {body}"));
    body[at + tag.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

/// Run a server on an ephemeral port; returns its address, handle, and
/// the thread that will yield the summary after shutdown.
fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    icn_serve::ServerHandle,
    std::thread::JoinHandle<icn_serve::ServeSummary>,
) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_workers: 2,
        queue_depth: 8,
        cache_entries: 32,
        telemetry_out: None,
        journal: None,
        cache_dir: None,
        default_deadline_ms: 0,
        sim_threads: 1,
        limits: Limits::default(),
    }
}

/// A small, fast simulation request (16 ports, short windows).
const SMALL_SIM: &str = r#"{"ports":16,"load":0.02,"seed":77,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}"#;

#[test]
fn simulate_twice_second_hit_is_byte_identical() {
    let (addr, handle, join) = start(test_config());

    assert_eq!(call(addr, "GET", "/v1/healthz", "").status, 200);

    // First request: cache miss, job accepted.
    let first = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(first.status, 202, "{}", first.body);
    assert_eq!(first.header("x-icn-cache"), None);
    let result_url = json_str(&first.body, "result_url");
    let body_first = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(body_first.status, 200, "{}", body_first.body);

    // Second identical request: served inline from the cache.
    let second = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(
        second.body, body_first.body,
        "cached response must be byte-identical to the computed one"
    );

    // A semantically identical spelling (defaults made explicit) also hits.
    let explicit = r#"{"ports":16,"load":0.02,"seed":77,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000,"chip":"Dmc","width":4,"pattern":"Uniform"}"#;
    let third = call(addr, "POST", "/v1/simulate", explicit);
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(third.header("x-icn-cache"), Some("hit"));
    assert_eq!(third.body, body_first.body);

    // The stats counters saw the hits.
    let stats = call(addr, "GET", "/v1/stats", "");
    assert_eq!(stats.status, 200);
    assert!(json_u64(&stats.body, "hits") >= 2, "{}", stats.body);
    assert_eq!(json_u64(&stats.body, "completed"), 1, "{}", stats.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 1);
    assert_eq!(summary.jobs_failed, 0);
}

#[test]
fn threaded_server_bodies_match_serial_server_bodies() {
    // `sim_threads` is a deployment knob: a server running its engines
    // across 4 threads must produce the same bytes (and therefore the
    // same cache keys) as a serial one.
    let run = |sim_threads: usize| {
        let config = ServeConfig {
            sim_threads,
            ..test_config()
        };
        let (addr, handle, join) = start(config);
        let accepted = call(addr, "POST", "/v1/simulate", SMALL_SIM);
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let result_url = json_str(&accepted.body, "result_url");
        let result = poll_result(addr, &result_url, Duration::from_secs(30));
        assert_eq!(result.status, 200, "{}", result.body);
        handle.shutdown();
        join.join().expect("server thread");
        result.body
    };
    assert_eq!(
        run(4),
        run(1),
        "thread budget must not leak into result bytes"
    );
}

#[test]
fn evaluate_is_cached_and_reports_verdicts() {
    let (addr, handle, join) = start(test_config());

    // The paper's 2048-port example: feasible.
    let spec = r#"{
        "tech": "paper1986", "kind": "Dmc", "chip_radix": 16, "width": 4,
        "board_ports": 256, "network_ports": 2048, "packet_bits": 100,
        "clock_scheme": "MultiplePulse", "memory_access_ns": 100.0
    }"#;
    let first = call(addr, "POST", "/v1/evaluate", spec);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-icn-cache"), Some("miss"));
    assert!(first.body.contains(r#""feasible": true"#), "{}", first.body);

    let second = call(addr, "POST", "/v1/evaluate", spec);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // An 8-bit-wide variant blows the pin budget: infeasible, with codes.
    let wide = spec.replace(r#""width": 4"#, r#""width": 8"#);
    let infeasible = call(addr, "POST", "/v1/evaluate", &wide);
    assert_eq!(infeasible.status, 200);
    assert!(
        infeasible.body.contains(r#""feasible": false"#),
        "{}",
        infeasible.body
    );
    assert!(infeasible.body.contains("ICN101"), "{}", infeasible.body);

    // Malformed spec: a client error, not a 500.
    assert_eq!(call(addr, "POST", "/v1/evaluate", "{nope").status, 400);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, queue depth 1: the first job occupies the worker, the
    // second fills the queue, the third must be rejected.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    // Slow-ish jobs (~64 ports, heavy load, long windows), distinct seeds
    // so they cannot coalesce or hit the cache.
    let slow = |seed: u64| {
        format!(
            r#"{{"ports":64,"load":0.9,"seed":{seed},"warmup_cycles":2000,"measure_cycles":150000,"drain_cycles":40000}}"#
        )
    };
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(1)).status, 202);
    // Wait for the worker to claim job 1, guaranteeing job 2 sits alone in
    // the queue (otherwise the 429 would depend on scheduling luck).
    let claimed = Instant::now();
    while json_u64(&call(addr, "GET", "/v1/stats", "").body, "running") == 0 {
        assert!(
            claimed.elapsed() < Duration::from_secs(10),
            "worker never claimed the first job"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(2)).status, 202);

    let rejected = call(addr, "POST", "/v1/simulate", &slow(3));
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("queue is full"), "{}", rejected.body);

    // An identical re-POST of a queued config coalesces instead of 429ing.
    let coalesced = call(addr, "POST", "/v1/simulate", &slow(2));
    assert_eq!(coalesced.status, 202, "{}", coalesced.body);
    assert_eq!(json_str(&coalesced.body, "status"), "coalesced");

    // Graceful shutdown drains both accepted jobs.
    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 2, "drain must finish queued jobs");
}

#[test]
fn job_endpoints_cover_status_errors_and_unknowns() {
    let (addr, handle, join) = start(test_config());

    assert_eq!(call(addr, "GET", "/v1/jobs/999", "").status, 404);
    assert_eq!(call(addr, "GET", "/v1/jobs/xyz", "").status, 400);
    assert_eq!(call(addr, "GET", "/v1/nope", "").status, 404);
    assert_eq!(call(addr, "DELETE", "/v1/simulate", "").status, 405);

    // Invalid configurations are 400s with a useful message.
    let bad = call(addr, "POST", "/v1/simulate", r#"{"ports":100}"#);
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("power of two"), "{}", bad.body);

    // A valid job's status endpoint tracks it to completion.
    let accepted = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(accepted.status, 202);
    let status_url = json_str(&accepted.body, "status_url");
    let result_url = json_str(&accepted.body, "result_url");
    poll_result(addr, &result_url, Duration::from_secs(30));
    let status = call(addr, "GET", &status_url, "");
    assert_eq!(json_str(&status.body, "status"), "done");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn deadline_exceeded_job_fails_with_a_typed_error() {
    let (addr, handle, join) = start(test_config());

    // A heavy job (long measure window at high load) with a 50 ms budget:
    // the worker's stop predicate must abandon it mid-run.
    let doomed = r#"{"ports":64,"load":0.9,"seed":404,"warmup_cycles":2000,"measure_cycles":1500000,"drain_cycles":100000,"deadline_ms":50}"#;
    let accepted = call(addr, "POST", "/v1/simulate", doomed);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let result_url = json_str(&accepted.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(result.status, 500, "{}", result.body);
    assert!(result.body.contains("deadline exceeded"), "{}", result.body);

    let status_url = json_str(&accepted.body, "status_url");
    let status = call(addr, "GET", &status_url, "");
    assert_eq!(json_str(&status.body, "status"), "failed");

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_failed, 1);
    assert_eq!(summary.jobs_completed, 0);
}

#[test]
fn low_priority_work_is_shed_past_the_high_water_mark() {
    // One worker, capacity 4 → high water 3.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    let slow = |seed: u64, extra: &str| {
        format!(
            r#"{{"ports":64,"load":0.9,"seed":{seed},"warmup_cycles":2000,"measure_cycles":150000,"drain_cycles":40000{extra}}}"#
        )
    };
    // Occupy the worker, then fill the queue to the high-water mark.
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(1, "")).status, 202);
    let claimed = Instant::now();
    while json_u64(&call(addr, "GET", "/v1/stats", "").body, "running") == 0 {
        assert!(claimed.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(10));
    }
    for seed in 2..=4 {
        assert_eq!(
            call(addr, "POST", "/v1/simulate", &slow(seed, "")).status,
            202
        );
    }

    // Depth 3 == high water: Low is shed with an honest Retry-After...
    let shed = call(
        addr,
        "POST",
        "/v1/simulate",
        &slow(5, r#","priority":"Low""#),
    );
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("shed"), "{}", shed.body);
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("retry-after header")
        .parse()
        .expect("numeric retry-after");
    assert!((1..=60).contains(&retry_after), "{retry_after}");

    // ...while Normal work is still admitted (capacity remains).
    assert_eq!(call(addr, "POST", "/v1/simulate", &slow(6, "")).status, 202);

    let stats = call(addr, "GET", "/v1/stats", "");
    assert_eq!(json_u64(&stats.body, "shed"), 1, "{}", stats.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(
        summary.jobs_completed, 5,
        "drain finishes everything queued"
    );
}

#[test]
fn stream_endpoint_emits_chunked_progress_until_terminal() {
    let (addr, handle, join) = start(test_config());

    let sim = r#"{"ports":16,"load":0.02,"seed":4242,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}"#;
    let accepted = call(addr, "POST", "/v1/simulate", sim);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let stream_url = json_str(&accepted.body, "stream_url");

    let streamed = call(addr, "GET", &stream_url, "");
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    // The raw chunked body: at least one progress line, a terminal line
    // pointing at the result, and the zero-chunk terminator.
    assert!(
        streamed.body.contains("\"status\":\"done\""),
        "{}",
        streamed.body
    );
    assert!(streamed.body.contains("result_url"), "{}", streamed.body);
    assert!(streamed.body.ends_with("0\r\n\r\n"), "{}", streamed.body);

    // Unknown jobs 404 instead of streaming forever.
    assert_eq!(call(addr, "GET", "/v1/jobs/424242/stream", "").status, 404);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn trace_endpoint_nests_the_engine_profile_under_execute() {
    let (addr, handle, join) = start(test_config());

    // A client-supplied trace id is echoed on every response.
    let trace_id = "deadbeefdeadbeefdeadbeefdeadbeef";
    let profiled = r#"{"ports":16,"load":0.02,"seed":91,"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000,"profile":true}"#;
    let accepted = call_with_headers(
        addr,
        "POST",
        "/v1/simulate",
        profiled,
        &[("x-icn-trace-id", trace_id)],
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert_eq!(accepted.header("x-icn-trace-id"), Some(trace_id));

    let result_url = json_str(&accepted.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(result.status, 200, "{}", result.body);
    // Responses without a client id still carry a generated one.
    let generated = result.header("x-icn-trace-id").expect("generated id");
    assert_eq!(generated.len(), 32, "{generated}");

    let job = json_u64(&accepted.body, "job");
    let trace = call(addr, "GET", &format!("/v1/jobs/{job}/trace"), "");
    assert_eq!(trace.status, 200, "{}", trace.body);
    let tree: serde_json::Value = serde_json::from_str(&trace.body).expect("trace body parses");
    assert_eq!(tree["trace_id"], trace_id, "{}", trace.body);
    assert_eq!(tree["status"], "done");
    let children = tree["spans"]["children"].as_array().expect("children");
    let names: Vec<&str> = children.iter().filter_map(|c| c["name"].as_str()).collect();
    for required in ["parse", "cache_lookup", "queue_wait", "execute"] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    // The job ran with `profile: true`, so the engine's cycle-domain span
    // tree is nested under the execute span.
    let execute = children.iter().find(|c| c["name"] == "execute").unwrap();
    assert_eq!(execute["engine"]["root"]["name"], "run", "{}", trace.body);

    // Unknown jobs 404.
    assert_eq!(call(addr, "GET", "/v1/jobs/424242/trace", "").status, 404);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn metrics_endpoint_scrapes_clean_under_load() {
    let (addr, handle, join) = start(test_config());

    // Drive mixed traffic from a few client threads while scraping.
    let sims: Vec<String> = (0..6)
        .map(|seed| {
            format!(
                r#"{{"ports":16,"load":0.02,"seed":{seed},"warmup_cycles":200,"measure_cycles":500,"drain_cycles":2000}}"#
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for sim in &sims {
            scope.spawn(move || {
                let accepted = call(addr, "POST", "/v1/simulate", sim);
                assert!(
                    accepted.status == 202 || accepted.status == 200,
                    "{}",
                    accepted.body
                );
            });
        }
        // Concurrent scrapes must always parse and validate.
        for _ in 0..4 {
            let scrape = call(addr, "GET", "/v1/metrics", "");
            assert_eq!(scrape.status, 200);
            assert_eq!(
                scrape.header("content-type"),
                Some("text/plain; version=0.0.4")
            );
            icn_serve::parse_exposition(&scrape.body)
                .unwrap_or_else(|e| panic!("mid-load scrape invalid: {e}\n{}", scrape.body));
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    // Wait for all jobs to finish, then check the final counters.
    let started = Instant::now();
    loop {
        let stats = call(addr, "GET", "/v1/stats", "");
        if json_u64(&stats.body, "completed") >= sims.len() as u64 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{}",
            stats.body
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let scrape = call(addr, "GET", "/v1/metrics", "");
    let parsed = icn_serve::parse_exposition(&scrape.body).expect("final scrape parses");
    let value = |name: &str| {
        parsed
            .value(name)
            .unwrap_or_else(|| panic!("{name} missing from scrape:\n{}", scrape.body))
    };
    assert!(value("icn_requests_total") >= sims.len() as f64);
    assert!(value("icn_jobs_completed_total") >= sims.len() as f64);
    assert!(value("icn_cache_misses_total") >= sims.len() as f64);
    assert_eq!(value("icn_jobs_failed_total"), 0.0);
    let hist = parsed
        .family("icn_request_latency_us")
        .expect("latency histogram family");
    assert_eq!(hist.kind, "histogram");

    // Methods other than GET are rejected, not routed.
    assert_eq!(call(addr, "POST", "/v1/metrics", "").status, 405);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn shutdown_endpoint_drains_and_telemetry_dump_is_written() {
    let dump = std::env::temp_dir().join(format!("icn-serve-e2e-{}.jsonl", std::process::id()));
    let config = ServeConfig {
        telemetry_out: Some(dump.to_string_lossy().into_owned()),
        ..test_config()
    };
    let (addr, _handle, join) = start(config);

    assert_eq!(call(addr, "POST", "/v1/simulate", SMALL_SIM).status, 202);
    let off = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(off.status, 200);
    assert!(off.body.contains("draining"), "{}", off.body);

    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 1, "shutdown must drain the job");

    // The dump parses line-by-line as ServeDumpLine with a leading meta.
    let text = std::fs::read_to_string(&dump).expect("telemetry dump written");
    let lines: Vec<icn_serve::ServeDumpLine> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("dump line parses"))
        .collect();
    assert!(
        matches!(&lines[0], icn_serve::ServeDumpLine::ServeMeta(m) if m.requests >= 2),
        "first line: {:?}",
        lines.first()
    );
    assert!(lines
        .iter()
        .any(|l| matches!(l, icn_serve::ServeDumpLine::Sample(_))));
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn explore_job_completes_caches_and_streams() {
    let (addr, handle, join) = start(test_config());

    // Submit the paper grid with two simulator spot-checks.
    let body = r#"{"grid":"paper","spot_checks":2}"#;
    let first = call(addr, "POST", "/v1/explore", body);
    assert_eq!(first.status, 202, "{}", first.body);
    let result_url = json_str(&first.body, "result_url");
    let result = poll_result(addr, &result_url, Duration::from_secs(60));
    assert_eq!(result.status, 200, "{}", result.body);
    assert!(
        result.body.contains("\"frontier\""),
        "outcome body carries the frontier: {}",
        result.body
    );
    assert_eq!(json_u64(&result.body, "grid_candidates"), 32);
    assert!(
        result.body.contains("\"ranking_agrees\":true"),
        "{}",
        result.body
    );

    // The identical sweep again: inline cache hit, byte-identical.
    let second = call(addr, "POST", "/v1/explore", body);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-icn-cache"), Some("hit"));
    assert_eq!(second.body, result.body);

    // A different spelling of the same sweep (the paper grid is the
    // default) also lands on the same cache entry.
    let spelled = call(addr, "POST", "/v1/explore", r#"{"spot_checks":2}"#);
    assert_eq!(spelled.status, 200, "{}", spelled.body);
    assert_eq!(spelled.header("x-icn-cache"), Some("hit"));
    assert_eq!(spelled.body, result.body);

    // The ndjson stream of a finished job parses: every line is a JSON
    // object for this job, the last one terminal with a result_url.
    let stream_url = json_str(&first.body, "stream_url");
    let streamed = call(addr, "GET", &stream_url, "");
    assert_eq!(streamed.status, 200);
    let payload: String = streamed
        .body
        .split("\r\n")
        .filter(|part| part.starts_with('{'))
        .collect::<Vec<_>>()
        .join("");
    let lines: Vec<&str> = payload.split('\n').filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "{}", streamed.body);
    for line in &lines {
        assert!(line.starts_with("{\"job\":"), "unparsed line: {line}");
        assert!(line.ends_with('}'), "unparsed line: {line}");
    }
    assert!(lines.last().unwrap().contains("\"status\":\"done\""));
    assert!(lines.last().unwrap().contains("result_url"));

    // Bad requests are client errors, not jobs.
    let bad = call(addr, "POST", "/v1/explore", r#"{"grid":"nope"}"#);
    assert_eq!(bad.status, 400, "{}", bad.body);
    let both = call(
        addr,
        "POST",
        "/v1/explore",
        r#"{"grid":"paper","spec":{"techs":["paper-1986-mos-pga"]}}"#,
    );
    assert_eq!(both.status, 400, "{}", both.body);
    let greedy = call(addr, "POST", "/v1/explore", r#"{"spot_checks":999}"#);
    assert_eq!(greedy.status, 400, "{}", greedy.body);

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.jobs_completed, 1);
    assert_eq!(summary.jobs_failed, 0);
}

/// Run `server` on a thread; the receiver yields its summary once `run()`
/// returns.
fn run_reporting(server: Server) -> mpsc::Receiver<icn_serve::ServeSummary> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.run().expect("server run"));
    });
    finished
}

/// How long an idle server may take to stop once shutdown is requested.
const STOP_LIMIT: Duration = Duration::from_secs(1);

#[test]
fn idle_server_stops_promptly_on_handle_shutdown() {
    let server = Server::bind(test_config()).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let finished = run_reporting(server);
    assert_eq!(call(addr, "GET", "/v1/healthz", "").status, 200);
    handle.shutdown();
    let summary = finished
        .recv_timeout(STOP_LIMIT)
        .expect("run() returns within 1 s of ServerHandle::shutdown");
    assert_eq!(summary.requests, 1);
}

#[test]
fn idle_server_stops_promptly_on_shutdown_endpoint() {
    let server = Server::bind(test_config()).expect("bind loopback");
    let addr = server.local_addr();
    let finished = run_reporting(server);
    let off = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(off.status, 200, "{}", off.body);
    finished
        .recv_timeout(STOP_LIMIT)
        .expect("run() returns within 1 s of POST /v1/shutdown");
}

#[test]
fn wildcard_bound_server_stops_promptly() {
    // Bound to 0.0.0.0 the shutdown wake must connect through loopback.
    let config = ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..test_config()
    };
    let server = Server::bind(config).expect("bind wildcard");
    let port = server.local_addr().port();
    let handle = server.handle();
    let finished = run_reporting(server);
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    assert_eq!(call(addr, "GET", "/v1/healthz", "").status, 200);
    handle.shutdown();
    finished
        .recv_timeout(STOP_LIMIT)
        .expect("run() returns within 1 s on a 0.0.0.0 listener");
}

#[test]
fn shutdown_before_run_returns_promptly() {
    let server = Server::bind(test_config()).expect("bind loopback");
    server.handle().shutdown();
    let summary = run_reporting(server)
        .recv_timeout(STOP_LIMIT)
        .expect("run() returns within 1 s when shutdown came first");
    assert_eq!(summary.requests, 0);
}

/// Client-side microseconds from `connect` to the first response byte of
/// one `GET /v1/healthz`.
fn healthz_ttfb_us(addr: SocketAddr) -> u128 {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n")
        .expect("send");
    let mut first = [0u8; 1];
    stream.read_exact(&mut first).expect("first byte");
    let ttfb = started.elapsed().as_micros();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read response");
    assert!(
        rest.starts_with(b"TTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&rest)
    );
    ttfb
}

#[test]
fn sequential_requests_do_not_wait_on_the_acceptor() {
    // A sleeping acceptor would add its wake-up interval to every request
    // that arrives while it sleeps: a 2 ms accept poll puts the median
    // near 2 ms. The blocking accept serves loopback health checks in
    // about a tenth of a millisecond. The test binary runs other servers
    // and simulations in parallel, so the best median of three rounds of
    // 50 is the one compared: a sleep lifts every round, a busy
    // neighbour does not.
    let (addr, handle, join) = start(test_config());
    let mut medians = Vec::new();
    for _ in 0..3 {
        let mut ttfb: Vec<u128> = (0..50).map(|_| healthz_ttfb_us(addr)).collect();
        ttfb.sort_unstable();
        medians.push(ttfb[ttfb.len() / 2]);
        if medians.last() < Some(&1_000) {
            break;
        }
    }
    handle.shutdown();
    join.join().expect("server thread");
    let best = medians.iter().min().copied().unwrap_or(u128::MAX);
    assert!(
        best < 1_000,
        "median time to first byte of GET /v1/healthz is {best} us (rounds: {medians:?})"
    );
}

/// The `"cache":{...}` object of a `/v1/stats` body.
fn cache_counters(addr: SocketAddr) -> String {
    let stats = call(addr, "GET", "/v1/stats", "");
    assert_eq!(stats.status, 200);
    let at = stats.body.find("\"cache\":{").expect("cache object");
    let end = stats.body[at..].find('}').expect("cache object end");
    stats.body[at..at + end].to_string()
}

#[test]
fn evicted_result_is_read_back_from_the_spill_without_touching_the_cache() {
    let dir = std::env::temp_dir().join(format!("icn-serve-e2e-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        cache_entries: 1,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    let accepted = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let result_url = json_str(&accepted.body, "result_url");
    let computed = poll_result(addr, &result_url, Duration::from_secs(30));
    assert_eq!(computed.status, 200, "{}", computed.body);

    // One evaluation takes the single memory slot: the simulation result
    // now lives only in the spill.
    let spec = r#"{
        "tech": "paper1986", "kind": "Dmc", "chip_radix": 16, "width": 4,
        "board_ports": 256, "network_ports": 2048, "packet_bits": 100,
        "clock_scheme": "MultiplePulse", "memory_access_ns": 100.0
    }"#;
    assert_eq!(call(addr, "POST", "/v1/evaluate", spec).status, 200);
    let before = cache_counters(addr);
    assert!(before.contains("\"evictions\":1"), "{before}");

    let reread = call(addr, "GET", &result_url, "");
    assert_eq!(reread.status, 200, "{}", reread.body);
    assert_eq!(reread.body, computed.body, "spilled body is byte-identical");
    let trace_url = result_url.replace("/result", "/trace");
    assert_eq!(call(addr, "GET", &trace_url, "").status, 200);
    assert_eq!(
        cache_counters(addr),
        before,
        "reading a job's result is not a cache lookup"
    );

    // A body lost from the spill is a typed server error; resubmitting
    // the job recomputes the same bytes.
    for entry in std::fs::read_dir(&dir).expect("spill dir") {
        let _ = std::fs::remove_file(entry.expect("spill entry").path());
    }
    let lost = call(addr, "GET", &result_url, "");
    assert_eq!(lost.status, 500, "{}", lost.body);
    assert_eq!(json_str(&lost.body, "kind"), "result_missing");
    let again = call(addr, "POST", "/v1/simulate", SMALL_SIM);
    assert_eq!(again.status, 202, "{}", again.body);
    let recomputed = poll_result(
        addr,
        &json_str(&again.body, "result_url"),
        Duration::from_secs(30),
    );
    assert_eq!(recomputed.body, computed.body);

    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
