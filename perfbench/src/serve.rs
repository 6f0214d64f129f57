//! The service workload: an in-process `icn_serve::Server` with a journal,
//! a disk spill and a memory cache smaller than the key set, driven over
//! loopback HTTP by a closed loop of clients.
//!
//! A run has three phases, and a traced run a fourth:
//! 1. warm-up: a fresh server computes every simulate and evaluate key
//!    once (first bodies recorded), then shuts down;
//! 2. set-up: the server is bound again on the same journal and spill
//!    several times, each timed from `Server::bind` to the first
//!    `200 /v1/healthz`; the last one stays up;
//! 3. the measured closed loop: each client sends its next operation only
//!    after the previous one completed;
//! 4. the accept-gap probe: sequential inline requests to a server of
//!    their own, timed by the client and by the server.
//!
//! Every body is checked: cache hits against the first body for their
//! key, and every distinct key against a local computation of the same
//! request.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icn_explore::{explore, ExploreOptions, GridSpec, DEFAULT_CHUNK};
use icn_serve::{
    ExploreRequest, Limits, ServeConfig, ServeSummary, Server, ServerHandle, SimulateRequest,
};
use serde_json::Value;

use crate::stats::{median, micros_since, quantile, Checks, Metrics, Part, Rng};

/// Client socket timeout: far above any healthy reply.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One service workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Closed-loop clients, one connection each at a time.
    pub clients: usize,
    /// Distinct `/v1/simulate` keys served as cache hits.
    pub sim_keys: usize,
    /// Distinct `/v1/evaluate` keys.
    pub eval_keys: usize,
    /// Memory cache entries (smaller than the key set, so some hits come
    /// from the disk spill).
    pub cache_entries: usize,
    /// Of every 100 operations: fresh simulate jobs.
    pub fresh_sim_pct: u64,
    /// Of every 100 operations: fresh explore jobs.
    pub fresh_explore_pct: u64,
    /// Of every 100 operations: `/v1/evaluate` (the rest are simulate
    /// cache hits).
    pub evaluate_pct: u64,
    /// Timed binds; `setup_s` is their median.
    pub setup_reps: usize,
    /// Inline requests of the traced run's accept-gap probe.
    pub gap_probes: usize,
}

impl ServeSpec {
    /// The mixed closed loop: mostly inline requests, a minority of fresh
    /// simulate jobs and a few explore jobs.
    #[must_use]
    pub fn mixed() -> Self {
        Self {
            clients: 2,
            sim_keys: 12,
            eval_keys: 12,
            cache_entries: 6,
            fresh_sim_pct: 4,
            fresh_explore_pct: 1,
            evaluate_pct: 50,
            setup_reps: 50,
            gap_probes: 400,
        }
    }

    /// A short version for tests and for the service-layer probe of
    /// traced runs of other workloads.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            sim_keys: 4,
            eval_keys: 4,
            cache_entries: 2,
            fresh_sim_pct: 10,
            fresh_explore_pct: 5,
            setup_reps: 2,
            gap_probes: 20,
            ..Self::mixed()
        }
    }
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: String,
    connect_us: f64,
    ttfb_us: f64,
    total_us: f64,
}

/// A request written to its connection, its reply not yet read.
struct Sent {
    stream: TcpStream,
    what: String,
    start: Instant,
    sent: Instant,
    connect_us: f64,
}

/// Connect and write one request.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Sent, String> {
    let what = format!("{method} {path}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{what}: connect: {e}"))?;
    let connect_us = micros_since(start);
    let io = |e: std::io::Error| format!("{what}: {e}");
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let sent = Instant::now();
    stream.write_all(request.as_bytes()).map_err(io)?;
    Ok(Sent {
        stream,
        what,
        start,
        sent,
        connect_us,
    })
}

impl Sent {
    /// Read the reply to the end (the server closes every connection
    /// after one exchange).
    fn reply(mut self) -> Result<Reply, String> {
        let what = &self.what;
        let io = |e: std::io::Error| format!("{what}: {e}");
        let mut raw = vec![0u8; 16 * 1024];
        let first = self.stream.read(&mut raw).map_err(io)?;
        let ttfb_us = micros_since(self.sent);
        raw.truncate(first);
        self.stream.read_to_end(&mut raw).map_err(io)?;
        let total_us = micros_since(self.start);
        let text = String::from_utf8(raw).map_err(|_| format!("{what}: reply is not UTF-8"))?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{what}: no header terminator"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("{what}: bad status line"))?;
        Ok(Reply {
            status,
            body: body.to_string(),
            connect_us: self.connect_us,
            ttfb_us,
            total_us,
        })
    }
}

/// One request over a fresh connection, read to the end.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    send(addr, method, path, body)?.reply()
}

/// [`call`], failing unless the status is `want`.
fn expect(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<Reply, String> {
    let reply = call(addr, method, path, body)?;
    if reply.status != want {
        return Err(format!(
            "{method} {path}: status {} (want {want}): {}",
            reply.status,
            reply.body.chars().take(200).collect::<String>()
        ));
    }
    Ok(reply)
}

fn json(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("bad JSON reply: {e}"))
}

/// The inputs of one run, all drawn from the seed.
struct Inputs {
    sim: Vec<String>,
    eval: Vec<String>,
    /// Base seed of fresh simulate jobs (never one of the `sim` seeds).
    fresh_base: u64,
}

fn sim_request(seed: u64) -> String {
    format!(
        r#"{{"ports":64,"load":0.01,"seed":{seed},"warmup_cycles":200,"measure_cycles":1000,"drain_cycles":2000}}"#
    )
}

fn explore_request(n: u64) -> Result<String, String> {
    let mut grid = GridSpec::paper();
    grid.memory_access_ns = 100.0 + n as f64;
    let grid = serde_json::to_string(&grid).map_err(|e| format!("grid: {e}"))?;
    Ok(format!(r#"{{"spec":{grid},"spot_checks":0}}"#))
}

impl Inputs {
    fn new(spec: &ServeSpec, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let sim = (0..spec.sim_keys)
            .map(|i| sim_request((rng.next_u64() >> 24) * 64 + i as u64))
            .collect();
        let techs = ["paper1986", "scaled_cmos_early90s", "conservative1986"];
        let mut eval: Vec<String> = Vec::new();
        while eval.len() < spec.eval_keys {
            let design = format!(
                r#"{{"tech":"{}","kind":"{}","chip_radix":{},"width":{},"board_ports":256,"network_ports":{},"packet_bits":100,"clock_scheme":"{}","memory_access_ns":100.0}}"#,
                techs[rng.below(3) as usize],
                ["Dmc", "Mcc"][rng.below(2) as usize],
                [4, 8, 16][rng.below(3) as usize],
                [1, 2, 4, 8][rng.below(4) as usize],
                [1024, 2048][rng.below(2) as usize],
                ["MultiplePulse", "Standard"][rng.below(2) as usize],
            );
            if !eval.contains(&design) {
                eval.push(design);
            }
        }
        Self {
            sim,
            eval,
            fresh_base: (rng.next_u64() >> 24) * 64 + 63,
        }
    }
}

/// Directories of the journal and the spill, under the working directory
/// and removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join(".perfbench_run")
            .join(format!(
                "serve-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run uses the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Running {
    /// Bind and start a server, returning once `/v1/healthz` answers 200,
    /// with the seconds that took.
    ///
    /// The health request is written to the bound listener before the
    /// server starts, so the acceptor's first `accept` finds it waiting:
    /// otherwise the time would include a random part of the 2 ms accept
    /// poll, depending on which of the two threads came first.
    fn start(config: &ServeConfig) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let server = Server::bind(config.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let health = send(addr, "GET", "/v1/healthz", "");
        let thread = std::thread::spawn(move || server.run());
        let running = Self {
            addr,
            handle,
            thread,
        };
        match health.and_then(Sent::reply) {
            Ok(reply) if reply.status == 200 => Ok((running, start.elapsed().as_secs_f64())),
            outcome => {
                let _ = running.stop();
                Err(match outcome {
                    Ok(reply) => format!("/v1/healthz: status {}", reply.status),
                    Err(e) => e,
                })
            }
        }
    }

    /// Drain and join the server.
    fn stop(self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))
    }
}

/// Submit a job (simulate or explore), wait on its progress stream until
/// the terminal line, then fetch the result body. Returns the body, the
/// job id and the milliseconds from submit to body.
fn job(addr: SocketAddr, endpoint: &str, request: &str) -> Result<(String, u64, f64), String> {
    let start = Instant::now();
    let submitted = expect(addr, "POST", endpoint, request, 202)?;
    let id = json(&submitted.body)?
        .get("job")
        .and_then(Value::as_u64)
        .ok_or("202 reply without a job id")?;
    let stream = expect(addr, "GET", &format!("/v1/jobs/{id}/stream"), "", 200)?;
    if !stream.body.contains(r#""status":"done""#) {
        return Err(format!("job {id} did not finish: {}", stream.body.trim()));
    }
    let result = expect(addr, "GET", &format!("/v1/jobs/{id}/result"), "", 200)?;
    Ok((result.body, id, micros_since(start) / 1e3))
}

/// What the closed loop records.
#[derive(Default)]
struct Loop {
    inline_us: Vec<f64>,
    connect_us: Vec<f64>,
    job_ms: Vec<f64>,
    /// Per fresh job: the trace's span durations (µs) by name, and job ms.
    spans: Vec<(BTreeMap<String, f64>, f64)>,
    /// Fresh jobs: the local computation that must reproduce the body,
    /// the request and the body, checked after the loop.
    fresh: Vec<(Local, String, String)>,
    completed: u64,
    checks: Checks,
}

impl Loop {
    fn merge(&mut self, other: Self) {
        self.inline_us.extend(other.inline_us);
        self.connect_us.extend(other.connect_us);
        self.job_ms.extend(other.job_ms);
        self.spans.extend(other.spans);
        self.fresh.extend(other.fresh);
        self.completed += other.completed;
        self.checks.absorb(other.checks);
    }
}

fn span_durations(trace: &str) -> Result<BTreeMap<String, f64>, String> {
    let value = json(trace)?;
    let children = value
        .get("spans")
        .and_then(|s| s.get("children"))
        .and_then(Value::as_array)
        .ok_or("trace without spans")?;
    Ok(children
        .iter()
        .filter_map(|span| {
            let name = span.get("name")?.as_str()?;
            let micros = span.get("duration_us")?.as_f64()?;
            Some((name.to_string(), micros))
        })
        .collect())
}

/// What the clients of the closed loop share.
struct Shared<'a> {
    addr: SocketAddr,
    spec: &'a ServeSpec,
    inputs: &'a Inputs,
    first_sim: &'a [String],
    first_eval: &'a [String],
    /// Fresh jobs submitted so far (numbers their requests).
    fresh: AtomicU64,
    deadline: Instant,
    trace: bool,
}

/// One client's closed loop until the deadline.
fn client(shared: &Shared<'_>, mut rng: Rng) -> Loop {
    let Shared {
        addr,
        spec,
        inputs,
        first_sim,
        first_eval,
        ref fresh,
        deadline,
        trace,
    } = *shared;
    let mut out = Loop::default();
    while Instant::now() < deadline {
        let roll = rng.below(100);
        let outcome = if roll < spec.fresh_sim_pct + spec.fresh_explore_pct {
            let n = fresh.fetch_add(1, Ordering::Relaxed);
            let (endpoint, request, local): (_, _, Local) = if roll < spec.fresh_sim_pct {
                (
                    "/v1/simulate",
                    Ok(sim_request(inputs.fresh_base + n * 64)),
                    local_simulate,
                )
            } else {
                ("/v1/explore", explore_request(n), local_explore)
            };
            request.and_then(|request| {
                let (body, id, ms) = job(addr, endpoint, &request)?;
                out.job_ms.push(ms);
                if trace {
                    let reply = expect(addr, "GET", &format!("/v1/jobs/{id}/trace"), "", 200)?;
                    out.spans.push((span_durations(&reply.body)?, ms));
                }
                out.fresh.push((local, request, body));
                Ok(())
            })
        } else {
            let (path, request, want) =
                if roll < spec.fresh_sim_pct + spec.fresh_explore_pct + spec.evaluate_pct {
                    let i = rng.below(inputs.eval.len() as u64) as usize;
                    ("/v1/evaluate", &inputs.eval[i], &first_eval[i])
                } else {
                    let i = rng.below(inputs.sim.len() as u64) as usize;
                    ("/v1/simulate", &inputs.sim[i], &first_sim[i])
                };
            expect(addr, "POST", path, request, 200).and_then(|reply| {
                out.inline_us.push(reply.total_us);
                out.connect_us.push(reply.connect_us);
                if reply.body == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "{path}: cache-hit body differs from the first body for its key"
                    ))
                }
            })
        };
        if outcome.is_ok() {
            out.completed += 1;
        }
        out.checks.record(outcome);
    }
    out
}

fn local_simulate(request: &str) -> Result<String, String> {
    let request: SimulateRequest =
        serde_json::from_str(request).map_err(|e| format!("request: {e}"))?;
    let config = request.resolve(&Limits::default())?;
    let result = icn_sim::try_run(config).map_err(|e| e.to_string())?;
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

fn local_explore(request: &str) -> Result<String, String> {
    let request: ExploreRequest =
        serde_json::from_str(request).map_err(|e| format!("request: {e}"))?;
    let resolved = request.resolve(&Limits::default())?;
    let options = ExploreOptions {
        threads: 1,
        chunk: DEFAULT_CHUNK,
        spot_checks: resolved.spot_checks,
    };
    let outcome = explore(&resolved.spec, &options, None)?;
    serde_json::to_string(&outcome).map_err(|e| e.to_string())
}

fn local_evaluate(request: &str) -> Result<String, String> {
    let spec: icn_lint::DesignSpec =
        serde_json::from_str(request).map_err(|e| format!("request: {e}"))?;
    Ok(icn_lint::render_design_json(&icn_lint::check_design(
        "<request>",
        &spec,
    )))
}

/// A local computation of a request's body.
type Local = fn(&str) -> Result<String, String>;

/// Check `body` against a local computation of `request`.
fn verify(local: Local, request: &str, body: &str) -> Result<(), String> {
    if local(request)? == body {
        Ok(())
    } else {
        Err(format!(
            "body differs from a local computation of {request}"
        ))
    }
}

/// Run the service workload with a closed loop of about `seconds`.
#[must_use]
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Part {
    let mut out = Part::default();
    if let Err(e) = run_phases(spec, seed, seconds, trace, &mut out) {
        out.checks.record(Err(e));
    }
    out
}

fn run_phases(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Part,
) -> Result<(), String> {
    let dir = RunDir::new()?;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        http_workers: spec.clients,
        cache_entries: spec.cache_entries,
        journal: Some(dir.path("journal")),
        cache_dir: Some(dir.path("spill")),
        ..ServeConfig::default()
    };
    let inputs = Inputs::new(spec, seed);
    let (first_sim, first_eval) = warm_up(&config, &inputs, &mut out.checks)?;

    // Every bind replays the warm-up's journal, not the one the previous
    // bind compacted.
    let journal = dir.path("journal");
    let warm_journal = std::fs::read(&journal).map_err(|e| format!("reading {journal}: {e}"))?;
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut server = None;
    for _ in 0..spec.setup_reps.max(1) {
        if let Some(previous) = server.take() {
            Running::stop(previous)?;
        }
        std::fs::write(&journal, &warm_journal).map_err(|e| format!("writing {journal}: {e}"))?;
        let (running, secs) = Running::start(&config)?;
        setups.push(secs);
        server = Some(running);
    }
    let server = server.ok_or("no server")?;
    let addr = server.addr;

    let started = Instant::now();
    let shared = Shared {
        addr,
        spec,
        inputs: &inputs,
        first_sim: &first_sim,
        first_eval: &first_eval,
        fresh: AtomicU64::new(0),
        deadline: started + Duration::from_secs_f64(seconds),
        trace,
    };
    let mut done = Loop::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let rng = Rng::new(seed ^ (0x5eed_0000 + c as u64));
                let shared = &shared;
                scope.spawn(move || client(shared, rng))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => done.merge(part),
                Err(_) => done
                    .checks
                    .record(Err("client thread panicked".to_string())),
            }
        }
    });
    let wall_s = started.elapsed().as_secs_f64();

    let stats = expect(addr, "GET", "/v1/stats", "", 200).and_then(|r| json(&r.body));
    out.checks
        .record(server.stop().and_then(|summary| match summary.jobs_failed {
            0 => Ok(()),
            failed => Err(format!("{failed} server jobs failed")),
        }));

    for (local, request, body) in &done.fresh {
        out.checks.record(verify(*local, request, body));
    }

    let throughput = done.completed as f64 / wall_s;
    out.e2e.put("setup_s", "s", median(&setups));
    out.e2e.put("throughput_per_s", "1/s", throughput);
    out.e2e.put("latency_us_p50", "us", median(&done.inline_us));
    out.named
        .put("request_us_p50", "us", median(&done.inline_us));
    out.named
        .put("request_us_p99", "us", quantile(&done.inline_us, 0.99));
    out.named
        .put("request_samples", "count", done.inline_us.len() as f64);
    out.named.put("job_ms_p50", "ms", median(&done.job_ms));
    out.named
        .put("job_ms_p90", "ms", quantile(&done.job_ms, 0.90));
    out.named
        .put("job_samples", "count", done.job_ms.len() as f64);
    out.named.put("requests_per_s", "1/s", throughput);

    if trace {
        let gap = accept_gap(&config, spec, &inputs, &first_eval, &mut out.checks)?;
        out.layers = layers(&done, &stats?, &gap);
    }
    out.checks.absorb(done.checks);
    Ok(())
}

/// Client- and server-side latency of the same inline requests.
struct Gap {
    ttfb_us_p50: f64,
    server_us_p50: f64,
}

/// Time `gap_probes` sequential `/v1/evaluate` requests on a server of
/// their own (no journal, no spill), so the server's latency histogram
/// (`/v1/stats` `latency_us`) holds those requests and the one health
/// check of its start-up, and nothing else.
fn accept_gap(
    config: &ServeConfig,
    spec: &ServeSpec,
    inputs: &Inputs,
    first_eval: &[String],
    checks: &mut Checks,
) -> Result<Gap, String> {
    let config = ServeConfig {
        journal: None,
        cache_dir: None,
        ..config.clone()
    };
    let (server, _) = Running::start(&config)?;
    let mut ttfb = Vec::with_capacity(spec.gap_probes);
    for n in 0..spec.gap_probes {
        let i = n % inputs.eval.len();
        let outcome =
            expect(server.addr, "POST", "/v1/evaluate", &inputs.eval[i], 200).and_then(|reply| {
                ttfb.push(reply.ttfb_us);
                if reply.body == first_eval[i] {
                    Ok(())
                } else {
                    Err("/v1/evaluate: body differs from the first body for its key".to_string())
                }
            });
        checks.record(outcome);
    }
    let stats = expect(server.addr, "GET", "/v1/stats", "", 200).and_then(|r| json(&r.body));
    server.stop()?;
    Ok(Gap {
        ttfb_us_p50: median(&ttfb),
        server_us_p50: stat(&stats?, "latency_us", "p50"),
    })
}

/// Phase 1: compute every key once on a fresh server and check each
/// first body against a local computation. Returns the first bodies.
fn warm_up(
    config: &ServeConfig,
    inputs: &Inputs,
    checks: &mut Checks,
) -> Result<(Vec<String>, Vec<String>), String> {
    let (server, _) = Running::start(config)?;
    let addr = server.addr;
    let mut ids = Vec::new();
    for request in &inputs.sim {
        let reply = expect(addr, "POST", "/v1/simulate", request, 202)?;
        ids.push(
            json(&reply.body)?
                .get("job")
                .and_then(Value::as_u64)
                .ok_or("no job id")?,
        );
    }
    let mut first_sim = Vec::new();
    for id in ids {
        let path = format!("/v1/jobs/{id}/result");
        loop {
            let reply = call(addr, "GET", &path, "")?;
            match reply.status {
                200 => break first_sim.push(reply.body),
                409 => std::thread::sleep(Duration::from_millis(2)),
                status => return Err(format!("warm-up job {id}: status {status}")),
            }
        }
    }
    let mut first_eval = Vec::new();
    for request in &inputs.eval {
        first_eval.push(expect(addr, "POST", "/v1/evaluate", request, 200)?.body);
    }
    server.stop()?;
    for (request, body) in inputs.sim.iter().zip(&first_sim) {
        checks.record(verify(local_simulate, request, body));
    }
    for (request, body) in inputs.eval.iter().zip(&first_eval) {
        checks.record(verify(local_evaluate, request, body));
    }
    Ok((first_sim, first_eval))
}

fn stat(stats: &Value, section: &str, field: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn layers(done: &Loop, stats: &Value, gap: &Gap) -> Metrics {
    let span = |name: &str| -> f64 {
        let values: Vec<f64> = done
            .spans
            .iter()
            .filter_map(|(s, _)| s.get(name).copied())
            .collect();
        median(&values)
    };
    let stream_wait: Vec<f64> = done
        .spans
        .iter()
        .map(|(s, ms)| {
            let server_us = s.get("queue_wait").unwrap_or(&0.0) + s.get("execute").unwrap_or(&0.0);
            ms - server_us / 1e3
        })
        .collect();
    let hits = stat(stats, "cache", "hits");
    let mut l = Metrics::default();
    l.put("serve.connect_us_p50", "us", median(&done.connect_us));
    l.put("serve.ttfb_us_p50", "us", gap.ttfb_us_p50);
    l.put("serve.server_latency_us_p50", "us", gap.server_us_p50);
    l.put(
        "serve.accept_gap_us",
        "us",
        gap.ttfb_us_p50 - gap.server_us_p50,
    );
    l.put("serve.span.parse_us", "us", span("parse"));
    l.put("serve.span.cache_lookup_us", "us", span("cache_lookup"));
    l.put("serve.span.journal_append_us", "us", span("journal_append"));
    l.put("serve.span.queue_wait_us", "us", span("queue_wait"));
    l.put("serve.span.execute_us", "us", span("execute"));
    l.put("serve.stream_wait_ms", "ms", median(&stream_wait));
    l.put(
        "serve.cache_hit_ratio",
        "ratio",
        hits / (hits + stat(stats, "cache", "misses")),
    );
    l.put(
        "serve.spill_hit_ratio",
        "ratio",
        stat(stats, "cache", "disk_hits") / hits,
    );
    l.put(
        "serve.queue_mean_service_us",
        "us",
        stat(stats, "queue", "mean_service_us"),
    );
    l.put(
        "serve.jobs_completed",
        "count",
        stat(stats, "jobs", "completed"),
    );
    l
}
