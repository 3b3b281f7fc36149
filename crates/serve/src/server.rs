//! The serving loops: synchronous stdin/stdout framing
//! ([`serve_lines`]) and the long-running TCP service ([`Server`]).
//! Both answer every request through `answer` on the thread that read
//! it.
//!
//! Every request follows the same path: parse ([`crate::proto`]) →
//! validate (`DesignSpec::build` / `topology`) → analyze through the
//! staged engine ([`qisim::engine::try_analyze_topology`], the same
//! call [`qisim::engine::try_analyze_spec`] makes) → render one
//! response line.
//!
//! A request can never take the process down: malformed lines, invalid
//! knobs, and engine failures all become typed `error` responses, and a
//! request arriving while [`ServeConfig::max_inflight`] others are being
//! answered becomes a typed `busy` response (shed, counted under
//! `serve.shed`).
//!
//! # Request ids
//!
//! Every received line gets a process-unique `request_id` (the accept
//! sequence number). The id is echoed on the response line, stamped on
//! the request's `serve.request.start` / `serve.request.finish` JSONL
//! log records (`QISIM_LOG`), and attached to the engine's span
//! arguments and `engine.stage` log records via
//! [`qisim_obs::RequestScope`].

use crate::config::{ServeConfig, MAX_LINE_BYTES};
use crate::proto::{self, Request};
use qisim::engine;
use qisim::error::QisimError;
use qisim::hal::topology::FridgeTopology;
use qisim::scalability::Scalability;
use qisim::spec::Estimator;
use qisim::QciDesign;
use qisim_obs::{counter, gauge, observe};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked loops (accept poll, connection reads) re-check the
/// stop flag and the stop file.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long one response write may make no progress before its
/// connection is closed: a client that stops reading can hold only its
/// own connection thread, and only this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Service counters, independent of the observability feature (the
/// `serve.*` metrics mirror these when `obs` is compiled in).
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Request lines received (including shed and malformed ones).
    pub requests: u64,
    /// Successful (`ok`) responses.
    pub ok: u64,
    /// Typed `error` responses.
    pub errors: u64,
    /// `busy` responses (requests shed under backpressure).
    pub shed: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// Counts one received request line.
    fn received(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        counter!("serve.requests");
    }

    /// Counts one rendered response by its kind.
    fn track(&self, response: &str) {
        match proto::response_kind(response) {
            Some(proto::ResponseKind::Ok) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                counter!("serve.responses");
            }
            Some(proto::ResponseKind::Busy) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                counter!("serve.shed");
            }
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.errors");
            }
        }
    }
}

/// A parsed, validated request ready for the engine.
struct Prepared {
    seq: u64,
    request: Request,
    design: QciDesign,
    topology: FridgeTopology,
    estimator: Estimator,
}

/// Parses and validates one request line into a [`Prepared`] analysis.
fn prepare(seq: u64, line: &str) -> Result<Prepared, QisimError> {
    let request = proto::parse_request_line(line.trim_end_matches(['\n', '\r']))?;
    let design = request.spec.build()?;
    let topology = request.spec.topology()?;
    let estimator = request.spec.chosen_estimator();
    Ok(Prepared { seq, request, design, topology, estimator })
}

/// Answers one request line: parse and validate, then analyze inside
/// the request's [`qisim_obs::RequestScope`] (traced or not), then
/// render the response line. Every response is bit-identical to a
/// direct `try_analyze_spec` of the same request.
fn answer(config: &ServeConfig, seq: u64, line: &str) -> String {
    let prepared = match prepare(seq, line) {
        Ok(prepared) => prepared,
        Err(error) => return proto::error_response(Some(seq), proto::request_id(line), &error),
    };
    let _scope = qisim_obs::RequestScope::enter(seq);
    let mut extras: Vec<(&str, String)> = Vec::new();
    let result = if prepared.request.trace {
        run_traced(config, &prepared, &mut extras)
    } else {
        engine::try_analyze_topology(
            &prepared.design,
            &prepared.request.target.target(),
            &prepared.topology,
            prepared.estimator,
        )
    };
    render_response(&prepared, result, extras)
}

/// Renders the response line for one prepared request, stamping the
/// spec's display name on success (the `try_analyze_spec` contract).
fn render_response(
    prepared: &Prepared,
    result: Result<Scalability, QisimError>,
    mut extras: Vec<(&str, String)>,
) -> String {
    let id = prepared.request.id.as_deref();
    match result {
        Ok(mut verdict) => {
            verdict.design = prepared.request.spec.display_name();
            if prepared.request.explain {
                extras.push(("explain", verdict.explain().trim_end().replace('\n', " | ")));
            }
            proto::ok_response(Some(prepared.seq), id, &extras, &verdict)
        }
        Err(error) => proto::error_response(Some(prepared.seq), id, &error),
    }
}

/// Emits the `serve.request.start` log record for one received line.
fn log_request_start(seq: u64, inflight: usize) {
    if qisim_obs::log::armed(qisim_obs::log::Level::Info) {
        let _scope = qisim_obs::RequestScope::enter(seq);
        qisim_obs::log::record(qisim_obs::log::Level::Info, "serve.request.start")
            .u64("inflight", inflight as u64)
            .emit();
    }
}

/// Closes the books on one answered request: the `serve.request_ns`
/// latency sample, the response counters, the `serve.request.finish`
/// log record (outcome, latency) and, past the configured
/// [`ServeConfig::slow_ms`] threshold, a `serve.request.slow` warning
/// plus the `serve.slow` counter.
fn finish(config: &ServeConfig, stats: &Stats, seq: u64, response: &str, latency: Duration) {
    observe!("serve.request_ns", latency.as_nanos() as f64);
    stats.track(response);
    let latency_ms = latency.as_secs_f64() * 1e3;
    let slow = config.slow_ms.is_some_and(|ms| latency_ms > ms as f64);
    if slow {
        counter!("serve.slow");
    }
    if !qisim_obs::log::armed(qisim_obs::log::Level::Warn) {
        return;
    }
    let _scope = qisim_obs::RequestScope::enter(seq);
    if qisim_obs::log::armed(qisim_obs::log::Level::Info) {
        let outcome = match proto::response_kind(response) {
            Some(proto::ResponseKind::Ok) => "ok",
            Some(proto::ResponseKind::Busy) => "busy",
            _ => "error",
        };
        qisim_obs::log::record(qisim_obs::log::Level::Info, "serve.request.finish")
            .str("outcome", outcome)
            .f64("latency_ms", latency_ms)
            .emit();
    }
    if slow {
        qisim_obs::log::record(qisim_obs::log::Level::Warn, "serve.request.slow")
            .f64("latency_ms", latency_ms)
            .u64("threshold_ms", config.slow_ms.unwrap_or(0))
            .emit();
    }
}

/// Runs one traced request: arms the process-global flight recorder
/// around the analysis, drains the session, and reports the captured
/// event count (plus a Chrome-trace dump when
/// [`ServeConfig::trace_dir`] is set).
///
/// Capture serializes on a module lock — the recorder is process-global
/// — and is skipped (event count 0) when `QISIM_TRACE` already armed
/// whole-process tracing, so a per-request opt-in can never truncate an
/// operator's full-run trace.
fn run_traced(
    config: &ServeConfig,
    prepared: &Prepared,
    extras: &mut Vec<(&str, String)>,
) -> Result<Scalability, QisimError> {
    static TRACE_LOCK: Mutex<()> = Mutex::new(());
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let target = prepared.request.target.target();
    if qisim_obs::trace::armed() {
        extras.push(("trace_events", "0".to_string()));
        return engine::try_analyze_topology(
            &prepared.design,
            &target,
            &prepared.topology,
            prepared.estimator,
        );
    }
    qisim_obs::trace::arm();
    qisim_obs::trace::clear();
    let result = engine::try_analyze_topology(
        &prepared.design,
        &target,
        &prepared.topology,
        prepared.estimator,
    );
    let session = qisim_obs::TraceSession::drain();
    qisim_obs::trace::disarm();
    let events: usize = session.threads.iter().map(|t| t.events.len()).sum();
    extras.push(("trace_events", events.to_string()));
    if let Some(dir) = &config.trace_dir {
        let path = dir.join(format!("req-{}.trace.json", prepared.seq));
        // Best-effort: an unwritable trace dir must not fail the request.
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(path, qisim_obs::trace_export::chrome_trace_json(&session));
        }
    }
    result
}

/// Serves newline-delimited requests from `input` until EOF — the
/// stdin/stdout framing. Responses are written (and flushed) in request
/// order, one line each; EOF is the graceful-shutdown signal.
///
/// Each line is answered through the same `answer` as the TCP
/// service, so responses are bit-identical across framings.
///
/// # Errors
///
/// Returns only transport failures (`input`/`output` I/O errors);
/// request-level problems become typed `error` response lines.
pub fn serve_lines(
    input: impl BufRead,
    mut output: impl Write,
    config: &ServeConfig,
) -> std::io::Result<StatsSnapshot> {
    let stats = Stats::default();
    let mut seq = 0u64;
    for line in input.lines() {
        let line = line?;
        seq += 1;
        stats.received();
        log_request_start(seq, 1);
        let t0 = Instant::now();
        let response = answer(config, seq, &line);
        finish(config, &stats, seq, &response, t0.elapsed());
        output.write_all(response.as_bytes())?;
        output.flush()?;
    }
    Ok(stats.snapshot())
}

/// State shared between the accept loop and the connection threads.
struct Shared {
    config: ServeConfig,
    stats: Stats,
    /// Requests being answered right now, across all connections.
    inflight: AtomicUsize,
    stop: AtomicBool,
    seq: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

impl crate::admin::ServiceStatus for Shared {
    fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    fn inflight_cap(&self) -> usize {
        self.config.max_inflight
    }

    fn stopping(&self) -> bool {
        Shared::stopping(self)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

/// The long-running TCP service: an accept loop and one thread per
/// connection that reads a request line, answers it inline, and writes
/// the response before it reads the next.
///
/// Backpressure is explicit: when [`ServeConfig::max_inflight`] requests
/// are being answered, a new one is shed immediately with a `busy`
/// response (`serve.shed`). Shutdown is graceful — via
/// [`Server::shutdown`], or by creating the configured
/// [`ServeConfig::stop_file`] — and lets every request already read
/// finish and write its response.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stats", &self.stats.snapshot())
            .field("stop", &self.stopping())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the service and starts serving. Use port 0 to let the OS
    /// pick; [`Server::addr`] reports the bound address.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration I/O error; a failed bind spawns
    /// nothing.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            stats: Stats::default(),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept = std::thread::Builder::new().name("qisim-serve-accept".into()).spawn({
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            move || accept_loop(listener, shared, conns)
        })?;
        Ok(Server { addr, shared, accept: Some(accept), conns })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the service has begun stopping (programmatic
    /// [`Server::shutdown`] or the stop file appearing).
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A handle the [`crate::admin::AdminServer`] observes the serving
    /// loop through (in-flight count, shedding state, counters).
    pub fn status(&self) -> Arc<dyn crate::admin::ServiceStatus> {
        Arc::clone(&self.shared) as Arc<dyn crate::admin::ServiceStatus>
    }

    /// Blocks until the service begins stopping (the stop-file path of
    /// the `qisim-serve` binary), polling at a small fixed interval.
    pub fn wait_until_stopping(&self) {
        while !self.stopping() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Stops accepting, lets every request already read finish, joins
    /// all threads, and returns the final counters. Idempotent.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts connections until stopped; also the stop-file poller.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.stopping() {
            return;
        }
        if let Some(stop_file) = &shared.config.stop_file {
            if stop_file.exists() {
                shared.stop.store(true, Ordering::Relaxed);
                return;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                counter!("serve.connections");
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
                    || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
                {
                    continue;
                }
                // Request/response lines are tiny; leaving Nagle on costs
                // a delayed-ACK round trip (~40 ms) per request.
                let _ = stream.set_nodelay(true);
                let spawned = std::thread::Builder::new().name("qisim-serve-conn".into()).spawn({
                    let shared = Arc::clone(&shared);
                    move || connection_loop(stream, shared)
                });
                if let Ok(handle) = spawned {
                    conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
            }
            // Non-blocking accept: idle poll, re-check stop conditions.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads request lines off one connection and writes each one's
/// response before reading the next, until EOF, a transport error (a
/// write that timed out included), an oversized line, or service stop.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(mut out) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // Reads accumulate across timeouts (`read_line` appends), so the
        // stop flag gets checked every POLL_INTERVAL even mid-line.
        let eof = loop {
            if shared.stopping() {
                return;
            }
            match reader.read_line(&mut line) {
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if line.len() > MAX_LINE_BYTES {
                        break true;
                    }
                }
                Err(_) => return,
            }
        };
        if line.is_empty() {
            return; // clean EOF
        }
        // An oversized line is answered and then ends the connection:
        // the rest of it is unread garbage.
        let last = eof || line.len() > MAX_LINE_BYTES;
        let response = serve_request(&shared, &line);
        if out.write_all(response.as_bytes()).is_err() || last {
            return;
        }
    }
}

/// Answers one request line read off a connection: a typed error for an
/// oversized line, a `busy` shed when [`ServeConfig::max_inflight`]
/// requests are already being answered, otherwise [`answer`] inline
/// while holding an in-flight slot.
fn serve_request(shared: &Shared, line: &str) -> String {
    let config = &shared.config;
    shared.stats.received();
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let t0 = Instant::now();
    let response = if line.len() > MAX_LINE_BYTES {
        log_request_start(seq, shared.inflight.load(Ordering::Relaxed));
        let error = QisimError::Decode(qisim::error::DecodeError::new(
            1,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
        proto::error_response(Some(seq), proto::request_id(line), &error)
    } else {
        let admitted = shared.inflight.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < config.max_inflight).then_some(n + 1)
        });
        match admitted {
            Ok(before) => {
                counter!("serve.accepted");
                gauge!("serve.inflight", (before + 1) as f64);
                log_request_start(seq, before + 1);
                // Fault injection: the delay holds the in-flight slot.
                if !config.delay.is_zero() {
                    std::thread::sleep(config.delay);
                }
                let response = answer(config, seq, line);
                let after = shared.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
                gauge!("serve.inflight", after as f64);
                response
            }
            Err(full) => {
                log_request_start(seq, full);
                let reason = format!("in-flight limit reached ({full}/{})", config.max_inflight);
                proto::busy_response(Some(seq), proto::request_id(line), &reason)
            }
        }
    };
    finish(config, &shared.stats, seq, &response, t0.elapsed());
    response
}
