//! The `qisim-serve` side: spawning the shipped binary, the open- and
//! closed-loop load generators, response checks, and the per-line direct
//! cost that the served round trip is compared with.

use crate::gen::LineDraws;
use crate::layers::traced_analyze;
use crate::report::Report;
use crate::trace::{Tracer, OP};
use qisim::engine;
use qisim_serve::proto::{self, ResponseKind};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting it failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a stopping server may take to drain and exit.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `qisim-serve --tcp 127.0.0.1:0` child. Dropping it stops
/// the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stop_file: PathBuf,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns the binary and waits for its `listening = ADDR` line.
    pub fn spawn(bin: &Path, work_dir: &Path, tag: usize) -> io::Result<ServerProc> {
        let stop_file = work_dir.join(format!("serve-{}-{tag}.stop", std::process::id()));
        let _ = std::fs::remove_file(&stop_file);
        let mut child = Command::new(bin)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .arg("--stop-file")
            .arg(&stop_file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().ok_or_else(|| io::Error::other("no child stdout"))?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr =
            line.trim().strip_prefix("qisim-serve listening = ").and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("unexpected server banner {line:?}")));
        };
        Ok(ServerProc { child, addr, stop_file, _stdout: stdout })
    }

    /// Peak resident set of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::sys::peak_rss_mb(&self.child.id().to_string())
    }

    /// CPU time the server process has used, in seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        crate::sys::cpu_s(&self.child.id().to_string())
    }

    /// Stops the server through its stop file; `true` when it exited
    /// cleanly within [`STOP_TIMEOUT`].
    pub fn stop(mut self) -> bool {
        self.shutdown()
    }

    fn shutdown(&mut self) -> bool {
        let clean = std::fs::write(&self.stop_file, b"").is_ok() && {
            let deadline = Instant::now() + STOP_TIMEOUT;
            loop {
                match self.child.try_wait() {
                    Ok(Some(status)) => break status.success(),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => break false,
                }
            }
        };
        if !clean {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.stop_file);
        clean
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.shutdown();
        }
    }
}

/// One client connection: a writer half and a line reader.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

/// The `ok` answer each of the first `valid` lines must get:
/// `proto::ok_response` of a direct `try_analyze_spec`. A line that does
/// not analyze is a failed check.
pub fn expected_answers(report: &mut Report, lines: &[String], valid: usize) -> Vec<String> {
    lines[..valid]
        .iter()
        .map(|line| {
            report.attempted += 1;
            let response = proto::parse_request_line(line).and_then(|req| {
                engine::try_analyze_spec(&req.spec, &req.target.target())
                    .map(|v| proto::ok_response(None, req.id.as_deref(), &[], &v))
            });
            response.unwrap_or_else(|e| {
                report.fail(format!("direct analysis of {line:?}: {e}"));
                String::new()
            })
        })
        .collect()
}

/// The answer to `line` computed in-process, the way the server does.
pub fn direct_answer(line: &str) -> String {
    let answer = proto::parse_request_line(line).and_then(|req| {
        engine::try_analyze_spec(&req.spec, &req.target.target())
            .map(|v| proto::ok_response(None, req.id.as_deref(), &[], &v))
    });
    answer.unwrap_or_else(|e| proto::error_response(None, proto::request_id(line), &e))
}

/// Outcome of checking one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A typed `error` for a deliberately invalid line.
    ExpectedError,
    Busy,
    Wrong,
}

/// Checks a response to table line `idx`: a valid line's (`idx` below
/// `expected.len()`) `ok` response, without its `request_id`, must equal
/// the expected one byte for byte; an invalid line must get a typed
/// `error`.
pub fn check(expected: &[String], idx: usize, response: &str) -> Verdict {
    match proto::response_kind(response) {
        Some(ResponseKind::Busy) => Verdict::Busy,
        Some(ResponseKind::Ok)
            if idx < expected.len() && proto::strip_request_id(response) == expected[idx] =>
        {
            Verdict::Ok
        }
        Some(ResponseKind::Error)
            if idx >= expected.len()
                && matches!(
                    proto::pair_value(response, "error"),
                    Some("decode" | "config" | "power" | "target")
                ) =>
        {
            Verdict::ExpectedError
        }
        _ => Verdict::Wrong,
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub idx: usize,
    /// Due → response, µs (closed loop: send → response).
    pub latency_us: f64,
    /// Send → response, µs.
    pub rtt_us: f64,
    /// Due → send, µs (0 in a closed loop).
    pub late_us: f64,
    pub verdict: Verdict,
}

/// Result of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Requests that got no response at all.
    pub lost: usize,
    /// Requests outstanding when the last one was sent (open loop).
    pub backlog: usize,
    /// Wall time from the first send to the last response.
    pub wall_s: f64,
}

impl Phase {
    /// Appends a later stretch of the same kind of load.
    pub fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.lost += other.lost;
        self.backlog = self.backlog.max(other.backlog);
        self.wall_s += other.wall_s;
    }

    pub fn count(&self, verdict: Verdict) -> usize {
        self.samples.iter().filter(|s| s.verdict == verdict).count()
    }

    /// Counts attempts and failures (wrong bytes, unexpected `busy`,
    /// missing responses) into the report.
    pub fn account(&self, report: &mut Report, lines: &[String], name: &str) {
        report.attempted += (self.samples.len() + self.lost) as u64;
        for s in &self.samples {
            if matches!(s.verdict, Verdict::Busy | Verdict::Wrong) {
                report.fail(format!("{name}: {:?} response to {:?}", s.verdict, lines[s.idx]));
            }
        }
        for _ in 0..self.lost {
            report.fail(format!("{name}: request got no response"));
        }
    }
}

/// Open loop on one connection: a writer thread sends `draws[k]` when it
/// falls due at `k / rate` seconds, the calling thread reads responses.
/// Latency is timed from the due time, so generator stalls count.
pub fn open_loop(
    conn: &mut Conn,
    lines: &[String],
    expected: &[String],
    draws: &[usize],
    rate: f64,
) -> io::Result<Phase> {
    let mut writer = conn.writer.try_clone()?;
    let n = draws.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut phase = Phase::default();
    let (sent, recv) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(n);
            let mut buf = String::new();
            while sent.len() < n {
                let now = Instant::now();
                let next_due = due(sent.len());
                if now < next_due {
                    std::thread::sleep(next_due - now);
                    continue;
                }
                buf.clear();
                while sent.len() < n && due(sent.len()) <= now {
                    buf.push_str(&lines[draws[sent.len()]]);
                    buf.push('\n');
                    sent.push(now);
                }
                if writer.write_all(buf.as_bytes()).is_err() {
                    break;
                }
            }
            sent
        });
        let mut recv: Vec<(Instant, Verdict)> = Vec::with_capacity(n);
        let mut buf = String::new();
        while recv.len() < n {
            if conn.recv(&mut buf).is_err() {
                break;
            }
            recv.push((Instant::now(), check(expected, draws[recv.len()], &buf)));
        }
        (sender.join().unwrap_or_default(), recv)
    });
    let last_sent = sent.last().copied().unwrap_or(start);
    for (k, &(at, verdict)) in recv.iter().enumerate() {
        let sent_at = sent.get(k).copied().unwrap_or(at);
        phase.samples.push(Sample {
            idx: draws[k],
            latency_us: (at - due(k)).as_secs_f64() * 1e6,
            rtt_us: (at.saturating_duration_since(sent_at)).as_secs_f64() * 1e6,
            late_us: (sent_at.saturating_duration_since(due(k))).as_secs_f64() * 1e6,
            verdict,
        });
        if at > last_sent {
            phase.backlog += 1;
        }
    }
    phase.lost = n - recv.len();
    phase.wall_s = recv.last().map_or(0.0, |(at, _)| at.duration_since(start).as_secs_f64());
    Ok(phase)
}

/// Closed loop: each connection draws from its own line stream in
/// `draws` and sends its next line only after the previous response,
/// until `seconds` have passed.
pub fn closed_loop(
    conns: &mut [Conn],
    lines: &[String],
    expected: &[String],
    draws: &mut [LineDraws<'_>],
    seconds: f64,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sample>, usize, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(draws.iter_mut())
            .map(|(conn, draw)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut lost = 0;
                    let mut buf = String::new();
                    let mut last = Instant::now();
                    while Instant::now() < deadline {
                        let idx = draw.next_index();
                        let t0 = Instant::now();
                        if conn.send(&lines[idx]).and_then(|()| conn.recv(&mut buf)).is_err() {
                            lost += 1;
                            break;
                        }
                        last = Instant::now();
                        let us = (last - t0).as_secs_f64() * 1e6;
                        let verdict = check(expected, idx, &buf);
                        samples.push(Sample {
                            idx,
                            latency_us: us,
                            rtt_us: us,
                            late_us: 0.0,
                            verdict,
                        });
                    }
                    (samples, lost, last)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or((Vec::new(), 1, start))).collect()
    });
    let mut phase = Phase::default();
    let mut end = start;
    for (samples, lost, last) in results {
        phase.samples.extend(samples);
        phase.lost += lost;
        end = end.max(last);
    }
    phase.wall_s = (end - start).as_secs_f64();
    phase
}

/// Sends every table line once on one connection and checks each answer.
pub fn warm_up(conn: &mut Conn, lines: &[String], expected: &[String]) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let mut buf = String::new();
    for (idx, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        conn.send(line)?;
        conn.recv(&mut buf)?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let verdict = check(expected, idx, &buf);
        phase.samples.push(Sample { idx, latency_us: us, rtt_us: us, late_us: 0.0, verdict });
    }
    Ok(phase)
}

/// Direct in-process cost of answering one line, split by layer.
#[derive(Debug, Clone, Default)]
pub struct DirectCost {
    /// Self time per span name, µs (the root `op` span's self time is
    /// time no layer span covers).
    pub layers: BTreeMap<&'static str, f64>,
    /// Total time, µs.
    pub total_us: f64,
}

/// Parses, analyzes and encodes `line` the way the server does, `reps`
/// times under spans (op ids `op << 8 | rep`), and returns the cost per
/// layer of the rep with the median total, so one stalled rep does not
/// count.
pub fn direct_cost(tr: &mut Tracer, op: u64, line: &str, reps: usize) -> DirectCost {
    let mut runs: Vec<DirectCost> = (0..reps.max(1))
        .map(|rep| {
            let from = tr.len();
            tr.set_op(op << 8 | rep as u64);
            let root = tr.enter(OP);
            let open = tr.enter("codec.parse");
            let parsed = proto::parse_request_line(line);
            tr.exit(open);
            let analyzed = parsed
                .and_then(|req| Ok((traced_analyze(tr, &req.spec, &req.target.target())?, req)));
            let open = tr.enter("codec.encode");
            let response = match analyzed {
                Ok((verdict, req)) => proto::ok_response(None, req.id.as_deref(), &[], &verdict),
                Err(e) => proto::error_response(None, proto::request_id(line), &e),
            };
            tr.exit(open);
            std::hint::black_box(response);
            tr.exit(root);
            let (layers, total_ns) = tr.self_times_since(from);
            DirectCost {
                layers: layers.into_iter().map(|(name, ns)| (name, ns as f64 / 1e3)).collect(),
                total_us: total_ns as f64 / 1e3,
            }
        })
        .collect();
    runs.sort_by(|a, b| a.total_us.total_cmp(&b.total_us));
    runs.swap_remove(runs.len() / 2)
}

/// Per-layer totals of served requests: each request is charged its
/// line's direct layer costs, the generator's lateness, and a `handoff`
/// residual (round trip minus the direct cost) covering read, queue,
/// batch hand-off and write.
#[derive(Debug, Default)]
pub struct ServedLayers {
    pub requests: usize,
    pub latency_us: f64,
    pub layers: BTreeMap<&'static str, f64>,
    pub handoff_us: f64,
    pub late_us: f64,
    /// Latency not covered by a layer span or a named residual, µs.
    pub unattributed_us: f64,
}

impl ServedLayers {
    pub fn add(&mut self, samples: &[Sample], costs: &[DirectCost]) {
        for s in
            samples.iter().filter(|s| matches!(s.verdict, Verdict::Ok | Verdict::ExpectedError))
        {
            let cost = &costs[s.idx];
            self.requests += 1;
            self.latency_us += s.latency_us;
            self.late_us += s.late_us;
            let handoff = s.rtt_us - cost.total_us;
            self.handoff_us += handoff.max(0.0);
            let mut covered = s.late_us + handoff.max(0.0);
            for (&name, &us) in &cost.layers {
                if name != OP {
                    *self.layers.entry(name).or_default() += us;
                    covered += us;
                }
            }
            self.unattributed_us += (s.latency_us - covered).max(0.0);
        }
    }

    /// Mean per request of layer `name` (µs).
    pub fn mean(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0) / self.requests.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server that answers each line after a fixed stall, so
    /// the open loop's due-time accounting can be checked exactly.
    fn stalling_server(stall: Duration, answer: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                std::thread::sleep(stall);
                writer.write_all(answer.as_bytes()).unwrap();
                line.clear();
            }
        });
        addr
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        // 20 requests due every 1 ms against a server that needs 5 ms
        // each: requests queue behind each other, so latency from the
        // due time grows by ~4 ms per request even though each round
        // trip from the moment the server reads it stays ~5 ms.
        let addr =
            stalling_server(Duration::from_millis(5), "error = decode; line = 1; reason = x\n");
        let lines = vec!["bad".to_string()];
        let expected: Vec<String> = Vec::new();
        let mut conn = Conn::open(addr).unwrap();
        let phase = open_loop(&mut conn, &lines, &expected, &[0; 20], 1000.0).unwrap();
        assert_eq!(phase.samples.len(), 20);
        assert_eq!(phase.lost, 0);
        assert!(phase.samples.iter().all(|s| s.verdict == Verdict::ExpectedError));
        let last = phase.samples.last().unwrap();
        // Served one after another: the last answer lands >= 100 ms after
        // the first was due, i.e. >= 81 ms after the last was due.
        assert!(last.latency_us >= 80_000.0, "{last:?}");
        assert!(last.latency_us >= last.rtt_us);
        // Lateness is measured, not assumed: it is due → send, and the
        // latency always includes it.
        for s in &phase.samples {
            assert!(s.late_us >= 0.0);
            assert!((s.latency_us - (s.late_us + s.rtt_us)).abs() < 1.0, "{s:?}");
        }
        assert!(phase.backlog > 10, "{}", phase.backlog);
    }

    #[test]
    fn checks_classify_responses() {
        let expected = vec!["ok = 1; a = b\n".to_string()];
        assert_eq!(check(&expected, 0, "ok = 1; request_id = 7; a = b\n"), Verdict::Ok);
        assert_eq!(check(&expected, 0, "ok = 1; request_id = 7; a = c\n"), Verdict::Wrong);
        assert_eq!(
            check(&expected, 1, "error = config; line = 0; reason = x\n"),
            Verdict::ExpectedError
        );
        assert_eq!(check(&expected, 1, "error = oops; reason = x\n"), Verdict::Wrong);
        assert_eq!(check(&expected, 0, "busy = 1; reason = full\n"), Verdict::Busy);
        assert_eq!(check(&expected, 0, "error = config; line = 0; reason = x\n"), Verdict::Wrong);
    }
}
