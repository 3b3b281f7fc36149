//! The three workloads. Each measures for the run's seconds, checks
//! every output, and fills the report: end-to-end metrics when
//! untraced, per-layer metrics when traced.

use crate::gen::{self, ExploreGen, LineTable, Op};
use crate::layers::{self, Digest};
use crate::report::{metric, Metric, Report};
use crate::serve::{self, Conn, DirectCost, Phase, ServedLayers, ServerProc, Verdict};
use crate::stats::{self, median, summarize, Timeline};
use crate::trace::{Tracer, OP};
use qisim::engine;
use qisim::spec::{DesignSpec, Estimator, Preset};
use qisim::QciDesign;
use qisim_serve::proto;
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` is their median. Each starts a
/// fresh process and ends when it could take its first timed op: this
/// binary with `--setup-only 1` for `explore` and `mc_estimate`, the
/// server for `serve_hot`. Set-up repeats until it has also taken
/// [`SETUP_MIN_S`], so that a cheap one is sampled over as long a stretch
/// of the host's time as a dear one.
const SETUP_RUNS: usize = 11;
const SETUP_MIN_S: f64 = 0.5;
/// How long a `serve_hot` set-up waits after the server's `listening`
/// line before it connects. The server tries to accept once as it starts
/// and then every 20 ms; a connect that raced that first try made a
/// set-up take 20 ms less, at random. The wait is shorter than the poll,
/// so it adds nothing to the set-up time.
const CONNECT_AFTER: Duration = Duration::from_millis(10);
/// `explore` reads its peak memory after this many ops, so that the
/// benchmark's own per-op records, which grow with the op count, weigh
/// the same whatever the program's speed.
const RSS_AFTER_OPS: u64 = 8192;
/// Verdicts hashed into the digest, from the first op on.
const EXPLORE_DIGEST_OPS: u64 = 1024;
const MC_DIGEST_OPS: u64 = 16;
/// In a traced run, ops alternate between untraced and traced blocks of
/// this size; the difference in mean op time is the tracing overhead.
const TRACE_BLOCK: u64 = 64;
/// `serve_hot` split of the run: open loop at 500 req/s, then at
/// 1000 req/s, then the closed loop. The rates stay far enough below
/// the server's capacity on a two-core machine that it never sheds,
/// even while the host steals CPU time.
const SERVE_PHASES: [f64; 3] = [0.3, 0.3, 0.4];
const OPEN_RATES: [f64; 2] = [500.0, 1000.0];
const CLOSED_CONNS: usize = 2;
/// Rounds the three `serve_hot` phases are split into.
const SERVE_ROUNDS: usize = 5;
/// Direct (in-process) repetitions per hot line in a traced run.
const DIRECT_REPS: usize = 5;
/// Spans written to a traced run's dump (the first ones; all of them
/// count in the metrics).
const TRACE_DUMP_SPANS: usize = 50_000;
/// Op ids of the serve probe's direct costs start here.
const PROBE_OPS: u64 = 1 << 40;

/// Per-layer metric names, in print order; a traced run prints all.
pub const LAYER_METRICS: [&str; 24] = [
    "spec.build_us",
    "engine.inventory_us",
    "engine.schedule_us",
    "engine.power_us",
    "engine.logical_error_us",
    "engine.verdict_us",
    "codec.parse_us",
    "codec.encode_us",
    "power.max_qubits_us",
    "power.evaluate_us",
    "power.sweep_point_us",
    "surface.sliced_trials_per_s",
    "surface.rare_ms",
    "par.speedup",
    "par.threads",
    "serve.handoff_us",
    "serve.busy_share",
    "serve.error_share",
    "serve.gen_late_ms",
    "serve.backlog",
    "repeat_share",
    "distinct_specs",
    "trace_overhead_pct",
    "unattributed_share",
];

/// Span names whose per-op self time is a layer metric.
const SPAN_LAYERS: [(&str, &str); 8] = [
    ("spec.build", "spec.build_us"),
    ("engine.inventory", "engine.inventory_us"),
    ("engine.schedule", "engine.schedule_us"),
    ("engine.power", "engine.power_us"),
    ("engine.logical_error", "engine.logical_error_us"),
    ("engine.verdict", "engine.verdict_us"),
    ("codec.parse", "codec.parse_us"),
    ("codec.encode", "codec.encode_us"),
];

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Where stop files and the span dump go.
    pub work_dir: PathBuf,
    /// Run only the set-up, print `ready` and exit (the set-up probe).
    pub setup_only: bool,
}

/// The result-line end-to-end set, which every workload prints under
/// the same names; the workload adds its qualified names to the record.
struct EndToEnd {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    /// `VmHWM` just before the first timed op; recorded, not gated.
    rss_before_ops_mb: f64,
    paper_err: f64,
    /// CPU seconds of the analyzing process over the measured ops, and
    /// the op count.
    cpu: (f64, usize),
}

impl EndToEnd {
    /// Sets the result metrics and starts the record with the metrics
    /// whose names are shared: set-up, memory, CPU per op, failures,
    /// paper distance.
    fn fill(self, report: &mut Report, qualified: Vec<Metric>) {
        let (cpu_s, ops) = self.cpu;
        report.result = vec![
            metric("setup_s", median(&self.setup_s), "s", Some(self.setup_s.len())),
            metric("peak_rss_mb", self.peak_rss_mb, "MB", None),
            metric("cpu_us_per_op", cpu_s * 1e6 / ops.max(1) as f64, "us", Some(ops)),
            metric("paper_scale_max_rel_err", self.paper_err, "ratio", Some(Preset::ALL.len())),
        ];
        let failed =
            metric("failed_share", report.failed_share(), "ratio", Some(report.attempted as usize));
        let before = metric("rss_before_ops_mb", self.rss_before_ops_mb, "MB", None);
        report.named =
            report.result.iter().cloned().chain([failed, before]).chain(qualified).collect();
    }
}

/// A tail latency under its qualified name, with the percentile it
/// actually sits at recorded in the name when it is not the p99.
fn tail_metric(name: &str, s: &stats::Summary, scale: f64, unit: &'static str) -> Metric {
    let name =
        if s.tail_q == 0.99 { name.to_string() } else { format!("{name}@p{}", s.tail_q * 100.0) };
    metric(&name, s.tail / scale, unit, Some(s.samples))
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn self_rss() -> f64 {
    crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN)
}

fn process_cpu_s() -> f64 {
    crate::sys::cpu_s("self").unwrap_or(f64::NAN)
}

/// Per-layer metrics from the spans of traced ops plus the probes.
struct Layers {
    metrics: Vec<Metric>,
}

impl Layers {
    fn new() -> Layers {
        Layers { metrics: Vec::new() }
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(metric(name, value, unit, samples));
    }

    /// Mean self time per traced op of each span layer.
    fn spans(&mut self, tr: &Tracer, ops: usize) {
        let times = tr.self_times();
        for (span, name) in SPAN_LAYERS {
            let ns = times.get(span).map_or(0, |t| t.0);
            self.push(name, ns as f64 / 1e3 / ops.max(1) as f64, "us", Some(ops));
        }
    }

    /// Puts the metrics in [`LAYER_METRICS`] order; a missing one is a
    /// failed check.
    fn finish(self, report: &mut Report) {
        let mut out = Vec::with_capacity(LAYER_METRICS.len());
        for name in LAYER_METRICS {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => out.push(m.clone()),
                None => {
                    report.fail(format!("layer metric {name} was not measured"));
                    out.push(metric(name, f64::NAN, "us", None));
                }
            }
        }
        report.result = out;
        report.named = self.metrics;
    }
}

/// Serve-layer metrics measured by sending some of a workload's own
/// lines to a fresh server in an open loop (traced runs of `explore`
/// and `mc_estimate`; `serve_hot` measures them on its main load).
fn serve_probe(
    cfg: &Config,
    report: &mut Report,
    tr: &mut Tracer,
    ops: &[Op],
    rate: f64,
) -> Vec<Metric> {
    let lines: Vec<String> = ops.iter().map(Op::line).collect();
    // Direct costs first, while both this process and the server are
    // cold for these designs.
    let costs: Vec<DirectCost> = lines
        .iter()
        .enumerate()
        .map(|(k, line)| serve::direct_cost(tr, PROBE_OPS + k as u64, line, 1))
        .collect();
    let expected = serve::expected_answers(report, &lines, lines.len());
    let draws: Vec<usize> = (0..lines.len()).collect();
    let phase = ServerProc::spawn(&cfg.serve_bin, &cfg.work_dir, 0).and_then(|server| {
        // A first line the server rejects without analysis makes sure it
        // has accepted the connection (it polls for new ones) before the
        // timed lines go out.
        let phase = Conn::open(server.addr).and_then(|mut conn| {
            let mut buf = String::new();
            conn.send(gen::invalid_lines()[0].as_str()).and_then(|()| conn.recv(&mut buf))?;
            serve::open_loop(&mut conn, &lines, &expected, &draws, rate)
        });
        if !server.stop() {
            report.fail("serve probe: server did not stop cleanly".into());
        }
        phase
    });
    let phase = phase.unwrap_or_else(|e| {
        report.fail(format!("serve probe: {e}"));
        Phase::default()
    });
    phase.account(report, &lines, "serve probe");
    let mut served = ServedLayers::default();
    served.add(&phase.samples, &costs);
    serve_layer_metrics(&[&phase], &served)
}

fn serve_layer_metrics(open: &[&Phase], served: &ServedLayers) -> Vec<Metric> {
    let total: usize = open.iter().map(|p| p.samples.len()).sum();
    let share =
        |v: Verdict| open.iter().map(|p| p.count(v)).sum::<usize>() as f64 / total.max(1) as f64;
    let late_ms =
        open.iter().flat_map(|p| p.samples.iter().map(|s| s.late_us)).fold(0.0, f64::max) / 1e3;
    let backlog = open.iter().map(|p| p.backlog).max().unwrap_or(0);
    let n = Some(served.requests);
    vec![
        metric("serve.handoff_us", served.handoff_us / served.requests.max(1) as f64, "us", n),
        metric("serve.busy_share", share(Verdict::Busy), "ratio", Some(total)),
        metric("serve.error_share", share(Verdict::ExpectedError), "ratio", Some(total)),
        metric("serve.gen_late_ms", late_ms, "ms", Some(total)),
        metric("serve.backlog", backlog as f64, "count", None),
    ]
}

/// The probes every traced run makes besides its own spans.
fn common_probes(
    report: &mut Report,
    layers: &mut Layers,
    power_designs: &[QciDesign],
    mc_designs: &[QciDesign],
    seed: u64,
) -> layers::SurfaceProbe {
    layers.metrics.extend(layers::power_probe(report, power_designs, &gen::sweep_grid()));
    let surface = layers::surface_probe(report, mc_designs);
    layers.metrics.extend(surface.metrics.iter().cloned());
    // par: standard-fridge designs from the explore generator.
    let mut g = ExploreGen::new(seed ^ 0x9A7);
    let batch: Vec<QciDesign> = std::iter::from_fn(|| Some(g.next_op()))
        .filter(|op| !op.scale_out && !op.budget)
        .filter_map(|op| op.spec.build().ok())
        .take(32)
        .collect();
    layers.metrics.extend(layers::par_probe(report, &batch));
    surface
}

fn build_designs(ops: &[Op]) -> Vec<QciDesign> {
    ops.iter().filter_map(|op| op.spec.build().ok()).collect()
}

fn write_trace(cfg: &Config, report: &mut Report, tr: &Tracer) {
    let path = cfg.work_dir.join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
    match std::fs::write(&path, tr.to_jsonl(TRACE_DUMP_SPANS)) {
        Ok(()) => report.trace_file = Some(path.display().to_string()),
        Err(e) => eprintln!("qisim-bench: could not write {}: {e}", path.display()),
    }
}

/// Times an `explore`/`mc_estimate` op: traced ops get a root span and
/// the codec side spans (their own line parsed, their verdict encoded).
fn run_op(
    tr: &mut Tracer,
    report: &mut Report,
    op: &Op,
    traced: bool,
) -> (f64, Option<qisim::Scalability>) {
    let target = op.target.target();
    let t0 = Instant::now();
    let root = traced.then(|| tr.enter(OP));
    let result = if traced {
        layers::traced_analyze(tr, &op.spec, &target)
    } else {
        engine::try_analyze_spec(&op.spec, &target)
    };
    if let Some(root) = root {
        tr.exit(root);
    }
    let us = us_since(t0);
    report.attempted += 1;
    let verdict = match result {
        Ok(v) => v,
        Err(e) => {
            report.fail(format!("analysis of {:?} failed: {e}", op.line()));
            return (us, None);
        }
    };
    if traced {
        let line = op.line();
        let parsed = tr.span("codec.parse", || proto::parse_request_line(&line));
        if !parsed.is_ok_and(|req| req.spec == op.spec && req.target == op.target) {
            report.fail(format!("request line does not round-trip: {line:?}"));
        }
        let encoded = tr.span("codec.encode", || proto::ok_response(None, None, &[], &verdict));
        std::hint::black_box(encoded);
    }
    (us, Some(verdict))
}

/// Trace bookkeeping shared by the closed-loop workloads.
#[derive(Default)]
struct TraceSplit {
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
}

impl TraceSplit {
    fn push(&mut self, traced: bool, us: f64) {
        if traced { &mut self.traced_us } else { &mut self.untraced_us }.push(us);
    }

    fn overhead_pct(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        (mean(&self.traced_us) / mean(&self.untraced_us) - 1.0) * 100.0
    }

    fn finish(&self, layers: &mut Layers, tr: &Tracer) {
        let n = self.traced_us.len();
        layers.spans(tr, n);
        let (root_ns, _) = tr.root_total(OP);
        let unattributed = tr.self_times().get(OP).map_or(0, |t| t.0);
        layers.push(
            "unattributed_share",
            unattributed as f64 / root_ns.max(1) as f64,
            "ratio",
            Some(n),
        );
        layers.push(
            "trace_overhead_pct",
            self.overhead_pct(),
            "%",
            Some(n + self.untraced_us.len()),
        );
    }
}

/// Whether a run that has made `done` set-ups since `start` makes another.
fn more_setups(done: usize, start: Instant) -> bool {
    done < SETUP_RUNS || start.elapsed().as_secs_f64() < SETUP_MIN_S
}

/// The set-up of `explore` and `mc_estimate`: what a fresh process does
/// before its first timed op, besides starting. It runs the warm-up
/// analysis, checked like any op.
pub fn set_up(report: &mut Report) {
    run_op(&mut Tracer::new(false), report, &gen::warm_up_op(), false);
}

/// The `setup_s` samples of `explore` and `mc_estimate`. Each starts this
/// binary afresh with `--setup-only 1` and times it from the spawn to its
/// `ready` line: process start, library start-up and [`set_up`].
fn setup_runs(cfg: &Config, report: &mut Report) -> Vec<f64> {
    let mut times = Vec::with_capacity(SETUP_RUNS);
    let start = Instant::now();
    for _ in (0..).take_while(|&k| more_setups(k, start)) {
        report.attempted += 1;
        match std::env::current_exe().and_then(|exe| setup_run(&exe, cfg)) {
            Ok(s) => times.push(s),
            Err(e) => report.fail(format!("set-up run: {e}")),
        }
    }
    times
}

fn setup_run(exe: &std::path::Path, cfg: &Config) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", &cfg.workload, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string(), "--trace", "0", "--setup-only", "1"])
        .arg("--serve-bin")
        .arg(&cfg.serve_bin)
        .arg("--work-dir")
        .arg(&cfg.work_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut line = String::new();
    let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
    let seconds = t0.elapsed().as_secs_f64();
    let status = child.wait()?;
    match read {
        Some(Ok(_)) if line.trim() == "ready" && status.success() => Ok(seconds),
        _ => Err(std::io::Error::other(format!("set-up probe {status} after {line:?}"))),
    }
}

/// `explore`: one caller analyzing distinct design points, every 16th
/// also swept over the 64-point grid.
pub fn explore(cfg: &Config, report: &mut Report) {
    let grid = gen::sweep_grid();
    let setup_s = setup_runs(cfg, report);
    let mut gen = ExploreGen::new(cfg.seed);
    set_up(report);
    let rss_before_ops_mb = self_rss();
    let mut tr = Tracer::new(cfg.trace);
    let mut split = TraceSplit::default();
    let (mut op_us, mut sweep_us) = (Timeline::default(), Timeline::default());
    let mut digest = Digest::default();
    let mut paper_err = 0.0f64;
    let (mut scale_out, mut budget, mut cmos, mut keys) = (0u64, 0u64, 0u64, HashSet::new());
    let mut peak_rss_mb = f64::NAN;
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let at = start.elapsed().as_secs_f64();
        let op = gen.next_op();
        let traced = cfg.trace && (i / TRACE_BLOCK) % 2 == 1;
        tr.set_op(i);
        let (us, verdict) = run_op(&mut tr, report, &op, traced);
        op_us.push(at, us);
        split.push(traced, us);
        if let Some(v) = &verdict {
            if digest.ops < EXPLORE_DIGEST_OPS {
                digest.add(v);
            }
            if let Some(&preset) = Preset::ALL.get(i as usize) {
                paper_err = paper_err.max(layers::paper_rel_err(preset, v));
            }
        }
        scale_out += u64::from(op.scale_out);
        budget += u64::from(op.budget);
        cmos += u64::from(gen::CMOS_PRESETS.contains(&op.spec.preset()));
        keys.insert(op.key());
        if i + 1 == RSS_AFTER_OPS {
            peak_rss_mb = self_rss();
        }
        if op.sweep {
            sweep_us.push(at, sweep(&mut tr, report, &op.spec, &grid, traced));
        }
        i += 1;
    }
    let cpu_s = process_cpu_s() - cpu0;
    if peak_rss_mb.is_nan() {
        peak_rss_mb = self_rss();
    }
    if i < Preset::ALL.len() as u64 {
        paper_err = layers::paper_scale_max_rel_err(report);
    }

    report.digest = digest.value();
    report.digest_ops = digest.ops;
    let n = i as f64;
    report.mix = vec![
        ("ops".into(), n),
        ("sweeps".into(), sweep_us.values().len() as f64),
        ("scale_out_share".into(), scale_out as f64 / n),
        ("budget_share".into(), budget as f64 / n),
        ("cmos_share".into(), cmos as f64 / n),
        ("invalid_share".into(), 0.0),
        ("sliced_share".into(), 0.0),
        ("rare_share".into(), 0.0),
        ("repeat_share".into(), 1.0 - keys.len() as f64 / n),
        ("distinct_specs".into(), keys.len() as f64),
    ];
    report.defects = vec![("mc.zero_share".into(), None), ("mc.rare_log10_gap".into(), None)];
    if !cfg.trace {
        let (points, sweeps) = (summarize(&op_us.values()), summarize(&sweep_us.values()));
        // Design points per second of time spent in the library, sweeps
        // included; like the medians, taken per slice of the run.
        let rate = {
            let (ops, sweeps) = (op_us.slices(cfg.seconds), sweep_us.slices(cfg.seconds));
            let per_slice: Vec<f64> = ops
                .iter()
                .zip(&sweeps)
                .filter(|(o, _)| !o.is_empty())
                .map(|(o, s)| {
                    o.len() as f64 * 1e6 / (o.iter().sum::<f64>() + s.iter().sum::<f64>())
                })
                .collect();
            median(&per_slice)
        };
        let p50 = op_us.sliced_median(cfg.seconds, median);
        let sweep_p50 = sweep_us.sliced_median(cfg.seconds, median);
        let cpu = (cpu_s, i as usize);
        EndToEnd { setup_s, peak_rss_mb, rss_before_ops_mb, paper_err, cpu }.fill(
            report,
            vec![
                metric("explore.points_per_s", rate, "ops/s", Some(i as usize)),
                metric("explore.p50_us", p50, "us", Some(points.samples)),
                tail_metric("explore.p99_us", &points, 1.0, "us"),
                metric("explore.sweep_p50_us", sweep_p50, "us", Some(sweeps.samples)),
            ],
        );
        return;
    }
    let mut layers = Layers::new();
    split.finish(&mut layers, &tr);
    layers.push("repeat_share", 1.0 - keys.len() as f64 / n, "ratio", Some(i as usize));
    layers.push("distinct_specs", keys.len() as f64, "count", None);
    let fresh: Vec<Op> = (0..128).map(|_| gen.next_op()).collect();
    let designs = build_designs(&fresh);
    let surface = common_probes(report, &mut layers, &designs[..16], &designs[16..18], cfg.seed);
    report.defects = defect_counts(surface.sliced_zero, &surface.rare_gaps);
    // The workload's own sweeps give the per-point time, in place of the
    // probe's.
    if let Some(&(ns, n)) = tr.self_times().get("power.sweep").filter(|t| t.1 > 0) {
        layers.metrics.retain(|m| m.name != "power.sweep_point_us");
        let per_point = ns as f64 / 1e3 / (n as f64 * grid.len() as f64);
        layers.push("power.sweep_point_us", per_point, "us", Some(n as usize));
    }
    layers.metrics.extend(serve_probe(cfg, report, &mut tr, &fresh, 500.0));
    write_trace(cfg, report, &tr);
    layers.finish(report);
}

/// One 64-point `try_sweep` of the op's design; µs. Traced, it is a root
/// span of its own with the build and the sweep below it, so its time
/// counts in the op time that layers are attributed against.
fn sweep(
    tr: &mut Tracer,
    report: &mut Report,
    spec: &DesignSpec,
    grid: &[u64],
    traced: bool,
) -> f64 {
    report.attempted += 1;
    let root = traced.then(|| tr.enter(OP));
    let design = if traced { tr.span("spec.build", || spec.build()) } else { spec.build() };
    let t0 = Instant::now();
    let open = traced.then(|| tr.enter("power.sweep"));
    let points = design.and_then(|design| Ok((engine::try_sweep(&design, grid)?, design)));
    if let Some(open) = open {
        tr.exit(open);
    }
    let us = us_since(t0);
    if let Some(root) = root {
        tr.exit(root);
    }
    match points {
        Ok((points, _))
            if points.len() == grid.len()
                && points.iter().zip(grid).all(|(p, &n)| p.qubits == n)
                && points.windows(2).all(|w| w[0].power_w <= w[1].power_w) => {}
        Ok((_, design)) => {
            report.fail(format!("sweep of {} is not the grid's monotone curve", design.name()))
        }
        Err(e) => report.fail(format!("sweep of {}: {e}", spec.display_name())),
    }
    us
}

fn defect_counts(sliced_zero: (usize, usize), rare_gaps: &[f64]) -> Vec<(String, Option<f64>)> {
    let zero = (sliced_zero.1 > 0).then(|| sliced_zero.0 as f64 / sliced_zero.1 as f64);
    let gap = (!rare_gaps.is_empty()).then(|| median(rare_gaps));
    vec![("mc.zero_share".into(), zero), ("mc.rare_log10_gap".into(), gap)]
}

/// `mc_estimate`: one caller asking for Monte-Carlo logical-error
/// estimates (sliced, every fifth rare-event).
pub fn mc_estimate(cfg: &Config, report: &mut Report) {
    let setup_s = setup_runs(cfg, report);
    set_up(report);
    let rss_before_ops_mb = self_rss();
    let mut tr = Tracer::new(cfg.trace);
    let mut split = TraceSplit::default();
    let (mut op_us, mut rare_us) = (Timeline::default(), Vec::new());
    let mut digest = Digest::default();
    let mut keys = HashSet::new();
    let (mut repeats, mut sliced, mut sliced_zero) = (0u64, 0usize, 0usize);
    let mut gaps = Vec::new();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let at = start.elapsed().as_secs_f64();
        let op = gen::mc_op(cfg.seed, i);
        tr.set_op(i);
        // The Monte-Carlo path caches nothing, so a traced run also times
        // each op untraced, before or after in turn: a paired estimate of
        // the tracing overhead.
        let untraced = |tr: &mut Tracer, report: &mut Report| run_op(tr, report, &op, false).0;
        let before = (cfg.trace && i.is_multiple_of(2)).then(|| untraced(&mut tr, report));
        let (us, verdict) = run_op(&mut tr, report, &op, cfg.trace);
        if cfg.trace {
            split.push(false, before.unwrap_or_else(|| untraced(&mut tr, report)));
            split.push(true, us);
        }
        op_us.push(at, us);
        repeats += u64::from(!keys.insert(op.key()));
        let rare = op.spec.chosen_estimator() == Estimator::Rare;
        if rare {
            rare_us.push(us);
        }
        if let Some(v) = &verdict {
            if digest.ops < MC_DIGEST_OPS {
                digest.add(v);
            }
            if rare {
                if let Ok(design) = op.spec.build() {
                    gaps.push(layers::log10_gap(
                        v.logical_error,
                        layers::analytic_logical(&design),
                    ));
                }
            } else {
                sliced += 1;
                sliced_zero += usize::from(v.logical_error == 0.0);
            }
        }
        i += 1;
    }
    let cpu_s = process_cpu_s() - cpu0;
    report.digest = digest.value();
    report.digest_ops = digest.ops;
    let n = i as f64;
    report.mix = vec![
        ("ops".into(), n),
        ("scale_out_share".into(), 0.0),
        ("budget_share".into(), 0.0),
        ("invalid_share".into(), 0.0),
        ("sliced_share".into(), (n - rare_us.len() as f64) / n),
        ("rare_share".into(), rare_us.len() as f64 / n),
        ("repeat_share".into(), repeats as f64 / n),
        ("distinct_specs".into(), keys.len() as f64),
    ];
    report.defects = defect_counts((sliced_zero, sliced), &gaps);
    if !cfg.trace {
        let paper_err = layers::paper_scale_max_rel_err(report);
        let rate =
            op_us.sliced_median(cfg.seconds, |s| s.len() as f64 * 1e6 / s.iter().sum::<f64>());
        let p50 = op_us.sliced_median(cfg.seconds, median);
        let (ops, rare) = (summarize(&op_us.values()), summarize(&rare_us));
        let peak_rss_mb = self_rss();
        let cpu = (cpu_s, i as usize);
        EndToEnd { setup_s, peak_rss_mb, rss_before_ops_mb, paper_err, cpu }.fill(
            report,
            vec![
                metric("mc.estimates_per_s", rate, "ops/s", Some(i as usize)),
                metric("mc.p50_ms", p50 / 1e3, "ms", Some(ops.samples)),
                tail_metric("mc.p99_ms", &ops, 1e3, "ms"),
                metric("mc.rare_p50_ms", rare.p50 / 1e3, "ms", Some(rare.samples)),
            ],
        );
        return;
    }
    let mut layers = Layers::new();
    split.finish(&mut layers, &tr);
    layers.push("repeat_share", repeats as f64 / n, "ratio", Some(i as usize));
    layers.push("distinct_specs", keys.len() as f64, "count", None);
    let fresh: Vec<Op> = (0..16).map(|k| gen::mc_op(cfg.seed, i + k)).collect();
    let designs = build_designs(&fresh);
    common_probes(report, &mut layers, &designs, &designs[..2], cfg.seed);
    // Sliced lines only, at a rate the server can keep up with.
    let probe: Vec<Op> = fresh
        .into_iter()
        .filter(|op| op.spec.chosen_estimator() == Estimator::Sliced)
        .take(4)
        .collect();
    layers.metrics.extend(serve_probe(cfg, report, &mut tr, &probe, 4.0));
    write_trace(cfg, report, &tr);
    layers.finish(report);
}

/// `serve_hot`: Zipf-skewed hot lines against a spawned `qisim-serve`,
/// open loop at two rates, then a closed loop on two connections.
pub fn serve_hot(cfg: &Config, report: &mut Report) {
    let table = LineTable::new();
    let expected = serve::expected_answers(report, &table.lines, table.valid);
    // Each set-up spawns a server, opens the connections and sends every
    // hot line once; the last server stays up for the timed load.
    let mut setup_s = Vec::new();
    let mut live = None;
    let start = Instant::now();
    for run in (0..).take_while(|&k| more_setups(k, start)) {
        if let Some((old, _)) = live.take() {
            if !ServerProc::stop(old) {
                report.fail("server did not stop cleanly".into());
            }
        }
        let t0 = Instant::now();
        let set_up = ServerProc::spawn(&cfg.serve_bin, &cfg.work_dir, run + 1).and_then(|server| {
            std::thread::sleep(CONNECT_AFTER);
            let mut conns = (0..=CLOSED_CONNS)
                .map(|_| Conn::open(server.addr))
                .collect::<std::io::Result<Vec<_>>>()?;
            let warm = serve::warm_up(&mut conns[0], &table.lines, &expected)?;
            Ok((server, conns, warm))
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        match set_up {
            Ok((server, conns, warm)) => {
                warm.account(report, &table.lines, "warm-up");
                live = Some((server, conns));
            }
            Err(e) => report.fail(format!("server set-up: {e}")),
        }
    }
    let Some((server, mut conns)) = live else {
        return;
    };
    let rss_before_ops_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    let (open_conn, closed_conns) = conns.split_at_mut(1);
    // Digest over the directly computed verdicts of every hot line.
    let mut digest = Digest::default();
    for line in &table.lines[..table.valid] {
        if let Ok(req) = proto::parse_request_line(line) {
            if let Ok(v) = engine::try_analyze_spec(&req.spec, &req.target.target()) {
                digest.add(&v);
            }
        }
    }
    report.digest = digest.value();
    report.digest_ops = digest.ops;

    // The load phases run in rounds, so each one samples the whole run
    // rather than one stretch of it.
    let mut open_draws: Vec<_> =
        (0..OPEN_RATES.len()).map(|k| table.draws(cfg.seed, k as u64)).collect();
    let mut closed_draws: Vec<_> =
        (0..CLOSED_CONNS).map(|c| table.draws(cfg.seed, (OPEN_RATES.len() + c) as u64)).collect();
    // Server CPU time is counted over the open loops only: there every
    // request arrives on its own, while in the closed loop how many
    // share a batch (and a thread fan-out) depends on timing.
    let server_cpu = || server.cpu_s().unwrap_or(f64::NAN);
    let mut open_cpu_s = 0.0;
    // Per round and phase kind (open 500/s, open 1k/s, closed).
    let mut rounds: Vec<[Phase; 3]> = Vec::with_capacity(SERVE_ROUNDS);
    for _ in 0..SERVE_ROUNDS {
        let mut round: [Phase; 3] = Default::default();
        for (k, rate) in OPEN_RATES.into_iter().enumerate() {
            let n = (cfg.seconds * SERVE_PHASES[k] * rate / SERVE_ROUNDS as f64).round().max(1.0);
            let draws: Vec<usize> = (0..n as usize).map(|_| open_draws[k].next_index()).collect();
            let cpu0 = server_cpu();
            let phase = serve::open_loop(&mut open_conn[0], &table.lines, &expected, &draws, rate);
            open_cpu_s += server_cpu() - cpu0;
            match phase {
                Ok(phase) => round[k] = phase,
                Err(e) => report.fail(format!("open loop at {rate}/s: {e}")),
            }
        }
        let seconds = cfg.seconds * SERVE_PHASES[2] / SERVE_ROUNDS as f64;
        round[2] =
            serve::closed_loop(closed_conns, &table.lines, &expected, &mut closed_draws, seconds);
        rounds.push(round);
    }
    let rss = server.peak_rss_mb().unwrap_or(f64::NAN);
    if !server.stop() {
        report.fail("server did not stop cleanly".into());
    }
    let latencies = |p: &Phase| {
        p.samples
            .iter()
            .filter(|s| s.verdict != Verdict::Wrong)
            .map(|s| s.latency_us)
            .collect::<Vec<_>>()
    };
    let answered = |p: &Phase| (p.count(Verdict::Ok) + p.count(Verdict::ExpectedError)) as f64;
    // Medians over rounds, so a host stall during one round moves them
    // little.
    let per_round = |k: usize, f: &dyn Fn(&Phase) -> f64| {
        median(&rounds.iter().map(|r| f(&r[k])).collect::<Vec<_>>())
    };
    let p50_of = |p: &Phase| summarize(&latencies(p)).p50;
    let rps = per_round(2, &|p| answered(p) / p.wall_s);
    let p50s = [per_round(0, &p50_of), per_round(1, &p50_of), per_round(2, &p50_of)];
    let mut merged: [Phase; 3] = Default::default();
    for round in rounds {
        for (kind, phase) in merged.iter_mut().zip(round) {
            kind.merge(phase);
        }
    }
    let [open_500, open_1k, closed] = merged;
    let phases = [open_500, open_1k];
    for (phase, name) in phases.iter().zip(["open 500/s", "open 1k/s"]) {
        phase.account(report, &table.lines, name);
    }
    closed.account(report, &table.lines, "closed");

    let all: Vec<&Phase> = vec![&phases[0], &phases[1], &closed];
    let total: usize = all.iter().map(|p| p.samples.len()).sum();
    let invalid: usize =
        all.iter().map(|p| p.samples.iter().filter(|s| s.idx >= table.valid).count()).sum();
    let distinct: HashSet<usize> =
        all.iter().flat_map(|p| p.samples.iter().map(|s| s.idx)).collect();
    // Warm-up sent every line once, so every timed request repeats one.
    report.mix = vec![
        ("ops".into(), total as f64),
        ("scale_out_share".into(), share_of(&all, &table, |s| s.has_scale_out())),
        ("budget_share".into(), share_of(&all, &table, |s| s.has_budget_overrides())),
        ("invalid_share".into(), invalid as f64 / total.max(1) as f64),
        ("sliced_share".into(), 0.0),
        ("rare_share".into(), 0.0),
        ("repeat_share".into(), 1.0),
        ("distinct_specs".into(), table.lines.len() as f64),
        ("distinct_lines_timed".into(), distinct.len() as f64),
        ("backlog_500".into(), phases[0].backlog as f64),
        ("backlog_1k".into(), phases[1].backlog as f64),
    ];
    report.defects = vec![("mc.zero_share".into(), None), ("mc.rare_log10_gap".into(), None)];
    if !cfg.trace {
        let paper_err = layers::paper_scale_max_rel_err(report);
        let n = |p: &Phase| p.samples.len();
        let tails: Vec<stats::Summary> =
            [&phases[0], &phases[1], &closed].map(|p| summarize(&latencies(p))).to_vec();
        let open_requests = n(&phases[0]) + n(&phases[1]);
        let cpu = (open_cpu_s, open_requests);
        EndToEnd { setup_s, peak_rss_mb: rss, rss_before_ops_mb, paper_err, cpu }.fill(
            report,
            vec![
                metric("serve.rps", rps, "ops/s", Some(n(&closed))),
                metric("serve.p50_us_500", p50s[0], "us", Some(n(&phases[0]))),
                tail_metric("serve.p99_us_500", &tails[0], 1.0, "us"),
                metric("serve.p50_us_1k", p50s[1], "us", Some(n(&phases[1]))),
                tail_metric("serve.p99_us_1k", &tails[1], 1.0, "us"),
                metric("serve.closed_p50_us", p50s[2], "us", Some(n(&closed))),
                tail_metric("serve.closed_p99_us", &tails[2], 1.0, "us"),
            ],
        );
        return;
    }
    // Traced: the direct cost of every line, split by layer, then each
    // served request is charged its line's cost plus the residuals.
    let mut tr = Tracer::new(true);
    let mut split = TraceSplit::default();
    let mut costs = Vec::with_capacity(table.lines.len());
    for (idx, line) in table.lines.iter().enumerate() {
        costs.push(serve::direct_cost(&mut tr, idx as u64, line, DIRECT_REPS));
        let untraced: Vec<f64> = (0..DIRECT_REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(serve::direct_answer(line));
                us_since(t0)
            })
            .collect();
        split.push(false, median(&untraced));
        split.push(true, costs[idx].total_us);
    }
    let mut served = ServedLayers::default();
    for p in &all {
        served.add(&p.samples, &costs);
    }
    let mut layers = Layers::new();
    for (span, name) in SPAN_LAYERS {
        layers.push(name, served.mean(span), "us", Some(served.requests));
    }
    layers.push(
        "unattributed_share",
        served.unattributed_us / served.latency_us.max(1e-9),
        "ratio",
        Some(served.requests),
    );
    layers.push("trace_overhead_pct", split.overhead_pct(), "%", Some(table.lines.len()));
    layers.push("repeat_share", 1.0, "ratio", Some(total));
    layers.push("distinct_specs", table.lines.len() as f64, "count", None);
    layers.metrics.extend(serve_layer_metrics(&[&phases[0], &phases[1]], &served));
    let designs: Vec<QciDesign> = gen::hot_specs().iter().filter_map(|s| s.build().ok()).collect();
    let surface = common_probes(report, &mut layers, &designs, &designs[..2], cfg.seed);
    report.defects = defect_counts(surface.sliced_zero, &surface.rare_gaps);
    write_trace(cfg, report, &tr);
    layers.finish(report);
}

/// Share of timed requests whose line's spec satisfies `pred`.
fn share_of(phases: &[&Phase], table: &LineTable, pred: impl Fn(&DesignSpec) -> bool) -> f64 {
    let flags: Vec<bool> = table
        .lines
        .iter()
        .map(|l| proto::parse_request_line(l).is_ok_and(|r| pred(&r.spec)))
        .collect();
    let (hit, total) = phases
        .iter()
        .flat_map(|p| p.samples.iter())
        .fold((0usize, 0usize), |(h, t), s| (h + usize::from(flags[s.idx]), t + 1));
    hit as f64 / total.max(1) as f64
}
