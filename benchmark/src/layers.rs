//! Calls into each layer, timed from the benchmark's side: the traced
//! twin of `try_analyze_spec`, and the per-layer probes a traced run
//! makes on designs drawn from its workload.

use crate::report::{metric, Metric, Report};
use crate::trace::Tracer;
use qisim::codec;
use qisim::engine::{self, AnalysisPlan, PlanStage};
use qisim::error::QisimError;
use qisim::hal::fridge::Fridge;
use qisim::hal::wire::InstructionLink;
use qisim::paperdata::scalability as paper;
use qisim::scalability::Scalability;
use qisim::spec::{DesignSpec, Preset};
use qisim::surface::analytic::CALIBRATION;
use qisim::surface::montecarlo::{logical_error_rate_rare, logical_error_rate_sliced_par};
use qisim::surface::target::{Target, CODE_DISTANCE};
use qisim::surface::Lattice;
use qisim::QciDesign;
use std::time::Instant;

/// Trials per sliced estimate and per rare-event stage: the sizes the
/// engine's estimators use.
pub const SLICED_TRIALS: usize = 32_768;
pub const RARE_TRIALS: usize = 2_000;
const PROBE_SEED: u64 = 0xBE_4C4;

/// Span names of the engine stages.
pub fn stage_span(stage: PlanStage) -> &'static str {
    match stage {
        PlanStage::Inventory => "engine.inventory",
        PlanStage::Schedule => "engine.schedule",
        PlanStage::Power => "engine.power",
        PlanStage::LogicalError => "engine.logical_error",
        PlanStage::Verdict => "engine.verdict",
    }
}

/// `engine::try_analyze_spec`, made of the same public calls with a span
/// around each: `spec.build` (build + topology, and the display name,
/// which builds again) and one `engine.<stage>` per `run_next`.
pub fn traced_analyze(
    tr: &mut Tracer,
    spec: &DesignSpec,
    target: &Target,
) -> Result<Scalability, QisimError> {
    let open = tr.enter("spec.build");
    let built = spec.build().and_then(|design| Ok((design, spec.topology()?)));
    tr.exit(open);
    let (design, topology) = built?;
    let mut plan =
        AnalysisPlan::with_topology(&design, target, &topology, spec.chosen_estimator())?;
    while let Some(stage) = plan.next_stage() {
        let open = tr.enter(stage_span(stage));
        let ran = plan.run_next();
        tr.exit(open);
        ran?;
    }
    let mut verdict = plan.verdict().cloned().expect("a completed plan holds its verdict");
    let open = tr.enter("spec.build");
    verdict.design = spec.display_name();
    tr.exit(open);
    Ok(verdict)
}

/// The paper's headline scale for each preset (Figs. 12, 13, 17).
pub fn paper_scale(preset: Preset) -> u64 {
    match preset {
        Preset::RoomCoax => paper::ROOM_COAX,
        Preset::RoomMicrostrip => paper::ROOM_MICROSTRIP,
        Preset::RoomPhotonic => paper::ROOM_PHOTONIC,
        Preset::CmosBaseline => paper::CMOS_BASELINE,
        Preset::CmosNearTerm => paper::CMOS_OPTIMIZED,
        Preset::CmosLongTerm => paper::CMOS_LONG_TERM,
        Preset::RsfqBaseline => paper::RSFQ_BASELINE,
        Preset::RsfqNearTerm => paper::RSFQ_OPTIMIZED,
        Preset::ErsfqLongTerm => paper::ERSFQ_LONG_TERM,
    }
}

/// Relative distance of one preset verdict from the paper's scale.
pub fn paper_rel_err(preset: Preset, verdict: &Scalability) -> f64 {
    let want = paper_scale(preset) as f64;
    (verdict.power_limited_qubits as f64 - want).abs() / want
}

/// Max over the 9 presets of the relative distance from the paper's
/// scale, each analyzed on the near-term target.
pub fn paper_scale_max_rel_err(report: &mut Report) -> f64 {
    let mut worst = 0.0f64;
    for preset in Preset::ALL {
        report.attempted += 1;
        match engine::try_analyze_spec(&DesignSpec::new(preset), &Target::near_term()) {
            Ok(v) => worst = worst.max(paper_rel_err(preset, &v)),
            Err(e) => report.fail(format!("preset {}: {e}", preset.id())),
        }
    }
    worst
}

/// FNV-1a over `codec::encode_scalability` of verdicts, in op order.
#[derive(Debug, Default)]
pub struct Digest {
    hash: crate::rng::Fnv,
    pub ops: u64,
}

impl Digest {
    pub fn add(&mut self, verdict: &Scalability) {
        self.hash.write(codec::encode_scalability(verdict).as_bytes());
        self.ops += 1;
    }

    pub fn value(&self) -> u64 {
        self.hash.0
    }
}

/// The effective physical error rate the engine's estimators run at.
pub fn effective_p(design: &QciDesign) -> f64 {
    design.physical_budget().effective_error(&CALIBRATION)
}

/// The engine's analytic logical-error rate at `d = 23`.
pub fn analytic_logical(design: &QciDesign) -> f64 {
    design.physical_budget().logical_error(CODE_DISTANCE, &CALIBRATION)
}

/// Times the power layer's public calls on `designs` (standard fridge):
/// `try_max_qubits_with_link`, one `try_evaluate_with_link` at the scale
/// it finds, and `try_sweep` over `grid` per point. Means in µs.
pub fn power_probe(report: &mut Report, designs: &[QciDesign], grid: &[u64]) -> Vec<Metric> {
    let fridge = Fridge::standard();
    let link = InstructionLink::standard();
    let (mut max_us, mut eval_us, mut sweep_us) = (0.0, 0.0, 0.0);
    for design in designs {
        report.attempted += 1;
        let arch = design.arch();
        let t0 = Instant::now();
        let max = qisim::power::try_max_qubits_with_link(&arch, &fridge, &link);
        let t1 = Instant::now();
        let n = max.as_ref().map_or(1, |(n, _)| (*n).max(1));
        let eval = qisim::power::try_evaluate_with_link(&arch, &fridge, n, &link);
        let t2 = Instant::now();
        let sweep = engine::try_sweep(design, grid);
        let t3 = Instant::now();
        match (max, eval, sweep) {
            (Ok(_), Ok(_), Ok(points)) if points.len() == grid.len() => {}
            _ => report.fail(format!("power probe failed on {}", design.name())),
        }
        max_us += (t1 - t0).as_secs_f64() * 1e6;
        eval_us += (t2 - t1).as_secs_f64() * 1e6;
        sweep_us += (t3 - t2).as_secs_f64() * 1e6 / grid.len() as f64;
    }
    let k = designs.len().max(1) as f64;
    let n = Some(designs.len());
    vec![
        metric("power.max_qubits_us", max_us / k, "us", n),
        metric("power.evaluate_us", eval_us / k, "us", n),
        metric("power.sweep_point_us", sweep_us / k, "us", n),
    ]
}

/// Results of the Monte-Carlo probes on a few designs.
#[derive(Debug, Default)]
pub struct SurfaceProbe {
    pub metrics: Vec<Metric>,
    /// Sliced estimates that came out exactly 0, and how many were made.
    pub sliced_zero: (usize, usize),
    /// `|log10(rare) − log10(analytic)|` per rare estimate.
    pub rare_gaps: Vec<f64>,
}

/// Times `logical_error_rate_sliced_par` and `logical_error_rate_rare`
/// at `d = 23` and each design's effective error rate.
pub fn surface_probe(report: &mut Report, designs: &[QciDesign]) -> SurfaceProbe {
    let lattice = Lattice::new(CODE_DISTANCE as usize);
    let mut probe = SurfaceProbe::default();
    let (mut sliced_s, mut rare_s) = (0.0, 0.0);
    for design in designs {
        report.attempted += 1;
        let p = effective_p(design);
        let t0 = Instant::now();
        let sliced =
            logical_error_rate_sliced_par(&lattice, p.clamp(0.0, 1.0), SLICED_TRIALS, PROBE_SEED);
        let t1 = Instant::now();
        let rare = logical_error_rate_rare(
            &lattice,
            p.clamp(f64::MIN_POSITIVE, 1.0 - 1e-12),
            RARE_TRIALS,
            PROBE_SEED,
        );
        let t2 = Instant::now();
        sliced_s += (t1 - t0).as_secs_f64();
        rare_s += (t2 - t1).as_secs_f64();
        probe.sliced_zero.1 += 1;
        if sliced.logical_error == 0.0 {
            probe.sliced_zero.0 += 1;
        }
        probe.rare_gaps.push(log10_gap(rare.logical_error, analytic_logical(design)));
    }
    let n = Some(designs.len());
    let k = designs.len().max(1) as f64;
    probe.metrics = vec![
        metric("surface.sliced_trials_per_s", SLICED_TRIALS as f64 * k / sliced_s, "trials/s", n),
        metric("surface.rare_ms", rare_s * 1e3 / k, "ms", n),
    ];
    probe
}

/// Decades between two rates; a zero estimate is as far as a rate of
/// 1e-300 would be.
pub fn log10_gap(estimate: f64, reference: f64) -> f64 {
    (estimate.max(1e-300).log10() - reference.max(1e-300).log10()).abs()
}

/// `try_analyze_many` on `designs` against the serial sum of
/// `try_analyze` on the same designs (both with the power memo warmed by
/// one untimed serial pass); results must be equal.
pub fn par_probe(report: &mut Report, designs: &[QciDesign]) -> Vec<Metric> {
    let target = Target::near_term();
    let serial =
        || designs.iter().map(|d| engine::try_analyze(d, &target)).collect::<Result<Vec<_>, _>>();
    let _ = serial();
    let t0 = Instant::now();
    let expected = serial();
    let t1 = Instant::now();
    let many = engine::try_analyze_many(designs, &target);
    let t2 = Instant::now();
    report.attempted += 1;
    match (expected, many) {
        (Ok(expected), Ok(many)) if many == expected => {}
        (Ok(_), Ok(_)) => report.fail("try_analyze_many differs from the serial results".into()),
        (Err(e), _) | (_, Err(e)) => report.fail(format!("par probe analysis failed: {e}")),
    }
    let n = Some(designs.len());
    vec![
        metric("par.speedup", (t1 - t0).as_secs_f64() / (t2 - t1).as_secs_f64(), "x", n),
        metric("par.threads", qisim::par::threads() as f64, "count", None),
    ]
}
