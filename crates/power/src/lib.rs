//! # qisim-power
//!
//! Runtime-power model for the QIsim scalability framework (reproduction
//! of Min et al., *QIsim*, ISCA 2023 — §4.3): aggregates a QCI
//! microarchitecture's device static/dynamic power, analog-cable heat
//! loads, and 300K→4K instruction-link heat per refrigerator stage, and
//! checks the totals against the dilution refrigerator's cooling budgets.
//!
//! [`PowerCurve`] is the one implementation of that sum. It compiles a
//! design once into flat per-stage `ceil(n/k)·w` terms; evaluations and
//! the [`PowerCurve::max_qubits`] bisection then cost a few divisions per
//! term. The free functions ([`evaluate`], [`max_qubits`], and their
//! `try_*`/`*_with_link` forms) compile a curve and call it once.
//!
//! # Examples
//!
//! ```
//! use qisim_power::{evaluate, max_qubits};
//! use qisim_microarch::CryoCmosConfig;
//! use qisim_hal::fridge::{Fridge, Stage};
//!
//! let arch = CryoCmosConfig::baseline().build();
//! let fridge = Fridge::standard();
//! let report = evaluate(&arch, &fridge, 1024);
//! assert!(!report.fits()); // the baseline dies before 1,024 qubits...
//! let (max, binding) = max_qubits(&arch, &fridge);
//! assert!(max < 1024);     // ...at the 4 K stage (Fig. 13a)
//! assert_eq!(binding, Some(Stage::K4));
//!
//! // Compile once, then evaluate many points (a utilization curve).
//! use qisim_hal::wire::InstructionLink;
//! use qisim_power::PowerCurve;
//! let curve = PowerCurve::compile(&arch, &InstructionLink::standard());
//! assert_eq!(curve.max_qubits(&fridge), (max, binding));
//! for n in [64, 256, 1024] {
//!     assert_eq!(curve.evaluate(n, &fridge)?, evaluate(&arch, &fridge, n));
//! }
//! # Ok::<(), qisim_power::PowerError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::wire::InstructionLink;
use qisim_microarch::QciArch;
use qisim_obs::{counter, gauge, span};
use std::fmt;

/// Typed failure of the runtime-power model.
///
/// Library entry points return this through the `try_*` functions; the
/// infallible wrappers ([`evaluate`], [`max_qubits`], …) keep their
/// historical panic behavior for the paper drivers. `qisim`'s
/// `QisimError::Power` variant wraps this error and exposes it through
/// [`std::error::Error::source`], so callers can match on the concrete
/// power failure across the crate boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// A power evaluation was requested at zero qubits. The model's
    /// per-qubit amortizations (shared banks, FDM groups) are undefined
    /// there, and the bisection never probes it.
    NoQubits,
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Exactly the historical `assert!` message, so the
            // infallible wrappers panic with the same text as before.
            PowerError::NoQubits => f.write_str("need at least one qubit"),
        }
    }
}

impl std::error::Error for PowerError {}

/// Power accounting of one refrigerator stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePower {
    /// The stage.
    pub stage: Stage,
    /// Device static power in watts.
    pub device_static_w: f64,
    /// Device dynamic power in watts.
    pub device_dynamic_w: f64,
    /// Analog-cable heat load in watts.
    pub wire_w: f64,
    /// 300K→4K digital instruction-link heat in watts (4 K stage only).
    pub instr_link_w: f64,
    /// Stage cooling budget in watts.
    pub budget_w: f64,
}

impl StagePower {
    /// Total dissipation at the stage.
    pub fn total_w(&self) -> f64 {
        self.device_static_w + self.device_dynamic_w + self.wire_w + self.instr_link_w
    }

    /// Fraction of the stage budget consumed.
    pub fn utilization(&self) -> f64 {
        self.total_w() / self.budget_w
    }

    /// Whether the stage is within budget.
    pub fn fits(&self) -> bool {
        self.total_w() <= self.budget_w
    }
}

/// A full per-stage power report for one design at one qubit count.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Evaluated qubit count.
    pub n_qubits: u64,
    /// Per-stage accounting (warm → cold).
    pub stages: Vec<StagePower>,
}

impl PowerReport {
    /// Whether every stage is within budget.
    pub fn fits(&self) -> bool {
        self.stages.iter().all(StagePower::fits)
    }

    /// The most-loaded stage (by utilization).
    ///
    /// Uses [`f64::total_cmp`], so a degenerate report (a zero-budget
    /// stage yielding a NaN utilization) still returns a stage instead
    /// of panicking mid-pipeline; NaN orders above every finite
    /// utilization and therefore surfaces as the binding stage.
    pub fn binding_stage(&self) -> Option<Stage> {
        self.stages
            .iter()
            .max_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .map(|s| s.stage)
    }

    /// The accounting row for one stage.
    pub fn stage(&self, stage: Stage) -> Option<&StagePower> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// One device term of a stage sum: `ceil(n / qubits_per_instance)`
/// instances, each dissipating `static_w` + `dynamic_w`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeviceTerm {
    qubits_per_instance: f64,
    static_w: f64,
    dynamic_w: f64,
}

/// One cable term of a stage sum: `ceil(n / qubits_per_cable)` cables,
/// each leaking `load_w`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WireTerm {
    qubits_per_cable: f64,
    load_w: f64,
}

/// A design's power model compiled for repeated evaluation.
///
/// Power at one stage is a sum of `ceil(n/k)·w` terms (§4.3, Table 2):
/// per-instance device watts, per-cable heat loads, plus the 4 K
/// instruction link, which is linear in `n`. Compiling derives every
/// term's HAL watts once and lays the terms out flat, stage by stage in
/// [`Stage::ALL`] order, components and wires in inventory order. An
/// evaluation is then one division per term, with no allocation unless
/// a [`PowerReport`] is asked for. The fridge budgets are taken at
/// evaluation, so one curve serves the standard fridge, budget overrides
/// and a topology's derated fridge alike.
///
/// Results are bit-identical to the direct
/// [`QciArch::device_static_w`]/[`QciArch::device_dynamic_w`]/
/// [`QciArch::wire_load_w`] sums. Those add an `instances × 0.0` term
/// for every component at another stage and a `0.0` for every wire
/// that does not reach the stage. Wherever they fall in the sum, such
/// terms can only turn a `-0.0` total into `+0.0` (or, for an
/// instance count that overflows to infinity, into NaN). So each stage
/// ends with one zero-watt padding term that does the same: for
/// devices at the smallest sharing among the other stages' components,
/// for wires at sharing 1.
///
/// # Examples
///
/// ```
/// use qisim_hal::fridge::{Fridge, Stage};
/// use qisim_hal::wire::InstructionLink;
/// use qisim_microarch::CryoCmosConfig;
/// use qisim_power::PowerCurve;
///
/// let arch = CryoCmosConfig::baseline().build();
/// let curve = PowerCurve::compile(&arch, &InstructionLink::standard());
/// let fridge = Fridge::standard();
/// let (max, binding) = curve.max_qubits(&fridge);
/// assert_eq!(binding, Some(Stage::K4));
/// assert!(curve.evaluate(max, &fridge)?.fits());
/// assert!(!curve.evaluate(max + 1, &fridge)?.fits());
/// // The same curve against a fridge with twice the 4 K budget.
/// let big = Fridge::standard().with_budget(Stage::K4, 3.0);
/// assert!(curve.max_qubits(&big).0 > max);
/// # Ok::<(), qisim_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCurve {
    /// Device terms of every stage; stage `i` owns
    /// `devices[device_ends[i - 1]..device_ends[i]]`.
    devices: Vec<DeviceTerm>,
    device_ends: [usize; 5],
    /// Cable terms, laid out like `devices`.
    wires: Vec<WireTerm>,
    wire_ends: [usize; 5],
    link: InstructionLink,
    instr_bandwidth_bps_per_qubit: f64,
}

impl PowerCurve {
    /// Compiles `arch`'s per-stage terms with the given instruction link.
    ///
    /// # Panics
    ///
    /// Panics if a component or wire group has a non-positive sharing
    /// (the same contract as [`qisim_microarch::inventory::Component::instances`]).
    pub fn compile(arch: &QciArch, link: &InstructionLink) -> PowerCurve {
        let mut devices = Vec::with_capacity(arch.components.len() + Stage::ALL.len());
        let mut wires = Vec::new();
        let (mut device_ends, mut wire_ends) = ([0; 5], [0; 5]);
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let mut pad: Option<f64> = None;
            for c in &arch.components {
                let k = c.sharing();
                if c.stage == stage {
                    devices.push(DeviceTerm {
                        qubits_per_instance: k,
                        static_w: c.static_power_w(),
                        dynamic_w: c.dynamic_power_w(arch.clock_hz),
                    });
                } else {
                    pad = Some(pad.map_or(k, |p| p.min(k)));
                }
            }
            if let Some(k) = pad {
                devices.push(DeviceTerm { qubits_per_instance: k, static_w: 0.0, dynamic_w: 0.0 });
            }
            device_ends[i] = devices.len();
            let mut skipped = false;
            for w in &arch.wires {
                if w.loads(stage) {
                    wires.push(WireTerm {
                        qubits_per_cable: w.sharing(),
                        load_w: w.kind.load_w(stage, w.duty),
                    });
                } else {
                    skipped = true;
                }
            }
            if skipped {
                wires.push(WireTerm { qubits_per_cable: 1.0, load_w: 0.0 });
            }
            wire_ends[i] = wires.len();
        }
        PowerCurve {
            devices,
            device_ends,
            wires,
            wire_ends,
            link: *link,
            instr_bandwidth_bps_per_qubit: arch.instr_bandwidth_bps_per_qubit,
        }
    }

    /// The accounting row of stage `i` (index into [`Stage::ALL`]) at
    /// `n_qubits`, against `budget_w`.
    fn stage_power(&self, i: usize, n_qubits: u64, budget_w: f64) -> StagePower {
        let n = n_qubits as f64;
        let stage = Stage::ALL[i];
        // Start where `Iterator::sum` starts, so empty sums keep their sign.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let start = if i == 0 { 0 } else { self.device_ends[i - 1] };
        let (mut device_static_w, mut device_dynamic_w) = (zero, zero);
        for t in &self.devices[start..self.device_ends[i]] {
            let instances = (n / t.qubits_per_instance).ceil();
            device_static_w += instances * t.static_w;
            device_dynamic_w += instances * t.dynamic_w;
        }
        let start = if i == 0 { 0 } else { self.wire_ends[i - 1] };
        let mut wire_w = zero;
        for t in &self.wires[start..self.wire_ends[i]] {
            wire_w += (n / t.qubits_per_cable).ceil() * t.load_w;
        }
        let instr_link_w = if stage == Stage::K4 {
            self.link.power_4k_w(self.instr_bandwidth_bps_per_qubit * n)
        } else {
            0.0
        };
        StagePower { stage, device_static_w, device_dynamic_w, wire_w, instr_link_w, budget_w }
    }

    /// Whether every stage fits its budget at `n_qubits`.
    fn fits(&self, n_qubits: u64, budgets_w: &[f64; 5]) -> bool {
        (0..Stage::ALL.len()).all(|i| self.stage_power(i, n_qubits, budgets_w[i]).fits())
    }

    fn report(&self, n_qubits: u64, budgets_w: &[f64; 5]) -> PowerReport {
        let stages = (0..Stage::ALL.len()).map(|i| self.stage_power(i, n_qubits, budgets_w[i]));
        PowerReport { n_qubits, stages: stages.collect() }
    }

    /// The per-stage power report at `n_qubits` against `fridge`.
    ///
    /// Not counted in `power.evaluate.calls`: callers that evaluate many
    /// points add their count once (see [`try_evaluate_with_link`]).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::NoQubits`] when `n_qubits == 0`.
    pub fn evaluate(&self, n_qubits: u64, fridge: &Fridge) -> Result<PowerReport, PowerError> {
        if n_qubits == 0 {
            return Err(PowerError::NoQubits);
        }
        Ok(self.report(n_qubits, &fridge.budgets_w()))
    }

    /// The maximum qubit count `fridge` can power, and the stage that
    /// binds at that scale (§4.3 → Fig. 12/13/17).
    ///
    /// Power is monotone in `n`, so the search doubles from 1 until a
    /// probe fails, then bisects; a design that still fits past 2^40
    /// qubits is reported as unbounded (`binding` = `None`). Probes only
    /// test [`PowerReport::fits`] and allocate nothing. The probe count
    /// is added to `power.evaluate.calls` and the loop count to
    /// `power.bisection.iters` once per search, and the landing point's
    /// per-stage watts are published as `power.stage.<label>.*` gauges.
    pub fn max_qubits(&self, fridge: &Fridge) -> (u64, Option<Stage>) {
        span!("power.max_qubits");
        let (mut probes, mut iters) = (0u64, 0u64);
        let found = self.bisect(&fridge.budgets_w(), &mut probes, &mut iters);
        counter!("power.evaluate.calls", probes);
        counter!("power.bisection.iters", iters);
        found
    }

    fn bisect(
        &self,
        budgets_w: &[f64; 5],
        probes: &mut u64,
        iters: &mut u64,
    ) -> (u64, Option<Stage>) {
        let trace_probe = |n: u64| {
            if qisim_obs::trace::armed() {
                qisim_obs::trace::instant("power.bisection.probe", &[("qubits", n as f64)]);
            }
        };
        let mut fits = |n: u64| {
            *probes += 1;
            self.fits(n, budgets_w)
        };
        if !fits(1) {
            return (0, self.report(1, budgets_w).binding_stage());
        }
        let mut lo = 1u64; // fits
        let mut hi = 2u64;
        while fits(hi) {
            *iters += 1;
            trace_probe(hi);
            lo = hi;
            hi *= 2;
            if hi > 1 << 40 {
                return (lo, None); // effectively unbounded by power
            }
        }
        while hi - lo > 1 {
            *iters += 1;
            let mid = lo + (hi - lo) / 2;
            trace_probe(mid);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        *probes += 1;
        let binding = self.report(hi, budgets_w).binding_stage();
        if qisim_obs::enabled() {
            *probes += 1;
            record_stage_gauges(&self.report(lo, budgets_w));
        }
        (lo, binding)
    }
}

/// Evaluates a design's per-stage power at `n_qubits` using the standard
/// 6 Gb/s instruction link.
///
/// # Panics
///
/// Panics if `n_qubits == 0`; use [`try_evaluate`] for a typed error.
pub fn evaluate(arch: &QciArch, fridge: &Fridge, n_qubits: u64) -> PowerReport {
    evaluate_with_link(arch, fridge, n_qubits, &InstructionLink::standard())
}

/// Fallible [`evaluate`]: zero qubits is a [`PowerError::NoQubits`]
/// diagnostic instead of a process abort.
///
/// # Errors
///
/// Returns [`PowerError::NoQubits`] when `n_qubits == 0`.
pub fn try_evaluate(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
) -> Result<PowerReport, PowerError> {
    try_evaluate_with_link(arch, fridge, n_qubits, &InstructionLink::standard())
}

/// Evaluates with a custom instruction link (future-technology what-ifs).
///
/// # Panics
///
/// Panics if `n_qubits == 0`; use [`try_evaluate_with_link`] for a typed
/// error.
pub fn evaluate_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
    link: &InstructionLink,
) -> PowerReport {
    // Allowlisted panic (tools/panic_allowlist.txt): the infallible
    // wrapper keeps the historical abort-with-message behavior.
    try_evaluate_with_link(arch, fridge, n_qubits, link).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`evaluate_with_link`]: compiles a [`PowerCurve`] and
/// evaluates it once. Callers evaluating one design at many points
/// should compile the curve themselves.
///
/// Counted (`power.evaluate.calls`) but not timed: a span's two clock
/// reads would add over 10% to one evaluation, so its time is
/// attributed to the enclosing span instead.
///
/// # Errors
///
/// Returns [`PowerError::NoQubits`] when `n_qubits == 0`.
pub fn try_evaluate_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
    link: &InstructionLink,
) -> Result<PowerReport, PowerError> {
    if n_qubits == 0 {
        return Err(PowerError::NoQubits);
    }
    counter!("power.evaluate.calls");
    PowerCurve::compile(arch, link).evaluate(n_qubits, fridge)
}

/// The maximum qubit count the refrigerator can power for this design,
/// and the stage that binds at that scale (§4.3 → Fig. 12/13/17); see
/// [`PowerCurve::max_qubits`].
pub fn max_qubits(arch: &QciArch, fridge: &Fridge) -> (u64, Option<Stage>) {
    max_qubits_with_link(arch, fridge, &InstructionLink::standard())
}

/// Fallible [`max_qubits`]. The bisection itself only ever probes
/// `n ≥ 1`, so this currently cannot fail on any constructible input;
/// the `Result` keeps the signature honest as the model grows fallible
/// inputs (custom fridges, link models).
///
/// # Errors
///
/// Propagates any [`PowerError`] raised by a bisection probe.
pub fn try_max_qubits(arch: &QciArch, fridge: &Fridge) -> Result<(u64, Option<Stage>), PowerError> {
    try_max_qubits_with_link(arch, fridge, &InstructionLink::standard())
}

/// [`max_qubits`] with a custom instruction link.
pub fn max_qubits_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> (u64, Option<Stage>) {
    // Allowlisted panic (tools/panic_allowlist.txt): infallible wrapper.
    try_max_qubits_with_link(arch, fridge, link).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`max_qubits_with_link`]: compiles a [`PowerCurve`] and
/// runs one [`PowerCurve::max_qubits`].
///
/// # Errors
///
/// Propagates any [`PowerError`] raised by a bisection probe.
pub fn try_max_qubits_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> Result<(u64, Option<Stage>), PowerError> {
    Ok(PowerCurve::compile(arch, link).max_qubits(fridge))
}

/// Sets the seven `power.stage.<label>.*` gauges of one stage row.
macro_rules! stage_gauges {
    ($s:expr, $static:literal, $dynamic:literal, $wire:literal, $link:literal,
     $total:literal, $budget:literal, $util:literal) => {{
        let s: &StagePower = $s;
        gauge!($static, s.device_static_w);
        gauge!($dynamic, s.device_dynamic_w);
        gauge!($wire, s.wire_w);
        gauge!($link, s.instr_link_w);
        gauge!($total, s.total_w());
        gauge!($budget, s.budget_w);
        gauge!($util, s.utilization());
    }};
}

/// Publishes per-stage watt attribution and utilization gauges for a
/// report (called at the bisection's landing point, so the gauges show
/// where every watt goes at the design's maximum scale). One literal
/// arm per stage keeps every series on the interned fast path.
fn record_stage_gauges(report: &PowerReport) {
    for s in &report.stages {
        match s.stage {
            Stage::K50 => stage_gauges!(
                s,
                "power.stage.50K.device_static_w",
                "power.stage.50K.device_dynamic_w",
                "power.stage.50K.wire_w",
                "power.stage.50K.instr_link_w",
                "power.stage.50K.total_w",
                "power.stage.50K.budget_w",
                "power.stage.50K.utilization"
            ),
            Stage::K4 => stage_gauges!(
                s,
                "power.stage.4K.device_static_w",
                "power.stage.4K.device_dynamic_w",
                "power.stage.4K.wire_w",
                "power.stage.4K.instr_link_w",
                "power.stage.4K.total_w",
                "power.stage.4K.budget_w",
                "power.stage.4K.utilization"
            ),
            Stage::K1 => stage_gauges!(
                s,
                "power.stage.1K.device_static_w",
                "power.stage.1K.device_dynamic_w",
                "power.stage.1K.wire_w",
                "power.stage.1K.instr_link_w",
                "power.stage.1K.total_w",
                "power.stage.1K.budget_w",
                "power.stage.1K.utilization"
            ),
            Stage::Mk100 => stage_gauges!(
                s,
                "power.stage.100mK.device_static_w",
                "power.stage.100mK.device_dynamic_w",
                "power.stage.100mK.wire_w",
                "power.stage.100mK.instr_link_w",
                "power.stage.100mK.total_w",
                "power.stage.100mK.budget_w",
                "power.stage.100mK.utilization"
            ),
            Stage::Mk20 => stage_gauges!(
                s,
                "power.stage.20mK.device_static_w",
                "power.stage.20mK.device_dynamic_w",
                "power.stage.20mK.wire_w",
                "power.stage.20mK.instr_link_w",
                "power.stage.20mK.total_w",
                "power.stage.20mK.budget_w",
                "power.stage.20mK.utilization"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_microarch::{CryoCmosConfig, DecisionKind, RoomInterconnect, SfqConfig};

    #[test]
    fn report_structure() {
        let arch = CryoCmosConfig::baseline().build();
        let r = evaluate(&arch, &Fridge::standard(), 128);
        assert_eq!(r.stages.len(), 5);
        assert!(r.stage(Stage::K4).unwrap().device_dynamic_w > 0.0);
        assert_eq!(r.stage(Stage::Mk20).unwrap().instr_link_w, 0.0);
        assert!(r.stage(Stage::K4).unwrap().instr_link_w > 0.0);
    }

    #[test]
    fn cmos_baseline_binds_at_4k_near_700() {
        // Fig. 13a: "the 4K CMOS QCI cannot support more than 700 qubits".
        let arch = CryoCmosConfig::baseline().build();
        let (max, binding) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 450 && max < 900, "baseline 4K CMOS max {max}");
        assert_eq!(binding, Some(Stage::K4));
    }

    #[test]
    fn opt1_opt2_reach_the_near_term_scale() {
        // Fig. 13a: Opt-1 + Opt-2 lift the design to 1,399 qubits.
        let cfg = CryoCmosConfig {
            decision: DecisionKind::Memoryless,
            drive_bits: 6,
            ..CryoCmosConfig::baseline()
        };
        let (max, _) = max_qubits(&cfg.build(), &Fridge::standard());
        assert!(max >= 1152, "optimized 4K CMOS max {max}");
        assert!(max < 2200, "optimized 4K CMOS max {max}");
    }

    #[test]
    fn room_temperature_designs_bind_at_mk_stages() {
        for (kind, lo, hi, stage) in [
            (RoomInterconnect::Coax, 250u64, 550u64, Stage::Mk100),
            (RoomInterconnect::Microstrip, 500, 900, Stage::Mk100),
            (RoomInterconnect::Photonic, 30, 120, Stage::Mk20),
        ] {
            let arch = qisim_microarch::room_cmos::build(kind);
            let (max, binding) = max_qubits(&arch, &Fridge::standard());
            assert!(max >= lo && max <= hi, "{kind:?}: max {max}");
            assert_eq!(binding, Some(stage), "{kind:?}");
        }
    }

    #[test]
    fn rsfq_baseline_binds_at_mk20_near_160() {
        let arch = SfqConfig::baseline_rsfq().build();
        let (max, binding) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 100 && max < 230, "RSFQ baseline max {max}");
        assert_eq!(binding, Some(Stage::Mk20));
    }

    #[test]
    fn optimized_rsfq_reaches_1248_scale() {
        let arch = SfqConfig::near_term_optimized().build();
        let (max, _) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 1000 && max < 1600, "optimized RSFQ max {max}");
    }

    #[test]
    fn ersfq_supports_the_long_term_scale() {
        let arch = SfqConfig::long_term_ersfq().build();
        let (max, _) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 62_208, "ERSFQ max {max}");
    }

    #[test]
    fn bigger_budget_means_more_qubits() {
        let arch = CryoCmosConfig::baseline().build();
        let std = max_qubits(&arch, &Fridge::standard()).0;
        let big = max_qubits(&arch, &Fridge::standard().with_budget(Stage::K4, 3.0)).0;
        assert!(big as f64 > 1.8 * std as f64, "std {std} big {big}");
    }

    #[test]
    fn zero_qubits_is_a_typed_error() {
        let arch = CryoCmosConfig::baseline().build();
        let err = try_evaluate(&arch, &Fridge::standard(), 0).unwrap_err();
        assert_eq!(err, PowerError::NoQubits);
        assert_eq!(err.to_string(), "need at least one qubit");
    }

    #[test]
    fn try_paths_match_infallible_paths() {
        let arch = SfqConfig::baseline_rsfq().build();
        let fridge = Fridge::standard();
        assert_eq!(try_evaluate(&arch, &fridge, 512).unwrap(), evaluate(&arch, &fridge, 512));
        assert_eq!(try_max_qubits(&arch, &fridge).unwrap(), max_qubits(&arch, &fridge));
    }

    #[test]
    fn binding_stage_survives_nan_utilization() {
        // A zero-budget stage makes utilization NaN when its total is
        // also zero; `total_cmp` ranks NaN above every finite value, so
        // the degenerate stage is reported instead of panicking.
        let nan_stage = StagePower {
            stage: Stage::Mk20,
            device_static_w: 0.0,
            device_dynamic_w: 0.0,
            wire_w: 0.0,
            instr_link_w: 0.0,
            budget_w: 0.0,
        };
        let fine_stage = StagePower { budget_w: 1.5, device_static_w: 1.0, ..nan_stage };
        let report = PowerReport {
            n_qubits: 1,
            stages: vec![StagePower { stage: Stage::K4, ..fine_stage }, nan_stage],
        };
        assert!(report.stages[1].utilization().is_nan());
        assert_eq!(report.binding_stage(), Some(Stage::Mk20));
    }

    #[test]
    fn utilization_is_monotone_in_qubits() {
        let arch = CryoCmosConfig::baseline().build();
        let f = Fridge::standard();
        let u1 = evaluate(&arch, &f, 100).stage(Stage::K4).unwrap().utilization();
        let u2 = evaluate(&arch, &f, 200).stage(Stage::K4).unwrap().utilization();
        assert!(u2 > u1);
    }
}
