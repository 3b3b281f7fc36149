//! Input generation. Every input is a function of `--seed` and the op
//! index alone; the program under test only ever sees the result.

use crate::rng::{Fnv, Rng};
use qisim::hal::fridge::{Fridge, Stage};
use qisim::hal::topology::LinkKind;
use qisim::microarch::sfq::{BitgenKind, JpmSharing};
use qisim::microarch::DecisionKind;
use qisim::spec::{DesignSpec, Estimator, Preset, DAC_BITS_RANGE, FDM_RANGE};
use qisim::Opt;
use qisim_serve::proto::{self, Request, TargetKind};
use std::collections::HashSet;

/// Stream ids, so each generator draws from its own stream of a seed.
const EXPLORE_STREAM: u64 = 1;
const MC_STREAM: u64 = 2;
const SERVE_STREAM: u64 = 3;
/// Fixed seed of the hot lines' popularity order.
const HOT_RANK_SEED: u64 = 0x2F1F;

/// Share of `explore` ops on a multi-fridge topology.
pub const SCALE_OUT_SHARE: f64 = 0.125;
/// Share of `explore` ops with per-stage cooling-budget overrides.
pub const BUDGET_SHARE: f64 = 0.125;
/// Every this-many-th `explore` op also runs the 64-point sweep.
pub const SWEEP_EVERY: u64 = 16;
/// Every this-many-th `mc_estimate` op uses the rare-event estimator.
pub const RARE_EVERY: u64 = 5;
/// Share of `serve_hot` lines that are deliberately invalid.
pub const INVALID_SHARE: f64 = 0.05;

/// The presets with continuous knobs.
pub const CMOS_PRESETS: [Preset; 3] =
    [Preset::CmosBaseline, Preset::CmosNearTerm, Preset::CmosLongTerm];

/// One design point to analyze.
#[derive(Debug, Clone)]
pub struct Op {
    pub spec: DesignSpec,
    pub target: TargetKind,
    pub sweep: bool,
    pub scale_out: bool,
    pub budget: bool,
}

impl Op {
    fn new(spec: DesignSpec, target: TargetKind) -> Op {
        Op { spec, target, sweep: false, scale_out: false, budget: false }
    }

    /// The op as a `qisim-serve` request line (no newline).
    pub fn line(&self) -> String {
        let mut request = Request::new(self.spec.clone());
        request.target = self.target;
        proto::encode_request_line(&request)
    }

    /// Identity of (spec, target), for repeat counting.
    pub fn key(&self) -> u64 {
        Fnv::of(format!("{:?}|{:?}", self.spec, self.target).as_bytes())
    }
}

/// The 64-point qubit grid of the Fig. 17 utilization curve: 1K to 100K
/// qubits, log-spaced.
pub fn sweep_grid() -> Vec<u64> {
    (0..64).map(|i| (1_000.0 * 100f64.powf(f64::from(i) / 63.0)).round() as u64).collect()
}

/// Draws random technology knobs for `preset` inside the validated
/// ranges; each knob is overridden with probability one half.
fn draw_knobs(rng: &mut Rng, preset: Preset) -> DesignSpec {
    let mut spec = DesignSpec::new(preset);
    match preset {
        Preset::CmosBaseline | Preset::CmosNearTerm | Preset::CmosLongTerm => {
            if rng.chance(0.5) {
                spec = spec.drive_fdm(rng.range(FDM_RANGE.0, FDM_RANGE.1));
            }
            if rng.chance(0.5) {
                spec = spec.drive_bits(rng.range(DAC_BITS_RANGE.0, DAC_BITS_RANGE.1));
            }
            if rng.chance(0.5) {
                spec = spec.decision(rng.pick(&[
                    DecisionKind::BinCounting,
                    DecisionKind::SinglePoint,
                    DecisionKind::Memoryless,
                ]));
            }
            if rng.chance(0.5) {
                spec = spec.masked_isa(rng.chance(0.5));
            }
            if rng.chance(0.5) {
                spec = spec.readout_ns(rng.uniform(100.0, 2_000.0));
            }
            if rng.chance(0.5) {
                spec = spec.analog_scale(rng.uniform(0.25, 4.0));
            }
        }
        Preset::RsfqBaseline | Preset::RsfqNearTerm | Preset::ErsfqLongTerm => {
            if rng.chance(0.5) {
                spec = spec.bs(rng.range(1, 8));
            }
            if rng.chance(0.5) {
                spec = spec.bitgen(
                    rng.pick(&[BitgenKind::PerPhiShiftRegisters, BitgenKind::SplitterShared]),
                );
            }
            if rng.chance(0.5) {
                spec = spec.sharing(rng.pick(&[
                    JpmSharing::Unshared,
                    JpmSharing::SharedNaive,
                    JpmSharing::SharedPipelined,
                ]));
            }
            if rng.chance(0.5) {
                spec = spec.fast_driving(rng.chance(0.5));
            }
        }
        Preset::RoomCoax | Preset::RoomMicrostrip | Preset::RoomPhotonic => {}
    }
    spec
}

fn draw_target(rng: &mut Rng) -> TargetKind {
    if rng.chance(0.5) {
        TargetKind::LongTerm
    } else {
        TargetKind::NearTerm
    }
}

/// The `explore` op stream: the 9 paper presets, then distinct random
/// design points across every preset (presets taken in seeded
/// round-robin so each run covers all of them equally), some on
/// multi-fridge topologies, some with budget overrides.
pub struct ExploreGen {
    seed: u64,
    next: u64,
    order: Vec<usize>,
    seen: HashSet<u64>,
}

impl ExploreGen {
    pub fn new(seed: u64) -> ExploreGen {
        let order = Rng::new(seed, EXPLORE_STREAM).permutation(Preset::ALL.len());
        ExploreGen { seed, next: 0, order, seen: HashSet::new() }
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let mut op = if i < Preset::ALL.len() as u64 {
            Op::new(DesignSpec::new(Preset::ALL[i as usize]), TargetKind::NearTerm)
        } else {
            let mut rng = Rng::new(self.seed, EXPLORE_STREAM + (i << 8) * 16);
            let scale_out = rng.chance(SCALE_OUT_SHARE);
            let budget = rng.chance(BUDGET_SHARE);
            // Redraw until (spec, target) is new to the run. The room
            // presets have no knobs and the SFQ ones 96 combinations, so
            // once those are used up, the redraw after two collisions
            // moves to a CMOS preset, whose continuous knobs keep points
            // distinct.
            let mut attempt = 0u64;
            loop {
                let mut rng = Rng::new(self.seed, EXPLORE_STREAM + ((i << 8) | (attempt + 1)) * 16);
                let preset = if attempt < 2 {
                    Preset::ALL[self.order[(i % Preset::ALL.len() as u64) as usize]]
                } else {
                    CMOS_PRESETS[((i + attempt) % 3) as usize]
                };
                let candidate = draw_design(&mut rng, preset, scale_out, budget);
                attempt += 1;
                if !self.seen.contains(&candidate.key()) || attempt == 254 {
                    break candidate;
                }
            }
        };
        self.seen.insert(op.key());
        op.sweep = i % SWEEP_EVERY == SWEEP_EVERY - 1;
        op
    }
}

/// One random design point: knobs and target, on a random multi-fridge
/// topology if `scale_out`, with random budget overrides if `budget`.
fn draw_design(rng: &mut Rng, preset: Preset, scale_out: bool, budget: bool) -> Op {
    let mut op = Op::new(draw_knobs(rng, preset), draw_target(rng));
    if scale_out {
        op.scale_out = true;
        op.spec = op.spec.clone().fridges(rng.range(2, 64)).link(rng.pick(&LinkKind::ALL));
        if rng.chance(0.5) {
            op.spec = op.spec.clone().links_per_fridge(rng.range(1, 8));
        }
        if rng.chance(0.5) {
            op.spec = op.spec.clone().shared_controllers(rng.chance(0.5));
        }
    }
    if budget {
        op.budget = true;
        let standard = Fridge::standard();
        for _ in 0..rng.range(1, 2) {
            let stage = rng.pick(&Stage::ALL);
            op.spec =
                op.spec.clone().budget(stage, standard.budget_w(stage) * rng.uniform(0.5, 2.0));
        }
    }
    op
}

/// The `mc_estimate` op `i`: a preset (seeded round-robin) with random
/// knobs estimated by the sliced Monte-Carlo engine, or on every
/// [`RARE_EVERY`]-th op the bare preset estimated by the rare-event
/// sampler. Rare-event cost follows the preset's error rate, so a run's
/// rare ops cover the same nine designs whatever the seed.
pub fn mc_op(seed: u64, i: u64) -> Op {
    let order = Rng::new(seed, MC_STREAM).permutation(Preset::ALL.len());
    let preset = Preset::ALL[order[(i % Preset::ALL.len() as u64) as usize]];
    let mut rng = Rng::new(seed, MC_STREAM + (i + 1) * 16);
    let spec = if i % RARE_EVERY == RARE_EVERY - 1 {
        DesignSpec::new(preset).estimator(Estimator::Rare)
    } else {
        draw_knobs(&mut rng, preset).estimator(Estimator::Sliced)
    };
    Op::new(spec, draw_target(&mut rng))
}

/// The warm-up analysis a fresh `explore` or `mc_estimate` process runs
/// in its set-up, before the first timed op: a design neither op stream
/// draws (they draw analog scales of 0.25–4), so the timed ops stay cold.
pub fn warm_up_op() -> Op {
    Op::new(DesignSpec::new(Preset::CmosBaseline).analog_scale(8.0), TargetKind::NearTerm)
}

/// The `serve_hot` hot set: the presets, the paper's optimizations on
/// the two baselines, four scale-out specs and three budget-override
/// specs (24 specs; each is served on both targets).
pub fn hot_specs() -> Vec<DesignSpec> {
    let mut specs: Vec<DesignSpec> = Preset::ALL.iter().map(|&p| DesignSpec::new(p)).collect();
    for opt in [
        Opt::MemorylessDecision,
        Opt::LowPrecisionDrive,
        Opt::MaskedIsa,
        Opt::FastMultiRoundReadout,
    ] {
        specs.push(DesignSpec::new(Preset::CmosBaseline).apply(opt));
    }
    for opt in [
        Opt::SharedPipelinedReadout,
        Opt::LowPowerBitgen,
        Opt::SingleBroadcast,
        Opt::FastDrivingUnshared,
    ] {
        specs.push(DesignSpec::new(Preset::RsfqBaseline).apply(opt));
    }
    specs.push(DesignSpec::new(Preset::CmosNearTerm).fridges(4).link(LinkKind::Photonic));
    specs.push(DesignSpec::new(Preset::RsfqNearTerm).fridges(8).link(LinkKind::CryoCoax));
    specs.push(
        DesignSpec::new(Preset::ErsfqLongTerm)
            .fridges(16)
            .link(LinkKind::RoomCoax)
            .shared_controllers(true),
    );
    specs.push(DesignSpec::new(Preset::CmosLongTerm).fridges(2).link(LinkKind::Photonic));
    specs.push(DesignSpec::new(Preset::CmosNearTerm).budget(Stage::K4, 3.0));
    specs.push(DesignSpec::new(Preset::RsfqNearTerm).budget(Stage::Mk20, 5.0e-5));
    specs.push(
        DesignSpec::new(Preset::RoomMicrostrip).budget(Stage::K50, 20.0).budget(Stage::K1, 0.5),
    );
    specs
}

/// Request lines the service must answer with a typed `error`.
pub fn invalid_lines() -> Vec<String> {
    [
        "preset = warp_drive",
        "preset = cmos_baseline; drive_fdm = 0",
        "preset = rsfq_baseline; drive_bits = 6",
        "preset = cmos_baseline; drive_bits = 99",
        "preset = room_coax; fridges = 0",
        "target = mars; preset = room_coax",
        "preset = cmos_near_term; budget.4K = -1",
        "preset = rsfq_near_term; bs",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// The `serve_hot` line table: every hot spec on both targets, then the
/// invalid lines. `valid` is the count of leading valid lines.
pub struct LineTable {
    pub lines: Vec<String>,
    pub valid: usize,
    /// Zipf weights' cumulative sums over the valid lines, in a fixed
    /// rank order.
    cumulative: Vec<f64>,
}

impl LineTable {
    pub fn new() -> LineTable {
        let mut lines = Vec::new();
        for spec in hot_specs() {
            for target in [TargetKind::NearTerm, TargetKind::LongTerm] {
                lines.push(Op::new(spec.clone(), target).line());
            }
        }
        let valid = lines.len();
        lines.extend(invalid_lines());
        // The popularity order is part of the workload, not of the seed:
        // the seed only drives which line each request draws.
        let ranks = Rng::new(HOT_RANK_SEED, SERVE_STREAM).permutation(valid);
        let mut weights = vec![0.0; valid];
        for (line, &rank) in ranks.iter().enumerate() {
            weights[line] = 1.0 / (rank as f64 + 1.0);
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        LineTable { lines, valid, cumulative }
    }

    /// A seeded stream of line indices for one load phase or connection.
    pub fn draws(&self, seed: u64, stream: u64) -> LineDraws<'_> {
        LineDraws { table: self, rng: Rng::new(seed, SERVE_STREAM + (stream + 1) * 16) }
    }
}

pub struct LineDraws<'a> {
    table: &'a LineTable,
    rng: Rng,
}

impl LineDraws<'_> {
    pub fn next_index(&mut self) -> usize {
        let invalid = self.table.lines.len() - self.table.valid;
        if self.rng.chance(INVALID_SHARE) {
            return self.table.valid + self.rng.below(invalid as u64) as usize;
        }
        let u = self.rng.unit();
        self.table.cumulative.partition_point(|&c| c < u).min(self.table.valid - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let lines = |seed| {
            let mut g = ExploreGen::new(seed);
            (0..300).map(|_| g.next_op().line()).collect::<Vec<_>>()
        };
        assert_eq!(lines(11), lines(11));
        assert_ne!(lines(11), lines(12));
        let mc = |seed| (0..40).map(|i| mc_op(seed, i).line()).collect::<Vec<_>>();
        assert_eq!(mc(5), mc(5));
        assert_ne!(mc(5), mc(6));
        let t = LineTable::new();
        let draws = |stream| {
            let mut d = t.draws(9, stream);
            (0..500).map(|_| d.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(draws(0), draws(0));
        assert_ne!(draws(0), draws(1));
    }

    #[test]
    fn explore_ops_are_distinct_and_start_with_the_presets() {
        let mut g = ExploreGen::new(3);
        let ops: Vec<Op> = (0..2000).map(|_| g.next_op()).collect();
        for (i, p) in Preset::ALL.iter().enumerate() {
            assert_eq!(ops[i].spec, DesignSpec::new(*p));
        }
        let keys: HashSet<u64> = ops.iter().map(Op::key).collect();
        assert_eq!(keys.len(), ops.len());
        let scale_out = ops.iter().filter(|o| o.scale_out).count();
        let budget = ops.iter().filter(|o| o.budget).count();
        assert!((160..340).contains(&scale_out), "{scale_out}");
        assert!((160..340).contains(&budget), "{budget}");
        assert_eq!(ops.iter().filter(|o| o.sweep).count(), 2000 / 16);
    }

    #[test]
    fn generated_specs_build_and_lines_parse() {
        let mut g = ExploreGen::new(1);
        for _ in 0..500 {
            let op = g.next_op();
            op.spec.build().expect("explore spec builds");
            op.spec.topology().expect("explore topology builds");
            let parsed = proto::parse_request_line(&op.line()).expect("line parses");
            assert_eq!(parsed.spec, op.spec);
            assert_eq!(parsed.target, op.target);
        }
        let t = LineTable::new();
        assert_eq!(t.valid, 48);
        for (i, line) in t.lines.iter().enumerate() {
            let parsed = proto::parse_request_line(line)
                .and_then(|r| r.spec.build().and(r.spec.topology()).map(|_| ()));
            assert_eq!(parsed.is_ok(), i < t.valid, "{line}");
        }
    }

    #[test]
    fn zipf_draws_skew_and_include_invalid_lines() {
        let t = LineTable::new();
        let mut d = t.draws(4, 0);
        let mut counts = vec![0usize; t.lines.len()];
        for _ in 0..20_000 {
            counts[d.next_index()] += 1;
        }
        let invalid: usize = counts[t.valid..].iter().sum();
        assert!((800..1200).contains(&invalid), "{invalid}");
        let max = *counts[..t.valid].iter().max().unwrap();
        let min = *counts[..t.valid].iter().min().unwrap();
        assert!(max > 10 * min.max(1), "max {max} min {min}");
    }
}
