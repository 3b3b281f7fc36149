//! Differential test of the compiled power model: `PowerCurve` must be
//! bit-identical (`to_bits`, signed zeros included) to the direct
//! per-stage sums that `QciArch` computes from its inventory, on every
//! paper preset and on seeded random knob draws, against the standard
//! fridge, budget overrides and topology-derated fridges, at qubit
//! counts from 1 to 2^40. Its bisection must land where the doubling
//! bisection over those direct sums lands.

use qisim::hal::fridge::{Fridge, Stage};
use qisim::hal::topology::{FridgeTopology, LinkKind};
use qisim::hal::wire::InstructionLink;
use qisim::microarch::sfq::{BitgenKind, JpmSharing};
use qisim::microarch::{DecisionKind, QciArch};
use qisim::power::{PowerCurve, PowerReport, StagePower};
use qisim::quantum::rng::{Rng, SplitMix64};
use qisim::spec::{DesignSpec, Preset, BS_RANGE, DAC_BITS_RANGE, FDM_RANGE};

const COUNTS: [u64; 10] = [1, 2, 31, 32, 33, 1023, 1024, 1025, 65536, 1 << 40];

/// Random knob draws per CMOS and SFQ preset.
const DRAWS: usize = 12;

/// The per-stage report straight from the inventory's direct sums.
fn direct_report(arch: &QciArch, fridge: &Fridge, n: u64, link: &InstructionLink) -> PowerReport {
    let stages = Stage::ALL
        .iter()
        .map(|&stage| StagePower {
            stage,
            device_static_w: arch.device_static_w(stage, n),
            device_dynamic_w: arch.device_dynamic_w(stage, n),
            wire_w: arch.wire_load_w(stage, n),
            instr_link_w: if stage == Stage::K4 {
                link.power_4k_w(arch.instr_bandwidth_bps(n))
            } else {
                0.0
            },
            budget_w: fridge.budget_w(stage),
        })
        .collect();
    PowerReport { n_qubits: n, stages }
}

/// The doubling-then-bisect search over the direct sums, probe for probe
/// as the power layer ran it before the model was compiled.
fn direct_max_qubits(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> (u64, Option<Stage>) {
    let probe = |n: u64| direct_report(arch, fridge, n, link);
    let one = probe(1);
    if !one.fits() {
        return (0, one.binding_stage());
    }
    let mut lo = 1u64;
    let mut hi = 2u64;
    while probe(hi).fits() {
        lo = hi;
        hi *= 2;
        if hi > 1 << 40 {
            return (lo, None);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid).fits() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probe(hi).binding_stage())
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs {want:e}");
}

fn assert_same_report(context: &str, got: &PowerReport, want: &PowerReport) {
    assert_eq!(got.n_qubits, want.n_qubits, "{context}");
    assert_eq!(got.stages.len(), want.stages.len(), "{context}");
    for (g, w) in got.stages.iter().zip(&want.stages) {
        assert_eq!(g.stage, w.stage, "{context}");
        let at = |field: &str| format!("{context} {} {field}", g.stage.label());
        assert_bits(&at("device_static_w"), g.device_static_w, w.device_static_w);
        assert_bits(&at("device_dynamic_w"), g.device_dynamic_w, w.device_dynamic_w);
        assert_bits(&at("wire_w"), g.wire_w, w.wire_w);
        assert_bits(&at("instr_link_w"), g.instr_link_w, w.instr_link_w);
        assert_bits(&at("budget_w"), g.budget_w, w.budget_w);
        assert_bits(&at("total_w"), g.total_w(), w.total_w());
    }
    assert_eq!(got.fits(), want.fits(), "{context}");
    assert_eq!(got.binding_stage(), want.binding_stage(), "{context}");
}

/// Random knobs inside the validated ranges, each set with probability
/// one half.
fn draw_knobs(rng: &mut SplitMix64, preset: Preset) -> DesignSpec {
    let mut spec = DesignSpec::new(preset);
    let coin = |rng: &mut SplitMix64| rng.gen_f64() < 0.5;
    let range = |rng: &mut SplitMix64, (lo, hi): (u32, u32)| {
        lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
    };
    match preset {
        Preset::CmosBaseline | Preset::CmosNearTerm | Preset::CmosLongTerm => {
            if coin(rng) {
                spec = spec.drive_fdm(range(rng, FDM_RANGE));
            }
            if coin(rng) {
                spec = spec.drive_bits(range(rng, DAC_BITS_RANGE));
            }
            if coin(rng) {
                let kinds = [
                    DecisionKind::BinCounting,
                    DecisionKind::SinglePoint,
                    DecisionKind::Memoryless,
                ];
                spec = spec.decision(kinds[(rng.next_u64() % 3) as usize]);
            }
            if coin(rng) {
                spec = spec.masked_isa(coin(rng));
            }
            if coin(rng) {
                spec = spec.readout_ns(100.0 + 1900.0 * rng.gen_f64());
            }
            if coin(rng) {
                spec = spec.analog_scale(0.25 + 3.75 * rng.gen_f64());
            }
        }
        Preset::RsfqBaseline | Preset::RsfqNearTerm | Preset::ErsfqLongTerm => {
            if coin(rng) {
                spec = spec.bs(range(rng, BS_RANGE));
            }
            if coin(rng) {
                let kinds = [BitgenKind::PerPhiShiftRegisters, BitgenKind::SplitterShared];
                spec = spec.bitgen(kinds[(rng.next_u64() % 2) as usize]);
            }
            if coin(rng) {
                let kinds =
                    [JpmSharing::Unshared, JpmSharing::SharedNaive, JpmSharing::SharedPipelined];
                spec = spec.sharing(kinds[(rng.next_u64() % 3) as usize]);
            }
            if coin(rng) {
                spec = spec.fast_driving(coin(rng));
            }
        }
        Preset::RoomCoax | Preset::RoomMicrostrip | Preset::RoomPhotonic => {}
    }
    spec
}

/// The 9 presets plus `DRAWS` seeded knob draws on every CMOS and SFQ
/// preset.
fn archs() -> Vec<(String, QciArch)> {
    let mut rng = SplitMix64::new(0x00C0_4E51_DE5E);
    let mut out = Vec::new();
    for preset in Preset::ALL {
        out.push((preset.id().to_owned(), preset.design().arch()));
        let has_knobs =
            !matches!(preset, Preset::RoomCoax | Preset::RoomMicrostrip | Preset::RoomPhotonic);
        for draw in 0..if has_knobs { DRAWS } else { 0 } {
            let spec = draw_knobs(&mut rng, preset);
            let design = spec.build().expect("knobs drawn inside the validated ranges");
            out.push((format!("{} draw {draw}", preset.id()), design.arch()));
        }
    }
    out
}

/// The standard fridge, three budget overrides, and the derated fridge
/// of 2/8/64-fridge topologies over every link kind (when the
/// interconnect leaves every stage some budget).
fn fridges() -> Vec<(String, Fridge)> {
    let standard = Fridge::standard();
    let mut out = vec![
        ("standard".to_owned(), standard.clone()),
        ("4K x2".to_owned(), standard.clone().with_budget(Stage::K4, 3.0)),
        ("20mK x0.5".to_owned(), standard.clone().with_budget(Stage::Mk20, 1.0e-5)),
        (
            "100mK x4, 50K x0.1".to_owned(),
            standard.clone().with_budget(Stage::Mk100, 8.0e-4).with_budget(Stage::K50, 3.0),
        ),
    ];
    for fridge_count in [2, 8, 64] {
        for link in LinkKind::ALL {
            let topology = FridgeTopology::standard().with_fridges(fridge_count).with_link(link);
            if let Some(eff) = topology.effective_fridge() {
                out.push((format!("{fridge_count} fridges over {}", link.label()), eff));
            }
        }
    }
    out
}

#[test]
fn compiled_curve_is_bit_identical_to_the_direct_sums() {
    let fridges = fridges();
    assert!(fridges.len() > 4, "some derated fridges must exist");
    let links = [
        InstructionLink::standard(),
        InstructionLink { cable_capacity_bps: 25.0e9, cable_load_4k_w: 0.4e-3 },
    ];
    for (name, arch) in archs() {
        for link in &links {
            let curve = PowerCurve::compile(&arch, link);
            for (fridge_name, fridge) in &fridges {
                for n in COUNTS {
                    let context = format!("{name} on {fridge_name} at n = {n}");
                    let got = curve.evaluate(n, fridge).expect("n >= 1");
                    assert_same_report(&context, &got, &direct_report(&arch, fridge, n, link));
                }
            }
        }
    }
}

#[test]
fn compiled_bisection_lands_where_the_direct_bisection_lands() {
    let fridges = fridges();
    let link = InstructionLink::standard();
    for (name, arch) in archs() {
        let curve = PowerCurve::compile(&arch, &link);
        for (fridge_name, fridge) in &fridges {
            assert_eq!(
                curve.max_qubits(fridge),
                direct_max_qubits(&arch, fridge, &link),
                "{name} on {fridge_name}"
            );
        }
    }
}

/// Signed zeros survive compilation: stages with no components or no
/// wires report exactly the zero the direct sums report.
#[test]
fn empty_stage_sums_keep_their_sign() {
    let arch = Preset::RsfqBaseline.design().arch();
    let bare = QciArch { components: Vec::new(), wires: Vec::new(), ..arch };
    let curve = PowerCurve::compile(&bare, &InstructionLink::standard());
    let fridge = Fridge::standard();
    let got = curve.evaluate(64, &fridge).expect("n >= 1");
    assert_same_report(
        "bare arch",
        &got,
        &direct_report(&bare, &fridge, 64, &InstructionLink::standard()),
    );
}
