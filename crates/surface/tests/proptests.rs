//! Property tests of the surface-code substrate, run as seeded loops.
//!
//! Each property draws its inputs from its own
//! [`Xorshift64Star`] stream (`CASES` cases per property), so the suite
//! is deterministic, needs no external crate and runs in the tier-1
//! gate. A failing case names its property seed and case index; replay
//! it with `Xorshift64Star::stream(seed, case)`.

use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::analytic::{cmos_budget, sfq_budget, CALIBRATION};
use qisim_surface::decoder::{
    decode, decode_into, decode_reference, DecoderScratch, DecodingGraph,
};
use qisim_surface::montecarlo::{run_trials_packed, run_trials_reference, McScratch};
use qisim_surface::{Lattice, PackedLattice};

/// Cases per property.
const CASES: u64 = 64;

/// Runs `property` on `CASES` independent streams derived from `seed`;
/// case `i` gets `Xorshift64Star::stream(seed, i)` and its index.
fn for_cases(seed: u64, mut property: impl FnMut(&mut Xorshift64Star, u64)) {
    for case in 0..CASES {
        property(&mut Xorshift64Star::stream(seed, case), case);
    }
}

/// A uniform draw from `lo..hi`.
fn range(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    lo + rng.gen_below((hi - lo) as u64) as usize
}

/// A uniform draw from `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// `len` flags, each set with probability 0.08.
fn error_flags(rng: &mut Xorshift64Star, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.gen_f64() < 0.08).collect()
}

/// A `d × d` X-error pattern folded from `d_max²` weighted flags: qubit
/// `i mod d²` flips once per set flag at `i`.
fn folded_errors(rng: &mut Xorshift64Star, d: usize, d_max: usize) -> Vec<bool> {
    let n = d * d;
    let mut errs = vec![false; n];
    for (i, e) in error_flags(rng, d_max * d_max).into_iter().enumerate() {
        errs[i % n] ^= e;
    }
    errs
}

/// The union-find decoder always returns the state to the codespace:
/// after applying its correction the syndrome is empty, for any error
/// pattern.
#[test]
fn decoder_always_clears_the_syndrome() {
    for_cases(0xC1EA, |rng, case| {
        let d = range(rng, 3, 9);
        let lattice = Lattice::new(d);
        let mut errs = folded_errors(rng, d, 8);
        let graph = DecodingGraph::new(&lattice, false);
        let syndrome = lattice.z_syndrome(&errs);
        for q in decode(&graph, &syndrome) {
            errs[q] ^= true;
        }
        let residual = lattice.z_syndrome(&errs);
        assert!(residual.iter().all(|b| !b), "case {case}: residual syndrome at d={d}");
    });
}

/// The allocation-free frontier engine returns exactly the oracle's
/// correction for any syndrome, and both clear every syndrome they are
/// handed.
#[test]
fn arena_decoder_matches_oracle_and_clears_syndromes() {
    for_cases(0xA7E4A, |rng, case| {
        let d = range(rng, 3, 10);
        let lattice = Lattice::new(d);
        let mut errs = folded_errors(rng, d, 9);
        let graph = DecodingGraph::new(&lattice, false);
        let syndrome = lattice.z_syndrome(&errs);
        let oracle = decode_reference(&graph, &syndrome);
        let mut scratch = DecoderScratch::new(&graph);
        let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch).to_vec();
        assert_eq!(fast, oracle, "case {case}: corrections diverge at d={d}");
        for q in fast {
            errs[q] ^= true;
        }
        assert!(
            lattice.z_syndrome(&errs).iter().all(|b| !b),
            "case {case}: residual syndrome at d={d}"
        );
    });
}

/// The bit-packed Monte-Carlo kernel and the bool-vec reference see the
/// same RNG stream and must count the same failures, bit for bit.
#[test]
fn packed_kernel_failure_counts_match_reference() {
    for_cases(0x9AC4ED, |rng, case| {
        let d = [3usize, 5, 7][range(rng, 0, 3)];
        let p = [0.001f64, 0.01, 0.1][range(rng, 0, 3)];
        let seed = rng.next_u64();
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        let mut scratch = McScratch::new(&packed, &graph);
        let mut rng_a = Xorshift64Star::seed_from_u64(seed);
        let mut rng_b = Xorshift64Star::seed_from_u64(seed);
        let fast = run_trials_packed(&packed, &graph, p, 200, &mut rng_a, &mut scratch);
        let oracle = run_trials_reference(&lattice, &graph, p, 200, &mut rng_b);
        assert_eq!(fast, oracle, "case {case}: failure counts diverge at d={d} p={p}");
    });
}

/// The trial-transpose adapters are exact inverses: scattering 64
/// arbitrary packed error patterns into a sliced block and gathering
/// each lane back reproduces every pattern bit for bit, and the sliced
/// word-wide syndrome/logical verdicts match the per-trial packed ones
/// on every lane.
#[test]
fn scatter_gather_roundtrips_64_packed_lattices() {
    for_cases(0x5CA77E, |rng, case| {
        let d = [3usize, 5, 9][range(rng, 0, 3)];
        let lattice = Lattice::new(d);
        let packed = PackedLattice::new(&lattice);
        // Each lane flips every qubit with probability 1/2.
        let trials: Vec<Vec<u64>> = (0..64)
            .map(|_| {
                let mut errs = vec![0u64; packed.qubit_words()];
                for q in 0..packed.data_qubits() {
                    if rng.gen_bool() {
                        PackedLattice::set_bit(&mut errs, q);
                    }
                }
                errs
            })
            .collect();
        let mut sliced = vec![0u64; packed.sliced_words()];
        for (lane, errs) in trials.iter().enumerate() {
            packed.scatter_lane(errs, lane, &mut sliced);
        }
        let mut sliced_syn = vec![0u64; packed.sliced_syndrome_words()];
        let any_mask = packed.z_syndrome_sliced(&sliced, &mut sliced_syn);
        let logical_mask = packed.logical_x_lanes(&sliced);
        let mut back = vec![0u64; packed.qubit_words()];
        let mut syn = vec![0u64; packed.syndrome_words()];
        for (lane, errs) in trials.iter().enumerate() {
            packed.gather_lane(&sliced, lane, &mut back);
            assert_eq!(&back, errs, "case {case}: round-trip diverged at d={d} lane={lane}");
            let any = packed.z_syndrome_into(errs, &mut syn);
            assert_eq!(any_mask >> lane & 1 != 0, any, "case {case}: d={d} lane={lane}");
            assert_eq!(
                logical_mask >> lane & 1 != 0,
                packed.is_logical_x(errs),
                "case {case}: d={d} lane={lane}"
            );
        }
    });
}

/// Syndromes are linear: syndrome(a ⊕ b) = syndrome(a) ⊕ syndrome(b).
#[test]
fn syndromes_are_linear() {
    let lattice = Lattice::new(5);
    for_cases(0x11EA2, |rng, case| {
        let a = error_flags(rng, 25);
        let b = error_flags(rng, 25);
        let xor: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let sa = lattice.z_syndrome(&a);
        let sb = lattice.z_syndrome(&b);
        let sx = lattice.z_syndrome(&xor);
        for i in 0..sa.len() {
            assert_eq!(sx[i], sa[i] ^ sb[i], "case {case}: check {i}");
        }
    });
}

/// Stabilizers commute with the logical operators at every distance.
#[test]
fn stabilizer_logical_commutation() {
    for_cases(0xC0AA, |rng, case| {
        let d = range(rng, 2, 12);
        let l = Lattice::new(d);
        let lz = l.logical_z();
        for chk in &l.x_checks {
            let overlap = chk.support.iter().filter(|q| lz.contains(q)).count();
            assert_eq!(overlap % 2, 0, "case {case}: d={d} X-check at {:?}", chk.pos);
        }
        let lx = l.logical_x();
        for chk in &l.z_checks {
            let overlap = chk.support.iter().filter(|q| lx.contains(q)).count();
            assert_eq!(overlap % 2, 0, "case {case}: d={d} Z-check at {:?}", chk.pos);
        }
    });
}

/// Check counts follow `d² − 1` with balanced X/Z families.
#[test]
fn check_count_formula() {
    for_cases(0xC4EC, |rng, case| {
        let d = range(rng, 2, 16);
        let l = Lattice::new(d);
        assert_eq!(l.x_checks.len() + l.z_checks.len(), d * d - 1, "case {case}: d={d}");
        let diff = l.x_checks.len() as i64 - l.z_checks.len() as i64;
        assert!(diff.abs() <= 1, "case {case}: d={d} families differ by {diff}");
    });
}

/// The analytic logical error is monotone in every physical error
/// contribution and in the cycle time.
#[test]
fn logical_error_is_monotone() {
    for_cases(0x303E, |rng, case| {
        let base_cycle = uniform(rng, 500.0, 3000.0);
        let extra = uniform(rng, 1.0, 3000.0);
        let d = 2 * range(rng, 2, 12) as u32 + 1; // odd distances
        let slow = cmos_budget(base_cycle + extra).logical_error(d, &CALIBRATION);
        let fast = cmos_budget(base_cycle).logical_error(d, &CALIBRATION);
        assert!(slow >= fast, "case {case}: slower cycle must not reduce p_L (d={d})");
        // SFQ (worse readout) never beats CMOS at the same cycle.
        let sfq = sfq_budget(base_cycle).logical_error(d, &CALIBRATION);
        assert!(sfq >= fast, "case {case}: SFQ beat CMOS at d={d}, cycle {base_cycle}");
    });
}

/// Larger distances help (below threshold) and p_L is a probability.
#[test]
fn distance_scaling() {
    for_cases(0xD157, |rng, case| {
        let cycle = uniform(rng, 500.0, 2000.0);
        let mut last = 1.0f64;
        for d in [3u32, 7, 11, 15, 23] {
            let p = cmos_budget(cycle).logical_error(d, &CALIBRATION);
            assert!((0.0..=1.0).contains(&p), "case {case}: p_L {p} at d={d}");
            assert!(p <= last + 1e-30, "case {case}: d={d}: {p} vs previous {last}");
            last = p;
        }
    });
}
