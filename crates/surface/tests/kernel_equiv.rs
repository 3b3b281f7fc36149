//! Equivalence suite for the bit-packed and bit-sliced Monte-Carlo
//! engines and the arena decoder they share (its seeded-property twin is
//! `proptests.rs`).
//!
//! For every `(d, p)` in `{3, 5, 7} × {0.001, 0.01, 0.1}` and a battery
//! of seeds, the packed kernel and the legacy bool-vec reference must
//! count **identical** failures from the same RNG stream, and the arena
//! decoder must clear every syndrome it is handed while matching the
//! oracle's correction — also when one arena alternates dense and
//! one- or two-defect syndromes at d = 9 and d = 23. At d = 23 the
//! sliced kernel must count exactly the failures of per-lane reference
//! runs.

use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::decoder::{decode_into, decode_reference, DecoderScratch, DecodingGraph};
use qisim_surface::montecarlo::{
    logical_error_rate_sliced, run_trials_packed, run_trials_reference, McScratch,
};
use qisim_surface::{Lattice, PackedLattice};

#[test]
fn packed_and_reference_kernels_agree_across_the_acceptance_grid() {
    for d in [3usize, 5, 7] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        let mut scratch = McScratch::new(&packed, &graph);
        for p in [0.001f64, 0.01, 0.1] {
            for seed in 0u64..8 {
                let seed = seed.wrapping_mul(0x9E37_79B9) ^ p.to_bits() ^ (d as u64) << 48;
                let fast = {
                    let mut rng = Xorshift64Star::seed_from_u64(seed);
                    run_trials_packed(&packed, &graph, p, 250, &mut rng, &mut scratch)
                };
                let oracle = {
                    let mut rng = Xorshift64Star::seed_from_u64(seed);
                    run_trials_reference(&lattice, &graph, p, 250, &mut rng)
                };
                assert_eq!(fast, oracle, "d={d} p={p} seed={seed:#x}");
            }
        }
    }
}

#[test]
fn arena_decoder_clears_every_syndrome_and_matches_the_oracle() {
    // Dense random error patterns (well above threshold) stress multi-
    // cluster growth, merging, and boundary pairing; the arena is reused
    // across every call so stale state would surface as a divergence.
    for d in [3usize, 5, 7, 9] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let mut scratch = DecoderScratch::new(&graph);
        let mut rng = Xorshift64Star::seed_from_u64(0xACCE55 ^ d as u64);
        for _ in 0..150 {
            let mut errs = vec![false; lattice.data_qubits()];
            for e in errs.iter_mut() {
                *e = rng.gen_f64() < 0.15;
            }
            let syndrome = lattice.z_syndrome(&errs);
            let oracle = decode_reference(&graph, &syndrome);
            let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch).to_vec();
            assert_eq!(fast, oracle, "d={d}: corrections diverge");
            for q in fast {
                errs[q] ^= true;
            }
            assert!(
                lattice.z_syndrome(&errs).iter().all(|b| !b),
                "d={d}: residual syndrome after correction"
            );
        }
    }
}

#[test]
fn packed_syndrome_words_agree_with_graph_layout() {
    for d in [2usize, 3, 8, 9, 11, 13] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        assert_eq!(graph.syndrome_words(), packed.syndrome_words(), "d={d}");
        assert_eq!(graph.check_count(), packed.z_check_count(), "d={d}");
    }
}

#[test]
fn reused_arena_matches_the_oracle_when_dense_and_sparse_syndromes_alternate() {
    // The arena resets only what the previous call touched, so a large
    // multi-cluster decode followed by a one- or two-defect one (and
    // back) is where leftover union-find, growth or peeling state would
    // change a correction.
    for d in [9usize, 23] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let checks = graph.check_count();
        let mut scratch = DecoderScratch::new(&graph);
        let mut rng = Xorshift64Star::seed_from_u64(0x57A1E ^ d as u64);
        for round in 0..240 {
            let mut syndrome = vec![false; checks];
            match round % 4 {
                0 | 2 => {
                    let errs: Vec<bool> =
                        (0..lattice.data_qubits()).map(|_| rng.gen_f64() < 0.15).collect();
                    syndrome = lattice.z_syndrome(&errs);
                }
                1 => syndrome[rng.gen_below(checks as u64) as usize] = true,
                _ => {
                    let a = rng.gen_below(checks as u64) as usize;
                    let b = (a + 1 + rng.gen_below(checks as u64 - 1) as usize) % checks;
                    syndrome[a] = true;
                    syndrome[b] = true;
                }
            }
            let oracle = decode_reference(&graph, &syndrome);
            let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch);
            assert_eq!(fast, &oracle[..], "d={d} round={round}");
        }
    }
}

#[test]
fn sliced_kernel_matches_per_lane_reference_runs_at_distance_23() {
    // p = 2e-3 is the engine's operating regime (position-built fallback
    // syndromes, warm memo, sparse decoder resets); it sees no failures
    // in a few hundred trials, so p = 0.08 — dense clusters, real
    // failures — makes the count comparison bite.
    let lattice = Lattice::new(23);
    let graph = DecodingGraph::new(&lattice, false);
    for (p, trials) in [(2e-3f64, 320usize), (0.08, 200)] {
        let seed = 0x23_5EED ^ p.to_bits();
        let oracle: usize = (0..trials)
            .map(|t| {
                let mut rng = Xorshift64Star::stream(seed, t as u64);
                run_trials_reference(&lattice, &graph, p, 1, &mut rng)
            })
            .sum();
        let sliced = logical_error_rate_sliced(&lattice, p, trials, seed);
        assert_eq!(sliced.failures, oracle, "p={p}");
        if p > 0.01 {
            assert!(oracle > 0, "p={p} must produce failures for the comparison to bite");
        }
    }
}
