//! Serial-vs-parallel wall-clock benchmark of the hot paths the
//! `qisim-par` engine threads through: a Fig. 17-style design-point
//! sweep (one power bisection per design) and a surface-code Monte-Carlo
//! shot batch. The per-stage utilization curve rides along as a
//! serial reference: `sweep` compiles the design's power curve once and
//! evaluates its points on the caller's thread (a compiled point costs
//! less than a pool dispatch), so its share of the time does not scale
//! with the thread count.
//!
//! Each configuration runs the identical workload with the thread pool
//! pinned to 1, 2, and 4 workers, checks that the three result sets are
//! **byte-identical**, and writes the `BENCH_par.json` artifact.
//!
//! Run with `cargo run --release --example bench_sweep`.

use qisim::scalability::{analyze_many, sweep, Scalability, SweepPoint};
use qisim::surface::montecarlo::{logical_error_rate_par, McEstimate};
use qisim::surface::target::Target;
use qisim::surface::Lattice;
use qisim::QciDesign;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed workload: every Fig. 17 long-term design point (plus the
/// near-term anchors), the baseline utilization curve, and a 16k-trial
/// distance-7 Monte-Carlo batch.
fn workload() -> (Vec<Scalability>, Vec<SweepPoint>, McEstimate) {
    let designs = [
        QciDesign::cmos_long_term(),
        QciDesign::ersfq_long_term(),
        QciDesign::cmos_baseline(),
        QciDesign::rsfq_baseline(),
        QciDesign::rsfq_near_term(),
        QciDesign::room_coax(),
        QciDesign::room_microstrip(),
        QciDesign::room_photonic(),
    ];
    let verdicts = analyze_many(&designs, &Target::long_term());
    let counts: Vec<u64> = (1..=24).map(|i| i * 4096).collect();
    let curve = sweep(&QciDesign::cmos_long_term(), &counts);
    let mc = logical_error_rate_par(&Lattice::new(7), 0.04, 16_000, 20230617);
    (verdicts, curve, mc)
}

fn main() {
    let parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "bench_sweep: fig17-style sweep, {} available core(s), par build: {}",
        parallelism,
        qisim::par::is_parallel_build()
    );

    let mut wall_ms = Vec::new();
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4] {
        qisim::par::set_threads(Some(threads));
        let started = Instant::now();
        let results = workload();
        let elapsed = started.elapsed();
        wall_ms.push((threads, elapsed.as_secs_f64() * 1e3));
        // The Debug rendering covers every field of every result; equal
        // strings mean byte-identical science.
        digests.push(format!("{results:?}"));
        println!("  {threads} thread(s): {:8.1} ms", elapsed.as_secs_f64() * 1e3);
    }
    qisim::par::set_threads(None);

    let identical = digests.windows(2).all(|w| w[0] == w[1]);
    let serial_ms = wall_ms[0].1;
    let par4_ms = wall_ms[2].1;
    let speedup = serial_ms / par4_ms;
    println!(
        "  identical across thread counts: {identical}; 4-thread speedup: {speedup:.2}x \
         (ideal bounded by the {parallelism} available core(s))"
    );
    assert!(identical, "parallel results diverged from the serial run");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"fig17-style sweep: 8 design-point analyses (one power bisection \
         each) + 24-point utilization curve + 16000-trial d=7 Monte-Carlo\","
    );
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"parallel_build\": {},", qisim::par::is_parallel_build());
    json.push_str("  \"runs\": [\n");
    for (i, (threads, ms)) in wall_ms.iter().enumerate() {
        let comma = if i + 1 < wall_ms.len() { "," } else { "" };
        let _ = writeln!(json, "    {{\"threads\": {threads}, \"wall_ms\": {ms:.3}}}{comma}");
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_4_threads_vs_serial\": {speedup:.4},");
    let _ = writeln!(json, "  \"results_identical_across_thread_counts\": {identical}");
    json.push_str("}\n");
    std::fs::write("BENCH_par.json", &json).expect("write BENCH_par.json");
    println!("wrote BENCH_par.json ({} bytes)", json.len());
}
