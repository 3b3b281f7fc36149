//! `qisim-bench`: the qisim benchmark. One run measures one workload for
//! a given number of seconds and prints a record line and, last, the
//! result line:
//!
//! ```text
//! qisim-bench --workload explore|serve_hot|mc_estimate --seed N --seconds S --trace 0|1
//!             --serve-bin PATH --work-dir DIR [--setup-only 0|1]
//! ```
//!
//! With `--setup-only 1` the process runs the workload's set-up, prints
//! `ready` and exits: a run starts itself so several times to measure
//! `setup_s` (`explore` and `mc_estimate`).
//!
//! `benchmark/run.sh` builds this binary and `qisim-serve` from source
//! and passes the last two flags. `benchmark/README.md` documents every
//! workload and metric.

mod gen;
mod layers;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Config;

const USAGE: &str = "usage: qisim-bench --workload explore|serve_hot|mc_estimate --seed N \
--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, found {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["explore", "serve_hot", "mc_estimate"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if setup_only && workload == "serve_hot" {
        return Err("--setup-only: serve_hot sets up a server, not this process".into());
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        serve_bin: serve_bin.ok_or("missing --serve-bin")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("qisim-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("qisim-bench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    if !cfg.serve_bin.is_file() {
        eprintln!("qisim-bench: no server binary at {}", cfg.serve_bin.display());
        return ExitCode::from(2);
    }
    let mut report = Report {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        ..Report::default()
    };
    if cfg.setup_only {
        workloads::set_up(&mut report);
        if report.failed > 0 {
            for reason in &report.failures {
                eprintln!("qisim-bench: set-up check failed: {reason}");
            }
            return ExitCode::FAILURE;
        }
        println!("ready");
        return ExitCode::SUCCESS;
    }
    match cfg.workload.as_str() {
        "explore" => workloads::explore(&cfg, &mut report),
        "serve_hot" => workloads::serve_hot(&cfg, &mut report),
        _ => workloads::mc_estimate(&cfg, &mut report),
    }
    for reason in &report.failures {
        eprintln!("qisim-bench: check failed: {reason}");
    }
    println!("{}", report.record_line(&sys::machine_json()));
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
