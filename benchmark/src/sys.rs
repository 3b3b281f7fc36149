//! What the run record says about the machine and the build.

use std::fmt::Write as _;
use std::path::Path;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one)
/// in MB, from `/proc`; `None` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the program builds for).
const TICKS_PER_S: f64 = 100.0;

/// CPU time (user + system, over all threads, exited ones included) of
/// process `pid` (`"self"` for this one) in seconds, from `/proc`; 10 ms
/// resolution. Time the host stole from the machine is not in it.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat.get(stat.rfind(')')? + 2..)?.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// The commit the checkout was made from, when `.git` is present in the
/// working directory; `"unknown"` otherwise (source exports have none).
pub fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&git.join(reference)).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The machine and build record as a JSON object. Of the build features
/// only `par` is recorded: the library reports it, and has no query for
/// whether `obs` was compiled in.
pub fn machine_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"available_parallelism\":{parallelism},\"par_threads\":{},\"features\":{{\"par\":{}}},\"git_rev\":\"{}\"}}",
        qisim::par::threads(),
        qisim::par::is_parallel_build(),
        git_rev()
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_grows_with_work() {
        let before = super::cpu_s("self").expect("/proc/self/stat is readable");
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = super::cpu_s("self").expect("/proc/self/stat is readable");
        assert!(after - before >= 0.03, "{before} -> {after}");
    }
}
