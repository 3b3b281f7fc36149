//! The run's output: a record line (machine, mix, defects, digest, and
//! every metric under its workload-qualified name with sample counts),
//! then the result line a benchmark runner reads, always last.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the number summarizes, where it is a statistic.
    pub samples: Option<usize>,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
    Metric { name: name.to_string(), value, unit, samples }
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failed checks (the first few are printed to stderr).
    pub failures: Vec<String>,
    /// The metrics of the result line: the end-to-end set untraced, the
    /// per-layer set traced.
    pub result: Vec<Metric>,
    /// The workload-qualified end-to-end metrics (untraced runs).
    pub named: Vec<Metric>,
    /// Shares and counts describing the generated inputs.
    pub mix: Vec<(String, f64)>,
    /// Known-defect counts (see the metric doc).
    pub defects: Vec<(String, Option<f64>)>,
    pub digest: u64,
    pub digest_ops: u64,
    pub trace_file: Option<String>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(reason);
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.result.iter().all(|m| m.value.is_finite())
    }

    /// The record line.
    pub fn record_line(&self, machine: &str) -> String {
        let mut out = String::from("{\"record\":{");
        let _ = write!(
            out,
            "\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"machine\":{machine},",
            self.workload, self.seed, self.trace
        );
        let _ = write!(
            out,
            "\"digest\":{{\"fnv64\":\"{:016x}\",\"ops\":{}}},\"failed_share\":{},",
            self.digest,
            self.digest_ops,
            num(self.failed_share())
        );
        out.push_str("\"mix\":{");
        let mix: Vec<String> =
            self.mix.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
        out.push_str(&mix.join(","));
        out.push_str("},\"defects\":{");
        let defects: Vec<String> = self
            .defects
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", v.map_or("null".to_string(), num)))
            .collect();
        out.push_str(&defects.join(","));
        out.push_str("},\"metrics\":");
        out.push_str(&metrics_json(&self.named, true));
        if let Some(path) = &self.trace_file {
            // Per-layer numbers derived by subtraction rather than timed
            // under a span of their own.
            let _ = write!(out, ",\"trace_file\":\"{path}\",\"residuals\":[\"serve.handoff_us\"]");
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.result, false)
        )
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(",\"samples\":{n}"),
                _ => String::new(),
            };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"{samples}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A JSON number with every digit (`null` for a non-finite value).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report { attempted: 4, ..Report::default() };
        r.result.push(metric("setup_s", 0.125, "s", None));
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.125,\"unit\":\"s\"}}}"
        );
        r.fail("x".into());
        assert!(r.result_line().starts_with("{\"correct\":false"));
    }
}
