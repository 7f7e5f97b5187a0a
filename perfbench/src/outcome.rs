//! What one benchmark run reports.

use crate::util::{self, Fingerprint};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The result of a workload (end-to-end) or of the traced suite.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (an error, an unacked message, a refused
    /// association).
    pub failed: u64,
    /// Reasons the outputs were judged wrong; empty when correct.
    pub problems: Vec<String>,
    /// Measurements, in print order.
    pub metrics: Vec<Metric>,
    /// Printed but not reported in the result object: diagnostics too
    /// unsteady on a shared host to gate a change on.
    pub diagnostics: Vec<Metric>,
    /// The integer fingerprint of the workload's outputs.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Records a measurement.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a printed-only diagnostic.
    pub fn diagnostic(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a problem with the outputs.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problem(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records the end-to-end metric set every workload reports. The
    /// latencies are printed but not gated: on a shared host they move
    /// by more than a tenth between identical runs (see the README).
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metric("events_per_s", e.events_per_s, "1/s");
        self.metric("wall_s", e.wall_s, "s");
        self.diagnostic("latency_p50_us", e.latency_p50_us, "us");
        self.diagnostic("latency_p90_us", e.latency_p90_us, "us");
        self.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
        self.metric("setup_s", e.setup_s, "s");
    }

    /// Checks that every iteration produced `first`'s fingerprint, and
    /// that `first` matches the digest recorded for this seed.
    pub fn check_fingerprints(&mut self, workload: &str, seed: u64, iterations: &[Fingerprint]) {
        let Some(first) = iterations.first() else {
            self.problem("no complete iteration to fingerprint");
            return;
        };
        for (i, fp) in iterations.iter().enumerate().skip(1) {
            if fp != first {
                self.problem(format!(
                    "iteration {i} fingerprint {} differs from iteration 0 {}",
                    fp.to_json(),
                    first.to_json()
                ));
            }
        }
        let digest = format!("{:016x}", first.digest());
        if let Some(recorded) = util::recorded_digest(workload, seed) {
            if recorded != digest {
                self.problem(format!(
                    "fingerprint {digest} differs from the recorded {recorded} for seed {seed}"
                ));
            }
        }
        self.fingerprint = first.clone();
    }

    /// `true` when no output was judged wrong and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}: {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                util::json_str(&m.name),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the metrics.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.diagnostics {
            let _ = writeln!(
                out,
                "  {:<32} {:>16.6} {} (not gated)",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }
}

/// The end-to-end metric set, one value each.
///
/// The host these numbers come from is shared: other tenants slow it by
/// up to ~40 % for stretches of seconds, and how much of a run they
/// cover changes from run to run, so a median of short repetitions
/// flips between the two speeds. The contended speed is the one nearly
/// every run visits, so every gated figure is taken there: operation
/// rates at their p05 and windowed rates at their p10 over the run (see
/// the README for the measurements behind this).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Work events per second at the contended speed.
    pub events_per_s: f64,
    /// Wall of one iteration at the contended speed.
    pub wall_s: f64,
    /// Median per-operation latency, µs (printed, not gated).
    pub latency_p50_us: f64,
    /// p90 per-operation latency, µs (printed, not gated).
    pub latency_p90_us: f64,
    /// Set-up time at the contended speed, s.
    pub setup_s: f64,
}
