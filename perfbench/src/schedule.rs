//! The timed loop the batch workloads share.
//!
//! A run cycles through a fixed list of operations (one pass is one
//! iteration of the workload) until its time is up, always finishing at
//! least one pass. Set-up repetitions are spread evenly over the run,
//! the first before the first operation, so they sample the same mix of
//! host speed modes as the operations do.

use crate::outcome::{EndToEnd, Outcome};
use crate::util::{self, Fingerprint};
use std::time::{Duration, Instant};

/// What the loop asks the workload to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One set-up repetition.
    Setup,
    /// Operation `index` of pass `pass`.
    Op {
        /// Pass number, from 0.
        pass: usize,
        /// Operation index within the pass.
        index: usize,
    },
}

/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 17;

/// Wall times the loop measured.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// Seconds of each operation, in run order.
    pub ops: Vec<f64>,
    /// Passes that ran every operation.
    pub complete_passes: usize,
}

/// Runs `step` for about `seconds` over passes of `ops_per_pass`
/// operations with [`SETUP_REPS`] set-ups interleaved.
pub fn run(seconds: f64, ops_per_pass: usize, mut step: impl FnMut(Step)) -> Timings {
    let mut timed = |s: Step| {
        let t = Instant::now();
        step(s);
        t.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let setup_due =
        |k: usize| start + Duration::from_secs_f64(seconds * k as f64 / SETUP_REPS as f64);
    let mut t = Timings::default();
    let (mut pass, mut index) = (0, 0);
    while t.complete_passes == 0 || Instant::now() < deadline {
        if t.setup.len() < SETUP_REPS && Instant::now() >= setup_due(t.setup.len()) {
            t.setup.push(timed(Step::Setup));
            continue;
        }
        t.ops.push(timed(Step::Op { pass, index }));
        index += 1;
        if index == ops_per_pass {
            t.complete_passes += 1;
            pass += 1;
            index = 0;
        }
    }
    while t.setup.len() < SETUP_REPS {
        t.setup.push(timed(Step::Setup));
    }
    t
}

/// Per-pass tallies of a batch workload: every operation's event
/// rate, the first pass's events, and each pass's output fingerprint.
#[derive(Debug, Default)]
pub struct Passes {
    rates: Vec<f64>,
    first_pass_events: f64,
    fingerprints: Vec<Fingerprint>,
}

impl Passes {
    /// Records an operation of `pass` that processed `events` in
    /// `secs`; returns the pass's fingerprint for the caller to extend.
    pub fn record(&mut self, pass: usize, events: u64, secs: f64) -> &mut Fingerprint {
        self.rates.push(events as f64 / secs);
        if pass == 0 {
            self.first_pass_events += events as f64;
        }
        if self.fingerprints.len() == pass {
            self.fingerprints.push(Fingerprint::default());
        }
        &mut self.fingerprints[pass]
    }

    /// Checks the complete passes' fingerprints and reports the
    /// end-to-end metrics: `events_per_s` at the contended rate over
    /// every operation of the run, `wall_s` one pass at that rate, and
    /// the operation latencies as measured.
    pub fn report(mut self, out: &mut Outcome, workload: &str, seed: u64, timings: Timings) {
        self.fingerprints.truncate(timings.complete_passes);
        out.check_fingerprints(workload, seed, &self.fingerprints);
        let events_per_s = util::contended_op_rate(&mut self.rates);
        let mut latencies: Vec<f64> = timings.ops.iter().map(|s| s * 1e6).collect();
        let mut setups = timings.setup;
        out.end_to_end(EndToEnd {
            events_per_s,
            wall_s: self.first_pass_events / events_per_s,
            latency_p50_us: util::median(&mut latencies),
            latency_p90_us: util::contended_time(&mut latencies),
            setup_s: util::setup_time(&mut setups),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_whole_passes_and_every_setup() {
        let mut seen = Vec::new();
        let t = run(0.0, 3, |s| seen.push(s));
        assert_eq!(t.complete_passes, 1);
        assert_eq!(t.ops.len(), 3);
        assert_eq!(t.setup.len(), SETUP_REPS);
        assert_eq!(seen[0], Step::Setup);
        assert_eq!(seen.last(), Some(&Step::Op { pass: 0, index: 2 }));
    }
}
