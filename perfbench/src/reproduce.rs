//! `reproduce_all`: the full paper reproduction in one thread.
//!
//! Set-up generates the five 45-minute scenario traces from the
//! workload seed. One iteration, the timed operation, renders every
//! table and figure (tables I–II, figs. 6–12, the extensions and the
//! policy matrix) through the `hide_bench` figure functions. This is the only workload that runs `crates/sim`,
//! `crates/analysis` and the energy state machine.

use crate::adapter::{self, Figure};
use crate::outcome::Outcome;
use crate::schedule::{self, Passes, Step};
use crate::spans::Spans;
use crate::util::{self, Fingerprint};
use hide_traces::record::Trace;
use std::time::Instant;

fn generate(seed: u64) -> Vec<Trace> {
    adapter::generate_all_traces(adapter::REPRODUCE_TRACE_SECS, seed)
}

/// One full reproduction: `(fingerprint, simulation events)`.
fn reproduce(traces: &[Trace], out: &mut Outcome) -> (Fingerprint, u64) {
    let mut recorder = adapter::recorder();
    let mut fp = Fingerprint::default();
    for fig in Figure::ALL {
        let text = fig.render(traces, &mut recorder);
        if let Some(text) = out.op(fig.span(), text) {
            fp.add("output_bytes", text.len() as u64);
            fp.mix("output_fnv", adapter::hash_bytes(text.as_bytes()));
        }
    }
    let events = adapter::reproduce_events(&recorder);
    fp.add("events", events);
    (fp, events)
}

/// The end-to-end run. Set-up is the trace generation.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    adapter::single_threaded();
    let mut out = Outcome::default();
    let mut traces = Vec::new();
    let mut passes = Passes::default();
    let timings = schedule::run(seconds, 1, |step| match step {
        Step::Setup => traces = generate(seed),
        Step::Op { pass, .. } => {
            let t = Instant::now();
            let (fp, events) = reproduce(&traces, &mut out);
            *passes.record(pass, events, util::secs(t)) = fp;
        }
    });
    passes.report(&mut out, "reproduce_all", seed, timings);
    out
}

/// The traced pass: trace generation, then one reproduction with a span
/// per figure call, against two untraced reproductions for the
/// overhead.
pub fn traced(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    adapter::single_threaded();
    let mut times: Vec<f64> = (0..schedule::SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(generate(seed));
            util::secs(t)
        })
        .collect();
    let generate_s = util::setup_time(&mut times);
    let traces = generate(seed);
    out.metric("traces.generate_s", generate_s, "s");
    out.metric(
        "traces.frames",
        traces.iter().map(|t| t.frames.len()).sum::<usize>() as f64,
        "count",
    );

    let mut untraced = Vec::new();
    let mut fps = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        fps.push(reproduce(&traces, out).0);
        untraced.push(util::secs(t));
    }

    let root = spans.open("reproduce_all", None);
    let mut recorder = adapter::recorder();
    let mut fp = Fingerprint::default();
    for fig in Figure::ALL {
        let (text, secs) = spans.time(fig.span(), Some(root), || {
            fig.render(&traces, &mut recorder)
        });
        out.metric(format!("{}_s", fig.span()), secs, "s");
        if let Some(text) = out.op(fig.span(), text) {
            fp.add("output_bytes", text.len() as u64);
            fp.mix("output_fnv", adapter::hash_bytes(text.as_bytes()));
        }
    }
    fp.add("events", adapter::reproduce_events(&recorder));
    let traced_wall = spans.close(root);
    fps.push(fp);
    if fps.windows(2).any(|w| w[0] != w[1]) {
        out.problem("reproduction outputs differ between runs");
    }
    out.metric(
        "reproduce_all.trace_overhead",
        traced_wall / util::median(&mut untraced),
        "ratio",
    );
    out.metric(
        "reproduce_all.unaccounted_share",
        spans.unaccounted_share(&[root]),
        "ratio",
    );
}
