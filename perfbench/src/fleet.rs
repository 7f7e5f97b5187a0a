//! `fleet_steady`: the steady-state fleet kernel.
//!
//! One iteration is a 200-BSS fleet (100 clients per BSS, 600 s
//! simulated, Starbucks, HIDE, `fleet_sim`'s churn defaults), run as
//! twenty 10-BSS `try_run_with_jobs(1)` calls so every call is a short
//! timed operation that still averages over several BSSes. Only ~2.8 % of the ~3.4 M kernel events per
//! iteration are associations: pop, DTIM sweep, refresh and churn
//! dominate.

use crate::adapter::{self, FleetStage};
use crate::outcome::Outcome;
use crate::schedule::{self, Passes, Step};
use crate::spans::Spans;
use crate::util::{self, Fingerprint};
use hide_fleet::FleetResult;
use std::time::Instant;

/// BSSes per iteration.
const BSS: usize = 200;
/// BSSes per timed operation.
const OP_BSS: usize = 10;
/// Clients per BSS.
const CLIENTS: usize = 100;
/// Simulated horizon per BSS, seconds.
const HORIZON_SECS: f64 = 600.0;
/// Operations the set-up warm-up runs.
const WARMUP_OPS: usize = 1;

/// The configurations of one iteration's operations.
fn configs(seed: u64) -> Vec<hide_fleet::FleetConfig> {
    (0..BSS / OP_BSS)
        .map(|i| {
            adapter::fleet_config(OP_BSS, CLIENTS, HORIZON_SECS, adapter::derive_seed(seed, i))
        })
        .collect()
}

/// Adds a fleet result's integer tallies to `fp`.
pub fn fingerprint_report(fp: &mut Fingerprint, r: &FleetResult) {
    let r = &r.report;
    fp.add("events", r.events);
    fp.add("frames", r.frames);
    fp.add("associations", r.associations);
    fp.add("disassociations", r.disassociations);
    fp.add("refreshes_sent", r.refreshes_sent);
    fp.add("refreshes_lost", r.refreshes_lost);
    fp.add("entries_expired", r.entries_expired);
    fp.add("wakeups", r.wakeups);
    fp.add("hide_wakeups", r.hide_wakeups);
    fp.add("missed_wakeups", r.missed_wakeups);
    fp.add("spurious_wakeups", r.spurious_wakeups);
    fp.add("useful_opportunities", r.useful_opportunities);
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cfgs = configs(seed);
    let mut passes = Passes::default();
    let timings = schedule::run(seconds, cfgs.len(), |step| match step {
        Step::Setup => {
            for cfg in &cfgs {
                out.op("validate", adapter::validate(cfg));
            }
            for cfg in &cfgs[..WARMUP_OPS] {
                out.op("warm-up", adapter::run_fleet(cfg));
            }
        }
        Step::Op { pass, index } => {
            let t = Instant::now();
            let result = adapter::run_fleet(&cfgs[index]);
            let secs = util::secs(t);
            if let Some(r) = out.op("fleet run", result) {
                fingerprint_report(passes.record(pass, r.report.events, secs), &r);
            }
        }
    });
    passes.report(&mut out, "fleet_steady", seed, timings);
    out
}

/// The traced pass: one 200-BSS fleet call untraced, then the same call
/// with the kernel's stage profile on.
pub fn traced(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    let cfg = adapter::fleet_config(BSS, CLIENTS, HORIZON_SECS, seed);
    let t = Instant::now();
    let plain = out.op("fleet run", adapter::run_fleet(&cfg));
    let plain_wall = util::secs(t);

    let root = spans.open("fleet_steady", None);
    let run = spans.open("fleet.run_profiled", Some(root));
    let profiled = out.op("profiled fleet run", adapter::run_fleet_profiled(&cfg));
    let profiled_wall = spans.close(run);
    spans.close(root);
    let (Some(plain), Some((result, profile))) = (plain, profiled) else {
        return;
    };
    let mut a = Fingerprint::default();
    let mut b = Fingerprint::default();
    fingerprint_report(&mut a, &plain);
    fingerprint_report(&mut b, &result);
    if a != b {
        out.problem("profiling changed the fleet result");
    }

    for (stage, name) in [
        (FleetStage::Setup, "fleet.setup"),
        (FleetStage::QueuePop, "fleet.pop"),
        (FleetStage::DtimSweep, "fleet.dtim_sweep"),
        (FleetStage::Churn, "fleet.churn"),
        (FleetStage::Refresh, "fleet.refresh"),
        (FleetStage::Arrival, "fleet.arrival"),
        (FleetStage::Merge, "fleet.merge"),
    ] {
        spans.aggregate(name, run, adapter::stage(&profile, stage).0);
    }
    let per_call_ns = |stage| {
        let (secs, calls) = adapter::stage(&profile, stage);
        secs * 1e9 / calls.max(1) as f64
    };
    out.metric("fleet.pop_ns", per_call_ns(FleetStage::QueuePop), "ns");
    out.metric(
        "fleet.dtim_sweep_ns",
        per_call_ns(FleetStage::DtimSweep),
        "ns",
    );
    out.metric("fleet.refresh_ns", per_call_ns(FleetStage::Refresh), "ns");
    out.metric("fleet.churn_ns", per_call_ns(FleetStage::Churn), "ns");
    out.metric("fleet.arrival_ns", per_call_ns(FleetStage::Arrival), "ns");
    out.metric(
        "fleet.setup_us_per_bss",
        adapter::stage(&profile, FleetStage::Setup).0 * 1e6 / BSS as f64,
        "us",
    );
    out.metric(
        "fleet.merge_ms",
        adapter::stage(&profile, FleetStage::Merge).0 * 1e3,
        "ms",
    );
    let r = &result.report;
    out.metric("fleet.events", r.events as f64, "count");
    out.metric("fleet.assoc", r.associations as f64, "count");
    out.metric("fleet.refreshes", r.refreshes_sent as f64, "count");
    out.metric("fleet.expired", r.entries_expired as f64, "count");
    out.metric(
        "fleet.bootstrap_share",
        r.associations as f64 / r.events.max(1) as f64,
        "ratio",
    );
    let overhead = profiled_wall / plain_wall;
    out.metric("fleet.profile_overhead", overhead, "ratio");
    out.metric("fleet_steady.trace_overhead", overhead, "ratio");
    out.metric(
        "fleet_steady.unaccounted_share",
        spans.unaccounted_share(&[root]),
        "ratio",
    );
}
