//! `stream_export`: the out-of-core export pipeline.
//!
//! One iteration exports a 4000-BSS fleet (100 clients per BSS, 10 s
//! simulated, flight recorder on) as ten 400-BSS pipelines. Each
//! pipeline is one timed operation: `try_run_streamed_with_jobs(1)`
//! spills sorted runs to a benchmark-owned directory and streams the
//! attribution CSV into a hashing sink, then `write_trace_jsonl`
//! k-way merges the runs and renders JSONL through a `HashingWriter`
//! into a sink. About a third of the kernel events are associations,
//! so this is also where association cost shows.

use crate::adapter::{self, Rendered, StreamedFleetResult};
use crate::outcome::Outcome;
use crate::schedule::{self, Passes, Step};
use crate::spans::Spans;
use crate::util::{self, Fingerprint};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// BSSes per pipeline operation.
const OP_BSS: usize = 400;
/// Pipeline operations per iteration (so an iteration is 4000 BSS).
const OPS: usize = 10;
/// Clients per BSS.
const CLIENTS: usize = 100;
/// Simulated horizon, seconds.
const HORIZON_SECS: f64 = 10.0;
/// BSSes of the set-up warm-up pipeline.
const WARMUP_BSS: usize = 40;

/// The spill directory: next to the benchmark binary (inside the build
/// directory of the checkout), unique to this process.
pub fn spill_dir() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    base.join(format!("perfbench-spill-{}", std::process::id()))
}

fn op_config(seed: u64, i: usize, bss: usize) -> hide_fleet::FleetConfig {
    adapter::fleet_config(bss, CLIENTS, HORIZON_SECS, adapter::derive_seed(seed, i))
}

/// What one pipeline produced.
struct Piped {
    streamed: StreamedFleetResult,
    rendered: Rendered,
    csv_bytes: u64,
    csv_fnv: u64,
}

/// Runs the streamed simulation; the caller renders and cleans up.
fn simulate(
    cfg: &hide_fleet::FleetConfig,
    dir: &Path,
) -> Result<(StreamedFleetResult, u64, u64), String> {
    let mut csv = adapter::hashing_sink();
    let streamed = adapter::run_streamed(cfg, dir, &mut csv)?;
    Ok((streamed, csv.bytes(), csv.hash()))
}

/// One whole pipeline: simulate + spill, merge + render + hash, and
/// remove the spill file.
fn pipeline(cfg: &hide_fleet::FleetConfig, dir: &Path) -> Result<Piped, String> {
    let (streamed, csv_bytes, csv_fnv) = simulate(cfg, dir)?;
    let rendered = adapter::render_jsonl(&streamed);
    let cleaned = adapter::cleanup(&streamed);
    let rendered = rendered?;
    cleaned?;
    Ok(Piped {
        streamed,
        rendered,
        csv_bytes,
        csv_fnv,
    })
}

fn fingerprint(fp: &mut Fingerprint, p: &Piped, out: &mut Outcome) {
    crate::fleet::fingerprint_report(fp, &p.streamed.result);
    fp.add("trace_events", p.streamed.events());
    fp.add("spill_runs", p.streamed.spill.runs.len() as u64);
    fp.add("spill_bytes", p.streamed.spill.bytes);
    fp.add("dropped", p.streamed.dropped());
    fp.add("rendered_bytes", p.rendered.bytes);
    fp.mix("trace_fnv", p.rendered.fnv);
    fp.add("attr_rows", p.streamed.energy_clients as u64);
    fp.add("csv_bytes", p.csv_bytes);
    fp.mix("csv_fnv", p.csv_fnv);
    if p.rendered.events != p.streamed.events() {
        out.problem(format!(
            "rendered {} trace events but spilled {}",
            p.rendered.events,
            p.streamed.events()
        ));
    }
    if p.streamed.dropped() != 0 {
        out.problem(format!("{} trace events dropped", p.streamed.dropped()));
    }
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let dir = spill_dir();
    let cfgs: Vec<_> = (0..OPS).map(|i| op_config(seed, i, OP_BSS)).collect();
    let warm = op_config(seed, OPS, WARMUP_BSS);
    let mut passes = Passes::default();
    let timings = schedule::run(seconds, OPS, |step| match step {
        Step::Setup => {
            out.op(
                "spill dir",
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string()),
            );
            for cfg in &cfgs {
                out.op("validate", adapter::validate(cfg));
            }
            out.op("warm-up", pipeline(&warm, &dir));
        }
        Step::Op { pass, index } => {
            let t = Instant::now();
            let piped = pipeline(&cfgs[index], &dir);
            let secs = util::secs(t);
            if let Some(p) = out.op("pipeline", piped) {
                let fp = passes.record(pass, p.streamed.result.report.events, secs);
                fingerprint(fp, &p, &mut out);
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    passes.report(&mut out, "stream_export", seed, timings);
    out
}

/// The traced pass over one iteration's ten pipelines.
///
/// Per pipeline: the untraced pipeline (for the overhead), a spanned
/// pipeline (`fleet.run_streamed`, `obs.export`), a drain of the same
/// spill's k-way merge, an untraced and a profiled `try_run_with_jobs`
/// of the same configuration. Layers: simulate = the untraced wall ×
/// the profile's bucketed share of its own wall, spill = streamed wall − untraced wall, merge = the drain,
/// hash = measured ns/byte × bytes, render = export − merge − hash.
pub fn traced(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    let dir = spill_dir();
    if out
        .op(
            "spill dir",
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string()),
        )
        .is_none()
    {
        return;
    }
    let hash_ns_per_byte = hash_cost();
    let mut roots = Vec::new();
    let (mut untraced, mut traced_wall) = (0.0, 0.0);
    let (mut spill_s, mut merge_s, mut render_s) = (0.0, 0.0, 0.0);
    let (mut events, mut bytes, mut spill_bytes, mut runs, mut dropped, mut rows) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for i in 0..OPS {
        let cfg = op_config(seed, i, OP_BSS);
        let t = Instant::now();
        out.op("pipeline", pipeline(&cfg, &dir));
        untraced += util::secs(t);

        let root = spans.open("stream_export", None);
        let run = spans.open("fleet.run_streamed", Some(root));
        let sim = out.op("streamed run", simulate(&cfg, &dir));
        let streamed_wall = spans.close(run);
        let Some((streamed, _, _)) = sim else {
            spans.close(root);
            continue;
        };
        let export = spans.open("obs.export", Some(root));
        let rendered = out.op("render", adapter::render_jsonl(&streamed));
        let export_wall = spans.close(export);
        traced_wall += spans.close(root);
        roots.push(root);

        let t = Instant::now();
        let merged = out.op("merge drain", adapter::drain_merge(&streamed));
        let merge_wall = util::secs(t);
        out.op("cleanup", adapter::cleanup(&streamed));

        let t = Instant::now();
        out.op("fleet run", adapter::run_fleet(&cfg));
        let plain_wall = util::secs(t);
        let t = Instant::now();
        let profile = out.op("profiled fleet run", adapter::run_fleet_profiled(&cfg));
        let profiled_wall = util::secs(t);
        // The profile's bucketed share of the kernel, applied to the
        // untraced wall so the profiler's own cost is not charged.
        let simulate_s = profile.map_or(0.0, |(_, p)| {
            adapter::stage_total(&p) / profiled_wall * plain_wall
        });

        let Some(rendered) = rendered else { continue };
        if merged != Some(streamed.events()) || rendered.events != streamed.events() {
            out.problem("merge, render and spill disagree on the trace event count");
        }
        let hash_s = hash_ns_per_byte * rendered.bytes as f64 / 1e9;
        spans.aggregate("fleet.simulate", run, simulate_s);
        spans.aggregate("obs.spill", run, streamed_wall - plain_wall);
        spans.aggregate("obs.merge", export, merge_wall);
        spans.aggregate("obs.hash", export, hash_s);
        spans.aggregate("obs.render", export, export_wall - merge_wall - hash_s);

        spill_s += streamed_wall - plain_wall;
        merge_s += merge_wall;
        render_s += export_wall - merge_wall - hash_s;
        events += streamed.events();
        bytes += rendered.bytes;
        spill_bytes += streamed.spill.bytes;
        runs += streamed.spill.runs.len() as u64;
        dropped += streamed.dropped();
        rows += streamed.energy_clients as u64;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let per_event = |s: f64| s * 1e9 / events.max(1) as f64;
    out.metric("obs.trace_spill_s", spill_s, "s");
    out.metric("obs.merge_ns_per_event", per_event(merge_s), "ns");
    out.metric("obs.render_ns_per_event", per_event(render_s), "ns");
    out.metric("obs.hash_ns_per_byte", hash_ns_per_byte, "ns");
    out.metric("obs.spill_bytes", spill_bytes as f64, "bytes");
    out.metric("obs.spill_runs", runs as f64, "count");
    out.metric("obs.trace_events", events as f64, "count");
    out.metric("obs.rendered_bytes", bytes as f64, "bytes");
    out.metric("obs.dropped", dropped as f64, "count");
    out.metric("energy.attr_rows", rows as f64, "count");
    out.metric(
        "stream_export.trace_overhead",
        traced_wall / untraced.max(f64::MIN_POSITIVE),
        "ratio",
    );
    out.metric(
        "stream_export.unaccounted_share",
        spans.unaccounted_share(&roots),
        "ratio",
    );
}

/// Nanoseconds per byte the export's FNV-1a hasher costs (median of
/// five passes over 8 MiB).
fn hash_cost() -> f64 {
    let buf: Vec<u8> = (0..8 << 20).map(|i: u32| (i * 31 % 251) as u8).collect();
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(adapter::hash_bytes(std::hint::black_box(&buf)));
            util::secs(t) * 1e9 / buf.len() as f64
        })
        .collect();
    util::median(&mut runs)
}
