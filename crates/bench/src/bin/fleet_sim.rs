//! Fleet-scale driver: thousands of BSSes with client lifecycle churn,
//! emitting byte-identical `hide-metrics/1` JSON at any `--jobs` count.
//!
//! ```text
//! fleet_sim [--bss N] [--clients N] [--adoption F] [--duration SECS]
//!           [--seed N] [--jobs N] [--scenario NAME]
//!           [--policy hide|psm|scheduled[:I[:P]]] [--device NAME]
//!           [--refresh-interval SECS] [--refresh-loss P]
//!           [--port-churn P] [--stale-timeout SECS]
//!           [--metrics PATH] [--summary PATH] [--trace PATH]
//!           [--energy-attribution] [--attribution-out PATH]
//!           [--spill-dir DIR] [--stream-smoke]
//!           [--profile-stages] [--smoke] [--log-level LEVEL]
//! ```
//!
//! Parsing is strict: an unknown flag, a flag without its value, or a
//! value that does not parse (a number, scenario, policy, device or log
//! level) is a usage error that names the flag, with exit status 2.
//!
//! `--policy` selects the suspended clients' power-save protocol:
//! `hide` (the default; byte-identical to the pre-policy engine),
//! `psm` (legacy 802.11 PSM — wake on every DTIM with traffic), or
//! `scheduled[:interval[:period]]` (AP-negotiated wake windows, e.g.
//! `scheduled:8:1` wakes one DTIM in eight). `--device` picks a
//! device from the policy registry (`nexus-one`, `galaxy-s4`,
//! `pixel-3a`, `note-4`, `iot-cam`, `tablet-pro`), setting the energy
//! profile, the PowerTutor promotion knobs and the battery the
//! lifetime projection extrapolates onto.
//!
//! `--trace PATH` turns the flight recorder on: every shard kernel's
//! structured events (DTIM boundaries, lost/applied refreshes, port
//! churn, expiries, per-client wake decisions with causes) are merged
//! in BSS order and exported — as a JSONL event log when `PATH` ends
//! in `.jsonl`, as Chrome-trace JSON (open in Perfetto or
//! `chrome://tracing`) otherwise. Both are simulation-time only, so the
//! file is byte-identical at any `--jobs` count.
//!
//! `--energy-attribution` turns the per-client joule ledger on in the
//! outputs: the `--metrics` artifact gains an integer-only `"energy"`
//! section (fleet totals per wake class and cause, in nanojoules) and
//! the human summary prints the per-cause joule split.
//! `--attribution-out PATH` additionally exports the per-client rows —
//! CSV when `PATH` ends in `.csv`, JSON Lines otherwise. Both outputs
//! merge shard ledgers in BSS order, so they are byte-identical at any
//! `--jobs` count.
//!
//! Trace and attribution exports always stream: the fleet runs in
//! bounded windows of BSS shards, each window's trace log spills to a
//! framed `hide-spill/1` run file under `--spill-dir` (default: the OS
//! temp dir, removed when the run ends), attribution rows stream to
//! `--attribution-out` shard by shard, and `--trace` is rendered by a
//! chunked k-way merge over the spilled runs. Resident memory is
//! bounded by the window, not the fleet, and every byte matches the
//! in-memory reference (`FleetConfig::try_run_traced_with_jobs`).
//!
//! `--profile-stages` runs the fleet with per-stage wall-time
//! profiling and prints a breakdown table (setup, queue pops, DTIM
//! sweeps, churn, refreshes, arrivals, merge) plus one
//! `hide-fleet-stages/1` JSON line to stdout. Wall-clock is inherently
//! nondeterministic, so this output is separate from — and never
//! spliced into — the golden-gated `hide-metrics/1` artifact; the
//! `--metrics`/`--summary` files stay byte-identical with the flag on.
//! It is a usage error together with `--trace`, `--attribution-out` or
//! `--stream-smoke` (the profiled run does not stream).
//!
//! `--smoke` shrinks the fleet for a seconds-long CI sanity run and
//! asserts the two tier-1 invariants inline: a loss-free control run
//! reports zero missed wakeups, and `--jobs 1` versus the requested
//! jobs produces identical metrics (energy section included) and
//! summary JSON.
//!
//! `--stream-smoke` is the metro-scale CI gate: it streams the merged
//! trace through a counting FNV-1a hasher (to a file when `--trace` is
//! given, to a null sink otherwise), prints the content hash, and fails
//! if peak RSS exceeds `stream_peak_rss_mb_ceiling` or throughput falls
//! below `streamed_events_per_sec_floor` (both in
//! `golden/perf_floors.toml`).

use hide::energy::ClientEnergy;
use hide::fleet::{ChurnConfig, FleetConfig, FleetResult, StreamExportConfig, StreamSinks};
use hide::obs::{Counter, HashingWriter};
use hide::policy::{lookup, registry_keys, WakePolicy};
use hide_bench::cli::{self, parse_flag, Flags, Usage};
use hide_obs::{log_error, log_info, LogLevel};
use hide_traces::scenario::Scenario;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: fleet_sim [--bss N] [--clients N] [--adoption F] [--duration SECS] \
[--seed N] [--jobs N] [--scenario NAME] [--policy hide|psm|scheduled[:I[:P]]] [--device NAME] \
[--refresh-interval SECS] [--refresh-loss P] [--port-churn P] [--stale-timeout SECS] \
[--metrics PATH] [--summary PATH] [--trace PATH] [--energy-attribution] \
[--attribution-out PATH] [--spill-dir DIR] [--stream-smoke] [--profile-stages] [--smoke] \
[--log-level LEVEL]";

const FLAGS: Flags = Flags {
    valued: &[
        "--bss",
        "--clients",
        "--adoption",
        "--duration",
        "--seed",
        "--jobs",
        "--scenario",
        "--policy",
        "--device",
        "--refresh-interval",
        "--refresh-loss",
        "--port-churn",
        "--stale-timeout",
        "--metrics",
        "--summary",
        "--trace",
        "--attribution-out",
        "--spill-dir",
        "--log-level",
    ],
    switches: &[
        "--energy-attribution",
        "--stream-smoke",
        "--profile-stages",
        "--smoke",
    ],
};

/// How a run ends unsuccessfully: a bad invocation (exit 2) or a run
/// failure, already logged (exit 1).
enum Fail {
    Usage(String),
    Run,
}

impl From<Usage> for Fail {
    fn from(u: Usage) -> Self {
        Fail::Usage(u.0)
    }
}

/// Logs `msg` at error level and fails the run.
fn fail(msg: impl std::fmt::Display) -> Fail {
    log_error!("{msg}");
    Fail::Run
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            eprintln!("fleet_sim: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Fail::Run) => ExitCode::FAILURE,
    }
}

/// A finished run, whichever path produced it: the aggregate result,
/// the attribution ledger's lane count and field-wise totals (a
/// streamed run's rows left memory through the sinks), and the
/// energy-spliced `hide-metrics/1` document.
struct Outcome {
    result: FleetResult,
    lanes: usize,
    totals: ClientEnergy,
    metrics_with_energy: String,
}

impl Outcome {
    fn in_memory(result: FleetResult) -> Self {
        let ledger = result.attribution();
        Outcome {
            lanes: ledger.len(),
            totals: ledger.totals(),
            metrics_with_energy: result.metrics_json_with_energy(),
            result,
        }
    }
}

fn run(args: &[String]) -> Result<(), Fail> {
    let positionals = FLAGS.positionals(args)?;
    if let Some(arg) = positionals.first() {
        return Err(Fail::Usage(format!("unexpected argument {arg:?}")));
    }
    if let Some(level) = parse_flag::<LogLevel>(args, "--log-level")? {
        hide_obs::log::set_level(level);
    }
    let smoke = cli::has(args, "--smoke");
    let cfg = config(args, smoke)?;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs: usize = parse_flag(args, "--jobs")?.unwrap_or(cores);

    let trace_path = cli::flag_value(args, "--trace")?;
    let attr_path = cli::flag_value(args, "--attribution-out")?;
    let stream_smoke = cli::has(args, "--stream-smoke");
    let profile_stages = cli::has(args, "--profile-stages");
    let streamed = trace_path.is_some() || attr_path.is_some() || stream_smoke;
    if profile_stages && streamed {
        return Err(Fail::Usage(
            "--profile-stages is incompatible with --trace, --attribution-out \
             and --stream-smoke"
                .to_string(),
        ));
    }

    log_info!(
        "fleet: {} BSS x {} clients, {:.0}% adoption, {} s horizon, \
         scenario {}, policy {}, device {}, seed {}, jobs {}",
        cfg.bss_count,
        cfg.clients_per_bss,
        cfg.adoption * 100.0,
        cfg.duration_secs,
        cfg.scenario.label(),
        cfg.policy.name(),
        cfg.profile.name,
        cfg.seed,
        jobs,
    );
    let t0 = Instant::now();
    let (outcome, wall) = if streamed {
        let spill_dir =
            parse_flag::<PathBuf>(args, "--spill-dir")?.unwrap_or_else(std::env::temp_dir);
        run_streamed(&cfg, jobs, spill_dir, trace_path, attr_path, stream_smoke)?
    } else if profile_stages {
        let (result, profile) = cfg.try_run_profiled_with_jobs(jobs).map_err(fail)?;
        let wall = t0.elapsed().as_secs_f64();
        print!("{}", profile.render());
        println!("{}", profile.to_json());
        (Outcome::in_memory(result), wall)
    } else {
        let result = cfg.try_run_with_jobs(jobs).map_err(fail)?;
        (Outcome::in_memory(result), t0.elapsed().as_secs_f64())
    };

    let energy_attr = cli::has(args, "--energy-attribution");
    report(&outcome.result, wall);
    if energy_attr {
        print_attribution_totals(outcome.lanes, &outcome.totals);
    }
    if let Some(path) = cli::flag_value(args, "--metrics")? {
        let rendered = if energy_attr {
            outcome.metrics_with_energy.clone()
        } else {
            outcome.result.metrics_json()
        };
        std::fs::write(path, rendered).map_err(|e| fail(format!("writing {path}: {e}")))?;
        log_info!("metrics written to {path}");
    }
    if let Some(path) = cli::flag_value(args, "--summary")? {
        std::fs::write(path, outcome.result.summary_json())
            .map_err(|e| fail(format!("writing {path}: {e}")))?;
        log_info!("summary written to {path}");
    }
    if smoke {
        smoke_checks(&cfg, &outcome, jobs)?;
    }
    Ok(())
}

/// The fleet configuration the flags describe (`--smoke` shrinks the
/// defaults to a seconds-long run).
fn config(args: &[String], smoke: bool) -> Result<FleetConfig, Usage> {
    let mut cfg = FleetConfig {
        bss_count: if smoke { 200 } else { 1000 },
        clients_per_bss: if smoke { 8 } else { 100 },
        adoption: 0.75,
        duration_secs: if smoke { 10.0 } else { 60.0 },
        seed: 42,
        churn: ChurnConfig {
            mean_present_secs: 120.0,
            mean_absent_secs: 30.0,
            mean_active_secs: 10.0,
            mean_suspended_secs: 45.0,
            refresh_interval_secs: 5.0,
            refresh_loss: 0.1,
            port_churn: 0.2,
            stale_timeout_secs: 12.0,
            ..ChurnConfig::default()
        },
        ..FleetConfig::default()
    };
    let set = |field: &mut f64, flag: &str| -> Result<(), Usage> {
        if let Some(v) = parse_flag(args, flag)? {
            *field = v;
        }
        Ok(())
    };
    if let Some(n) = parse_flag(args, "--bss")? {
        cfg.bss_count = n;
    }
    if let Some(n) = parse_flag(args, "--clients")? {
        cfg.clients_per_bss = n;
    }
    if let Some(s) = parse_flag(args, "--seed")? {
        cfg.seed = s;
    }
    set(&mut cfg.adoption, "--adoption")?;
    set(&mut cfg.duration_secs, "--duration")?;
    set(&mut cfg.churn.refresh_interval_secs, "--refresh-interval")?;
    set(&mut cfg.churn.refresh_loss, "--refresh-loss")?;
    set(&mut cfg.churn.port_churn, "--port-churn")?;
    set(&mut cfg.churn.stale_timeout_secs, "--stale-timeout")?;
    if let Some(name) = cli::flag_value(args, "--scenario")? {
        cfg.scenario = Scenario::ALL
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                Usage(format!(
                    "--scenario: unknown scenario {name:?}; valid: {}",
                    Scenario::ALL.map(|s| s.label()).join(", ")
                ))
            })?;
    }
    if let Some(spec) = cli::flag_value(args, "--policy")? {
        cfg.policy =
            WakePolicy::parse(spec).map_err(|e| Usage(format!("--policy {spec:?}: {e}")))?;
    }
    if let Some(name) = cli::flag_value(args, "--device")? {
        let entry = lookup(name).ok_or_else(|| {
            Usage(format!(
                "--device: unknown device {name:?}; valid: {}",
                registry_keys().join(", ")
            ))
        })?;
        cfg.profile = entry.profile;
        cfg.battery = entry.battery();
    }
    Ok(cfg)
}

fn report(result: &FleetResult, wall: f64) {
    let r = &result.report;
    println!(
        "events {}  frames {}  assoc {}  disassoc {}  refreshes {} (lost {})  \
         expired {}",
        r.events,
        r.frames,
        r.associations,
        r.disassociations,
        r.refreshes_sent,
        r.refreshes_lost,
        r.entries_expired,
    );
    println!(
        "energy {:.3} J vs baseline {:.3} J -> saving {:.2}%  \
         port-msg airtime share {:.5}",
        r.total_energy_j,
        r.baseline_energy_j,
        result.fleet_saving * 100.0,
        result.port_message_airtime_share,
    );
    println!(
        "wakeups {} (hide {})  missed rate {:.4}  spurious rate {:.4}",
        r.wakeups, r.hide_wakeups, result.missed_wakeup_rate, result.spurious_wakeup_rate,
    );
    if result.policy.schedule().is_some() {
        println!(
            "scheduled wakes {}  deferred bursts {}",
            r.scheduled_wakes, r.deferred_wakeups,
        );
    }
    let lt = &result.lifetime;
    if lt.projected_secs > 0 {
        println!(
            "battery: {:.1} mWh, avg draw {:.1} mW/client -> lifetime {:.1} h \
             (baseline {:.1} h, gain {:+.2}%)",
            lt.capacity_mwh as f64,
            lt.avg_draw_uw as f64 / 1e3,
            lt.projected_secs as f64 / 3600.0,
            lt.baseline_secs as f64 / 3600.0,
            lt.lifetime_gain_ppm as f64 / 1e4,
        );
    }
    let rec = &result.recorder;
    println!(
        "provenance: proper {}  missed[lost {} expired {} churn {} unknown {}]  \
         spurious[churn {} unknown {}]",
        rec.counter(Counter::FleetWakeupsProper),
        rec.counter(Counter::FleetMissedRefreshLost),
        rec.counter(Counter::FleetMissedEntryExpired),
        rec.counter(Counter::FleetMissedPortChurn),
        rec.counter(Counter::FleetMissedUnknown),
        rec.counter(Counter::FleetSpuriousPortChurn),
        rec.counter(Counter::FleetSpuriousUnknown),
    );
    println!(
        "wall {wall:.2} s  ({:.0} events/sec)",
        r.events as f64 / wall.max(1e-9)
    );
}

/// Human-readable per-cause joule split of the attribution ledger.
fn print_attribution_totals(lanes: usize, t: &ClientEnergy) {
    let j = |nj: u64| nj as f64 / 1e9;
    println!(
        "attribution: {} client lanes, spent {:.3} J  \
         [proper {:.3}  legacy {:.3}  spurious {:.3}  beacon {:.3}  \
         burst-rx {:.3}  refresh-tx {:.3}]",
        lanes,
        j(t.spent_nj()),
        j(t.proper_nj),
        j(t.legacy_nj),
        j(t.spurious_nj.total()),
        j(t.beacon_nj),
        j(t.burst_rx_nj),
        j(t.refresh_tx_nj),
    );
    println!(
        "  missed (forgone, not spent) {:.3} J  \
         [lost {:.3}  expired {:.3}  churn {:.3}  unknown {:.3}]",
        j(t.missed_forgone_nj.total()),
        j(t.missed_forgone_nj.refresh_lost),
        j(t.missed_forgone_nj.entry_expired),
        j(t.missed_forgone_nj.port_churn),
        j(t.missed_forgone_nj.unknown),
    );
}

/// The streamed run: attribution rows stream to `attr_path` while the
/// fleet runs, then the trace is rendered from the spilled runs into
/// `trace_path` (or, under `--stream-smoke`, hashed into a null sink)
/// and the spill file is removed. Returns the outcome and the run's
/// wall time (export excluded).
fn run_streamed(
    cfg: &FleetConfig,
    jobs: usize,
    spill_dir: PathBuf,
    trace_path: Option<&str>,
    attr_path: Option<&str>,
    smoke: bool,
) -> Result<(Outcome, f64), Fail> {
    // Attribution rows leave memory during the run, so the sink must
    // be open before it starts.
    let mut attr_file = match attr_path {
        Some(path) => Some(BufWriter::new(
            File::create(path).map_err(|e| fail(format!("creating {path}: {e}")))?,
        )),
        None => None,
    };
    let mut sinks = StreamSinks::default();
    if let Some(f) = attr_file.as_mut() {
        if attr_path.is_some_and(|p| p.ends_with(".csv")) {
            sinks.attribution_csv = Some(f);
        } else {
            sinks.attribution_jsonl = Some(f);
        }
    }

    let t0 = Instant::now();
    let streamed = cfg
        .try_run_streamed_with_jobs(jobs, &StreamExportConfig::new(spill_dir), sinks)
        .map_err(fail)?;
    let run_wall = t0.elapsed().as_secs_f64();
    log_info!(
        "streamed: {} events in {} spilled runs ({} bytes), {} dropped by ring bounds",
        streamed.events(),
        streamed.spill.runs.len(),
        streamed.spill.bytes,
        streamed.dropped(),
    );

    let mut export = || -> Result<(), Fail> {
        if let Some(f) = attr_file.as_mut() {
            f.flush()
                .map_err(|e| fail(format!("flushing attribution sink: {e}")))?;
        }
        if let Some(path) = attr_path {
            log_info!(
                "attribution ledger streamed to {path} ({} client lanes)",
                streamed.energy_clients
            );
        }
        // Merge the spilled runs into the trace export. The smoke gate
        // always streams the JSONL render (to a null sink when no
        // --trace path is given) so the full merge+render path is
        // exercised and content-hashed even without an output file.
        let export_start = Instant::now();
        let exported = match trace_path {
            Some(path) => {
                let f = File::create(path).map_err(|e| fail(format!("creating {path}: {e}")))?;
                let mut out = HashingWriter::new(BufWriter::new(f));
                let n = if path.ends_with(".jsonl") {
                    streamed.write_trace_jsonl(&mut out)
                } else {
                    streamed.write_chrome_trace(None, &mut out)
                }
                .map_err(fail)?;
                out.flush()
                    .map_err(|e| fail(format!("writing {path}: {e}")))?;
                log_info!(
                    "trace streamed to {path} ({n} events, {} bytes, fnv1a64 {:016x})",
                    out.bytes(),
                    out.hash()
                );
                Some(n)
            }
            None if smoke => {
                let mut out = HashingWriter::new(std::io::sink());
                let n = streamed.write_trace_jsonl(&mut out).map_err(fail)?;
                log_info!(
                    "trace jsonl hashed ({n} events, {} bytes, fnv1a64 {:016x})",
                    out.bytes(),
                    out.hash()
                );
                Some(n)
            }
            None => None,
        };
        if smoke {
            let wall = run_wall + export_start.elapsed().as_secs_f64();
            stream_smoke_checks(
                streamed.result.report.events,
                streamed.events(),
                exported,
                wall,
            )?;
        }
        Ok(())
    };
    let export_result = export();
    streamed
        .cleanup()
        .map_err(|e| fail(format!("removing spill file: {e}")))?;
    export_result?;
    let outcome = Outcome {
        lanes: streamed.energy_clients,
        totals: streamed.energy_totals,
        metrics_with_energy: streamed.metrics_json_with_energy(),
        result: streamed.result,
    };
    Ok((outcome, run_wall))
}

/// Peak resident set of this process (`VmHWM`), in MiB. `None` when
/// `/proc` is unavailable (non-Linux).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Metro-scale CI gate: every spilled event exported, bounded peak
/// RSS and a streamed-throughput floor, thresholds from
/// `golden/perf_floors.toml`.
fn stream_smoke_checks(
    kernel_events: u64,
    spilled: u64,
    exported: Option<u64>,
    wall: f64,
) -> Result<(), Fail> {
    if let Some(n) = exported.filter(|&n| n != spilled) {
        return Err(fail(format!(
            "STREAM SMOKE FAIL: exported {n} events but spilled {spilled}"
        )));
    }
    let events_per_sec = kernel_events as f64 / wall.max(1e-9);
    let floor = perf_floor("streamed_events_per_sec_floor");
    log_info!(
        "stream smoke: {:.0} kernel events/sec through run+export (floor {floor:.0})",
        events_per_sec
    );
    if events_per_sec < floor {
        return Err(fail(format!(
            "STREAM SMOKE FAIL: {events_per_sec:.0} events/sec below the \
             {floor:.0} floor (golden/perf_floors.toml)"
        )));
    }
    match peak_rss_mb() {
        Some(rss) => {
            let ceiling = perf_floor("stream_peak_rss_mb_ceiling");
            log_info!("stream smoke: peak RSS {rss:.0} MiB (ceiling {ceiling:.0})");
            if rss > ceiling {
                return Err(fail(format!(
                    "STREAM SMOKE FAIL: peak RSS {rss:.0} MiB exceeds the \
                     {ceiling:.0} MiB ceiling (golden/perf_floors.toml)"
                )));
            }
        }
        None => log_info!("stream smoke: /proc unavailable, skipping the RSS ceiling"),
    }
    log_info!("stream smoke: ok (bounded memory, throughput above floor)");
    Ok(())
}

/// Read one `key = value` number out of the checked-in perf-floor
/// profile (flat TOML, comment-stripping line scan; path resolved from
/// the crate manifest so the gate works from any working directory).
fn perf_floor(key: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden/perf_floors.toml");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some((k, v)) = line.split_once('=') {
            if k.trim() == key {
                return v
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("parse {key} in {path}: {e}"));
            }
        }
    }
    panic!("{key} not found in {path}");
}

/// CI invariants: determinism across jobs counts and the loss-free
/// missed-wakeup guarantee.
fn smoke_checks(cfg: &FleetConfig, outcome: &Outcome, jobs: usize) -> Result<(), Fail> {
    log_info!("smoke: re-running at jobs=1 for the determinism check...");
    let serial = cfg
        .try_run_with_jobs(1)
        .map_err(|e| fail(format!("smoke rerun failed: {e}")))?;
    let result = &outcome.result;
    // The energy section, not the per-client CSV: a streamed run's
    // ledger is empty by design.
    if serial.metrics_json() != result.metrics_json()
        || serial.summary_json() != result.summary_json()
        || serial.metrics_json_with_energy() != outcome.metrics_with_energy
    {
        return Err(fail(format!(
            "SMOKE FAIL: jobs=1 and jobs={jobs} outputs differ"
        )));
    }
    let mut lossless = cfg.clone();
    lossless.churn.refresh_loss = 0.0;
    log_info!("smoke: loss-free control run...");
    let control = lossless
        .try_run_with_jobs(jobs)
        .map_err(|e| fail(format!("smoke control failed: {e}")))?;
    if control.report.missed_wakeups != 0 {
        return Err(fail(format!(
            "SMOKE FAIL: {} missed wakeups with zero refresh loss",
            control.report.missed_wakeups
        )));
    }
    // Policy seam invariants: non-HIDE policies must run none of the
    // HIDE machinery, and a scheduled policy wakes only in-window.
    if !cfg.policy.uses_port_refresh()
        && (result.report.refreshes_sent != 0 || result.report.hide_wakeups != 0)
    {
        return Err(fail(format!(
            "SMOKE FAIL: policy {} ran HIDE machinery \
             ({} refreshes, {} hide wakeups)",
            cfg.policy.name(),
            result.report.refreshes_sent,
            result.report.hide_wakeups
        )));
    }
    if cfg.policy.schedule().is_some() && result.report.wakeups != result.report.scheduled_wakes {
        return Err(fail(format!(
            "SMOKE FAIL: {} wakeups but only {} inside the service window",
            result.report.wakeups, result.report.scheduled_wakes
        )));
    }
    log_info!("smoke: ok (deterministic across jobs, loss-free run missed 0 wakeups)");
    Ok(())
}
