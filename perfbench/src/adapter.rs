//! The one place the benchmark touches the program's public API.
//!
//! Every workload goes through these wrappers, so when the run surface
//! is renamed only this file changes. Errors flatten to strings: the
//! benchmark only counts and reports them.

use hide_apd::{ApdConfig, DaemonHandle, DaemonStats};
use hide_fleet::profile::StageProfile;
use hide_fleet::{ChurnConfig, FleetConfig, FleetResult, StreamExportConfig, StreamSinks};
use hide_obs::spill::HashingWriter;
use hide_obs::{Counter, Recorder};
use hide_traces::record::Trace;
use hide_traces::scenario::Scenario;
use std::io;
use std::path::Path;

pub use hide_fleet::profile::FleetStage;
pub use hide_fleet::StreamedFleetResult;

/// Result type of every adapter call.
pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A Starbucks/HIDE fleet with `fleet_sim`'s churn defaults: 5 s
/// refresh, 10 % refresh loss, 20 % port churn, 12 s stale timeout.
pub fn fleet_config(bss: usize, clients: usize, duration_secs: f64, seed: u64) -> FleetConfig {
    FleetConfig {
        bss_count: bss,
        clients_per_bss: clients,
        adoption: 0.75,
        duration_secs,
        scenario: Scenario::Starbucks,
        seed,
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
    }
}

/// Per-index seed derivation the fleet itself uses for its shards.
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    hide_fleet::derive_seed(seed, index as u64)
}

/// Checks a configuration without running it.
pub fn validate(cfg: &FleetConfig) -> Res<()> {
    cfg.validate().map_err(err)
}

/// One single-threaded fleet run.
pub fn run_fleet(cfg: &FleetConfig) -> Res<FleetResult> {
    cfg.try_run_with_jobs(1).map_err(err)
}

/// One single-threaded fleet run with the kernel's stage profile on.
pub fn run_fleet_profiled(cfg: &FleetConfig) -> Res<(FleetResult, StageProfile)> {
    cfg.try_run_profiled_with_jobs(1).map_err(err)
}

/// Seconds and calls the profile charged to `stage`.
pub fn stage(profile: &StageProfile, stage: FleetStage) -> (f64, u64) {
    let t = profile.stage(stage);
    (t.nanos as f64 / 1e9, t.calls)
}

/// Sum of every stage bucket, seconds.
pub fn stage_total(profile: &StageProfile) -> f64 {
    profile.total_nanos() as f64 / 1e9
}

/// One single-threaded streamed run, spilling under `spill_dir` and
/// streaming the attribution CSV into `csv`.
pub fn run_streamed(
    cfg: &FleetConfig,
    spill_dir: &Path,
    csv: &mut dyn io::Write,
) -> Res<StreamedFleetResult> {
    let stream = StreamExportConfig::new(spill_dir);
    let sinks = StreamSinks {
        attribution_csv: Some(csv),
        attribution_jsonl: None,
    };
    cfg.try_run_streamed_with_jobs(1, &stream, sinks)
        .map_err(err)
}

/// What rendering the merged trace as JSONL produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rendered {
    /// Trace events rendered.
    pub events: u64,
    /// JSONL bytes rendered.
    pub bytes: u64,
    /// FNV-1a 64 of the JSONL bytes.
    pub fnv: u64,
}

/// Renders the spilled trace as JSONL through a hashing writer into a
/// sink.
pub fn render_jsonl(streamed: &StreamedFleetResult) -> Res<Rendered> {
    let mut out = HashingWriter::new(io::sink());
    let events = streamed.write_trace_jsonl(&mut out).map_err(err)?;
    Ok(Rendered {
        events,
        bytes: out.bytes(),
        fnv: out.hash(),
    })
}

/// Drains the k-way merge over the spilled runs without rendering;
/// returns the events popped.
pub fn drain_merge(streamed: &StreamedFleetResult) -> Res<u64> {
    let mut merge = streamed.spill.merge().map_err(err)?;
    let mut n = 0u64;
    while merge.next_event().map_err(err)?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// Deletes the spill file.
pub fn cleanup(streamed: &StreamedFleetResult) -> Res<()> {
    streamed.cleanup().map_err(err)
}

/// FNV-1a 64 of `bytes`, through the same hasher the export uses.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut out = HashingWriter::new(io::sink());
    let _ = io::Write::write_all(&mut out, bytes);
    out.hash()
}

/// A byte sink that FNV-hashes and counts what it is given.
pub fn hashing_sink() -> HashingWriter<io::Sink> {
    HashingWriter::new(io::sink())
}

/// A broadcast trace of `secs` seconds for `scenario`.
pub fn generate_trace(scenario: Scenario, secs: f64, seed: u64) -> Trace {
    scenario.generate(secs, seed)
}

/// The five scenario traces of the paper reproduction.
pub fn generate_all_traces(secs: f64, seed: u64) -> Vec<Trace> {
    Scenario::generate_all(secs, seed)
}

/// One DTIM beacon interval (100 TU = 102.4 ms), seconds.
pub const BEACON_INTERVAL_SECS: f64 = hide_wifi::timing::TIME_UNIT_SECS * 100.0;

/// The 45-minute trace length the reproduction uses.
pub const REPRODUCE_TRACE_SECS: f64 = hide_bench::TRACE_DURATION_SECS;

/// Forces every `hide_par` fan-out in this process onto one thread.
pub fn single_threaded() {
    hide_par::set_default_jobs(1);
}

/// One figure (or group of tables/figures) of the paper reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Tables I–II and Fig. 6.
    TablesFig6,
    /// Fig. 7 (Nexus One energy).
    Fig7,
    /// Fig. 8 (Galaxy S4 energy).
    Fig8,
    /// Fig. 9 (suspend fractions).
    Fig9,
    /// Figs. 10–12 (capacity and delay analysis).
    Fig10To12,
    /// The extension experiments.
    Ext,
    /// The policy × device matrix.
    Policy,
}

impl Figure {
    /// Every figure, in the order `reproduce all` prints them.
    pub const ALL: [Figure; 7] = [
        Figure::TablesFig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10To12,
        Figure::Ext,
        Figure::Policy,
    ];

    /// Span name of the figure's layer.
    pub fn span(self) -> &'static str {
        match self {
            Figure::TablesFig6 => "bench.tables_fig6",
            Figure::Fig7 => "sim.fig7",
            Figure::Fig8 => "sim.fig8",
            Figure::Fig9 => "sim.fig9",
            Figure::Fig10To12 => "analysis.fig10_12",
            Figure::Ext => "sim.ext",
            Figure::Policy => "policy.matrix",
        }
    }

    /// Renders the figure, streaming its simulation counters into
    /// `recorder`.
    pub fn render(self, traces: &[Trace], recorder: &mut Recorder) -> Res<String> {
        use hide_energy::profile::{GALAXY_S4, NEXUS_ONE};
        Ok(match self {
            Figure::TablesFig6 => {
                let mut out = hide_bench::table_1();
                out.push_str(&hide_bench::table_2());
                out.push_str(&hide_bench::figure_6(traces));
                out
            }
            Figure::Fig7 => {
                hide_bench::figure_7_or_8_with(NEXUS_ONE, traces, recorder).map_err(err)?
            }
            Figure::Fig8 => {
                hide_bench::figure_7_or_8_with(GALAXY_S4, traces, recorder).map_err(err)?
            }
            Figure::Fig9 => hide_bench::figure_9_with(traces, recorder).map_err(err)?,
            Figure::Fig10To12 => {
                let mut out = hide_bench::figure_10();
                out.push_str(&hide_bench::figure_11());
                out.push_str(&hide_bench::figure_12());
                out
            }
            Figure::Ext => hide_bench::extensions_with(traces, recorder),
            Figure::Policy => hide_bench::policy_matrix_with(None, None, recorder).map_err(err)?,
        })
    }
}

/// Simulation events a reproduction's recorder counted: trace frames
/// replayed plus fleet kernel events.
pub fn reproduce_events(recorder: &Recorder) -> u64 {
    recorder.counter(Counter::TraceFrames) + recorder.counter(Counter::FleetEvents)
}

/// A fresh empty recorder.
pub fn recorder() -> Recorder {
    Recorder::new()
}

/// Spawns the daemon with its default configuration (one shard,
/// runtime telemetry on) and a DTIM timer at `beacon_secs`.
pub fn spawn_daemon(beacon_secs: f64) -> Res<DaemonHandle> {
    DaemonHandle::spawn(ApdConfig::new().beacon_interval_secs(beacon_secs)).map_err(err)
}

/// Associated clients across every shard of a live snapshot.
pub fn snapshot_clients(handle: &DaemonHandle) -> Res<usize> {
    let snap = handle.snapshot().map_err(err)?;
    Ok(snap.shards.iter().map(|s| s.clients.len()).sum())
}

/// Stops the daemon, joining every thread.
pub fn shutdown(handle: DaemonHandle) -> Res<DaemonStats> {
    handle.shutdown().map_err(err)
}

/// One runtime stage of the daemon as `hide-apd-health/1` reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStat {
    /// Spans recorded.
    pub count: u64,
    /// Mean span, nanoseconds.
    pub mean_ns: f64,
    /// Median span, nanoseconds (histogram bucket bound).
    pub p50_ns: u64,
}

/// The daemon's recv/route/handle/send stage summaries, in that order,
/// parsed from `health_json()`.
pub fn daemon_stages(handle: &DaemonHandle) -> [StageStat; 4] {
    let health = handle.health_json();
    let mut out = [StageStat::default(); 4];
    for (slot, name) in out.iter_mut().zip(["recv", "route", "handle", "send"]) {
        let key = format!("\"{name}\": {{");
        if let Some(line) = health.lines().find(|l| l.trim_start().starts_with(&key)) {
            slot.count = scan(line, "count").unwrap_or(0.0) as u64;
            slot.mean_ns = scan(line, "mean_ns").unwrap_or(0.0);
            slot.p50_ns = scan(line, "p50_ns").unwrap_or(0.0) as u64;
        }
    }
    out
}

/// Sum of the shards' inbound queue depth right now.
pub fn daemon_queue_depth(handle: &DaemonHandle) -> u64 {
    hide_apd::parse_health_shards(&handle.health_json())
        .iter()
        .map(|row| row.queue_depth)
        .sum()
}

fn scan(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Wire-format and AP-core calls the micro layers time.
pub mod wire {
    pub use hide_core::ap::{AccessPoint, ApCtx};
    pub use hide_wifi::assoc::AssociationRequest;
    pub use hide_wifi::frame::{Ack, AnyFrame, BroadcastDataFrame, UdpPortMessage};
    pub use hide_wifi::mac::MacAddr;
    pub use hide_wifi::udp::UdpDatagram;

    /// The BSSID every benchmark frame addresses (the daemon default).
    pub fn bssid() -> MacAddr {
        MacAddr::station(0)
    }

    /// MAC of benchmark client `i`.
    pub fn client_mac(i: usize) -> MacAddr {
        MacAddr::station(1 + i as u32)
    }

    /// Client index of a MAC made by [`client_mac`].
    pub fn client_index(mac: MacAddr) -> Option<usize> {
        let o = mac.octets();
        let n = u32::from_be_bytes([o[2], o[3], o[4], o[5]]) as usize;
        n.checked_sub(1)
    }

    /// The `ports` open ports client `i` advertises.
    pub fn client_ports(i: usize, ports: usize) -> impl Iterator<Item = u16> {
        let base = 10000 + (i as u16 % 100) * 100;
        (0..ports as u16).map(move |p| base + p)
    }

    /// A HIDE association request from client `i`.
    pub fn association_request(i: usize) -> AssociationRequest {
        AssociationRequest::new(client_mac(i), bssid(), "hide").with_hide_support()
    }

    /// A UDP Port Message from client `i`.
    pub fn port_message(i: usize, ports: usize, seq: u16) -> UdpPortMessage {
        UdpPortMessage::new(client_mac(i), bssid(), client_ports(i, ports))
            .expect("a handful of ports fits one message")
            .with_seq(seq % 4096)
    }

    /// A broadcast data frame shaped like trace frame `f`.
    pub fn broadcast(f: &hide_traces::record::TraceFrame) -> BroadcastDataFrame {
        let datagram = UdpDatagram::new(
            [10, 0, 0, 2],
            [255; 4],
            4000,
            f.dst_port,
            vec![0; (f.len_bytes as usize).saturating_sub(60)],
        );
        BroadcastDataFrame::new(bssid(), datagram, false)
    }
}
