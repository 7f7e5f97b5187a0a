//! `apd_openloop`: the `hide-apd` data path under open-loop load.
//!
//! An in-process daemon with its default configuration (one shard,
//! runtime telemetry on) and a DTIM timer at the real 102.4 ms beacon
//! cadence serves 1024 HIDE clients that advertise 8 ports each. One
//! socket and two threads drive it over loopback: a sender that paces
//! UDP Port Messages at a fixed rate (sleeping between due times, never
//! spinning) interleaved with a seeded Starbucks broadcast stream, and
//! a receiver that blocks on the ACKs. Latency runs from each message's
//! due time to its ACK, so a late generator shows up in it. A message
//! still unacked when its client's next message is due, or when the run
//! drains, is a failed operation; nothing is retried.

use crate::adapter::{self, wire, StageStat};
use crate::outcome::{EndToEnd, Outcome};
use crate::schedule;
use crate::spans::Spans;
use crate::util::{self, Fingerprint};
use hide_apd::DaemonHandle;
use hide_traces::record::Trace;
use hide_traces::scenario::Scenario;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// HIDE clients associated.
const CLIENTS: usize = 1024;
/// Open ports each client advertises.
const PORTS: usize = 8;
/// Offered UDP Port Message rate, messages per second: well below the
/// daemon's capacity, and low enough that the default 208 KiB socket
/// buffers ride out a 40 ms stall of either side without a drop (one
/// message in ~200 000 was lost at 10 000/s).
const RATE: f64 = 5_000.0;
/// Association requests in flight during the bootstrap: enough to keep
/// the daemon busy rather than waiting on wake-ups, few enough for the
/// socket buffers.
const ASSOC_WINDOW: usize = 32;
/// Open-loop warm-up before the measured phase, seconds.
const WARMUP_SECS: f64 = 0.5;
/// Seconds of broadcast trace generated; the replay offers the slice
/// that falls in each phase, so runs up to two minutes stay covered.
const TRACE_SECS: f64 = 125.0;
/// How long the run waits for the last ACKs, seconds.
const DRAIN_SECS: f64 = 0.3;

/// A daemon with every client associated.
struct Bootstrapped {
    handle: DaemonHandle,
    socket: UdpSocket,
    trace: Trace,
    refused: u64,
    assoc_wall: f64,
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// Generates the broadcast trace, spawns the daemon and associates
/// every client. A daemon whose bootstrap fails is shut down.
fn bootstrap(seed: u64) -> Result<Bootstrapped, String> {
    let trace = adapter::generate_trace(Scenario::Starbucks, TRACE_SECS, seed);
    let handle = adapter::spawn_daemon(adapter::BEACON_INTERVAL_SECS)?;
    let t = Instant::now();
    match associate(handle.data_addr()) {
        Ok((socket, refused)) => Ok(Bootstrapped {
            handle,
            socket,
            trace,
            refused,
            assoc_wall: util::secs(t),
        }),
        Err(e) => {
            let _ = adapter::shutdown(handle);
            Err(e)
        }
    }
}

/// Connects a client socket to `daemon` and associates every client,
/// [`ASSOC_WINDOW`] requests in flight at a time. Returns the socket
/// and the number of refused associations.
fn associate(daemon: std::net::SocketAddr) -> Result<(UdpSocket, u64), String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(io_err)?;
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(io_err)?;
    socket.connect(daemon).map_err(io_err)?;
    let mut refused = 0;
    let mut buf = [0u8; 2048];
    for start in (0..CLIENTS).step_by(ASSOC_WINDOW) {
        let window = start..(start + ASSOC_WINDOW).min(CLIENTS);
        for i in window.clone() {
            socket
                .send(&wire::association_request(i).to_bytes())
                .map_err(io_err)?;
        }
        for _ in window {
            let n = socket.recv(&mut buf).map_err(io_err)?;
            match wire::AnyFrame::parse(&buf[..n]).map_err(|e| e.to_string())? {
                wire::AnyFrame::AssociationResponse(r) if r.is_success() => {}
                _ => refused += 1,
            }
        }
    }
    Ok((socket, refused))
}

fn trace_fingerprint(fp: &mut Fingerprint, trace: &Trace) {
    fp.add("trace_frames", trace.frames.len() as u64);
    for f in &trace.frames {
        fp.mix(
            "trace_fnv",
            f.time.to_bits() ^ (u64::from(f.dst_port) << 16) ^ u64::from(f.len_bytes),
        );
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    sent: u64,
    acked: u64,
    unacked: u64,
    unexpected: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    queue_depth_max: u64,
    /// Daemon service capacity of each half-second window, frames/s.
    capacity: Vec<f64>,
}

/// Offers port messages at [`RATE`] for `secs`, plus the trace's
/// broadcasts that fall in `[offset, offset + secs)`. The calling
/// thread reads the daemon's stage histograms every half second for
/// the per-window service capacity and, with `sample`, polls its queue
/// depth every 10 ms.
fn open_loop(boot: &Bootstrapped, offset: f64, secs: f64, sample: bool) -> Result<Phase, String> {
    let messages: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|i| wire::port_message(i, PORTS, 0).to_bytes())
        .collect();
    let broadcasts: Vec<(u64, Vec<u8>)> = boot
        .trace
        .frames
        .iter()
        .filter(|f| f.time >= offset && f.time < offset + secs)
        .map(|f| {
            (
                ((f.time - offset) * 1e9) as u64,
                wire::broadcast(f).to_bytes(),
            )
        })
        .collect();
    let total = (secs * RATE) as u64;
    let period_ns = 1e9 / RATE;
    let due = |i: u64| (i as f64 * period_ns) as u64;

    // Per client: due time + 1 of its outstanding message, 0 if none.
    let slots: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let recv_socket = boot.socket.try_clone().map_err(io_err)?;
    recv_socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(io_err)?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let elapsed_ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;

    let mut phase = Phase::default();
    std::thread::scope(|s| -> Result<(), String> {
        let sender = s.spawn(|| -> Result<(u64, Vec<f64>), String> {
            let mut late = Vec::with_capacity(total as usize);
            let (mut i, mut b, mut overwritten) = (0u64, 0usize, 0u64);
            loop {
                let now = elapsed_ns();
                while i < total && due(i) <= now {
                    let c = (i % CLIENTS as u64) as usize;
                    if slots[c].swap(due(i) + 1, Ordering::AcqRel) != 0 {
                        overwritten += 1;
                    }
                    boot.socket.send(&messages[c]).map_err(io_err)?;
                    late.push(elapsed_ns().saturating_sub(due(i)) as f64 / 1e3);
                    i += 1;
                }
                while b < broadcasts.len() && broadcasts[b].0 <= now {
                    boot.socket.send(&broadcasts[b].1).map_err(io_err)?;
                    b += 1;
                }
                if i >= total && b >= broadcasts.len() {
                    return Ok((overwritten, late));
                }
                let next = [(i < total).then(|| due(i)), broadcasts.get(b).map(|x| x.0)]
                    .into_iter()
                    .flatten()
                    .min()
                    .unwrap_or(0);
                let now = elapsed_ns();
                if next > now {
                    std::thread::sleep(Duration::from_nanos(next - now));
                }
            }
        });
        let receiver = s.spawn(|| -> (Vec<f64>, u64) {
            let mut latency = Vec::with_capacity(total as usize);
            let mut unexpected = 0u64;
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::Acquire) {
                let Ok(n) = recv_socket.recv(&mut buf) else {
                    continue;
                };
                let at = elapsed_ns();
                let client = match wire::AnyFrame::parse(&buf[..n]) {
                    Ok(wire::AnyFrame::Ack(ack)) => wire::client_index(ack.receiver()),
                    _ => None,
                };
                let outstanding = client
                    .filter(|&c| c < CLIENTS)
                    .map_or(0, |c| slots[c].swap(0, Ordering::AcqRel));
                if outstanding == 0 {
                    unexpected += 1;
                } else {
                    latency.push(at.saturating_sub(outstanding - 1) as f64 / 1e3);
                }
            }
            (latency, unexpected)
        });

        let poll = Duration::from_millis(10);
        let window = Duration::from_millis(500);
        let stages = || busy(&adapter::daemon_stages(&boot.handle));
        let mut last = (Instant::now(), stages());
        let mut close_window = |last: &mut (Instant, (f64, u64))| {
            let now = (Instant::now(), stages());
            let (secs, routed) = (now.1 .0 - last.1 .0, now.1 .1 - last.1 .1);
            if secs > 0.0 && routed > 0 {
                phase.capacity.push(routed as f64 / secs);
            }
            *last = now;
        };
        while !sender.is_finished() {
            if sample {
                phase.queue_depth_max = phase
                    .queue_depth_max
                    .max(adapter::daemon_queue_depth(&boot.handle));
            }
            if last.0.elapsed() >= window {
                close_window(&mut last);
            }
            std::thread::sleep(poll);
        }
        // The last, partial window, unless it is too short to mean much.
        if last.0.elapsed() >= window / 5 {
            close_window(&mut last);
        }
        let sent = sender.join().map_err(|_| "sender panicked".to_string());
        let drain_until = Instant::now() + Duration::from_secs_f64(DRAIN_SECS);
        while Instant::now() < drain_until && slots.iter().any(|s| s.load(Ordering::Acquire) != 0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        let (latency, unexpected) = receiver
            .join()
            .map_err(|_| "receiver panicked".to_string())?;
        let (overwritten, late) = sent??;
        phase.sent = total;
        phase.acked = latency.len() as u64;
        phase.unacked = overwritten
            + slots
                .iter()
                .filter(|s| s.load(Ordering::Acquire) != 0)
                .count() as u64;
        phase.unexpected = unexpected;
        phase.latency_us = latency;
        phase.late_us = late;
        Ok(())
    })?;
    Ok(phase)
}

/// Counts a phase's messages into the outcome.
fn account(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.sent;
    out.failed += phase.unacked;
    if phase.acked + phase.unacked != phase.sent {
        out.problem(format!(
            "{} port messages sent but {} acked and {} unacked",
            phase.sent, phase.acked, phase.unacked
        ));
    }
    if phase.unexpected != 0 {
        out.problem(format!("{} unexpected replies", phase.unexpected));
    }
}

/// Set-up walls and fingerprints of a run's bootstraps.
#[derive(Default)]
struct Setups {
    setup: Vec<f64>,
    assoc: Vec<f64>,
    fingerprints: Vec<Fingerprint>,
}

/// Lowers this process's timer slack from the default 50 µs to 1 µs,
/// before any thread is spawned so every thread inherits it: the
/// sender sleeps to each message's due time, and the default slack
/// alone would make it run ~50 µs late. Best effort; without it the
/// lateness shows in `loadgen.late_*` and in the latency.
fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
}

/// One timed bootstrap, counted and fingerprinted.
fn setup(seed: u64, out: &mut Outcome, setups: &mut Setups) -> Option<Bootstrapped> {
    let t = Instant::now();
    let boot = bootstrap(seed);
    let wall = util::secs(t);
    out.attempted += CLIENTS as u64;
    let boot = match boot {
        Ok(b) => b,
        Err(e) => {
            out.failed += CLIENTS as u64;
            out.problem(format!("bootstrap: {e}"));
            return None;
        }
    };
    out.failed += boot.refused;
    setups.setup.push(wall);
    setups.assoc.push(boot.assoc_wall);
    let mut fp = Fingerprint::default();
    fp.add("clients", CLIENTS as u64);
    fp.add("associations", CLIENTS as u64 - boot.refused);
    match adapter::snapshot_clients(&boot.handle) {
        Ok(n) => fp.add("snapshot_clients", n as u64),
        Err(e) => out.problem(format!("snapshot: {e}")),
    }
    trace_fingerprint(&mut fp, &boot.trace);
    setups.fingerprints.push(fp);
    Some(boot)
}

/// Checks the daemon's own counters at shutdown: no shard errors, one
/// ACK per port message, every client still associated.
fn finish(out: &mut Outcome, boot: Bootstrapped, sent: u64) -> Option<hide_apd::DaemonStats> {
    let stats = out.op("shutdown", adapter::shutdown(boot.handle))?;
    let errors = stats.parse_errors + stats.shards.unknown_clients;
    out.failed += errors;
    if errors != 0 {
        out.problem(format!("{errors} daemon parse or unknown-client errors"));
    }
    if stats.shards.port_messages != sent || stats.shards.acks_sent != sent {
        out.problem(format!(
            "daemon processed {} port messages and sent {} acks for {sent} sent",
            stats.shards.port_messages, stats.shards.acks_sent
        ));
    }
    if stats.shards.clients != CLIENTS as u64 {
        out.problem(format!(
            "{} clients associated at shutdown",
            stats.shards.clients
        ));
    }
    Some(stats)
}

/// Daemon busy seconds in route + handle (send runs inside handle),
/// and frames routed.
fn busy(stages: &[StageStat; 4]) -> (f64, u64) {
    let secs = stages[1..3]
        .iter()
        .map(|s| s.count as f64 * s.mean_ns / 1e9)
        .sum();
    (secs, stages[1].count)
}

/// The end-to-end run.
///
/// The measured daemon is bootstrapped and warmed up first. The
/// open-loop phase is then split into `SETUP_REPS − 1` segments, each
/// preceded by the bootstrap of a throwaway daemon, so the set-up
/// repetitions spread over the run like the batch workloads' do.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    tighten_timer_slack();
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let Some(boot) = setup(seed, &mut out, &mut setups) else {
        return out;
    };
    let mut sent = 0;
    if let Some(warm) = out.op("warm-up", open_loop(&boot, 0.0, WARMUP_SECS, false)) {
        account(&mut out, &warm);
        sent += warm.sent;
    }
    let segments = schedule::SETUP_REPS - 1;
    let segment_secs = seconds / segments as f64;
    let (mut latency, mut capacity) = (Vec::new(), Vec::new());
    for k in 0..segments {
        if let Some(extra) = setup(seed, &mut out, &mut setups) {
            out.op("shutdown", adapter::shutdown(extra.handle));
        }
        let offset = WARMUP_SECS + k as f64 * segment_secs;
        if let Some(phase) = out.op("open loop", open_loop(&boot, offset, segment_secs, false)) {
            account(&mut out, &phase);
            sent += phase.sent;
            latency.extend(phase.latency_us);
            capacity.extend(phase.capacity);
        }
    }
    finish(&mut out, boot, sent);
    out.check_fingerprints("apd_openloop", seed, &setups.fingerprints);
    out.end_to_end(EndToEnd {
        events_per_s: util::contended_rate(&mut capacity),
        wall_s: util::setup_time(&mut setups.assoc),
        latency_p50_us: util::median(&mut latency),
        latency_p90_us: util::quantile(&mut latency, 0.9),
        setup_s: util::setup_time(&mut setups.setup),
    });
    out
}

/// The traced pass: after the warm-up, an open-loop phase without and
/// one with queue-depth sampling; the daemon's stage histograms and
/// counters come from its public health and stats outputs.
pub fn traced(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    const PHASE_SECS: f64 = 3.0;
    tighten_timer_slack();
    let mut setups = Setups::default();
    let Some(boot) = setup(seed, out, &mut setups) else {
        return;
    };
    out.check_fingerprints("apd_openloop", seed, &setups.fingerprints);
    let mut sent = 0;
    if let Some(warm) = out.op("warm-up", open_loop(&boot, 0.0, WARMUP_SECS, false)) {
        account(out, &warm);
        sent += warm.sent;
    }
    let snmp_before = util::udp_rcvbuf_errors();
    let plain = out.op(
        "open loop",
        open_loop(&boot, WARMUP_SECS, PHASE_SECS, false),
    );

    let before = adapter::daemon_stages(&boot.handle);
    let cpu_before = util::thread_cpu_secs("apd-");
    let root = spans.open("apd_openloop", None);
    let sampled = out.op(
        "sampled open loop",
        open_loop(&boot, WARMUP_SECS + PHASE_SECS, PHASE_SECS, true),
    );
    spans.close(root);
    let cpu = util::thread_cpu_secs("apd-") - cpu_before;
    let after = adapter::daemon_stages(&boot.handle);
    let snmp = util::udp_rcvbuf_errors().saturating_sub(snmp_before);
    spans.aggregate(
        "apd.recv",
        root,
        (after[0].count as f64 * after[0].mean_ns - before[0].count as f64 * before[0].mean_ns)
            / 1e9,
    );
    spans.aggregate(
        "apd.route",
        root,
        (after[1].count as f64 * after[1].mean_ns - before[1].count as f64 * before[1].mean_ns)
            / 1e9,
    );

    for (stage, name) in after.iter().zip(["recv", "route", "handle", "send"]) {
        out.metric(format!("apd.{name}_p50_ns"), stage.p50_ns as f64, "ns");
        out.metric(format!("apd.{name}_count"), stage.count as f64, "count");
    }
    let (Some(plain), Some(mut sampled)) = (plain, sampled) else {
        let _ = adapter::shutdown(boot.handle);
        return;
    };
    account(out, &plain);
    account(out, &sampled);
    sent += plain.sent + sampled.sent;
    out.metric(
        "apd.queue_depth_max",
        sampled.queue_depth_max as f64,
        "count",
    );
    out.metric("apd.udp_rcvbuf_errors", snmp as f64, "count");
    out.metric(
        "apd.cpu_us_per_msg",
        cpu * 1e6 / sampled.sent.max(1) as f64,
        "us",
    );
    out.metric(
        "loadgen.late_p50_us",
        util::quantile(&mut sampled.late_us, 0.5),
        "us",
    );
    out.metric(
        "loadgen.late_max_us",
        util::quantile(&mut sampled.late_us, 1.0),
        "us",
    );
    out.metric("loadgen.sent", sampled.sent as f64, "count");
    out.metric("loadgen.acked", sampled.acked as f64, "count");
    out.metric(
        "loadgen.latency_p50_us",
        util::median(&mut sampled.latency_us),
        "us",
    );
    out.metric(
        "loadgen.latency_p90_us",
        util::quantile(&mut sampled.latency_us, 0.9),
        "us",
    );
    out.metric(
        "loadgen.latency_p99_us",
        util::quantile(&mut sampled.latency_us, 0.99),
        "us",
    );
    out.metric(
        "loadgen.latency_p999_us",
        util::quantile(&mut sampled.latency_us, 0.999),
        "us",
    );
    let mut plain_latency = plain.latency_us;
    out.metric(
        "apd_openloop.trace_overhead",
        util::quantile(&mut sampled.latency_us, 0.5) / util::quantile(&mut plain_latency, 0.5),
        "ratio",
    );
    out.metric(
        "apd_openloop.unaccounted_share",
        spans.unaccounted_share(&[root]),
        "ratio",
    );
    if let Some(stats) = finish(out, boot, sent) {
        out.metric("apd.frames_received", stats.frames_received as f64, "count");
        out.metric("apd.parse_errors", stats.parse_errors as f64, "count");
        out.metric(
            "apd.dropped_backpressure",
            stats.dropped_backpressure as f64,
            "count",
        );
        out.metric("apd.acks_sent", stats.shards.acks_sent as f64, "count");
        out.metric("apd.beacons", stats.shards.beacons as f64, "count");
        out.metric(
            "apd.frames_delivered",
            stats.shards.frames_delivered as f64,
            "count",
        );
    }
}
