//! The AP core and wire-format layers, timed from outside on a replay
//! shaped like the workloads: one 100-client BSS whose clients
//! advertise 8 ports each, fed a Starbucks broadcast trace at the
//! 102.4 ms DTIM cadence.

use crate::adapter::{self, wire};
use crate::outcome::Outcome;
use crate::util;
use hide_traces::scenario::Scenario;
use std::hint::black_box;
use std::time::Instant;

/// Clients of the replayed BSS.
const CLIENTS: usize = 100;
/// Ports per client.
const PORTS: usize = 8;
/// Timed repetitions per measurement (the median is reported).
const REPS: usize = 5;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    util::median(&mut runs)
}

fn associated_ap() -> wire::AccessPoint {
    let mut ap = wire::AccessPoint::new(wire::bssid());
    for i in 0..CLIENTS {
        black_box(ap.handle_association_request(&wire::association_request(i)));
    }
    ap
}

/// `core.*` and `wifi.*` per-call costs.
pub fn measure(seed: u64, out: &mut Outcome) {
    // Port updates: every client refreshes 200 times, alternating two
    // port sets so each update rewrites its table rows.
    let msgs: Vec<[wire::UdpPortMessage; 2]> = (0..CLIENTS)
        .map(|i| {
            [
                wire::port_message(i, PORTS, 0),
                wire::port_message(i + 1, PORTS, 1),
            ]
        })
        .collect();
    let port_update_ns = median_of(|| {
        let mut ap = associated_ap();
        let rounds = 200;
        let t = Instant::now();
        for round in 0..rounds {
            let mut ctx = wire::ApCtx::at(round as f64);
            for m in &msgs {
                black_box(ap.process_port_message(&m[round % 2], &mut ctx).is_ok());
            }
        }
        util::secs(t) * 1e9 / (rounds * CLIENTS) as f64
    });
    out.metric("core.port_update_ns", port_update_ns, "ns");

    // DTIM beacons: Algorithm 1 over the buffered broadcasts plus the
    // post-DTIM drain, one call pair per beacon interval.
    let trace = adapter::generate_trace(Scenario::Starbucks, 1024.0, seed);
    let frames: Vec<(f64, wire::BroadcastDataFrame)> = trace
        .frames
        .iter()
        .map(|f| (f.time, wire::broadcast(f)))
        .collect();
    let mut ap = associated_ap();
    let mut ctx = wire::ApCtx::at(0.0);
    for (i, m) in msgs.iter().enumerate() {
        let _ = ap.process_port_message(&m[i % 2], &mut ctx);
    }
    let dtim_beacon_us = median_of(|| {
        let beacons = 10_000u64;
        let mut next = 0;
        let mut spent = 0.0;
        for index in 0..beacons {
            let end = (index + 1) as f64 * adapter::BEACON_INTERVAL_SECS;
            while next < frames.len() && frames[next].0 < end {
                ap.enqueue_broadcast(frames[next].1.clone());
                next += 1;
            }
            let t = Instant::now();
            black_box(ap.emit_dtim_beacon(index, &mut wire::ApCtx::untimed()));
            black_box(ap.drain_broadcasts(&mut wire::ApCtx::untimed()));
            spent += util::secs(t);
        }
        spent * 1e6 / beacons as f64
    });
    out.metric("core.dtim_beacon_us", dtim_beacon_us, "us");

    let requests: Vec<_> = (0..CLIENTS).map(wire::association_request).collect();
    let assoc_ns = median_of(|| {
        let rounds = 200;
        let mut spent = 0.0;
        for _ in 0..rounds {
            let mut ap = wire::AccessPoint::new(wire::bssid());
            let t = Instant::now();
            for r in &requests {
                black_box(ap.handle_association_request(r));
            }
            spent += util::secs(t);
        }
        spent * 1e9 / (rounds * CLIENTS) as f64
    });
    out.metric("core.assoc_ns", assoc_ns, "ns");

    // Wire formats: the daemon's inbound mix — port messages, ACKs and
    // broadcast data.
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        encoded.push(m[0].to_bytes());
        encoded.push(wire::Ack::new(wire::client_mac(i)).to_bytes());
    }
    encoded.extend(frames.iter().take(CLIENTS).map(|(_, f)| f.to_bytes()));
    let parse_ns = median_of(|| {
        let rounds = 100;
        let t = Instant::now();
        for _ in 0..rounds {
            for bytes in &encoded {
                black_box(wire::AnyFrame::parse(black_box(bytes)).is_ok());
            }
        }
        util::secs(t) * 1e9 / (rounds * encoded.len()) as f64
    });
    out.metric("wifi.parse_ns", parse_ns, "ns");
    let encode_ns = median_of(|| {
        let rounds = 100;
        let t = Instant::now();
        for _ in 0..rounds {
            for (m, (_, f)) in msgs.iter().zip(&frames) {
                black_box(m[0].to_bytes());
                black_box(f.to_bytes());
            }
        }
        util::secs(t) * 1e9 / (rounds * 2 * CLIENTS.min(frames.len())) as f64
    });
    out.metric("wifi.encode_ns", encode_ns, "ns");
}
