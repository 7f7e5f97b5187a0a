//! Property tests for the daemon's two codecs: the control protocol
//! and the `hide-apdsnap/1` snapshot container.

use hide_apd::ctrl::{CtrlRequest, CtrlResponse};
use hide_apd::{ApdConfig, ApdSnapshot};
use hide_core::ap::{AccessPoint, ApCtx};
use hide_wifi::frame::UdpPortMessage;
use hide_wifi::mac::MacAddr;
use proptest::collection::vec;
use proptest::prelude::*;

fn request_strategy() -> impl Strategy<Value = CtrlRequest> {
    (0usize..8, any::<u64>()).prop_map(|(which, n)| match which {
        0 => CtrlRequest::Ping,
        1 => CtrlRequest::Stats,
        2 => CtrlRequest::Metrics,
        3 => CtrlRequest::Snapshot,
        4 => CtrlRequest::Tick(n),
        5 => CtrlRequest::Health,
        6 => CtrlRequest::Expo,
        _ => CtrlRequest::Shutdown,
    })
}

/// Error codes that survive the wire: non-empty, no whitespace, no
/// colon (the `err:` separator charset).
fn code_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    vec(0usize..CHARSET.len(), 1..24)
        .prop_map(|idxs| idxs.into_iter().map(|i| CHARSET[i] as char).collect())
}

/// Payload text that survives the line-oriented ctrl codec: printable
/// ASCII with no leading/trailing trim hazards.
fn payload_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=_,.:/ ";
    vec(0usize..CHARSET.len(), 1..64).prop_map(|idxs| {
        let s: String = idxs.into_iter().map(|i| CHARSET[i] as char).collect();
        s.trim().replace("  ", " ")
    })
}

/// One shard's worth of daemon state with a random population.
fn shard_state(clients: &[(u32, Vec<u16>)], lo: u16, hi: u16) -> AccessPoint {
    let mut ap = AccessPoint::with_aid_range(MacAddr::station(0), lo, hi).unwrap();
    for (idx, ports) in clients {
        let mac = MacAddr::station(1 + idx % 500);
        if ap.aid_of(mac).is_some() {
            continue;
        }
        if ap.associate(mac).is_err() {
            break;
        }
        if !ports.is_empty() {
            let take = ports.len().min(100);
            let msg = UdpPortMessage::new(mac, ap.bssid(), ports[..take].to_vec()).unwrap();
            ap.process_port_message(&msg, &mut ApCtx::untimed())
                .unwrap();
        }
    }
    ap
}

proptest! {
    #[test]
    fn ctrl_requests_round_trip(req in request_strategy()) {
        prop_assert_eq!(CtrlRequest::parse(&req.encode()).unwrap(), req);
    }

    #[test]
    fn ctrl_request_parse_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        let _ = CtrlRequest::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn ctrl_responses_round_trip(
        payload in payload_strategy(),
        code in code_strategy(),
        which in 0usize..4,
    ) {
        let resp = match which {
            0 => CtrlResponse::pong(),
            1 => CtrlResponse::Pong { version: payload },
            2 => CtrlResponse::Ok(payload),
            _ => CtrlResponse::Err { code, detail: payload },
        };
        prop_assert_eq!(CtrlResponse::parse(&resp.encode()).unwrap(), resp);
    }

    /// Every unknown-verb request maps to the stable
    /// `err:unknown-command` reply shape, and its encoding parses
    /// back to the same code — the scraping contract.
    #[test]
    fn unknown_verbs_reply_with_a_stable_code(verb in code_strategy()) {
        match CtrlRequest::parse(&verb) {
            // Known verbs parse; everything else must be UnknownCommand.
            Ok(_) => {}
            Err(hide_apd::CtrlParseError::UnknownCommand(got)) => {
                prop_assert_eq!(&got, &verb);
                let wire = CtrlResponse::err("unknown-command", got).encode();
                prop_assert!(wire.starts_with("err:unknown-command"));
                match CtrlResponse::parse(&wire).unwrap() {
                    CtrlResponse::Err { code, detail } => {
                        prop_assert_eq!(code, "unknown-command");
                        prop_assert_eq!(&detail, &verb);
                    }
                    other => return Err(TestCaseError::fail(format!("not an err: {other:?}"))),
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
        }
    }

    /// The shard count is untrusted input: any count without its
    /// blocks is a structured error, never an allocation sized by the
    /// header (which aborts the process on `capacity overflow`).
    #[test]
    fn forged_shard_counts_are_rejected(count in 1u64..=u64::MAX) {
        let forged = format!("hide-apdsnap/1\nshards {count}\n");
        prop_assert!(ApdSnapshot::parse(forged.as_bytes()).is_err());
    }

    #[test]
    fn apd_snapshots_round_trip(
        populations in vec(vec((any::<u32>(), vec(any::<u16>(), 0..12)), 0..20), 1..4),
    ) {
        let cfg = ApdConfig::new().shards(populations.len());
        let shards: Vec<_> = populations
            .iter()
            .enumerate()
            .map(|(i, clients)| {
                let (lo, hi) = cfg.aid_range_of(i);
                shard_state(clients, lo, hi).snapshot()
            })
            .collect();
        let snap = ApdSnapshot::new(shards);
        let bytes = snap.to_bytes();
        let back = ApdSnapshot::parse(&bytes).unwrap();
        prop_assert_eq!(&back, &snap);
        // Canonical: serialization is a fixed point.
        prop_assert_eq!(back.to_bytes(), bytes);
        // And every shard restores into an AP that re-snapshots
        // identically.
        for shard in &snap.shards {
            let restored = AccessPoint::from_snapshot(shard).unwrap();
            prop_assert_eq!(restored.snapshot().to_bytes(), shard.to_bytes());
        }
    }

    #[test]
    fn apd_snapshot_parse_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let _ = ApdSnapshot::parse(&bytes);
    }
}
