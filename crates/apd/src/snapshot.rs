//! On-disk snapshot of the whole daemon (`hide-apdsnap/1`).
//!
//! A daemon snapshot is the shard count followed by one
//! [`ApSnapshot`] (`hide-apsnap/1`) per shard, in shard order. Each
//! per-shard block is self-terminating (its `end` line), so the
//! container needs no lengths or escaping.

use crate::error::ApdError;
use hide_core::ap::ApSnapshot;

/// Magic first line of the container format.
pub const APDSNAP_MAGIC: &str = "hide-apdsnap/1";

/// A point-in-time image of every shard's client table.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ApdSnapshot {
    /// One AP snapshot per shard, in shard order.
    pub shards: Vec<ApSnapshot>,
}

impl ApdSnapshot {
    /// Wraps per-shard snapshots into a container.
    #[must_use]
    pub fn new(shards: Vec<ApSnapshot>) -> Self {
        ApdSnapshot { shards }
    }

    /// Serializes the container to its canonical text.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(APDSNAP_MAGIC.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(format!("shards {}\n", self.shards.len()).as_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&shard.to_bytes());
        }
        out
    }

    /// Parses a container previously produced by
    /// [`ApdSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ApdError::Snapshot`] on a bad magic line, a shard
    /// count mismatch, or any malformed per-shard block.
    pub fn parse(buf: &[u8]) -> Result<Self, ApdError> {
        let text =
            std::str::from_utf8(buf).map_err(|e| ApdError::Snapshot(format!("not utf-8: {e}")))?;
        let mut rest = text;
        let magic = take_line(&mut rest);
        if magic != APDSNAP_MAGIC {
            return Err(ApdError::Snapshot(format!(
                "bad magic {magic:?}, expected {APDSNAP_MAGIC:?}"
            )));
        }
        let header = take_line(&mut rest);
        let count: usize = header
            .strip_prefix("shards ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ApdError::Snapshot(format!("bad shard-count line {header:?}")))?;
        // The count is untrusted: cap the up-front reservation so a
        // forged header cannot size an allocation (the loop below fails
        // on the first missing block anyway).
        let mut shards = Vec::with_capacity(count.min(4096));
        for i in 0..count {
            let block = take_block(&mut rest)
                .ok_or_else(|| ApdError::Snapshot(format!("shard {i} block truncated")))?;
            let snap = ApSnapshot::parse(block.as_bytes())
                .map_err(|e| ApdError::Snapshot(format!("shard {i}: {e}")))?;
            shards.push(snap);
        }
        if !rest.trim().is_empty() {
            return Err(ApdError::Snapshot("trailing data after last shard".into()));
        }
        Ok(ApdSnapshot { shards })
    }
}

/// Splits the next line off `rest` (without its newline).
fn take_line<'a>(rest: &mut &'a str) -> &'a str {
    match rest.find('\n') {
        Some(i) => {
            let line = &rest[..i];
            *rest = &rest[i + 1..];
            line
        }
        None => std::mem::take(rest),
    }
}

/// Splits one self-terminating `hide-apsnap/1` block (through its
/// `end` line) off `rest`.
fn take_block(rest: &mut &str) -> Option<String> {
    let mut block = String::new();
    loop {
        if rest.is_empty() {
            return None;
        }
        let line = take_line(rest);
        block.push_str(line);
        block.push('\n');
        if line == "end" {
            return Some(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hide_core::ap::{AccessPoint, ApCtx};
    use hide_wifi::frame::UdpPortMessage;
    use hide_wifi::mac::MacAddr;

    fn populated_ap(bssid_idx: u32, lo: u16, hi: u16, clients: u32) -> AccessPoint {
        let mut ap = AccessPoint::with_aid_range(MacAddr::station(bssid_idx), lo, hi).unwrap();
        for i in 0..clients {
            let mac = MacAddr::station(100 + i);
            ap.associate(mac).unwrap();
            let msg = UdpPortMessage::new(mac, ap.bssid(), [5353, 1900 + i as u16]).unwrap();
            ap.process_port_message(&msg, &mut ApCtx::untimed())
                .unwrap();
        }
        ap
    }

    #[test]
    fn container_round_trips() {
        let snap = ApdSnapshot::new(vec![
            populated_ap(0, 1, 1000, 3).snapshot(),
            populated_ap(0, 1001, 2007, 2).snapshot(),
        ]);
        let bytes = snap.to_bytes();
        let back = ApdSnapshot::parse(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_container_round_trips() {
        let snap = ApdSnapshot::new(vec![]);
        assert_eq!(ApdSnapshot::parse(&snap.to_bytes()).unwrap(), snap);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(ApdSnapshot::parse(b"nope").is_err());
        assert!(ApdSnapshot::parse(b"hide-apdsnap/1\nshards x\n").is_err());
        assert!(ApdSnapshot::parse(b"hide-apdsnap/1\nshards 1\n").is_err());
        let mut ok = ApdSnapshot::new(vec![populated_ap(0, 1, 2007, 1).snapshot()]).to_bytes();
        ok.extend_from_slice(b"trailing\n");
        assert!(ApdSnapshot::parse(&ok).is_err());
    }

    #[test]
    fn huge_shard_count_is_an_error_not_an_allocation() {
        let forged = b"hide-apdsnap/1\nshards 1000000000000000000\n";
        assert!(matches!(
            ApdSnapshot::parse(forged),
            Err(ApdError::Snapshot(msg)) if msg.contains("truncated")
        ));
    }
}
