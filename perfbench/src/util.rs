//! Small measurement helpers: quantiles, process introspection, host
//! tags and the integer fingerprint every workload checks.

use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`). Sorts in
/// place; `0.0` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// A time at the host's contended speed: the p90 of repeated `times`.
pub fn contended_time(times: &mut [f64]) -> f64 {
    quantile(times, 0.9)
}

/// A rate at the host's contended speed: the p10 of repeated `rates`,
/// each already a mean over a window (the apd capacity).
pub fn contended_rate(rates: &mut [f64]) -> f64 {
    quantile(rates, 0.1)
}

/// The same for the per-operation rates of the batch workloads: their
/// p05. A quiet stretch of a run can leave fewer than a tenth of its
/// operations at the contended speed, and the p10 of such a run reads
/// the fast speed; a twentieth of them is nearly always still there.
pub fn contended_op_rate(rates: &mut [f64]) -> f64 {
    quantile(rates, 0.05)
}

/// A set-up time: the p75 of its repetitions. Set-ups are short, so a
/// single stall can make one of them the slowest; the p75 still sits at
/// the contended speed without being that one.
pub fn setup_time(times: &mut [f64]) -> f64 {
    quantile(times, 0.75)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU seconds consumed so far by this process's live threads whose
/// name starts with `prefix` (from `/proc/self/task/*/schedstat`).
pub fn thread_cpu_secs(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        let dir = task.path();
        let named = std::fs::read_to_string(dir.join("comm"))
            .is_ok_and(|comm| comm.trim_end().starts_with(prefix));
        if !named {
            continue;
        }
        if let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) {
            nanos += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    nanos as f64 / 1e9
}

/// The kernel's UDP `RcvbufErrors` counter from `/proc/net/snmp`:
/// datagrams dropped because a socket's receive buffer was full.
pub fn udp_rcvbuf_errors() -> u64 {
    let Ok(snmp) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(header), Some(values)) = (udp.next(), udp.next()) else {
        return 0;
    };
    header
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(k, _)| *k == "RcvbufErrors")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// A fixed CPU calibration loop, in milliseconds (median of five). It
/// is a diagnostic that tags which speed regime the host was in; no
/// metric is divided by it.
pub fn probe_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            secs(t) * 1e3
        })
        .collect();
    median(&mut runs)
}

/// Host tags recorded with every result: cores, CPU model, rustc
/// version and git SHA (`unknown` outside a git checkout), plus the
/// calibration probe.
pub fn host_json(probe_ms: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let sha = git_sha().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"schema\": \"perfbench-host/1\", \"cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \
         \"git_sha\": {}, \"probe_ms\": {probe_ms}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&sha)
    )
}

/// The commit checked out in the working directory, read from `.git`
/// there (never from a parent directory).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An ordered list of named integers that pins a workload's outputs.
/// f64 energy totals are deliberately left out: only counts, byte
/// sizes and content hashes go in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    fields: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    /// Adds `value` to the field `name`, creating it at zero.
    pub fn add(&mut self, name: &'static str, value: u64) {
        match self.fields.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = v.wrapping_add(value),
            None => self.fields.push((name, value)),
        }
    }

    /// Folds `value` into the hash field `name` (order-sensitive).
    pub fn mix(&mut self, name: &'static str, value: u64) {
        match self.fields.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = hide_obs::spill::fnv1a64_extend(*v, &value.to_le_bytes()),
            None => self.fields.push((
                name,
                hide_obs::spill::fnv1a64_extend(FNV_OFFSET, &value.to_le_bytes()),
            )),
        }
    }

    /// One FNV-1a 64 digest over every field name and value.
    pub fn digest(&self) -> u64 {
        self.fields.iter().fold(FNV_OFFSET, |h, (name, v)| {
            let h = hide_obs::spill::fnv1a64_extend(h, name.as_bytes());
            hide_obs::spill::fnv1a64_extend(h, &v.to_le_bytes())
        })
    }

    /// `{"digest": "...", "name": value, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"digest\": \"{:016x}\"", self.digest());
        for (name, v) in &self.fields {
            let _ = write!(out, ", \"{name}\": {v}");
        }
        out.push('}');
        out
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest recorded for `workload` at `seed` in `fingerprints.json`,
/// if that pair was recorded.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<String> {
    let key = format!("\"{workload}@{seed}\": \"");
    let start = FINGERPRINTS.find(&key)? + key.len();
    let end = start + FINGERPRINTS[start..].find('"')?;
    Some(FINGERPRINTS[start..end].to_string())
}

const FINGERPRINTS: &str = include_str!("../fingerprints.json");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::default();
        a.add("events", 3);
        a.add("events", 4);
        a.mix("hash", 1);
        let mut b = Fingerprint::default();
        b.add("events", 7);
        b.mix("hash", 1);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        b.mix("hash", 2);
        assert_ne!(a.digest(), b.digest());
        assert!(a.to_json().starts_with("{\"digest\": \""));
    }
}
