//! The `fleet_sim` and `reproduce` binaries reject bad invocations
//! loudly: an unknown flag, a missing value, or a value that does not
//! parse exits with status 2 and a message naming the flag, instead of
//! being ignored.

use std::process::{Command, Output};

fn fleet_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sim"))
        .args(args)
        .args(["--log-level", "off"])
        .output()
        .expect("spawn fleet_sim")
}

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

/// Asserts a usage failure whose message names `flag`.
fn assert_usage_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "{flag} not named in: {stderr}");
}

// Every fleet_sim invocation below is small enough that a binary which
// ignored the bad flag would finish (and exit 0) quickly.
const TINY: [&str; 4] = ["--clients", "2", "--duration", "1"];

#[test]
fn fleet_sim_rejects_unparsable_values() {
    assert_usage_error(
        &fleet_sim(&[&["--bss", "abc"][..], &TINY].concat()),
        "--bss",
    );
    let bad_loss = [&["--bss", "2", "--refresh-loss", "0,5"][..], &TINY].concat();
    assert_usage_error(&fleet_sim(&bad_loss), "--refresh-loss");
    let bad_device = [&["--bss", "2", "--device", "pager"][..], &TINY].concat();
    assert_usage_error(&fleet_sim(&bad_device), "--device");
}

#[test]
fn fleet_sim_rejects_unknown_and_valueless_flags() {
    let base = ["--bss", "2", "--clients", "2", "--duration", "1"];
    for flag in ["--bogus", "--stream-export", "--spill-chunk", "--trace-cap"] {
        assert_usage_error(&fleet_sim(&[&base[..], &[flag]].concat()), flag);
    }
    assert_usage_error(
        &fleet_sim(&[&base[..], &["--metrics"]].concat()),
        "--metrics",
    );
}

#[test]
fn fleet_sim_profile_stages_excludes_streamed_outputs() {
    let dir = std::env::temp_dir().join(format!("hide-cli-strict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("attr.csv");
    let args = [
        &["--bss", "2", "--profile-stages", "--attribution-out"][..],
        &[csv.to_str().unwrap()],
        &TINY,
    ]
    .concat();
    assert_usage_error(&fleet_sim(&args), "--attribution-out");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_sim_accepts_a_valid_invocation() {
    let out = fleet_sim(&[&["--bss", "2", "--jobs", "1"][..], &TINY].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn reproduce_rejects_unknown_flags() {
    for flag in ["--bss", "--bogus", "--stream-export"] {
        assert_usage_error(&reproduce(&["table1", flag, "abc"]), flag);
        assert_usage_error(&reproduce(&["table1", flag]), flag);
    }
    assert_usage_error(&reproduce(&["table1", "--jobs", "abc"]), "--jobs");
}
