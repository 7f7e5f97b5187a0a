//! Steady end-to-end and per-layer benchmark of the HIDE reproduction.
//!
//! ```text
//! perfbench --workload <fleet_steady|stream_export|apd_openloop|reproduce_all|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs for `--seconds` and reports
//! the end-to-end metrics; `all` runs the four in turn. With
//! `--trace 1` the traced suite runs one spanned pass of every workload
//! plus the micro layers and reports every per-layer metric. Either
//! way the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! tags the host. See `perfbench/README.md`.

mod adapter;
mod apd;
mod fleet;
mod micro;
mod outcome;
mod reproduce;
mod schedule;
mod spans;
mod stream;
mod util;

use outcome::Outcome;
use std::process::ExitCode;

/// Every workload, in run order.
const WORKLOADS: [&str; 4] = [
    "fleet_steady",
    "stream_export",
    "apd_openloop",
    "reproduce_all",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64) -> Outcome {
    match name {
        "fleet_steady" => fleet::run(seed, seconds),
        "stream_export" => stream::run(seed, seconds),
        "apd_openloop" => apd::run(seed, seconds),
        _ => reproduce::run(seed, seconds),
    }
}

/// One spanned pass of every workload plus the micro layers.
fn traced_suite(seed: u64, probe_ms: f64) -> (Outcome, spans::Spans) {
    let mut out = Outcome::default();
    let mut spans = spans::Spans::new();
    out.metric("host.probe_ms", probe_ms, "ms");
    fleet::traced(seed, &mut spans, &mut out);
    micro::measure(seed, &mut out);
    stream::traced(seed, &mut spans, &mut out);
    apd::traced(seed, &mut spans, &mut out);
    reproduce::traced(seed, &mut spans, &mut out);
    (out, spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    hide_obs::log::set_level(hide_obs::LogLevel::Warn);
    let probe_ms = util::probe_ms();

    let out = if args.trace {
        let (out, spans) = traced_suite(args.seed, probe_ms);
        eprintln!("{}", spans.to_json());
        print!("{}", out.render("traced suite"));
        out
    } else if args.workload == "all" {
        let mut all = Outcome::default();
        for name in WORKLOADS {
            let one = run_workload(name, args.seed, args.seconds);
            print!("{}", one.render(name));
            all.attempted += one.attempted;
            all.failed += one.failed;
            all.problems
                .extend(one.problems.iter().map(|p| format!("{name}: {p}")));
            for m in one.metrics {
                all.metric(format!("{name}.{}", m.name), m.value, m.unit);
            }
        }
        all
    } else {
        let out = run_workload(&args.workload, args.seed, args.seconds);
        print!("{}", out.render(&args.workload));
        println!(
            "fingerprint {}@{}: {}",
            args.workload,
            args.seed,
            out.fingerprint.to_json()
        );
        out
    };
    println!("{}", util::host_json(probe_ms));
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
