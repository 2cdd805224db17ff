//! The repo's wall-clock benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark [--seed N] [--seconds S] [--quick]     # every workload, timed then traced
//! benchmark --selftest [--seed N] [--seconds S]    # timed suite twice, compared to the bounds
//! ```
//!
//! One workload runs in this process; the suite modes run each workload
//! in a child process of this binary, so peak RSS, allocator counts and
//! leaked threads are per workload. The last line of standard output of
//! a single-workload run is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `README.md` beside `Cargo.toml`.

mod alloc;
mod costtable;
mod loadgen;
mod procfs;
mod report;
mod run;
mod stats;
mod sys;
mod topology;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use report::{Outcome, Plan, END_TO_END, PER_LAYER};
use workload::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default `--seed`; `BENCHMARK.json` records the same value.
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selftest: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selftest: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values print with every digit Rust's shortest round-trip form has.
fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.defects.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Reads `"name": {"value": X` pairs back out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse() {
            out.push((name, v));
        }
        rest = tail;
    }
    out
}

/// One workload in this process. Prints a readable table, then the
/// result line; fails on any defect.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(spec) = workload::find(name) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let plan = Plan {
        seconds: args.seconds,
        quick: args.quick,
    };
    let outcome = if args.trace {
        report::traced(spec, args.seed, plan)
    } else {
        report::timed(spec, args.seed, plan)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(why) => {
            eprintln!("{name}: {why}");
            return ExitCode::FAILURE;
        }
    };
    // The result line carries exactly the metrics `BENCHMARK.json`
    // promises for this kind of run, in its order, with its units.
    let promised: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect()
    };
    let measured = std::mem::take(&mut outcome.metrics);
    for (metric, unit) in promised {
        match measured.iter().find(|row| row.0 == metric) {
            Some(&(_, value, _)) if value.is_finite() => {
                outcome.metrics.push((metric, value, unit))
            }
            _ => {
                outcome.defects.push(format!("{metric} was not measured"));
                outcome.metrics.push((metric, 0.0, unit));
            }
        }
    }
    println!(
        "# {name} seed={} seconds={} trace={} attempted={} failed={}",
        args.seed, args.seconds, args.trace as u8, outcome.attempted, outcome.failed
    );
    println!("# {}", spec.why);
    for (metric, value, unit) in &outcome.metrics {
        println!("{metric:<42} {value:>16.3} {unit}");
    }
    for defect in &outcome.defects {
        eprintln!("{name}: INCORRECT: {defect}");
    }
    println!("{}", result_json(&outcome));
    if outcome.defects.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `name` in a child process of this binary, echoing its output;
/// returns its metrics, or `None` if it failed.
fn run_child(args: &Args, name: &str, trace: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let metrics = parse_metrics(stdout.lines().last()?);
    (output.status.success() && !metrics.is_empty()).then_some(metrics)
}

/// Every workload, timed then traced, each in its own process.
fn run_suite(args: &Args) -> ExitCode {
    let mut ok = true;
    for spec in &WORKLOADS {
        for trace in [false, true] {
            ok &= run_child(args, spec.name, trace).is_some();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("suite: at least one run failed");
        ExitCode::FAILURE
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative = better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// The timed suite twice; every workload × end-to-end metric must agree
/// within its bound in both directions.
fn run_selftest(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table = String::new();
    for spec in &WORKLOADS {
        let (Some(first), Some(second)) = (
            run_child(args, spec.name, false),
            run_child(args, spec.name, false),
        ) else {
            eprintln!("selftest: {} failed to run", spec.name);
            ok = false;
            continue;
        };
        for (m, bound) in &END_TO_END {
            let get =
                |run: &[(String, f64)]| run.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            let (Some(a), Some(b)) = (get(&first), get(&second)) else {
                ok = false;
                continue;
            };
            let diff = worsening(m.better, a, b).abs();
            let verdict = if diff <= *bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= *bound;
            let _ = writeln!(
                table,
                "{:<18} {:<16} {a:>14.3} {b:>14.3} {:>7.2} % (bound {:>5.1} %) {verdict}",
                spec.name,
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "# selftest: two timed runs of every workload, seed {}",
        args.seed
    );
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("selftest: at least one pair differs by more than its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    sys::remember_cpus();
    sys::single_malloc_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None if args.selftest => run_selftest(&args),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(argv(
            "--workload kv_get_large --seed 42 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv_get_large"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 7, true));
        let d = parse_args(argv("")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(argv("--trace yes")).is_err());
        assert!(parse_args(argv("--seconds 0")).is_err());
        assert!(parse_args(argv("--bogus")).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            metrics: vec![("ops_per_s", 190234.5, "1/s"), ("setup_s", 0.8127, "s")],
            attempted: 1000,
            failed: 0,
            defects: Vec::new(),
        };
        let line = result_json(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 190234.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("ops_per_s".to_string(), 190234.5),
                ("setup_s".to_string(), 0.8127)
            ]
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worsening("higher", 100.0, 110.0) < 0.0);
    }
}
