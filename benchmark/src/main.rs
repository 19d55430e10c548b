//! The benchmark of record for Glider's std-only slice: the durable-ack,
//! recovery, action-compute and observability paths. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```

mod gen;
mod harness;
mod json;
mod probes;
mod report;
mod scratch;
mod stats;
mod tracer;
mod workloads;

use harness::Outcome;
use report::{Environment, Report, Spec};
use scratch::Scratch;
use std::fs;
use std::io;
use std::process::{Command, ExitCode};
use workloads::action::{ActionReduce, ActionScan, ActionSort};
use workloads::meta::{Always, Interval, MetaCommit, MetaRecover};
use workloads::obs::ObsSpan;
use workloads::Scale;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(spec: &Spec, args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = args.peekable();
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                let value = args.next_if(|v| v == "0" || v == "1");
                parsed.trace = value.as_deref() != Some("0");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    match name {
        "meta-commit.always" => {
            harness::run::<MetaCommit<Always>>(seed, seconds, trace, scale, scratch)
        }
        "meta-commit.interval" => {
            harness::run::<MetaCommit<Interval>>(seed, seconds, trace, scale, scratch)
        }
        "meta-recover" => harness::run::<MetaRecover>(seed, seconds, trace, scale, scratch),
        "action-scan" => harness::run::<ActionScan>(seed, seconds, trace, scale, scratch),
        "action-reduce" => harness::run::<ActionReduce>(seed, seconds, trace, scale, scratch),
        "action-sort" => harness::run::<ActionSort>(seed, seconds, trace, scale, scratch),
        "obs-span" => harness::run::<ObsSpan>(seed, seconds, trace, scale, scratch),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no workload {other:?}"),
        )),
    }
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn run(args: &Args, spec: &Spec) -> io::Result<()> {
    let scratch = Scratch::create()?;
    let env = Environment {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        rustc: env!("GLIDER_BENCH_RUSTC").to_string(),
        git_head: git_head(),
        scratch_fs: scratch::fs_type(scratch.path()),
        scratch_dir: scratch.path().display().to_string(),
    };
    let out_dir = scratch::out_dir();
    for name in workloads::NAMES {
        if args.workload.as_ref().is_some_and(|w| w != name) {
            continue;
        }
        let outcome = run_workload(
            name,
            args.seed,
            args.seconds,
            args.trace,
            Scale::Full,
            &scratch,
        )?;
        let probes = if args.trace {
            probes::run(args.seed, Scale::Full, &scratch)?
        } else {
            Vec::new()
        };
        let report = Report {
            spec,
            env: &env,
            workload: name,
            seed: args.seed,
            seconds: args.seconds,
            outcome: &outcome,
            probes: &probes,
        };
        print!("{}", report.tables());
        let record = out_dir.join(format!("run-{name}.json"));
        fs::write(&record, report.record().encode() + "\n")?;
        println!("run record: {}", record.display());
        if let Some(traced) = &outcome.traced {
            let spans = out_dir.join(format!("trace-{name}.json"));
            fs::write(
                &spans,
                tracer::spans_json(name, &traced.lists).encode() + "\n",
            )?;
            println!("spans: {}", spans.display());
        }
        println!("{}", report.result_line());
    }
    Ok(())
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(&spec, std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("glider-benchmark: {message}");
            eprintln!("usage: glider-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]");
            return ExitCode::from(2);
        }
    };
    match run(&args, &spec) {
        // Failed operations are reported in the result, not by the exit
        // code: the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("glider-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
