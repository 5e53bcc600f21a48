//! `benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in this process and prints every metric as
//! `name value unit`, every check, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The full result goes to
//! `out/<workload>-seed<N>-trace<0|1>.json` beside this package.
//!
//! `--child setup|single|readback` are the helper processes a run spawns
//! itself: a fresh process to time set-up, a one-participant pool for the
//! serial baseline, and the read-back of a recorded pass's files.

use std::path::PathBuf;
use std::process::ExitCode;

use bitdissem_benchsuite::run::{child_setup, child_single, run, Args};
use bitdissem_benchsuite::workload::{read_back, Workload};

const USAGE: &str =
    "usage: benchmark --workload converge|crossing|exact|recorded --seed N [--seconds S] [--trace 0|1]";

/// Default `--seconds` (matches `run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

enum Mode {
    Run(Args),
    ChildSetup(Workload, u64),
    ChildSingle(Workload, u64),
    ChildReadback(PathBuf),
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut child = None;
    let mut dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}, expected 0 or 1")),
                };
            }
            "--child" => child = Some(value.clone()),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if child.as_deref() == Some("readback") {
        return dir.map(Mode::ChildReadback).ok_or_else(|| "readback needs --dir".to_string());
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    match child.as_deref() {
        None => Ok(Mode::Run(Args { workload, seed, seconds, trace })),
        Some("setup") => Ok(Mode::ChildSetup(workload, seed)),
        Some("single") => Ok(Mode::ChildSingle(workload, seed)),
        Some(other) => Err(format!("unknown child mode {other:?}")),
    }
}

fn execute(mode: Mode) -> std::io::Result<()> {
    match mode {
        Mode::ChildSetup(w, seed) => child_setup(w, seed),
        Mode::ChildSingle(w, seed) => child_single(w, seed),
        Mode::ChildReadback(dir) => {
            println!("{}", read_back(&dir)?.to_line());
            Ok(())
        }
        Mode::Run(args) => {
            let report = run(&args)?;
            for line in report.lines() {
                println!("{line}");
            }
            println!("result {}", report.write(&args)?.display());
            println!("{}", report.summary_json().render());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(mode) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
