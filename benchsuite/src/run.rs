//! One benchmark run of one workload: an untimed warm-up pass, warm passes
//! for the requested time with set-up timed in fresh processes between
//! them, the checks, and the report.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use bitdissem_obs::json::Value;

use crate::checks::{workload_checks, Check};
use crate::metrics::{e2e_metrics, layer_metrics, Metric, RunData, TraceData};
use crate::stats::{peak_rss_mb, Spread};
use crate::trace::{spans_json, Span, Tracer};
use crate::workload::{setup, Workload};

/// Fewest warm passes an untraced run measures, however short `--seconds`.
pub const MIN_PASSES: usize = 3;
/// Set-up processes spawned before each warm pass of an untraced run, so the
/// set-up samples are spread over the run like the passes rather than
/// bunched at its start, where one burst of host load would shift them all.
pub const SETUP_SPAWNS_PER_PASS: usize = 8;

/// What one run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed every job's inputs derive from.
    pub seed: u64,
    /// How long the warm passes run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Correctness verdicts.
    pub checks: Vec<Check>,
    /// Spans of a traced run, empty otherwise.
    pub spans: Vec<Span>,
    /// Pool participants of the workload process.
    pub workers: usize,
}

/// Where result files and recorded passes' temporary directories go: `out/`
/// beside this package's manifest, inside the checkout it was built in.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark as `args` says.
///
/// # Errors
///
/// Fails on I/O errors: a child process that cannot be spawned or fails, or
/// recorder files that cannot be written or read back.
pub fn run(args: &Args) -> std::io::Result<Report> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> std::io::Result<Report> {
    let off = Tracer::disabled();
    let setup = setup(args.workload, args.seed, &out_dir(), &off)?;
    setup.pass(&off, true, 0)?;
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUP_SPAWNS_PER_PASS {
            setup_s.push(time_setup_child(args)?);
        }
        passes.push(setup.pass(&off, true, passes.len() + 1)?);
    }
    let peak_rss_mb =
        peak_rss_mb().ok_or_else(|| std::io::Error::other("VmHWM unavailable in /proc"))?;
    let checks = workload_checks(args.workload, &passes);
    let data =
        RunData { setup_s, passes: passes.into_iter().map(|p| p.stats).collect(), peak_rss_mb };
    Ok(Report { metrics: e2e_metrics(&data), checks, spans: Vec::new(), workers: setup.workers })
}

/// Interleaves traced, untraced and (on `recorded`) traced unrecorded
/// passes, so all three see the same machine state.
fn run_traced(args: &Args) -> std::io::Result<Report> {
    let tracer = Tracer::enabled();
    let off = Tracer::disabled();
    let (setup, setup_root) =
        tracer.span_indexed("bench.setup", || setup(args.workload, args.seed, &out_dir(), &tracer));
    let setup = setup?;
    setup.pass(&off, true, 0)?;
    let mut data = TraceData { setup_root, workers: setup.workers, ..TraceData::default() };
    let mut all = Vec::new();
    let t0 = Instant::now();
    while data.traced.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let traced = setup.pass(&tracer, true, all.len() + 1)?;
        data.traced.push((traced.stats.clone(), traced.root.expect("traced pass has a root")));
        all.push(traced);
        let untraced = setup.pass(&off, true, all.len() + 1)?;
        data.untraced_s.push(untraced.stats.seconds);
        all.push(untraced);
        if args.workload == Workload::Recorded {
            let twin = setup.pass(&tracer, false, all.len() + 1)?;
            data.unrecorded_s.push(twin.stats.seconds);
            all.push(twin);
        }
    }
    data.single_thread_s = single_thread_child(args)?;
    data.spans = tracer.spans();
    let checks = workload_checks(args.workload, &all);
    Ok(Report {
        metrics: layer_metrics(args.workload, &data),
        checks,
        spans: data.spans,
        workers: setup.workers,
    })
}

fn child_command(args: &Args, mode: &str) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", mode, "--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Set-up seconds of a fresh workload process, as the process timed them.
fn time_setup_child(args: &Args) -> std::io::Result<f64> {
    let out = child_command(args, "setup")?.output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().strip_prefix("ready ").map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() => Ok(s),
        _ => Err(std::io::Error::other(format!("set-up child failed: {}", out.status))),
    }
}

/// One warm pass in a fresh process whose pool has a single participant
/// (`BITDISSEM_POOL_WORKERS=0`): the serial baseline for `pool.speedup`.
fn single_thread_child(args: &Args) -> std::io::Result<f64> {
    let out = child_command(args, "single")?.env("BITDISSEM_POOL_WORKERS", "0").output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(std::io::Error::other(format!("single-thread child failed: {}", out.status))),
    }
}

/// Child process: build the workload's inputs, then print `ready <seconds>`
/// with the set-up's own wall time. Timing inside the child keeps the
/// kernel's fork, exec and pipe latency, which no change to the program can
/// move, out of `setup_s`.
///
/// # Errors
///
/// Fails when set-up fails or stdout is closed.
pub fn child_setup(workload: Workload, seed: u64) -> std::io::Result<()> {
    let t0 = Instant::now();
    let _setup = setup(workload, seed, &out_dir(), &Tracer::disabled())?;
    let seconds = t0.elapsed().as_secs_f64();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {seconds}")?;
    out.flush()
}

/// Child process: a warm-up pass, then one timed pass; prints its seconds.
///
/// # Errors
///
/// Fails when a pass fails.
pub fn child_single(workload: Workload, seed: u64) -> std::io::Result<()> {
    let off = Tracer::disabled();
    let setup = setup(workload, seed, &out_dir(), &off)?;
    setup.pass(&off, true, 0)?;
    let pass = setup.pass(&off, true, 1)?;
    println!("{}", pass.stats.seconds);
    Ok(())
}

fn metadata_value(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Report {
    /// Human-readable lines: every metric with its unit and samples, then
    /// every check.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                if m.samples.is_empty() {
                    format!("{} {} {}", m.name, m.value, m.unit)
                } else {
                    let s = Spread::of(&m.samples);
                    format!(
                        "{} {} {} (n={}, q1={}, q3={})",
                        m.name, m.value, m.unit, s.n, s.q1, s.q3
                    )
                }
            })
            .collect();
        for c in &self.checks {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            lines.push(format!("check {} {verdict}: {}", c.name, c.detail));
        }
        lines
    }

    /// The final stdout line: verdict, check counts and every metric.
    #[must_use]
    pub fn summary_json(&self) -> Value {
        let attempted = self.checks.len();
        let failed = self.checks.iter().filter(|c| !c.pass).count();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(failed == 0)),
            ("attempted".into(), Value::Int(attempted as i128)),
            ("failed".into(), Value::Int(failed as i128)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// The full result file: the run's parameters, the machine, every
    /// metric with its samples, every check and (traced) every span.
    #[must_use]
    pub fn result_json(&self, args: &Args) -> Value {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| {
            if std::path::Path::new(".git").exists() {
                metadata_value("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            }
        });
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".into(), Value::Str(m.name.into())),
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ];
                if !m.samples.is_empty() {
                    let s = Spread::of(&m.samples);
                    fields.push(("q1".into(), Value::Num(s.q1)));
                    fields.push(("q3".into(), Value::Num(s.q3)));
                    let xs = m.samples.iter().map(|&x| Value::Num(x)).collect();
                    fields.push(("samples".into(), Value::Arr(xs)));
                }
                Value::Obj(fields)
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("pass".into(), Value::Bool(c.pass)),
                    ("detail".into(), Value::Str(c.detail.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::Int(i128::from(args.seed))),
            ("seconds".into(), Value::Num(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("nproc".into(), Value::Int(nproc as i128)),
            ("pool_workers".into(), Value::Int(self.workers as i128)),
            ("commit".into(), Value::Str(commit)),
            ("rustc".into(), Value::Str(metadata_value("rustc", &["-V"]))),
            ("metrics".into(), Value::Arr(metrics)),
            ("checks".into(), Value::Arr(checks)),
            ("spans".into(), spans_json(&self.spans)),
        ])
    }

    /// Writes [`Report::result_json`] to
    /// `out/<workload>-seed<seed>-trace<0|1>.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write(&self, args: &Args) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, self.result_json(args).render() + "\n")?;
        Ok(path)
    }
}
