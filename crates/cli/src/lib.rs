//! Library backing the `bitdissem` command-line tool.
//!
//! Subcommands:
//!
//! * `list` — the experiment registry;
//! * `run <id> [--scale smoke|standard|full] [--seed N] [--threads T]
//!   [--env SPEC] [--csv] [--trace-out PATH] [--trace-format F]
//!   [--trace-every N] [--metrics] [--progress] [--checkpoint-dir DIR]
//!   [--resume] [--telemetry-*]` — run an experiment and print its report,
//!   optionally writing a trace, printing run metrics to stderr, and
//!   persisting per-replication checkpoints (so an interrupted sweep can be
//!   resumed with `--resume`);
//! * `analyze <protocol> [--ell L] [--n N]` — bias polynomial, roots, sign
//!   intervals and the Theorem-12 witness of a protocol;
//! * `simulate <protocol> [--ell L] [--n N] [--seed S] [--budget B]
//!   [--sequential]` — one adversarial run with a trajectory summary;
//! * `exact <protocol> [--ell L] [--n N]` — exact expected hitting times
//!   (small `n`);
//! * `markov [--grid P:L,…] [--ns N1,N2,…] [--eps E] [--t-max T]
//!   [--mix-max M] [--verify-n V] [--label L] [--out DIR]` — exact
//!   large-`n` analytics on the ε-truncated sparse chain: hitting times
//!   (banded LU), mixing rounds, survival quantiles and curves, spectral
//!   gaps at small `n`, a sparse-vs-dense verification gate, and a
//!   versioned `MARKOV_<label>.json` record;
//! * `bench --base REV --seeds A..B [--workload W,…] [--label L] [--out DIR]`
//!   — the paired A/B of `benchsuite/` at REV against the working tree:
//!   one pair of runs per workload and seed, a verdict per (workload,
//!   end-to-end metric), and a schema-versioned `BENCH_<label>.json`;
//! * `trace <run.jsonl>` — offline analytics over a recorded trace:
//!   consensus-time and latency summaries plus theory-conformance checks
//!   (Proposition 4 jump bound, Proposition 5 drift band);
//! * `conform [--scale S] [--seed N] [--label L] [--out DIR]
//!   [--skip-faults] [--env SPEC]` — the differential conformance
//!   matrix: every simulator backend driven from identical grids, KS-gated
//!   against a shared false-alarm budget, plus checkpoint fault-injection
//!   scenarios; writes a schema-versioned `CONFORM_<label>.json`;
//! * `watch (--socket PATH [--snapshots N] | --prom FILE [--reconcile M.jsonl])`
//!   — live telemetry view over a run's `--telemetry-socket` stream, or a
//!   one-shot Prometheus exposition check with optional reconciliation
//!   against the counter deltas recorded in a sweep's `manifests.jsonl`.
//!
//! An option missing from a subcommand's synopsis is a usage error (exit
//! status 2, naming the option). All output goes through a returned
//! `String` so the commands are unit testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod bench;

use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

use bitdissem_analysis::{BiasPolynomial, LowerBoundWitness, RootStructure};
use bitdissem_conformance::{
    run_differential, run_fault_scenarios, sparse_dense_check, ConformConfig, ConformReport,
    ConformScale, CONFORM_SCHEMA_VERSION,
};
use bitdissem_core::dynamics::{self, BoxedProtocol};
use bitdissem_core::{Protocol, ProtocolExt};
use bitdissem_experiments::trace::TraceAccumulator;
use bitdissem_experiments::{registry, RunConfig, Scale};
use bitdissem_markov::absorbing::{expected_hitting_times, quantile_from_survival};
use bitdissem_markov::{
    expected_hitting_times_sparse, mixing_time_extremes_sparse, spectral_gap,
    survival_curve_sparse, AggregateChain, SparseChain,
};
use bitdissem_obs::durable::atomic_replace;
use bitdissem_obs::json::Value;
use bitdissem_obs::{
    detect_format, stream_trace, CheckpointLog, ColumnarReader, ColumnarSink, EventSink, JsonlSink,
    Obs, Progress, TraceFormat,
};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::rng::rng_from;
use bitdissem_sim::run::{Outcome, Simulator};
use bitdissem_sim::sequential::SequentialSim;
use bitdissem_sim::trajectory::Trajectory;
use bitdissem_stats::table::fmt_num;

use args::Args;

/// Exit status of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Command succeeded.
    Ok,
    /// Command ran but a directional check failed.
    CheckFailed,
    /// Bad usage.
    UsageError,
}

impl Status {
    /// Process exit code.
    #[must_use]
    pub fn code(self) -> i32 {
        match self {
            Status::Ok => 0,
            Status::CheckFailed => 1,
            Status::UsageError => 2,
        }
    }
}

/// Usage text.
#[must_use]
pub fn usage() -> String {
    "bitdissem — reproduction of 'On the Limits of Information Spread by Memory-less Agents'\n\
     \n\
     usage:\n\
     \x20 bitdissem list\n\
     \x20 bitdissem run <experiment-id|all> [--scale smoke|standard|full] [--seed N]\n\
     \x20\x20\x20\x20 [--threads T] [--env SPEC] [--csv] [--trace-out PATH] [--trace-format F]\n\
     \x20\x20\x20\x20 [--trace-every N] [--metrics] [--progress]\n\
     \x20\x20\x20\x20 [--checkpoint-dir DIR] [--resume] [--telemetry-prom F] [--telemetry-out F]\n\
     \x20\x20\x20\x20 [--telemetry-socket S] [--telemetry-interval-ms N]\n\
     \x20 bitdissem analyze <protocol> [--ell L] [--n N]\n\
     \x20 bitdissem simulate <protocol> [--ell L] [--n N] [--seed S] [--budget B] [--sequential]\n\
     \x20 bitdissem exact <protocol> [--ell L] [--n N]\n\
     \x20 bitdissem markov [--grid voter:1,minority:3] [--ns 1024,8192] [--eps E] [--t-max T]\n\
     \x20\x20\x20\x20 [--mix-max M] [--verify-n V] [--label L] [--out DIR]\n\
     \x20 bitdissem bench --base REV --seeds A..B [--workload W,...] [--label L] [--out DIR]\n\
     \x20 bitdissem trace <run.jsonl|run.bct>\n\
     \x20 bitdissem trace convert <in> <out>\n\
     \x20 bitdissem conform [--scale smoke|standard|full] [--seed N] [--label L] [--out DIR]\n\
     \x20\x20\x20\x20 [--skip-faults] [--env SPEC]\n\
     \x20 bitdissem watch (--socket PATH [--snapshots N] | --prom FILE [--reconcile M.jsonl])\n\
     \n\
     conformance (conform):\n\
     \x20 drives every simulator backend (agent, aggregate, sequential, partial, dual) from\n\
     \x20 identical grids and KS-gates their law equivalences against a 1e-9 false-alarm\n\
     \x20 budget, then injects checkpoint I/O faults (torn lines, short writes, transient\n\
     \x20 errors, worker kill) and verifies bit-identical resume. Writes CONFORM_<label>.json\n\
     \x20 to --out (default: current directory); exit status 1 on any failed check.\n\
     \x20 --skip-faults      run only the differential matrix (no scratch files)\n\
     \x20 --env SPEC         replace the preset env section's schedules with SPEC: every\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 parallel backend is KS-gated under that exact perturbation\n\
     \n\
     environment schedules (run, conform):\n\
     \x20 --env SPEC         inject perturbations between rounds; comma-separated clauses:\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 flip@T / flip@every:P         source flips its opinion\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 noise:ETA                     per-round agent re-randomization\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 reset:k=K@T|every:P|adaptive[:TH]  adversarial reset of k agents\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 e.g. --env flip@500  --env noise:0.01  --env reset:k=100@adaptive\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 for run: recorded in manifests; perturbed batches checkpoint\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 under their own batch kind, so --resume never splices static\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 results into a perturbed sweep\n\
     \n\
     exact large-n analytics (markov):\n\
     \x20 builds the ε-truncated sparse aggregate chain for every (protocol, n) grid point\n\
     \x20 and computes exact analytics that the dense solver cannot reach: expected hitting\n\
     \x20 times via banded LU, extreme-start mixing rounds, the survival curve of the\n\
     \x20 consensus time with exact median/p90, and (for n ≤ 2048) the spectral gap.\n\
     \x20 Writes a schema-versioned MARKOV_<label>.json to --out.\n\
     \x20 --grid P:L,P:L     protocols with sample sizes, e.g. voter:1,minority:3\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 (default voter:1; bare names mean ell = 1)\n\
     \x20 --ns N1,N2         population sizes in [2, 100000] (default 1024,8192; n = 1e5\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 stays under CI time)\n\
     \x20 --eps E            relative row-truncation cutoff in (0,1) (default 1e-12)\n\
     \x20 --t-max T          survival-curve horizon in rounds (default min(4n, 20000); 0 skips)\n\
     \x20 --mix-max M        mixing-round cap (default 10000; 0 skips — slow-mixing chains\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 pay the full cap before reporting 'not mixed')\n\
     \x20 --verify-n V       cross-check sparse rows against the dense chain at n = V before\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 reporting (default 64, range [2,512]; 0 skips). exit status 1\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 if any row disagrees beyond the tracked tail bound\n\
     \n\
     performance A/B (bench):\n\
     \x20 builds benchsuite/'s benchmark binary from REV's tree and from the working tree\n\
     \x20 (both unpacked into .bench_build/src/, binaries cached per tree in .bench_build/),\n\
     \x20 runs the two one after the other for every workload and seed (the base first on\n\
     \x20 even-indexed seeds) for BENCHMARK.json's run_seconds, and reads a verdict per\n\
     \x20 (workload, end-to-end metric) from the pairs. Writes BENCH_<label>.json; exit\n\
     \x20 status 1 on any regressed verdict.\n\
     \x20 --base REV         the commit to compare against; benchsuite/ and BENCHMARK.json\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 must match the working tree\n\
     \x20 --seeds A..B       inclusive seed range; one pair per workload and seed\n\
     \x20 --workload W,...   workloads from BENCHMARK.json (default: all)\n\
     \x20 --label L          name the record BENCH_<L>.json (default: ab)\n\
     \x20 --out DIR          directory for the record (default: current directory)\n\
     \x20 verdicts: improved = at least 10 pairs, the change wins 9/10 of them (ties count\n\
     \x20 for neither) and its median beats the base's by more than the base IQR;\n\
     \x20 regressed = the mirror image, or a median worse by more than the metric's bound\n\
     \x20 while the base IQR is within it, or more failed checks than the base (at any\n\
     \x20 number of pairs); unresolved = otherwise, and for values always below 10 pairs\n\
     \n\
     trace analytics (trace):\n\
     \x20 exit status 1 when a recorded trajectory violates the paper's Prop-4 jump\n\
     \x20 bound or Prop-5 drift band; requires a trace recorded with --trace-out.\n\
     \x20 The input format (JSONL or binary columnar) is detected from the file's\n\
     \x20 leading bytes; 'trace convert' rewrites a trace in the other format\n\
     \n\
     observability (run):\n\
     \x20 --trace-out PATH   record a trace (rounds, replications, manifest)\n\
     \x20 --trace-format F   trace encoding: 'jsonl' (one JSON event per line, default,\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 debuggable) or 'columnar' (binary columns, for large runs)\n\
     \x20 --trace-every N    thin per-round events to every N-th round (default 1)\n\
     \x20 --metrics          print counters and per-phase timings to stderr\n\
     \x20 --progress         live replication meter on stderr\n\
     \x20 --checkpoint-dir D persist per-replication results to D/checkpoint.jsonl and\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 run manifests to D/manifests.jsonl\n\
     \x20 --resume           skip replications already in the checkpoint log\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 (requires --checkpoint-dir; results stay bit-identical)\n\
     \n\
     live telemetry (run; any flag implies --metrics collection):\n\
     \x20 --telemetry-prom F      rewrite a Prometheus text exposition atomically on every\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 snapshot (scrape F, or check it with 'watch --prom F')\n\
     \x20 --telemetry-out F       append snapshots to a binary columnar trace ('bitdissem\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 trace F' analyzes it like any other trace)\n\
     \x20 --telemetry-socket S    publish snapshots as JSON lines on a unix socket\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 ('bitdissem watch --socket S' is the live client)\n\
     \x20 --telemetry-interval-ms N  snapshot interval (default 250)\n\
     \n\
     live view (watch):\n\
     \x20 --socket PATH      stream snapshots from a run's --telemetry-socket; redraws\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 rates, ETA, span/latency quantiles, steal ratio live\n\
     \x20 --snapshots N      stop after N snapshots (default: until the run ends)\n\
     \x20 --prom FILE        parse a --telemetry-prom exposition and print its counters\n\
     \x20 --reconcile M      with --prom: check exposition totals equal the summed\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 per-experiment counter deltas in a manifests.jsonl ledger;\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 exit status 1 on any mismatch\n\
     \n\
     protocols: voter, minority, majority, two-choices, lazy-voter, power-voter, anti-voter, stay\n"
        .to_string()
}

fn build_protocol(args: &Args) -> Result<BoxedProtocol, String> {
    let name = args.positional.first().ok_or_else(|| "missing protocol name".to_string())?;
    let ell: usize = args.get_parsed("ell", 3)?;
    match dynamics::by_name(name, ell) {
        Some(Ok(p)) => Ok(p),
        Some(Err(e)) => Err(format!("invalid parameters for '{name}': {e}")),
        None => Err(format!("unknown protocol '{name}'")),
    }
}

/// Full result of one command: report text for stdout, diagnostics
/// (metrics, progress residue) for stderr, and the exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Report text, destined for stdout.
    pub stdout: String,
    /// Diagnostics (metrics summaries), destined for stderr.
    pub stderr: String,
    /// Exit status.
    pub status: Status,
}

impl CommandOutput {
    fn ok(stdout: String, status: Status) -> Self {
        CommandOutput { stdout, stderr: String::new(), status }
    }
}

/// Runs a parsed command and returns `(output, status)`, with any stderr
/// diagnostics appended to the output text. Prefer [`dispatch_full`] when
/// the two streams must stay separate (as the binary does).
#[must_use]
pub fn dispatch(args: &Args) -> (String, Status) {
    let out = dispatch_full(args);
    (out.stdout + &out.stderr, out.status)
}

/// Every option each subcommand accepts: the ones its synopsis lists.
/// `trace convert` shares the (empty) list of `trace`.
const OPTIONS: [(&str, &[&str]); 10] = [
    ("list", &[]),
    (
        "run",
        &[
            "scale",
            "seed",
            "threads",
            "env",
            "csv",
            "trace-out",
            "trace-format",
            "trace-every",
            "metrics",
            "progress",
            "checkpoint-dir",
            "resume",
            "telemetry-prom",
            "telemetry-out",
            "telemetry-socket",
            "telemetry-interval-ms",
        ],
    ),
    ("analyze", &["ell", "n"]),
    ("simulate", &["ell", "n", "seed", "budget", "sequential"]),
    ("exact", &["ell", "n"]),
    ("markov", &["grid", "ns", "eps", "t-max", "mix-max", "verify-n", "label", "out"]),
    ("bench", &["base", "seeds", "workload", "label", "out"]),
    ("trace", &[]),
    ("conform", &["scale", "seed", "label", "out", "skip-faults", "env"]),
    ("watch", &["socket", "snapshots", "prom", "reconcile"]),
];

/// Runs a parsed command keeping stdout and stderr separate.
#[must_use]
pub fn dispatch_full(args: &Args) -> CommandOutput {
    let listed = OPTIONS.iter().find(|(name, _)| args.command.as_deref() == Some(*name));
    if let Some((command, known)) = listed {
        if let Err(e) = args.check_options(command, known) {
            return usage_error(e + "\n");
        }
    }
    match args.command.as_deref() {
        None | Some("help") => CommandOutput::ok(usage(), Status::Ok),
        Some("list") => cmd_list(),
        Some("run") => cmd_run(args),
        Some("analyze") => cmd_analyze(args),
        Some("simulate") => cmd_simulate(args),
        Some("exact") => cmd_exact(args),
        Some("markov") => cmd_markov(args),
        Some("bench") => bench::cmd_bench(args),
        Some("trace") => cmd_trace(args),
        Some("conform") => cmd_conform(args),
        Some("watch") => cmd_watch(args),
        Some(other) => CommandOutput::ok(
            format!("unknown command '{other}'\n\n{}", usage()),
            Status::UsageError,
        ),
    }
}

fn cmd_list() -> CommandOutput {
    let mut out = String::from("registered experiments:\n");
    for e in registry::all() {
        let _ = writeln!(out, "  {:<4} {}", e.id, e.description);
    }
    CommandOutput::ok(out, Status::Ok)
}

fn usage_error(msg: impl Into<String>) -> CommandOutput {
    CommandOutput::ok(msg.into(), Status::UsageError)
}

fn build_obs(args: &Args) -> Result<Obs, String> {
    let mut obs = Obs::none();
    let format = match args.get("trace-format") {
        None | Some("jsonl") => TraceFormat::Jsonl,
        Some("columnar") => TraceFormat::Columnar,
        Some(other) => {
            return Err(format!("unknown --trace-format '{other}' (expected jsonl or columnar)"))
        }
    };
    if let Some(path) = args.get("trace-out") {
        if path.is_empty() {
            return Err("--trace-out needs a file path".to_string());
        }
        let sink: Arc<dyn EventSink> = match format {
            TraceFormat::Jsonl => Arc::new(
                JsonlSink::create(path)
                    .map_err(|e| format!("cannot create trace file '{path}': {e}"))?,
            ),
            TraceFormat::Columnar => Arc::new(
                ColumnarSink::create(path)
                    .map_err(|e| format!("cannot create trace file '{path}': {e}"))?,
            ),
        };
        obs = obs.with_sink(sink);
    } else if args.get("trace-format").is_some() {
        return Err("--trace-format requires --trace-out".to_string());
    }
    // Telemetry exporters read the shared metric cells, so any
    // --telemetry-* flag implies collection even without --metrics.
    if args.flag("metrics") || wants_telemetry(args) {
        obs = obs.with_metrics();
    }
    if args.flag("progress") {
        obs = obs.with_progress(Arc::new(Progress::new("replications", 0)));
    }
    if let Some(dir) = args.get("checkpoint-dir") {
        if dir.is_empty() {
            return Err("--checkpoint-dir needs a directory path".to_string());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint directory '{dir}': {e}"))?;
        let path = std::path::Path::new(dir).join("checkpoint.jsonl");
        // A fresh run truncates the log (stale entries from a different
        // invocation must not be replayed); --resume reopens it.
        let log = if args.flag("resume") {
            CheckpointLog::open(&path)
        } else {
            CheckpointLog::create(&path)
        }
        .map_err(|e| format!("cannot open checkpoint log '{}': {e}", path.display()))?;
        obs = obs.with_checkpoint(Arc::new(log));
    } else if args.flag("resume") {
        return Err("--resume requires --checkpoint-dir".to_string());
    }
    let stride: u64 = args.get_parsed("trace-every", 1)?;
    Ok(obs.with_round_stride(stride))
}

/// Whether any telemetry exporter flag is present.
fn wants_telemetry(args: &Args) -> bool {
    ["telemetry-prom", "telemetry-out", "telemetry-socket"].iter().any(|k| args.get(k).is_some())
}

/// Builds the exporter stack from the `--telemetry-*` flags and starts
/// the snapshot thread. Returns `None` when no exporter flag is present,
/// so plain runs never pay for a snapshot thread.
fn start_cli_telemetry(
    args: &Args,
    obs: &Obs,
) -> Result<Option<bitdissem_obs::TelemetryHandle>, String> {
    use bitdissem_obs::telemetry::{ColumnarTelemetryExporter, PrometheusExporter};
    let mut exporters: Vec<Box<dyn bitdissem_obs::TelemetryExporter>> = Vec::new();
    if let Some(path) = args.get("telemetry-prom") {
        if path.is_empty() {
            return Err("--telemetry-prom needs a file path".to_string());
        }
        exporters.push(Box::new(PrometheusExporter::new(std::path::Path::new(path))));
    }
    if let Some(path) = args.get("telemetry-out") {
        if path.is_empty() {
            return Err("--telemetry-out needs a file path".to_string());
        }
        let exporter = ColumnarTelemetryExporter::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot create telemetry trace '{path}': {e}"))?;
        exporters.push(Box::new(exporter));
    }
    if let Some(path) = args.get("telemetry-socket") {
        if path.is_empty() {
            return Err("--telemetry-socket needs a socket path".to_string());
        }
        #[cfg(unix)]
        {
            let publisher =
                bitdissem_obs::telemetry::SocketPublisher::bind(std::path::Path::new(path))
                    .map_err(|e| format!("cannot bind telemetry socket '{path}': {e}"))?;
            exporters.push(Box::new(publisher));
        }
        #[cfg(not(unix))]
        return Err("--telemetry-socket requires a unix platform".to_string());
    }
    if exporters.is_empty() {
        if args.get("telemetry-interval-ms").is_some() {
            return Err("--telemetry-interval-ms requires a telemetry exporter flag".to_string());
        }
        return Ok(None);
    }
    let interval_ms: u64 = args.get_parsed("telemetry-interval-ms", 250)?;
    Ok(Some(bitdissem_obs::start_telemetry(
        Arc::clone(obs.metrics()),
        obs.progress().cloned(),
        std::time::Duration::from_millis(interval_ms),
        exporters,
    )))
}

/// Appends each run's manifest to `<dir>/manifests.jsonl`, giving a
/// checkpointed sweep a durable provenance record alongside its results.
/// The append is committed atomically (write-to-temp + rename) so a crash
/// can never tear the ledger; manifests are low-frequency, so the
/// read-rewrite cost is irrelevant.
fn append_manifest(dir: &str, manifest: &bitdissem_obs::RunManifest) {
    let path = std::path::Path::new(dir).join("manifests.jsonl");
    let _ = bitdissem_obs::durable::atomic_append_line(&path, &manifest.to_json());
}

/// Parses the `--env` perturbation-schedule flag shared by `run` and
/// `conform`.
fn parse_env_flag(args: &Args) -> Result<Option<bitdissem_sim::EnvSchedule>, String> {
    match args.get("env") {
        None => Ok(None),
        Some(spec) => spec
            .parse()
            .map(Some)
            .map_err(|e| format!("{e} (grammar: flip@T, flip@every:P, noise:ETA, reset:k=K@T|every:P|adaptive[:TH], comma-separated)")),
    }
}

fn cmd_run(args: &Args) -> CommandOutput {
    let id = match args.positional.first() {
        Some(id) => id.clone(),
        None => return usage_error("missing experiment id\n"),
    };
    let scale = match args.get("scale").map(Scale::from_str).transpose() {
        Ok(s) => s.unwrap_or(Scale::Standard),
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let seed = match args.get_parsed("seed", 2024u64) {
        Ok(s) => s,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let threads = match args.get_parsed("threads", 0usize) {
        Ok(0) => None,
        Ok(t) => Some(t),
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let env = match parse_env_flag(args) {
        Ok(env) => env,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let mut cfg = RunConfig { scale, seed, threads, env: None };
    if let Some(env) = env {
        cfg = cfg.with_env(env);
    }
    let obs = match build_obs(args) {
        Ok(obs) => obs,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let telemetry = match start_cli_telemetry(args, &obs) {
        Ok(t) => t,
        Err(e) => return usage_error(format!("{e}\n")),
    };

    let ids: Vec<String> = if id == "all" {
        registry::all().iter().map(|e| e.id.to_string()).collect()
    } else {
        vec![id]
    };
    let mut out = String::new();
    let mut stderr = String::new();
    let mut all_pass = true;
    for id in ids {
        match registry::run_observed(&id, &cfg, &obs) {
            Some(report) => {
                if args.flag("csv") {
                    for (caption, table) in &report.tables {
                        let _ = writeln!(out, "# {}: {caption}", report.id);
                        out.push_str(&table.to_csv());
                    }
                } else {
                    out.push_str(&report.render());
                    out.push('\n');
                }
                if let Some(manifest) = &report.manifest {
                    if args.flag("metrics") {
                        let _ = writeln!(stderr, "manifest: {}", manifest.to_json());
                    }
                    if let Some(dir) = args.get("checkpoint-dir") {
                        append_manifest(dir, manifest);
                    }
                }
                all_pass &= report.pass;
            }
            None => return usage_error(format!("unknown experiment '{id}' (try 'list')\n")),
        }
    }
    if let Some(progress) = obs.progress() {
        progress.finish();
    }
    // Stop after every experiment finished: the final snapshot then
    // carries the run's complete totals, which reconcile exactly with the
    // summed per-experiment counter deltas in manifests.jsonl.
    if let Some(handle) = telemetry {
        handle.stop();
    }
    if args.flag("metrics") {
        stderr.push_str(&obs.metrics().render());
    }
    let status = if all_pass { Status::Ok } else { Status::CheckFailed };
    CommandOutput { stdout: out, stderr, status }
}

fn cmd_conform(args: &Args) -> CommandOutput {
    let scale = match args.get("scale").map(ConformScale::from_str).transpose() {
        Ok(s) => s.unwrap_or(ConformScale::Smoke),
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let seed = match args.get_parsed("seed", 42u64) {
        Ok(s) => s,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let label = args.get("label").unwrap_or(scale.name()).to_string();
    let out_dir = args.get("out").unwrap_or(".").to_string();

    let mut cfg = ConformConfig::for_scale(scale);
    match parse_env_flag(args) {
        // An explicit schedule replaces the preset env section: the whole
        // matrix then gates every parallel backend under exactly that
        // perturbation (canonicalized through its fingerprint).
        Ok(Some(env)) => cfg.env_specs = vec![env.fingerprint()],
        Ok(None) => {}
        Err(e) => return usage_error(format!("{e}\n")),
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "running conformance matrix at scale {} (seed {seed}): {} KS checks at per-test alpha {:.2e} (env: {})",
        scale.name(),
        cfg.num_checks(),
        cfg.per_test_alpha(),
        cfg.env_specs.join(" "),
    );
    let checks = run_differential(&cfg, seed);

    let faults = if args.flag("skip-faults") {
        Vec::new()
    } else {
        let fault_dir = std::path::Path::new(&out_dir).join("conform-faults");
        if let Err(e) = std::fs::create_dir_all(&fault_dir) {
            return usage_error(format!(
                "cannot create fault-scenario directory '{}': {e}\n",
                fault_dir.display()
            ));
        }
        run_fault_scenarios(&fault_dir, seed)
    };

    let report = ConformReport {
        schema_version: CONFORM_SCHEMA_VERSION,
        label,
        scale: scale.name().to_string(),
        seed,
        alpha_budget: cfg.alpha_budget,
        checks,
        faults,
    };
    out.push_str(&report.render());
    let path = match report.save(std::path::Path::new(&out_dir)) {
        Ok(p) => p,
        Err(e) => {
            return usage_error(format!("cannot write conformance report in '{out_dir}': {e}\n"))
        }
    };
    let _ = writeln!(out, "wrote {} (schema v{})", path.display(), report.schema_version);
    let status = if report.pass() { Status::Ok } else { Status::CheckFailed };
    CommandOutput::ok(out, status)
}

/// Sniffs the trace format at `path`, mapping both I/O failures and
/// unrecognized contents to a user-facing error string.
fn sniff_trace(path: &str) -> Result<TraceFormat, String> {
    match detect_format(std::path::Path::new(path)) {
        Ok(Some(f)) => Ok(f),
        Ok(None) => Err(format!(
            "cannot read trace '{path}': not a trace file \
             (expected the columnar BDCT magic or JSONL events)\n"
        )),
        Err(e) => Err(format!("cannot read trace '{path}': {e}\n")),
    }
}

fn cmd_trace(args: &Args) -> CommandOutput {
    if args.positional.first().map(String::as_str) == Some("convert") {
        return cmd_trace_convert(args);
    }
    let Some(path) = args.positional.first() else {
        return usage_error(
            "missing trace path (a JSONL or columnar file recorded with --trace-out)\n",
        );
    };
    let format = match sniff_trace(path) {
        Ok(f) => f,
        Err(e) => return usage_error(e),
    };
    let mut acc = TraceAccumulator::new();
    let (skipped, torn_tail) = match format {
        TraceFormat::Jsonl => {
            // One buffered pass, events pushed straight into the
            // accumulator — O(line) memory.
            match stream_trace(std::path::Path::new(path), |ev| acc.push(&ev)) {
                Ok(stats) => (stats.skipped, stats.torn_tail),
                Err(e) => return usage_error(format!("cannot read trace '{path}': {e}\n")),
            }
        }
        TraceFormat::Columnar => match ColumnarReader::open(std::path::Path::new(path)) {
            Ok(reader) => {
                // Zero-copy pass: typed column views feed the
                // accumulator without materializing events.
                for block in reader.blocks() {
                    acc.ingest_block(&block);
                }
                (0, reader.torn_tail())
            }
            Err(e) => return usage_error(format!("cannot read trace '{path}': {e}\n")),
        },
    };
    let mut out = String::new();
    if torn_tail {
        let _ = writeln!(
            out,
            "note: trace ends in a torn {} (the writer was cut off mid-record); \
             analytics cover the complete prefix",
            match format {
                TraceFormat::Jsonl => "line",
                TraceFormat::Columnar => "block",
            }
        );
    }
    let analysis = acc.finish(skipped);
    out.push_str(&analysis.render());
    let status = if analysis.has_violations() { Status::CheckFailed } else { Status::Ok };
    CommandOutput::ok(out, status)
}

/// `trace convert <in> <out>`: rewrites a trace in the other format
/// (JSONL → columnar, columnar → JSONL), preserving event order.
fn cmd_trace_convert(args: &Args) -> CommandOutput {
    let (Some(input), Some(output)) = (args.positional.get(1), args.positional.get(2)) else {
        return usage_error("usage: bitdissem trace convert <in> <out>\n");
    };
    let format = match sniff_trace(input) {
        Ok(f) => f,
        Err(e) => return usage_error(e),
    };
    let target = match format {
        TraceFormat::Jsonl => TraceFormat::Columnar,
        TraceFormat::Columnar => TraceFormat::Jsonl,
    };
    // A columnar input is scanned before the output is created, so that
    // a trace this build cannot read leaves no empty output behind.
    let columnar = match format {
        TraceFormat::Jsonl => None,
        TraceFormat::Columnar => match ColumnarReader::open(std::path::Path::new(input)) {
            Ok(reader) => Some(reader),
            Err(e) => return usage_error(format!("cannot read trace '{input}': {e}\n")),
        },
    };
    let sink: Arc<dyn EventSink> = match target {
        TraceFormat::Jsonl => match JsonlSink::create(output) {
            Ok(s) => Arc::new(s),
            Err(e) => return usage_error(format!("cannot create trace file '{output}': {e}\n")),
        },
        TraceFormat::Columnar => match ColumnarSink::create(output) {
            Ok(s) => Arc::new(s),
            Err(e) => return usage_error(format!("cannot create trace file '{output}': {e}\n")),
        },
    };
    let mut events = 0usize;
    let (skipped, torn_tail) = match columnar {
        None => {
            match stream_trace(std::path::Path::new(input), |ev| {
                events += 1;
                sink.emit(&ev);
            }) {
                Ok(stats) => (stats.skipped, stats.torn_tail),
                Err(e) => return usage_error(format!("cannot read trace '{input}': {e}\n")),
            }
        }
        Some(reader) => {
            for ev in reader.events() {
                events += 1;
                sink.emit(&ev);
            }
            (0, reader.torn_tail())
        }
    };
    sink.flush();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "converted {events} events: {} ({}) -> {} ({})",
        input,
        format.name(),
        output,
        target.name()
    );
    if skipped > 0 {
        let _ = writeln!(out, "note: {skipped} undecodable lines skipped");
    }
    if torn_tail {
        let _ = writeln!(
            out,
            "note: input ends in a torn record; the conversion covers the complete prefix"
        );
    }
    CommandOutput::ok(out, Status::Ok)
}

fn cmd_analyze(args: &Args) -> CommandOutput {
    let protocol = match build_protocol(args) {
        Ok(p) => p,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    // The engines index per-state caches by 2x + z, so n must stay below 2^63.
    let n = match args.get_parsed("n", 4096u64) {
        Ok(n) if (8..1 << 63).contains(&n) => n,
        Ok(_) => return usage_error("--n must be at least 8 and below 2^63\n".to_string()),
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let mut out = String::new();
    let _ = writeln!(out, "protocol: {} at n = {n}", protocol.name());
    let f = match BiasPolynomial::build(&protocol, n) {
        Ok(f) => f,
        Err(e) => return usage_error(format!("cannot build bias polynomial: {e}\n")),
    };
    let _ = writeln!(out, "bias polynomial: F_n(p) = {}", f.as_polynomial());
    let rs = RootStructure::analyze(&f);
    if rs.is_identically_zero() {
        let _ = writeln!(out, "F_n is identically zero (voter-like, Lemma 11)");
    } else {
        let _ = writeln!(out, "roots in [0,1]: {:?}", rs.roots());
        for &(lo, hi, s) in rs.sign_intervals() {
            let _ = writeln!(
                out,
                "  F_n is {} on ({lo:.4}, {hi:.4})",
                if s > 0 { "positive" } else { "negative" }
            );
        }
    }
    let w = LowerBoundWitness::from_bias(&f);
    let _ = writeln!(out, "witness: {}", w.case());
    let (a1, a2, a3) = w.interval_constants();
    let _ = writeln!(out, "  (a1, a2, a3) = ({a1:.4}, {a2:.4}, {a3:.4})");
    let _ = writeln!(out, "  adversarial start: {}", w.start());
    let _ = writeln!(out, "  slow threshold: X = {}", w.threshold());
    let _ = writeln!(
        out,
        "  Theorem 1 predicts >= n^0.9 = {:.0} rounds to cross",
        w.predicted_min_rounds(0.1)
    );
    CommandOutput::ok(out, Status::Ok)
}

fn cmd_simulate(args: &Args) -> CommandOutput {
    let protocol = match build_protocol(args) {
        Ok(p) => p,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    // The engines index per-state caches by 2x + z, so n must stay below 2^63.
    let n = match args.get_parsed("n", 4096u64) {
        Ok(n) if (8..1 << 63).contains(&n) => n,
        Ok(_) => return usage_error("--n must be at least 8 and below 2^63\n".to_string()),
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let seed = match args.get_parsed("seed", 1u64) {
        Ok(s) => s,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let budget = match args.get_parsed("budget", n.saturating_mul(100)) {
        Ok(b) => b,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let witness = match LowerBoundWitness::construct(&protocol, n) {
        Ok(w) => w,
        Err(e) => return usage_error(format!("cannot build witness: {e}\n")),
    };
    let mut rng = rng_from(seed);
    let mut trajectory = Trajectory::new(24);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulating {} from {} ({}, budget {budget} rounds, seed {seed})",
        protocol.name(),
        witness.start(),
        if args.flag("sequential") { "sequential" } else { "parallel" },
    );

    let outcome = if args.flag("sequential") {
        let mut sim = SequentialSim::new(&protocol, witness.start()).expect("validated above");
        run_with_recorder(&mut sim, &mut rng, budget, &mut trajectory)
    } else {
        let mut sim = AggregateSim::new(&protocol, witness.start()).expect("validated above");
        run_with_recorder(&mut sim, &mut rng, budget, &mut trajectory)
    };

    let _ = writeln!(out, "trajectory (round, X/n):");
    for (round, x) in trajectory.iter() {
        let _ = writeln!(out, "  {round:>10}  {}", fmt_num(x as f64 / n as f64));
    }
    match outcome {
        Outcome::Converged { rounds } => {
            let _ = writeln!(out, "converged after {rounds} parallel rounds");
        }
        Outcome::TimedOut { rounds } => {
            let _ = writeln!(out, "not converged within {rounds} rounds (lower bound at work)");
        }
    }
    CommandOutput::ok(out, Status::Ok)
}

fn run_with_recorder<S: Simulator>(
    sim: &mut S,
    rng: &mut bitdissem_sim::rng::SimRng,
    budget: u64,
    trajectory: &mut Trajectory,
) -> Outcome {
    for t in 0..=budget {
        trajectory.record(sim.configuration().ones());
        if sim.configuration().is_correct_consensus() {
            return Outcome::Converged { rounds: t };
        }
        if t == budget {
            break;
        }
        sim.step_round(rng);
    }
    Outcome::TimedOut { rounds: budget }
}

fn cmd_exact(args: &Args) -> CommandOutput {
    let protocol = match build_protocol(args) {
        Ok(p) => p,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let n = match args.get_parsed("n", 64u64) {
        Ok(n) if (2..=512).contains(&n) => n,
        Ok(n) => {
            return usage_error(format!("--n must be in [2, 512] for the exact solver, got {n}\n"))
        }
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let mut out = String::new();
    for correct in bitdissem_core::Opinion::ALL {
        let chain = match AggregateChain::build(&protocol, n, correct) {
            Ok(c) => c,
            Err(e) => return usage_error(format!("cannot build chain: {e}\n")),
        };
        match expected_hitting_times(&chain) {
            Some(times) => {
                let (state, worst) = times.worst();
                let _ = writeln!(
                    out,
                    "z = {correct}: worst expected convergence {} rounds (from X = {state})",
                    fmt_num(worst)
                );
            }
            None => {
                let _ =
                    writeln!(out, "z = {correct}: correct consensus unreachable from some state");
            }
        }
    }
    CommandOutput::ok(out, Status::Ok)
}

// ---------------------------------------------------------------------------
// markov: exact sparse-chain analytics at large n
// ---------------------------------------------------------------------------

/// Schema version of the `MARKOV_<label>.json` analytics record.
pub const MARKOV_SCHEMA_VERSION: u64 = 1;

/// Largest population size `markov --ns` accepts: the chain's rows are
/// allocated up front, and CI's large-`n` probe runs at exactly this size.
const MARKOV_MAX_N: u64 = 100_000;

/// Largest `n` for which the CLI attempts the spectral gap: the shifted
/// power iteration needs `~1/gap` matvecs to converge, which is fine in the
/// thousands of states and hopeless at `n = 1e5`.
const MARKOV_GAP_MAX_N: u64 = 2048;

/// Mixing tolerance used by the `markov` subcommand (the standard `1/4`).
const MARKOV_MIX_EPSILON: f64 = 0.25;

/// Default cap on mixing rounds before declaring the chain unmixed at this
/// horizon (override with `--mix-max`; slow-mixing chains pay the full cap).
const MARKOV_MIX_MAX_ROUNDS: usize = 10_000;

/// Maximum number of survival-curve points embedded in the JSON record;
/// longer curves are thinned to a uniform stride.
const MARKOV_CURVE_POINTS: usize = 257;

fn elapsed_ms(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn cmd_markov(args: &Args) -> CommandOutput {
    // --grid: comma-separated `protocol[:ell]` entries (bare name = ell 1).
    let grid_spec = args.get("grid").unwrap_or("voter:1").to_string();
    let mut grid: Vec<(String, usize, BoxedProtocol)> = Vec::new();
    for part in grid_spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, ell) = match part.split_once(':') {
            Some((name, ell_str)) => match ell_str.parse::<usize>() {
                Ok(l) => (name, l),
                Err(_) => {
                    return usage_error(format!(
                        "bad --grid entry '{part}': expected protocol[:ell]\n"
                    ))
                }
            },
            None => (part, 1),
        };
        match dynamics::by_name(name, ell) {
            Some(Ok(p)) => grid.push((name.to_string(), ell, p)),
            Some(Err(e)) => return usage_error(format!("invalid parameters for '{name}': {e}\n")),
            None => return usage_error(format!("unknown protocol '{name}' in --grid\n")),
        }
    }
    if grid.is_empty() {
        return usage_error("--grid must name at least one protocol\n");
    }
    let ns_spec = args.get("ns").unwrap_or("1024,8192").to_string();
    let mut ns: Vec<u64> = Vec::new();
    for part in ns_spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match part.parse::<u64>() {
            Ok(n) if (2..=MARKOV_MAX_N).contains(&n) => ns.push(n),
            _ => {
                return usage_error(format!(
                    "bad --ns entry '{part}': need integers in [2, {MARKOV_MAX_N}]\n"
                ))
            }
        }
    }
    if ns.is_empty() {
        return usage_error("--ns must name at least one population size\n");
    }
    let eps = match args.get("eps") {
        Some(s) => match s.parse::<f64>() {
            Ok(e) if e > 0.0 && e < 1.0 => Some(e),
            _ => return usage_error("--eps must be a float in (0, 1)\n"),
        },
        None => None,
    };
    let t_max_flag: Option<usize> = match args.get("t-max") {
        Some(s) => match s.parse::<usize>() {
            Ok(t) => Some(t),
            Err(_) => return usage_error("--t-max must be a non-negative integer\n"),
        },
        None => None,
    };
    let mix_max = match args.get_parsed("mix-max", MARKOV_MIX_MAX_ROUNDS) {
        Ok(m) => m,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let verify_n = match args.get_parsed("verify-n", 64u64) {
        Ok(0) => 0,
        Ok(n) if (2..=512).contains(&n) => n,
        Ok(n) => {
            return usage_error(format!("--verify-n must be 0 (skip) or in [2, 512], got {n}\n"))
        }
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let label = args.get("label").unwrap_or("markov").to_string();
    let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("."));

    let correct = bitdissem_core::Opinion::One;
    let mut out = String::new();
    let mut status = Status::Ok;
    // The vector lanes the LU and the stepping ran on: the timings differ
    // between them, the results do not.
    let lanes = if bitdissem_pool::wide_lanes() { "avx2" } else { "baseline" };
    let _ = writeln!(out, "lanes: {lanes}");

    // Deterministic gate first: at --verify-n the sparse rows must agree
    // with the dense chain within the tracked truncation tail bound.
    let mut verify_json = Vec::new();
    if verify_n > 0 {
        for (name, ell, protocol) in &grid {
            let table = match protocol.to_table(verify_n) {
                Ok(t) => t,
                Err(e) => return usage_error(format!("cannot materialize {name}:{ell}: {e}\n")),
            };
            let check =
                sparse_dense_check(&format!("{name}(ell={ell})"), &table, verify_n, correct);
            let _ = writeln!(
                out,
                "verify {name}:{ell} n={verify_n}: sparse~dense worst violation {:.3e} — {}",
                check.statistic,
                if check.pass { "ok" } else { "FAIL" }
            );
            if !check.pass {
                status = Status::CheckFailed;
            }
            verify_json.push(Value::Obj(vec![
                ("name".to_string(), Value::Str(check.name.clone())),
                ("statistic".to_string(), Value::Num(check.statistic)),
                ("pass".to_string(), Value::Bool(check.pass)),
            ]));
        }
    }

    let mut points_json = Vec::new();
    for (name, ell, protocol) in &grid {
        for &n in &ns {
            let t_build = std::time::Instant::now();
            let built = match eps {
                Some(e) => SparseChain::build_with_eps(protocol.as_ref(), n, correct, e),
                None => SparseChain::build(protocol.as_ref(), n, correct),
            };
            let chain = match built {
                Ok(c) => c,
                Err(e) => {
                    return usage_error(format!(
                        "cannot build chain for {name}:{ell} at n = {n}: {e}\n"
                    ))
                }
            };
            let build_ms = elapsed_ms(t_build);
            let _ = writeln!(
                out,
                "{name}:{ell} n={n}: built {} states, nnz {}, band {}, tail {:.2e} ({:.0} ms)",
                chain.num_states(),
                chain.nnz(),
                chain.max_bandwidth(),
                chain.max_tail_bound(),
                build_ms
            );

            let t_hit = std::time::Instant::now();
            let hitting = expected_hitting_times_sparse(&chain);
            let hit_ms = elapsed_ms(t_hit);
            let hitting_json = match &hitting {
                Some(times) => {
                    let (worst_state, worst) = times.worst();
                    let from_wrong = times.from_state(chain.state_lo());
                    let _ = writeln!(
                        out,
                        "  hitting: worst {} rounds from X = {worst_state}, all-wrong {} \
                         ({:.0} ms)",
                        fmt_num(worst),
                        fmt_num(from_wrong),
                        hit_ms
                    );
                    Value::Obj(vec![
                        ("worst_state".to_string(), Value::Int(i128::from(worst_state))),
                        ("worst_rounds".to_string(), Value::Num(worst)),
                        ("all_wrong_rounds".to_string(), Value::Num(from_wrong)),
                        ("solve_ms".to_string(), Value::Num(hit_ms)),
                    ])
                }
                None => {
                    let _ = writeln!(out, "  hitting: consensus unreachable (singular system)");
                    Value::Null
                }
            };

            let mixing_json = if mix_max == 0 {
                Value::Null
            } else {
                let t_mix = std::time::Instant::now();
                let mixing = mixing_time_extremes_sparse(&chain, MARKOV_MIX_EPSILON, mix_max);
                let mix_ms = elapsed_ms(t_mix);
                match mixing {
                    Some(rounds) => {
                        let _ = writeln!(out, "  mixing(1/4): {rounds} rounds ({:.0} ms)", mix_ms);
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "  mixing(1/4): not mixed within {mix_max} rounds ({:.0} ms)",
                            mix_ms
                        );
                    }
                }
                Value::Obj(vec![
                    ("epsilon".to_string(), Value::Num(MARKOV_MIX_EPSILON)),
                    ("rounds".to_string(), mixing.map_or(Value::Null, |r| Value::Int(r as i128))),
                    ("max_rounds".to_string(), Value::Int(mix_max as i128)),
                    ("ms".to_string(), Value::Num(mix_ms)),
                ])
            };

            let t_max = t_max_flag
                .unwrap_or_else(|| usize::try_from((4 * n).min(20_000)).expect("t_max fits"));
            let survival_json = if t_max == 0 {
                Value::Null
            } else {
                let t_surv = std::time::Instant::now();
                let curve = survival_curve_sparse(&chain, chain.state_lo(), t_max);
                let surv_ms = elapsed_ms(t_surv);
                let median = quantile_from_survival(&curve, 0.5);
                let p90 = quantile_from_survival(&curve, 0.9);
                let _ = writeln!(
                    out,
                    "  survival from all-wrong: median {}, p90 {} at t_max {t_max} ({:.0} ms)",
                    median.map_or("> t_max".to_string(), |t| t.to_string()),
                    p90.map_or("> t_max".to_string(), |t| t.to_string()),
                    surv_ms
                );
                let stride = curve.len().div_ceil(MARKOV_CURVE_POINTS).max(1);
                let mut ts = Vec::new();
                let mut ss = Vec::new();
                for (t, &s) in curve.iter().enumerate() {
                    if t % stride == 0 || t == curve.len() - 1 {
                        ts.push(Value::Int(t as i128));
                        ss.push(Value::Num(s));
                    }
                }
                Value::Obj(vec![
                    ("t_max".to_string(), Value::Int(t_max as i128)),
                    ("stride".to_string(), Value::Int(stride as i128)),
                    ("median".to_string(), median.map_or(Value::Null, |t| Value::Int(t as i128))),
                    ("p90".to_string(), p90.map_or(Value::Null, |t| Value::Int(t as i128))),
                    ("ms".to_string(), Value::Num(surv_ms)),
                    ("t".to_string(), Value::Arr(ts)),
                    ("s".to_string(), Value::Arr(ss)),
                ])
            };

            let gap_json = if n <= MARKOV_GAP_MAX_N {
                match spectral_gap(&chain) {
                    Some(gap) => {
                        let _ = writeln!(out, "  spectral gap: {gap:.6e}");
                        Value::Num(gap)
                    }
                    None => Value::Null,
                }
            } else {
                Value::Null
            };

            points_json.push(Value::Obj(vec![
                ("protocol".to_string(), Value::Str(name.clone())),
                ("ell".to_string(), Value::Int(*ell as i128)),
                ("n".to_string(), Value::Int(i128::from(n))),
                ("rel_eps".to_string(), Value::Num(chain.rel_eps())),
                ("num_states".to_string(), Value::Int(chain.num_states() as i128)),
                ("nnz".to_string(), Value::Int(chain.nnz() as i128)),
                ("max_bandwidth".to_string(), Value::Int(chain.max_bandwidth() as i128)),
                ("max_tail_bound".to_string(), Value::Num(chain.max_tail_bound())),
                ("build_ms".to_string(), Value::Num(build_ms)),
                ("hitting".to_string(), hitting_json),
                ("mixing".to_string(), mixing_json),
                ("survival".to_string(), survival_json),
                ("spectral_gap".to_string(), gap_json),
            ]));
        }
    }

    let record = Value::Obj(vec![
        ("schema_version".to_string(), Value::Int(i128::from(MARKOV_SCHEMA_VERSION))),
        ("label".to_string(), Value::Str(label.clone())),
        ("grid".to_string(), Value::Str(grid_spec)),
        ("ns".to_string(), Value::Arr(ns.iter().map(|&n| Value::Int(i128::from(n))).collect())),
        ("verify_n".to_string(), Value::Int(i128::from(verify_n))),
        ("lanes".to_string(), Value::Str(lanes.to_string())),
        ("pass".to_string(), Value::Bool(status == Status::Ok)),
        ("verification".to_string(), Value::Arr(verify_json)),
        ("points".to_string(), Value::Arr(points_json)),
    ]);
    let path = out_dir.join(format!("MARKOV_{label}.json"));
    let mut rendered = record.render();
    rendered.push('\n');
    if let Err(e) = atomic_replace(&path, rendered.as_bytes()) {
        let _ = writeln!(out, "cannot write {}: {e}", path.display());
        return CommandOutput::ok(out, Status::UsageError);
    }
    let _ = writeln!(out, "wrote {}", path.display());
    CommandOutput::ok(out, status)
}

// ---------------------------------------------------------------------------
// watch: live telemetry view and exposition reconciliation
// ---------------------------------------------------------------------------

/// Seconds rendered for humans: `42.0s`, `3m05s`, `2h14m`.
fn fmt_secs(s: f64) -> String {
    if !s.is_finite() || s < 0.0 {
        return "-".to_string();
    }
    if s >= 3600.0 {
        format!("{:.0}h{:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    } else if s >= 60.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// Renders one telemetry snapshot as the multi-line live view.
#[allow(clippy::cast_precision_loss)]
fn render_watch(snap: &bitdissem_obs::TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bitdissem telemetry  snapshot v{}  elapsed {}",
        snap.version,
        fmt_secs(snap.elapsed_us as f64 / 1e6)
    );
    if let Some(p) = &snap.progress {
        if p.total > 0 {
            let pct = 100.0 * p.done as f64 / p.total as f64;
            let _ = writeln!(
                out,
                "progress   {}/{} ({pct:.1}%)  {:.1}/s  eta {}",
                p.done,
                p.total,
                p.rate_per_sec,
                fmt_secs(p.eta_secs)
            );
        } else {
            // Indeterminate total: no percentage or ETA to show.
            let _ = writeln!(out, "progress   {} done  {:.1}/s", p.done, p.rate_per_sec);
        }
    }
    let _ = writeln!(
        out,
        "pool       steal ratio {:.3}  checkpoint hit rate {:.3}",
        snap.steal_ratio(),
        snap.checkpoint_hit_rate()
    );
    let _ = writeln!(out, "counters:");
    for (name, v) in &snap.counters {
        let rate = snap.rates.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, r)| r);
        let _ = writeln!(out, "  {name:<22} {:>14}  {:>12}/s", fmt_num(*v as f64), fmt_num(rate));
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<22} {v:>14}");
        }
    }
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "spans (p50 / p90 / p99):");
        for (path, q) in &snap.spans {
            let unit = bitdissem_obs::metrics::series_unit(path);
            let _ = writeln!(
                out,
                "  {path:<24} {:>9} / {:>9} / {:>9}  (n={})",
                unit(q.p50),
                unit(q.p90),
                unit(q.p99),
                q.count
            );
        }
    }
    out
}

fn cmd_watch(args: &Args) -> CommandOutput {
    match (args.get("socket"), args.get("prom")) {
        (Some(_), Some(_)) => usage_error("watch takes --socket or --prom, not both\n"),
        (Some(path), None) => watch_socket(args, path),
        (None, Some(path)) => watch_prom(args, path),
        (None, None) => usage_error("watch needs --socket PATH or --prom FILE\n"),
    }
}

/// Streams snapshots from a run's `--telemetry-socket`, redrawing the
/// live view on stderr (full-screen when stderr is a terminal, one block
/// per snapshot otherwise). The last snapshot is returned on stdout so
/// the command composes with pipes and tests.
#[cfg(unix)]
fn watch_socket(args: &Args, path: &str) -> CommandOutput {
    use std::io::{BufRead as _, IsTerminal as _, Write as _};
    let snapshots: u64 = match args.get_parsed("snapshots", 0u64) {
        Ok(n) => n,
        Err(e) => return usage_error(format!("{e}\n")),
    };
    let stream = match std::os::unix::net::UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => {
            return usage_error(format!("cannot connect to telemetry socket '{path}': {e}\n"))
        }
    };
    let live_tty = std::io::stderr().is_terminal();
    let mut seen = 0u64;
    let mut last = None;
    for line in std::io::BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        let Some(snap) = bitdissem_obs::TelemetrySnapshot::from_json(line.trim()) else {
            continue;
        };
        let view = render_watch(&snap);
        let mut err = std::io::stderr().lock();
        if live_tty {
            // Clear + home between frames so the view redraws in place.
            let _ = write!(err, "\x1b[2J\x1b[H{view}");
        } else {
            let _ = writeln!(err, "{view}");
        }
        let _ = err.flush();
        seen += 1;
        last = Some(snap);
        if snapshots > 0 && seen >= snapshots {
            break;
        }
    }
    match last {
        None => CommandOutput {
            stdout: String::new(),
            stderr: format!("no snapshots received from '{path}'\n"),
            status: Status::CheckFailed,
        },
        Some(snap) => CommandOutput::ok(
            format!("{}watched {seen} snapshot(s)\n", render_watch(&snap)),
            Status::Ok,
        ),
    }
}

#[cfg(not(unix))]
fn watch_socket(_args: &Args, _path: &str) -> CommandOutput {
    usage_error("watch --socket requires a unix platform\n")
}

/// Parses a `--telemetry-prom` exposition file, prints its counter
/// totals, and (with `--reconcile`) checks them against the summed
/// per-experiment counter deltas of a `manifests.jsonl` ledger.
fn watch_prom(args: &Args, path: &str) -> CommandOutput {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage_error(format!("cannot read exposition '{path}': {e}\n")),
    };
    let samples = match bitdissem_obs::telemetry::parse_prometheus(&text) {
        Ok(s) => s,
        Err(e) => {
            return CommandOutput {
                stdout: String::new(),
                stderr: format!("malformed exposition '{path}': {e}\n"),
                status: Status::CheckFailed,
            }
        }
    };
    let counters: Vec<(&str, f64)> = samples
        .iter()
        .filter_map(|s| {
            let name = s.name.strip_prefix("bitdissem_")?.strip_suffix("_total")?;
            Some((name, s.value))
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exposition '{path}': {} samples, {} counters",
        samples.len(),
        counters.len()
    );
    for (name, v) in &counters {
        let _ = writeln!(out, "  {name:<22} {:>14}", fmt_num(*v));
    }
    let Some(manifests_path) = args.get("reconcile") else {
        return CommandOutput::ok(out, Status::Ok);
    };
    let ledger = match std::fs::read_to_string(manifests_path) {
        Ok(t) => t,
        Err(e) => return usage_error(format!("cannot read manifests '{manifests_path}': {e}\n")),
    };
    let mut sums: Vec<(String, u64)> = Vec::new();
    let mut runs = 0usize;
    for line in ledger.lines().filter(|l| !l.trim().is_empty()) {
        let manifest = match bitdissem_obs::RunManifest::from_json(line) {
            Ok(m) => m,
            Err(e) => {
                return CommandOutput {
                    stdout: out,
                    stderr: format!("bad manifest line in '{manifests_path}': {e}\n"),
                    status: Status::CheckFailed,
                }
            }
        };
        runs += 1;
        for (name, v) in &manifest.counters {
            match sums.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += v,
                None => sums.push((name.clone(), *v)),
            }
        }
    }
    let _ = writeln!(out, "reconciling against {runs} manifest(s) from '{manifests_path}':");
    if sums.is_empty() {
        let _ = writeln!(out, "  no counter deltas recorded (run with a --telemetry-* flag)");
        return CommandOutput { stdout: out, stderr: String::new(), status: Status::CheckFailed };
    }
    let mut mismatches = 0usize;
    #[allow(clippy::cast_precision_loss)]
    for (name, expect) in &sums {
        let got = counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let ok = got == Some(*expect as f64);
        mismatches += usize::from(!ok);
        let _ = writeln!(
            out,
            "  {name:<22} manifests {:>14}  exposition {:>14}  {}",
            fmt_num(*expect as f64),
            got.map_or_else(|| "missing".to_string(), fmt_num),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    if mismatches == 0 {
        let _ = writeln!(out, "verdict: exposition reconciles with the manifest ledger");
        CommandOutput::ok(out, Status::Ok)
    } else {
        let _ = writeln!(out, "verdict: {mismatches} counter(s) disagree");
        CommandOutput { stdout: out, stderr: String::new(), status: Status::CheckFailed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(argv: &[&str]) -> (String, Status) {
        dispatch(&Args::parse(argv.iter().copied()))
    }

    #[test]
    fn help_and_unknown_commands() {
        assert_eq!(run_cli(&[]).1, Status::Ok);
        assert_eq!(run_cli(&["help"]).1, Status::Ok);
        let (out, status) = run_cli(&["frobnicate"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn list_shows_registry() {
        let (out, status) = run_cli(&["list"]);
        assert_eq!(status, Status::Ok);
        assert!(out.contains("e1"));
        assert!(out.contains("a3"));
    }

    #[test]
    fn analyze_minority() {
        let (out, status) = run_cli(&["analyze", "minority", "--ell", "3", "--n", "1024"]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("case 1"), "{out}");
        assert!(out.contains("roots"));
    }

    #[test]
    fn analyze_voter_is_voter_like() {
        let (out, status) = run_cli(&["analyze", "voter", "--ell", "1"]);
        assert_eq!(status, Status::Ok);
        assert!(out.contains("identically zero"), "{out}");
    }

    #[test]
    fn analyze_rejects_unknown_protocol() {
        let (out, status) = run_cli(&["analyze", "nonsense"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("unknown protocol"));
    }

    #[test]
    fn simulate_voter_small() {
        let (out, status) =
            run_cli(&["simulate", "voter", "--ell", "1", "--n", "64", "--seed", "3"]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("trajectory"));
        assert!(out.contains("converged"), "{out}");
    }

    #[test]
    fn simulate_refuses_huge_n_and_saturates_the_default_budget() {
        // The per-state caches index 2x + z, which needs n < 2^63.
        let argv = ["simulate", "voter", "--n", "9223372036854775808", "--budget", "10"];
        let (out, status) = run_cli(&argv);
        assert_eq!(status, Status::UsageError, "{out}");
        assert!(out.contains("--n"), "{out}");
        // The default budget 100·n must not overflow when --budget is given.
        let (out, status) =
            run_cli(&["simulate", "voter", "--n", "200000000000000000", "--budget", "0"]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("budget 0 rounds"), "{out}");
    }

    #[test]
    fn simulate_sequential_small() {
        let (out, status) = run_cli(&[
            "simulate",
            "voter",
            "--ell",
            "1",
            "--n",
            "32",
            "--sequential",
            "--budget",
            "100000",
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("sequential"));
    }

    #[test]
    fn exact_solver_voter() {
        let (out, status) = run_cli(&["exact", "voter", "--ell", "1", "--n", "24"]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("z = 0"));
        assert!(out.contains("z = 1"));
    }

    #[test]
    fn exact_solver_reports_unreachable_consensus() {
        let (out, status) = run_cli(&["exact", "stay", "--n", "16"]);
        assert_eq!(status, Status::Ok);
        assert!(out.contains("unreachable"), "{out}");
    }

    #[test]
    fn exact_rejects_large_n() {
        let (_, status) = run_cli(&["exact", "voter", "--n", "100000"]);
        assert_eq!(status, Status::UsageError);
    }

    #[test]
    fn markov_writes_versioned_record_and_passes_verification() {
        let dir = std::env::temp_dir().join(format!("markov_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_dir = dir.to_str().unwrap();
        let (out, status) = run_cli(&[
            "markov",
            "--grid",
            "voter:1,minority:3",
            "--ns",
            "96,192",
            "--t-max",
            "600",
            "--verify-n",
            "32",
            "--label",
            "t",
            "--out",
            out_dir,
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        let lanes = if bitdissem_pool::wide_lanes() { "avx2" } else { "baseline" };
        assert!(out.starts_with(&format!("lanes: {lanes}\n")), "{out}");
        assert!(out.contains("verify voter:1"), "{out}");
        assert!(out.contains("hitting: worst"), "{out}");
        assert!(out.contains("mixing(1/4)"), "{out}");
        assert!(out.contains("survival from all-wrong"), "{out}");
        assert!(out.contains("spectral gap"), "{out}");
        let raw = std::fs::read_to_string(dir.join("MARKOV_t.json")).unwrap();
        let v = bitdissem_obs::json::parse(&raw).unwrap();
        assert_eq!(v.get("schema_version").and_then(Value::as_u64), Some(MARKOV_SCHEMA_VERSION));
        assert_eq!(v.get("pass").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("lanes").and_then(Value::as_str), Some(lanes));
        match v.get("points") {
            Some(Value::Arr(points)) => {
                assert_eq!(points.len(), 4, "2 protocols x 2 sizes");
                for p in points {
                    assert!(p.get("nnz").and_then(Value::as_u64).unwrap() > 0);
                    assert!(p.get("hitting").is_some());
                }
            }
            other => panic!("points missing: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markov_reports_singular_chains_without_failing() {
        let dir = std::env::temp_dir().join(format!("markov_stay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (out, status) = run_cli(&[
            "markov",
            "--grid",
            "stay",
            "--ns",
            "64",
            "--t-max",
            "0",
            "--verify-n",
            "0",
            "--label",
            "stay",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("unreachable"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markov_rejects_bad_inputs() {
        assert_eq!(run_cli(&["markov", "--grid", "nonsense"]).1, Status::UsageError);
        assert_eq!(run_cli(&["markov", "--grid", "voter:x"]).1, Status::UsageError);
        assert_eq!(run_cli(&["markov", "--ns", "1"]).1, Status::UsageError);
        assert_eq!(run_cli(&["markov", "--ns", ""]).1, Status::UsageError);
        assert_eq!(run_cli(&["markov", "--eps", "2.0"]).1, Status::UsageError);
        assert_eq!(run_cli(&["markov", "--verify-n", "1000"]).1, Status::UsageError);
        // Sizes whose rows cannot be allocated (2^32 states would need
        // 34 GB) are refused before any work.
        for n in ["9223372036854775808", "4294967296", "100001"] {
            let argv = ["markov", "--grid", "voter:1", "--ns", n, "--t-max", "0", "--mix-max", "0"];
            let (out, status) = run_cli(&[&argv[..], &["--verify-n", "0"]].concat());
            assert_eq!(status, Status::UsageError, "{n}: {out}");
            assert!(out.contains("--ns") && out.contains("100000"), "{out}");
        }
    }

    #[test]
    fn run_unknown_experiment() {
        let (out, status) = run_cli(&["run", "e99"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("unknown experiment"));
    }

    #[test]
    fn run_rejects_options_missing_from_its_synopsis() {
        for bad in [["--engine", "wide"], ["--sede", "3"]] {
            let argv: Vec<&str> =
                ["run", "e5", "--scale", "smoke"].into_iter().chain(bad).collect();
            let (out, status) = run_cli(&argv);
            assert_eq!(status, Status::UsageError, "{out}");
            assert!(out.contains(bad[0]), "the message names the option: {out}");
        }
    }

    #[test]
    fn every_subcommand_rejects_options_missing_from_its_synopsis() {
        for argv in [
            &["analyze", "minority", "--el", "5"][..],
            &["simulate", "voter", "--ell", "1", "--n", "64", "--sede", "5"],
        ] {
            let (out, status) = run_cli(argv);
            assert_eq!(status, Status::UsageError, "{argv:?}: {out}");
            let bad = argv[argv.len() - 2];
            assert!(out.contains(&format!("unknown option: {bad} ")), "{out}");
        }
        let usage = usage();
        for (command, known) in OPTIONS {
            // The command's line of the usage text and its indented
            // continuation lines.
            let mut lines =
                usage.lines().skip_while(|l| !l.starts_with(&format!("  bitdissem {command}")));
            let head = lines.next().unwrap_or_else(|| panic!("no synopsis for {command}"));
            let synopsis: String =
                std::iter::once(head).chain(lines.take_while(|l| l.starts_with("     "))).collect();
            let listed: Vec<String> = known.iter().map(|opt| format!("--{opt}")).collect();
            for opt in &listed {
                assert!(
                    synopsis.contains(opt.as_str()),
                    "{command} accepts {opt} but its synopsis omits it"
                );
            }
            // Every listed option passes; only the stray one is named.
            let mut argv = vec![command];
            if command == "trace" {
                argv.extend(["convert", "in.jsonl", "out.bct"]);
            }
            argv.extend(listed.iter().map(String::as_str));
            argv.push("--bogus");
            let (out, status) = run_cli(&argv);
            assert_eq!(status, Status::UsageError, "{out}");
            assert_eq!(out, format!("{command}: unknown option: --bogus (see 'help')\n"));
        }
    }

    #[test]
    fn run_e5_smoke_text_and_csv() {
        let (out, status) = run_cli(&["run", "e5", "--scale", "smoke"]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("verdict"));
        let (csv, status) = run_cli(&["run", "e5", "--scale", "smoke", "--csv"]);
        assert_eq!(status, Status::Ok);
        assert!(csv.contains("protocol,"), "{csv}");
    }

    #[test]
    fn bad_option_values_are_usage_errors() {
        let (_, status) = run_cli(&["run", "e5", "--scale", "bogus"]);
        assert_eq!(status, Status::UsageError);
        let (_, status) = run_cli(&["simulate", "voter", "--n", "abc"]);
        assert_eq!(status, Status::UsageError);
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 0);
        assert_eq!(Status::CheckFailed.code(), 1);
        assert_eq!(Status::UsageError.code(), 2);
    }

    #[test]
    fn run_without_obs_flags_is_byte_identical_and_silent_on_stderr() {
        let argv = ["run", "e5", "--scale", "smoke", "--seed", "8"];
        let a = dispatch_full(&Args::parse(argv));
        let b = dispatch_full(&Args::parse(argv));
        assert_eq!(a.status, Status::Ok, "{}", a.stdout);
        assert!(a.stderr.is_empty());
        assert_eq!(a.stdout, b.stdout, "same seed, no flags: byte-identical output");
    }

    #[test]
    fn run_metrics_go_to_stderr() {
        let out = dispatch_full(&Args::parse(["run", "e2", "--scale", "smoke", "--metrics"]));
        assert_eq!(out.status, Status::Ok, "{}", out.stdout);
        assert!(out.stderr.contains("rounds_simulated"), "{}", out.stderr);
        assert!(out.stderr.contains("\"experiment_id\":\"e2\""), "manifest line: {}", out.stderr);
        assert!(out.stderr.contains("replicate"), "per-phase timings: {}", out.stderr);
        // The counters must be live, not zero. Skip the manifest JSON
        // line, which also names every counter (as per-run deltas).
        let rounds: u64 = out
            .stderr
            .lines()
            .find(|l| l.contains("rounds_simulated") && !l.starts_with("manifest:"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(rounds > 0, "{}", out.stderr);
    }

    #[test]
    fn run_trace_out_writes_parseable_jsonl_consistent_with_report() {
        use bitdissem_obs::Event;

        let path =
            std::env::temp_dir().join(format!("bitdissem_cli_trace_{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        let out = dispatch_full(&Args::parse([
            "run",
            "e2",
            "--scale",
            "smoke",
            "--trace-out",
            path_str,
            "--seed",
            "11",
        ]));
        assert_eq!(out.status, Status::Ok, "{}", out.stdout);

        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text.lines().map(|l| Event::from_json(l).expect(l)).collect();
        assert!(!events.is_empty());
        // Bracketing events and the manifest are all present.
        assert!(matches!(&events[0], Event::ExperimentStarted { id, .. } if id == "e2"));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ExperimentFinished { id, pass: true, .. } if id == "e2")));
        let manifest = events
            .iter()
            .find_map(|e| match e {
                Event::Manifest(m) => Some(m.clone()),
                _ => None,
            })
            .expect("manifest in trace");
        assert_eq!(manifest.seed, 11);
        assert_eq!(manifest.scale, "smoke");
        // E2 smoke: 4 population sizes x 30 replications, every one of
        // which converges; the trace must agree with the report.
        let finished: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::ReplicationFinished { outcome, rounds, .. } => Some((*outcome, *rounds)),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 120, "4 sweep points x 30 reps");
        assert!(finished.iter().all(|(o, _)| *o == bitdissem_obs::ReplicationOutcome::Converged));
        // Round events exist and stay consistent with their replication.
        assert!(events.iter().any(|e| matches!(e, Event::RoundCompleted { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_every_thins_round_events() {
        use bitdissem_obs::Event;

        let tmp = std::env::temp_dir();
        let dense_path = tmp.join(format!("bitdissem_dense_{}.jsonl", std::process::id()));
        let sparse_path = tmp.join(format!("bitdissem_sparse_{}.jsonl", std::process::id()));
        let count_rounds = |path: &std::path::Path| {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .filter(|l| matches!(Event::from_json(l).expect(l), Event::RoundCompleted { .. }))
                .count()
        };
        let base = ["run", "e2", "--scale", "smoke", "--seed", "5", "--trace-out"];
        let mut dense: Vec<&str> = base.to_vec();
        let dense_s = dense_path.to_str().unwrap().to_string();
        dense.push(&dense_s);
        assert_eq!(dispatch_full(&Args::parse(dense)).status, Status::Ok);
        let sparse_s = sparse_path.to_str().unwrap().to_string();
        let sparse: Vec<&str> =
            base.iter().copied().chain([sparse_s.as_str(), "--trace-every", "50"]).collect();
        assert_eq!(dispatch_full(&Args::parse(sparse)).status, Status::Ok);
        let (d, s) = (count_rounds(&dense_path), count_rounds(&sparse_path));
        assert!(d > 0 && s > 0);
        assert!(s * 10 < d, "stride 50 must thin the trace: dense={d} sparse={s}");
        let _ = std::fs::remove_file(&dense_path);
        let _ = std::fs::remove_file(&sparse_path);
    }

    #[test]
    fn identical_seeds_give_identical_reports_with_and_without_tracing() {
        let plain = dispatch_full(&Args::parse(["run", "e5", "--scale", "smoke", "--seed", "3"]));
        let path = std::env::temp_dir().join(format!("bitdissem_det_{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        let traced = dispatch_full(&Args::parse([
            "run",
            "e5",
            "--scale",
            "smoke",
            "--seed",
            "3",
            "--trace-out",
            path_str,
            "--metrics",
        ]));
        let _ = std::fs::remove_file(&path);
        // The manifest line carries wall-clock timing, so compare the
        // deterministic part: everything above the verdict.
        let body = |s: &str| s.split("\nverdict:").next().unwrap().to_string();
        assert_eq!(body(&plain.stdout), body(&traced.stdout));
        assert_eq!(plain.status, traced.status);
    }

    #[test]
    fn resume_without_checkpoint_dir_is_a_usage_error() {
        let (out, status) = run_cli(&["run", "e2", "--scale", "smoke", "--resume"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("--resume requires --checkpoint-dir"), "{out}");
    }

    #[test]
    fn checkpointed_resume_is_byte_identical_and_hits_the_cache() {
        let dir = std::env::temp_dir().join(format!("bitdissem_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();

        let base = ["run", "e2", "--scale", "smoke", "--seed", "13", "--metrics"];
        let plain = dispatch_full(&Args::parse(base));
        assert_eq!(plain.status, Status::Ok, "{}", plain.stdout);

        // Fresh checkpointed run: populates the log, zero cache hits.
        let argv: Vec<&str> =
            base.iter().copied().chain(["--checkpoint-dir", dir_s.as_str()]).collect();
        let fresh = dispatch_full(&Args::parse(argv.clone()));
        assert_eq!(fresh.status, Status::Ok, "{}", fresh.stdout);
        assert_eq!(fresh.stdout, plain.stdout, "checkpointing must not change results");
        let hits = |stderr: &str| -> u64 {
            stderr
                .lines()
                .find(|l| l.contains("checkpoint_hits") && !l.starts_with("manifest:"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert_eq!(hits(&fresh.stderr), 0, "{}", fresh.stderr);
        let log = std::fs::read_to_string(dir.join("checkpoint.jsonl")).unwrap();
        assert!(!log.is_empty(), "fresh run must persist checkpoints");
        let manifests = std::fs::read_to_string(dir.join("manifests.jsonl")).unwrap();
        assert!(manifests.contains("\"experiment_id\":\"e2\""), "{manifests}");

        // Resumed run: every replication loads from the log, output is
        // byte-identical to the uninterrupted run.
        let resume: Vec<&str> = argv.iter().copied().chain(["--resume"]).collect();
        let resumed = dispatch_full(&Args::parse(resume));
        assert_eq!(resumed.status, Status::Ok, "{}", resumed.stdout);
        assert_eq!(resumed.stdout, plain.stdout, "resume must be bit-identical");
        assert!(hits(&resumed.stderr) > 0, "{}", resumed.stderr);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_checkpoint_run_truncates_a_stale_log() {
        let dir = std::env::temp_dir().join(format!("bitdissem_trunc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("checkpoint.jsonl"),
            "{\"type\":\"checkpoint\",\"key\":\"stale\",\"payload\":\"c:1\"}\n",
        )
        .unwrap();
        let dir_s = dir.to_str().unwrap().to_string();
        let out = dispatch_full(&Args::parse([
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "13",
            "--checkpoint-dir",
            dir_s.as_str(),
        ]));
        assert_eq!(out.status, Status::Ok, "{}", out.stdout);
        let log = std::fs::read_to_string(dir.join("checkpoint.jsonl")).unwrap();
        assert!(!log.contains("stale"), "non-resume runs must start from an empty log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_env_spec_is_a_usage_error() {
        let (out, status) = run_cli(&["run", "e19", "--scale", "smoke", "--env", "sandstorm"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("invalid env schedule"), "{out}");
        let (out, status) = run_cli(&["conform", "--env", "flip@"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("invalid env schedule"), "{out}");
    }

    #[test]
    fn env_run_records_fingerprint_in_manifests_and_batch_kinds() {
        let dir = temp_dir("envmanifest");
        let dir_s = dir.to_str().unwrap().to_string();
        let out = dispatch_full(&Args::parse([
            "run",
            "e19",
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--env",
            "noise:0.05",
            "--checkpoint-dir",
            dir_s.as_str(),
        ]));
        assert_eq!(out.status, Status::Ok, "{}", out.stdout);
        let manifests = std::fs::read_to_string(dir.join("manifests.jsonl")).unwrap();
        assert!(manifests.contains("\"env\":\"noise:0.05\""), "{manifests}");
        // e19's engine batches run under its flip schedule: their
        // checkpoint keys must carry the env batch kind, never plain
        // "conv", so static caches can never splice into them.
        let log = std::fs::read_to_string(dir.join("checkpoint.jsonl")).unwrap();
        assert!(log.contains("conv+env["), "{}", &log[..log.len().min(400)]);
        // Resuming under another schedule splices nothing: it prints what a
        // fresh run under that schedule prints.
        let other = ["run", "e19", "--scale", "smoke", "--seed", "7", "--env", "noise:0.1"];
        let fresh = dispatch_full(&Args::parse(other));
        let resume: Vec<&str> =
            other.iter().copied().chain(["--checkpoint-dir", dir_s.as_str(), "--resume"]).collect();
        let resumed = dispatch_full(&Args::parse(resume));
        assert_eq!(resumed.status, Status::Ok, "{}", resumed.stdout);
        assert_eq!(resumed.stdout, fresh.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_trace_out_is_a_usage_error() {
        let (out, status) =
            run_cli(&["run", "e5", "--scale", "smoke", "--trace-out", "/nonexistent-dir/x.jsonl"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("cannot create trace file"), "{out}");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bitdissem_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_subcommand_passes_a_fresh_e2_trace() {
        let dir = temp_dir("trace_ok");
        let path = dir.join("run.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let out = dispatch_full(&Args::parse([
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "17",
            "--trace-out",
            path_s.as_str(),
        ]));
        assert_eq!(out.status, Status::Ok, "{}", out.stdout);

        let (report, status) = run_cli(&["trace", path_s.as_str()]);
        assert_eq!(status, Status::Ok, "{report}");
        assert!(report.contains("conforms to theory"), "{report}");
        assert!(report.contains("Prop 4"), "{report}");
        assert!(report.contains("Prop 5"), "{report}");
        assert!(!report.contains("VIOLATION"), "{report}");
        // The e2 smoke sweep runs 4 population sizes = 4 conv batches.
        assert!(report.contains("batch 4"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_subcommand_flags_a_doctored_jump() {
        use bitdissem_obs::{Event, ReplicationOutcome};
        let dir = temp_dir("trace_bad");
        let path = dir.join("doctored.jsonl");
        let n = 4096u64;
        // Voter ℓ=1 from X_t = 0.3n: Prop 4 caps the next step at
        // y(0.3, 1)·n ≈ 0.755n, so a jump to 0.9n violates the bound.
        let events = [
            Event::BatchStarted {
                kind: "conv".to_string(),
                protocol: "voter".to_string(),
                ell: 1,
                n,
                x0: 1,
                source_opinion: 1,
                reps: 1,
                budget: 100_000,
                seed: 1,
                g0: vec![0.0, 1.0],
                g1: vec![0.0, 1.0],
            },
            Event::RoundCompleted { rep: 0, round: 5, ones: (3 * n) / 10, source_opinion: 1 },
            Event::RoundCompleted { rep: 0, round: 6, ones: (9 * n) / 10, source_opinion: 1 },
            Event::ReplicationFinished {
                rep: 0,
                outcome: ReplicationOutcome::Converged,
                rounds: 6,
                elapsed_us: 100,
            },
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        std::fs::write(&path, text).unwrap();

        let (report, status) = run_cli(&["trace", path.to_str().unwrap()]);
        assert_eq!(status, Status::CheckFailed, "{report}");
        assert!(report.contains("VIOLATION rep=0 round=5->6"), "{report}");
        assert!(report.contains("VIOLATIONS FOUND"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conform_rejects_bad_arguments() {
        let (out, status) = run_cli(&["conform", "--scale", "enormous"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("unknown scale"), "{out}");
        let (out, status) = run_cli(&["conform", "--seed", "not-a-number"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("seed"), "{out}");
    }

    #[test]
    fn usage_documents_conform() {
        let (out, status) = run_cli(&["help"]);
        assert_eq!(status, Status::Ok);
        assert!(out.contains("conform"), "{out}");
        assert!(out.contains("--skip-faults"), "{out}");
    }

    #[test]
    fn usage_documents_bench() {
        let (out, _) = run_cli(&["help"]);
        for flag in ["--base REV", "--seeds A..B", "--workload W", "--label L", "--out DIR"] {
            assert!(out.contains(flag), "{flag}: {out}");
        }
        assert!(!out.contains("--compare") && !out.contains("--max-workers"), "{out}");
    }

    #[test]
    fn trace_rejects_missing_input() {
        let (out, status) = run_cli(&["trace"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("missing trace path"), "{out}");
        let (out, status) = run_cli(&["trace", "/nonexistent/run.jsonl"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("cannot read trace"), "{out}");
    }

    #[test]
    fn trace_rejects_non_trace_files_with_a_clear_error() {
        let dir = temp_dir("trace_nontrace");
        let path = dir.join("not-a-trace.txt");
        std::fs::write(&path, "schema_version,label\n1,x\n").unwrap();
        let (out, status) = run_cli(&["trace", path.to_str().unwrap()]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("not a trace file"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_names_a_columnar_version_it_cannot_read() {
        let dir = temp_dir("trace_v3");
        let (path, out_path) = (dir.join("future.bct"), dir.join("future.jsonl"));
        std::fs::write(&path, b"BDCT0003").unwrap();
        let expected = "columnar trace version 0003: this build reads 0001 and 0002";
        let (out, status) = run_cli(&["trace", path.to_str().unwrap()]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains(expected) && !out.contains("not a trace file"), "{out}");
        let (out, status) =
            run_cli(&["trace", "convert", path.to_str().unwrap(), out_path.to_str().unwrap()]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains(expected), "{out}");
        assert!(!out_path.exists(), "nothing is written for an unreadable input");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_reads_a_jsonl_trace_behind_blank_lines() {
        // More blank lines than a columnar magic is long: the format sniff
        // must read past them, as the JSONL reader does.
        let dir = temp_dir("trace_padded");
        let (bare, padded) = (dir.join("run.jsonl"), dir.join("padded.jsonl"));
        let (out, status) = run_cli(&[
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "13",
            "--trace-out",
            bare.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        let mut bytes = b"\n".repeat(9);
        bytes.extend(std::fs::read(&bare).unwrap());
        std::fs::write(&padded, bytes).unwrap();
        let (expected, status) = run_cli(&["trace", bare.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{expected}");
        let (report, status) = run_cli(&["trace", padded.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{report}");
        assert_eq!(report, expected, "blank lines change nothing in the report");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_trace_format_columnar_matches_jsonl_analytics_exactly() {
        // The acceptance contract at CLI level: the same run recorded in
        // both formats must produce byte-identical `trace` reports
        // (summaries, conformance verdicts, exit status).
        let dir = temp_dir("trace_xfmt");
        let jpath = dir.join("run.jsonl");
        let cpath = dir.join("run.bct");
        let (out, status) = run_cli(&[
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "13",
            "--trace-out",
            jpath.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        // The same event stream in columnar form (converted, so the two
        // files describe the identical run — wall-clock latencies
        // included).
        let (out, status) =
            run_cli(&["trace", "convert", jpath.to_str().unwrap(), cpath.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{out}");
        assert_eq!(
            detect_format(&cpath).unwrap(),
            Some(TraceFormat::Columnar),
            "convert from jsonl must write the binary format"
        );
        // A direct `--trace-format columnar` run also writes the binary
        // format (its analytics differ only by wall-clock latencies, so
        // the byte-for-byte comparison below uses the converted file).
        let direct = dir.join("direct.bct");
        let (out, status) = run_cli(&[
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "13",
            "--trace-out",
            direct.to_str().unwrap(),
            "--trace-format",
            "columnar",
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        assert_eq!(detect_format(&direct).unwrap(), Some(TraceFormat::Columnar));
        let (jreport, jstatus) = run_cli(&["trace", jpath.to_str().unwrap()]);
        let (creport, cstatus) = run_cli(&["trace", cpath.to_str().unwrap()]);
        assert_eq!(jstatus, Status::Ok, "{jreport}");
        assert_eq!(jreport, creport, "jsonl and columnar analytics must agree");
        assert_eq!(jstatus, cstatus);
        assert!(jreport.contains("conforms"), "{jreport}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_convert_round_trips_both_directions() {
        use bitdissem_obs::read_trace;
        let dir = temp_dir("trace_convert");
        let jpath = dir.join("run.jsonl");
        let cpath = dir.join("run.bct");
        let back = dir.join("back.jsonl");
        let (out, status) = run_cli(&[
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "21",
            "--trace-out",
            jpath.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        let (out, status) =
            run_cli(&["trace", "convert", jpath.to_str().unwrap(), cpath.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("jsonl) ->"), "{out}");
        let (out, status) =
            run_cli(&["trace", "convert", cpath.to_str().unwrap(), back.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{out}");
        // Full fidelity: the round-tripped JSONL decodes to the exact
        // original event stream.
        let original = read_trace(&jpath).unwrap();
        let round_tripped = read_trace(&back).unwrap();
        assert_eq!(original.events, round_tripped.events);
        assert_eq!(round_tripped.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_convert_rejects_bad_usage() {
        let (out, status) = run_cli(&["trace", "convert", "/only-one-arg"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("usage: bitdissem trace convert"), "{out}");
    }

    #[test]
    fn trace_format_flag_is_validated() {
        let dir = temp_dir("trace_fmt_flag");
        let path = dir.join("x.trace");
        let (out, status) = run_cli(&[
            "run",
            "e5",
            "--scale",
            "smoke",
            "--trace-out",
            path.to_str().unwrap(),
            "--trace-format",
            "parquet",
        ]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("unknown --trace-format"), "{out}");
        let (out, status) = run_cli(&["run", "e5", "--scale", "smoke", "--trace-format", "jsonl"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("--trace-format requires --trace-out"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_reports_a_torn_columnar_tail() {
        use bitdissem_obs::Event;
        let dir = temp_dir("trace_torn_col");
        let path = dir.join("torn.bct");
        let sink = ColumnarSink::create(&path).unwrap();
        for r in 1..=5 {
            sink.emit(&Event::RoundCompleted { rep: 0, round: r, ones: r, source_opinion: 1 });
        }
        drop(sink);
        // Tear the final block mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (out, status) = run_cli(&["trace", path.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("torn block"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_needs_a_mode() {
        let (out, status) = run_cli(&["watch"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("--socket PATH or --prom FILE"), "{out}");
        let (_, status) = run_cli(&["watch", "--socket", "a", "--prom", "b"]);
        assert_eq!(status, Status::UsageError);
    }

    #[test]
    fn telemetry_flags_imply_metrics_collection() {
        let obs = build_obs(&Args::parse(["run", "e2", "--telemetry-prom", "/tmp/x.prom"]))
            .expect("obs builds");
        assert!(obs.metrics_on(), "--telemetry-prom must switch metrics on");
        let obs = build_obs(&Args::parse(["run", "e2"])).expect("obs builds");
        assert!(!obs.metrics_on(), "plain runs keep metrics off");
    }

    #[test]
    fn telemetry_interval_without_exporter_is_a_usage_error() {
        let (out, status) =
            run_cli(&["run", "e2", "--scale", "smoke", "--telemetry-interval-ms", "50"]);
        assert_eq!(status, Status::UsageError);
        assert!(out.contains("requires a telemetry exporter flag"), "{out}");
    }

    #[test]
    fn render_watch_prints_nanoseconds_and_round_counts() {
        let metrics = bitdissem_obs::Metrics::new();
        metrics.record_latency(bitdissem_obs::LatencyId::Replication, 1_500);
        for rounds in [27, 40, 89] {
            metrics.record_reconverge(rounds);
        }
        let snap = bitdissem_obs::telemetry::build_snapshot(
            &metrics,
            None,
            1,
            std::time::Instant::now(),
            None,
        );
        let view = render_watch(&snap);
        let line =
            |path: &str| view.lines().find(|l| l.split_whitespace().next() == Some(path)).unwrap();
        // A latency reads as a duration in `obs::hist::fmt_nanos` units.
        let latency = line("latency/replication");
        assert_eq!(latency.split_whitespace().nth(1), Some("1.5us"), "{view}");
        // Re-convergence clocks read as bare round counts.
        let rounds: Vec<&str> = line("hist/reconverge_rounds").split_whitespace().collect();
        assert_eq!(rounds[1..6], ["41", "/", "89", "/", "89"], "{view}");
        assert!(rounds.last().is_some_and(|n| *n == "(n=3)"), "{view}");
    }

    #[cfg(unix)]
    #[test]
    fn watch_socket_streams_live_snapshots() {
        let path =
            std::env::temp_dir().join(format!("bitdissem_watch_{}.sock", std::process::id()));
        let metrics = Arc::new(bitdissem_obs::Metrics::new());
        metrics.add_rounds(123);
        metrics.record_latency(bitdissem_obs::LatencyId::Replication, 1_500_000);
        let publisher = bitdissem_obs::telemetry::SocketPublisher::bind(&path).unwrap();
        let handle = bitdissem_obs::start_telemetry(
            Arc::clone(&metrics),
            None,
            std::time::Duration::from_millis(5),
            vec![Box::new(publisher)],
        );
        let out = dispatch_full(&Args::parse([
            "watch",
            "--socket",
            path.to_str().unwrap(),
            "--snapshots",
            "2",
        ]));
        handle.stop();
        assert_eq!(out.status, Status::Ok, "{}{}", out.stdout, out.stderr);
        assert!(out.stdout.contains("watched 2 snapshot(s)"), "{}", out.stdout);
        assert!(out.stdout.contains("rounds_simulated"), "{}", out.stdout);
        assert!(out.stdout.contains("p50 / p90 / p99"), "{}", out.stdout);
        assert!(out.stdout.contains("steal ratio"), "{}", out.stdout);
    }

    #[test]
    fn run_with_telemetry_reconciles_prom_against_manifests() {
        let dir = temp_dir("telemetry");
        let prom = dir.join("metrics.prom");
        let bct = dir.join("telemetry.bct");
        let manifests = dir.join("manifests.jsonl");
        let (out, status) = run_cli(&[
            "run",
            "e2",
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--telemetry-prom",
            prom.to_str().unwrap(),
            "--telemetry-out",
            bct.to_str().unwrap(),
            "--telemetry-interval-ms",
            "10",
        ]);
        assert_eq!(status, Status::Ok, "{out}");

        // The final exposition parses and carries the run's counters.
        let text = std::fs::read_to_string(&prom).unwrap();
        let samples = bitdissem_obs::telemetry::parse_prometheus(&text).expect("exposition parses");
        assert!(
            samples.iter().any(|s| s.name == "bitdissem_rounds_simulated_total" && s.value > 0.0),
            "{text}"
        );

        // Exposition totals reconcile with the summed manifest deltas.
        let (out, status) = run_cli(&[
            "watch",
            "--prom",
            prom.to_str().unwrap(),
            "--reconcile",
            manifests.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::Ok, "{out}");
        assert!(out.contains("reconciles with the manifest ledger"), "{out}");

        // The columnar telemetry series is a readable trace.
        let (out, status) = run_cli(&["trace", bct.to_str().unwrap()]);
        assert_eq!(status, Status::Ok, "{out}");

        // A doctored exposition is caught.
        std::fs::write(&prom, "bitdissem_rounds_simulated_total 1\n").unwrap();
        let (out, status) = run_cli(&[
            "watch",
            "--prom",
            prom.to_str().unwrap(),
            "--reconcile",
            manifests.to_str().unwrap(),
        ]);
        assert_eq!(status, Status::CheckFailed, "{out}");
        assert!(out.contains("MISMATCH"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_without_telemetry_flags_matches_telemetry_run_output() {
        let plain = dispatch_full(&Args::parse(["run", "e5", "--scale", "smoke", "--seed", "9"]));
        let dir = temp_dir("telemetry_id");
        let prom = dir.join("m.prom");
        let teled = dispatch_full(&Args::parse([
            "run",
            "e5",
            "--scale",
            "smoke",
            "--seed",
            "9",
            "--telemetry-prom",
            prom.to_str().unwrap(),
        ]));
        assert_eq!(plain.status, teled.status);
        assert_eq!(plain.stdout, teled.stdout, "telemetry must not perturb results");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
