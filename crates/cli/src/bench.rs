//! `bitdissem bench`: the paired A/B runner over `benchsuite/`.
//!
//! The command times nothing itself. It builds the `benchmark` binary of
//! `benchsuite/` twice — from a base commit's tree and from the working
//! tree's, each unpacked with `git archive` into the same directory — then
//! runs the two one after the other for every workload and seed,
//! alternating which runs first, and reads each run's final JSON line.
//! Workloads, end-to-end metrics with their `better` direction and
//! `bound`, and the run length all come from `BENCHMARK.json`; the
//! verdict per (workload, metric) is
//! [`paired_ab`]'s, plus one rule of its own: a change that fails
//! more of the benchmark's checks than its base regresses, at any number
//! of pairs, since a failed check needs no statistics. The record,
//! `BENCH_<label>.json` (schema 2), keeps every pair's raw values and run
//! order, so each verdict can be recomputed from it.

use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use bitdissem_obs::durable::atomic_replace;
use bitdissem_obs::json::{self, Value};
use bitdissem_stats::compare::{
    paired_ab, Better, Quartiles, Verdict, AB_MIN_PAIRS, AB_WIN_TENTHS,
};
use bitdissem_stats::table::{fmt_num, Table};

use crate::args::Args;
use crate::{usage_error, CommandOutput, Status};

#[cfg(all(test, unix))]
mod tests;

/// Schema version of `BENCH_<label>.json` (version 1 was the retired
/// micro-benchmark record).
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    better: Better,
    bound: f64,
}

/// What to run: `BENCHMARK.json`'s metrics and run length, the chosen
/// workloads and the seeds.
struct Plan {
    run_seconds: f64,
    metrics: Vec<Metric>,
    workloads: Vec<String>,
    seeds: RangeInclusive<u64>,
}

/// One side: a built `benchmark` binary and the commit it was built from.
struct Side {
    name: &'static str,
    sha: String,
    binary: PathBuf,
}

/// One run: its failed-check count and its metric values, in plan order.
struct Reading {
    failed: u64,
    values: Vec<f64>,
}

/// Both sides' runs on one workload and seed, the base's first in `runs`.
struct Pair {
    workload: String,
    seed: u64,
    base_first: bool,
    runs: [Reading; 2],
}

/// `bench --base REV --seeds A..B [--workload W,…] [--label L] [--out DIR]`.
pub(crate) fn cmd_bench(args: &Args) -> CommandOutput {
    prepare(args).unwrap_or_else(|e| e)
}

fn failure(msg: String) -> CommandOutput {
    CommandOutput::ok(msg + "\n", Status::CheckFailed)
}

fn prepare(args: &Args) -> Result<CommandOutput, CommandOutput> {
    let usage = |e: String| usage_error(format!("bench: {e}\n"));
    let rev = args.get("base").filter(|r| !r.is_empty());
    let rev = rev.ok_or_else(|| usage("needs --base REV".into()))?;
    let seeds = parse_seeds(args.get("seeds").ok_or_else(|| usage("needs --seeds A..B".into()))?)
        .map_err(usage)?;
    // Checked before the runs, which take minutes to hours.
    let (label, out) =
        (args.get("label").unwrap_or("ab"), Path::new(args.get("out").unwrap_or(".")));
    if label.is_empty() || label.contains(['/', '\\']) || !out.is_dir() {
        return Err(usage(format!("bad --label '{label}' or --out '{}'", out.display())));
    }
    let root =
        PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"]).map_err(usage)?);
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| usage(format!("cannot read BENCHMARK.json: {e}")))?;
    let (run_seconds, metrics, known) = read_spec(&spec).map_err(usage)?;
    let workloads = match args.get("workload") {
        Some(spec) => parse_workloads(spec, &known).map_err(usage)?,
        None => known,
    };
    let plan = Plan { run_seconds, metrics, workloads, seeds };

    let sha = git(&root, &["rev-parse", "--verify", "--quiet", &format!("{rev}^{{commit}}")])
        .map_err(|_| usage(format!("--base '{rev}' is not a commit")))?;
    // `git diff --quiet` exits 1 on a difference; untracked files count too.
    let paths = ["--", "benchsuite", "BENCHMARK.json"];
    let same = git(&root, &[&["diff", "--quiet", &sha][..], &paths].concat()).is_ok()
        && git(&root, &[&["ls-files", "--others", "--exclude-standard"][..], &paths].concat())
            .is_ok_and(|o| o.is_empty());
    if !same {
        return Err(usage(format!(
            "benchsuite/ or BENCHMARK.json differ between {rev} and the working tree; \
             two different benchmarks are not an A/B"
        )));
    }
    let tree = |rev: &str| git(&root, &["rev-parse", &format!("{rev}^{{tree}}")]).map_err(usage);
    let (base_tree, head_tree) = (tree(&sha)?, tree("HEAD")?);
    let head = git(&root, &["rev-parse", "HEAD"]).map_err(usage)?;
    let work_tree = worktree(&root).map_err(failure)?;
    let dirty = if work_tree == head_tree { "" } else { "+dirty" };
    let base = Side { name: "base", binary: build(&root, &base_tree).map_err(failure)?, sha };
    let binary = build(&root, &work_tree).map_err(failure)?;
    let change = Side { name: "change", binary, sha: head + dirty };
    Ok(run_ab(&plan, &base, &change, &out.join(format!("BENCH_{label}.json"))))
}

/// Parses an inclusive seed range `A..B`.
fn parse_seeds(spec: &str) -> Result<RangeInclusive<u64>, String> {
    let (a, b) = spec.split_once("..").ok_or_else(|| format!("--seeds '{spec}' is not A..B"))?;
    let seed =
        |s: &str| s.parse::<u64>().map_err(|_| format!("--seeds '{spec}': '{s}' is not a seed"));
    let (a, b) = (seed(a)?, seed(b)?);
    if a > b {
        return Err(format!("--seeds '{spec}' is reversed"));
    }
    Ok(a..=b)
}

/// Parses `--workload W,…` against the workloads `BENCHMARK.json` names.
fn parse_workloads(spec: &str, known: &[String]) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for w in spec.split(',').map(str::trim) {
        if !known.iter().any(|k| k == w) {
            return Err(format!("unknown workload '{w}' (have {})", known.join(", ")));
        }
        if out.iter().any(|o| o == w) {
            return Err(format!("workload '{w}' named twice"));
        }
        out.push(w.to_string());
    }
    Ok(out)
}

/// Reads `run_seconds`, the end-to-end metrics and the workload names
/// from the text of `BENCHMARK.json`.
fn read_spec(text: &str) -> Result<(f64, Vec<Metric>, Vec<String>), String> {
    let bad = |what: &str| format!("BENCHMARK.json: bad or missing {what}");
    let v = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let name = |x: &Value, what: &str| {
        x.get("name").and_then(Value::as_str).map(String::from).ok_or_else(|| bad(what))
    };
    let list = |key: &str| match v.get(key) {
        Some(Value::Arr(items)) if !items.is_empty() => Ok(items),
        _ => Err(bad(key)),
    };
    let run_seconds = v.get("run_seconds").and_then(Value::as_f64).filter(|s| *s > 0.0);
    let mut metrics = Vec::new();
    for m in list("end_to_end")? {
        let name = name(m, "metric name")?;
        let better = match m.get("better").and_then(Value::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            _ => return Err(bad(&format!("`better` of {name}"))),
        };
        let bound = m.get("bound").and_then(Value::as_f64).ok_or_else(|| bad("bound"))?;
        metrics.push(Metric { name, better, bound });
    }
    let workloads = list("workloads")?.iter().map(|w| name(w, "workload name"));
    let workloads = workloads.collect::<Result<_, _>>()?;
    Ok((run_seconds.ok_or_else(|| bad("run_seconds"))?, metrics, workloads))
}

/// Runs `cmd` and returns its trimmed stdout, or an error with its stderr.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{cmd:?} exited with {}: {}", out.status, err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    run(Command::new("git").args(args).current_dir(dir))
}

/// The tree of the working tree as it stands (untracked files in, ignored
/// ones out), staged in a temporary index so the real index is untouched.
fn worktree(root: &Path) -> Result<String, String> {
    let index = root.join(".bench_build/index");
    std::fs::create_dir_all(root.join(".bench_build")).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&index);
    let git = |args: &[&str]| {
        run(Command::new("git").args(args).current_dir(root).env("GIT_INDEX_FILE", &index))
    };
    git(&["add", "-A"])?;
    git(&["write-tree"])
}

/// Builds the benchmark of git tree `tree` once, as `.bench_build/<tree>/benchmark`.
/// Every tree is unpacked into the same `.bench_build/src/` and built into the
/// same target directory: builds of one source at two paths differ in code
/// layout, and so in peak RSS (~3% on `crossing`).
fn build(root: &Path, tree: &str) -> Result<PathBuf, String> {
    let dir = root.join(".bench_build");
    let binary = dir.join(tree).join("benchmark");
    if binary.is_file() {
        return Ok(binary);
    }
    let (src, tar, tmp) = (dir.join("src"), dir.join("src.tar"), dir.join("benchmark.tmp"));
    let _ = std::fs::remove_dir_all(&src);
    std::fs::create_dir_all(&src).map_err(|e| format!("cannot create {}: {e}", src.display()))?;
    git(root, &["archive", "--format=tar", "-o", &tar.to_string_lossy(), tree])?;
    // `-m` stamps every file now, so cargo rebuilds whatever changed.
    run(Command::new("tar").arg("-xmf").arg(&tar).current_dir(&src))?;
    let _ = std::fs::remove_file(&tar);
    // An explicit target directory: CARGO_TARGET_DIR must not move the build.
    let manifest = src.join("benchsuite/Cargo.toml");
    run(Command::new("cargo")
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(dir.join("target")))?;
    let copied = std::fs::create_dir_all(dir.join(tree))
        .and_then(|()| std::fs::copy(dir.join("target/release/benchmark"), &tmp))
        .and_then(|_| std::fs::rename(&tmp, &binary));
    copied.map_err(|e| format!("cannot store {}: {e}", binary.display()))?;
    Ok(binary)
}

/// Runs one side once and reads its final JSON line.
fn run_once(plan: &Plan, side: &Side, workload: &str, seed: u64) -> Result<Reading, String> {
    let what = format!("{} run of {workload} seed {seed}", side.name);
    let stdout = run(Command::new(&side.binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &plan.run_seconds.to_string(), "--trace", "0"])
        .env("BENCH_COMMIT", &side.sha)
        .stdin(Stdio::null()))
    .map_err(|e| format!("{what} failed: {e}"))?;
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let v =
        json::parse(last).map_err(|e| format!("{what}: last line is not JSON ({e}): {last}"))?;
    let failed = v.get("failed").and_then(Value::as_u64);
    let value = |m: &Metric| v.get("metrics")?.get(&m.name)?.get("value")?.as_f64();
    let values: Option<Vec<f64>> = plan.metrics.iter().map(value).collect();
    match (failed, values) {
        (Some(failed), Some(values)) => Ok(Reading { failed, values }),
        _ => Err(format!("{what}: last line lacks `failed` or an end-to-end metric: {last}")),
    }
}

/// Runs every pair: the base first on even-indexed seeds, the change first
/// on odd ones.
fn run_pairs(plan: &Plan, sides: [&Side; 2]) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for workload in &plan.workloads {
        for (i, seed) in plan.seeds.clone().enumerate() {
            let base_first = i % 2 == 0;
            let first = usize::from(!base_first);
            let a = run_once(plan, sides[first], workload, seed)?;
            let b = run_once(plan, sides[1 - first], workload, seed)?;
            let runs = if base_first { [a, b] } else { [b, a] };
            let metric = &plan.metrics[0].name;
            let [x, y] = [&runs[0], &runs[1]].map(|r| fmt_num(r.values[0]));
            eprintln!("bench: {workload} seed {seed}: {metric} base {x} change {y}");
            pairs.push(Pair { workload: workload.clone(), seed, base_first, runs });
        }
    }
    Ok(pairs)
}

/// Runs the pairs, writes the record to `path` and prints one row per
/// (workload, metric). Exits 1 on any *regressed* verdict.
fn run_ab(plan: &Plan, base: &Side, change: &Side, path: &Path) -> CommandOutput {
    let pairs = match run_pairs(plan, [base, change]) {
        Ok(p) => p,
        Err(e) => return failure(format!("bench: {e}")),
    };
    let header = ["workload", "metric", "base median [q1, q3]", "change median [q1, q3]"];
    let mut table = Table::new(header.into_iter().chain(["w/l/t", "sign p", "gap/IQR", "verdict"]));
    let spread =
        |q: Quartiles| format!("{} [{}, {}]", fmt_num(q.median), fmt_num(q.q1), fmt_num(q.q3));
    let quartiles = |q: Quartiles| Value::Arr([q.q1, q.median, q.q3].map(Value::Num).to_vec());
    let mut verdicts = Vec::new();
    let mut regressed = false;
    for workload in &plan.workloads {
        let runs: Vec<&Pair> = pairs.iter().filter(|p| &p.workload == workload).collect();
        let failed = [0, 1].map(|s| runs.iter().map(|p| p.runs[s].failed).sum::<u64>());
        for (k, m) in plan.metrics.iter().enumerate() {
            let [b, c] =
                [0, 1].map(|s| runs.iter().map(|p| p.runs[s].values[k]).collect::<Vec<_>>());
            let Some(mut ab) = paired_ab(&b, &c, m.better, m.bound) else {
                return failure(format!("bench: {workload} {} read non-finite values", m.name));
            };
            // A failed correctness check is a fact, not a sample, so this
            // rule has no pair minimum; the value verdicts keep theirs.
            if failed[1] > failed[0] {
                ab.verdict = Verdict::Regressed;
            }
            regressed |= ab.verdict == Verdict::Regressed;
            let counts = format!("{}/{}/{}", ab.wins, ab.losses, ab.ties);
            let (p, ratio) = (format!("{:.4}", ab.sign_p), format!("{:+.2}", ab.gap_over_iqr));
            let verdict = ab.verdict.name();
            let row =
                [workload, &m.name, &spread(ab.base), &spread(ab.change), &counts, &p, &ratio];
            table.row(row.into_iter().map(String::as_str).chain([verdict]));
            let count = |n: usize| Value::Int(n as i128);
            verdicts.push(obj(vec![
                ("workload", Value::Str(workload.clone())),
                ("metric", Value::Str(m.name.clone())),
                ("better", Value::Str(m.better.name().into())),
                ("bound", Value::Num(m.bound)),
                ("pairs", count(ab.pairs)),
                ("base_q1_median_q3", quartiles(ab.base)),
                ("change_q1_median_q3", quartiles(ab.change)),
                ("wins", count(ab.wins)),
                ("losses", count(ab.losses)),
                ("ties", count(ab.ties)),
                ("sign_p", Value::Num(ab.sign_p)),
                ("gap", Value::Num(ab.gap)),
                ("gap_over_iqr", Value::Num(ab.gap_over_iqr)),
                ("base_failed", Value::Int(i128::from(failed[0]))),
                ("change_failed", Value::Int(i128::from(failed[1]))),
                ("verdict", Value::Str(verdict.to_string())),
            ]));
        }
    }
    let mut out =
        format!("A/B {} (base) vs {} (change), {} pairs\n", base.sha, change.sha, pairs.len());
    out.push_str(&table.render());
    let record = record_json(plan, [base, change], &pairs, verdicts);
    if let Err(e) = atomic_replace(path, (record.render() + "\n").as_bytes()) {
        return failure(format!("{out}cannot write {}: {e}", path.display()));
    }
    let _ = writeln!(out, "wrote {} (schema v{BENCH_SCHEMA_VERSION})", path.display());
    CommandOutput::ok(out, if regressed { Status::CheckFailed } else { Status::Ok })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn record_json(plan: &Plan, sides: [&Side; 2], pairs: &[Pair], verdicts: Vec<Value>) -> Value {
    let reading = |r: &Reading| {
        let values =
            plan.metrics.iter().zip(&r.values).map(|(m, &v)| (m.name.as_str(), Value::Num(v)));
        obj([("failed", Value::Int(i128::from(r.failed)))].into_iter().chain(values).collect())
    };
    let pairs = pairs.iter().map(|p| {
        obj(vec![
            ("workload", Value::Str(p.workload.clone())),
            ("seed", Value::Int(i128::from(p.seed))),
            ("first", Value::Str(if p.base_first { "base" } else { "change" }.into())),
            ("base", reading(&p.runs[0])),
            ("change", reading(&p.runs[1])),
        ])
    });
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let rustc = Command::new("rustc").arg("-V").output().ok().filter(|o| o.status.success());
    let rustc =
        rustc.map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().into());
    let lanes = if bitdissem_pool::wide_lanes() { "avx2" } else { "baseline" };
    let thresholds = obj(vec![
        ("min_pairs", Value::Int(AB_MIN_PAIRS as i128)),
        ("win_share", Value::Num(AB_WIN_TENTHS as f64 / 10.0)),
    ]);
    obj(vec![
        ("schema_version", Value::Int(i128::from(BENCH_SCHEMA_VERSION))),
        ("base", Value::Str(sides[0].sha.clone())),
        ("change", Value::Str(sides[1].sha.clone())),
        ("nproc", Value::Int(nproc as i128)),
        ("rustc", Value::Str(rustc)),
        ("lanes", Value::Str(lanes.into())),
        ("run_seconds", Value::Num(plan.run_seconds)),
        ("thresholds", thresholds),
        ("pairs", Value::Arr(pairs.collect())),
        ("verdicts", Value::Arr(verdicts)),
    ])
}
