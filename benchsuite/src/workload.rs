//! The four workloads: fixed job lists built once per process, and one
//! timed pass over them. Every pass of a process runs the same jobs with the
//! same seeds, so its outputs repeat exactly from pass to pass.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::{Minority, TwoChoices, Voter};
use bitdissem_core::{Configuration, Opinion, Protocol, ProtocolExt};
use bitdissem_experiments::workload::{measure_convergence_observed, measure_crossing_observed};
use bitdissem_markov::{
    expected_hitting_times_sparse, mixing_time_extremes_sparse, spectral_gap,
    survival_curve_sparse, SparseChain,
};
use bitdissem_obs::columnar::Block;
use bitdissem_obs::telemetry::ColumnarTelemetryExporter;
use bitdissem_obs::{
    start_telemetry, CheckpointLog, ColumnarReader, ColumnarSink, EventSink, Obs, TelemetryHandle,
};
use bitdissem_pool::{effective_parallelism, Pool};
use bitdissem_sim::run::Outcome;

use crate::trace::Tracer;

type SharedProtocol = Arc<dyn Protocol + Send + Sync>;

/// Telemetry snapshot cadence of a recorded pass (the CLI default).
const TELEMETRY_INTERVAL: Duration = Duration::from_millis(250);

/// Replicas per `recorded` job: twice `converge`'s 256, so that a pass runs
/// about 3 s and averages over the disk's write-back bursts.
const RECORDED_REPS: usize = 512;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Convergence from the all-wrong start: diffusive Voter plus
    /// large-sample fast Minority.
    Converge,
    /// Threshold crossing from the Theorem-12 witness start.
    Crossing,
    /// Exact analytics on the sparse Markov chain.
    Exact,
    /// The small Voter rows of `converge` with every recorder on.
    Recorded,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] =
        [Workload::Converge, Workload::Crossing, Workload::Exact, Workload::Recorded];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Converge => "converge",
            Workload::Crossing => "crossing",
            Workload::Exact => "exact",
            Workload::Recorded => "recorded",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One replicated simulation job (`converge`, `recorded`).
struct SimJob {
    protocol: SharedProtocol,
    voter: bool,
    start: Configuration,
    reps: usize,
    budget: u64,
    seed: u64,
}

/// One crossing job; the witness is built during set-up.
struct CrossJob {
    protocol: SharedProtocol,
    drift: bool,
    witness: LowerBoundWitness,
    reps: usize,
    budget: u64,
    seed: u64,
}

enum Jobs {
    Sim(Vec<SimJob>),
    Cross(Vec<CrossJob>),
    Exact,
}

/// Everything a process builds before its first pass: the pool, the job
/// inputs and the recorders' directory. This is what `setup_s` times.
pub struct Setup {
    /// The workload the jobs belong to.
    pub workload: Workload,
    /// Pool participants every job runs with (`effective_parallelism()`).
    pub workers: usize,
    jobs: Jobs,
    out_dir: PathBuf,
}

/// Distinct per-job seed derived from the run seed.
fn job_seed(seed: u64, job: usize) -> u64 {
    seed ^ ((job as u64) << 48)
}

fn converge_jobs(seed: u64) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for n in [2048u64, 8192, 32768] {
        let start = Configuration::all_wrong(n, Opinion::One);
        let nf = n as f64;
        jobs.push(SimJob {
            protocol: Arc::new(Voter::new(1).expect("l = 1 is valid")),
            voter: true,
            start,
            reps: 256,
            budget: (8.0 * nf * nf.ln()).ceil() as u64,
            seed: job_seed(seed, jobs.len()),
        });
        jobs.push(SimJob {
            protocol: Arc::new(
                Minority::new(Minority::fast_sample_size(n)).expect("l >= 1 is valid"),
            ),
            voter: false,
            start,
            reps: 1024,
            budget: 50 * n,
            seed: job_seed(seed, jobs.len()),
        });
    }
    jobs
}

fn crossing_jobs(seed: u64, tracer: &Tracer) -> Vec<CrossJob> {
    let protocols: [(SharedProtocol, bool); 4] = [
        (Arc::new(Voter::new(1).expect("valid")), false),
        (Arc::new(Minority::new(3).expect("valid")), true),
        (Arc::new(Minority::new(5).expect("valid")), true),
        (Arc::new(TwoChoices::new()), true),
    ];
    let mut jobs = Vec::new();
    for (protocol, drift) in protocols {
        for n in [2048u64, 8192] {
            let witness = tracer.span("analysis.witness", || {
                LowerBoundWitness::construct(&*protocol, n).expect("valid protocol")
            });
            jobs.push(CrossJob {
                protocol: Arc::clone(&protocol),
                drift,
                witness,
                reps: 64,
                budget: 50 * n,
                seed: job_seed(seed, jobs.len()),
            });
        }
    }
    jobs
}

/// Builds the workload's inputs, spawning the pool first.
///
/// # Errors
///
/// Fails when the recorders' directory cannot be created.
pub fn setup(
    workload: Workload,
    seed: u64,
    out_dir: &Path,
    tracer: &Tracer,
) -> std::io::Result<Setup> {
    tracer.span("pool.spawn", || black_box(Pool::global().workers()));
    let jobs = match workload {
        Workload::Converge => Jobs::Sim(converge_jobs(seed)),
        Workload::Recorded => {
            std::fs::create_dir_all(out_dir)?;
            let small = |j: &SimJob| j.voter && j.start.n() <= 8192;
            let jobs = converge_jobs(seed).into_iter().filter(small);
            Jobs::Sim(jobs.map(|j| SimJob { reps: RECORDED_REPS, ..j }).collect())
        }
        Workload::Crossing => Jobs::Cross(crossing_jobs(seed, tracer)),
        Workload::Exact => Jobs::Exact,
    };
    Ok(Setup { workload, workers: effective_parallelism(), jobs, out_dir: out_dir.to_path_buf() })
}

/// Counters one pass produces, for the end-to-end and per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassStats {
    /// Wall time of the timed region, in seconds.
    pub seconds: f64,
    /// Replications run.
    pub replications: u64,
    /// Replica-rounds simulated.
    pub replica_rounds: u64,
    /// Replications that hit their round budget.
    pub censored: u64,
    /// Σ over batches of (batch replica-rounds × max ÷ mean replica rounds).
    pub straggler_weighted: f64,
    /// Stored transition weights over every chain built.
    pub nnz: u64,
    /// Widest stored row over every chain built.
    pub band: u64,
    /// Computed banded-LU multiply-adds, `Σ 2·b_l(i)·b_u(i)` over the rows.
    pub lu_flops: f64,
    /// Computed matvec entries, steps × nnz (survival and mixing).
    pub step_entries: f64,
    /// Largest tracked truncation bound of any chain built.
    pub max_tail_bound: f64,
    /// Bytes of columnar trace written.
    pub trace_bytes: u64,
    /// Checkpoint records read back.
    pub checkpoint_records: u64,
    /// Hash of the pass's outputs; equal across passes of one process.
    pub digest: u64,
}

/// The outputs of one pass that the correctness checks read.
#[derive(Debug, Clone)]
pub enum Outputs {
    /// One entry per simulation job: `(n, voter?, outcomes)`.
    Sim(Vec<(u64, bool, Vec<Outcome>)>),
    /// One entry per crossing job: `(protocol, n, drift?, crossed fraction)`.
    Cross(Vec<(String, u64, bool, f64)>),
    /// Exact analytics.
    Exact {
        /// Voter's population size and worst-state expected hitting time.
        voter_worst: (u64, f64),
        /// Every survival curve computed.
        curves: Vec<Vec<f64>>,
    },
}

/// What a recorded pass left on disk, read back by a separate process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readback {
    /// Whether the trace ends in a torn frame.
    pub torn_tail: bool,
    /// `RoundCompleted` rows in the trace.
    pub round_rows: u64,
    /// Records in the checkpoint log.
    pub checkpoint_records: u64,
}

/// One pass: its counters, outputs, the index of its root span when traced,
/// and (for a recorded pass) what its files held.
pub struct Pass {
    /// Counters.
    pub stats: PassStats,
    /// Outputs for the checks.
    pub outputs: Outputs,
    /// Root span (`bench.pass`) index when the tracer is on.
    pub root: Option<usize>,
    /// The recorded pass's files, read back.
    pub readback: Option<Readback>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `f` as the timed region of a pass under the `bench.pass` root span;
/// returns its result, wall time in seconds and the root span's index.
fn timed<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> (T, f64, Option<usize>) {
    let t0 = Instant::now();
    let (out, root) = tracer.span_indexed("bench.pass", f);
    (out, t0.elapsed().as_secs_f64(), root)
}

impl Setup {
    /// Runs one pass. On `recorded`, `record` selects whether the recorders
    /// are on (off gives the `Obs::none()` twin of the same jobs); other
    /// workloads ignore it. `pass_no` names a recorded pass's directory.
    ///
    /// # Errors
    ///
    /// Fails when a recorded pass cannot create, read back or delete its
    /// files.
    pub fn pass(&self, tracer: &Tracer, record: bool, pass_no: usize) -> std::io::Result<Pass> {
        if let (Workload::Recorded, true, Jobs::Sim(jobs)) = (self.workload, record, &self.jobs) {
            return self.recorded_pass(jobs, tracer, pass_no);
        }
        let ((mut stats, outputs), seconds, root) = timed(tracer, || match &self.jobs {
            Jobs::Sim(jobs) => self.sim_jobs(jobs, &Obs::none(), tracer),
            Jobs::Cross(jobs) => self.cross_jobs(jobs, tracer),
            Jobs::Exact => exact_jobs(tracer),
        });
        stats.seconds = seconds;
        Ok(Pass { stats, outputs, root, readback: None })
    }

    fn sim_jobs(&self, jobs: &[SimJob], obs: &Obs, tracer: &Tracer) -> (PassStats, Outputs) {
        let mut stats = PassStats { digest: FNV_OFFSET, ..PassStats::default() };
        let mut outputs = Vec::new();
        for job in jobs {
            compile_probe(tracer, &*job.protocol, job.start.n());
            let batch = tracer.span("experiments.measure", || {
                measure_convergence_observed(
                    obs,
                    &*job.protocol,
                    job.start,
                    job.reps,
                    job.budget,
                    job.seed,
                    Some(self.workers),
                )
            });
            add_batch(&mut stats, batch.outcomes());
            outputs.push((job.start.n(), job.voter, batch.outcomes().to_vec()));
        }
        (stats, Outputs::Sim(outputs))
    }

    fn cross_jobs(&self, jobs: &[CrossJob], tracer: &Tracer) -> (PassStats, Outputs) {
        let mut stats = PassStats { digest: FNV_OFFSET, ..PassStats::default() };
        let mut outputs = Vec::new();
        for job in jobs {
            let n = job.witness.start().n();
            compile_probe(tracer, &*job.protocol, n);
            let outcomes = tracer.span("experiments.measure", || {
                measure_crossing_observed(
                    &Obs::none(),
                    &*job.protocol,
                    &job.witness,
                    job.reps,
                    job.budget,
                    job.seed,
                    Some(self.workers),
                )
            });
            add_batch(&mut stats, &outcomes);
            let crossed = outcomes.iter().filter(|o| o.is_converged()).count();
            let frac = crossed as f64 / outcomes.len().max(1) as f64;
            outputs.push((job.protocol.name(), n, job.drift, frac));
        }
        (stats, Outputs::Cross(outputs))
    }

    /// A recorded pass: a fresh directory is made before the timed region;
    /// after it, a separate process reads the files back and the directory
    /// is deleted.
    fn recorded_pass(
        &self,
        jobs: &[SimJob],
        tracer: &Tracer,
        pass_no: usize,
    ) -> std::io::Result<Pass> {
        let dir = self.out_dir.join(format!("recorded-{}-{pass_no}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let (result, seconds, root) = timed(tracer, || -> std::io::Result<_> {
            let (obs, telemetry) = tracer.span("obs.open", || open_recorders(&dir))?;
            let out = self.sim_jobs(jobs, &obs, tracer);
            tracer.span("obs.close", || {
                obs.flush();
                telemetry.stop();
                drop(obs);
            });
            Ok(out)
        });
        let (mut stats, outputs) = result?;
        stats.seconds = seconds;
        stats.trace_bytes = std::fs::metadata(dir.join(TRACE_FILE))?.len();
        let found = read_back_in_child(&dir)?;
        stats.checkpoint_records = found.checkpoint_records;
        std::fs::remove_dir_all(&dir)?;
        Ok(Pass { stats, outputs, root, readback: Some(found) })
    }
}

/// In traced passes only: compiles the job's kernel once more under its own
/// span. The measure call compiles the same kernel inside, where no span
/// can reach, so this probe measures the `poly` share of a job.
fn compile_probe(tracer: &Tracer, protocol: &(dyn Protocol + Send + Sync), n: u64) {
    if tracer.is_enabled() {
        tracer.span("poly.compile", || {
            black_box(protocol.to_table(n).expect("valid protocol").compile().expect("compiles"))
        });
    }
}

fn add_batch(stats: &mut PassStats, outcomes: &[Outcome]) {
    let rounds: Vec<u64> = outcomes.iter().map(Outcome::rounds_censored).collect();
    let total: u64 = rounds.iter().sum();
    stats.replications += outcomes.len() as u64;
    stats.replica_rounds += total;
    stats.censored += outcomes.iter().filter(|o| !o.is_converged()).count() as u64;
    if total > 0 {
        let mean = total as f64 / rounds.len() as f64;
        let max = rounds.iter().copied().max().unwrap_or(0) as f64;
        stats.straggler_weighted += total as f64 * max / mean;
    }
    for r in rounds {
        fnv(&mut stats.digest, r);
    }
}

const TRACE_FILE: &str = "trace.bct";
const CHECKPOINT_FILE: &str = "checkpoint.jsonl";
const TELEMETRY_FILE: &str = "telemetry.bct";

/// Opens everything a long run turns on: a columnar trace of every round, a
/// checkpoint log, metrics and a telemetry thread writing `.bct` snapshots.
fn open_recorders(dir: &Path) -> std::io::Result<(Obs, TelemetryHandle)> {
    let sink: Arc<dyn EventSink> = Arc::new(ColumnarSink::create(dir.join(TRACE_FILE))?);
    let log = Arc::new(CheckpointLog::create(dir.join(CHECKPOINT_FILE))?);
    let obs = Obs::none().with_sink(sink).with_metrics().with_checkpoint(log);
    let exporter = ColumnarTelemetryExporter::create(&dir.join(TELEMETRY_FILE))?;
    let telemetry = start_telemetry(
        Arc::clone(obs.metrics()),
        None,
        TELEMETRY_INTERVAL,
        vec![Box::new(exporter)],
    );
    Ok((obs, telemetry))
}

/// Reads a recorded pass's trace and checkpoint log back. Runs in its own
/// process (spawned after each recorded pass) so that holding a whole trace in
/// memory never shows in the workload process's peak RSS.
///
/// # Errors
///
/// Fails when a file cannot be read or is not a columnar trace.
pub fn read_back(dir: &Path) -> std::io::Result<Readback> {
    let reader = ColumnarReader::open(dir.join(TRACE_FILE))?;
    let round_rows = reader
        .blocks()
        .map(|b| match b {
            Block::RoundCompleted(cols) => cols.len as u64,
            _ => 0,
        })
        .sum();
    let torn_tail = reader.torn_tail();
    drop(reader);
    let log = CheckpointLog::open(dir.join(CHECKPOINT_FILE))?;
    Ok(Readback { torn_tail, round_rows, checkpoint_records: log.len() as u64 })
}

impl Readback {
    /// The line a read-back child prints.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!("{} {} {}", u8::from(self.torn_tail), self.round_rows, self.checkpoint_records)
    }

    /// Parses [`Readback::to_line`].
    #[must_use]
    pub fn from_line(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace().map(str::parse::<u64>);
        let torn = it.next()?.ok()?;
        let round_rows = it.next()?.ok()?;
        let checkpoint_records = it.next()?.ok()?;
        Some(Readback { torn_tail: torn != 0, round_rows, checkpoint_records })
    }
}

fn read_back_in_child(dir: &Path) -> std::io::Result<Readback> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(["--child", "readback", "--dir"])
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let line = String::from_utf8_lossy(&out.stdout);
    match Readback::from_line(line.trim()) {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(std::io::Error::other(format!("read-back child failed: {}", out.status))),
    }
}

/// The `exact` jobs: sparse-chain build, banded-LU hitting times, survival
/// curves, extreme-start mixing and a spectral gap.
fn exact_jobs(tracer: &Tracer) -> (PassStats, Outputs) {
    let mut stats = PassStats { digest: FNV_OFFSET, ..PassStats::default() };
    let voter = Voter::new(1).expect("valid");
    let minority = Minority::new(3).expect("valid");
    let build = |stats: &mut PassStats, p: &dyn Protocol, n: u64| {
        let chain = tracer.span("markov.build", || {
            SparseChain::build(p, n, Opinion::One).expect("valid protocol")
        });
        stats.nnz += chain.nnz() as u64;
        stats.band = stats.band.max(chain.max_bandwidth() as u64);
        stats.max_tail_bound = stats.max_tail_bound.max(chain.max_tail_bound());
        chain
    };
    let mut curves = Vec::new();

    let n_big = 32768;
    let chain = build(&mut stats, &voter, n_big);
    let times =
        tracer.span("markov.lu", || expected_hitting_times_sparse(&chain)).expect("Voter absorbs");
    stats.lu_flops += lu_flops(&chain);
    let voter_worst = (n_big, times.worst().1);
    fnv(&mut stats.digest, voter_worst.1.to_bits());
    // Free the largest chain before the next job builds.
    drop(chain);

    // Survival from the all-wrong start, state 1: only the source is right.
    let t_max = 4096;
    let chain = build(&mut stats, &voter, 2048);
    curves.push(tracer.span("markov.step", || survival_curve_sparse(&chain, 1, t_max)));
    add_steps(&mut stats, &chain, t_max);

    let chain = build(&mut stats, &minority, 4096);
    curves.push(tracer.span("markov.step", || survival_curve_sparse(&chain, 1, t_max)));
    add_steps(&mut stats, &chain, t_max);
    let cap = 2000;
    let mixed = tracer.span("markov.step", || mixing_time_extremes_sparse(&chain, 0.25, cap));
    // Two distributions step each round, until they couple or hit the cap.
    add_steps(&mut stats, &chain, 2 * mixed.unwrap_or(cap));
    fnv(&mut stats.digest, mixed.map_or(u64::MAX, |t| t as u64));

    // The gap's iteration count is not observable from outside, so it gets
    // its own span: its time counts as stepping, its entries towards no rate.
    let chain = build(&mut stats, &voter, 512);
    let gap = tracer.span("markov.gap", || spectral_gap(&chain));
    fnv(&mut stats.digest, gap.map_or(u64::MAX, f64::to_bits));

    for s in curves.iter().flatten() {
        fnv(&mut stats.digest, s.to_bits());
    }
    (stats, Outputs::Exact { voter_worst, curves })
}

fn add_steps(stats: &mut PassStats, chain: &SparseChain, steps: usize) {
    stats.step_entries += steps as f64 * chain.nnz() as f64;
}

/// Computed multiply-adds of the banded LU on `chain`: `Σ 2·b_l(i)·b_u(i)`
/// over the stored rows' lower and upper extents around the diagonal (fill
/// beyond the stored profile is not counted).
fn lu_flops(chain: &SparseChain) -> f64 {
    (chain.state_lo()..=chain.state_hi())
        .map(|x| {
            let (lo, w) = chain.row(x);
            let hi = lo + w.len() as u64 - 1;
            2.0 * x.saturating_sub(lo) as f64 * hi.saturating_sub(x) as f64
        })
        .sum()
}
