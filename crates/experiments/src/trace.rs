//! Offline trace analytics: replaying a recorded run.
//!
//! A trace produced with `--trace-out` (a columnar store, see
//! [`bitdissem_obs::columnar`]) is *self-describing*: every
//! replicated batch opens with a `batch_started` event carrying the
//! protocol's full `g`-table and the batch dimensions (see
//! [`bitdissem_obs::Event::BatchStarted`]). This module groups a decoded
//! event stream by those headers and computes, per batch:
//!
//! - consensus-time summaries and converged/timed-out counts,
//! - per-replication and per-round latency histograms (the log-bucketed
//!   [`bitdissem_obs::LogHistogram`] of the live telemetry),
//! - **theory-conformance checks** against the paper's quantitative
//!   predictions: every adjacent one-step jump against Proposition 4's
//!   `y(c, ℓ) = 1 − (1−c)^{ℓ+1}/2` bound, and the per-round empirical
//!   drift against Proposition 5's `E[X_{t+1} | X_t] = X_t + n·F_n(X_t/n)
//!   ± 1` sandwich.
//!
//! Both checks are *statistical* statements, so each is gated to keep the
//! false-alarm probability negligible on a conforming trace:
//!
//! - **Prop 4** holds except with probability `exp(−a²n/2)` where
//!   `a = (1−c)^{ℓ+1}` (Hoeffding over the zeros that must persist). A
//!   transition is only *checked* when that failure bound is at most
//!   [`JUMP_FAILURE_BUDGET`]; transitions too close to consensus (tiny
//!   `a`) carry a vacuous bound and are skipped, not counted.
//! - **Prop 5** bounds a conditional *expectation*, so single transitions
//!   prove nothing. Residuals `x_{t+1} − x_t − n·F_n(x_t/n)` are averaged
//!   per round across replications; since `X_{t+1}` is a sum of
//!   independent indicators, `Var ≤ n/4`, and the mean of `m` residuals
//!   is flagged only outside `±(1 + z·√(n/(4m)))` with
//!   `z =` [`DRIFT_Z`] — a ≈10⁻⁹ tail per round.

use bitdissem_analysis::jump::y_constant;
use bitdissem_analysis::BiasPolynomial;
use bitdissem_core::GTable;
use bitdissem_obs::columnar::Block;
use bitdissem_obs::hist::fmt_nanos;
use bitdissem_obs::{Event, LogHistogram};
use bitdissem_stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-check false-alarm budget for the Prop-4 jump check: a transition
/// is only checked when `exp(−a²n/2) ≤` this, so thousands of checked
/// transitions still have a negligible aggregate false-positive rate.
pub const JUMP_FAILURE_BUDGET: f64 = 1e-9;

/// Gaussian z-score for the Prop-5 per-round mean-residual band
/// (`z = 6` ⇒ ≈10⁻⁹ two-sided tail per round).
pub const DRIFT_Z: f64 = 6.0;

/// The batch header, as recorded in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeta {
    /// Batch kind (`conv` / `seqconv` / `cross` / `dwell`).
    pub kind: String,
    /// Protocol display name.
    pub protocol: String,
    /// Population size.
    pub n: u64,
    /// Protocol sample size ℓ.
    pub ell: u64,
    /// Ones in the initial configuration `X_0`.
    pub x0: u64,
    /// Replications in the batch.
    pub reps: u64,
    /// Per-replication round budget.
    pub budget: u64,
    /// Base seed.
    pub seed: u64,
    /// `g(0, ·)` row of the protocol table.
    pub g0: Vec<f64>,
    /// `g(1, ·)` row of the protocol table.
    pub g1: Vec<f64>,
}

/// One observed one-step jump that exceeds the Proposition 4 bound.
#[derive(Debug, Clone, PartialEq)]
pub struct JumpViolation {
    /// Replication index within the batch.
    pub rep: u64,
    /// Round label of the *source* state `x_t` (the violating transition
    /// is `round → round + 1`).
    pub round: u64,
    /// Observed `X_t`.
    pub x_t: u64,
    /// Observed `X_{t+1}`.
    pub x_next: u64,
    /// The bound `y(x_t/n, ℓ)·n` that `x_next` exceeded.
    pub bound: f64,
}

/// One round whose mean drift residual falls outside the Proposition 5
/// band.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftViolation {
    /// Round label of the source states.
    pub round: u64,
    /// Transitions averaged at this round.
    pub transitions: usize,
    /// Mean of `x_{t+1} − x_t − n·F_n(x_t/n)` across replications.
    pub mean_residual: f64,
    /// The `1 + z·√(n/(4m))` half-width the mean exceeded.
    pub band: f64,
}

/// Theory-conformance results for one batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conformance {
    /// Adjacent `(round, round+1)` observation pairs found in the trace.
    pub adjacent_pairs: usize,
    /// Transitions that passed the Prop-4 applicability gate and were
    /// checked.
    pub jump_checked: usize,
    /// Transitions exceeding the jump bound.
    pub jump_violations: Vec<JumpViolation>,
    /// Rounds with at least one transition, checked against the drift
    /// band.
    pub drift_rounds_checked: usize,
    /// Rounds whose mean residual escapes the band.
    pub drift_violations: Vec<DriftViolation>,
}

impl Conformance {
    /// Whether any check failed.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        !self.jump_violations.is_empty() || !self.drift_violations.is_empty()
    }
}

/// Everything the analyzer derives for one batch.
#[derive(Debug, Clone)]
pub struct BatchAnalysis {
    /// The recorded header, or `None` for events preceding any
    /// `batch_started` (older traces).
    pub meta: Option<BatchMeta>,
    /// Replications that reported a result.
    pub replications: usize,
    /// How many converged.
    pub converged: usize,
    /// How many exhausted their budget.
    pub timed_out: usize,
    /// Summary of converged consensus times (rounds).
    pub rounds_summary: Option<Summary>,
    /// Per-replication wall-clock latency (ns, from the traced µs).
    pub rep_latency_ns: Option<LogHistogram>,
    /// Mean per-round latency per replication (ns).
    pub round_latency_ns: Option<LogHistogram>,
    /// Conformance checks; `None` when the batch is not checkable (no
    /// header, or a kind whose rounds are not parallel one-step
    /// transitions).
    pub conformance: Option<Conformance>,
}

/// The full analysis of a decoded trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Per-batch results, in trace order.
    pub batches: Vec<BatchAnalysis>,
    /// Total events consumed.
    pub events: usize,
}

impl TraceAnalysis {
    /// Whether any batch has a conformance violation.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        self.batches.iter().any(|b| b.conformance.as_ref().is_some_and(Conformance::has_violations))
    }

    /// Renders the analysis as a human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events, {} batches", self.events, self.batches.len());
        for (i, b) in self.batches.iter().enumerate() {
            let _ = match &b.meta {
                Some(m) => writeln!(
                    out,
                    "\nbatch {}: {} {} n={} ell={} x0={} reps={} budget={} seed={}",
                    i + 1,
                    m.kind,
                    m.protocol,
                    m.n,
                    m.ell,
                    m.x0,
                    m.reps,
                    m.budget,
                    m.seed
                ),
                None => writeln!(out, "\nbatch {}: (no batch header; older trace)", i + 1),
            };
            // A header with replications but no finished rows: the batch
            // ran without recording them (crossing batches emit none).
            let _ = match &b.meta {
                Some(m) if b.replications == 0 && m.reps > 0 => {
                    writeln!(out, "  replications: not recorded ({} in header)", m.reps)
                }
                _ => writeln!(
                    out,
                    "  replications: {} ({} converged, {} timed out)",
                    b.replications, b.converged, b.timed_out
                ),
            };
            if let Some(s) = &b.rounds_summary {
                let _ = writeln!(
                    out,
                    "  rounds to consensus: mean={:.1} median={:.1} min={:.0} max={:.0}",
                    s.mean(),
                    s.median(),
                    s.min(),
                    s.max()
                );
            }
            if let Some(h) = &b.rep_latency_ns {
                let _ = writeln!(out, "  replication latency: {}", h.render(fmt_nanos));
            }
            if let Some(h) = &b.round_latency_ns {
                let _ = writeln!(out, "  per-round latency:   {}", h.render(fmt_nanos));
            }
            match &b.conformance {
                None => {
                    let _ = writeln!(out, "  conformance: not checkable for this batch");
                }
                Some(c) if c.adjacent_pairs == 0 => {
                    let _ = writeln!(
                        out,
                        "  conformance: no adjacent round pairs (strided or round-less trace)"
                    );
                }
                Some(c) => {
                    let _ = writeln!(
                        out,
                        "  Prop 4 (jump bound):  {} of {} transitions checked, {} violations",
                        c.jump_checked,
                        c.adjacent_pairs,
                        c.jump_violations.len()
                    );
                    for v in c.jump_violations.iter().take(10) {
                        let _ = writeln!(
                            out,
                            "    VIOLATION rep={} round={}->{}: x_t={} x_next={} > bound {:.1}",
                            v.rep,
                            v.round,
                            v.round + 1,
                            v.x_t,
                            v.x_next,
                            v.bound
                        );
                    }
                    let _ = writeln!(
                        out,
                        "  Prop 5 (drift band):  {} rounds checked, {} violations",
                        c.drift_rounds_checked,
                        c.drift_violations.len()
                    );
                    for v in c.drift_violations.iter().take(10) {
                        let _ = writeln!(
                            out,
                            "    VIOLATION round={} ({} transitions): mean residual {:.3} outside +-{:.3}",
                            v.round, v.transitions, v.mean_residual, v.band
                        );
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if self.has_violations() { "VIOLATIONS FOUND" } else { "conforms to theory" }
        );
        out
    }
}

/// Accumulates the raw events of one batch before analysis.
#[derive(Debug, Default)]
struct BatchAccum {
    meta: Option<BatchMeta>,
    /// `rep → round → ones`.
    rounds: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// `(rep, converged, rounds, elapsed_us)`.
    finished: Vec<(u64, bool, u64, u64)>,
}

impl BatchAccum {
    fn is_empty(&self) -> bool {
        self.meta.is_none() && self.rounds.is_empty() && self.finished.is_empty()
    }
}

/// A histogram of `samples`, or `None` when there are none.
fn latency_hist(samples: impl Iterator<Item = u64>) -> Option<LogHistogram> {
    let mut h = LogHistogram::new();
    samples.for_each(|v| h.record(v));
    (h.count() > 0).then_some(h)
}

/// Streaming trace analyzer: feed events (or whole columnar blocks) in
/// file order, then [`TraceAccumulator::finish`] to get the
/// [`TraceAnalysis`]. This is the single grouping engine behind both
/// inputs — an in-memory stream pushes [`Event`]s one at a time, a
/// recorded trace ingests typed column views without ever materializing
/// events.
#[derive(Debug, Default)]
pub struct TraceAccumulator {
    accums: Vec<BatchAccum>,
    current: BatchAccum,
    events: usize,
}

impl TraceAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new batch (closing the current one, if it holds anything).
    pub fn start_batch(&mut self, meta: BatchMeta) {
        if !self.current.is_empty() {
            self.accums.push(std::mem::take(&mut self.current));
        }
        self.current.meta = Some(meta);
    }

    /// Records one `RoundCompleted` observation in the current batch.
    pub fn add_round(&mut self, rep: u64, round: u64, ones: u64) {
        self.current.rounds.entry(rep).or_default().insert(round, ones);
    }

    /// Records one `ReplicationFinished` result in the current batch.
    pub fn add_finished(&mut self, rep: u64, converged: bool, rounds: u64, elapsed_us: u64) {
        self.current.finished.push((rep, converged, rounds, elapsed_us));
    }

    /// Consumes one event — the path of in-memory streams, and the
    /// reference [`TraceAccumulator::ingest_block`] is pinned against.
    /// Events that don't affect batch grouping (experiment brackets,
    /// manifests, stability events) still count toward the event total.
    pub fn push(&mut self, ev: &Event) {
        self.events += 1;
        match ev {
            Event::BatchStarted {
                kind,
                protocol,
                ell,
                n,
                x0,
                source_opinion: _,
                reps,
                budget,
                seed,
                g0,
                g1,
            } => {
                self.start_batch(BatchMeta {
                    kind: kind.clone(),
                    protocol: protocol.clone(),
                    n: *n,
                    ell: *ell,
                    x0: *x0,
                    reps: *reps,
                    budget: *budget,
                    seed: *seed,
                    g0: g0.clone(),
                    g1: g1.clone(),
                });
            }
            Event::RoundCompleted { rep, round, ones, .. } => {
                self.add_round(*rep, *round, *ones);
            }
            Event::ReplicationFinished { rep, outcome, rounds, elapsed_us } => {
                self.add_finished(
                    *rep,
                    matches!(outcome, bitdissem_obs::ReplicationOutcome::Converged),
                    *rounds,
                    *elapsed_us,
                );
            }
            _ => {}
        }
    }

    /// Consumes one columnar block — the zero-copy path. Hot blocks
    /// (`RoundCompleted`, `ReplicationFinished`) stream straight off the
    /// column views; rare blocks decode their few rows.
    pub fn ingest_block(&mut self, block: &Block<'_>) {
        match block {
            Block::RoundCompleted(c) => {
                self.events += c.len;
                for ((rep, round), ones) in c.rep.iter().zip(c.round.iter()).zip(c.ones.iter()) {
                    self.add_round(rep, round, ones);
                }
            }
            Block::ReplicationFinished(c) => {
                self.events += c.len;
                for (((rep, converged), rounds), elapsed_us) in c
                    .rep
                    .iter()
                    .zip(c.converged.iter())
                    .zip(c.rounds.iter())
                    .zip(c.elapsed_us.iter())
                {
                    self.add_finished(rep, converged != 0, rounds, elapsed_us);
                }
            }
            Block::BatchStarted(headers) => {
                self.events += headers.len();
                for h in headers {
                    self.start_batch(BatchMeta {
                        kind: h.kind.to_string(),
                        protocol: h.protocol.to_string(),
                        n: h.n,
                        ell: h.ell,
                        x0: h.x0,
                        reps: h.reps,
                        budget: h.budget,
                        seed: h.seed,
                        g0: h.g0.clone(),
                        g1: h.g1.clone(),
                    });
                }
            }
            Block::ExperimentStarted(rows) => self.events += rows.len(),
            Block::ExperimentFinished(rows) => self.events += rows.len(),
            Block::ConsensusExited(rows) => self.events += rows.len(),
            Block::Manifest(rows) => self.events += rows.len(),
            Block::TelemetrySample(cols) => self.events += cols.len,
        }
    }

    /// Closes the stream and analyzes every batch.
    #[must_use]
    pub fn finish(mut self) -> TraceAnalysis {
        if !self.current.is_empty() {
            self.accums.push(self.current);
        }
        TraceAnalysis {
            batches: self.accums.iter().map(analyze_batch).collect(),
            events: self.events,
        }
    }
}

/// Groups an event stream into batches and analyzes each —
/// convenience wrapper over [`TraceAccumulator`] for in-memory slices.
#[must_use]
pub fn analyze(events: &[Event]) -> TraceAnalysis {
    let mut acc = TraceAccumulator::new();
    for ev in events {
        acc.push(ev);
    }
    acc.finish()
}

fn analyze_batch(accum: &BatchAccum) -> BatchAnalysis {
    let converged = accum.finished.iter().filter(|f| f.1).count();
    let rounds: Vec<f64> = accum.finished.iter().filter(|f| f.1).map(|f| f.2 as f64).collect();
    let nanos = |us: u64| us.saturating_mul(1_000);
    BatchAnalysis {
        meta: accum.meta.clone(),
        replications: accum.finished.len(),
        converged,
        timed_out: accum.finished.len() - converged,
        rounds_summary: Summary::from_samples(&rounds),
        rep_latency_ns: latency_hist(accum.finished.iter().map(|f| nanos(f.3))),
        round_latency_ns: latency_hist(
            accum.finished.iter().filter(|f| f.2 > 0).map(|f| nanos(f.3) / f.2),
        ),
        conformance: check_conformance(accum),
    }
}

/// Runs the Prop-4 / Prop-5 checks for one batch, or returns `None` when
/// the batch is not checkable: no header to rebuild the protocol from, or
/// a kind whose round labels are not parallel one-step transitions
/// (`seqconv` rounds are `n` sequential activations; a `cross` batch has
/// no round events, since its engine runs on a handle without a sink), or
/// a `dwell` batch, one run that keeps stepping past its consensus.
fn check_conformance(accum: &BatchAccum) -> Option<Conformance> {
    let meta = accum.meta.as_ref()?;
    if meta.kind != "conv" || meta.n == 0 {
        return None;
    }
    let table = GTable::new(meta.g0.clone(), meta.g1.clone()).ok()?;
    let bias = BiasPolynomial::from_table(&table, meta.n, meta.protocol.clone());
    let n = meta.n;
    let nf = n as f64;
    let ell = usize::try_from(meta.ell).ok()?.max(1);
    // Smallest `a = (1−c)^{ℓ+1}` for which Hoeffding's exp(−a²n/2) stays
    // within the per-check budget.
    let a_min = (2.0 * -JUMP_FAILURE_BUDGET.ln() / nf).sqrt();

    let mut conf = Conformance::default();
    // `round → (sum of residuals, transition count)` for the drift check.
    let mut residuals: BTreeMap<u64, (f64, usize)> = BTreeMap::new();

    for (&rep, by_round) in &accum.rounds {
        // Seed the observed trajectory with X_0 from the header: the
        // round-label convention is that event `r` carries `X_r`, so the
        // initial configuration is exactly the header's `x0`.
        let mut trajectory = by_round.clone();
        trajectory.entry(0).or_insert(meta.x0);
        let mut iter = trajectory.iter().peekable();
        while let (Some((&t, &x_t)), Some(&(&t_next, &x_next))) = (iter.next(), iter.peek()) {
            if t_next != t + 1 {
                continue; // strided trace: not a one-step transition
            }
            conf.adjacent_pairs += 1;

            // Prop 5: accumulate the drift residual for this round.
            let entry = residuals.entry(t).or_insert((0.0, 0));
            entry.0 += x_next as f64 - x_t as f64 - bias.drift_at(x_t);
            entry.1 += 1;

            // Prop 4: check the jump when the concentration bound bites.
            if x_t == 0 || x_t >= n {
                continue; // c outside (0,1): the premise is degenerate
            }
            let c = x_t as f64 / nf;
            let a = (1.0 - c).powi(ell as i32 + 1);
            if a < a_min {
                continue; // vacuous bound this close to consensus
            }
            conf.jump_checked += 1;
            let bound = y_constant(c, ell) * nf;
            if x_next as f64 > bound {
                conf.jump_violations.push(JumpViolation { rep, round: t, x_t, x_next, bound });
            }
        }
    }

    for (&round, &(sum, m)) in &residuals {
        conf.drift_rounds_checked += 1;
        let mean = sum / m as f64;
        let band = 1.0 + DRIFT_Z * (nf / (4.0 * m as f64)).sqrt();
        if mean.abs() > band {
            conf.drift_violations.push(DriftViolation {
                round,
                transitions: m,
                mean_residual: mean,
                band,
            });
        }
    }
    Some(conf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_obs::ReplicationOutcome;

    /// A voter (ℓ=1) batch header for population `n`.
    fn voter_meta(n: u64) -> Event {
        Event::BatchStarted {
            kind: "conv".to_string(),
            protocol: "voter".to_string(),
            ell: 1,
            n,
            x0: 1,
            source_opinion: 1,
            reps: 1,
            budget: 100_000,
            seed: 7,
            g0: vec![0.0, 1.0],
            g1: vec![0.0, 1.0],
        }
    }

    fn round(rep: u64, round: u64, ones: u64) -> Event {
        Event::RoundCompleted { rep, round, ones, source_opinion: 1 }
    }

    fn finished(rep: u64, rounds: u64) -> Event {
        Event::ReplicationFinished {
            rep,
            outcome: ReplicationOutcome::Converged,
            rounds,
            elapsed_us: 10 * rounds,
        }
    }

    #[test]
    fn empty_trace_analyzes_to_nothing() {
        let a = analyze(&[]);
        assert!(a.batches.is_empty());
        assert!(!a.has_violations());
        assert!(a.render().contains("conforms"));
    }

    #[test]
    fn martingale_steps_conform() {
        // Voter is a martingale (F ≡ 0): small symmetric steps violate
        // neither the drift band nor the jump bound.
        let n = 4096;
        let mut events = vec![voter_meta(n)];
        let mut x = 1u64;
        for r in 1..=200 {
            x += u64::from(r % 2 == 0); // slow upward creep, ±0/1 steps
            events.push(round(0, r, x));
        }
        events.push(finished(0, 200));
        let a = analyze(&events);
        assert_eq!(a.batches.len(), 1);
        let conf = a.batches[0].conformance.as_ref().unwrap();
        assert_eq!(conf.adjacent_pairs, 200); // includes the x0 -> round-1 pair
        assert!(conf.jump_checked > 0);
        assert!(!conf.has_violations(), "{:?}", conf);
        assert!(!a.has_violations());
    }

    #[test]
    fn inflated_jump_is_flagged() {
        // Doctored trace: from X_t = 0.3n the voter (ℓ=1) bound is
        // y = 1 − 0.49/2 = 0.755, so a jump to 0.9n must be flagged.
        // Rounds 5→6 so the injected round 0 forms no adjacent pair and
        // only the doctored transition is analyzed.
        let n = 4096;
        let events = vec![
            voter_meta(n),
            round(0, 5, (3 * n) / 10),
            round(0, 6, (9 * n) / 10),
            finished(0, 6),
        ];
        let a = analyze(&events);
        let conf = a.batches[0].conformance.as_ref().unwrap();
        assert_eq!(conf.jump_violations.len(), 1, "{conf:?}");
        let v = &conf.jump_violations[0];
        assert_eq!((v.rep, v.round), (0, 5));
        assert_eq!(v.x_t, (3 * n) / 10);
        assert_eq!(v.x_next, (9 * n) / 10);
        assert!(a.has_violations());
        assert!(a.render().contains("VIOLATION rep=0 round=5->6"), "{}", a.render());
    }

    #[test]
    fn systematic_drift_is_flagged_for_a_martingale() {
        // Voter has F ≡ 0, so a consistent +20 step across many reps at
        // one round escapes the ±(1 + 6·√(n/4m)) band once m is large
        // enough: n=400, m=100 → band = 1 + 6·1 = 7 < 20.
        let n = 400;
        let reps = 100u64;
        let mut events = vec![voter_meta(n)];
        for rep in 0..reps {
            events.push(round(rep, 1, 50));
            events.push(round(rep, 2, 70)); // +20 drift, every rep
            events.push(finished(rep, 2));
        }
        let a = analyze(&events);
        let conf = a.batches[0].conformance.as_ref().unwrap();
        let drift_rounds: Vec<u64> = conf.drift_violations.iter().map(|v| v.round).collect();
        assert!(drift_rounds.contains(&1), "{:?}", conf.drift_violations);
    }

    #[test]
    fn near_consensus_jumps_are_gated_not_flagged() {
        // From X_t = n−2 the bound is vacuous (a ≈ (2/n)^2 is far below
        // the gate): a converging final step must be skipped, not flagged.
        // Rounds 5→6 so the injected round 0 forms no adjacent pair and
        // the near-consensus transition is the only one analyzed.
        let n = 1024;
        let events = vec![voter_meta(n), round(0, 5, n - 2), round(0, 6, n), finished(0, 6)];
        let a = analyze(&events);
        let conf = a.batches[0].conformance.as_ref().unwrap();
        assert_eq!(conf.adjacent_pairs, 1);
        assert_eq!(conf.jump_checked, 0, "vacuous bound must be gated: {conf:?}");
        assert_eq!(conf.jump_violations.len(), 0, "{conf:?}");
    }

    #[test]
    fn strided_traces_have_no_adjacent_pairs() {
        let n = 256;
        let events = vec![voter_meta(n), round(0, 10, 30), round(0, 20, 60), finished(0, 25)];
        let a = analyze(&events);
        let conf = a.batches[0].conformance.as_ref().unwrap();
        assert_eq!(conf.adjacent_pairs, 0);
        assert!(a.render().contains("no adjacent round pairs"), "{}", a.render());
    }

    #[test]
    fn non_conv_batches_are_not_checked() {
        // `seqconv` round labels are sequential activations, not parallel
        // one-step transitions, so the checks must not apply.
        let mut seq = voter_meta(64);
        if let Event::BatchStarted { kind, .. } = &mut seq {
            *kind = "seqconv".to_string();
        }
        let events = vec![seq, round(0, 1, 5), round(0, 2, 9), finished(0, 2)];
        let a = analyze(&events);
        assert!(a.batches[0].conformance.is_none());
        assert!(a.render().contains("not checkable"), "{}", a.render());
    }

    #[test]
    fn batches_split_on_headers_and_headerless_prefix_survives() {
        let events = vec![
            finished(0, 3), // pre-header events (older trace)
            voter_meta(128),
            round(0, 1, 2),
            finished(0, 1),
        ];
        let a = analyze(&events);
        assert_eq!(a.batches.len(), 2);
        assert!(a.batches[0].meta.is_none());
        assert!(a.batches[0].conformance.is_none());
        assert!(a.batches[1].meta.is_some());
        assert!(a.render().starts_with("trace: 4 events, 2 batches\n"), "{}", a.render());
    }

    #[test]
    fn header_only_batches_read_as_not_recorded() {
        // Crossing batches record their header and no finished rows.
        let cross = |count| {
            let mut header = voter_meta(64);
            if let Event::BatchStarted { kind, reps, .. } = &mut header {
                *kind = "cross".to_string();
                *reps = count;
            }
            header
        };
        let a = analyze(&[cross(48), cross(0)]);
        assert_eq!(a.batches.len(), 2);
        assert_eq!(a.batches[0].replications, 0);
        let report = a.render();
        assert!(report.contains("replications: not recorded (48 in header)"), "{report}");
        // A header that names no replications still reads as a count.
        assert!(report.contains("replications: 0 (0 converged, 0 timed out)"), "{report}");
        assert!(!a.has_violations());
    }

    #[test]
    fn latency_histograms_cover_replications() {
        let mut events = vec![voter_meta(64)];
        for rep in 0..8 {
            events.push(finished(rep, 10 + rep));
        }
        let a = analyze(&events);
        let b = &a.batches[0];
        assert_eq!(b.replications, 8);
        assert_eq!(b.converged, 8);
        assert_eq!(b.rep_latency_ns.as_ref().unwrap().count(), 8);
        assert_eq!(b.round_latency_ns.as_ref().unwrap().count(), 8);
        assert!(b.rounds_summary.is_some());
    }
}
