//! ε-truncated banded sparse operator for the aggregate chain, with exact
//! analytics at large `n`.
//!
//! Each row of the aggregate transition matrix is the convolution of two
//! binomials (the 1-holders that keep 1 and the 0-holders that flip), whose
//! mass concentrates on `O(√(n log(1/ε)))` states around the conditional
//! mean. [`SparseChain`] materializes exactly those states per row — built
//! in parallel on [`Pool::global`] from [`binomial_pmf_window`] cutoffs —
//! and carries an explicit per-row **tail bound**: the total transition mass
//! dropped by the truncation. Every analytic routine on top is exact up to
//! that tracked bound:
//!
//! * [`expected_hitting_times_sparse`] — banded skyline LU
//!   ([`linalg::banded_solve`]) instead of the dense `O(n³)` factorization;
//! * [`survival_curve_sparse`] — log-space survival accumulation over a
//!   renormalized conditional distribution, ping-pong buffers, no per-step
//!   allocation;
//! * [`mixing_time_extremes_sparse`] — pruned active-window distribution
//!   stepping (the two extreme distributions touch only the states that
//!   carry mass, so a step costs `O(active · band)`, not `O(n · band)`;
//!   the mass a step prunes or truncates widens the TV estimate);
//! * [`spectral_gap`] — shifted power iteration on the transient submatrix.
//!
//! All three stepping routines spend their time in one `dist·P` matvec
//! over the active rows, which runs through
//! [`bitdissem_pool::with_wide_lanes`]: on a CPU with AVX2 it vectorizes
//! four lanes wide, and its bits are the same on every CPU.
//!
//! Dense and sparse agree bitwise on every state inside a row's window (the
//! window recurrence is the same two-sided ratio recurrence as the dense
//! path), so the sparse operator is conformance-gated against
//! [`AggregateChain::transition_row`] at small `n` and trusted at the sizes
//! (`n ≥ 10⁵`) where the dense path is infeasible.

use std::ops::Range;
use std::sync::Mutex;

use bitdissem_core::{Opinion, Protocol, ProtocolError};
use bitdissem_poly::binomial::{binomial_pmf_window, PMF_WINDOW_REL_EPS};
use bitdissem_pool::{effective_parallelism, with_wide_lanes, Pool};

use crate::absorbing::HittingTimes;
use crate::chain::AggregateChain;
use crate::linalg;
use crate::mixing::total_variation;

/// Relative prune threshold for distribution stepping: entries below this
/// fraction of the current maximum are zeroed (and their mass accounted as
/// lost) to keep the active window narrow.
const STEP_PRUNE_REL: f64 = 1e-16;

/// Banded CSR representation of an [`AggregateChain`]'s transition matrix
/// with ε-truncated rows and tracked per-row truncation tails.
#[derive(Debug, Clone)]
pub struct SparseChain {
    agg: AggregateChain,
    rel_eps: f64,
    /// Per-row first stored column, relative to `state_lo` (so an index into
    /// a distribution vector over the valid states).
    row_lo: Vec<usize>,
    /// CSR offsets into `vals`, length `m + 1`.
    offsets: Vec<usize>,
    /// Concatenated row weights.
    vals: Vec<f64>,
    /// Per-row upper bound on the dropped transition mass.
    tails: Vec<f64>,
}

/// Rows one pool task builds per wave of [`SparseChain::from_aggregate`].
const BUILD_BLOCK: usize = 64;

/// Consecutive rows built by one pool task: per-row first column, length
/// and tail, and the rows' weights back to back.
#[derive(Default)]
struct RowBlock {
    lo: Vec<usize>,
    len: Vec<usize>,
    tail: Vec<f64>,
    vals: Vec<f64>,
}

impl RowBlock {
    /// Refills the block with the rows at valid-state indices `rows`.
    fn build(&mut self, agg: &AggregateChain, rows: Range<usize>, rel_eps: f64) {
        self.lo.clear();
        self.len.clear();
        self.tail.clear();
        self.vals.clear();
        for i in rows {
            let before = self.vals.len();
            let (lo_rel, tail) = build_row(agg, agg.state_lo() + i as u64, rel_eps, &mut self.vals);
            self.lo.push(lo_rel);
            self.len.push(self.vals.len() - before);
            self.tail.push(tail);
        }
    }
}

/// Appends the ε-truncated row for absolute state `x` to `out`; returns its
/// first column (relative to `state_lo`) and its tail bound.
fn build_row(agg: &AggregateChain, x: u64, rel_eps: f64, out: &mut Vec<f64>) -> (usize, f64) {
    let z = agg.state_lo();
    let ones = x - z;
    let zeros = agg.n() - x - (1 - z);
    // Equal success probabilities (Voter-family "adopt a sample" dynamics,
    // where both transition probabilities equal the sample law) collapse the
    // convolution exactly: Bin(a, p) + Bin(b, p) = Bin(a + b, p). One window
    // instead of a convolution, and a √2-narrower band (σ_conv = σ_single
    // but the convolved support spans w₁ + w₀ ≈ √2 × the single window).
    if agg.p0(x) == agg.p1(x) {
        let w = binomial_pmf_window(ones + zeros, agg.p1(x), rel_eps);
        out.extend_from_slice(&w.weights);
        return (w.lo as usize, w.tail);
    }
    let keep = binomial_pmf_window(ones, agg.p1(x), rel_eps);
    let flip = binomial_pmf_window(zeros, agg.p0(x), rel_eps);
    // Convolve the two windows; output covers keep.lo + flip.lo + z onward.
    let mut conv = vec![0.0; keep.len() + flip.len() - 1];
    // Outer loop over the smaller window so the inner loop is the longer,
    // autovectorizable slice pass.
    let (outer, inner) = if keep.len() <= flip.len() { (&keep, &flip) } else { (&flip, &keep) };
    for (a, &wa) in outer.weights.iter().enumerate() {
        let dst = &mut conv[a..a + inner.len()];
        for (d, &wb) in dst.iter_mut().zip(&inner.weights) {
            *d += wa * wb;
        }
    }
    // Trim output edges that fell below the cutoff (products of two small
    // edge weights), folding the trimmed mass into the tail.
    let peak = conv.iter().cloned().fold(0.0, f64::max);
    let cut = rel_eps * peak;
    let mut dropped = 0.0;
    let mut start = 0;
    while start + 1 < conv.len() && conv[start] < cut {
        dropped += conv[start];
        start += 1;
    }
    let mut end = conv.len();
    while end > start + 1 && conv[end - 1] < cut {
        dropped += conv[end - 1];
        end -= 1;
    }
    out.extend_from_slice(&conv[start..end]);
    // Window tails bound the mass missing from the exact row; the convolved
    // weights additionally miss cross terms already counted by those tails.
    let tail = (keep.tail + flip.tail + dropped).max(0.0);
    let lo_rel = (keep.lo + flip.lo) as usize + start;
    (lo_rel, tail)
}

impl SparseChain {
    /// Builds the sparse chain for `protocol` at population size `n` with
    /// the default truncation cutoff [`PMF_WINDOW_REL_EPS`].
    ///
    /// # Errors
    ///
    /// Propagates protocol table materialization errors, as
    /// [`AggregateChain::build`] does.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn build<P: Protocol + ?Sized>(
        protocol: &P,
        n: u64,
        correct: Opinion,
    ) -> Result<Self, ProtocolError> {
        Self::build_with_eps(protocol, n, correct, PMF_WINDOW_REL_EPS)
    }

    /// [`SparseChain::build`] with an explicit relative truncation cutoff.
    ///
    /// # Errors
    ///
    /// Propagates protocol table materialization errors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `rel_eps` is not in `(0, 1)`.
    pub fn build_with_eps<P: Protocol + ?Sized>(
        protocol: &P,
        n: u64,
        correct: Opinion,
        rel_eps: f64,
    ) -> Result<Self, ProtocolError> {
        let agg = AggregateChain::build(protocol, n, correct)?;
        Ok(Self::from_aggregate(agg, rel_eps))
    }

    /// Sparsifies an already-built [`AggregateChain`], constructing the
    /// truncated rows in parallel on [`Pool::global`]. Row construction is
    /// deterministic per row index, so the result is independent of worker
    /// count and scheduling.
    ///
    /// Rows are built in row-order waves: each pool task fills a block of
    /// consecutive rows into a reused buffer, and the wave's blocks are then
    /// appended in order to the chain's arrays. No row outlives its wave, so
    /// the build holds the finished chain plus one wave of rows.
    ///
    /// # Panics
    ///
    /// Panics if `rel_eps` is not in `(0, 1)`.
    #[must_use]
    pub fn from_aggregate(agg: AggregateChain, rel_eps: f64) -> Self {
        assert!(rel_eps > 0.0 && rel_eps < 1.0, "rel_eps must be in (0,1), got {rel_eps}");
        let m = (agg.state_hi() - agg.state_lo() + 1) as usize;
        let cap = effective_parallelism().clamp(1, m);
        // A few blocks per participant, so one slow block idles the others
        // for a fraction of the wave.
        let blocks: Vec<Mutex<RowBlock>> =
            (0..(4 * cap).min(m.div_ceil(BUILD_BLOCK))).map(|_| Mutex::default()).collect();
        let mut row_lo = Vec::with_capacity(m);
        let mut offsets = Vec::with_capacity(m + 1);
        let mut tails = Vec::with_capacity(m);
        let mut vals = Vec::new();
        offsets.push(0);
        let mut wave = 0;
        while wave < m {
            let nblocks = blocks.len().min((m - wave).div_ceil(BUILD_BLOCK));
            Pool::global().run_batch(nblocks, cap, &|b| {
                let first = wave + b * BUILD_BLOCK;
                let mut block = blocks[b].lock().expect("sparse row block poisoned");
                block.build(&agg, first..(first + BUILD_BLOCK).min(m), rel_eps);
            });
            for block in &blocks[..nblocks] {
                let block = block.lock().expect("sparse row block poisoned");
                let mut end = vals.len();
                for &len in &block.len {
                    end += len;
                    offsets.push(end);
                }
                row_lo.extend_from_slice(&block.lo);
                tails.extend_from_slice(&block.tail);
                vals.extend_from_slice(&block.vals);
            }
            wave += nblocks * BUILD_BLOCK;
        }
        vals.shrink_to_fit();
        Self { agg, rel_eps, row_lo, offsets, vals, tails }
    }

    /// The underlying dense-capable chain (protocol metadata and `p0`/`p1`
    /// tables; its `transition_row` is the dense reference for this
    /// operator).
    #[must_use]
    pub fn aggregate(&self) -> &AggregateChain {
        &self.agg
    }

    /// Population size.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.agg.n()
    }

    /// Smallest valid state.
    #[must_use]
    pub fn state_lo(&self) -> u64 {
        self.agg.state_lo()
    }

    /// Largest valid state.
    #[must_use]
    pub fn state_hi(&self) -> u64 {
        self.agg.state_hi()
    }

    /// The absorbing target state.
    #[must_use]
    pub fn target(&self) -> u64 {
        self.agg.target()
    }

    /// Number of valid states (`n`).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.row_lo.len()
    }

    /// The relative truncation cutoff the rows were built with.
    #[must_use]
    pub fn rel_eps(&self) -> f64 {
        self.rel_eps
    }

    /// Total number of stored transition weights.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Widest stored row.
    #[must_use]
    pub fn max_bandwidth(&self) -> usize {
        (0..self.num_states()).map(|i| self.offsets[i + 1] - self.offsets[i]).max().unwrap_or(0)
    }

    /// One truncated row for absolute state `x`: the first covered state
    /// (absolute) and the stored weights.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the valid state range.
    #[must_use]
    pub fn row(&self, x: u64) -> (u64, &[f64]) {
        let i = self.index_of(x);
        (self.state_lo() + self.row_lo[i] as u64, &self.vals[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Upper bound on the transition mass dropped from state `x`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the valid state range.
    #[must_use]
    pub fn tail_bound(&self, x: u64) -> f64 {
        self.tails[self.index_of(x)]
    }

    /// The largest per-row tail bound: one step of any distribution loses at
    /// most this much mass to the truncation, so a `t`-step analytic result
    /// carries at most `t × max_tail_bound` of truncation error.
    #[must_use]
    pub fn max_tail_bound(&self) -> f64 {
        self.tails.iter().cloned().fold(0.0, f64::max)
    }

    /// Reconstructs the full dense row (indexed by `y ∈ 0..=n`) for
    /// cross-checking against [`AggregateChain::transition_row`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the valid state range.
    #[must_use]
    pub fn dense_row(&self, x: u64) -> Vec<f64> {
        let (lo_y, weights) = self.row(x);
        let mut row = vec![0.0; self.n() as usize + 1];
        row[lo_y as usize..lo_y as usize + weights.len()].copy_from_slice(weights);
        row
    }

    fn index_of(&self, x: u64) -> usize {
        assert!(
            (self.state_lo()..=self.state_hi()).contains(&x),
            "state {x} outside valid range [{}, {}]",
            self.state_lo(),
            self.state_hi()
        );
        (x - self.state_lo()) as usize
    }

    /// One matrix-vector step restricted to input rows `a..b` (indices into
    /// the valid-state range): accumulates `dist·P` into `next` and returns
    /// the output extent `(out_a, out_b)`. `next[out_a..out_b]` is zeroed
    /// before accumulation; the caller maintains the invariant that `next`
    /// is zero elsewhere. Runs through [`with_wide_lanes`].
    fn step_range(&self, dist: &[f64], a: usize, b: usize, next: &mut [f64]) -> (usize, usize) {
        debug_assert_eq!(dist.len(), self.num_states());
        debug_assert_eq!(next.len(), self.num_states());
        with_wide_lanes(
            #[inline(always)]
            || {
                let mut out_a = usize::MAX;
                let mut out_b = 0usize;
                for (i, &w) in dist.iter().enumerate().take(b).skip(a) {
                    if w == 0.0 {
                        continue;
                    }
                    out_a = out_a.min(self.row_lo[i]);
                    out_b = out_b.max(self.row_lo[i] + (self.offsets[i + 1] - self.offsets[i]));
                }
                if out_a >= out_b {
                    return (0, 0);
                }
                next[out_a..out_b].fill(0.0);
                for (i, &w) in dist.iter().enumerate().take(b).skip(a) {
                    if w == 0.0 {
                        continue;
                    }
                    let row = &self.vals[self.offsets[i]..self.offsets[i + 1]];
                    let dst = &mut next[self.row_lo[i]..self.row_lo[i] + row.len()];
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d += w * v;
                    }
                }
                (out_a, out_b)
            },
        )
    }
}

/// A distribution over the valid states with a tracked active window,
/// stepped against a [`SparseChain`] with ping-pong buffers (no per-step
/// allocation). Mass below [`STEP_PRUNE_REL`] of the running maximum is
/// zeroed at the window edges and accumulated into `lost`, together with the
/// per-row truncation tails, so the total accounting error of a trajectory
/// is available as an explicit bound.
struct ActiveDist {
    cur: Vec<f64>,
    nxt: Vec<f64>,
    a: usize,
    b: usize,
    lost: f64,
}

impl ActiveDist {
    fn point(m: usize, i: usize) -> Self {
        let mut cur = vec![0.0; m];
        cur[i] = 1.0;
        Self { cur, nxt: vec![0.0; m], a: i, b: i + 1, lost: 0.0 }
    }

    /// Advances one round; afterwards `cur` holds the stepped distribution.
    /// The mass the truncated rows drop, `Σ cur[i]·tail[i]` over the active
    /// rows, is added to `lost`.
    fn step(&mut self, chain: &SparseChain) {
        let (na, nb) = chain.step_range(&self.cur, self.a, self.b, &mut self.nxt);
        self.lost += self.cur[self.a..self.b]
            .iter()
            .zip(&chain.tails[self.a..self.b])
            .map(|(&p, &tail)| p * tail)
            .sum::<f64>();
        // Zero the old buffer's active range to restore the all-zero
        // invariant, then swap.
        self.cur[self.a..self.b].fill(0.0);
        std::mem::swap(&mut self.cur, &mut self.nxt);
        self.a = na;
        self.b = nb;
        self.prune();
    }

    /// Shrinks the active window from both edges, discarding (and
    /// accounting) entries below the relative prune threshold.
    fn prune(&mut self) {
        let peak = self.cur[self.a..self.b].iter().cloned().fold(0.0, f64::max);
        let cut = STEP_PRUNE_REL * peak;
        while self.a < self.b && self.cur[self.a] < cut {
            self.lost += self.cur[self.a];
            self.cur[self.a] = 0.0;
            self.a += 1;
        }
        while self.b > self.a && self.cur[self.b - 1] < cut {
            self.lost += self.cur[self.b - 1];
            self.cur[self.b - 1] = 0.0;
            self.b -= 1;
        }
    }

    fn mass(&self) -> f64 {
        self.cur[self.a..self.b].iter().sum()
    }

    /// Multiplies the active entries by `s`.
    fn scale(&mut self, s: f64) {
        for v in &mut self.cur[self.a..self.b] {
            *v *= s;
        }
    }
}

/// Exact expected hitting times of the correct consensus from every state,
/// via the banded skyline solver over the ε-truncated operator.
///
/// Exact up to the truncation: the computed times deviate from the dense
/// answer by at most roughly `max_tail_bound × t_worst` per unit time (the
/// dropped mass is treated as never absorbing), which for the default cutoff
/// is far below f64 resolution of the result. Returns `None` when the
/// system is singular (absorption unreachable, e.g. `Stay`) or the times
/// overflow f64 (`e^Θ(n)` expectations of Majority-like chains at large
/// `n`) — large-`n` regimes with astronomically slow protocols are the
/// drift-band oracle's territory, not this solver's.
#[must_use]
pub fn expected_hitting_times_sparse(chain: &SparseChain) -> Option<HittingTimes> {
    let lo = chain.state_lo();
    let target = chain.target();
    let m = chain.num_states();
    let target_i = (target - lo) as usize;
    // The target sits at an end of the valid range, so the transient states
    // are contiguous and keep their relative order.
    assert!(target_i == 0 || target_i == m - 1, "absorbing target must be an extreme state");
    // Transient index of valid-state index i.
    let tindex = |i: usize| if target_i == 0 { i - 1 } else { i };
    // Row ti of I − Q over the transient states, written straight from the
    // chain into the solver's scratch.
    let scatter = |ti: usize, row: &mut [f64]| {
        let i = if target_i == 0 { ti + 1 } else { ti };
        let (row_lo_abs, weights) = chain.row(lo + i as u64);
        let row_lo = (row_lo_abs - lo) as usize;
        // The band's column range in valid-state coordinates; the target can
        // only sit at an edge of it (it is an extreme state), so excluding
        // it keeps the range contiguous.
        let mut jl = row_lo;
        let mut jr = row_lo + weights.len() - 1;
        if jl == target_i {
            jl += 1;
        }
        if jr == target_i {
            jr = jr.saturating_sub(1);
        }
        let has_transient = jl <= jr && jr != target_i;
        let (lo_j, hi_j) =
            if has_transient { (ti.min(tindex(jl)), ti.max(tindex(jr))) } else { (ti, ti) };
        row[lo_j..=hi_j].fill(0.0);
        if has_transient {
            for (k, &w) in weights.iter().enumerate() {
                let j = row_lo + k;
                if j != target_i {
                    row[tindex(j)] = -w;
                }
            }
        }
        row[ti] += 1.0;
        (lo_j, hi_j + 1)
    };
    let t = linalg::banded_solve(&vec![1.0; m - 1], scatter)?;
    if t.iter().any(|&v| v < -1e-9) {
        return None;
    }
    let mut times = Vec::with_capacity(m);
    for i in 0..m {
        if i == target_i {
            times.push(0.0);
        } else {
            times.push(t[tindex(i)].max(0.0));
        }
    }
    Some(HittingTimes::from_parts(lo, times))
}

/// Survival curve `P(τ > t)` for `t = 0, …, t_max` from the point mass at
/// `x0`, computed in log space: the conditional distribution given survival
/// is renormalized every round and the per-round survival factors are
/// accumulated as `ln S(t) = Σ ln(1 − m_s)`, so curves remain meaningful
/// far below f64 underflow of a direct product. Ping-pong buffers; no
/// per-step allocation.
///
/// Truncation and pruning mass is treated as absorbed, so the curve
/// under-estimates survival by at most `t × (max_tail_bound + pruning)` —
/// negligible at the default cutoff for any feasible `t`. Each round's
/// survival factor is capped at 1 (the kept row weights of a row can sum to
/// `1 + O(1e-12)` in floating point), so the curve never rises and never
/// exceeds 1.
///
/// # Panics
///
/// Panics if `x0` is outside the valid state range.
#[must_use]
pub fn survival_curve_sparse(chain: &SparseChain, x0: u64, t_max: usize) -> Vec<f64> {
    let lo = chain.state_lo();
    let target_i = (chain.target() - lo) as usize;
    let i0 = chain.index_of(x0);
    let mut curve = Vec::with_capacity(t_max + 1);
    if i0 == target_i {
        curve.resize(t_max + 1, 0.0);
        return curve;
    }
    let mut dist = ActiveDist::point(chain.num_states(), i0);
    let mut ln_s = 0.0_f64;
    curve.push(1.0);
    for _ in 1..=t_max {
        dist.step(chain);
        // Absorbed mass leaves the conditional distribution.
        if target_i >= dist.a && target_i < dist.b {
            dist.cur[target_i] = 0.0;
        }
        let live = dist.mass();
        if live <= 0.0 {
            curve.resize(t_max + 1, 0.0);
            break;
        }
        // Capped: the kept weights may sum past 1 (see above).
        ln_s += live.min(1.0).ln();
        dist.scale(1.0 / live);
        curve.push(ln_s.exp());
    }
    curve
}

/// Sparse counterpart of [`crate::mixing::mixing_time_extremes`]: the first
/// round at which the distributions from the two extreme starts are within
/// total variation `epsilon`, using pruned active-window stepping. At large
/// `n` the two distributions occupy narrow bands, so a round costs
/// `O(active × band)` instead of `O(n × band)`.
///
/// Returns `None` if the extremes have not coupled within `max_rounds`.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)`.
#[must_use]
pub fn mixing_time_extremes_sparse(
    chain: &SparseChain,
    epsilon: f64,
    max_rounds: usize,
) -> Option<usize> {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    let m = chain.num_states();
    let mut from_lo = ActiveDist::point(m, 0);
    let mut from_hi = ActiveDist::point(m, m - 1);
    for t in 0..=max_rounds {
        // Pruned/truncated mass never cancels against the other trajectory,
        // so add it to the TV estimate to stay conservative.
        let slack = (from_lo.lost + from_hi.lost) / 2.0;
        if total_variation(&from_lo.cur, &from_hi.cur) + slack <= epsilon {
            return Some(t);
        }
        if t == max_rounds {
            break;
        }
        from_lo.step(chain);
        from_hi.step(chain);
    }
    None
}

/// Spectral gap `1 − λ*` of the transient submatrix `Q`, where `λ*` is
/// `Q`'s largest eigenvalue (the quasi-stationary decay rate: survival
/// probabilities shrink by `λ*` per round once the chain has relaxed).
///
/// Computed by shifted power iteration on `Q + shift·I`: the shift
/// (default `0.5` via [`spectral_gap`]) maps any periodic or
/// negative-eigenvalue structure away from the dominant magnitude, so the
/// iteration converges for chains where plain power iteration would
/// oscillate. Iterates until the L1 change of the normalized vector and the
/// eigenvalue estimate both move less than `tol`, or `max_iters` rounds.
///
/// Returns `None` if the iteration has not converged within the budget or
/// the transient mass vanishes.
///
/// # Panics
///
/// Panics if `shift < 0` or `tol <= 0`.
#[must_use]
pub fn spectral_gap_shifted(
    chain: &SparseChain,
    shift: f64,
    max_iters: usize,
    tol: f64,
) -> Option<f64> {
    assert!(shift >= 0.0, "shift must be non-negative");
    assert!(tol > 0.0, "tol must be positive");
    let m = chain.num_states();
    let target_i = (chain.target() - chain.state_lo()) as usize;
    if m < 2 {
        return None;
    }
    // Uniform start over the transient states.
    let mut v = vec![1.0 / (m - 1) as f64; m];
    v[target_i] = 0.0;
    let mut next = vec![0.0; m];
    let mut lambda_prev = f64::NAN;
    for _ in 0..max_iters {
        let (_, _) = chain.step_range(&v, 0, m, &mut next);
        next[target_i] = 0.0;
        // next = v·Q + shift·v.
        if shift > 0.0 {
            for (nv, &vv) in next.iter_mut().zip(&v) {
                *nv += shift * vv;
            }
        }
        let mass: f64 = next.iter().sum();
        if mass <= 0.0 || !mass.is_finite() {
            return None;
        }
        let lambda = mass - shift;
        let inv = 1.0 / mass;
        let mut diff = 0.0;
        for (nv, vv) in next.iter_mut().zip(&mut v) {
            *nv *= inv;
            diff += (*nv - *vv).abs();
            *vv = *nv;
            *nv = 0.0;
        }
        if diff < tol && (lambda - lambda_prev).abs() < tol {
            return Some(1.0 - lambda);
        }
        lambda_prev = lambda;
    }
    None
}

/// [`spectral_gap_shifted`] with the default shift `0.5`, iteration budget
/// `100_000` and tolerance `1e-12`.
#[must_use]
pub fn spectral_gap(chain: &SparseChain) -> Option<f64> {
    spectral_gap_shifted(chain, 0.5, 100_000, 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorbing::{expected_hitting_times, survival_curve};
    use crate::mixing::mixing_time_extremes;
    use bitdissem_core::channel::with_observation_noise;
    use bitdissem_core::dynamics::{Minority, Stay, Voter};
    use proptest::prelude::*;

    fn voter_chain(n: u64) -> SparseChain {
        SparseChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap()
    }

    #[test]
    fn rows_match_dense_bitwise_inside_window() {
        for n in [2, 3, 8, 33, 64] {
            let sparse = voter_chain(n);
            for x in sparse.state_lo()..=sparse.state_hi() {
                let dense = sparse.aggregate().transition_row(x);
                let (lo_y, weights) = sparse.row(x);
                let sum: f64 = weights.iter().sum();
                assert!((sum + sparse.tail_bound(x) - 1.0).abs() < 1e-9, "row {x} mass");
                for (k, &w) in weights.iter().enumerate() {
                    let y = lo_y as usize + k;
                    // The convolution accumulates in a different order than
                    // the dense double loop (1e-14-relative reorder noise),
                    // and window-edge entries miss cross terms whose total
                    // is covered by the tracked tail.
                    assert!(
                        (w - dense[y]).abs() <= 1e-13 * dense[y] + sparse.tail_bound(x) + 1e-300,
                        "n={n} x={x} y={y}: {w} vs {}",
                        dense[y]
                    );
                }
            }
        }
    }

    #[test]
    fn hitting_times_match_dense_solver() {
        for n in [8, 32, 64] {
            let sparse = voter_chain(n);
            let exact = expected_hitting_times(sparse.aggregate()).unwrap();
            let fast = expected_hitting_times_sparse(&sparse).unwrap();
            for (x, t) in exact.iter() {
                let tf = fast.from_state(x);
                assert!(
                    (t - tf).abs() <= 1e-9 * t.max(1.0),
                    "n={n} x={x}: dense {t} vs sparse {tf}"
                );
            }
        }
    }

    #[test]
    fn unreachable_absorption_is_none() {
        let sparse = SparseChain::build(&Stay::new(1), 16, Opinion::One).unwrap();
        assert!(expected_hitting_times_sparse(&sparse).is_none());
    }

    #[test]
    fn survival_matches_dense_iteration() {
        let n = 24;
        let sparse = voter_chain(n);
        let dense = survival_curve(sparse.aggregate(), 1, 200);
        let fast = survival_curve_sparse(&sparse, 1, 200);
        assert_eq!(dense.len(), fast.len());
        for (t, (d, f)) in dense.iter().zip(&fast).enumerate() {
            assert!((d - f).abs() < 1e-9, "t={t}: dense {d} vs sparse {f}");
        }
    }

    #[test]
    fn survival_never_rises_and_never_exceeds_one() {
        // The benchmark's curve: Voter(1) at n = 2048 from state 1. Its kept
        // row weights sum to 1 + ~5e-12, which took the uncapped curve to
        // 1 + 5.5e-10, with 379 points above 1 and 333 rises; all of them
        // fall in the first 512 rounds of its 4096 (the curve's prefix does
        // not depend on `t_max`).
        let sparse = voter_chain(2048);
        let curve = survival_curve_sparse(&sparse, 1, 512);
        assert!(
            curve.iter().all(|&s| s <= 1.0),
            "peak {}",
            curve.iter().cloned().fold(0.0, f64::max)
        );
        let rises = curve.windows(2).filter(|w| w[1] > w[0]).count();
        assert_eq!(rises, 0, "curve rises {rises} times");
    }

    #[test]
    fn survival_from_target_is_zero() {
        let sparse = voter_chain(16);
        let curve = survival_curve_sparse(&sparse, sparse.target(), 5);
        assert_eq!(curve, vec![0.0; 6]);
    }

    #[test]
    fn mixing_matches_dense_on_noisy_voter() {
        let n = 32;
        let noisy = with_observation_noise(&Voter::new(1).unwrap(), 0.1, n).unwrap();
        let dense_chain = AggregateChain::build(&noisy, n, Opinion::One).unwrap();
        let sparse = SparseChain::from_aggregate(dense_chain.clone(), PMF_WINDOW_REL_EPS);
        let td = mixing_time_extremes(&dense_chain, 0.25, 10_000).unwrap();
        let ts = mixing_time_extremes_sparse(&sparse, 0.25, 10_000).unwrap();
        assert_eq!(td, ts);
    }

    #[test]
    fn step_counts_truncation_tails_as_lost() {
        // At ε = 1e-3 the truncated rows drop visible mass (2.1e-4 from
        // state 2 of Voter at n = 256), and the mixing slack must include
        // it: one step from a point mass at x loses at least x's row tail.
        let sparse =
            SparseChain::build_with_eps(&Voter::new(1).unwrap(), 256, Opinion::One, 1e-3).unwrap();
        for x in [2, 64, 128, 200] {
            let tail = sparse.tail_bound(x);
            assert!(tail > 1e-6, "x={x}: tail {tail}");
            let mut dist = ActiveDist::point(sparse.num_states(), sparse.index_of(x));
            dist.step(&sparse);
            assert!(dist.lost >= tail, "x={x}: lost {} < tail {tail}", dist.lost);
        }
    }

    #[test]
    fn spectral_gap_matches_survival_decay() {
        // Once relaxed, survival decays by λ* per round; compare the decay
        // ratio of the far survival curve against 1 − gap.
        let sparse = voter_chain(16);
        let gap = spectral_gap(&sparse).expect("converges");
        assert!(gap > 0.0 && gap < 1.0, "gap {gap}");
        let curve = survival_curve_sparse(&sparse, sparse.state_lo(), 2000);
        let ratio = curve[1999] / curve[1998];
        assert!((ratio - (1.0 - gap)).abs() < 1e-6, "decay {ratio} vs 1-gap {}", 1.0 - gap);
    }

    #[test]
    fn minority_hitting_error_respects_tail_contract() {
        // Minority(3) at n = 48 has e^Θ(n)-scale hitting times (~1e12), the
        // regime where truncation error is amplified by T itself. In exact
        // arithmetic dropping row mass can only *shrink* the Neumann series
        // (under-estimate), but here the condition number of I − Q is ~T, so
        // LU rounding alone perturbs the solution by O(κ·ε) and the sign of
        // the error is not observable in floating point. The documented
        // contract is the two-sided magnitude bound: |Δ|/T ≤
        // max_tail_bound × T.
        let n = 48;
        let sparse = SparseChain::build(&Minority::new(3).unwrap(), n, Opinion::One).unwrap();
        let fast = expected_hitting_times_sparse(&sparse).unwrap();
        let dense = expected_hitting_times(sparse.aggregate()).unwrap();
        let (xs, ts) = fast.worst();
        let (xd, td) = dense.worst();
        assert_eq!(xs, xd);
        let rel = (td - ts).abs() / td;
        let bound = (sparse.max_tail_bound() * td).min(0.5);
        assert!(rel <= bound, "relative error {rel} exceeds tail contract {bound}");
        // Moderate-horizon survival is well-conditioned even here.
        let ds = survival_curve(sparse.aggregate(), sparse.state_lo(), 300);
        let fs = survival_curve_sparse(&sparse, sparse.state_lo(), 300);
        for (t, (d, f)) in ds.iter().zip(&fs).enumerate() {
            assert!((d - f).abs() < 1e-9, "t={t}: {d} vs {f}");
        }
    }

    #[test]
    fn nnz_scales_sublinearly_per_row() {
        let n = 4096;
        let sparse = voter_chain(n);
        let avg = sparse.nnz() as f64 / sparse.num_states() as f64;
        // O(sqrt(n log(1/eps))) per row: generous ceiling well below n.
        assert!(avg < 40.0 * (n as f64).sqrt(), "avg row width {avg}");
        assert!((sparse.max_bandwidth() as f64) < (n as f64) / 2.0);
        assert!(sparse.max_tail_bound() < 1e-9);
    }

    #[test]
    #[ignore = "manual perf probe: run with --release --ignored, size via BITDISSEM_MARKOV_PERF_N"]
    fn perf_large_n_probe() {
        let n: u64 = std::env::var("BITDISSEM_MARKOV_PERF_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000);
        let t0 = std::time::Instant::now();
        let sparse = voter_chain(n);
        let t_build = t0.elapsed();
        let t0 = std::time::Instant::now();
        let times = expected_hitting_times_sparse(&sparse).expect("voter absorbs");
        let t_hit = t0.elapsed();
        let t0 = std::time::Instant::now();
        let noisy = with_observation_noise(&Voter::new(1).unwrap(), 0.1, n).unwrap();
        let noisy_sparse = SparseChain::build(&noisy, n, Opinion::One).unwrap();
        let t_build_noisy = t0.elapsed();
        let t0 = std::time::Instant::now();
        let mix = mixing_time_extremes_sparse(&noisy_sparse, 0.25, 100_000);
        let t_mix = t0.elapsed();
        eprintln!(
            "n={n}: build {:.2?} (nnz {}, band {}, tail {:.2e}), hitting {:.2?} (worst {:.4e}), \
             noisy build {:.2?}, mixing {:.2?} ({mix:?})",
            t_build,
            sparse.nnz(),
            sparse.max_bandwidth(),
            sparse.max_tail_bound(),
            t_hit,
            times.worst().1,
            t_build_noisy,
            t_mix,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_sparse_rows_agree_with_dense_within_tail(
            n in 2u64..=256,
            ell in 1usize..=3,
            correct_bit in 0u8..2,
        ) {
            let correct = if correct_bit == 1 { Opinion::One } else { Opinion::Zero };
            let sparse = SparseChain::build(&Voter::new(ell).unwrap(), n, correct).unwrap();
            for x in sparse.state_lo()..=sparse.state_hi() {
                let dense = sparse.aggregate().transition_row(x);
                let recon = sparse.dense_row(x);
                let missing: f64 = dense
                    .iter()
                    .zip(&recon)
                    .map(|(d, r)| (d - r).abs())
                    .sum();
                // Everything the sparse row dropped (or perturbed by
                // reordered accumulation) is covered by the tracked tail
                // plus fp slack.
                prop_assert!(
                    missing <= sparse.tail_bound(x) + 1e-12,
                    "x={} missing {} tail {}", x, missing, sparse.tail_bound(x)
                );
            }
        }
    }
}
