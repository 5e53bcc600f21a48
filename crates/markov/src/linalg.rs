//! Dense, tridiagonal and banded linear solvers, built from scratch.
//!
//! The absorbing-chain computations reduce to solving `(I − Q)·t = 1`. For
//! the parallel chain `Q` is dense (any state can jump to any other), so we
//! use LU with partial pivoting; for the sequential birth–death chain `Q` is
//! tridiagonal and the Thomas algorithm solves it in `O(n)`; for the
//! ε-truncated sparse chain ([`crate::sparse`]) `Q` is banded, and
//! [`banded_solve`] runs a skyline LU without pivoting whose rows arrive
//! through a callback, so the caller never materializes `I − Q`.

use std::sync::Mutex;

use bitdissem_pool::{effective_parallelism, with_wide_lanes, Pool};

/// An LU decomposition with partial pivoting of a square matrix.
///
/// # Examples
///
/// ```
/// use bitdissem_markov::linalg::Lu;
///
/// let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
/// let lu = Lu::factor(a).expect("non-singular");
/// let x = lu.solve(&[5.0, 10.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors (L below the diagonal with implicit unit diagonal,
    /// U on and above).
    lu: Vec<Vec<f64>>,
    /// Row permutation applied during pivoting.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors `a` (consumed) into LU form with partial pivoting.
    ///
    /// Returns `None` if the matrix is singular to working precision
    /// (a pivot smaller than `1e-300` in absolute value), a pivot column
    /// holds a NaN or infinity, or the matrix is empty/ragged.
    #[must_use]
    pub fn factor(mut a: Vec<Vec<f64>>) -> Option<Self> {
        let n = a.len();
        if n == 0 || a.iter().any(|row| row.len() != n) {
            return None;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot: pick the largest |entry| in this column. A NaN
            // ranks above every number, so it is picked and rejected below.
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, a[r][col].abs()))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("non-empty range");
            if pivot_val < 1e-300 || !pivot_val.is_finite() {
                return None;
            }
            if pivot_row != col {
                a.swap(pivot_row, col);
                perm.swap(pivot_row, col);
            }
            let pivot = a[col][col];
            for r in col + 1..n {
                let factor = a[r][col] / pivot;
                a[r][col] = factor;
                if factor != 0.0 {
                    // Manual split to satisfy the borrow checker.
                    let (upper, lower) = a.split_at_mut(r);
                    let src = &upper[col];
                    let dst = &mut lower[0];
                    for c in col + 1..n {
                        dst[c] -= factor * src[c];
                    }
                }
            }
        }
        Some(Self { lu: a, perm })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.len()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side dimension mismatch");
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (unit lower-triangular).
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[i][j] * xj;
            }
            x[i] = s;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[i][j] * xj;
            }
            x[i] = s / self.lu[i][i];
        }
        x
    }
}

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// The system is `sub[i]·x[i−1] + diag[i]·x[i] + sup[i]·x[i+1] = rhs[i]`
/// with `sub[0]` and `sup[n−1]` ignored.
///
/// Returns `None` on dimension mismatch or a vanishing pivot (the algorithm
/// is stable for the diagonally dominant systems produced by birth–death
/// chains).
#[must_use]
pub fn tridiagonal_solve(sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64]) -> Option<Vec<f64>> {
    let n = diag.len();
    if n == 0 || sub.len() != n || sup.len() != n || rhs.len() != n {
        return None;
    }
    let mut c = vec![0.0; n];
    let mut d = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return None;
    }
    c[0] = sup[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - sub[i] * c[i - 1];
        if denom.abs() < 1e-300 || !denom.is_finite() {
            return None;
        }
        c[i] = sup[i] / denom;
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = d[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = d[i] - c[i] * x[i + 1];
    }
    Some(x)
}

/// Multiplies `A·x` for a dense square matrix (testing helper).
///
/// # Panics
///
/// Panics on dimension mismatch.
#[must_use]
pub fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    a.iter()
        .map(|row| {
            assert_eq!(row.len(), x.len(), "dimension mismatch");
            row.iter().zip(x).map(|(&aij, &xj)| aij * xj).sum()
        })
        .collect()
}

/// Rows of `U` that one fused pass applies to a panel row.
const BLOCK: usize = 4;

/// `U`'s skyline: row `k` spans columns `k..end[k]`, stored at `off[k]`.
#[derive(Default)]
struct Skyline {
    off: Vec<usize>,
    end: Vec<usize>,
    vals: Vec<f64>,
}

impl Skyline {
    #[inline(always)]
    fn row(&self, k: usize) -> &[f64] {
        &self.vals[self.off[k]..self.off[k] + (self.end[k] - k)]
    }
}

/// A row of the current panel under elimination: its dense scratch (zero
/// outside the live range), its right-hand side, and the end of its fill.
struct PanelRow<'a> {
    w: &'a mut [f64],
    y: f64,
    end: usize,
}

impl PanelRow<'_> {
    /// The Doolittle step for finalized `U` row `k` (`urow`, its columns
    /// `k..`): `w ← w − (w[k] / u_kk)·u_k`, skipped when `w[k]` is zero.
    #[inline(always)]
    fn apply_row(&mut self, urow: &[f64], k: usize, yk: f64) {
        let wk = self.w[k];
        if wk == 0.0 {
            return;
        }
        self.w[k] = 0.0;
        let factor = wk / urow[0];
        let ue = k + urow.len();
        for (d, &u) in self.w[k + 1..ue].iter_mut().zip(&urow[1..]) {
            *d -= factor * u;
        }
        self.y -= factor * yk;
        self.end = self.end.max(ue);
    }

    /// [`PanelRow::apply_row`] for `U` rows `k..k + 4` in one pass over `w`.
    ///
    /// The four factors are resolved first, in dependency order, on columns
    /// `k..k + 4` (column `k + b` takes the updates of rows `k..k + b`
    /// before its own factor is read, as it would one row at a time). Each
    /// later column then takes `w[c] − f₀·u₀[c] − f₁·u₁[c] − f₂·u₂[c] −
    /// f₃·u₃[c]`, evaluated left to right: the same subtractions in the
    /// same order as four row passes, so the bits match. Where the rows end
    /// at different columns, each finishes alone, lowest row first. A zero
    /// factor would make the row-at-a-time loop skip that `U` row, so such
    /// a block falls back to row passes and no `0·u` term is ever formed.
    #[inline(always)]
    fn apply_block(&mut self, u: &[&[f64]; BLOCK], k: usize, yk: &[f64; BLOCK]) {
        let mut f = [0.0; BLOCK];
        for b in 0..BLOCK {
            let mut a = self.w[k + b];
            for s in 0..b {
                if let Some(&us) = u[s].get(b - s) {
                    a -= f[s] * us;
                }
            }
            if a == 0.0 {
                for (s, urow) in u.iter().enumerate() {
                    self.apply_row(urow, k + s, yk[s]);
                }
                return;
            }
            f[b] = a / u[b][0];
        }
        self.w[k..k + BLOCK].fill(0.0);
        let ends: [usize; BLOCK] = std::array::from_fn(|s| k + s + u[s].len());
        let c0 = k + BLOCK;
        let common = ends.into_iter().fold(usize::MAX, usize::min).max(c0);
        if common > c0 {
            let n = common - c0;
            let [f0, f1, f2, f3] = f;
            let (u0, u1, u2, u3) =
                (&u[0][4..4 + n], &u[1][3..3 + n], &u[2][2..2 + n], &u[3][1..1 + n]);
            let dst = &mut self.w[c0..common];
            for ((((d, &a0), &a1), &a2), &a3) in dst.iter_mut().zip(u0).zip(u1).zip(u2).zip(u3) {
                *d = *d - f0 * a0 - f1 * a1 - f2 * a2 - f3 * a3;
            }
        }
        for (s, (urow, &e)) in u.iter().zip(&ends).enumerate() {
            if e > common {
                let tail = &urow[common - (k + s)..];
                for (d, &us) in self.w[common..e].iter_mut().zip(tail) {
                    *d -= f[s] * us;
                }
            }
        }
        for (&fs, &ys) in f.iter().zip(yk) {
            self.y -= fs * ys;
        }
        self.end = ends.into_iter().fold(self.end, usize::max);
    }
}

/// Eliminates columns `ka..kb` of every row in `rows` against the finalized
/// `U` rows `ka..kb`, in ascending `k`: four `U` rows at a time, each block
/// read once for all of `rows`, then the remainder one row at a time. Runs
/// through [`with_wide_lanes`], with every helper inlined into it.
fn eliminate(u: &Skyline, y: &[f64], ka: usize, kb: usize, rows: &mut [PanelRow]) {
    with_wide_lanes(
        #[inline(always)]
        || {
            let mut k = ka;
            while k + BLOCK <= kb {
                let block = [u.row(k), u.row(k + 1), u.row(k + 2), u.row(k + 3)];
                let yk = [y[k], y[k + 1], y[k + 2], y[k + 3]];
                for r in rows.iter_mut() {
                    r.apply_block(&block, k, &yk);
                }
                k += BLOCK;
            }
            for (k, &yk) in (k..kb).zip(&y[k..kb]) {
                let urow = u.row(k);
                for r in rows.iter_mut() {
                    r.apply_row(urow, k, yk);
                }
            }
        },
    );
}

/// Solves `A·x = b` (`b = rhs`) for a banded sparse matrix `A` whose rows
/// are handed over one at a time by `scatter`.
///
/// `scatter(i, row)` writes row `i` of `A` into the dense slice `row`
/// (length `m = rhs.len()`, zero on entry) and returns its support
/// `lo..hi`: the solver reads `row[lo..hi]` as the row and treats the rest
/// as zero. The caller keeps no copy of `A`: each row is scattered straight
/// into the elimination scratch, once, on whichever pool thread eliminates
/// it.
///
/// Uses a row-oriented (up-looking) Doolittle LU **without pivoting**,
/// intended for the diagonally structured M-matrices `I − Q` arising from
/// absorbing-chain hitting-time systems, where all pivots are provably
/// positive when absorption is reachable. The forward substitution is
/// interleaved into the elimination, so `L` is applied to the right-hand
/// side on the fly and discarded; only `U`'s skyline (diagonal to the
/// fill-extended upper profile) is kept for the back substitution. Work is
/// `O(Σ_i b_l(i)·b_u(i))` for lower/upper bandwidths `b_l`, `b_u` — for the
/// aggregate chains' `O(√(n log n))` bands that is `O(n² log n / n)` flops
/// instead of the dense `O(n³)`.
///
/// Rows are eliminated in panels of 48. The dominant cost — applying the
/// already-finalized `U` rows to a fresh panel — streams the `U` rows in
/// blocks of four: a block's four factors are resolved on its first four
/// columns, then one fused pass updates the rest of the panel row, which
/// saves three loads and three stores of the row per four `U` rows. The
/// fused pass performs the same subtractions in the same order as
/// applying the four `U` rows one after the other, and a block with a zero
/// factor is applied row by row (the row-at-a-time loop skips zero
/// factors), so the result is **bitwise identical** to the unblocked
/// elimination. The panel's rows are split into per-worker chunks on
/// [`Pool::global`]; each row's float schedule depends on nothing but
/// finalized `U` rows, so the result is also bitwise identical for every
/// worker count. Both phases' eliminations run through
/// [`bitdissem_pool::with_wide_lanes`], so on a CPU with AVX2 the fused
/// pass and the row passes vectorize four lanes wide instead of the
/// baseline's two. Wider lanes run the same operations in the same order,
/// so the bits are also the same on every CPU.
///
/// Returns `None` if a pivot is smaller than `1e-300` in magnitude or goes
/// non-finite (singular or numerically unreachable absorption), or if any
/// solution component is non-finite (hitting times beyond f64 range, e.g.
/// `e^Θ(n)` expectations of Majority-like chains at large `n`).
///
/// # Panics
///
/// Panics if `scatter` returns a support that does not cover row `i`'s
/// diagonal or runs past `m` (`lo <= i < hi <= m`).
///
/// # Examples
///
/// ```
/// use bitdissem_markov::linalg::banded_solve;
///
/// // [2 1 0; 1 2 1; 0 1 2] x = [4, 8, 8] -> x = [1, 2, 3]
/// let x = banded_solve(&[4.0, 8.0, 8.0], |i, row| {
///     let lo = i.saturating_sub(1);
///     let hi = (i + 2).min(3);
///     for (j, v) in row[lo..hi].iter_mut().enumerate() {
///         *v = if lo + j == i { 2.0 } else { 1.0 };
///     }
///     (lo, hi)
/// })
/// .expect("non-singular");
/// for (xi, expect) in x.iter().zip([1.0, 2.0, 3.0]) {
///     assert!((xi - expect).abs() < 1e-12);
/// }
/// ```
#[must_use]
pub fn banded_solve<F>(rhs: &[f64], scatter: F) -> Option<Vec<f64>>
where
    F: Fn(usize, &mut [f64]) -> (usize, usize) + Sync,
{
    // Rows are eliminated in panels of this many: one streamed pass over the
    // earlier U rows updates the whole panel, so each U row is read from
    // memory once per panel instead of once per row — the elimination is
    // otherwise bandwidth-bound, not flop-bound, at large bandwidths.
    const PANEL: usize = 48;
    let m = rhs.len();
    let workers = effective_parallelism().max(1);
    let mut u = Skyline::default();
    let mut y = vec![0.0; m];
    // Per-panel-row dense scratch, kept all-zero between panels.
    let mut w: Vec<Vec<f64>> = (0..PANEL.min(m)).map(|_| vec![0.0; m]).collect();
    let mut i0 = 0;
    while i0 < m {
        let pb = PANEL.min(m - i0);
        let mut rows: Vec<PanelRow> =
            w.iter_mut().take(pb).map(|w| PanelRow { w, y: 0.0, end: 0 }).collect();
        // External phase: scatter each panel row, then apply every earlier
        // U row (k ascending keeps the Doolittle dependency order — a panel
        // row's entry at k is final before it is used as a factor). Panel
        // rows only read finalized U rows, so chunks of rows are independent
        // and fan out over the pool; within a chunk each U block is read
        // once for all of the chunk's rows.
        let external = |t0: usize, rows: &mut [PanelRow]| {
            let mut kmin = i0;
            for (j, r) in rows.iter_mut().enumerate() {
                let i = i0 + t0 + j;
                let (lo, hi) = scatter(i, r.w);
                assert!(
                    lo <= i && i < hi && hi <= m,
                    "row {i} support [{lo}, {hi}) must contain the diagonal"
                );
                r.y = rhs[i];
                r.end = hi;
                kmin = kmin.min(lo);
            }
            eliminate(&u, &y, kmin, i0, rows);
        };
        let chunk = pb.div_ceil(workers.min(pb));
        if chunk < pb {
            let cells: Vec<Mutex<(usize, &mut [PanelRow])>> = rows
                .chunks_mut(chunk)
                .enumerate()
                .map(|(c, rs)| Mutex::new((c * chunk, rs)))
                .collect();
            Pool::global().run_batch(cells.len(), cells.len(), &|c| {
                let mut guard = cells[c].lock().expect("panel chunk poisoned");
                let (t0, rs) = &mut *guard;
                external(*t0, rs);
            });
        } else {
            external(0, &mut rows);
        }
        // Internal phase: eliminate within the panel against the U rows
        // stored moments ago (cache-resident), then emit U row i.
        for (t, r) in rows.iter_mut().enumerate() {
            let i = i0 + t;
            eliminate(&u, &y, i0, i, std::slice::from_mut(r));
            let diag = r.w[i];
            if !diag.is_finite() || diag.abs() < 1e-300 {
                return None;
            }
            let mut e = r.end;
            while e > i + 1 && r.w[e - 1] == 0.0 {
                e -= 1;
            }
            u.off.push(u.vals.len());
            u.end.push(e);
            u.vals.extend_from_slice(&r.w[i..e]);
            r.w[i..e].fill(0.0);
            y[i] = r.y;
        }
        i0 += pb;
    }
    // Back substitution on U's skyline.
    let mut x = vec![0.0; m];
    for i in (0..m).rev() {
        let urow = u.row(i);
        let mut s = y[i];
        for (&uv, &xj) in urow[1..].iter().zip(&x[i + 1..u.end[i]]) {
            s -= uv * xj;
        }
        x[i] = s / urow[0];
    }
    if x.iter().any(|v| !v.is_finite()) {
        return None;
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-at-a-time solver `banded_solve` replaced, kept as its
    /// bit-for-bit oracle: the same panels and scratch, but every `U` row is
    /// applied in its own pass, over rows given in CSR-band form (row `i`
    /// spans `lo[i]..lo[i] + len_i` with values `vals[offsets[i]..]`). Its
    /// pool fan-out is left out: a row's float schedule never depended on
    /// the chunking.
    fn banded_solve_rowwise(
        lo: &[usize],
        offsets: &[usize],
        vals: &[f64],
        rhs: &[f64],
    ) -> Option<Vec<f64>> {
        const PANEL: usize = 48;
        let m = rhs.len();
        let mut uoff: Vec<usize> = Vec::with_capacity(m);
        let mut uend: Vec<usize> = Vec::with_capacity(m);
        let mut uvals: Vec<f64> = Vec::new();
        let mut y = vec![0.0; m];
        let mut w: Vec<Vec<f64>> = (0..PANEL.min(m)).map(|_| vec![0.0; m]).collect();
        let mut yp = [0.0; PANEL];
        let mut ubs = [0usize; PANEL];
        let mut i0 = 0;
        while i0 < m {
            let pb = PANEL.min(m - i0);
            let mut kmin = i0;
            for (j, wt) in w.iter_mut().take(pb).enumerate() {
                let i = i0 + j;
                let row = &vals[offsets[i]..offsets[i + 1]];
                let rl = lo[i];
                wt[rl..rl + row.len()].copy_from_slice(row);
                ubs[j] = rl + row.len();
                yp[j] = rhs[i];
                kmin = kmin.min(rl);
            }
            for k in kmin..i0 {
                let urow = &uvals[uoff[k]..uoff[k] + (uend[k] - k)];
                let ud = urow[0];
                let ue = uend[k];
                let yk = y[k];
                for (j, wt) in w.iter_mut().take(pb).enumerate() {
                    let wk = wt[k];
                    if wk == 0.0 {
                        continue;
                    }
                    wt[k] = 0.0;
                    let factor = wk / ud;
                    let dst = &mut wt[k + 1..ue];
                    for (d, &u) in dst.iter_mut().zip(&urow[1..]) {
                        *d -= factor * u;
                    }
                    yp[j] -= factor * yk;
                    if ue > ubs[j] {
                        ubs[j] = ue;
                    }
                }
            }
            for t in 0..pb {
                let i = i0 + t;
                for k in i0..i {
                    let wk = w[t][k];
                    if wk == 0.0 {
                        continue;
                    }
                    w[t][k] = 0.0;
                    let urow = &uvals[uoff[k]..uoff[k] + (uend[k] - k)];
                    let factor = wk / urow[0];
                    let ue = uend[k];
                    let dst = &mut w[t][k + 1..ue];
                    for (d, &u) in dst.iter_mut().zip(&urow[1..]) {
                        *d -= factor * u;
                    }
                    yp[t] -= factor * y[k];
                    if ue > ubs[t] {
                        ubs[t] = ue;
                    }
                }
                let diag = w[t][i];
                if !diag.is_finite() || diag.abs() < 1e-300 {
                    return None;
                }
                let mut e = ubs[t];
                while e > i + 1 && w[t][e - 1] == 0.0 {
                    e -= 1;
                }
                uoff.push(uvals.len());
                uend.push(e);
                uvals.extend_from_slice(&w[t][i..e]);
                w[t][i..e].fill(0.0);
                y[i] = yp[t];
            }
            i0 += pb;
        }
        let mut x = vec![0.0; m];
        for i in (0..m).rev() {
            let urow = &uvals[uoff[i]..uoff[i] + (uend[i] - i)];
            let mut s = y[i];
            for (&u, &xj) in urow[1..].iter().zip(&x[i + 1..uend[i]]) {
                s -= u * xj;
            }
            x[i] = s / urow[0];
        }
        if x.iter().any(|v| !v.is_finite()) {
            return None;
        }
        Some(x)
    }

    /// A random diagonally dominant banded system in CSR-band form, with
    /// right-hand side: supports reach a ragged `0..=bl` below and `0..=bu`
    /// above the diagonal, about one row in eight holds only its diagonal,
    /// and about one off-diagonal entry in six is an explicit zero.
    fn random_banded(
        m: usize,
        bl: usize,
        bu: usize,
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let (mut lo, mut offsets, mut vals, mut rhs) = (vec![], vec![0], vec![], vec![]);
        for i in 0..m {
            let (below, above) = if unit() < 0.125 {
                (0, 0)
            } else {
                let below = (unit() * (bl.min(i) + 1) as f64) as usize;
                (below, (unit() * (bu.min(m - 1 - i) + 1) as f64) as usize)
            };
            let first = vals.len();
            let mut off_sum = 0.0;
            for j in i - below..=i + above {
                let v = if j == i || unit() < 1.0 / 6.0 { 0.0 } else { 2.0 * unit() - 1.0 };
                off_sum += f64::abs(v);
                vals.push(v);
            }
            vals[first + below] = off_sum + 0.5 + unit();
            lo.push(i - below);
            offsets.push(vals.len());
            rhs.push(4.0 * unit() - 2.0);
        }
        (lo, offsets, vals, rhs)
    }

    /// `banded_solve`, fed row by row from the same CSR-band system,
    /// against the row-at-a-time oracle, bit for bit.
    fn assert_matches_rowwise(m: usize, bl: usize, bu: usize, seed: u64) {
        let (lo, offsets, vals, rhs) = random_banded(m, bl, bu, seed);
        let blocked = banded_solve(&rhs, |i, row| {
            let band = &vals[offsets[i]..offsets[i + 1]];
            row[lo[i]..lo[i] + band.len()].copy_from_slice(band);
            (lo[i], lo[i] + band.len())
        });
        let rowwise = banded_solve_rowwise(&lo, &offsets, &vals, &rhs);
        let bits =
            |x: Option<Vec<f64>>| x.map(|x| x.into_iter().map(f64::to_bits).collect::<Vec<_>>());
        assert!(rowwise.is_some(), "diagonally dominant systems are solvable");
        assert_eq!(bits(blocked), bits(rowwise), "m={m} bl={bl} bu={bu} seed={seed}");
    }

    #[test]
    fn banded_solve_matches_rowwise_at_panel_and_block_edges() {
        // Sizes around the 48-row panel and the 4-row block, with bands
        // narrower and wider than a block.
        for m in [1, 2, 3, 5, 47, 48, 49, 95, 97, 146] {
            for (bl, bu) in [(0, 0), (1, 1), (3, 5), (9, 2), (17, 23)] {
                assert_matches_rowwise(m, bl, bu, m as u64 * 1000 + bl as u64 * 10 + bu as u64);
            }
        }
    }

    #[test]
    fn lu_rejects_nan_pivot_columns() {
        assert!(Lu::factor(vec![vec![f64::NAN, 1.0], vec![1.0, 1.0]]).is_none());
        assert!(Lu::factor(vec![vec![1.0, 1.0], vec![f64::NAN, 1.0]]).is_none());
        // NaN surfacing in a later column, after elimination.
        assert!(Lu::factor(vec![vec![2.0, 1.0], vec![1.0, f64::NAN]]).is_none());
        assert!(Lu::factor(vec![vec![f64::INFINITY, 1.0], vec![1.0, 1.0]]).is_none());
    }

    #[test]
    fn lu_solves_identity() {
        let a = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve(&[3.0, -1.0, 2.5]);
        assert_eq!(x, vec![3.0, -1.0, 2.5]);
        assert_eq!(lu.dim(), 3);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve(&[7.0, 9.0]);
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(Lu::factor(a).is_none());
        assert!(Lu::factor(Vec::new()).is_none());
        // Ragged input.
        assert!(Lu::factor(vec![vec![1.0, 2.0], vec![1.0]]).is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn lu_solve_dimension_mismatch_panics() {
        let lu = Lu::factor(vec![vec![1.0]]).unwrap();
        let _ = lu.solve(&[1.0, 2.0]);
    }

    #[test]
    fn thomas_solves_small_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4, 8, 8] -> x = [1, 2, 3]
        let x = tridiagonal_solve(
            &[0.0, 1.0, 1.0],
            &[2.0, 2.0, 2.0],
            &[1.0, 1.0, 0.0],
            &[4.0, 8.0, 8.0],
        )
        .unwrap();
        for (xi, expect) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn thomas_rejects_mismatched_lengths() {
        assert!(tridiagonal_solve(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[1.0, 1.0]).is_none());
        assert!(tridiagonal_solve(&[], &[], &[], &[]).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_lu_roundtrip(
            n in 1usize..8,
            seed in proptest::collection::vec(-5.0f64..5.0, 64 + 8),
        ) {
            // Build a diagonally dominant (hence non-singular) matrix.
            let mut a = vec![vec![0.0; n]; n];
            for i in 0..n {
                let mut row_sum = 0.0;
                for j in 0..n {
                    a[i][j] = seed[i * 8 + j];
                    row_sum += a[i][j].abs();
                }
                a[i][i] = row_sum + 1.0;
            }
            let x_true: Vec<f64> = seed[64..64 + n].to_vec();
            let b = mat_vec(&a, &x_true);
            let lu = Lu::factor(a).unwrap();
            let x = lu.solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8, "{} vs {}", xi, ti);
            }
        }

        #[test]
        fn prop_banded_solve_matches_rowwise(
            m in 1usize..240,
            bl in 0usize..30,
            bu in 0usize..30,
            seed in 0u64..u64::MAX,
        ) {
            assert_matches_rowwise(m, bl, bu, seed);
        }

        #[test]
        fn prop_thomas_matches_lu(
            n in 2usize..10,
            vals in proptest::collection::vec(0.1f64..2.0, 40),
        ) {
            // Diagonally dominant tridiagonal system.
            let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { vals[i % vals.len()] }).collect();
            let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { vals[(i + 7) % vals.len()] }).collect();
            let diag: Vec<f64> = (0..n).map(|i| sub[i] + sup[i] + 1.0 + vals[(i + 13) % vals.len()]).collect();
            let rhs: Vec<f64> = (0..n).map(|i| vals[(i + 23) % vals.len()] - 1.0).collect();

            let x_thomas = tridiagonal_solve(&sub, &diag, &sup, &rhs).unwrap();

            let mut a = vec![vec![0.0; n]; n];
            for i in 0..n {
                a[i][i] = diag[i];
                if i > 0 { a[i][i - 1] = sub[i]; }
                if i + 1 < n { a[i][i + 1] = sup[i]; }
            }
            let x_lu = Lu::factor(a).unwrap().solve(&rhs);
            for (a, b) in x_thomas.iter().zip(&x_lu) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
