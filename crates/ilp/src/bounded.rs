//! Dense two-phase primal simplex with *native* variable upper bounds:
//! the LP relaxation solver behind the branch and bound.
//!
//! A plain simplex needs an explicit `x_j <= u_j` row per bounded
//! variable, which doubles the row count of 0/1 LP relaxations (the
//! crate keeps one, test-only, as this module's oracle). The
//! bounded-variable method keeps those bounds out of the basis entirely:
//! a nonbasic variable rests at its *lower or upper* bound, the ratio
//! test additionally considers basics hitting their upper bounds and the
//! entering variable flipping straight to its other bound, and
//! everything else proceeds as usual. For the OPERON
//! relaxations this roughly halves the tableau and the pivot work.
//!
//! # Examples
//!
//! ```
//! use operon_ilp::bounded::{solve_lp_bounded, LpOutcome, LpRow};
//! use operon_ilp::Cmp;
//!
//! // min -x0 - 2 x1  s.t. x0 + x1 <= 1.5, 0 <= x <= 1.
//! let rows = vec![LpRow::new(vec![1.0, 1.0], Cmp::Le, 1.5)];
//! match solve_lp_bounded(&[-1.0, -2.0], &rows, &[1.0, 1.0], None).outcome {
//!     LpOutcome::Optimal { objective, x } => {
//!         assert!((objective + 2.5).abs() < 1e-6);
//!         assert!((x[1] - 1.0).abs() < 1e-6);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

use crate::Cmp;

const EPS: f64 = 1e-9;
const FEAS_EPS: f64 = 1e-7;

/// One LP constraint row: `coeffs · x cmp rhs`.
#[derive(Clone, Debug)]
pub struct LpRow {
    /// Dense coefficient vector (length = number of variables).
    pub coeffs: Vec<f64>,
    /// Comparison sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

impl LpRow {
    /// Creates a row.
    pub fn new(coeffs: Vec<f64>, cmp: Cmp, rhs: f64) -> Self {
        Self { coeffs, cmp, rhs }
    }
}

/// Result of an LP solve.
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// The minimized objective value.
        objective: f64,
        /// The primal solution (length = number of variables).
        x: Vec<f64>,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (cannot happen when every
    /// variable has a finite upper bound).
    Unbounded,
}

/// Where a nonbasic variable currently rests.
///
/// Also the unit of warm-start information between branch-and-bound
/// nodes: a parent LP's per-variable rests, replayed into a child's
/// initial tableau via [`solve_lp_bounded`], start the child search
/// near the parent vertex and cut pivot counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rest {
    /// Resting at the lower bound `0`.
    Lower,
    /// Resting at the upper bound `u_j`.
    Upper,
}

/// Result of a bounded solve, with the extras warm-started callers need.
#[derive(Clone, Debug)]
pub struct BoundedSolve {
    /// The LP outcome.
    pub outcome: LpOutcome,
    /// Rest-bound summary of each structural variable at the optimum —
    /// empty unless optimal. Feed it back as the `hint` of a related
    /// solve (e.g. a child branch-and-bound node).
    pub rests: Vec<Rest>,
    /// Simplex iterations performed (pivots plus bound flips, both
    /// phases).
    pub iterations: u64,
}

/// Solves `min c·x` subject to `rows` and `0 <= x_j <= upper[j]`, with
/// an optional warm-start rest `hint` (one [`Rest`] per structural
/// variable), returning the rests and iteration count alongside the
/// outcome.
///
/// `upper[j]` may be `f64::INFINITY` for a free-above variable. Slack and
/// artificial variables are managed internally.
///
/// Hinted columns are flipped to their upper bound before phase 1 when
/// doing so keeps every basic value feasible and does not increase the
/// artificial infeasibility — so a stale or wrong hint can slow nothing
/// down structurally; it is simply ignored column by column. The result
/// is identical to the unhinted solve up to degenerate-vertex ties.
///
/// # Panics
///
/// Panics on dimension mismatches or non-finite input data (infinite
/// upper bounds excepted).
pub fn solve_lp_bounded(
    c: &[f64],
    rows: &[LpRow],
    upper: &[f64],
    hint: Option<&[Rest]>,
) -> BoundedSolve {
    let n = c.len();
    assert_eq!(upper.len(), n, "one upper bound per variable");
    assert!(c.iter().all(|v| v.is_finite()), "non-finite cost");
    assert!(
        upper.iter().all(|&u| u >= 0.0 && !u.is_nan()),
        "upper bounds must be non-negative"
    );
    for row in rows {
        assert_eq!(row.coeffs.len(), n, "row width must match variable count");
        assert!(row.rhs.is_finite(), "non-finite rhs");
        assert!(
            row.coeffs.iter().all(|v| v.is_finite()),
            "non-finite coefficient"
        );
    }
    if let Some(h) = hint {
        assert_eq!(h.len(), n, "one rest hint per variable");
    }
    let mut tableau = BoundedTableau::build(c, rows, upper);
    if let Some(h) = hint {
        tableau.apply_rest_hint(h);
    }
    tableau.init_phase1_objective();
    tableau.solve()
}

struct BoundedTableau {
    /// `m` constraint rows × `width` columns; the last column is the
    /// current *value* of each row's basic variable.
    t: Vec<Vec<f64>>,
    /// Reduced-cost row (length `width - 1`) plus the objective value in
    /// the last slot (stored negated, as in the classic tableau).
    obj: Vec<f64>,
    m: usize,
    width: usize,
    /// Total columns (structurals + slacks + artificials).
    n_cols: usize,
    n_struct: usize,
    art_start: usize,
    /// Upper bound per column (INFINITY for slacks/artificials' heads).
    ub: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Rest status of every column (meaningful when nonbasic).
    rest: Vec<Rest>,
    /// Phase-2 cost per column.
    cost2: Vec<f64>,
    /// Simplex iterations (pivots + bound flips) performed so far.
    iters: u64,
}

impl BoundedTableau {
    fn build(c: &[f64], rows: &[LpRow], upper: &[f64]) -> Self {
        let n = c.len();
        let m = rows.len();

        // Normalize rows to b >= 0 (structural variables start at their
        // LOWER bound 0, so the initial basic values are exactly b).
        #[derive(Clone, Copy)]
        enum Kind {
            Slack,
            SurplusArt,
            Art,
        }
        let mut norm: Vec<(Vec<f64>, f64, Kind)> = Vec::with_capacity(m);
        for row in rows {
            let (mut coeffs, mut rhs, mut cmp) = (row.coeffs.clone(), row.rhs, row.cmp);
            if rhs < 0.0 {
                for v in &mut coeffs {
                    *v = -*v;
                }
                rhs = -rhs;
                cmp = match cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
            let kind = match cmp {
                Cmp::Le => Kind::Slack,
                Cmp::Ge => Kind::SurplusArt,
                Cmp::Eq => Kind::Art,
            };
            norm.push((coeffs, rhs, kind));
        }
        let n_slack = norm
            .iter()
            .filter(|(_, _, k)| matches!(k, Kind::Slack | Kind::SurplusArt))
            .count();
        let n_art = norm
            .iter()
            .filter(|(_, _, k)| matches!(k, Kind::SurplusArt | Kind::Art))
            .count();
        let n_cols = n + n_slack + n_art;
        let width = n_cols + 1;
        let art_start = n + n_slack;

        let mut t = vec![vec![0.0; width]; m];
        let mut basis = vec![0usize; m];
        let (mut si, mut ai) = (0usize, 0usize);
        for (i, (coeffs, rhs, kind)) in norm.iter().enumerate() {
            t[i][..n].copy_from_slice(coeffs);
            t[i][width - 1] = *rhs;
            match kind {
                Kind::Slack => {
                    t[i][n + si] = 1.0;
                    basis[i] = n + si;
                    si += 1;
                }
                Kind::SurplusArt => {
                    t[i][n + si] = -1.0;
                    si += 1;
                    t[i][art_start + ai] = 1.0;
                    basis[i] = art_start + ai;
                    ai += 1;
                }
                Kind::Art => {
                    t[i][art_start + ai] = 1.0;
                    basis[i] = art_start + ai;
                    ai += 1;
                }
            }
        }

        let mut ub = vec![f64::INFINITY; n_cols];
        ub[..n].copy_from_slice(upper);
        let mut cost2 = vec![0.0; n_cols];
        cost2[..n].copy_from_slice(c);

        Self {
            t,
            obj: vec![0.0; width],
            m,
            width,
            n_cols,
            n_struct: n,
            art_start,
            ub,
            basis,
            rest: vec![Rest::Lower; n_cols],
            cost2,
            iters: 0,
        }
    }

    /// Replays a parent vertex's rests: flips hinted structural columns
    /// to their upper bound before phase 1. A flip is committed only when
    /// every basic value stays non-negative AND the total artificial
    /// infeasibility does not grow, so hints can never make phase 1 start
    /// from a worse point than the cold start. Must run before
    /// [`Self::init_phase1_objective`] so the phase-1 reduced costs price
    /// the flipped values.
    fn apply_rest_hint(&mut self, hint: &[Rest]) {
        let last = self.width - 1;
        for (j, &h) in hint.iter().enumerate().take(self.n_struct) {
            if h != Rest::Upper {
                continue;
            }
            let u = self.ub[j];
            if !u.is_finite() || u <= 0.0 {
                continue;
            }
            let mut ok = true;
            let mut art_delta = 0.0;
            for i in 0..self.m {
                let nv = self.t[i][last] - u * self.t[i][j];
                if nv < -FEAS_EPS {
                    ok = false;
                    break;
                }
                if self.basis[i] >= self.art_start {
                    art_delta -= u * self.t[i][j];
                }
            }
            if !ok || art_delta > FEAS_EPS {
                continue;
            }
            for i in 0..self.m {
                let nv = self.t[i][last] - u * self.t[i][j];
                self.t[i][last] = nv.max(0.0);
            }
            self.rest[j] = Rest::Upper;
        }
    }

    /// Phase-1 reduced costs: minimize the sum of artificials over the
    /// current basic values (which [`Self::apply_rest_hint`] may have
    /// already shrunk).
    fn init_phase1_objective(&mut self) {
        let mut obj = vec![0.0; self.width];
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                for (o, v) in obj.iter_mut().zip(&self.t[i]) {
                    *o -= v;
                }
            }
        }
        for o in obj.iter_mut().take(self.n_cols).skip(self.art_start) {
            *o = 0.0;
        }
        self.obj = obj;
    }

    fn solve(mut self) -> BoundedSolve {
        // Phase 1.
        if self.art_start < self.n_cols {
            if !self.optimize(self.n_cols) {
                // operon-lint: allow(R001, reason = "phase-1 objective is bounded below by zero, so it cannot be unbounded")
                unreachable!("phase-1 objective is bounded below by zero");
            }
            let phase1 = -self.obj[self.width - 1];
            if phase1 > FEAS_EPS {
                return BoundedSolve {
                    outcome: LpOutcome::Infeasible,
                    rests: Vec::new(),
                    iterations: self.iters,
                };
            }
            self.evict_basic_artificials();
        }

        // Phase 2: rebuild reduced costs from the phase-2 objective,
        // priced out over the current basis and nonbasic rests.
        self.install_phase2_objective();
        if !self.optimize(self.art_start) {
            return BoundedSolve {
                outcome: LpOutcome::Unbounded,
                rests: Vec::new(),
                iterations: self.iters,
            };
        }

        // Extract structural values.
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.rest[j] {
                Rest::Lower => 0.0,
                Rest::Upper => self.ub[j],
            };
        }
        for i in 0..self.m {
            if self.basis[i] < self.n_struct {
                x[self.basis[i]] = self.t[i][self.width - 1];
            }
        }
        let objective: f64 = x
            .iter()
            .zip(&self.cost2[..self.n_struct])
            .map(|(v, c)| v * c)
            .sum();
        // Rest summary for warm-starting related solves: nonbasic columns
        // report their actual rest; basic columns report the nearer bound.
        let mut rests = vec![Rest::Lower; self.n_struct];
        for (j, r) in rests.iter_mut().enumerate() {
            *r = self.rest[j];
        }
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n_struct {
                let u = self.ub[b];
                rests[b] = if u.is_finite() && self.t[i][self.width - 1] >= 0.5 * u {
                    Rest::Upper
                } else {
                    Rest::Lower
                };
            }
        }
        BoundedSolve {
            outcome: LpOutcome::Optimal { objective, x },
            rests,
            iterations: self.iters,
        }
    }

    fn install_phase2_objective(&mut self) {
        let width = self.width;
        let mut obj = vec![0.0; width];
        obj[..self.n_cols].copy_from_slice(&self.cost2);
        // Price out the basics: d = c - c_B · B^-1 A (rows already hold
        // B^-1 A after the eliminations of phase 1).
        for i in 0..self.m {
            let cb = self.cost2[self.basis[i]];
            if cb != 0.0 {
                for (o, t) in obj.iter_mut().zip(&self.t[i][..width]) {
                    *o -= cb * t;
                }
            }
        }
        // Note: obj[width-1] now tracks -(c_B · x_B); the nonbasic-at-
        // upper contribution to the objective value is added at
        // extraction time instead of being tracked here.
        self.obj = obj;
    }

    /// Pivots to optimality over columns `0..allowed`. Returns false on
    /// unboundedness.
    fn optimize(&mut self, allowed: usize) -> bool {
        let mut stall = 0usize;
        let max_iters = 400 + 80 * (self.m + self.n_struct);
        for iter in 0usize.. {
            let bland = stall > 60 || iter > max_iters;
            let Some(j) = self.entering(allowed, bland) else {
                return true;
            };
            let sigma = match self.rest[j] {
                Rest::Lower => 1.0,
                Rest::Upper => -1.0,
            };
            // Ratio test.
            let mut best_t = self.ub[j]; // bound-flip distance (may be inf)
            let mut leave: Option<(usize, Rest)> = None; // row, bound the basic hits
            for i in 0..self.m {
                let y = sigma * self.t[i][j];
                let v = self.t[i][self.width - 1];
                if y > EPS {
                    // Basic decreases toward its lower bound 0.
                    let ti = v / y;
                    if ti < best_t - EPS
                        || (ti < best_t + EPS
                            && leave.is_none_or(|(r, _)| self.basis[i] < self.basis[r]))
                    {
                        best_t = ti.max(0.0);
                        leave = Some((i, Rest::Lower));
                    }
                } else if y < -EPS {
                    // Basic increases toward its upper bound.
                    let ubi = self.ub[self.basis[i]];
                    if ubi.is_finite() {
                        let ti = (ubi - v) / (-y);
                        if ti < best_t - EPS
                            || (ti < best_t + EPS
                                && leave.is_none_or(|(r, _)| self.basis[i] < self.basis[r]))
                        {
                            best_t = ti.max(0.0);
                            leave = Some((i, Rest::Upper));
                        }
                    }
                }
            }
            if best_t.is_infinite() {
                return false; // unbounded direction
            }
            self.iters += 1;

            let before = self.obj[self.width - 1];
            match leave {
                None => {
                    // Bound flip: j runs all the way to its other bound.
                    let dist = self.ub[j];
                    debug_assert!(dist.is_finite());
                    for i in 0..self.m {
                        let y = self.t[i][j];
                        self.t[i][self.width - 1] -= sigma * dist * y;
                    }
                    self.obj[self.width - 1] -= sigma * dist * self.obj[j];
                    self.rest[j] = match self.rest[j] {
                        Rest::Lower => Rest::Upper,
                        Rest::Upper => Rest::Lower,
                    };
                }
                Some((r, hit)) => {
                    // The old basic leaves to `hit`; j enters with value
                    // (from its rest bound) + sigma * best_t.
                    let entering_value = match self.rest[j] {
                        Rest::Lower => sigma * best_t,
                        Rest::Upper => self.ub[j] + sigma * best_t,
                    };
                    let old_basic = self.basis[r];
                    self.rest[old_basic] = hit;
                    // Eliminate: make column j the unit column of row r.
                    let pivot = self.t[r][j];
                    debug_assert!(pivot.abs() > EPS, "pivot must be nonzero");
                    for v in self.t[r].iter_mut() {
                        *v /= pivot;
                    }
                    // Row r's value column must become the ENTERING
                    // variable's value; set it explicitly (elimination
                    // formulas assume nonbasics at 0, our rests are not).
                    self.t[r][self.width - 1] = entering_value;
                    for i in 0..self.m {
                        if i == r {
                            continue;
                        }
                        let f = self.t[i][j];
                        if f != 0.0 {
                            // Update values first (they do not follow the
                            // plain elimination rule under bounds).
                            let y = sigma * f;
                            self.t[i][self.width - 1] -= y * best_t;
                            for jj in 0..self.width - 1 {
                                let v = self.t[r][jj];
                                self.t[i][jj] -= f * v;
                            }
                            self.t[i][j] = 0.0;
                        }
                    }
                    let f = self.obj[j];
                    if f != 0.0 {
                        self.obj[self.width - 1] -= sigma * best_t * f;
                        for jj in 0..self.width - 1 {
                            let v = self.t[r][jj];
                            self.obj[jj] -= f * v;
                        }
                        self.obj[j] = 0.0;
                    }
                    self.basis[r] = j;
                }
            }
            let after = self.obj[self.width - 1];
            if (after - before).abs() < EPS {
                stall += 1;
            } else {
                stall = 0;
            }
        }
        // operon-lint: allow(R001, reason = "the iteration loop only exits via return; this arm is unreachable by construction")
        unreachable!("loop exits via return")
    }

    fn entering(&self, allowed: usize, bland: bool) -> Option<usize> {
        let eligible = |j: usize| -> bool {
            if self.basis.contains(&j) {
                return false;
            }
            match self.rest[j] {
                Rest::Lower => self.obj[j] < -EPS,
                Rest::Upper => self.obj[j] > EPS,
            }
        };
        if bland {
            (0..allowed).find(|&j| eligible(j))
        } else {
            let mut best: Option<(f64, usize)> = None;
            for j in 0..allowed {
                if eligible(j) {
                    let score = self.obj[j].abs();
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, j));
                    }
                }
            }
            best.map(|(_, j)| j)
        }
    }

    /// After phase 1, pivot still-basic artificials (value 0) out on any
    /// nonzero non-artificial column; a fully zero row is redundant and
    /// harmless. Nothing moves (the artificial sits at 0), so every value
    /// column is preserved — the entering variable simply becomes basic
    /// *at its current rest value*.
    fn evict_basic_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] >= self.art_start {
                if let Some(j) = (0..self.art_start).find(|&j| self.t[r][j].abs() > EPS) {
                    let old = self.basis[r];
                    self.rest[old] = Rest::Lower;
                    let entering_value = match self.rest[j] {
                        Rest::Lower => 0.0,
                        Rest::Upper => self.ub[j],
                    };
                    let pivot = self.t[r][j];
                    for v in self.t[r][..self.width - 1].iter_mut() {
                        *v /= pivot;
                    }
                    self.t[r][self.width - 1] = entering_value;
                    for i in 0..self.m {
                        if i != r {
                            let f = self.t[i][j];
                            if f != 0.0 {
                                for jj in 0..self.width - 1 {
                                    let v = self.t[r][jj];
                                    self.t[i][jj] -= f * v;
                                }
                                self.t[i][j] = 0.0;
                            }
                        }
                    }
                    let f = self.obj[j];
                    if f != 0.0 {
                        for jj in 0..self.width - 1 {
                            let v = self.t[r][jj];
                            self.obj[jj] -= f * v;
                        }
                        self.obj[j] = 0.0;
                    }
                    self.basis[r] = j;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_lp;
    use proptest::prelude::*;

    fn opt(outcome: LpOutcome) -> (f64, Vec<f64>) {
        match outcome {
            LpOutcome::Optimal { objective, x } => (objective, x),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_negative_costs_hit_upper_bounds() {
        let (obj, x) = opt(solve_lp_bounded(&[-3.0, -4.0], &[], &[1.0, 1.0], None).outcome);
        assert!((obj + 7.0).abs() < 1e-7);
        assert!((x[0] - 1.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn unconstrained_positive_costs_stay_at_zero() {
        let (obj, x) = opt(solve_lp_bounded(&[2.0, 3.0], &[], &[1.0, 1.0], None).outcome);
        assert!(obj.abs() < 1e-9);
        assert!(x.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn knapsack_relaxation_is_fractional() {
        // min -3a -4b -5c s.t. 2a + 3b + 4c <= 6, x in [0,1]^3.
        // LP: take a=1, b=1 (weight 5), c=1/4 -> obj -(3+4+1.25).
        let rows = vec![LpRow::new(vec![2.0, 3.0, 4.0], Cmp::Le, 6.0)];
        let (obj, x) =
            opt(solve_lp_bounded(&[-3.0, -4.0, -5.0], &rows, &[1.0, 1.0, 1.0], None).outcome);
        assert!((obj + 8.25).abs() < 1e-7, "obj {obj}");
        assert!((x[2] - 0.25).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_rows_work() {
        // min x + 2y s.t. x + y == 1, x - y >= -0.5, x,y in [0,1].
        let rows = vec![
            LpRow::new(vec![1.0, 1.0], Cmp::Eq, 1.0),
            LpRow::new(vec![1.0, -1.0], Cmp::Ge, -0.5),
        ];
        let (obj, x) = opt(solve_lp_bounded(&[1.0, 2.0], &rows, &[1.0, 1.0], None).outcome);
        // Optimal: maximize x subject to x+y=1 and x >= y-0.5 -> x=1,y=0
        // gives obj 1; check x - y = 1 >= -0.5 ok.
        assert!((obj - 1.0).abs() < 1e-7, "obj {obj}");
        assert!((x[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let rows = vec![LpRow::new(vec![1.0, 1.0], Cmp::Ge, 3.0)];
        assert!(matches!(
            solve_lp_bounded(&[1.0, 1.0], &rows, &[1.0, 1.0], None).outcome,
            LpOutcome::Infeasible
        ));
    }

    #[test]
    fn unbounded_detected_with_infinite_upper() {
        assert!(matches!(
            solve_lp_bounded(&[-1.0], &[], &[f64::INFINITY], None).outcome,
            LpOutcome::Unbounded
        ));
    }

    #[test]
    fn vertex_cover_triangle_relaxation_is_half() {
        let rows = vec![
            LpRow::new(vec![1.0, 1.0, 0.0], Cmp::Ge, 1.0),
            LpRow::new(vec![0.0, 1.0, 1.0], Cmp::Ge, 1.0),
            LpRow::new(vec![1.0, 0.0, 1.0], Cmp::Ge, 1.0),
        ];
        let (obj, x) =
            opt(solve_lp_bounded(&[1.0, 1.0, 1.0], &rows, &[1.0, 1.0, 1.0], None).outcome);
        assert!((obj - 1.5).abs() < 1e-7, "obj {obj}");
        assert!(x.iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn rest_hint_preserves_optimum_and_cuts_iterations() {
        // min -3a -4b -5c s.t. 2a + 3b + 4c <= 6: the optimum rests a and
        // b at Upper. Re-solving with the optimal rests as hint must find
        // the same objective in no more iterations.
        let rows = vec![LpRow::new(vec![2.0, 3.0, 4.0], Cmp::Le, 6.0)];
        let c = [-3.0, -4.0, -5.0];
        let cold = solve_lp_bounded(&c, &rows, &[1.0, 1.0, 1.0], None);
        let LpOutcome::Optimal { objective: o1, .. } = cold.outcome else {
            panic!("cold solve must be optimal");
        };
        let warm = solve_lp_bounded(&c, &rows, &[1.0, 1.0, 1.0], Some(&cold.rests));
        let LpOutcome::Optimal { objective: o2, .. } = warm.outcome else {
            panic!("warm solve must be optimal");
        };
        assert!((o1 - o2).abs() < 1e-7, "warm {o2} vs cold {o1}");
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.iterations < cold.iterations, "hint should skip pivots");
    }

    #[test]
    fn infeasible_hint_is_harmless() {
        // x0 must stay 0 (row forces x0 <= 0), but the hint says Upper:
        // the flip is rejected and the solve still succeeds.
        let rows = vec![LpRow::new(vec![1.0, 0.0], Cmp::Le, 0.0)];
        let hint = [Rest::Upper, Rest::Upper];
        let got = solve_lp_bounded(&[1.0, -1.0], &rows, &[1.0, 1.0], Some(&hint));
        let LpOutcome::Optimal { objective, x } = got.outcome else {
            panic!("must stay solvable under a bad hint");
        };
        assert!((objective + 1.0).abs() < 1e-7);
        assert!(x[0].abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn mixed_bounds_with_negative_rhs() {
        // -x <= -0.4  (x >= 0.4), min x -> 0.4.
        let rows = vec![LpRow::new(vec![-1.0], Cmp::Le, -0.4)];
        let (obj, x) = opt(solve_lp_bounded(&[1.0], &rows, &[1.0], None).outcome);
        assert!((obj - 0.4).abs() < 1e-7);
        assert!((x[0] - 0.4).abs() < 1e-7);
    }

    /// Differential check against the plain simplex with explicit bound
    /// rows — the two implementations must agree on the optimum value
    /// (and feasibility status) of every random instance.
    fn reference(c: &[f64], rows: &[LpRow], upper: &[f64]) -> LpOutcome {
        let n = c.len();
        let mut all_rows = rows.to_vec();
        for (j, &u) in upper.iter().enumerate() {
            if u.is_finite() {
                let mut coeffs = vec![0.0; n];
                coeffs[j] = 1.0;
                all_rows.push(LpRow::new(coeffs, Cmp::Le, u));
            }
        }
        solve_lp(c, &all_rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn matches_plain_simplex(
            n in 1usize..6,
            costs in proptest::collection::vec(-5i32..=5, 6),
            raw_rows in proptest::collection::vec(
                (proptest::collection::vec(-4i32..=4, 6), 0u8..3, -6i32..=8),
                0..6,
            ),
        ) {
            let c: Vec<f64> = costs[..n].iter().map(|&v| v as f64).collect();
            let upper = vec![1.0; n];
            let rows: Vec<LpRow> = raw_rows
                .into_iter()
                .map(|(coeffs, cmp, rhs)| {
                    let cmp = match cmp {
                        0 => Cmp::Le,
                        1 => Cmp::Ge,
                        _ => Cmp::Eq,
                    };
                    LpRow::new(
                        coeffs[..n].iter().map(|&v| v as f64).collect(),
                        cmp,
                        rhs as f64,
                    )
                })
                .collect();
            let got = solve_lp_bounded(&c, &rows, &upper, None).outcome;
            let want = reference(&c, &rows, &upper);
            match (got, want) {
                (
                    LpOutcome::Optimal { objective: a, x },
                    LpOutcome::Optimal { objective: b, .. },
                ) => {
                    prop_assert!((a - b).abs() < 1e-6, "bounded {a} vs plain {b}");
                    // The solution itself must be feasible.
                    for (j, &v) in x.iter().enumerate() {
                        prop_assert!(v >= -1e-7 && v <= upper[j] + 1e-7);
                    }
                    for row in &rows {
                        let lhs: f64 = row
                            .coeffs
                            .iter()
                            .zip(&x)
                            .map(|(a, b)| a * b)
                            .sum();
                        let ok = match row.cmp {
                            Cmp::Le => lhs <= row.rhs + 1e-6,
                            Cmp::Ge => lhs >= row.rhs - 1e-6,
                            Cmp::Eq => (lhs - row.rhs).abs() <= 1e-6,
                        };
                        prop_assert!(ok, "constraint violated: {lhs} vs {}", row.rhs);
                    }
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (g, w) => prop_assert!(false, "disagreement: bounded {g:?} vs plain {w:?}"),
            }
        }

        /// Any hint — including an arbitrary one — must leave the optimum
        /// value (and feasibility verdict) unchanged.
        #[test]
        fn hinted_solve_matches_unhinted(
            n in 1usize..6,
            costs in proptest::collection::vec(-5i32..=5, 6),
            hint_bits in proptest::collection::vec(0u8..2, 6),
            raw_rows in proptest::collection::vec(
                (proptest::collection::vec(-4i32..=4, 6), 0u8..3, -6i32..=8),
                0..6,
            ),
        ) {
            let c: Vec<f64> = costs[..n].iter().map(|&v| v as f64).collect();
            let upper = vec![1.0; n];
            let hint: Vec<Rest> = hint_bits[..n]
                .iter()
                .map(|&b| if b == 1 { Rest::Upper } else { Rest::Lower })
                .collect();
            let rows: Vec<LpRow> = raw_rows
                .into_iter()
                .map(|(coeffs, cmp, rhs)| {
                    let cmp = match cmp {
                        0 => Cmp::Le,
                        1 => Cmp::Ge,
                        _ => Cmp::Eq,
                    };
                    LpRow::new(
                        coeffs[..n].iter().map(|&v| v as f64).collect(),
                        cmp,
                        rhs as f64,
                    )
                })
                .collect();
            let cold = solve_lp_bounded(&c, &rows, &upper, None);
            let warm = solve_lp_bounded(&c, &rows, &upper, Some(&hint));
            match (cold.outcome, warm.outcome) {
                (
                    LpOutcome::Optimal { objective: a, .. },
                    LpOutcome::Optimal { objective: b, .. },
                ) => prop_assert!((a - b).abs() < 1e-6, "cold {a} vs hinted {b}"),
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (g, w) => prop_assert!(false, "hint changed verdict: {g:?} vs {w:?}"),
            }
        }
    }
}
