//! Dense two-phase primal simplex: the test oracle for
//! [`crate::bounded`].
//!
//! Solves `min c·x` subject to `A x {<=,>=,==} b` and `x >= 0`. Upper
//! bounds (`x <= 1` for the relaxed binaries) are ordinary rows supplied
//! by the caller. The implementation is a classic dense tableau with
//! Dantzig pricing and a Bland's-rule fallback to guarantee termination
//! under degeneracy. The solver's bounded-variable method must agree
//! with it on every LP (`bounded`'s `matches_plain_simplex` proptest);
//! no production path calls it.

use crate::bounded::{LpOutcome, LpRow};
use crate::Cmp;

const EPS: f64 = 1e-9;

/// Solves `min c·x` over the given rows with `x >= 0`.
///
/// # Panics
///
/// Panics if row lengths disagree with `c`, or on non-finite inputs.
pub fn solve_lp(c: &[f64], rows: &[LpRow]) -> LpOutcome {
    let n = c.len();
    for row in rows {
        assert_eq!(row.coeffs.len(), n, "row width must match variable count");
        assert!(row.rhs.is_finite(), "non-finite rhs");
        assert!(
            row.coeffs.iter().all(|v| v.is_finite()),
            "non-finite coefficient"
        );
    }
    assert!(c.iter().all(|v| v.is_finite()), "non-finite cost");

    Tableau::build(c, rows).solve()
}

struct Tableau {
    /// `m+1` rows × `width` columns; last row is the objective, last
    /// column the RHS.
    t: Vec<Vec<f64>>,
    m: usize,
    width: usize,
    n_struct: usize,
    n_art: usize,
    /// Basic variable (column) of each row.
    basis: Vec<usize>,
    /// First artificial column index.
    art_start: usize,
    /// The phase-2 cost vector, stashed between build and solve.
    cost_row_for_phase2: Option<Vec<f64>>,
}

impl Tableau {
    fn build(c: &[f64], rows: &[LpRow]) -> Self {
        let n = c.len();
        let m = rows.len();

        // Normalize rows to b >= 0 and classify.
        #[derive(Clone, Copy)]
        enum Kind {
            Slack,      // <= with slack
            SurplusArt, // >= with surplus + artificial
            Art,        // == with artificial
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
        let width = n + n_slack + n_art + 1;
        let art_start = n + n_slack;

        let mut t = vec![vec![0.0; width]; m + 1];
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

        let mut tab = Self {
            t,
            m,
            width,
            n_struct: n,
            n_art,
            basis,
            art_start,
            cost_row_for_phase2: Some(c.to_vec()),
        };
        tab.install_phase1_objective();
        tab
    }

    fn install_phase1_objective(&mut self) {
        // Phase-1 objective: minimize sum of artificials. Reduced-cost row
        // = -(sum of rows whose basic variable is artificial).
        let width = self.width;
        let obj = self.m;
        for j in 0..width {
            self.t[obj][j] = 0.0;
        }
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                for j in 0..width {
                    let v = self.t[i][j];
                    self.t[obj][j] -= v;
                }
            }
        }
        // Artificial columns themselves price to 0 in the objective row
        // (cost 1 plus the -1 from their own row): set explicitly.
        for a in 0..self.n_art {
            self.t[obj][self.art_start + a] = 0.0;
        }
    }

    fn solve(mut self) -> LpOutcome {
        // Phase 1.
        if self.n_art > 0 {
            if !self.pivot_to_optimality(self.art_start + self.n_art) {
                // Phase 1 of an always-feasible problem cannot be
                // unbounded (objective bounded below by 0).
                // operon-lint: allow(R001, reason = "phase-1 objective is bounded below by zero, so it cannot be unbounded")
                unreachable!("phase-1 objective is bounded below by zero");
            }
            let phase1 = -self.t[self.m][self.width - 1];
            if phase1 > 1e-7 {
                return LpOutcome::Infeasible;
            }
            self.evict_basic_artificials();
        }

        // Phase 2: install the real objective priced out over the basis.
        // operon-lint: allow(R001, reason = "cost_row_for_phase2 is populated at build time and taken exactly once")
        let c = self.cost_row_for_phase2.take().expect("set at build");
        let width = self.width;
        let obj = self.m;
        for j in 0..width {
            self.t[obj][j] = 0.0;
        }
        self.t[obj][..self.n_struct].copy_from_slice(&c);
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n_struct && c[b] != 0.0 {
                let factor = c[b];
                for j in 0..width {
                    let v = self.t[i][j];
                    self.t[obj][j] -= factor * v;
                }
            }
        }
        // Artificials are barred from re-entering in phase 2.
        if !self.pivot_to_optimality(self.art_start) {
            return LpOutcome::Unbounded;
        }

        let mut x = vec![0.0; self.n_struct];
        for i in 0..self.m {
            if self.basis[i] < self.n_struct {
                x[self.basis[i]] = self.t[i][self.width - 1];
            }
        }
        let objective = -self.t[self.m][self.width - 1];
        LpOutcome::Optimal { objective, x }
    }

    /// Pivots until no negative reduced cost remains among columns
    /// `0..allowed_cols`. Returns false on unboundedness.
    fn pivot_to_optimality(&mut self, allowed_cols: usize) -> bool {
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        // Termination: Bland's rule is cycle-free; the guard below only
        // bounds the Dantzig warm-up phase.
        let max_iters = 200 + 60 * (self.m + self.n_struct);
        for iter in 0.. {
            let use_bland = stall > 40 || iter > max_iters;
            let Some(col) = self.entering_column(allowed_cols, use_bland) else {
                return true; // optimal
            };
            let Some(row) = self.leaving_row(col) else {
                return false; // unbounded
            };
            self.pivot(row, col);
            let obj = -self.t[self.m][self.width - 1];
            if (last_obj - obj).abs() < EPS {
                stall += 1;
            } else {
                stall = 0;
            }
            last_obj = obj;
        }
        // operon-lint: allow(R001, reason = "the iteration loop only exits via return; this arm is unreachable by construction")
        unreachable!("infinite range loop only exits via return")
    }

    fn entering_column(&self, allowed_cols: usize, bland: bool) -> Option<usize> {
        let obj = &self.t[self.m];
        if bland {
            (0..allowed_cols).find(|&j| obj[j] < -EPS)
        } else {
            let mut best: Option<(f64, usize)> = None;
            for (j, &v) in obj.iter().enumerate().take(allowed_cols) {
                if v < -EPS && best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, j));
                }
            }
            best.map(|(_, j)| j)
        }
    }

    fn leaving_row(&self, col: usize) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..self.m {
            let a = self.t[i][col];
            if a > EPS {
                let ratio = self.t[i][self.width - 1] / a;
                // Break ties on the smallest basis index (Bland-safe).
                let better = match best {
                    None => true,
                    Some((br, bi)) => {
                        ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                    }
                };
                if better {
                    best = Some((ratio, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let pivot_val = self.t[row][col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on a zero element");
        for j in 0..width {
            self.t[row][j] /= pivot_val;
        }
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.t[i][col];
            if factor != 0.0 {
                for j in 0..width {
                    let v = self.t[row][j];
                    self.t[i][j] -= factor * v;
                }
                self.t[i][col] = 0.0; // kill round-off exactly
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, any artificial still basic sits at value 0; pivot it
    /// out on a nonzero structural/slack column, or leave the (redundant)
    /// row harmlessly in place if the whole row is zero.
    fn evict_basic_artificials(&mut self) {
        for i in 0..self.m {
            if self.basis[i] >= self.art_start {
                if let Some(col) = (0..self.art_start).find(|&j| self.t[i][j].abs() > EPS) {
                    self.pivot(i, col);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(outcome: LpOutcome) -> (f64, Vec<f64>) {
        match outcome {
            LpOutcome::Optimal { objective, x } => (objective, x),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_minimum_is_zero_vector() {
        let (obj, x) = opt(solve_lp(&[1.0, 2.0], &[]));
        assert!(obj.abs() < 1e-9);
        assert!(x.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn bounded_negative_costs_hit_upper_bounds() {
        let rows = vec![
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 1.0),
            LpRow::new(vec![0.0, 1.0], Cmp::Le, 1.0),
        ];
        let (obj, x) = opt(solve_lp(&[-3.0, -4.0], &rows));
        assert!((obj + 7.0).abs() < 1e-7);
        assert!((x[0] - 1.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn classic_textbook_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
        let rows = vec![
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 4.0),
            LpRow::new(vec![0.0, 2.0], Cmp::Le, 12.0),
            LpRow::new(vec![3.0, 2.0], Cmp::Le, 18.0),
        ];
        let (obj, x) = opt(solve_lp(&[-3.0, -5.0], &rows));
        assert!((obj + 36.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7 && (x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints_work() {
        // min x + y s.t. x + y == 1, x <= 1, y <= 1 -> obj 1.
        let rows = vec![
            LpRow::new(vec![1.0, 1.0], Cmp::Eq, 1.0),
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 1.0),
            LpRow::new(vec![0.0, 1.0], Cmp::Le, 1.0),
        ];
        let (obj, x) = opt(solve_lp(&[1.0, 1.0], &rows));
        assert!((obj - 1.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn ge_constraints_work() {
        // min 2x + 3y s.t. x + y >= 2 -> pick x = 2.
        let rows = vec![LpRow::new(vec![1.0, 1.0], Cmp::Ge, 2.0)];
        let (obj, x) = opt(solve_lp(&[2.0, 3.0], &rows));
        assert!((obj - 4.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let rows = vec![
            LpRow::new(vec![1.0], Cmp::Ge, 2.0),
            LpRow::new(vec![1.0], Cmp::Le, 1.0),
        ];
        assert!(matches!(solve_lp(&[1.0], &rows), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // min -x with no upper bound on x.
        assert!(matches!(solve_lp(&[-1.0], &[]), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // -x <= -2  (i.e. x >= 2), min x -> 2.
        let rows = vec![LpRow::new(vec![-1.0], Cmp::Le, -2.0)];
        let (obj, x) = opt(solve_lp(&[1.0], &rows));
        assert!((obj - 2.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equalities_tolerated() {
        // x + y == 1 stated twice.
        let rows = vec![
            LpRow::new(vec![1.0, 1.0], Cmp::Eq, 1.0),
            LpRow::new(vec![1.0, 1.0], Cmp::Eq, 1.0),
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 1.0),
            LpRow::new(vec![0.0, 1.0], Cmp::Le, 1.0),
        ];
        let (obj, _) = opt(solve_lp(&[1.0, 2.0], &rows));
        assert!((obj - 1.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple constraints tight at the optimum.
        let rows = vec![
            LpRow::new(vec![1.0, 1.0], Cmp::Le, 1.0),
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 1.0),
            LpRow::new(vec![0.0, 1.0], Cmp::Le, 1.0),
            LpRow::new(vec![2.0, 2.0], Cmp::Le, 2.0),
        ];
        let (obj, _) = opt(solve_lp(&[-1.0, -1.0], &rows));
        assert!((obj + 1.0).abs() < 1e-7);
    }

    #[test]
    fn fractional_vertex_found() {
        // min -x0 - x1 s.t. 2x0 + x1 <= 2, x0 + 2x1 <= 2, x <= 1
        // optimum at (2/3, 2/3), objective -4/3.
        let rows = vec![
            LpRow::new(vec![2.0, 1.0], Cmp::Le, 2.0),
            LpRow::new(vec![1.0, 2.0], Cmp::Le, 2.0),
            LpRow::new(vec![1.0, 0.0], Cmp::Le, 1.0),
            LpRow::new(vec![0.0, 1.0], Cmp::Le, 1.0),
        ];
        let (obj, x) = opt(solve_lp(&[-1.0, -1.0], &rows));
        assert!((obj + 4.0 / 3.0).abs() < 1e-7);
        assert!((x[0] - 2.0 / 3.0).abs() < 1e-7);
        assert!((x[1] - 2.0 / 3.0).abs() < 1e-7);
    }
}
