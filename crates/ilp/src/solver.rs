//! Wave-synchronous best-first branch and bound over the simplex LP
//! relaxation.
//!
//! The search alternates two steps per round: *expand* — pop the
//! `wave_size` best open nodes from the frontier and solve their LP
//! relaxations concurrently on an [`operon_exec::Executor`] — and
//! *merge* — walk the results in wave order, updating the incumbent and
//! pushing children sequentially. The frontier orders nodes by
//! `(bound, id)` with ids assigned in merge order, so the explored tree
//! (and therefore the returned solution) is bit-identical for any thread
//! count at a fixed `wave_size`, and `wave_size = 1` performs exactly the
//! classic pop-one/solve-one best-first search.
//!
//! Parent LP vertices are replayed into children as *rest hints*
//! ([`crate::bounded::Rest`]): the child tableau starts with the parent's
//! at-upper-bound columns pre-flipped, which cuts simplex iterations
//! without affecting the relaxation's optimum value.

use crate::bounded::{solve_lp_bounded, LpOutcome, LpRow, Rest};
use crate::{Cmp, Model, VarId};
use operon_exec::Executor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INT_TOL: f64 = 1e-6;
const FEAS_TOL: f64 = 1e-6;

/// Knobs for [`Model::solve`].
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Wall-clock budget; on expiry the best incumbent is returned with
    /// [`SolveStatus::TimeLimit`]. Checked at wave boundaries.
    pub time_limit: Duration,
    /// Cap on explored branch-and-bound nodes.
    pub max_nodes: usize,
    /// An optional warm-start assignment (one 0.0/1.0 value per
    /// variable). If it satisfies every constraint it seeds the incumbent,
    /// so even limit-terminated solves return at least this solution.
    pub initial_solution: Option<Vec<f64>>,
    /// Nodes expanded concurrently per search round. The explored tree
    /// depends on this value (larger waves speculate past incumbent
    /// updates) but never on the executor's thread count.
    pub wave_size: usize,
    /// Executor the wave expansion runs on. Defaults to sequential; the
    /// flow passes its shared executor so ILP waves appear in the run
    /// report.
    pub executor: Executor,
    /// Replay parent LP vertices into children as rest hints (fewer
    /// simplex iterations per node). Degenerate relaxations may surface a
    /// different — equally optimal — vertex than a cold solve, which can
    /// reorder branching; disable for vertex-exact reproduction of the
    /// cold search.
    pub warm_start_basis: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            time_limit: Duration::from_secs(60),
            max_nodes: 1_000_000,
            initial_solution: None,
            wave_size: 1,
            executor: Executor::sequential(),
            warm_start_basis: true,
        }
    }
}

impl SolveOptions {
    /// Options with the given time limit in seconds.
    pub fn with_time_limit_secs(secs: u64) -> Self {
        Self {
            time_limit: Duration::from_secs(secs),
            ..Self::default()
        }
    }
}

/// Termination status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// The time limit expired; the returned solution is the best incumbent
    /// (feasible but possibly suboptimal).
    TimeLimit,
    /// The node limit was hit; same caveat as [`SolveStatus::TimeLimit`].
    NodeLimit,
    /// No feasible assignment exists.
    Infeasible,
}

/// Search counters accumulated over one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes popped from the frontier.
    pub nodes_explored: usize,
    /// LP relaxations solved (root pre-solve included).
    pub lp_solves: usize,
    /// Search rounds (waves) executed.
    pub waves: usize,
    /// Times the incumbent was created or improved (warm-start seeding
    /// and root rounding included).
    pub incumbent_updates: usize,
    /// Simplex iterations (pivots + bound flips) across all LP solves —
    /// the quantity warm-start basis reuse exists to shrink.
    pub simplex_iterations: u64,
}

impl SolveStats {
    /// Adds `other` into `self` (used to total per-component solves).
    pub fn accumulate(&mut self, other: &SolveStats) {
        self.nodes_explored += other.nodes_explored;
        self.lp_solves += other.lp_solves;
        self.waves += other.waves;
        self.incumbent_updates += other.incumbent_updates;
        self.simplex_iterations += other.simplex_iterations;
    }
}

/// Result of a solve: status, objective, and variable values.
#[derive(Clone, Debug)]
pub struct Solution {
    status: SolveStatus,
    feasible: bool,
    objective: f64,
    values: Vec<f64>,
    stats: SolveStats,
    elapsed: Duration,
}

impl Solution {
    /// The termination status.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Whether the solve proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Whether a feasible assignment is available.
    ///
    /// `false` both for proven-infeasible models and for limit-terminated
    /// searches that never found an incumbent.
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// The objective of the returned assignment.
    ///
    /// # Panics
    ///
    /// Panics if no feasible assignment is available.
    pub fn objective(&self) -> f64 {
        assert!(self.is_feasible(), "no feasible solution available");
        self.objective
    }

    /// Value of a variable in the returned assignment (0.0 or 1.0).
    ///
    /// # Panics
    ///
    /// Panics if no feasible assignment is available.
    pub fn value(&self, var: VarId) -> f64 {
        assert!(self.is_feasible(), "no feasible solution available");
        self.values[var.index()]
    }

    /// Whether the variable is set in the returned assignment.
    pub fn is_one(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }

    /// Number of branch-and-bound nodes explored.
    pub fn nodes_explored(&self) -> usize {
        self.stats.nodes_explored
    }

    /// Search counters for this solve.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Wall-clock time spent solving.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// A branch-and-bound node, ordered by `(bound, id)` as a min-heap: the
/// id tie-break (ids are assigned in deterministic merge order) is what
/// makes the frontier — and the whole search — independent of executor
/// thread count.
struct Node {
    id: u64,
    bound: f64,
    fixed: Vec<Option<bool>>,
    /// Parent LP rests, full model length (see `SolveOptions::warm_start_basis`).
    hint: Option<Arc<[Rest]>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.id == other.id
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for best-first (lowest bound,
        // then lowest id).
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl Model {
    /// Solves the model to optimality or until a limit expires.
    ///
    /// Wave-synchronous best-first branch and bound: each round expands
    /// the `wave_size` best open nodes concurrently (LP relaxation with
    /// fixed variables substituted out), then merges results in wave
    /// order — integral relaxations update the incumbent, fractional ones
    /// branch on the most fractional variable. A rounding heuristic seeds
    /// the incumbent at the root. The search is bit-identical for any
    /// executor thread count at a fixed `wave_size`.
    ///
    /// # Examples
    ///
    /// ```
    /// use operon_ilp::{Model, SolveOptions};
    ///
    /// let mut m = Model::new();
    /// let x = m.add_binary("x");
    /// m.add_ge([(1.0, x)], 1.0);
    /// m.set_objective([(3.0, x)]);
    /// let sol = m.solve(&SolveOptions::default());
    /// assert!(sol.is_optimal());
    /// assert!(sol.is_one(x));
    /// ```
    pub fn solve(&self, options: &SolveOptions) -> Solution {
        // operon-lint: allow(D002, reason = "branch-and-bound enforces the caller-supplied wall-clock time limit; ilp stays dependency-free")
        let start = Instant::now();
        let n = self.var_count();
        let wave_size = options.wave_size.max(1);
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut status = SolveStatus::Optimal;

        // Seed from the caller's warm start when it checks out.
        if let Some(start_values) = &options.initial_solution {
            if start_values.len() == n
                && start_values.iter().all(|v| *v == 0.0 || *v == 1.0)
                && self.all_satisfied(start_values)
            {
                incumbent = Some((self.objective.eval(start_values), start_values.clone()));
                stats.incumbent_updates += 1;
            }
        }

        let mut frontier: BinaryHeap<Node> = BinaryHeap::new();
        let mut next_id: u64 = 1;
        // Root node.
        let root_fixed = vec![None; n];
        let (root, root_iters) = self.lp_relaxation(&root_fixed, None);
        stats.lp_solves += 1;
        stats.simplex_iterations += root_iters;
        match root {
            LpNodeResult::Infeasible => {
                stats.nodes_explored = 1;
                return Solution {
                    status: SolveStatus::Infeasible,
                    feasible: false,
                    objective: f64::INFINITY,
                    values: Vec::new(),
                    stats,
                    elapsed: start.elapsed(),
                };
            }
            LpNodeResult::Solved {
                objective,
                x,
                rests,
                ..
            } => {
                // Seed the incumbent by rounding the root relaxation,
                // unless the warm start is already better.
                if let Some(rounded) = self.round_to_feasible(&x) {
                    let obj = self.objective.eval(&rounded);
                    if incumbent.as_ref().is_none_or(|(b, _)| obj < *b) {
                        incumbent = Some((obj, rounded));
                        stats.incumbent_updates += 1;
                    }
                }
                frontier.push(Node {
                    id: 0,
                    bound: objective,
                    fixed: root_fixed,
                    hint: options.warm_start_basis.then_some(rests),
                });
            }
        }

        'search: while !frontier.is_empty() {
            if start.elapsed() > options.time_limit {
                status = SolveStatus::TimeLimit;
                break;
            }

            // Fill the wave: pop best-first, skipping bound-pruned nodes.
            let mut wave: Vec<Node> = Vec::with_capacity(wave_size);
            let mut hit_node_limit = false;
            while wave.len() < wave_size {
                let Some(node) = frontier.pop() else { break };
                if stats.nodes_explored >= options.max_nodes {
                    hit_node_limit = true;
                    break;
                }
                stats.nodes_explored += 1;
                if let Some((best, _)) = &incumbent {
                    if node.bound >= *best - INT_TOL {
                        continue; // pruned by bound
                    }
                }
                wave.push(node);
            }

            if !wave.is_empty() {
                stats.waves += 1;
                // Expand concurrently; order-preserving, so the merge
                // below sees results in the deterministic wave order.
                let results = options.executor.wave_map(&wave, |node| {
                    self.lp_relaxation(&node.fixed, node.hint.as_deref())
                });

                // Merge sequentially in wave order.
                for (node, (result, iters)) in wave.iter().zip(results) {
                    stats.lp_solves += 1;
                    stats.simplex_iterations += iters;
                    let LpNodeResult::Solved {
                        objective,
                        x,
                        rests,
                    } = result
                    else {
                        continue; // infeasible subtree
                    };
                    if let Some((best, _)) = &incumbent {
                        if objective >= *best - INT_TOL {
                            continue;
                        }
                    }
                    // Find the most fractional variable.
                    let frac_var = x
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| node.fixed[i].is_none())
                        .map(|(i, &v)| (i, (v - v.round()).abs()))
                        .filter(|&(_, f)| f > INT_TOL)
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));

                    match frac_var {
                        None => {
                            // Integral: candidate incumbent.
                            let rounded: Vec<f64> = x.iter().map(|v| v.round()).collect();
                            if self.all_satisfied(&rounded) {
                                let obj = self.objective.eval(&rounded);
                                if incumbent.as_ref().is_none_or(|(b, _)| obj < *b) {
                                    incumbent = Some((obj, rounded));
                                    stats.incumbent_updates += 1;
                                }
                            }
                        }
                        Some((branch_var, _)) => {
                            // Both children inherit the node's LP objective
                            // as their bound (valid: fixing a variable only
                            // tightens the relaxation) and its vertex as a
                            // warm-start hint.
                            let hint = options.warm_start_basis.then_some(&rests);
                            for value in [x[branch_var] >= 0.5, x[branch_var] < 0.5] {
                                let mut fixed = node.fixed.clone();
                                fixed[branch_var] = Some(value);
                                frontier.push(Node {
                                    id: next_id,
                                    bound: objective,
                                    fixed,
                                    hint: hint.cloned(),
                                });
                                next_id += 1;
                            }
                        }
                    }
                }
            }

            if hit_node_limit {
                status = SolveStatus::NodeLimit;
                break 'search;
            }
        }

        self.finish(status, incumbent, stats, start)
    }

    /// The exact pop-one/solve-one sequential search this crate shipped
    /// before wave-synchronous expansion (cold LP solves, no executor) —
    /// kept as the oracle for the `wave_size = 1` equivalence tests and
    /// the single-thread regression bench. Ignores `wave_size`,
    /// `executor`, and `warm_start_basis`.
    pub fn solve_reference(&self, options: &SolveOptions) -> Solution {
        // operon-lint: allow(D002, reason = "reference search enforces the caller-supplied wall-clock time limit, mirroring Model::solve")
        let start = Instant::now();
        let n = self.var_count();
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut status = SolveStatus::Optimal;

        if let Some(start_values) = &options.initial_solution {
            if start_values.len() == n
                && start_values.iter().all(|v| *v == 0.0 || *v == 1.0)
                && self.all_satisfied(start_values)
            {
                incumbent = Some((self.objective.eval(start_values), start_values.clone()));
                stats.incumbent_updates += 1;
            }
        }

        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        let mut next_id: u64 = 1;
        let root_fixed = vec![None; n];
        let (root, root_iters) = self.lp_relaxation(&root_fixed, None);
        stats.lp_solves += 1;
        stats.simplex_iterations += root_iters;
        match root {
            LpNodeResult::Infeasible => {
                stats.nodes_explored = 1;
                return Solution {
                    status: SolveStatus::Infeasible,
                    feasible: false,
                    objective: f64::INFINITY,
                    values: Vec::new(),
                    stats,
                    elapsed: start.elapsed(),
                };
            }
            LpNodeResult::Solved { objective, x, .. } => {
                if let Some(rounded) = self.round_to_feasible(&x) {
                    let obj = self.objective.eval(&rounded);
                    if incumbent.as_ref().is_none_or(|(b, _)| obj < *b) {
                        incumbent = Some((obj, rounded));
                        stats.incumbent_updates += 1;
                    }
                }
                heap.push(Node {
                    id: 0,
                    bound: objective,
                    fixed: root_fixed,
                    hint: None,
                });
            }
        }

        while let Some(node) = heap.pop() {
            if start.elapsed() > options.time_limit {
                status = SolveStatus::TimeLimit;
                break;
            }
            if stats.nodes_explored >= options.max_nodes {
                status = SolveStatus::NodeLimit;
                break;
            }
            stats.nodes_explored += 1;

            if let Some((best, _)) = &incumbent {
                if node.bound >= *best - INT_TOL {
                    continue;
                }
            }
            let (result, iters) = self.lp_relaxation(&node.fixed, None);
            stats.lp_solves += 1;
            stats.simplex_iterations += iters;
            let LpNodeResult::Solved { objective, x, .. } = result else {
                continue;
            };
            if let Some((best, _)) = &incumbent {
                if objective >= *best - INT_TOL {
                    continue;
                }
            }
            let frac_var = x
                .iter()
                .enumerate()
                .filter(|&(i, _)| node.fixed[i].is_none())
                .map(|(i, &v)| (i, (v - v.round()).abs()))
                .filter(|&(_, f)| f > INT_TOL)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));

            match frac_var {
                None => {
                    let rounded: Vec<f64> = x.iter().map(|v| v.round()).collect();
                    if self.all_satisfied(&rounded) {
                        let obj = self.objective.eval(&rounded);
                        if incumbent.as_ref().is_none_or(|(b, _)| obj < *b) {
                            incumbent = Some((obj, rounded));
                            stats.incumbent_updates += 1;
                        }
                    }
                }
                Some((branch_var, _)) => {
                    for value in [x[branch_var] >= 0.5, x[branch_var] < 0.5] {
                        let mut fixed = node.fixed.clone();
                        fixed[branch_var] = Some(value);
                        heap.push(Node {
                            id: next_id,
                            bound: objective,
                            fixed,
                            hint: None,
                        });
                        next_id += 1;
                    }
                }
            }
        }

        self.finish(status, incumbent, stats, start)
    }

    /// Packages the search outcome into a [`Solution`].
    fn finish(
        &self,
        status: SolveStatus,
        incumbent: Option<(f64, Vec<f64>)>,
        stats: SolveStats,
        start: Instant,
    ) -> Solution {
        match incumbent {
            Some((objective, values)) => Solution {
                status,
                feasible: true,
                objective,
                values,
                stats,
                elapsed: start.elapsed(),
            },
            None => Solution {
                // Exhausted the tree without an incumbent: infeasible
                // (when the search completed) or nothing found in time.
                status: if status == SolveStatus::Optimal {
                    SolveStatus::Infeasible
                } else {
                    status
                },
                feasible: false,
                objective: f64::INFINITY,
                values: Vec::new(),
                stats,
                elapsed: start.elapsed(),
            },
        }
    }

    /// Whether `values` satisfies every constraint.
    fn all_satisfied(&self, values: &[f64]) -> bool {
        self.constraints
            .iter()
            .all(|c| c.satisfied(values, FEAS_TOL))
    }

    /// Rounds an LP point to binary and returns it if feasible.
    fn round_to_feasible(&self, x: &[f64]) -> Option<Vec<f64>> {
        let rounded: Vec<f64> = x.iter().map(|v| v.round().clamp(0.0, 1.0)).collect();
        if self.all_satisfied(&rounded) {
            Some(rounded)
        } else {
            None
        }
    }

    /// Solves the LP relaxation with `fixed` variables substituted out,
    /// optionally warm-started from a full-length rest `hint`. Returns
    /// the node result plus the simplex iterations spent.
    fn lp_relaxation(&self, fixed: &[Option<bool>], hint: Option<&[Rest]>) -> (LpNodeResult, u64) {
        // Map free variables to dense LP columns.
        let mut col_of = vec![usize::MAX; fixed.len()];
        let mut free_vars = Vec::new();
        for (i, f) in fixed.iter().enumerate() {
            if f.is_none() {
                col_of[i] = free_vars.len();
                free_vars.push(i);
            }
        }
        let n_free = free_vars.len();

        let mut rows = Vec::with_capacity(self.constraints.len() + n_free);
        for c in &self.constraints {
            let mut coeffs = vec![0.0; n_free];
            let mut rhs = c.rhs - c.expr.constant();
            let mut any_free = false;
            for &(coef, v) in c.expr.terms() {
                match fixed[v.index()] {
                    Some(val) => rhs -= coef * (val as u8 as f64),
                    None => {
                        coeffs[col_of[v.index()]] += coef;
                        any_free = true;
                    }
                }
            }
            if !any_free {
                // Fully fixed constraint: check it directly.
                let ok = match c.cmp {
                    Cmp::Le => 0.0 <= rhs + FEAS_TOL,
                    Cmp::Ge => 0.0 >= rhs - FEAS_TOL,
                    Cmp::Eq => rhs.abs() <= FEAS_TOL,
                };
                if !ok {
                    return (LpNodeResult::Infeasible, 0);
                }
                continue;
            }
            rows.push(LpRow::new(coeffs, c.cmp, rhs));
        }
        let mut cost = vec![0.0; n_free];
        let mut fixed_cost = self.objective.constant();
        for &(coef, v) in self.objective.terms() {
            match fixed[v.index()] {
                Some(val) => fixed_cost += coef * (val as u8 as f64),
                None => cost[col_of[v.index()]] += coef,
            }
        }

        // Project the full-length hint onto the free columns.
        let col_hint: Option<Vec<Rest>> = hint.map(|h| free_vars.iter().map(|&i| h[i]).collect());
        let solve = solve_lp_bounded(&cost, &rows, &vec![1.0; n_free], col_hint.as_deref());
        let iters = solve.iterations;
        match solve.outcome {
            LpOutcome::Optimal { objective, x } => {
                let mut full = vec![0.0; fixed.len()];
                let mut full_rests = vec![Rest::Lower; fixed.len()];
                for (i, f) in fixed.iter().enumerate() {
                    match f {
                        Some(val) => {
                            full[i] = *val as u8 as f64;
                            full_rests[i] = if *val { Rest::Upper } else { Rest::Lower };
                        }
                        None => {
                            full[i] = x[col_of[i]];
                            full_rests[i] = solve.rests[col_of[i]];
                        }
                    }
                }
                (
                    LpNodeResult::Solved {
                        objective: objective + fixed_cost,
                        x: full,
                        rests: full_rests.into(),
                    },
                    iters,
                )
            }
            LpOutcome::Infeasible => (LpNodeResult::Infeasible, iters),
            LpOutcome::Unbounded => {
                // operon-lint: allow(R001, reason = "every binary relaxation bounds all variables in [0, 1], so the LP cannot be unbounded")
                unreachable!("binary relaxations carry explicit upper bounds")
            }
        }
    }
}

enum LpNodeResult {
    Solved {
        objective: f64,
        x: Vec<f64>,
        /// Per-model-variable rests at the relaxation's optimum (fixed
        /// variables report the bound they are fixed to).
        rests: Arc<[Rest]>,
    },
    Infeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn default_opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new();
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        assert_eq!(sol.objective(), 0.0);
    }

    #[test]
    fn unconstrained_minimization_sets_negative_costs() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(-2.0, a), (3.0, b)]);
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        assert!(sol.is_one(a) && !sol.is_one(b));
        assert_eq!(sol.objective(), -2.0);
    }

    #[test]
    fn knapsack_optimum() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6.
        // Best: b + c = 20 (weight 6). a+c = 17, a+b infeasible (7 > 6).
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_le([(3.0, a), (4.0, b), (2.0, c)], 6.0);
        m.set_objective([(-10.0, a), (-13.0, b), (-7.0, c)]);
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        assert_eq!(sol.objective().round(), -20.0);
        assert!(sol.is_one(b) && sol.is_one(c) && !sol.is_one(a));
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        m.add_ge([(1.0, a)], 2.0); // impossible for a binary
        let sol = m.solve(&default_opts());
        assert_eq!(sol.status(), SolveStatus::Infeasible);
        assert!(!sol.is_feasible());
    }

    #[test]
    #[should_panic(expected = "no feasible solution")]
    fn objective_of_infeasible_panics() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        m.add_ge([(1.0, a)], 2.0);
        let sol = m.solve(&default_opts());
        let _ = sol.objective();
    }

    #[test]
    fn set_partition_picks_cheapest() {
        // Exactly one of three candidates per item, two items, a coupling
        // constraint making the naive greedy infeasible.
        let mut m = Model::new();
        let a: Vec<VarId> = (0..3).map(|i| m.add_binary(format!("a{i}"))).collect();
        let b: Vec<VarId> = (0..3).map(|i| m.add_binary(format!("b{i}"))).collect();
        m.add_eq(a.iter().map(|&v| (1.0, v)).collect::<Vec<_>>(), 1.0);
        m.add_eq(b.iter().map(|&v| (1.0, v)).collect::<Vec<_>>(), 1.0);
        // Cheapest combo (a0, b0) is banned: a0 + b0 <= 1.
        m.add_le([(1.0, a[0]), (1.0, b[0])], 1.0);
        m.set_objective([
            (1.0, a[0]),
            (5.0, a[1]),
            (9.0, a[2]),
            (2.0, b[0]),
            (4.0, b[1]),
            (9.0, b[2]),
        ]);
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        // Options: a0+b1 = 5, a1+b0 = 7 -> pick a0, b1.
        assert_eq!(sol.objective().round(), 5.0);
        assert!(sol.is_one(a[0]) && sol.is_one(b[1]));
    }

    #[test]
    fn equality_with_constant_term() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        let mut e = crate::LinExpr::new();
        e.push(1.0, a).push_constant(1.0);
        m.add_eq(e, 2.0); // a + 1 == 2 -> a = 1
        m.set_objective([(1.0, a)]);
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        assert!(sol.is_one(a));
    }

    #[test]
    fn vertex_cover_on_a_triangle() {
        // Min vertex cover of K3 is 2 — LP relaxation is ½ everywhere, so
        // this genuinely exercises branching.
        let mut m = Model::new();
        let v: Vec<VarId> = (0..3).map(|i| m.add_binary(format!("v{i}"))).collect();
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            m.add_ge([(1.0, v[i]), (1.0, v[j])], 1.0);
        }
        m.set_objective(v.iter().map(|&x| (1.0, x)).collect::<Vec<_>>());
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        assert_eq!(sol.objective().round(), 2.0);
        assert!(sol.nodes_explored() >= 1);
        let stats = sol.stats();
        assert!(stats.lp_solves >= stats.nodes_explored);
        assert!(stats.waves >= 1);
        assert!(stats.incumbent_updates >= 1);
        assert!(stats.simplex_iterations >= 1);
    }

    #[test]
    fn time_limit_returns_incumbent() {
        // A model solvable instantly still respects the API with a zero
        // time limit: status may be TimeLimit but must stay feasible if an
        // incumbent was seeded.
        let mut m = Model::new();
        let a = m.add_binary("a");
        m.add_ge([(1.0, a)], 1.0);
        m.set_objective([(1.0, a)]);
        let opts = SolveOptions {
            time_limit: Duration::from_secs(0),
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts);
        // Root rounding finds a=1 which is feasible.
        assert!(sol.is_feasible());
    }

    #[test]
    fn warm_start_seeds_incumbent() {
        // Vertex cover of a triangle: the root LP is fractional (1/2
        // everywhere) and rounds to the all-ones cover (cost 3). A warm
        // start covering with two vertices (cost 2) must win when the
        // node budget prevents any branching.
        let mut m = Model::new();
        let v: Vec<VarId> = (0..3).map(|i| m.add_binary(format!("v{i}"))).collect();
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            m.add_ge([(1.0, v[i]), (1.0, v[j])], 1.0);
        }
        m.set_objective(v.iter().map(|&x| (1.0, x)).collect::<Vec<_>>());
        let opts = SolveOptions {
            max_nodes: 0,
            initial_solution: Some(vec![1.0, 1.0, 0.0]),
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts);
        assert!(sol.is_feasible());
        assert_eq!(sol.status(), SolveStatus::NodeLimit);
        assert_eq!(sol.objective(), 2.0, "warm start must beat the rounding");
    }

    #[test]
    fn infeasible_warm_start_is_ignored() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_eq([(1.0, a), (1.0, b)], 1.0);
        m.set_objective([(1.0, a), (5.0, b)]);
        let opts = SolveOptions {
            initial_solution: Some(vec![1.0, 1.0]), // violates the equality
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts);
        assert!(sol.is_optimal());
        assert_eq!(sol.objective(), 1.0, "solver must ignore the bad start");
    }

    #[test]
    fn warm_start_with_wrong_length_is_ignored() {
        let mut m = Model::new();
        let a = m.add_binary("a");
        m.add_ge([(1.0, a)], 1.0);
        m.set_objective([(1.0, a)]);
        let opts = SolveOptions {
            initial_solution: Some(vec![1.0, 0.0, 0.0]),
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts);
        assert!(sol.is_optimal());
        assert!(sol.is_one(a));
    }

    #[test]
    fn solver_improves_on_suboptimal_warm_start() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_eq(vars.iter().map(|&v| (1.0, v)).collect::<Vec<_>>(), 1.0);
        m.set_objective([
            (4.0, vars[0]),
            (3.0, vars[1]),
            (2.0, vars[2]),
            (1.0, vars[3]),
        ]);
        let opts = SolveOptions {
            initial_solution: Some(vec![1.0, 0.0, 0.0, 0.0]), // cost 4
            ..SolveOptions::default()
        };
        let sol = m.solve(&opts);
        assert!(sol.is_optimal());
        assert_eq!(sol.objective(), 1.0);
        assert!(sol.is_one(vars[3]));
    }

    #[test]
    fn product_variable_enforced_in_optimum() {
        // Penalize the product heavily; solver must avoid a=b=1.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let ab = m.add_product(a, b);
        // Reward a and b individually but punish their conjunction.
        m.set_objective([(-3.0, a), (-3.0, b), (10.0, ab)]);
        let sol = m.solve(&default_opts());
        assert!(sol.is_optimal());
        // Best: pick exactly one of a, b -> objective -3.
        assert_eq!(sol.objective().round(), -3.0);
        assert!(sol.is_one(a) ^ sol.is_one(b));
    }

    /// Exhaustive oracle for tiny models.
    fn brute_force(m: &Model) -> Option<f64> {
        let n = m.var_count();
        assert!(n <= 16);
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let values: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            if m.constraints.iter().all(|c| c.satisfied(&values, 1e-9)) {
                let obj = m.objective.eval(&values);
                if best.is_none_or(|b| obj < b) {
                    best = Some(obj);
                }
            }
        }
        best
    }

    /// Deterministic battery of small random models shared by the
    /// differential tests.
    fn random_model(rng: &mut StdRng) -> Model {
        let n = rng.gen_range(1..=8);
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        let n_cons = rng.gen_range(0..=5);
        for _ in 0..n_cons {
            let mut expr: Vec<(f64, VarId)> = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.6) {
                    expr.push((rng.gen_range(-5..=5) as f64, v));
                }
            }
            if expr.is_empty() {
                continue;
            }
            let rhs = rng.gen_range(-4..=6) as f64;
            match rng.gen_range(0..3) {
                0 => m.add_le(expr, rhs),
                1 => m.add_ge(expr, rhs),
                _ => m.add_eq(expr, rhs),
            }
        }
        let obj: Vec<(f64, VarId)> = vars
            .iter()
            .map(|&v| (rng.gen_range(-9..=9) as f64, v))
            .collect();
        m.set_objective(obj);
        m
    }

    #[test]
    fn random_models_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let m = random_model(&mut rng);
            let sol = m.solve(&default_opts());
            match brute_force(&m) {
                None => assert_eq!(
                    sol.status(),
                    SolveStatus::Infeasible,
                    "trial {trial}: solver found a solution to an infeasible model"
                ),
                Some(best) => {
                    assert!(sol.is_optimal(), "trial {trial}: not optimal");
                    assert!(
                        (sol.objective() - best).abs() < 1e-6,
                        "trial {trial}: got {} want {best}",
                        sol.objective()
                    );
                }
            }
        }
    }

    #[test]
    fn wave_size_one_matches_reference_node_for_node() {
        // With basis reuse off the wave search at wave_size = 1 performs
        // exactly the reference's cold pop-one/solve-one loop: same
        // explored count, same LP count, same objective, same values.
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let m = random_model(&mut rng);
            let opts = SolveOptions {
                wave_size: 1,
                warm_start_basis: false,
                ..SolveOptions::default()
            };
            let wave = m.solve(&opts);
            let reference = m.solve_reference(&opts);
            assert_eq!(wave.status(), reference.status(), "trial {trial}");
            assert_eq!(wave.is_feasible(), reference.is_feasible(), "trial {trial}");
            assert_eq!(
                wave.nodes_explored(),
                reference.nodes_explored(),
                "trial {trial}: explored trees differ"
            );
            assert_eq!(
                wave.stats().lp_solves,
                reference.stats().lp_solves,
                "trial {trial}: LP work differs"
            );
            if wave.is_feasible() {
                assert_eq!(wave.objective(), reference.objective(), "trial {trial}");
                let n = m.var_count();
                for i in 0..n {
                    assert_eq!(
                        wave.value(VarId(i)),
                        reference.value(VarId(i)),
                        "trial {trial}: value {i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn any_wave_size_and_thread_count_agree_on_the_optimum() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..15 {
            let m = random_model(&mut rng);
            let oracle = brute_force(&m);
            for wave_size in [1usize, 4, 16] {
                for threads in [1usize, 2, 8] {
                    let opts = SolveOptions {
                        wave_size,
                        executor: Executor::new(threads),
                        ..SolveOptions::default()
                    };
                    let sol = m.solve(&opts);
                    match oracle {
                        None => assert_eq!(
                            sol.status(),
                            SolveStatus::Infeasible,
                            "trial {trial} wave {wave_size} threads {threads}"
                        ),
                        Some(best) => {
                            assert!(sol.is_optimal());
                            assert!(
                                (sol.objective() - best).abs() < 1e-6,
                                "trial {trial} wave {wave_size} threads {threads}: \
                                 got {} want {best}",
                                sol.objective()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn warm_start_basis_cuts_simplex_iterations() {
        // Aggregated over a battery of branching-heavy random models,
        // replaying parent vertices as rest hints must shrink total pivot
        // work (individual models may tie when the root already prunes).
        let mut rng = StdRng::seed_from_u64(17);
        let mut cold_total = 0u64;
        let mut warm_total = 0u64;
        for _ in 0..30 {
            let m = random_model(&mut rng);
            let cold = m.solve(&SolveOptions {
                warm_start_basis: false,
                ..SolveOptions::default()
            });
            let warm = m.solve(&SolveOptions::default());
            assert_eq!(cold.is_feasible(), warm.is_feasible());
            if cold.is_feasible() {
                assert!((cold.objective() - warm.objective()).abs() < 1e-6);
            }
            cold_total += cold.stats().simplex_iterations;
            warm_total += warm.stats().simplex_iterations;
        }
        assert!(
            warm_total < cold_total,
            "warm {warm_total} vs cold {cold_total}: basis reuse saved nothing"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn assignment_problems_solve_optimally(
            costs in proptest::collection::vec(0i32..20, 9..=9)
        ) {
            // 3x3 assignment: permutation matrix minimizing cost.
            let mut m = Model::new();
            let x: Vec<Vec<VarId>> = (0..3)
                .map(|i| (0..3).map(|j| m.add_binary(format!("x{i}{j}"))).collect())
                .collect();
            for (i, row) in x.iter().enumerate() {
                m.add_eq(row.iter().map(|&v| (1.0, v)).collect::<Vec<_>>(), 1.0);
                m.add_eq((0..3).map(|j| (1.0, x[j][i])).collect::<Vec<_>>(), 1.0);
            }
            let obj: Vec<(f64, VarId)> = (0..9)
                .map(|k| (costs[k] as f64, x[k / 3][k % 3]))
                .collect();
            m.set_objective(obj);
            let sol = m.solve(&default_opts());
            prop_assert!(sol.is_optimal());
            // Brute-force over the 6 permutations.
            let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
            let best = perms
                .iter()
                .map(|p| (0..3).map(|i| costs[i * 3 + p[i]] as f64).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            prop_assert!((sol.objective() - best).abs() < 1e-6);
        }
    }
}
