//! Formulation (3a)–(3d) and its exact ILP solution (paper §3.3).
//!
//! One binary per candidate (`a_ij`, with the pure-electrical fallback
//! `a_ie` as the last candidate of each net), a set-partition constraint
//! per hyper net (3b), and a detection constraint per candidate path (3c).
//! The quadratic crossing terms `a_ij · a_mn` are linearized with the
//! big-M indicator form
//! `(fixed + M)·a_ij + Σ c_mn·a_mn <= l_m + M` (with `M = Σ c_mn`), which
//! is exact for binaries and — unlike per-pair product variables — keeps
//! the model size linear in the number of candidate paths even on dense
//! instances with hundreds of thousands of crossing pairs. The paper's
//! speed-up — dropping crossing variables between hyper nets with
//! non-overlapping bounding boxes — is inherited from
//! [`CrossingIndex`], which only materializes pairs that can
//! geometrically cross.

use crate::codesign::NetCandidates;
use crate::{CrossingIndex, OperonError};
use operon_ilp::{Model, SolveOptions, SolveStats, VarId};
use operon_optics::OpticalLib;
use std::collections::BTreeMap;
use std::time::Duration;

/// Outcome of candidate selection (shared by the ILP and LR paths).
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Selected candidate index per hyper net.
    pub choice: Vec<usize>,
    /// Total power of the selection (candidates + hyper-pin fan-out), mW.
    pub power_mw: f64,
    /// Whether the selection is proven optimal (ILP solved to
    /// optimality; always `false` for LR).
    pub proven_optimal: bool,
    /// Wall-clock time of the selection stage.
    pub elapsed: Duration,
    /// Branch-and-bound counters totalled over every component sub-ILP
    /// (`None` for the LR and baseline paths, which solve no ILP).
    pub ilp_stats: Option<SolveStats>,
    /// Incremental-pricing work counters of the LR loop that produced
    /// (or warm-started) this selection. `None` when no LR pricing ran
    /// (a cold ILP solve or a baseline).
    pub lr_stats: Option<crate::lr::LrStats>,
}

/// Total power of a selection: candidate powers plus the per-net constant
/// fan-out power.
pub fn selection_power_mw(nets: &[NetCandidates], choice: &[usize]) -> f64 {
    nets.iter()
        .zip(choice)
        .map(|(nc, &j)| nc.candidates[j].total_power_mw() + nc.fanout_power_mw)
        .sum()
}

/// The loaded loss of every path of net `i`'s selected candidate under
/// `choice`: fixed loss plus crossing loss from every other selected
/// candidate.
pub fn loaded_path_losses(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &[usize],
    i: usize,
    lib: &OpticalLib,
) -> Vec<f64> {
    loaded_path_losses_for(nets, crossings, choice, i, choice[i], lib)
}

/// Like [`loaded_path_losses`] but evaluates net `i` *as if* it selected
/// candidate `j` (every other net keeps its `choice`). Lets selection
/// heuristics probe alternatives without cloning the choice vector.
pub fn loaded_path_losses_for(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &[usize],
    i: usize,
    j: usize,
    lib: &OpticalLib,
) -> Vec<f64> {
    let cand = &nets[i].candidates[j];
    let mut losses: Vec<f64> = cand.paths.iter().map(|p| p.fixed_db).collect();
    for nb in crossings.neighbors(i, j) {
        let (m, sel_m) = crossings.neighbor_key(nb);
        if m == i || choice[m] != sel_m {
            continue;
        }
        let (per_path, _) = crossings.per_path(nb);
        for &(pi, cnt) in per_path {
            losses[pi as usize] += lib.crossing_loss_db(cnt as usize);
        }
    }
    losses
}

/// Whether every selected path across all nets meets the detection budget
/// under `choice`.
pub fn selection_feasible(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &[usize],
    lib: &OpticalLib,
) -> bool {
    (0..nets.len()).all(|i| {
        loaded_path_losses(nets, crossings, choice, i, lib)
            .into_iter()
            .all(|l| l <= lib.max_loss_db + 1e-9)
    })
}

/// Solves the selection problem exactly with the branch-and-bound ILP.
///
/// Two presolve steps keep the exact solve tractable:
///
/// 1. **Vacuous-constraint elimination** — a path constraint whose fixed
///    loss plus the *maximum possible* crossing load cannot exceed `l_m`
///    is dropped.
/// 2. **Component decomposition** — nets linked by a surviving constraint
///    form connected components solved as independent sub-ILPs (the
///    objective is separable); unconstrained nets simply take their
///    cheapest candidate.
///
/// `warm_start` (a candidate index per net, e.g. an LR result) seeds each
/// sub-ILP's incumbent, so limit-terminated solves return at least that
/// solution. `proven_optimal` is true only when every component solved to
/// optimality; otherwise the run reproduces the ">3000 s" behaviour of
/// Table 1.
///
/// Each component sub-ILP runs [`Model::solve`]'s sequential best-first
/// search, so the result is deterministic.
///
/// # Errors
///
/// Returns [`OperonError::SelectionFailed`] if a sub-ILP reports
/// infeasibility, which cannot happen while every net retains its
/// electrical fallback.
pub fn select_ilp(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    lib: &OpticalLib,
    time_limit: Duration,
    warm_start: Option<&[usize]>,
) -> Result<SelectionResult, OperonError> {
    let start = operon_exec::Stopwatch::start();

    // Collect, per (net, cand, path), the crossing-loss coefficient of
    // every other candidate that crosses it.
    let mut loaders: LoaderMap = BTreeMap::new();
    for ((na, ca, nb, cb), pc) in crossings.iter() {
        for &(pi, n) in pc.per_path_a {
            loaders.entry((na, ca, pi as usize)).or_default().push((
                lib.crossing_loss_db(n as usize),
                nb,
                cb,
            ));
        }
        for &(pi, n) in pc.per_path_b {
            loaders.entry((nb, cb, pi as usize)).or_default().push((
                lib.crossing_loss_db(n as usize),
                na,
                ca,
            ));
        }
    }
    // Presolve 1: drop constraints that no selection can violate.
    loaders.retain(|&(i, j, pi), terms| {
        let fixed = nets[i].candidates[j].paths[pi].fixed_db;
        let max_load: f64 = terms.iter().map(|&(c, _, _)| c).sum();
        fixed + max_load > lib.max_loss_db + 1e-9
    });

    // Presolve 2: connected components over nets linked by constraints.
    let mut dsu = Dsu::new(nets.len());
    for (&(i, _, _), terms) in &loaders {
        for &(_, m, _) in terms {
            dsu.union(i, m);
        }
    }
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut constrained = vec![false; nets.len()];
    for (&(i, _, _), terms) in &loaders {
        constrained[i] = true;
        for &(_, m, _) in terms {
            constrained[m] = true;
        }
    }
    for (i, &is_constrained) in constrained.iter().enumerate() {
        if is_constrained {
            components.entry(dsu.find(i)).or_default().push(i);
        }
    }

    // Unconstrained nets take their cheapest candidate outright.
    let mut choice: Vec<usize> = nets
        .iter()
        .map(|nc| {
            nc.candidates
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_power_mw().total_cmp(&b.1.total_power_mw()))
                .map(|(j, _)| j)
                .unwrap_or(nc.electrical_idx)
        })
        .collect();

    let mut proven_optimal = true;
    let mut ilp_stats = SolveStats::default();
    let mut component_list: Vec<Vec<usize>> = components.into_values().collect();
    component_list.sort_by_key(|c| (c.len(), c.first().copied()));
    for members in component_list {
        let remaining = time_limit.saturating_sub(start.elapsed());
        let sol = solve_component(nets, &loaders, &members, lib, remaining, warm_start)?;
        for (&i, &j) in members.iter().zip(&sol.choice) {
            choice[i] = j;
        }
        proven_optimal &= sol.proven_optimal;
        ilp_stats.accumulate(&sol.stats);
    }

    Ok(SelectionResult {
        power_mw: selection_power_mw(nets, &choice),
        proven_optimal,
        elapsed: start.elapsed(),
        choice,
        ilp_stats: Some(ilp_stats),
        lr_stats: None,
    })
}

/// Per-(net, candidate, path) crossing-loss coefficients: each entry maps
/// a detector path to the `(loss_db, net, candidate)` triples that load it.
/// Ordered so model rows are generated in a stable order (rule D001).
type LoaderMap = BTreeMap<(usize, usize, usize), Vec<(f64, usize, usize)>>;

/// One component sub-ILP's outcome.
struct ComponentSolve {
    /// Candidate choice per member net.
    choice: Vec<usize>,
    /// Whether the component solved to proven optimality.
    proven_optimal: bool,
    /// The solver's search counters.
    stats: SolveStats,
}

/// Solves one coupled component as a standalone 0/1 ILP.
fn solve_component(
    nets: &[NetCandidates],
    loaders: &LoaderMap,
    members: &[usize],
    lib: &OpticalLib,
    time_limit: Duration,
    warm_start: Option<&[usize]>,
) -> Result<ComponentSolve, OperonError> {
    let mut model = Model::new();
    let index_of: BTreeMap<usize, usize> =
        members.iter().enumerate().map(|(k, &i)| (i, k)).collect();

    // a_ij variables for member nets only.
    let a: Vec<Vec<VarId>> = members
        .iter()
        .map(|&i| {
            (0..nets[i].candidates.len())
                .map(|j| model.add_binary(format!("a_{i}_{j}")))
                .collect()
        })
        .collect();

    // (3b) per member.
    for (k, &i) in members.iter().enumerate() {
        let expr: Vec<(f64, VarId)> = (0..nets[i].candidates.len())
            .map(|j| (1.0, a[k][j]))
            .collect();
        model.add_eq(expr, 1.0);
    }

    // (3c) in big-M indicator form:
    // (fixed + M)·a_ij + Σ c·a_mn <= l_m + M with M = Σ c.
    for (&(i, j, pi), terms) in loaders {
        let Some(&k) = index_of.get(&i) else { continue };
        let fixed = nets[i].candidates[j].paths[pi].fixed_db;
        let big_m: f64 = terms.iter().map(|&(c, _, _)| c).sum();
        let mut expr: Vec<(f64, VarId)> = vec![(fixed + big_m, a[k][j])];
        for &(c, m, n) in terms {
            let km = index_of[&m]; // union-find put every loader in-component
            expr.push((c, a[km][n]));
        }
        model.add_le(expr, lib.max_loss_db + big_m);
    }

    // (3a) restricted to the component.
    let mut obj: Vec<(f64, VarId)> = Vec::new();
    for (k, &i) in members.iter().enumerate() {
        for (j, cand) in nets[i].candidates.iter().enumerate() {
            obj.push((cand.total_power_mw(), a[k][j]));
        }
    }
    model.set_objective(obj);

    let initial_solution = warm_start.map(|ws| {
        let mut values = vec![0.0; model.var_count()];
        for (k, &i) in members.iter().enumerate() {
            values[a[k][ws[i]].index()] = 1.0;
        }
        values
    });
    let options = SolveOptions {
        time_limit,
        initial_solution,
        ..SolveOptions::default()
    };
    let sol = model.solve(&options);
    if sol.status() == operon_ilp::SolveStatus::Infeasible {
        return Err(OperonError::SelectionFailed(
            "ILP reported infeasible despite electrical fallbacks".to_owned(),
        ));
    }
    let choice: Vec<usize> = if sol.is_feasible() {
        members
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                (0..nets[i].candidates.len())
                    .find(|&j| sol.is_one(a[k][j]))
                    .unwrap_or(nets[i].electrical_idx)
            })
            .collect()
    } else {
        // No incumbent within the limit: the electrical fallback is safe.
        members.iter().map(|&i| nets[i].electrical_idx).collect()
    };
    Ok(ComponentSolve {
        choice,
        proven_optimal: sol.is_optimal(),
        stats: sol.stats(),
    })
}

/// Minimal union-find for component decompositions (this presolve and
/// the WDM assignment split). `union(x, y)` hangs `x`'s root under
/// `y`'s, so the roots depend only on the union order.
pub(crate) struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// The root of `x`'s set, halving the path on the way (iterative, so
    /// a long chain of unions cannot overflow the stack).
    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, x: usize, y: usize) {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx != ry {
            self.parent[rx] = ry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, CandidateRoute, EdgeMedium};
    use operon_exec::Executor;
    use operon_geom::Point;
    use operon_optics::ElectricalParams;
    use operon_steiner::{NodeKind, RouteTree};

    fn lib() -> OpticalLib {
        OpticalLib::paper_defaults()
    }

    /// A two-pin net with an optical candidate and an electrical fallback.
    fn two_pin_net(net_index: usize, a: Point, b: Point, bits: usize) -> NetCandidates {
        let mut tree = RouteTree::new(a);
        tree.add_child(tree.root(), b, NodeKind::Terminal);
        let e = ElectricalParams::paper_defaults();
        let optical = analyze_assignment(&tree, &[EdgeMedium::Optical], bits, &lib(), &e);
        let electrical = analyze_assignment(&tree, &[EdgeMedium::Electrical], bits, &lib(), &e);
        NetCandidates {
            net_index,
            bits,
            candidates: vec![optical, electrical],
            electrical_idx: 1,
            fanout_power_mw: 0.0,
        }
    }

    /// The sequential exact solve with a 10 s limit and no warm start.
    fn exact(nets: &[NetCandidates], crossings: &CrossingIndex) -> SelectionResult {
        select_ilp(nets, crossings, &lib(), Duration::from_secs(10), None).expect("solvable")
    }

    #[test]
    fn lone_long_net_goes_optical() {
        // 2 cm span: electrical costs 2 mW/bit, optical 0.885 mW/bit.
        let nets = vec![two_pin_net(0, Point::new(0, 0), Point::new(20_000, 0), 1)];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = exact(&nets, &crossings);
        assert!(r.proven_optimal);
        assert_eq!(r.choice, vec![0]);
        assert!((r.power_mw - 0.885).abs() < 1e-6);
    }

    #[test]
    fn lone_short_net_stays_electrical() {
        // 0.2 cm span: electrical 0.4 mW < optical 0.885 mW.
        let nets = vec![two_pin_net(0, Point::new(0, 0), Point::new(2_000, 0), 1)];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = exact(&nets, &crossings);
        assert_eq!(r.choice, vec![1]);
        assert!((r.power_mw - 0.4).abs() < 1e-6);
    }

    /// Builds a candidate whose fixed loss sits just under the budget, so
    /// a single crossing pushes it over.
    fn fragile_net(net_index: usize, a: Point, b: Point) -> NetCandidates {
        let mut nc = two_pin_net(net_index, a, b, 1);
        // Tighten: manually raise the fixed loss near the budget.
        let lib = lib();
        let cand: &mut CandidateRoute = &mut nc.candidates[0];
        for p in &mut cand.paths {
            p.fixed_db = lib.max_loss_db - 0.1; // one 0.52 dB crossing kills it
        }
        nc
    }

    #[test]
    fn crossing_forces_one_net_electrical() {
        // Two long diagonal nets crossing in the middle; both optically
        // cheaper, but the crossing violates both budgets -> ILP keeps one
        // optical and drops the other to the electrical fallback.
        let nets = vec![
            fragile_net(0, Point::new(0, 0), Point::new(30_000, 30_000)),
            fragile_net(1, Point::new(0, 30_000), Point::new(30_000, 0)),
        ];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert_eq!(crossings.len(), 1, "the optical candidates cross");
        let r = exact(&nets, &crossings);
        assert!(r.proven_optimal);
        let optical_count = r.choice.iter().filter(|&&j| j == 0).count();
        assert_eq!(optical_count, 1, "exactly one net can stay optical");
        assert!(selection_feasible(&nets, &crossings, &r.choice, &lib()));
    }

    #[test]
    fn non_fragile_crossing_nets_both_stay_optical() {
        let nets = vec![
            two_pin_net(0, Point::new(0, 0), Point::new(30_000, 30_000), 1),
            two_pin_net(1, Point::new(0, 30_000), Point::new(30_000, 0), 1),
        ];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = exact(&nets, &crossings);
        assert_eq!(r.choice, vec![0, 0], "budget absorbs one crossing");
        assert!(selection_feasible(&nets, &crossings, &r.choice, &lib()));
    }

    #[test]
    fn loaded_losses_include_crossings() {
        let nets = vec![
            two_pin_net(0, Point::new(0, 0), Point::new(30_000, 30_000), 1),
            two_pin_net(1, Point::new(0, 30_000), Point::new(30_000, 0), 1),
        ];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let both_optical = vec![0, 0];
        let lib = lib();
        let loaded = loaded_path_losses(&nets, &crossings, &both_optical, 0, &lib);
        let fixed = nets[0].candidates[0].paths[0].fixed_db;
        assert_eq!(loaded.len(), 1);
        assert!((loaded[0] - (fixed + lib.beta_db_per_crossing)).abs() < 1e-9);
        // With net 1 electrical the load drops back to the fixed loss.
        let one_electrical = vec![0, 1];
        let unloaded = loaded_path_losses(&nets, &crossings, &one_electrical, 0, &lib);
        assert!((unloaded[0] - fixed).abs() < 1e-9);
    }

    #[test]
    fn selection_power_sums_candidates_and_fanout() {
        let mut nets = vec![two_pin_net(0, Point::new(0, 0), Point::new(20_000, 0), 2)];
        nets[0].fanout_power_mw = 0.5;
        let p = selection_power_mw(&nets, &[1]);
        let expected = nets[0].candidates[1].total_power_mw() + 0.5;
        assert!((p - expected).abs() < 1e-12);
    }
}
