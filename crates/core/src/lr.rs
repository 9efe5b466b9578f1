//! Lagrangian-relaxation selection — Algorithm 1 of the paper (§3.4).
//!
//! The detection constraints (3c) are relaxed into the objective with one
//! multiplier `λ_p` per candidate path. The quadratic crossing terms are
//! linearized around the previous iterate (Eq. (5)):
//! `a_mn · a_ij ≈ a'_mn · a_ij + a_mn · a'_ij`, so each iteration prices a
//! candidate by its own power, the λ-weighted loss of its paths given the
//! *previous* selection of the other nets, and the λ-weighted loss it
//! inflicts on the previously selected paths of others. Multipliers are
//! updated with a diminishing sub-gradient step; the loop stops when both
//! power and violation improve by less than a configured ratio, or after
//! `lr_max_iters` iterations (the paper caps at 10).
//!
//! A final repair pass drops any still-violating net to its electrical
//! fallback so the returned selection is always feasible — the paper's
//! "residual nets have to be completed through electrical wires".
//!
//! # Pricing
//!
//! Every iteration prices every net and evaluates every net's loaded
//! losses, so [`LrStats::priced_nets`] and [`LrStats::load_evals`] both
//! equal `iterations × nets`. Both are per-net pure functions of the
//! previous iterate (pricing) or the frozen current one (loads), so they
//! run on the executor's workers; the multiplier update between them is
//! sequential and in net order.
//!
//! # Inline maps
//!
//! Spawning the workers of one map costs tens of microseconds, as much
//! as a whole pricing pass over a daemon-sized design. So the per-net
//! maps run on the executor's workers only when the work of one map —
//! the candidate paths plus the crossing-neighbor entries a pricing pass
//! scans — reaches `LR_PARALLEL_MIN_WORK`, and inline on the calling
//! thread below it ([`LrStats::map_work`], [`LrStats::parallel`]). The
//! choice depends on the inputs only, and either way every map returns
//! the same values.
//!
//! # Arena state
//!
//! The multipliers live in one flat arena inside [`LrWorkspace`]: a
//! contiguous `Vec<f64>` indexed through CSR offsets (`LambdaArena`). A
//! [`LrWorkspace`] is reusable across calls — `WarmSession` owns one, so
//! resident re-solves refill the arena in place instead of reallocating
//! it.

use crate::codesign::NetCandidates;
use crate::config::OperonConfig;
use crate::formulation::{
    loaded_path_losses, loaded_path_losses_for, selection_feasible, selection_power_mw,
    SelectionResult,
};
use crate::CrossingIndex;
use operon_exec::Executor;
use operon_optics::OpticalLib;

/// Work of one per-net map (see [`map_work`]) below which the LR maps
/// run inline: under it, spawning the workers costs more than they save.
///
/// `exec_bench`'s sweep times a pricing-shaped map over hyper-net
/// prefixes inline against two spawned workers. Over six runs on 2
/// vCPUs, on the 10k-bit die, two workers ran 23.5k work at 0.70–1.22×
/// the inline speed, 36.5k at 0.76–1.39× and 47k at 1.08–1.53×, and the
/// serve design's whole 19k at 0.68–0.87×, so the bar sits just under
/// the point where they win in every run. The serve design (~19k) and
/// I3 (~7.6k) run inline; the other Table 1 designs (≥ 420k) and the
/// 10k die (~590k) stay parallel.
const LR_PARALLEL_MIN_WORK: u64 = 40_000;

/// Work of one per-net LR map: every candidate path plus every
/// crossing-neighbor entry (two per crossing pair, one in each
/// candidate's list), which is what a pricing pass scans. A pure
/// function of the candidates and the index, counted in O(candidates).
fn map_work(nets: &[NetCandidates], crossings: &CrossingIndex) -> u64 {
    let paths: usize = nets
        .iter()
        .flat_map(|nc| &nc.candidates)
        .map(|c| c.paths.len())
        .sum();
    (paths + 2 * crossings.len()) as u64
}

/// Work counters of one LR selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LrStats {
    /// Sub-gradient iterations run (≤ `lr_max_iters`).
    pub iterations: u64,
    /// Pricing subproblems solved: every net, every iteration.
    pub priced_nets: u64,
    /// Loaded-loss vectors evaluated: every net, every iteration.
    pub load_evals: u64,
    /// Work of one per-net map: the candidate paths plus the
    /// crossing-neighbor entries a pricing pass scans (see
    /// [`select_lr`]).
    pub map_work: u64,
    /// Whether the per-net maps ran on the executor's workers (`map_work`
    /// at or above `LR_PARALLEL_MIN_WORK`) rather than inline. Decided
    /// from the inputs alone, so equal at every thread count.
    pub parallel: bool,
}

impl LrStats {
    /// Adds another selection's counters into this one (a session
    /// accumulates its per-request LR work here).
    pub fn accumulate(&mut self, other: &LrStats) {
        self.iterations += other.iterations;
        self.priced_nets += other.priced_nets;
        self.load_evals += other.load_evals;
        self.map_work += other.map_work;
        self.parallel |= other.parallel;
    }
}

/// Flat multiplier arena: one `f64` per (net, candidate, path), indexed
/// through CSR offsets. `paths(net, cand)` is two offset loads and a
/// slice — the hot pricing loop's replacement for `lambda[i][j]` chasing
/// three heap levels.
#[derive(Clone, Debug, Default)]
struct LambdaArena {
    /// All multipliers, candidate path blocks back to back in
    /// (net, candidate) order.
    vals: Vec<f64>,
    /// Start of each candidate's block; one sentinel entry at the end.
    cand_off: Vec<u32>,
    /// First candidate slot of each net; one sentinel entry at the end.
    cand_base: Vec<u32>,
}

impl LambdaArena {
    /// Re-initializes for a candidate set, reusing the allocations:
    /// every path's multiplier starts proportional to its net's
    /// electrical-fallback power (Algorithm 1, line 1).
    fn init(&mut self, nets: &[NetCandidates], lib: &OpticalLib) {
        self.vals.clear();
        self.cand_off.clear();
        self.cand_base.clear();
        for nc in nets {
            self.cand_base.push(self.cand_off.len() as u32);
            let pe = nc.electrical().total_power_mw().max(1e-6);
            let init = 0.01 * pe / lib.max_loss_db;
            for c in &nc.candidates {
                self.cand_off.push(self.vals.len() as u32);
                self.vals.resize(self.vals.len() + c.paths.len(), init);
            }
        }
        self.cand_base.push(self.cand_off.len() as u32);
        self.cand_off.push(self.vals.len() as u32);
    }

    /// The multipliers of `(net, cand)`'s paths.
    #[inline]
    fn paths(&self, net: usize, cand: usize) -> &[f64] {
        self.paths_at(self.cand_base[net] as usize + cand)
    }

    /// The multipliers of the paths of the candidate in slot `s`. Slots
    /// count candidates in `(net, cand)` order, which is the crossing
    /// index's global candidate numbering (`Neighbor::id`).
    #[inline]
    fn paths_at(&self, s: usize) -> &[f64] {
        &self.vals[self.cand_off[s] as usize..self.cand_off[s + 1] as usize]
    }

    /// Per candidate slot, whether `choice` selects it: pricing tests
    /// crossing neighbors against the previous iterate by global id,
    /// with no net lookup per neighbor.
    fn selected(&self, choice: &[usize]) -> Vec<bool> {
        let mut flags = vec![false; self.cand_off.len().saturating_sub(1)];
        for (net, &cand) in choice.iter().enumerate() {
            flags[self.cand_base[net] as usize + cand] = true;
        }
        flags
    }

    /// Mutable view of `(net, cand)`'s path multipliers.
    #[inline]
    fn paths_mut(&mut self, net: usize, cand: usize) -> &mut [f64] {
        let s = self.cand_base[net] as usize + cand;
        &mut self.vals[self.cand_off[s] as usize..self.cand_off[s + 1] as usize]
    }
}

/// Persistent scratch state of the LR loop: the multiplier arena.
///
/// Owning one across calls (as `WarmSession` does) refills the arena in
/// place instead of reallocating it. The workspace carries no results
/// between calls — every call fully re-initializes it — so reuse can
/// never change an outcome, only skip allocator traffic.
#[derive(Clone, Debug, Default)]
pub struct LrWorkspace {
    lambda: LambdaArena,
}

impl LrWorkspace {
    /// An empty workspace; grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the LR-based selection, with the per-net work spread over
/// `exec`'s workers when it is large enough to pay for them (see the
/// module docs), against a caller-owned workspace (resident callers
/// hold one across calls; one-shot callers pass `&mut
/// LrWorkspace::new()`).
///
/// Always returns a feasible selection; `proven_optimal` is always
/// `false` (LR is a heuristic speed-up).
///
/// Each iteration's pricing subproblems (line 5 of Algorithm 1) read only
/// the *previous* iterate and the multipliers, so every net prices
/// independently; the loaded-loss evaluations feeding the sub-gradient
/// are likewise per-net pure functions of the frozen joint selection.
/// Multiplier updates and the repair/polish pass stay sequential — they
/// are order-dependent by construction. Results are identical for every
/// thread count and any workspace history.
pub fn select_lr(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    config: &OperonConfig,
    exec: &Executor,
    ws: &mut LrWorkspace,
) -> SelectionResult {
    let start = operon_exec::Stopwatch::start();
    let lib = &config.optical;

    let lambda = &mut ws.lambda;
    lambda.init(nets, lib);

    let mut stats = LrStats {
        map_work: map_work(nets, crossings),
        ..LrStats::default()
    };
    stats.parallel = stats.map_work >= LR_PARALLEL_MIN_WORK;
    let sequential;
    let exec = if stats.parallel {
        exec
    } else {
        sequential = Executor::sequential();
        &sequential
    };

    // Start from the unloaded greedy selection.
    let mut choice: Vec<usize> = exec.par_map_indexed(nets, |i, nc| {
        best_candidate(nc, i, lambda, None, crossings, lib)
    });

    let mut prev_power = f64::INFINITY;
    let mut prev_violation = f64::INFINITY;

    for iter in 1..=config.lr_max_iters {
        stats.iterations += 1;
        // Select per net against the previous iterate (line 5).
        let previous = lambda.selected(&choice);
        choice = exec.par_map_indexed(nets, |i, nc| {
            best_candidate(nc, i, lambda, Some(&previous), crossings, lib)
        });
        stats.priced_nets += nets.len() as u64;

        // Violations under the current joint selection (line 6). The
        // loaded losses are pure per-net functions of the frozen
        // `choice`, so they batch-evaluate in parallel; the multiplier
        // updates below consume them in net order.
        let loads = exec.par_map_indexed(nets, |i, _| {
            loaded_path_losses(nets, crossings, &choice, i, lib)
        });
        stats.load_evals += nets.len() as u64;

        let mut total_violation = 0.0f64;
        let step = 1.0 / iter as f64;
        for (i, loaded) in loads.iter().enumerate() {
            let ci = choice[i];
            let lam_sel = lambda.paths_mut(i, ci);
            for (pi, &load) in loaded.iter().enumerate() {
                let subgradient = load - lib.max_loss_db;
                if subgradient > 0.0 {
                    total_violation += subgradient;
                }
                let l = &mut lam_sel[pi];
                *l = (*l + step * subgradient * 0.1).max(0.0);
            }
            // Paths of unselected candidates relax toward zero (their
            // constraint LHS is 0, sub-gradient -l_m).
            for j in 0..nets[i].candidates.len() {
                if j != ci {
                    for l in lambda.paths_mut(i, j) {
                        *l = (*l - step * lib.max_loss_db * 0.01).max(0.0);
                    }
                }
            }
        }

        let power = selection_power_mw(nets, &choice);
        let power_gain = (prev_power - power) / prev_power.max(1e-12);
        let viol_gain = if prev_violation > 0.0 {
            (prev_violation - total_violation) / prev_violation
        } else {
            0.0
        };
        let converged = prev_power.is_finite()
            && power_gain.abs() < config.lr_converge_ratio
            && viol_gain.abs() < config.lr_converge_ratio;
        prev_power = power;
        prev_violation = total_violation;
        if converged {
            break;
        }
    }

    let choice = polish_with_greedy_start(nets, crossings, choice, lib);
    debug_assert!(selection_feasible(nets, crossings, &choice, lib));

    SelectionResult {
        power_mw: selection_power_mw(nets, &choice),
        proven_optimal: false,
        elapsed: start.elapsed(),
        choice,
        ilp_stats: None,
        lr_stats: Some(stats),
    }
}

/// Repairs and polishes the LR iterate and — as a second start — the
/// plain cheapest-per-net selection, and keeps whichever lands lower.
/// The second start guards against the LR iterate digging itself into a
/// repair basin worse than the trivial greedy one on crossing-dense
/// instances.
fn polish_with_greedy_start(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: Vec<usize>,
    lib: &OpticalLib,
) -> Vec<usize> {
    let polished_lr = repair_and_polish(nets, crossings, choice, lib);
    let greedy: Vec<usize> = nets
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
    let polished_greedy = repair_and_polish(nets, crossings, greedy, lib);
    if selection_power_mw(nets, &polished_lr) <= selection_power_mw(nets, &polished_greedy) {
        polished_lr
    } else {
        polished_greedy
    }
}

/// Repairs a selection to feasibility (ban-loop: while some selected path
/// is over budget, ban the worst offender's current candidate and move it
/// to the cheapest unbanned candidate feasible against the rest — the
/// pathless electrical fallback always qualifies and is never banned;
/// every step bans one (net, candidate) pair, so the loop terminates),
/// then greedily re-adopts cheaper candidates wherever the global budget
/// still allows.
fn repair_and_polish(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    mut choice: Vec<usize>,
    lib: &OpticalLib,
) -> Vec<usize> {
    let mut loads = LoadCache::new(nets, crossings, &choice, lib);
    let mut banned: Vec<Vec<bool>> = nets
        .iter()
        .map(|nc| vec![false; nc.candidates.len()])
        .collect();
    while let Some(i) = loads.worst_violator(&choice, nets, lib) {
        banned[i][choice[i]] = true;
        let new_j = cheapest_feasible(nets, crossings, &choice, i, &banned[i], lib);
        loads.move_net(nets, crossings, &mut choice, i, new_j, lib);
    }
    readopt_optical(nets, crossings, &mut choice, &mut loads, lib);
    choice
}

/// Cached loaded losses of every selected path, maintained incrementally
/// across single-net moves (full recomputation is O(nets²) and dominated
/// the repair loop on the large benchmarks).
struct LoadCache {
    /// `loads[i][pi]` = loaded loss of path `pi` of net `i`'s selection.
    loads: Vec<Vec<f64>>,
    /// Scratch for `move_is_feasible`'s per-neighbor load deltas, sized
    /// to the neighbor under test and reused across calls.
    delta: Vec<f64>,
}

impl LoadCache {
    fn new(
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        choice: &[usize],
        lib: &OpticalLib,
    ) -> Self {
        Self {
            loads: (0..nets.len())
                .map(|i| loaded_path_losses(nets, crossings, choice, i, lib))
                .collect(),
            delta: Vec::new(),
        }
    }

    /// The net whose selected paths violate the budget the most.
    fn worst_violator(
        &self,
        choice: &[usize],
        nets: &[NetCandidates],
        lib: &OpticalLib,
    ) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for (i, loads) in self.loads.iter().enumerate() {
            if choice[i] == nets[i].electrical_idx {
                continue;
            }
            for &load in loads {
                let excess = load - lib.max_loss_db;
                if excess > 1e-9 && worst.is_none_or(|(_, w)| excess > w) {
                    worst = Some((i, excess));
                }
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Applies `choice[i] = new_j`, updating the loads of every net the
    /// old and new candidates cross, plus net `i` itself.
    fn move_net(
        &mut self,
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        choice: &mut [usize],
        i: usize,
        new_j: usize,
        lib: &OpticalLib,
    ) {
        let old_j = choice[i];
        if old_j == new_j {
            return;
        }
        for nb in crossings.neighbors(i, old_j) {
            let (m, sel_m) = crossings.neighbor_key(nb);
            if choice[m] == sel_m {
                self.adjust(crossings, nb, m, -1.0, lib);
            }
        }
        for nb in crossings.neighbors(i, new_j) {
            let (m, sel_m) = crossings.neighbor_key(nb);
            if choice[m] == sel_m {
                self.adjust(crossings, nb, m, 1.0, lib);
            }
        }
        choice[i] = new_j;
        self.loads[i] = loaded_path_losses(nets, crossings, choice, i, lib);
    }

    /// Adds `sign ×` the crossing loss that the neighbor list's owner
    /// inflicts on the paths of `nb`, a candidate of net `m`.
    fn adjust(
        &mut self,
        crossings: &CrossingIndex,
        nb: &crate::crossing::Neighbor,
        m: usize,
        sign: f64,
        lib: &OpticalLib,
    ) {
        let (_, per_path_m) = crossings.per_path(nb);
        for &(pm, n) in per_path_m {
            self.loads[m][pm as usize] += sign * lib.crossing_loss_db(n as usize);
        }
    }

    /// Whether moving net `i` to candidate `j` keeps every path of every
    /// net within budget.
    fn move_is_feasible(
        &mut self,
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        choice: &[usize],
        i: usize,
        j: usize,
        lib: &OpticalLib,
    ) -> bool {
        // Other nets: current load − old contribution + new contribution.
        // Only nets crossing the old or new candidate can change; removing
        // the old contribution never hurts, so only the new one is checked
        // (against the load minus any old overlap on the same pair).
        let old_j = choice[i];
        // The neighbor list is sorted and the `choice[m] == n` filter
        // keeps at most one candidate per net, so this visits each
        // affected net once, in ascending net order.
        for nb in crossings.neighbors(i, j) {
            let (m, sel_m) = crossings.neighbor_key(nb);
            if choice[m] != sel_m {
                continue;
            }
            self.delta.clear();
            self.delta.resize(self.loads[m].len(), 0.0);
            if let Some(pc) = crossings.pair(i, old_j, m, sel_m) {
                let per_path_m = if i < m { pc.per_path_b } else { pc.per_path_a };
                for &(pm, n) in per_path_m {
                    self.delta[pm as usize] -= lib.crossing_loss_db(n as usize);
                }
            }
            let (_, per_path_m) = crossings.per_path(nb);
            for &(pm, n) in per_path_m {
                self.delta[pm as usize] += lib.crossing_loss_db(n as usize);
            }
            for (load, d) in self.loads[m].iter().zip(&self.delta) {
                if load + d > lib.max_loss_db + 1e-9 {
                    return false;
                }
            }
        }
        // Net i's own paths under the trial candidate.
        loaded_path_losses_for(nets, crossings, choice, i, j, lib)
            .into_iter()
            .all(|l| l <= lib.max_loss_db + 1e-9)
    }
}

/// Greedy post-repair improvement: move nets onto strictly cheaper
/// candidates whenever the move keeps the whole selection feasible.
/// Every adoption strictly lowers total power, so the loop terminates.
fn readopt_optical(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &mut [usize],
    loads: &mut LoadCache,
    lib: &OpticalLib,
) {
    loop {
        let mut improved = false;
        for i in 0..nets.len() {
            let current_power = nets[i].candidates[choice[i]].total_power_mw();
            // Candidates sorted cheapest-first would help; the sets are
            // small, so scan for the best admissible improvement.
            let mut best: Option<(f64, usize)> = None;
            for (j, cand) in nets[i].candidates.iter().enumerate() {
                let p = cand.total_power_mw();
                if p >= current_power - 1e-9 {
                    continue;
                }
                if best.is_some_and(|(bp, _)| p >= bp) {
                    continue;
                }
                if loads.move_is_feasible(nets, crossings, choice, i, j, lib) {
                    best = Some((p, j));
                }
            }
            if let Some((_, j)) = best {
                loads.move_net(nets, crossings, choice, i, j, lib);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// The cheapest unbanned candidate of net `i` whose paths all fit the
/// budget when loaded against the rest of `choice`. Falls back to the
/// (pathless, always-feasible) electrical candidate.
fn cheapest_feasible(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &[usize],
    i: usize,
    banned: &[bool],
    lib: &OpticalLib,
) -> usize {
    let mut best = nets[i].electrical_idx;
    let mut best_power = nets[i].candidates[best].total_power_mw();
    for (j, cand) in nets[i].candidates.iter().enumerate() {
        if banned[j] || cand.total_power_mw() >= best_power {
            continue;
        }
        let feasible = loaded_path_losses_for(nets, crossings, choice, i, j, lib)
            .into_iter()
            .all(|l| l <= lib.max_loss_db + 1e-9);
        if feasible {
            best = j;
            best_power = cand.total_power_mw();
        }
    }
    best
}

/// The candidate of net `i` minimizing the linearized Lagrangian cost.
///
/// `previous` flags the previous iterate's candidates by global id
/// ([`LambdaArena::selected`]); with `None` crossing terms are ignored
/// (cold start).
fn best_candidate(
    nc: &NetCandidates,
    i: usize,
    lambda: &LambdaArena,
    previous: Option<&[bool]>,
    crossings: &CrossingIndex,
    lib: &OpticalLib,
) -> usize {
    let mut best = nc.electrical_idx;
    let mut best_cost = f64::INFINITY;
    for (j, cand) in nc.candidates.iter().enumerate() {
        let lam_own = lambda.paths(i, j);
        let mut cost = cand.total_power_mw();
        // λ-weighted fixed loss of this candidate's own paths.
        for (pi, path) in cand.paths.iter().enumerate() {
            cost += lam_own[pi] * path.fixed_db;
        }
        if let Some(prev) = previous {
            // Only candidates this one actually crosses contribute; the
            // neighbor entry carries the per-path counts directly.
            for nb in crossings.neighbors(i, j) {
                if !prev[nb.id()] {
                    continue;
                }
                let (per_path_own, per_path_other) = crossings.per_path(nb);
                // Crossing load on this candidate's own paths.
                for &(pi, cnt) in per_path_own {
                    cost += lam_own[pi as usize] * lib.crossing_loss_db(cnt as usize);
                }
                // Loss inflicted on the previously selected paths of other
                // nets (the a_mn · a'_ij term of Eq. (5)).
                let lam_other = lambda.paths_at(nb.id());
                for &(pm, cnt) in per_path_other {
                    cost += lam_other[pm as usize] * lib.crossing_loss_db(cnt as usize);
                }
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, EdgeMedium};
    use crate::formulation::select_ilp;
    use operon_geom::Point;
    use operon_optics::ElectricalParams;
    use operon_steiner::{NodeKind, RouteTree};
    use std::time::Duration;

    fn two_pin_net(net_index: usize, a: Point, b: Point, bits: usize) -> NetCandidates {
        let mut tree = RouteTree::new(a);
        tree.add_child(tree.root(), b, NodeKind::Terminal);
        let lib = OpticalLib::paper_defaults();
        let e = ElectricalParams::paper_defaults();
        let optical = analyze_assignment(&tree, &[EdgeMedium::Optical], bits, &lib, &e);
        let electrical = analyze_assignment(&tree, &[EdgeMedium::Electrical], bits, &lib, &e);
        NetCandidates {
            net_index,
            bits,
            candidates: vec![optical, electrical],
            electrical_idx: 1,
            fanout_power_mw: 0.0,
        }
    }

    fn config() -> OperonConfig {
        OperonConfig::default()
    }

    /// Sequential LR on a fresh workspace.
    fn seq_lr(
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        config: &OperonConfig,
    ) -> SelectionResult {
        select_lr(
            nets,
            crossings,
            config,
            &Executor::sequential(),
            &mut LrWorkspace::new(),
        )
    }

    /// The plain sequential LR loop: no executor, no workspace, fresh
    /// vectors every iteration. The oracle that pins [`select_lr`]'s
    /// iterate sequence bit for bit at every thread count.
    fn select_lr_reference(
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        config: &OperonConfig,
    ) -> SelectionResult {
        let lib = &config.optical;
        let mut lambda = LambdaArena::default();
        lambda.init(nets, lib);

        let mut choice: Vec<usize> = nets
            .iter()
            .enumerate()
            .map(|(i, nc)| best_candidate(nc, i, &lambda, None, crossings, lib))
            .collect();

        let mut prev_power = f64::INFINITY;
        let mut prev_violation = f64::INFINITY;

        for iter in 1..=config.lr_max_iters {
            let previous = lambda.selected(&choice);
            choice = nets
                .iter()
                .enumerate()
                .map(|(i, nc)| best_candidate(nc, i, &lambda, Some(&previous), crossings, lib))
                .collect();

            let all_loads: Vec<Vec<f64>> = (0..nets.len())
                .map(|i| loaded_path_losses(nets, crossings, &choice, i, lib))
                .collect();
            let mut total_violation = 0.0f64;
            let step = 1.0 / iter as f64;
            for (i, loaded) in all_loads.into_iter().enumerate() {
                let ci = choice[i];
                let lam_sel = lambda.paths_mut(i, ci);
                for (pi, load) in loaded.into_iter().enumerate() {
                    let subgradient = load - lib.max_loss_db;
                    if subgradient > 0.0 {
                        total_violation += subgradient;
                    }
                    let l = &mut lam_sel[pi];
                    *l = (*l + step * subgradient * 0.1).max(0.0);
                }
                for j in 0..nets[i].candidates.len() {
                    if j != ci {
                        for l in lambda.paths_mut(i, j) {
                            *l = (*l - step * lib.max_loss_db * 0.01).max(0.0);
                        }
                    }
                }
            }

            let power = selection_power_mw(nets, &choice);
            let power_gain = (prev_power - power) / prev_power.max(1e-12);
            let viol_gain = if prev_violation > 0.0 {
                (prev_violation - total_violation) / prev_violation
            } else {
                0.0
            };
            let converged = prev_power.is_finite()
                && power_gain.abs() < config.lr_converge_ratio
                && viol_gain.abs() < config.lr_converge_ratio;
            prev_power = power;
            prev_violation = total_violation;
            if converged {
                break;
            }
        }

        let choice = polish_with_greedy_start(nets, crossings, choice, lib);
        SelectionResult {
            power_mw: selection_power_mw(nets, &choice),
            proven_optimal: false,
            elapsed: Duration::ZERO,
            choice,
            ilp_stats: None,
            lr_stats: None,
        }
    }

    #[test]
    fn lr_picks_optical_for_long_nets() {
        let nets = vec![two_pin_net(0, Point::new(0, 0), Point::new(20_000, 0), 1)];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = seq_lr(&nets, &crossings, &config());
        assert_eq!(r.choice, vec![0]);
        assert!(!r.proven_optimal);
    }

    #[test]
    fn lr_picks_electrical_for_short_nets() {
        let nets = vec![two_pin_net(0, Point::new(0, 0), Point::new(2_000, 0), 1)];
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = seq_lr(&nets, &crossings, &config());
        assert_eq!(r.choice, vec![1]);
    }

    #[test]
    fn lr_selection_is_always_feasible() {
        // A bundle of mutually crossing fragile nets: LR must repair any
        // violations by falling back to electrical.
        let lib = OpticalLib::paper_defaults();
        let mut nets: Vec<NetCandidates> = (0..4)
            .map(|k| {
                let y0 = (k as i64) * 10_000;
                two_pin_net(k, Point::new(0, y0), Point::new(30_000, 30_000 - y0), 1)
            })
            .collect();
        // Make every optical candidate fragile (one crossing breaks it).
        for nc in &mut nets {
            for p in &mut nc.candidates[0].paths {
                p.fixed_db = lib.max_loss_db - 0.1;
            }
        }
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(!crossings.is_empty());
        let r = seq_lr(&nets, &crossings, &config());
        assert!(selection_feasible(&nets, &crossings, &r.choice, &lib));
    }

    #[test]
    fn lr_close_to_ilp_on_small_instances() {
        // The paper reports LR within a few percent of ILP; on a small
        // instance we check the same shape: LR power >= ILP power, within
        // a modest factor.
        let nets: Vec<NetCandidates> = (0..6)
            .map(|k| {
                let y0 = (k as i64) * 5_000;
                two_pin_net(k, Point::new(0, y0), Point::new(25_000, y0 + 2_000), 1)
            })
            .collect();
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let lib = OpticalLib::paper_defaults();
        let ilp =
            select_ilp(&nets, &crossings, &lib, Duration::from_secs(20), None).expect("solvable");
        let lr = seq_lr(&nets, &crossings, &config());
        assert!(ilp.proven_optimal);
        assert!(
            lr.power_mw >= ilp.power_mw - 1e-6,
            "LR cannot beat the proven optimum"
        );
        assert!(
            lr.power_mw <= ilp.power_mw * 1.25 + 1e-6,
            "LR too far from optimum: {} vs {}",
            lr.power_mw,
            ilp.power_mw
        );
    }

    #[test]
    fn lr_is_deterministic() {
        let nets: Vec<NetCandidates> = (0..5)
            .map(|k| {
                let y0 = (k as i64) * 6_000;
                two_pin_net(k, Point::new(0, y0), Point::new(28_000, 28_000 - y0), 1)
            })
            .collect();
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let a = seq_lr(&nets, &crossings, &config());
        let b = seq_lr(&nets, &crossings, &config());
        assert_eq!(a.choice, b.choice);
        assert_eq!(a.power_mw, b.power_mw);
    }

    #[test]
    fn parallel_lr_matches_sequential() {
        let nets: Vec<NetCandidates> = (0..20)
            .map(|k| {
                let y0 = (k as i64) * 1_500;
                two_pin_net(k, Point::new(0, y0), Point::new(28_000, 28_000 - y0), 2)
            })
            .collect();
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let seq = seq_lr(&nets, &crossings, &config());
        for threads in [2, 4, 8] {
            let par = select_lr(
                &nets,
                &crossings,
                &config(),
                &Executor::new(threads),
                &mut LrWorkspace::new(),
            );
            assert_eq!(par.choice, seq.choice, "threads={threads}");
            assert_eq!(
                par.power_mw.to_bits(),
                seq.power_mw.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn incremental_lr_matches_reference_selector() {
        // Contested two-pin bundle: crossing-coupled nets move each
        // other's prices and fragile candidates force repair, while the
        // executor-mapped loop stays bit-identical to the plain selector.
        let lib = OpticalLib::paper_defaults();
        let mut nets: Vec<NetCandidates> = (0..8)
            .map(|k| {
                let y0 = (k as i64) * 4_000;
                two_pin_net(k, Point::new(0, y0), Point::new(30_000, 30_000 - y0), 2)
            })
            .collect();
        for nc in nets.iter_mut().step_by(2) {
            for p in &mut nc.candidates[0].paths {
                p.fixed_db = lib.max_loss_db - 1.0;
            }
        }
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let reference = select_lr_reference(&nets, &crossings, &config());
        for threads in [1, 2, 8] {
            let r = select_lr(
                &nets,
                &crossings,
                &config(),
                &Executor::new(threads),
                &mut LrWorkspace::new(),
            );
            assert_eq!(r.choice, reference.choice, "threads={threads}");
            assert_eq!(
                r.power_mw.to_bits(),
                reference.power_mw.to_bits(),
                "threads={threads}"
            );
        }
    }

    /// `side` horizontal and `side` vertical two-pin nets on a lattice:
    /// every horizontal crosses every vertical once, so the index holds
    /// `side²` pairs.
    fn lattice_nets(side: usize) -> Vec<NetCandidates> {
        let span = 1_000 * (side as i64 + 1);
        (0..2 * side)
            .map(|k| {
                let at = 1_000 * (k % side) as i64 + 1_000;
                let (a, b) = if k < side {
                    (Point::new(0, at), Point::new(span, at))
                } else {
                    (Point::new(at, 0), Point::new(at, span))
                };
                two_pin_net(k, a, b, 1)
            })
            .collect()
    }

    #[test]
    fn maps_run_parallel_by_work_with_identical_results() {
        // Lattices just below and just above the break-even: the smallest
        // side whose map work (one optical path per net plus two neighbor
        // entries per pair) reaches it, and the side before. The choice
        // follows the work alone; choice, power and counters are equal at
        // every thread count, and only a parallel choice on more than one
        // worker spawns.
        let work = |side: usize| (2 * side + 2 * side * side) as u64;
        let above = (1..)
            .find(|&side| work(side) >= LR_PARALLEL_MIN_WORK)
            .expect("some side reaches the break-even");
        for (side, parallel) in [(above - 1, false), (above, true)] {
            let nets = lattice_nets(side);
            let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
            assert_eq!(crossings.len(), side * side);
            let base = seq_lr(&nets, &crossings, &config());
            let stats = base.lr_stats.expect("LR stats");
            assert_eq!(stats.map_work, work(side), "side {side}");
            assert_eq!(stats.parallel, parallel, "side {side}");
            for threads in [1, 2, 8] {
                let exec = Executor::new(threads);
                let r = select_lr(&nets, &crossings, &config(), &exec, &mut LrWorkspace::new());
                let label = format!("side {side}, threads {threads}");
                assert_eq!(r.choice, base.choice, "{label}");
                assert_eq!(r.power_mw.to_bits(), base.power_mw.to_bits(), "{label}");
                assert_eq!(r.lr_stats, base.lr_stats, "{label}");
                let spawned = exec.metrics().par_calls() > 0;
                assert_eq!(spawned, parallel && threads > 1, "{label}");
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // A workspace that just solved a different (larger) instance must
        // produce bit-identical results on the next instance: reuse only
        // skips allocations, never carries state.
        let lib = OpticalLib::paper_defaults();
        let big: Vec<NetCandidates> = (0..12)
            .map(|k| {
                let y0 = (k as i64) * 2_500;
                two_pin_net(k, Point::new(0, y0), Point::new(30_000, 30_000 - y0), 2)
            })
            .collect();
        let mut small: Vec<NetCandidates> = (0..6)
            .map(|k| {
                let y0 = (k as i64) * 5_000;
                two_pin_net(k, Point::new(0, y0), Point::new(30_000, 30_000 - y0), 1)
            })
            .collect();
        for nc in small.iter_mut().step_by(2) {
            for p in &mut nc.candidates[0].paths {
                p.fixed_db = lib.max_loss_db - 1.0;
            }
        }
        let exec = Executor::sequential();
        let mut ws = LrWorkspace::new();
        let big_idx = CrossingIndex::build_with(&big, &Executor::sequential());
        let _ = select_lr(&big, &big_idx, &config(), &exec, &mut ws);
        let small_idx = CrossingIndex::build_with(&small, &Executor::sequential());
        let warm = select_lr(&small, &small_idx, &config(), &exec, &mut ws);
        let cold = select_lr(
            &small,
            &small_idx,
            &config(),
            &exec,
            &mut LrWorkspace::new(),
        );
        assert_eq!(warm.choice, cold.choice);
        assert_eq!(warm.power_mw.to_bits(), cold.power_mw.to_bits());
        assert_eq!(warm.lr_stats, cold.lr_stats);
    }

    #[test]
    fn incremental_lr_matches_reference_on_synth_fixture() {
        // Full synthetic designs with real candidate sets and real
        // crossing structure, at the default loss budget and at a
        // tightened 4 dB one where crossing constraints bind. These
        // converge within 2-5 iterations, and at 4 dB the I2 iterate
        // never leaves its start. So one more fixture turns convergence
        // off (ratio 0) on I1 seed 15 at 4 dB: it runs the full
        // iteration budget with choices still moving in its last
        // iteration, where a stale price changes the answer. Pins the
        // executor-mapped pricing loop against the sequential reference
        // at every thread count and checks the work counters' exact
        // invariant.
        use crate::codesign::generate_candidates;
        use operon_cluster::build_hyper_nets;
        use operon_netlist::synth::{generate, SynthConfig};

        let fixtures = [
            ("I1_small_seed42", SynthConfig::small(), 42, None, None),
            (
                "I1_small_seed42_4db",
                SynthConfig::small(),
                42,
                Some(4.0),
                None,
            ),
            ("I2_medium_seed3", SynthConfig::medium(), 3, None, None),
            (
                "I2_medium_seed3_4db",
                SynthConfig::medium(),
                3,
                Some(4.0),
                None,
            ),
            (
                "I1_small_seed15_4db_full_budget",
                SynthConfig::small(),
                15,
                Some(4.0),
                Some(0.0),
            ),
        ];
        for (name, synth, seed, budget, converge) in fixtures {
            let design = generate(&synth, seed);
            let mut config = OperonConfig::default();
            if let Some(db) = budget {
                config.optical.max_loss_db = db;
            }
            if let Some(ratio) = converge {
                config.lr_converge_ratio = ratio;
            }
            let hyper = build_hyper_nets(&design, &config.cluster);
            let config = config.resolved_for(hyper.iter().map(|n| n.bit_count()));
            let nets: Vec<NetCandidates> = hyper
                .iter()
                .enumerate()
                .map(|(i, n)| generate_candidates(n, i, &config))
                .collect();
            let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
            let reference = select_lr_reference(&nets, &crossings, &config);
            let mut ws = LrWorkspace::new();
            for threads in [1, 2, 8] {
                let exec = Executor::new(threads);
                let r = select_lr(&nets, &crossings, &config, &exec, &mut ws);
                assert_eq!(r.choice, reference.choice, "{name} threads={threads}");
                assert_eq!(
                    r.power_mw.to_bits(),
                    reference.power_mw.to_bits(),
                    "{name} threads={threads}"
                );
                let stats = r.lr_stats.expect("LR path records stats");
                assert!(stats.iterations > 0, "{name}");
                if converge == Some(0.0) {
                    assert_eq!(
                        stats.iterations, config.lr_max_iters as u64,
                        "{name}: no convergence test, full budget"
                    );
                }
                assert_eq!(
                    stats.priced_nets,
                    stats.iterations * nets.len() as u64,
                    "{name}: every net priced every iteration"
                );
                assert_eq!(stats.load_evals, stats.priced_nets, "{name}");
            }
        }
    }

    /// A naive reference repair: start from per-net cheapest, drop the
    /// worst violator straight to electrical until feasible (GLOW-style,
    /// no alternatives, no re-adoption).
    fn naive_drop_selection(
        nets: &[NetCandidates],
        crossings: &CrossingIndex,
        lib: &OpticalLib,
    ) -> Vec<usize> {
        let mut choice: Vec<usize> = nets
            .iter()
            .map(|nc| {
                nc.candidates
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1.total_power_mw()
                            .partial_cmp(&b.1.total_power_mw())
                            .expect("finite")
                    })
                    .map(|(j, _)| j)
                    .expect("non-empty")
            })
            .collect();
        loop {
            let mut worst: Option<(usize, f64)> = None;
            for i in 0..nets.len() {
                if choice[i] == nets[i].electrical_idx {
                    continue;
                }
                for load in loaded_path_losses(nets, crossings, &choice, i, lib) {
                    let excess = load - lib.max_loss_db;
                    if excess > 1e-9 && worst.is_none_or(|(_, w)| excess > w) {
                        worst = Some((i, excess));
                    }
                }
            }
            match worst {
                Some((i, _)) => choice[i] = nets[i].electrical_idx,
                None => break,
            }
        }
        choice
    }

    #[test]
    fn lr_never_worse_than_naive_drop_repair() {
        // Dense crossing bundles across several geometries: the LR result
        // (multi-start + re-adoption) must match or beat the naive
        // drop-to-electrical repair.
        let lib = OpticalLib::paper_defaults();
        for spread in [4_000i64, 8_000, 12_000] {
            let mut nets: Vec<NetCandidates> = (0..6)
                .map(|k| {
                    let y0 = (k as i64) * spread;
                    two_pin_net(k, Point::new(0, y0), Point::new(30_000, 30_000 - y0), 1)
                })
                .collect();
            // Tighten the optical candidates so crossings genuinely bind.
            for nc in &mut nets {
                for p in &mut nc.candidates[0].paths {
                    p.fixed_db = lib.max_loss_db - 1.2;
                }
            }
            let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
            let naive = naive_drop_selection(&nets, &crossings, &lib);
            let naive_power = selection_power_mw(&nets, &naive);
            let lr = seq_lr(&nets, &crossings, &config());
            assert!(
                lr.power_mw <= naive_power + 1e-6,
                "spread {spread}: LR {} vs naive {naive_power}",
                lr.power_mw
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// On random contested instances, a proven-optimal ILP never
            /// loses to LR, both stay feasible, and tightening a
            /// candidate's loss can only push LR's power up.
            #[test]
            fn ilp_bounds_lr_on_random_instances(
                endpoints in proptest::collection::vec(
                    (0i64..30_000, 0i64..30_000, 0i64..30_000, 0i64..30_000),
                    2..5,
                ),
                fragile in proptest::collection::vec(any::<bool>(), 5),
            ) {
                let lib = OpticalLib::paper_defaults();
                let mut nets: Vec<NetCandidates> = endpoints
                    .iter()
                    .enumerate()
                    .map(|(k, &(ax, ay, bx, by))| {
                        two_pin_net(k, Point::new(ax, ay), Point::new(bx, by), 1)
                    })
                    .collect();
                for (k, nc) in nets.iter_mut().enumerate() {
                    if fragile[k % fragile.len()] {
                        for p in &mut nc.candidates[0].paths {
                            p.fixed_db = lib.max_loss_db - 0.1;
                        }
                    }
                }
                let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
                let lr = seq_lr(&nets, &crossings, &config());
                prop_assert!(selection_feasible(&nets, &crossings, &lr.choice, &lib));
                let ilp = select_ilp(
                    &nets,
                    &crossings,
                    &lib,
                    Duration::from_secs(20),
                    Some(&lr.choice),
                )
                .expect("solvable");
                prop_assert!(selection_feasible(&nets, &crossings, &ilp.choice, &lib));
                prop_assert!(
                    ilp.power_mw <= lr.power_mw + 1e-6,
                    "ILP {} must not exceed its LR warm start {}",
                    ilp.power_mw,
                    lr.power_mw
                );
                if ilp.proven_optimal {
                    prop_assert!(lr.power_mw >= ilp.power_mw - 1e-6);
                }
            }
        }
    }

    #[test]
    fn readoption_recovers_over_aggressive_repair() {
        // Three mutually crossing nets where at most one can be optical:
        // whatever order the repair dropped them in, exactly one must end
        // up optical (re-adoption fills any hole the ban-loop left).
        let lib = OpticalLib::paper_defaults();
        let mut nets: Vec<NetCandidates> = vec![
            two_pin_net(0, Point::new(0, 0), Point::new(30_000, 30_000), 1),
            two_pin_net(1, Point::new(0, 30_000), Point::new(30_000, 0), 1),
            two_pin_net(2, Point::new(0, 15_000), Point::new(30_000, 16_000), 1),
        ];
        for nc in &mut nets {
            for p in &mut nc.candidates[0].paths {
                p.fixed_db = lib.max_loss_db - 0.1; // any crossing kills it
            }
        }
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = seq_lr(&nets, &crossings, &config());
        let optical = r.choice.iter().filter(|&&j| j == 0).count();
        assert_eq!(
            optical, 1,
            "exactly one net can stay optical: {:?}",
            r.choice
        );
        assert!(selection_feasible(&nets, &crossings, &r.choice, &lib));
    }
}
