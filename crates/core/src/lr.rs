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
//! # Incremental pricing
//!
//! Net `i`'s pricing subproblem reads exactly three inputs: its own
//! multipliers `λ[i]`, the multipliers `λ[m]` of the nets it crosses, and
//! those nets' previous selections. When none of them moved (bitwise)
//! since the last iteration, re-running the argmin would reproduce the
//! cached answer bit for bit — so [`select_lr`] skips it and reuses
//! the cached one. The same reasoning caches the loaded-loss evaluations
//! feeding the sub-gradient. The iterate sequence is therefore identical
//! to the full recomputation loop, which is retained as
//! [`select_lr_reference`] and pinned by fixture tests.
//!
//! # Arena state
//!
//! All per-call state lives in flat arenas inside [`LrWorkspace`]: the
//! multipliers are one contiguous `Vec<f64>` indexed through CSR offsets
//! (`LambdaArena`), the dirty bits are refilled in place, and the cached
//! load vectors are scattered into persistent rows. A [`LrWorkspace`] is
//! reusable across calls — `WarmSession` owns one, so resident re-solves
//! allocate nothing proportional to the design in the iteration loop
//! (the P002 lint keeps this path allocation-free). The coupling graph
//! consulted by the dirty sets is the crossing index's precomputed CSR
//! ([`CrossingIndex::net_neighbors`]); building a per-call adjacency here
//! was what made incremental pricing slower than the reference at small
//! iteration counts.

use crate::codesign::NetCandidates;
use crate::config::OperonConfig;
use crate::formulation::{
    loaded_path_losses, loaded_path_losses_for, selection_feasible, selection_power_mw,
    SelectionResult,
};
use crate::CrossingIndex;
use operon_exec::Executor;
use operon_optics::OpticalLib;

/// Work counters of one LR selection: how much pricing the incremental
/// dirty sets actually performed versus reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LrStats {
    /// Sub-gradient iterations run (≤ `lr_max_iters`).
    pub iterations: u64,
    /// Pricing subproblems actually solved.
    pub priced_nets: u64,
    /// Pricing subproblems skipped because no input moved.
    pub reused_prices: u64,
    /// Loaded-loss vectors actually evaluated.
    pub load_evals: u64,
    /// Loaded-loss vectors reused from the previous iteration.
    pub reused_loads: u64,
}

impl LrStats {
    /// Adds another selection's counters into this one (a session
    /// accumulates its per-request LR work here).
    pub fn accumulate(&mut self, other: &LrStats) {
        self.iterations += other.iterations;
        self.priced_nets += other.priced_nets;
        self.reused_prices += other.reused_prices;
        self.load_evals += other.load_evals;
        self.reused_loads += other.reused_loads;
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
        let s = self.cand_base[net] as usize + cand;
        &self.vals[self.cand_off[s] as usize..self.cand_off[s + 1] as usize]
    }

    /// Mutable view of `(net, cand)`'s path multipliers.
    #[inline]
    fn paths_mut(&mut self, net: usize, cand: usize) -> &mut [f64] {
        let s = self.cand_base[net] as usize + cand;
        &mut self.vals[self.cand_off[s] as usize..self.cand_off[s + 1] as usize]
    }
}

/// Persistent scratch state of the incremental LR loop.
///
/// Owning one across calls (as `WarmSession` does) makes repeated
/// selections allocation-free in the iteration loop: the multiplier
/// arena, the dirty bits, and the load rows are all resized in place.
/// The workspace carries no results between calls — every call fully
/// re-initializes it — so reuse can never change an outcome, only skip
/// allocator traffic.
#[derive(Clone, Debug, Default)]
pub struct LrWorkspace {
    lambda: LambdaArena,
    /// Whether net `i`'s multipliers moved in the last update.
    lambda_changed: Vec<bool>,
    /// Whether net `i`'s selection moved in the previous iteration.
    prev_selection_changed: Vec<bool>,
    /// Per-iteration dirty bits, refilled in place.
    price_dirty: Vec<bool>,
    selection_changed: Vec<bool>,
    loads_dirty: Vec<bool>,
    /// Cached loaded-loss vectors of the previous iteration; rows of
    /// clean nets survive untouched (the old implementation cloned them
    /// through the executor every iteration).
    loads: Vec<Vec<f64>>,
}

impl LrWorkspace {
    /// An empty workspace; grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for `nets` and resets the per-call flags.
    fn reset(&mut self, nets: &[NetCandidates], lib: &OpticalLib) {
        let n = nets.len();
        self.lambda.init(nets, lib);
        self.lambda_changed.clear();
        self.lambda_changed.resize(n, true);
        self.prev_selection_changed.clear();
        self.prev_selection_changed.resize(n, true);
        self.price_dirty.clear();
        self.price_dirty.resize(n, false);
        self.selection_changed.clear();
        self.selection_changed.resize(n, false);
        self.loads_dirty.clear();
        self.loads_dirty.resize(n, false);
        self.loads.truncate(n);
        self.loads.resize_with(n, Vec::new);
    }
}

/// Runs the LR-based selection, with the per-net work spread over
/// `exec`'s workers, against a caller-owned workspace (resident callers
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

    ws.reset(nets, lib);
    // Split borrows: the pricing closures read `lambda` and the dirty
    // bits concurrently while the sequential update below writes them.
    let LrWorkspace {
        lambda,
        lambda_changed,
        prev_selection_changed,
        price_dirty,
        selection_changed,
        loads_dirty,
        loads,
    } = ws;

    // Start from the unloaded greedy selection.
    let mut choice: Vec<usize> = exec.par_map_indexed(nets, |i, nc| {
        best_candidate(nc, i, lambda, None, crossings, lib)
    });

    let mut prev_power = f64::INFINITY;
    let mut prev_violation = f64::INFINITY;
    let mut stats = LrStats::default();
    // Whether `loads` holds this call's previous-iteration vectors.
    let mut loads_primed = false;

    for iter in 1..=config.lr_max_iters {
        stats.iterations += 1;
        // Select per net against the previous iterate (lines 5). Net `i`
        // must re-price iff its own or a neighbor's multipliers moved, or
        // a neighbor's previous selection moved. Iteration 1 prices all:
        // the cold start ran without crossing terms. The coupling graph
        // is the crossing index's precomputed CSR rows — nothing is
        // built per call.
        let previous = choice;
        let first = iter == 1;
        for (i, dirty) in price_dirty.iter_mut().enumerate() {
            *dirty = first
                || lambda_changed[i]
                || crossings
                    .net_neighbors(i)
                    .iter()
                    .any(|&m| lambda_changed[m as usize] || prev_selection_changed[m as usize]);
        }
        choice = exec.par_map_indexed(nets, |i, nc| {
            if price_dirty[i] {
                best_candidate(nc, i, lambda, Some(&previous), crossings, lib)
            } else {
                previous[i]
            }
        });
        let priced = price_dirty.iter().filter(|&&d| d).count() as u64;
        stats.priced_nets += priced;
        stats.reused_prices += nets.len() as u64 - priced;

        // Violations under the current joint selection (line 6). The
        // loaded losses are pure per-net functions of the frozen
        // `choice`, so the dirty ones batch-evaluate in parallel; a net
        // whose selection and neighbor selections are unchanged keeps
        // last iteration's row in place — no clone, no copy. The
        // multiplier updates below consume them in net order.
        for (i, changed) in selection_changed.iter_mut().enumerate() {
            *changed = choice[i] != previous[i];
        }
        for (i, dirty) in loads_dirty.iter_mut().enumerate() {
            *dirty = !loads_primed
                || selection_changed[i]
                || crossings
                    .net_neighbors(i)
                    .iter()
                    .any(|&m| selection_changed[m as usize]);
        }
        let fresh: Vec<Option<Vec<f64>>> = exec.par_map_indexed(nets, |i, _| {
            loads_dirty[i].then(|| loaded_path_losses(nets, crossings, &choice, i, lib))
        });
        for (row, f) in loads.iter_mut().zip(fresh) {
            if let Some(v) = f {
                *row = v;
            }
        }
        loads_primed = true;
        let evaluated = loads_dirty.iter().filter(|&&d| d).count() as u64;
        stats.load_evals += evaluated;
        stats.reused_loads += nets.len() as u64 - evaluated;

        let mut total_violation = 0.0f64;
        let step = 1.0 / iter as f64;
        for (i, loaded) in loads.iter().enumerate() {
            let ci = choice[i];
            let mut changed = false;
            let lam_sel = lambda.paths_mut(i, ci);
            for (pi, &load) in loaded.iter().enumerate() {
                let subgradient = load - lib.max_loss_db;
                if subgradient > 0.0 {
                    total_violation += subgradient;
                }
                let l = &mut lam_sel[pi];
                let updated = (*l + step * subgradient * 0.1).max(0.0);
                changed |= updated.to_bits() != l.to_bits();
                *l = updated;
            }
            // Paths of unselected candidates relax toward zero (their
            // constraint LHS is 0, sub-gradient -l_m).
            for j in 0..nets[i].candidates.len() {
                if j != ci {
                    for l in lambda.paths_mut(i, j) {
                        let updated = (*l - step * lib.max_loss_db * 0.01).max(0.0);
                        changed |= updated.to_bits() != l.to_bits();
                        *l = updated;
                    }
                }
            }
            lambda_changed[i] = changed;
        }
        std::mem::swap(prev_selection_changed, selection_changed);

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

    // Repair + polish the LR iterate, and — as a second start — the plain
    // cheapest-per-net selection; keep whichever lands lower. The second
    // start guards against the LR iterate digging itself into a repair
    // basin worse than the trivial greedy one on crossing-dense instances.
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

    let choice =
        if selection_power_mw(nets, &polished_lr) <= selection_power_mw(nets, &polished_greedy) {
            polished_lr
        } else {
            polished_greedy
        };
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

/// The pre-incremental LR loop: every net re-priced and every loaded loss
/// re-evaluated, every iteration, sequentially. Retained as the oracle
/// that pins [`select_lr`]'s iterate sequence — the incremental dirty-set
/// loop must reproduce this result bit for bit (see the fixture tests and
/// `crossing_bench`).
pub fn select_lr_reference(
    nets: &[NetCandidates],
    crossings: &CrossingIndex,
    config: &OperonConfig,
) -> SelectionResult {
    let start = operon_exec::Stopwatch::start();
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
        let previous = choice;
        choice = nets
            .iter()
            .enumerate()
            .map(|(i, nc)| best_candidate(nc, i, &lambda, Some(&previous), crossings, lib))
            // operon-lint: allow(P002, reason = "cold sequential reference oracle; the warm path in select_lr is the hot one and reuses buffers")
            .collect();

        let all_loads: Vec<Vec<f64>> = (0..nets.len())
            .map(|i| loaded_path_losses(nets, crossings, &choice, i, lib))
            // operon-lint: allow(P002, reason = "cold sequential reference oracle; per-iteration loads are consumed immediately below")
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

    let choice =
        if selection_power_mw(nets, &polished_lr) <= selection_power_mw(nets, &polished_greedy) {
            polished_lr
        } else {
            polished_greedy
        };

    SelectionResult {
        power_mw: selection_power_mw(nets, &choice),
        proven_optimal: false,
        elapsed: start.elapsed(),
        choice,
        ilp_stats: None,
        lr_stats: None,
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
            if choice[nb.net()] == nb.cand() {
                self.adjust(crossings, nb, -1.0, lib);
            }
        }
        for nb in crossings.neighbors(i, new_j) {
            if choice[nb.net()] == nb.cand() {
                self.adjust(crossings, nb, 1.0, lib);
            }
        }
        choice[i] = new_j;
        self.loads[i] = loaded_path_losses(nets, crossings, choice, i, lib);
    }

    /// Adds `sign ×` the crossing loss that the neighbor list's owner
    /// inflicts on `nb`'s paths.
    fn adjust(
        &mut self,
        crossings: &CrossingIndex,
        nb: &crate::crossing::Neighbor,
        sign: f64,
        lib: &OpticalLib,
    ) {
        let (_, per_path_m) = crossings.per_path(nb);
        for &(pm, n) in per_path_m {
            self.loads[nb.net()][pm as usize] += sign * lib.crossing_loss_db(n as usize);
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
            let (m, sel_m) = nb.key();
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
/// With `previous == None` crossing terms are ignored (cold start).
fn best_candidate(
    nc: &NetCandidates,
    i: usize,
    lambda: &LambdaArena,
    previous: Option<&[usize]>,
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
                if prev[nb.net()] != nb.cand() {
                    continue;
                }
                let (per_path_own, per_path_other) = crossings.per_path(nb);
                // Crossing load on this candidate's own paths.
                for &(pi, cnt) in per_path_own {
                    cost += lam_own[pi as usize] * lib.crossing_loss_db(cnt as usize);
                }
                // Loss inflicted on the previously selected paths of other
                // nets (the a_mn · a'_ij term of Eq. (5)).
                let lam_other = lambda.paths(nb.net(), nb.cand());
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
        let ilp = select_ilp(
            &nets,
            &crossings,
            &lib,
            Duration::from_secs(20),
            None,
            1,
            &Executor::sequential(),
        )
        .expect("solvable");
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
        // Contested two-pin bundle: crossing-coupled nets exercise the
        // dirty-set propagation and fragile candidates force repair, so
        // the incremental loop must hit both the reuse and recompute
        // branches while staying bit-identical to the plain selector.
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
        // Full synthetic design (I1-class): real candidate sets, real
        // crossing structure. Pins the incremental pricing loop against
        // the retained reference selector and checks the stats counters
        // actually record reuse.
        use crate::codesign::generate_candidates;
        use operon_cluster::build_hyper_nets;
        use operon_netlist::synth::{generate, SynthConfig};

        let design = generate(&SynthConfig::small(), 42);
        let config = OperonConfig::default();
        let hyper = build_hyper_nets(&design, &config.cluster);
        let config = config.resolved_for(hyper.iter().map(|n| n.bit_count()));
        let nets: Vec<NetCandidates> = hyper
            .iter()
            .enumerate()
            .map(|(i, n)| generate_candidates(n, i, &config))
            .collect();
        let crossings = CrossingIndex::build_with(&nets, &Executor::sequential());
        let reference = select_lr_reference(&nets, &crossings, &config);
        let r = seq_lr(&nets, &crossings, &config);
        assert_eq!(r.choice, reference.choice);
        assert_eq!(r.power_mw.to_bits(), reference.power_mw.to_bits());
        let stats = r.lr_stats.expect("LR path records stats");
        assert!(stats.iterations > 0);
        assert_eq!(
            stats.priced_nets + stats.reused_prices,
            stats.iterations * nets.len() as u64
        );
        assert!(
            stats.reused_prices > 0,
            "incremental pricing should reuse at least some prices: {stats:?}"
        );
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
                    1,
                    &Executor::sequential(),
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
