//! Per-layer measurements shared by every workload, plus the plan checks.
//!
//! Every routing path — `OperonFlow::run`, the warm session behind
//! `operon_serve`, the explore sweep — opens one executor stage per
//! pipeline layer and records the same counters (`crossing_pairs`,
//! `lr_*`, `wdm_*`). The per-layer metrics are therefore read the same
//! way on every workload: the stage records one workload operation
//! appended to its executor's run report.

use crate::report::Outcome;
use crate::stats::median;
use operon::config::OperonConfig;
use operon::formulation::selection_feasible;
use operon::wdm::channels::{assign_channels, validate_channels};
use operon::wdm::WdmPlan;
use operon::{CrossingIndex, NetCandidates};
use operon_exec::{Executor, StageRecord};
use std::collections::BTreeMap;

/// Pipeline stages in flow order: (executor stage name, metric prefix).
pub const STAGES: [(&str, &str); 5] = [
    ("clustering", "cluster"),
    ("codesign", "codesign"),
    ("crossing", "crossing"),
    ("selection", "selection"),
    ("wdm", "wdm"),
];
const CROSSING: usize = 2;
const WDM: usize = 4;

/// Stage work of one workload operation (a route round, an ECO, a
/// sweep), summed over its stage records. Arrays are indexed like
/// [`STAGES`].
#[derive(Clone, Debug, Default)]
pub struct OpStages {
    pub wall_ms: [f64; 5],
    /// Worker time inside `par_map` loops.
    pub busy_ms: [f64; 5],
    /// Items run by `par_map` calls.
    pub tasks: [u64; 5],
    pub steals: [u64; 5],
    pub counters: BTreeMap<String, u64>,
}

impl OpStages {
    fn from_records(records: &[StageRecord]) -> Self {
        let mut op = OpStages::default();
        for r in records {
            let Some(s) = STAGES.iter().position(|(name, _)| *name == r.name) else {
                continue;
            };
            op.wall_ms[s] += r.wall.as_secs_f64() * 1e3;
            op.busy_ms[s] += r.busy.as_secs_f64() * 1e3;
            op.tasks[s] += r.tasks;
            op.steals[s] += r.steals;
            for (k, v) in &r.counters {
                *op.counters.entry(k.clone()).or_default() += v;
            }
        }
        op
    }

    pub fn add(&mut self, other: &OpStages) {
        for s in 0..STAGES.len() {
            self.wall_ms[s] += other.wall_ms[s];
            self.busy_ms[s] += other.busy_ms[s];
            self.tasks[s] += other.tasks[s];
            self.steals[s] += other.steals[s];
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// (stage name, wall ms) in flow order, for trace spans.
    pub fn stage_walls(&self) -> Vec<(&'static str, f64)> {
        STAGES
            .iter()
            .zip(self.wall_ms)
            .map(|(&(name, _), ms)| (name, ms))
            .collect()
    }
}

/// Reads the stage records an executor appended since the last call.
pub struct StageCursor {
    seen: usize,
}

impl StageCursor {
    pub fn new(exec: &Executor) -> Self {
        Self {
            seen: exec.report().stages.len(),
        }
    }

    pub fn next_op(&mut self, exec: &Executor) -> OpStages {
        let report = exec.report();
        let op = OpStages::from_records(&report.stages[self.seen..]);
        self.seen = report.stages.len();
        op
    }
}

/// Inputs of the per-layer metrics of one traced pass.
pub struct LayerInputs<'a> {
    /// Median `io::read_design` time of the set-up.
    pub read_ms: f64,
    /// Every traced operation: the time medians and time ratios.
    pub timed: &'a [OpStages],
    /// A fixed prefix of the operations: the work counts, identical on
    /// every run with the same seed.
    pub counted: &'a [OpStages],
    /// Hyper nets and candidates of the routed state (summed over the
    /// workload's designs).
    pub hyper_nets: usize,
    pub candidates: usize,
    /// WDMs deleted, (initial − final) count, per warm deletion trial.
    pub deletion_yield: f64,
    /// Executor workers.
    pub threads: usize,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every workload reports.
pub fn layer_metrics(inp: &LayerInputs<'_>, out: &mut Outcome) {
    let mut counted = OpStages::default();
    for op in inp.counted {
        counted.add(op);
    }
    let mut timed = OpStages::default();
    for op in inp.timed {
        timed.add(op);
    }
    let per_op = |key: &str| ratio(counted.counter(key) as f64, inp.counted.len() as f64);
    let stage_ms = |s: usize| median(&inp.timed.iter().map(|op| op.wall_ms[s]).collect::<Vec<_>>());

    // `share.*` (where an op's stage time goes) backs the README's
    // stage-share tables; it is not a declared metric.
    let total: f64 = (0..STAGES.len()).map(stage_ms).sum();
    for (s, (_, prefix)) in STAGES.iter().enumerate() {
        out.push(format!("{prefix}.ms"), stage_ms(s), "ms");
        out.push(
            format!("share.{prefix}"),
            ratio(stage_ms(s), total),
            "fraction",
        );
    }
    out.push("netlist.read_ms", inp.read_ms, "ms");
    out.push("cluster.hyper_nets", inp.hyper_nets as f64, "count");
    out.push("codesign.candidates", inp.candidates as f64, "count");
    out.push("codesign.nets_recoded", per_op("nets_recoded"), "count");
    out.push("crossing.pairs", per_op("crossing_pairs"), "count");
    out.push(
        "crossing.ns_per_pair",
        ratio(
            timed.wall_ms[CROSSING] * 1e6,
            timed.counter("crossing_pairs") as f64,
        ),
        "ns",
    );
    out.push("selection.lr_iterations", per_op("lr_iterations"), "count");
    out.push("selection.priced_nets", per_op("lr_priced_nets"), "count");
    let reuse = |reused: &str, done: &str| {
        let r = counted.counter(reused) as f64;
        ratio(r, r + counted.counter(done) as f64)
    };
    out.push(
        "selection.price_reuse",
        reuse("lr_reused_prices", "lr_priced_nets"),
        "fraction",
    );
    out.push(
        "selection.load_reuse",
        reuse("lr_reused_loads", "lr_load_evals"),
        "fraction",
    );
    for (metric, key) in [
        ("wdm.dijkstra_passes", "wdm_dijkstra_passes"),
        ("wdm.warm_trials", "wdm_warm_trials"),
        ("wdm.cold_solves", "wdm_cold_solves"),
        ("wdm.repair_rounds", "wdm_repair_rounds"),
        ("wdm.warm_fallbacks", "wdm_warm_fallbacks"),
        ("wdm.networks_cloned", "wdm_networks_cloned"),
    ] {
        out.push(metric, per_op(key), "count");
    }
    out.push(
        "wdm.us_per_dijkstra",
        ratio(
            timed.wall_ms[WDM] * 1e3,
            timed.counter("wdm_dijkstra_passes") as f64,
        ),
        "us",
    );
    out.push("wdm.deletion_yield", inp.deletion_yield, "fraction");

    // Executor work per stage: `par_map` items per op over the counted
    // prefix (they repeat exactly), steals per op over every timed op
    // (they depend on the schedule), and efficiency = busy / (threads ×
    // wall), which shows whether the second worker helps a stage.
    out.push("exec.threads", inp.threads as f64, "count");
    let ops = inp.timed.len() as f64;
    for (s, (stage, _)) in STAGES.iter().enumerate() {
        let tasks: u64 = inp.counted.iter().map(|op| op.tasks[s]).sum();
        out.push(
            format!("exec.tasks.{stage}"),
            ratio(tasks as f64, inp.counted.len() as f64),
            "count",
        );
        out.push(
            format!("exec.steals.{stage}"),
            ratio(timed.steals[s] as f64, ops),
            "count",
        );
        out.push(
            format!("exec.efficiency.{stage}"),
            ratio(timed.busy_ms[s], inp.threads as f64 * timed.wall_ms[s]),
            "fraction",
        );
    }
}

/// FNV-1a over the selected candidates, the power bits and the WDM
/// plan: two routes share it iff their plans are byte-identical.
pub fn plan_fingerprint(choice: &[usize], power_mw: f64, wdm: &WdmPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &c in choice {
        eat(c as u64);
    }
    eat(power_mw.to_bits());
    eat(wdm.connections.len() as u64);
    eat(wdm.initial_count as u64);
    for w in &wdm.wdms {
        eat(w.track as u64);
        eat(w.assigned.len() as u64);
        for &(conn, channels) in &w.assigned {
            eat(conn as u64);
            eat(channels as u64);
        }
    }
    h
}

/// The plan checks: every selected path meets the detection budget
/// under the crossing coupling, and the WDM channel assignment is
/// conflict-free, within capacity and covers every connection's bits.
pub fn check_plan(
    candidates: &[NetCandidates],
    crossings: &CrossingIndex,
    choice: &[usize],
    wdm: &WdmPlan,
    resolved: &OperonConfig,
) -> Result<(), String> {
    if !selection_feasible(candidates, crossings, choice, &resolved.optical) {
        return Err("selection violates the detection budget".to_owned());
    }
    let capacity = resolved.optical.wdm_capacity;
    validate_channels(wdm, &assign_channels(wdm, capacity), capacity)
        .map_err(|e| format!("invalid WDM channels: {e}"))
}

/// Total candidate routes over every hyper net.
pub fn candidate_count(candidates: &[NetCandidates]) -> usize {
    candidates.iter().map(|nc| nc.candidates.len()).sum()
}
