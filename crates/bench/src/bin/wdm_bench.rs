//! Measures the PR-5 transactional WDM re-solve machinery — undo-log
//! trials against the clone-per-trial pattern they replace, and the
//! end-to-end warm planner against the all-cold reference — and writes
//! `BENCH_wdm.json` at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin wdm_bench
//! cargo run -p operon-bench --release --bin wdm_bench -- --smoke
//! ```
//!
//! Three measurements:
//!
//! 1. **Clone-style vs transactional deletion sweeps** on an
//!    assignment network in the WDM-reduction shape: every
//!    single-waveguide tentative deletion evaluated (a) the pre-PR way —
//!    copy the committed network, withdraw, warm re-solve, drop the
//!    copy — and (b) transactionally — `checkout()`, withdraw, warm
//!    re-solve, `rollback()` on the shared committed network. Per-trial
//!    results must agree exactly (asserted); the clone counters must
//!    read one-copy-per-trial before and zero after (asserted).
//! 2. **Warm vs cold WDM planning** on synthesized designs: wall time
//!    of `wdm::plan` against the retained `wdm::plan_cold_reference`,
//!    with plans asserted byte-identical at 1, 2 and 8 threads, zero
//!    networks cloned, and one rollback per warm trial (all asserted).
//!    On the I2-class fixture the warm planner must beat the cold
//!    reference in wall time (asserted). The 2k-bit die fixture must
//!    split into at least two assignment components (asserted), so the
//!    identity covers the per-component plan and its merge. Each
//!    fixture's plan fingerprint must equal the one pinned in the
//!    committed `BENCH_wdm.json` (asserted, read at run time): the
//!    planner and its cold reference share the MCMF kernel, so only the
//!    pin sees a kernel change that moves a tie-break.
//! 3. **Orientation reuse** on the same fixtures: a second selection
//!    sends one net electrical, which changes one orientation and shifts
//!    the other's connection indices. Planning it with the first plan's
//!    reuse record must equal planning it from scratch — plan field by
//!    field and [`wdm::WdmPlan::fingerprint`] — at 1, 2 and 8 threads, with
//!    exactly one orientation reused (asserted). Reports both wall times, each arm
//!    timing the same work: it consumes the first plan's reuse record
//!    and plans the second selection. Also reports the reused
//!    orientation's share of the second selection's connections.
//!
//! `--smoke` drops the I2-class fixture, keeps every identity assertion
//! and plan pin, and skips the timing criteria and the JSON write — the
//! cheap CI gate.
//!
//! Numbers in the committed `BENCH_wdm.json` come from whatever machine
//! last ran this binary; `hardware_threads` records the truth.

use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::lr::{select_lr, LrWorkspace};
use operon::wdm::{self, TrackOrientation};
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::json::{self, Value};
use operon_exec::{Executor, Stopwatch};
use operon_mcmf::{EdgeId, FlowResult, McmfGraph, McmfStats, NodeId};
use operon_netlist::synth::{generate, SynthConfig};

const ITERS: u32 = 3;
const THREADS: [usize; 3] = [1, 2, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let pins = pinned_plan_fingerprints();
    let styles = bench_trial_styles(smoke);
    let plans = bench_plans(smoke, &pins);

    if smoke {
        println!("wdm_bench --smoke: all identity checks and plan pins passed");
        return;
    }

    let report = Value::object(vec![
        ("benchmark", Value::from("wdm_transactional")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("trial_styles", styles),
        ("wdm_plan", Value::Array(plans)),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wdm.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_wdm.json");
    println!("wrote {path}");
}

// ---------------------------------------------------------------------------
// 1. Clone-style vs transactional deletion sweeps
// ---------------------------------------------------------------------------

/// An assignment network in the WDM-reduction shape: `conns` connections
/// of `bits` channels each, `wdms` waveguides of `capacity`, assignment
/// arcs costed by track distance.
struct Reduction {
    g: McmfGraph,
    idx: RedIndex,
}

/// Edge handles of the reduction network, immutable once built — split
/// from the network so trials can mutably borrow `g` while reading the
/// handles, mirroring the planner's own layout.
struct RedIndex {
    conns: usize,
    wdm_edges: Vec<EdgeId>,
    s: NodeId,
    t: NodeId,
}

fn build_reduction(conns: usize, wdms: usize, bits: i64, capacity: i64) -> Reduction {
    let mut g = McmfGraph::new(2 + conns + wdms);
    let s = g.node(0);
    let t = g.node(1 + conns + wdms);
    let mut wdm_edges = Vec::new();
    for i in 0..conns {
        g.add_edge(s, g.node(1 + i), bits, 0);
    }
    for i in 0..conns {
        for w in 0..wdms {
            let cost = (i as i64 - (w as i64 * conns as i64 / wdms as i64)).abs();
            g.add_edge(g.node(1 + i), g.node(1 + conns + w), bits, cost);
        }
    }
    for w in 0..wdms {
        wdm_edges.push(g.add_edge(g.node(1 + conns + w), t, capacity, 10));
    }
    Reduction {
        g,
        idx: RedIndex {
            conns,
            wdm_edges,
            s,
            t,
        },
    }
}

/// One tentative-deletion trial, the way the planner runs it: withdraw
/// the deleted waveguide's sink-edge flow, zero its capacity, and
/// re-route the displaced units from the waveguide node to the sink.
fn reroute_trial(g: &mut McmfGraph, idx: &RedIndex, deleted: usize, prior: &[i64]) -> FlowResult {
    let sink = idx.wdm_edges[deleted];
    let f = g.flow(sink);
    if f > 0 {
        g.withdraw_edge_flow(sink, f);
    }
    g.set_edge_capacity(sink, 0);
    let w = g.node(1 + idx.conns + deleted);
    g.min_cost_reroute(w, idx.t, f, prior)
}

/// The pre-PR trial pattern: copy the committed network per deletion,
/// run the trial on the copy, drop it.
fn clone_sweep(committed: &Reduction, prior: &[i64]) -> (Vec<FlowResult>, McmfStats) {
    let mut results = Vec::new();
    let mut stats = McmfStats::default();
    for deleted in 0..committed.idx.wdm_edges.len() {
        let base = committed.g.stats();
        let mut warm = committed.g.clone();
        results.push(reroute_trial(&mut warm, &committed.idx, deleted, prior));
        stats.accumulate(&warm.stats().delta_since(&base));
    }
    (results, stats)
}

/// The transactional trial pattern this PR introduces: checkout, trial,
/// rollback — all on the shared committed network, which returns to its
/// pre-trial state bitwise.
fn txn_sweep(committed: &mut Reduction, prior: &[i64]) -> (Vec<FlowResult>, McmfStats) {
    let mut results = Vec::new();
    let mut stats = McmfStats::default();
    for deleted in 0..committed.idx.wdm_edges.len() {
        let base = committed.g.stats();
        let mut txn = committed.g.checkout();
        let r = reroute_trial(&mut txn, &committed.idx, deleted, prior);
        results.push(r);
        txn.rollback();
        stats.accumulate(&committed.g.stats().delta_since(&base));
    }
    (results, stats)
}

fn bench_trial_styles(smoke: bool) -> Value {
    let (conns, wdms, bits, capacity) = if smoke {
        (6, 3, 10, 32)
    } else {
        (24, 8, 20, 96)
    };
    let mut committed = build_reduction(conns, wdms, bits, capacity);
    let full = committed
        .g
        .min_cost_max_flow(committed.idx.s, committed.idx.t);
    assert_eq!(
        full.flow,
        conns as i64 * bits,
        "committed solve must route all"
    );
    let prior = committed.g.potentials().to_vec();

    let (clone_results, clone_stats) = clone_sweep(&committed, &prior);
    let mut clone_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let sw = Stopwatch::start();
        let (r, _) = clone_sweep(&committed, &prior);
        clone_ms = clone_ms.min(sw.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r, clone_results, "clone sweep unstable");
    }

    let (txn_results, txn_stats) = txn_sweep(&mut committed, &prior);
    let mut txn_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let sw = Stopwatch::start();
        let (r, _) = txn_sweep(&mut committed, &prior);
        txn_ms = txn_ms.min(sw.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r, txn_results, "transactional sweep unstable");
    }

    assert_eq!(
        txn_results, clone_results,
        "transactional and clone-style trials must agree on every deletion"
    );
    assert_eq!(
        clone_stats.networks_cloned, wdms as u64,
        "the pre-PR pattern copies the network once per trial"
    );
    assert_eq!(
        txn_stats.networks_cloned, 0,
        "transactional trials must not copy the network"
    );
    assert_eq!(
        txn_stats.rollbacks, wdms as u64,
        "one rollback per transactional trial"
    );
    assert!(
        txn_stats.undo_entries > 0,
        "trials must write through the undo log"
    );
    // After the sweeps, the committed network must still re-solve to a
    // no-op: rollback really did restore it.
    let again = committed
        .g
        .min_cost_max_flow(committed.idx.s, committed.idx.t);
    assert_eq!(
        again,
        FlowResult { flow: 0, cost: 0 },
        "rollback left residual work behind"
    );

    println!(
        "trials: {wdms} deletions on {conns}x{wdms} network, clone-style \
         {clone_ms:.3} ms ({c} copies) vs transactional {txn_ms:.3} ms \
         (0 copies, {u} undo entries)",
        c = clone_stats.networks_cloned,
        u = txn_stats.undo_entries,
    );
    Value::object(vec![
        ("connections", Value::from(conns)),
        ("waveguides", Value::from(wdms)),
        ("deletion_trials", Value::from(wdms)),
        ("clone_style_best_ms", Value::from(clone_ms)),
        ("transactional_best_ms", Value::from(txn_ms)),
        ("speedup", Value::from(clone_ms / txn_ms)),
        (
            "networks_cloned_before",
            Value::from(clone_stats.networks_cloned),
        ),
        (
            "networks_cloned_after",
            Value::from(txn_stats.networks_cloned),
        ),
        ("undo_entries", Value::from(txn_stats.undo_entries)),
        ("rollbacks", Value::from(txn_stats.rollbacks)),
    ])
}

// ---------------------------------------------------------------------------
// 2. Warm vs cold WDM planning, end to end
// ---------------------------------------------------------------------------

/// The `(fixture name, plan fingerprint)` pins of the committed
/// `BENCH_wdm.json`, read before this run rewrites it.
fn pinned_plan_fingerprints() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wdm.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_wdm.json");
    let bench = json::parse(&text).expect("BENCH_wdm.json is valid JSON");
    let Some(Value::Array(rows)) = bench.get("wdm_plan") else {
        panic!("BENCH_wdm.json has no wdm_plan array");
    };
    rows.iter()
        .map(|row| match (row.get("name"), row.get("plan_fingerprint")) {
            (Some(Value::Str(name)), Some(Value::Str(fp))) => (name.clone(), fp.clone()),
            other => panic!("BENCH_wdm.json row without a pinned plan fingerprint: {other:?}"),
        })
        .collect()
}

fn bench_plans(smoke: bool, pins: &[(String, String)]) -> Vec<Value> {
    // `(name, design, seed, warm must beat cold, must split into
    // several components)`.
    let mut fixtures = vec![
        ("I1_small_seed42", SynthConfig::small(), 42u64, false, false),
        ("die2k_seed7", SynthConfig::die_scale(2_000), 7, false, true),
    ];
    if !smoke {
        // On the I2-class fixture warm planning must beat the cold
        // reference it trailed before the transactional rework.
        fixtures.push(("I2_medium_seed3", SynthConfig::medium(), 3, true, false));
    }
    let mut out = Vec::new();
    for (name, synth, seed, must_beat_cold, multi_component) in fixtures {
        let config = OperonConfig::default();
        let design = generate(&synth, seed);
        let nets = build_hyper_nets(&design, &config.cluster);
        let config = config.resolved_for(nets.iter().map(|n| n.bit_count()));
        let candidates: Vec<NetCandidates> = nets
            .iter()
            .enumerate()
            .map(|(i, n)| generate_candidates(n, i, &config))
            .collect();
        let exec = Executor::sequential();
        let crossings = CrossingIndex::build_with(&candidates, &exec);
        let choice = select_lr(
            &candidates,
            &crossings,
            &config,
            &exec,
            &mut LrWorkspace::new(),
        );

        let mut cold_ms = f64::INFINITY;
        let mut cold_plan = None;
        for _ in 0..ITERS {
            let sw = Stopwatch::start();
            let p = wdm::plan_cold_reference(&candidates, &choice.choice, &config.optical)
                .expect("plan feasible");
            cold_ms = cold_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            cold_plan = Some(p);
        }
        let cold_plan = cold_plan.expect("at least one iteration");

        let mut warm_ms = f64::INFINITY;
        let mut warm_plan = None;
        for _ in 0..ITERS {
            let sw = Stopwatch::start();
            let (p, _) = wdm::plan(&candidates, &choice.choice, &config.optical, None, &exec)
                .expect("plan feasible");
            warm_ms = warm_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            warm_plan = Some(p);
        }
        let warm_plan = warm_plan.expect("at least one iteration");

        assert_eq!(
            warm_plan.wdms, cold_plan.wdms,
            "{name}: warm planner must reproduce the cold reference plan"
        );
        assert_eq!(
            warm_plan.initial_count, cold_plan.initial_count,
            "{name}: initial waveguide count"
        );
        assert_eq!(
            warm_plan.stats.components, cold_plan.stats.components,
            "{name}: component split"
        );
        if multi_component {
            assert!(
                warm_plan.stats.components >= 2,
                "{name}: {} assignment components, expected several",
                warm_plan.stats.components
            );
        }
        let fingerprint = format!("{:016x}", warm_plan.fingerprint());
        let pinned = pins
            .iter()
            .find(|(pin, _)| pin == name)
            .map(|(_, fp)| fp)
            .unwrap_or_else(|| panic!("BENCH_wdm.json pins no plan for {name}"));
        assert_eq!(
            &fingerprint, pinned,
            "{name}: plan fingerprint moved from the one pinned in BENCH_wdm.json"
        );
        // Same plan for every thread count, byte for byte.
        for threads in THREADS {
            let (p, _) = wdm::plan(
                &candidates,
                &choice.choice,
                &config.optical,
                None,
                &Executor::new(threads),
            )
            .expect("plan feasible");
            assert_eq!(
                p.wdms, cold_plan.wdms,
                "{name}: plan diverged at {threads} threads"
            );
            assert_eq!(
                p.stats, warm_plan.stats,
                "{name}: stats diverged at {threads} threads"
            );
        }
        let stats = &warm_plan.stats;
        assert_eq!(
            stats.mcmf.networks_cloned, 0,
            "{name}: the warm trial loop must not copy any network"
        );
        assert_eq!(
            stats.mcmf.rollbacks, stats.warm_trials,
            "{name}: one rollback per warm trial"
        );
        let reuse = bench_reuse(name, &candidates, &choice.choice, &config.optical);
        if must_beat_cold {
            assert!(
                warm_ms < cold_ms,
                "{name}: transactional warm planning must beat the cold \
                 reference ({warm_ms:.2} ms vs {cold_ms:.2} ms)"
            );
        }

        println!(
            "wdm {name}: {w} waveguides in {c} components, cold {cold_ms:.2} \
             ms vs warm {warm_ms:.2} ms, {trials} warm trials, {u} undo \
             entries, 0 clones",
            w = warm_plan.wdms.len(),
            c = stats.components,
            trials = stats.warm_trials,
            u = stats.mcmf.undo_entries,
        );
        out.push(Value::object(vec![
            ("name", Value::from(name)),
            ("waveguides", Value::from(warm_plan.wdms.len())),
            ("plan_fingerprint", Value::from(fingerprint)),
            ("cold_reference_best_ms", Value::from(cold_ms)),
            ("warm_best_ms", Value::from(warm_ms)),
            ("speedup", Value::from(cold_ms / warm_ms)),
            ("components", Value::from(stats.components)),
            ("cold_solves", Value::from(stats.cold_solves)),
            ("warm_trials", Value::from(stats.warm_trials)),
            ("dijkstra_passes", Value::from(stats.mcmf.dijkstra_passes)),
            ("arcs_scanned", Value::from(stats.mcmf.arcs_scanned)),
            ("repair_rounds", Value::from(stats.mcmf.repair_rounds)),
            ("undo_entries", Value::from(stats.mcmf.undo_entries)),
            ("rollbacks", Value::from(stats.mcmf.rollbacks)),
            ("networks_cloned", Value::from(stats.mcmf.networks_cloned)),
            ("reuse", reuse),
        ]));
    }
    out
}

/// A second selection that differs from `choice` in one orientation
/// only: the first net whose chosen candidate's connections all share
/// one orientation, with connections of the other orientation after it,
/// goes electrical. Dropping its connections re-plans its orientation
/// and shifts the other orientation's global connection indices. Returns
/// the second selection and the orientation it changes.
fn one_orientation_change(
    candidates: &[NetCandidates],
    choice: &[usize],
) -> (Vec<usize>, TrackOrientation) {
    let all = wdm::extract_connections(candidates, choice);
    let mut before = 0;
    for (i, nc) in candidates.iter().enumerate() {
        let own = wdm::extract_connections(&candidates[i..=i], &choice[i..=i]);
        before += own.len();
        let Some(first) = own.first() else { continue };
        let single = own.iter().all(|c| c.orientation == first.orientation);
        let other_after = all[before..]
            .iter()
            .any(|c| c.orientation != first.orientation);
        if single && other_after && nc.electrical_idx != choice[i] {
            let mut next = choice.to_vec();
            next[i] = nc.electrical_idx;
            return (next, first.orientation);
        }
    }
    panic!("fixture has no net that feeds one orientation ahead of the other");
}

/// The reuse identity gate: over a selection pair that differs in one
/// orientation, planning with the first plan's reuse record must equal
/// planning from scratch — the plan field by field and its
/// fingerprint — at 1, 2 and 8 threads, with exactly one orientation
/// reused. Reports the best wall time of both and the reused
/// orientation's share of the second selection's connections.
fn bench_reuse(
    name: &str,
    candidates: &[NetCandidates],
    choice: &[usize],
    lib: &operon_optics::OpticalLib,
) -> Value {
    let (next, changed) = one_orientation_change(candidates, choice);
    let plan = |choice: &[usize], prev, exec: &Executor| {
        wdm::plan(candidates, choice, lib, prev, exec).expect("plan feasible")
    };
    for threads in THREADS {
        let exec = Executor::new(threads);
        let (_, prev) = plan(choice, None, &exec);
        let (warm, _) = plan(&next, Some(prev), &exec);
        let (cold, _) = plan(&next, None, &exec);
        let at = format!("{name}: reuse at {threads} threads");
        assert_eq!(warm.connections, cold.connections, "{at}: connections");
        assert_eq!(
            warm.initial_count, cold.initial_count,
            "{at}: initial count"
        );
        assert_eq!(warm.wdms, cold.wdms, "{at}: waveguides");
        assert_eq!(
            warm.fingerprint(),
            cold.fingerprint(),
            "{at}: plan fingerprint"
        );
        assert_eq!(
            warm.stats.orientations_reused, 1,
            "{at}: one orientation reused"
        );
    }

    // Both arms consume the first plan's reuse record inside the
    // timer, as a session's ECO does: reuse drops the stale orientation
    // and takes the other over, replan drops both. Each arm's result is
    // dropped outside it.
    let exec = Executor::sequential();
    let (mut reuse_ms, mut replan_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ITERS {
        let (_, prev) = plan(choice, None, &exec);
        let sw = Stopwatch::start();
        let reused = plan(&next, Some(prev), &exec);
        reuse_ms = reuse_ms.min(sw.elapsed().as_secs_f64() * 1e3);
        drop(reused);
        let (_, prev) = plan(choice, None, &exec);
        let sw = Stopwatch::start();
        drop(prev);
        let replanned = plan(&next, None, &exec);
        replan_ms = replan_ms.min(sw.elapsed().as_secs_f64() * 1e3);
        drop(replanned);
    }
    let connections = wdm::extract_connections(candidates, &next);
    let reused = connections
        .iter()
        .filter(|c| c.orientation != changed)
        .count();
    let share = reused as f64 / connections.len() as f64;
    println!(
        "wdm {name}: one-orientation change, reuse {reuse_ms:.3} ms vs \
         replan {replan_ms:.3} ms, reused orientation holds {reused} of \
         {} connections",
        connections.len()
    );
    Value::object(vec![
        ("orientations_reused", Value::from(1u64)),
        ("reused_connection_share", Value::from(share)),
        ("reuse_best_ms", Value::from(reuse_ms)),
        ("replan_best_ms", Value::from(replan_ms)),
    ])
}
