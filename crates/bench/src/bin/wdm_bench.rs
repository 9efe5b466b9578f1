//! Measures the WDM planner: warm deletion trials against the all-cold
//! reference, and orientation reuse against replanning. Writes
//! `BENCH_wdm.json` at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin wdm_bench
//! cargo run -p operon-bench --release --bin wdm_bench -- --smoke
//! ```
//!
//! Two measurements:
//!
//! 1. **Warm vs cold WDM planning** on synthesized designs: wall time
//!    of `wdm::plan` against the retained `wdm::plan_cold_reference`,
//!    with plans asserted byte-identical at 1, 2 and 8 threads and zero
//!    networks cloned (both asserted). Warm trials are plain max-flow
//!    checks on the committed network (`McmfGraph::can_divert`).
//!    On the I2-class fixture the warm planner must beat the cold
//!    reference in wall time (asserted). The 2k-bit die fixture must
//!    split into at least two assignment components (asserted), so the
//!    identity covers the per-component plan and its merge. Each
//!    fixture's plan fingerprint must equal the one pinned in the
//!    committed `BENCH_wdm.json` (asserted, read at run time): the
//!    planner and its cold reference share the MCMF kernel, so only the
//!    pin sees a kernel change that moves a tie-break.
//! 2. **Orientation reuse** on the same fixtures: a second selection
//!    sends one net electrical, which changes one orientation and shifts
//!    the other's connection indices. Planning it with the first plan's
//!    reuse record must equal planning it from scratch — plan field by
//!    field and [`wdm::WdmPlan::fingerprint`] — at 1, 2 and 8 threads, with
//!    exactly one orientation reused (asserted). Reports both wall
//!    times, each arm timing the same work: it consumes the first plan's
//!    reuse record and plans the second selection. The arms alternate
//!    which runs first. Also reports the reused orientation's share of
//!    the second selection's connections.
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
use operon_netlist::synth::{generate, SynthConfig};

const ITERS: u32 = 3;
const THREADS: [usize; 3] = [1, 2, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let pins = pinned_plan_fingerprints();
    let plans = bench_plans(smoke, &pins);

    if smoke {
        println!("wdm_bench --smoke: all identity checks and plan pins passed");
        return;
    }

    let report = Value::object(vec![
        ("benchmark", Value::from("wdm_plan")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("wdm_plan", Value::Array(plans)),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wdm.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_wdm.json");
    println!("wrote {path}");
}

// ---------------------------------------------------------------------------
// 1. Warm vs cold WDM planning, end to end
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
        // reference.
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
        let reuse = bench_reuse(name, &candidates, &choice.choice, &config.optical);
        if must_beat_cold {
            assert!(
                warm_ms < cold_ms,
                "{name}: warm planning must beat the cold \
                 reference ({warm_ms:.2} ms vs {cold_ms:.2} ms)"
            );
        }

        println!(
            "wdm {name}: {w} waveguides in {c} components, cold {cold_ms:.2} \
             ms vs warm {warm_ms:.2} ms, {trials} warm trials, 0 clones",
            w = warm_plan.wdms.len(),
            c = stats.components,
            trials = stats.warm_trials,
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
    // dropped outside it. The arms take turns running first, so neither
    // always runs on a cache the other warmed.
    let exec = Executor::sequential();
    let time_arm = |reuse: bool| {
        let (_, prev) = plan(choice, None, &exec);
        let sw = Stopwatch::start();
        let prev = if reuse {
            Some(prev)
        } else {
            drop(prev);
            None
        };
        let planned = plan(&next, prev, &exec);
        let ms = sw.elapsed().as_secs_f64() * 1e3;
        drop(planned);
        ms
    };
    let (mut reuse_ms, mut replan_ms) = (f64::INFINITY, f64::INFINITY);
    for i in 0..2 * ITERS {
        let reuse_first = i % 2 == 0;
        for reuse in [reuse_first, !reuse_first] {
            let best = if reuse { &mut reuse_ms } else { &mut replan_ms };
            *best = best.min(time_arm(reuse));
        }
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
