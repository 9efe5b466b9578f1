//! Cross-thread-count determinism of the full flow.
//!
//! The `operon-exec` contract says parallelism never changes results —
//! only which worker computes them. These tests pin that down end to end:
//! the same seeded benchmark routed with 1, 2, and 8 workers must produce
//! bit-identical total power, the same per-net candidate choices, the
//! same LR work counters, and the same WDM plan.

use operon::config::{OperonConfig, Selector};
use operon::flow::{FlowResult, OperonFlow};
use operon::session::WarmSession;
use operon::CrossingIndex;
use operon_exec::Executor;
use operon_geom::{BoundingBox, Point};
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
use proptest::prelude::*;

fn run_with_threads(threads: usize, config: &OperonConfig, seed: u64) -> FlowResult {
    let design = generate(&SynthConfig::small(), seed);
    OperonFlow::new(config.clone())
        .with_threads(threads)
        .run(&design)
        .expect("flow succeeds")
}

fn assert_identical(a: &FlowResult, b: &FlowResult, label: &str) {
    assert_eq!(a.selection.choice, b.selection.choice, "{label}: choices");
    assert_eq!(
        a.total_power_mw().to_bits(),
        b.total_power_mw().to_bits(),
        "{label}: power bits ({} vs {})",
        a.total_power_mw(),
        b.total_power_mw()
    );
    assert_eq!(
        a.selection.lr_stats, b.selection.lr_stats,
        "{label}: LR stats"
    );
    assert_eq!(
        a.wdm.connections, b.wdm.connections,
        "{label}: wdm connections"
    );
    assert_eq!(
        a.wdm.initial_count, b.wdm.initial_count,
        "{label}: initial wdm count"
    );
    assert_eq!(
        a.wdm.final_count(),
        b.wdm.final_count(),
        "{label}: final wdm count"
    );
    assert_eq!(a.wdm.wdms, b.wdm.wdms, "{label}: wdm assignments");
    assert_eq!(a.hyper_nets, b.hyper_nets, "{label}: hyper nets");
}

#[test]
fn lr_flow_is_bit_identical_across_thread_counts() {
    for seed in [21, 1718] {
        let config = OperonConfig::default();
        let one = run_with_threads(1, &config, seed);
        for threads in [2, 8] {
            let many = run_with_threads(threads, &config, seed);
            assert_identical(&one, &many, &format!("seed {seed}, threads {threads}"));
        }
    }
}

/// Runs `design` at threads {1, 2, 8} and checks each plan against a
/// first run at one thread.
fn assert_thread_identical(design: &Design, label: &str) {
    let run = |threads: usize| {
        OperonFlow::new(OperonConfig::default())
            .with_threads(threads)
            .run(design)
            .expect("flow succeeds")
    };
    let reference = run(1);
    for threads in [1, 2, 8] {
        assert_identical(
            &reference,
            &run(threads),
            &format!("{label}, threads {threads}"),
        );
    }
}

#[test]
fn medium_fixture_is_bit_identical_across_thread_counts() {
    let design = generate(&SynthConfig::medium(), 5);
    assert_thread_identical(&design, "medium seed 5");
}

/// A random soup of buses on a 2 cm die: a mix of long (optical-capable)
/// and short (electrical-only) runs at arbitrary positions.
fn arb_design() -> impl Strategy<Value = Design> {
    let bus = (
        0i64..12_000,
        0i64..12_000,
        proptest::collection::vec((-7_900i64..7_900, -7_900i64..7_900), 1..3),
        1usize..5,
    );
    proptest::collection::vec(bus, 2..10).prop_map(|buses| {
        let die = BoundingBox::new(Point::new(0, 0), Point::new(19_999, 19_999));
        let mut d = Design::new("soup", die);
        for (g, (x, y, sinks, bits)) in buses.into_iter().enumerate() {
            let clamp = |v: i64| v.clamp(0, 19_950);
            let group_bits = (0..bits)
                .map(|i| {
                    let off = 10 * i as i64;
                    Bit::new(
                        BitId::new(i as u32),
                        Point::new(clamp(x), clamp(y + off)),
                        sinks
                            .iter()
                            .map(|&(dx, dy)| Point::new(clamp(x + dx), clamp(y + dy + off)))
                            .collect(),
                    )
                })
                .collect();
            d.push_group(SignalGroup::new(
                GroupId::new(g as u32),
                format!("b{g}"),
                group_bits,
            ));
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_designs_are_bit_identical_across_thread_counts(design in arb_design()) {
        assert_thread_identical(&design, "random bus soup");
    }
}

#[test]
fn ilp_flow_is_bit_identical_across_thread_counts() {
    let config = OperonConfig {
        selector: Selector::Ilp {
            time_limit_secs: 30,
        },
        ..OperonConfig::default()
    };
    let one = run_with_threads(1, &config, 21);
    let eight = run_with_threads(8, &config, 21);
    assert_identical(&one, &eight, "ilp threads 8");

    // The tightened loss budget makes crossing constraints bind, so the
    // solver genuinely branches instead of presolving everything away.
    // Every thread count must reproduce the same flow result and the
    // same explored tree (this also pins the WDM stage, which plans its
    // two orientations as parallel tasks inside every flow).
    let mut binding = config;
    binding.optical.max_loss_db = 4.0;
    let one = run_with_threads(1, &binding, 42);
    let searched = one.selection.ilp_stats.expect("ILP path carries stats");
    assert!(searched.nodes_explored > 0, "solver must really search");
    for threads in [2, 8] {
        let many = run_with_threads(threads, &binding, 42);
        assert_identical(&one, &many, &format!("binding ilp, threads {threads}"));
        assert_eq!(
            many.selection.ilp_stats,
            Some(searched),
            "threads {threads}: explored tree"
        );
    }
}

#[test]
fn ilp_flow_surfaces_search_counters_in_the_run_report() {
    let mut config = OperonConfig {
        selector: Selector::Ilp {
            time_limit_secs: 30,
        },
        ..OperonConfig::default()
    };
    // Tighten the loss budget so crossing constraints bind and the exact
    // solver really searches (at the default budget the presolve removes
    // every constraint and no ILP runs).
    config.optical.max_loss_db = 4.0;
    let design = generate(&SynthConfig::small(), 42);
    let flow = OperonFlow::new(config).with_threads(2);
    let result = flow.run(&design).expect("flow succeeds");
    let stats = result.selection.ilp_stats.expect("ILP path carries stats");
    assert!(stats.nodes_explored > 0);
    assert!(stats.lp_solves > 0);

    let report = flow.executor().report();
    let selection = report
        .stages
        .iter()
        .find(|s| s.name == "selection")
        .expect("selection stage recorded");
    let counter = |key: &str| {
        selection
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {key} missing"))
    };
    assert_eq!(counter("ilp_nodes"), stats.nodes_explored as u64);
    assert_eq!(counter("ilp_lp_solves"), stats.lp_solves as u64);
    assert_eq!(
        counter("ilp_incumbent_updates"),
        stats.incumbent_updates as u64
    );
    assert_eq!(counter("ilp_simplex_iterations"), stats.simplex_iterations);

    // The ILP warm start runs the LR pricing loop; its work counters
    // ride along in the same stage record. Every iteration prices every
    // net and evaluates every net's loaded losses.
    let lr = result.selection.lr_stats.expect("warm start carries stats");
    assert_eq!(counter("lr_iterations"), lr.iterations);
    assert_eq!(counter("lr_priced_nets"), lr.priced_nets);
    assert_eq!(counter("lr_load_evals"), lr.load_evals);
    assert!(lr.iterations > 0);
    assert_eq!(
        lr.priced_nets,
        lr.iterations * result.candidates.len() as u64
    );
    assert_eq!(lr.load_evals, lr.priced_nets);

    // The WDM stage surfaces its warm/cold solver counters too.
    let wdm_stage = report
        .stages
        .iter()
        .find(|s| s.name == "wdm")
        .expect("wdm stage recorded");
    let wdm_counter = |key: &str| {
        wdm_stage
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("counter {key} missing"))
    };
    assert_eq!(wdm_counter("wdm_cold_solves"), result.wdm.stats.cold_solves);
    assert_eq!(wdm_counter("wdm_warm_trials"), result.wdm.stats.warm_trials);
    assert_eq!(
        wdm_counter("wdm_dijkstra_passes"),
        result.wdm.stats.mcmf.dijkstra_passes
    );
    assert_eq!(
        wdm_counter("wdm_networks_cloned"),
        result.wdm.stats.mcmf.networks_cloned
    );
    assert_eq!(
        result.wdm.stats.mcmf.networks_cloned, 0,
        "warm trials never copy the committed network"
    );
    assert!(result.wdm.stats.cold_solves > 0);

    let json = report.to_json();
    assert!(json.contains("\"ilp_nodes\""));
    assert!(json.contains("\"lr_iterations\""));
    assert!(json.contains("\"wdm_dijkstra_passes\""));
    assert!(!json.contains("waves"), "the search runs no waves");
}

#[test]
fn wdm_arcs_scanned_is_identical_across_thread_counts() {
    // The MCMF kernel's arc-scan count is a work counter that repeats
    // exactly: canonical for the sequential reduction order at every
    // thread count, and surfaced as the `wdm_arcs_scanned` stage counter.
    let design = generate(&SynthConfig::small(), 21);
    let scanned = |threads: usize| {
        let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
        let result = flow.run(&design).expect("flow succeeds");
        let report = flow.executor().report();
        let wdm = report
            .stages
            .iter()
            .find(|s| s.name == "wdm")
            .expect("wdm stage recorded");
        let counter = wdm
            .counters
            .iter()
            .find(|(k, _)| k == "wdm_arcs_scanned")
            .map(|&(_, v)| v)
            .expect("wdm_arcs_scanned recorded");
        assert_eq!(counter, result.wdm.stats.mcmf.arcs_scanned);
        counter
    };
    let base = scanned(1);
    assert!(base > 0, "the WDM stage must scan arcs");
    for threads in [2, 8] {
        assert_eq!(scanned(threads), base, "threads={threads}");
    }
}

#[test]
fn wdm_components_run_one_task_each_and_stats_are_thread_invariant() {
    // The WDM stage plans each independent assignment component as one
    // coarse task: at two workers or more the stage's task count is the
    // component count. A medium die with 1,600 bits holds enough
    // component-map work to run on the workers, where the 400-bit one
    // plans inline. Every WDM counter repeats at every thread count.
    let config = SynthConfig {
        target_bits: 1_600,
        ..SynthConfig::medium()
    };
    let design = generate(&config, 3);
    let run = |threads: usize| {
        let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
        let result = flow.run(&design).expect("flow succeeds");
        let report = flow.executor().report();
        let wdm = report
            .stages
            .iter()
            .find(|s| s.name == "wdm")
            .expect("wdm stage recorded");
        let counter = wdm
            .counters
            .iter()
            .find(|(k, _)| k == "wdm_components")
            .map(|&(_, v)| v)
            .expect("wdm_components recorded");
        assert_eq!(counter, result.wdm.stats.components);
        (result.wdm.stats, result.wdm.wdms, wdm.tasks)
    };
    let (base, wdms, tasks) = run(1);
    assert!(base.components >= 2, "{base:?}");
    assert!(
        base.parallel,
        "the component map runs on the workers: {base:?}"
    );
    assert_eq!(tasks, 0, "one worker plans every component inline");
    for threads in [2, 8] {
        let (stats, plan, tasks) = run(threads);
        assert_eq!(stats, base, "threads={threads}");
        assert_eq!(plan, wdms, "threads={threads}");
        assert_eq!(tasks, base.components, "threads={threads}");
    }
}

#[test]
fn map_decisions_are_identical_across_thread_counts() {
    // Whether the LR maps and the WDM component map run on the workers,
    // and the work each choice was made from, follow from the inputs
    // alone: the stage counters equal the result's stats and repeat at
    // every thread count. The 1,600-bit medium die's component map runs
    // on the workers; the smaller fixtures' maps run inline.
    let dense = SynthConfig {
        name: "medium-1600".to_owned(),
        target_bits: 1_600,
        ..SynthConfig::medium()
    };
    for (cfg, seed, wdm_parallel) in [
        (SynthConfig::small(), 21, 0),
        (SynthConfig::medium(), 3, 0),
        (dense, 3, 1),
    ] {
        let design = generate(&cfg, seed);
        let decisions = |threads: usize| {
            let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
            let result = flow.run(&design).expect("flow succeeds");
            let report = flow.executor().report();
            let counter = |stage: &str, name: &str| {
                report
                    .stages
                    .iter()
                    .find(|s| s.name == stage)
                    .and_then(|s| s.counters.iter().find(|(k, _)| k == name))
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("{stage}.{name} recorded"))
            };
            let lr = result.selection.lr_stats.expect("LR stats");
            let wdm = result.wdm.stats;
            let counters = [
                counter("selection", "lr_parallel"),
                counter("selection", "lr_map_work"),
                counter("wdm", "wdm_parallel"),
                counter("wdm", "wdm_work"),
            ];
            assert_eq!(
                counters,
                [
                    u64::from(lr.parallel),
                    lr.map_work,
                    u64::from(wdm.parallel),
                    wdm.map_work
                ],
                "{} threads={threads}",
                cfg.name
            );
            counters
        };
        let base = decisions(1);
        assert!(base[1] > 0 && base[3] > 0, "{}: {base:?}", cfg.name);
        assert_eq!(base[2], wdm_parallel, "{}: {base:?}", cfg.name);
        for threads in [2, 8] {
            assert_eq!(decisions(threads), base, "{} threads={threads}", cfg.name);
        }
    }
}

#[test]
fn crossing_counters_are_identical_across_thread_counts() {
    // Segment crossings, pair tests, distinct segments and crossings, and
    // the index's heap size are functions of the candidate set and the builder, never
    // of how the pair tests were split over workers.
    let design = generate(&SynthConfig::small(), 21);
    let counters = |threads: usize| {
        let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
        let result = flow.run(&design).expect("flow succeeds");
        let report = flow.executor().report();
        let crossing = report
            .stages
            .iter()
            .find(|s| s.name == "crossing")
            .expect("crossing stage recorded");
        let counter = |name: &str| {
            crossing
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{name} recorded"))
        };
        let idx = CrossingIndex::build_with(&result.candidates, flow.executor());
        assert_eq!(counter("crossing_hits"), idx.segment_crossings());
        assert_eq!(
            counter("crossing_index_kib"),
            idx.heap_bytes().div_ceil(1024) as u64
        );
        (
            counter("crossing_hits"),
            counter("crossing_index_kib"),
            counter("crossing_pair_tests"),
            counter("crossing_distinct_segments"),
            counter("crossing_distinct_hits"),
        )
    };
    let base = counters(1);
    assert!(base.0 > 0, "the fixture must have crossings");
    assert!(base.1 > 0, "the index must hold heap memory");
    assert!(base.2 >= base.4, "each distinct crossing takes a test");
    assert!(base.0 >= base.4, "each distinct crossing has owners");
    assert!(base.3 > 0, "the grid must bin segments");
    for threads in [2, 8] {
        assert_eq!(counters(threads), base, "threads={threads}");
    }
}

#[test]
fn parallel_flow_reports_its_stages() {
    // Large enough that stages map over workers: on a small design every
    // map runs inline at two workers.
    let design = generate(&SynthConfig::medium(), 3);
    let flow = OperonFlow::new(OperonConfig::default()).with_threads(2);
    let _ = flow.run(&design).expect("flow succeeds");
    let report = flow.executor().report();
    assert_eq!(report.threads, 2);
    let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["clustering", "codesign", "crossing", "selection", "wdm"]
    );
    assert!(report.total_tasks > 0, "parallel stages executed tasks");
    let json = report.to_json();
    assert!(json.contains("\"codesign\""));
}

#[test]
fn eco_rerun_is_bit_identical_across_thread_counts() {
    let design = generate(&SynthConfig::small(), 21);
    let eco = |exec: Executor| {
        let mut session =
            WarmSession::open(design.clone(), OperonConfig::default(), exec).expect("open");
        session.route().expect("route");
        session.apply_design(design.clone()).expect("eco");
        session.into_result().expect("eco result")
    };
    let eco_seq = eco(Executor::sequential());
    let eco_par = eco(Executor::new(8));
    assert_identical(&eco_seq, &eco_par, "eco threads 8");
}
