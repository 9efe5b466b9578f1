//! End-to-end integration tests spanning every crate: benchmark
//! generation -> clustering -> co-design -> selection -> WDM assignment.

use operon::config::{OperonConfig, Selector};
use operon::flow::OperonFlow;
use operon::formulation::{loaded_path_losses, selection_feasible};
use operon::CrossingIndex;
use operon_exec::Executor;
use operon_netlist::synth::{generate, SynthConfig};

fn small() -> operon_netlist::Design {
    generate(&SynthConfig::small(), 7)
}

fn medium() -> operon_netlist::Design {
    generate(&SynthConfig::medium(), 7)
}

#[test]
fn lr_flow_produces_consistent_result() {
    let design = medium();
    let config = OperonConfig::default();
    let result = OperonFlow::new(config.clone()).run(&design).expect("flow");

    // One choice per hyper net, every choice in range.
    assert_eq!(result.selection.choice.len(), result.candidates.len());
    for (nc, &j) in result.candidates.iter().zip(&result.selection.choice) {
        assert!(j < nc.candidates.len());
    }
    // Bit conservation: hyper nets partition the design's bits.
    let total_bits: usize = result.hyper_nets.iter().map(|n| n.bit_count()).sum();
    assert_eq!(total_bits, design.bit_count());
    // Reported power equals the recomputed selection power.
    let recomputed =
        operon::formulation::selection_power_mw(&result.candidates, &result.selection.choice);
    assert!((recomputed - result.total_power_mw()).abs() < 1e-9);
}

#[test]
fn final_selection_meets_detection_constraints() {
    let design = medium();
    let config = OperonConfig::default();
    let result = OperonFlow::new(config.clone()).run(&design).expect("flow");
    // Rebuild the crossing index and verify every loaded path fits the
    // budget under the instance-resolved sharing factor.
    let resolved = config.resolved_for(result.hyper_nets.iter().map(|n| n.bit_count()));
    let crossings = CrossingIndex::build_with(&result.candidates, &Executor::sequential());
    assert!(selection_feasible(
        &result.candidates,
        &crossings,
        &result.selection.choice,
        &resolved.optical
    ));
    for i in 0..result.candidates.len() {
        for load in loaded_path_losses(
            &result.candidates,
            &crossings,
            &result.selection.choice,
            i,
            &resolved.optical,
        ) {
            assert!(load <= resolved.optical.max_loss_db + 1e-9);
        }
    }
}

#[test]
fn crossing_index_stays_within_40_bytes_per_pair() {
    // Every arena counts: rows, shape words, wide records, candidate
    // ids and the neighbor CSR.
    let design = generate(&SynthConfig::medium(), 3);
    let result = OperonFlow::new(OperonConfig::default())
        .run(&design)
        .expect("flow");
    let crossings = CrossingIndex::build_with(&result.candidates, &Executor::sequential());
    assert!(crossings.len() > 100, "the fixture must have crossings");
    let per_pair = crossings.heap_bytes() as f64 / crossings.len() as f64;
    assert!(per_pair <= 40.0, "{per_pair:.1} B per crossing pair");
}

#[test]
fn wdm_stage_invariants() {
    let design = medium();
    let config = OperonConfig::default();
    let result = OperonFlow::new(config.clone()).run(&design).expect("flow");

    let plan = &result.wdm;
    assert!(plan.final_count() <= plan.initial_count);

    // Channel conservation: every connection's bits are fully assigned.
    let mut assigned = vec![0usize; plan.connections.len()];
    for w in &plan.wdms {
        let mut used = 0;
        for &(c, b) in &w.assigned {
            assigned[c] += b;
            used += b;
        }
        assert!(used <= config.optical.wdm_capacity, "overfull WDM");
        assert!(used > 0, "idle WDM not removed");
    }
    for (c, conn) in plan.connections.iter().enumerate() {
        assert_eq!(assigned[c], conn.bits, "connection {c} not fully carried");
    }
}

#[test]
fn ilp_and_lr_agree_on_tiny_designs() {
    let design = small();
    let lr = OperonFlow::new(OperonConfig::default())
        .run(&design)
        .expect("LR flow");
    let config = OperonConfig {
        selector: Selector::Ilp {
            time_limit_secs: 60,
        },
        ..OperonConfig::default()
    };
    let ilp = OperonFlow::new(config).run(&design).expect("ILP flow");
    // The ILP is warm-started with LR, so it can only match or improve.
    assert!(ilp.total_power_mw() <= lr.total_power_mw() + 1e-6);
}

#[test]
fn paper_ordering_holds_on_medium_designs() {
    // Electrical > GLOW >= OPERON — the Table 1 ordering — across seeds.
    for seed in [1u64, 5, 9] {
        let design = generate(&SynthConfig::medium(), seed);
        let config = OperonConfig::default();
        let flow = OperonFlow::new(config.clone());
        let operon_power = flow.run(&design).expect("flow").total_power_mw();
        let glow_power = flow.run_glow(&design).expect("glow").selection.power_mw;
        let electrical = operon::baselines::electrical_power_mw(&design, &config.electrical);
        assert!(
            glow_power < electrical,
            "seed {seed}: GLOW {glow_power} !< electrical {electrical}"
        );
        assert!(
            operon_power <= glow_power * 1.02 + 1e-6,
            "seed {seed}: OPERON {operon_power} vs GLOW {glow_power}"
        );
    }
}

#[test]
fn flow_round_trips_through_design_io() {
    // Serialize the design, parse it back, and verify the flow result is
    // identical — the interchange format carries everything that matters.
    let design = small();
    let text = operon_netlist::io::write_design(&design);
    let back = operon_netlist::io::read_design(&text).expect("parse");
    assert_eq!(design, back);
    let flow = OperonFlow::new(OperonConfig::default());
    let a = flow.run(&design).expect("flow a");
    let b = flow.run(&back).expect("flow b");
    assert_eq!(a.selection.choice, b.selection.choice);
    assert_eq!(a.total_power_mw(), b.total_power_mw());
}

#[test]
fn facade_reexports_work() {
    // The workspace facade exposes the member crates.
    let p = operon_repro::geom::Point::new(1, 2);
    assert_eq!(p.manhattan(operon_repro::geom::Point::origin()), 3);
    let d = operon_repro::netlist::synth::generate(
        &operon_repro::netlist::synth::SynthConfig::small(),
        1,
    );
    assert!(d.bit_count() > 0);
}
