//! The WDM sharing scenario of paper Figs. 6–7: three 20-bit connections,
//! capacity-32 waveguides. The greedy sweep needs three WDMs; the min-cost
//! max-flow re-assignment packs the same channels into two.
//!
//! ```text
//! cargo run --release --example wdm_sharing
//! ```

use operon::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
use operon::wdm;
use operon_exec::Executor;
use operon_geom::Point;
use operon_optics::{ElectricalParams, OpticalLib};
use operon_steiner::{NodeKind, RouteTree};

/// A single horizontal optical connection as a one-candidate hyper net.
fn connection(net_index: usize, y: i64, bits: usize) -> NetCandidates {
    let mut tree = RouteTree::new(Point::new(0, y));
    tree.add_child(tree.root(), Point::new(15_000, y), NodeKind::Terminal);
    let cand = analyze_assignment(
        &tree,
        &[EdgeMedium::Optical],
        bits,
        &OpticalLib::paper_defaults(),
        &ElectricalParams::paper_defaults(),
    );
    NetCandidates {
        net_index,
        bits,
        candidates: vec![cand],
        electrical_idx: 0,
        fanout_power_mw: 0.0,
    }
}

fn main() {
    let lib = OpticalLib::paper_defaults();
    // Three 20-bit buses 100 dbu apart (within the dis_u assignment reach).
    let nets: Vec<NetCandidates> = (0..3).map(|k| connection(k, k as i64 * 100, 20)).collect();
    let choice = vec![0usize; nets.len()];

    // A plan from scratch (no previous plan to reuse); the reuse record
    // it also returns is only needed by warm sessions.
    let (plan, _) = wdm::plan(&nets, &choice, &lib, None, &Executor::sequential())
        .expect("demo plan is feasible");
    println!(
        "connections: {} (20 bits each, WDM capacity {})",
        plan.connections.len(),
        lib.wdm_capacity
    );
    println!("after sweep placement : {} WDMs", plan.initial_count);
    println!("after flow assignment : {} WDMs", plan.final_count());
    println!();
    for (i, w) in plan.wdms.iter().enumerate() {
        let detail: Vec<String> = w
            .assigned
            .iter()
            .map(|&(c, b)| format!("conn{c}:{b}ch"))
            .collect();
        println!(
            "  WDM {i} @ y={} : {}/{} channels [{}]",
            w.track,
            w.used(),
            lib.wdm_capacity,
            detail.join(", ")
        );
    }
    println!("\n(the paper's Fig. 6: three connections share two WDMs after");
    println!(" the min-cost max-flow re-assignment — one connection's channels");
    println!(" split across both waveguides, which integral flow permits)");
}
