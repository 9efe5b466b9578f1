//! Regenerates the paper's **Fig. 9**: normalized power hotspot maps of
//! the I2 benchmark, optical and electrical layer, GLOW vs OPERON.
//!
//! The paper's observations to verify:
//! (a)/(c) — the *optical* maps of GLOW and OPERON are distributed very
//! similarly (both dominated by the same EO/OE conversion sites);
//! (b)/(d) — OPERON's *electrical* map is visibly cooler than GLOW's.
//!
//! ```text
//! cargo run -p operon-bench --release --bin fig9
//! ```

use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::report::power_maps;
use operon_bench::instance;
use operon_exec::Executor;
use operon_netlist::synth::paper_benchmark;

fn main() {
    let synth = paper_benchmark("I2").expect("I2 exists");
    let design = instance(&synth);
    let config = OperonConfig::default();
    let flow = OperonFlow::new(config.clone());

    let operon_result = flow.run(&design).expect("flow");
    let glow = flow.run_glow(&design).expect("glow");

    let cells = 48;
    let glow_maps = power_maps(
        design.die(),
        cells,
        &glow.nets,
        &glow.selection.choice,
        &config.optical,
        &config.electrical,
    );
    let operon_maps = power_maps(
        design.die(),
        cells,
        &operon_result.candidates,
        &operon_result.selection.choice,
        &config.optical,
        &config.electrical,
    );

    println!(
        "(a) GLOW optical layer — {:.1} mW total",
        glow_maps.optical.total()
    );
    print!("{}", glow_maps.optical.normalized());
    println!(
        "\n(b) GLOW electrical layer — {:.1} mW total",
        glow_maps.electrical.total()
    );
    print!("{}", glow_maps.electrical.normalized());
    println!(
        "\n(c) OPERON optical layer — {:.1} mW total",
        operon_maps.optical.total()
    );
    print!("{}", operon_maps.optical.normalized());
    println!(
        "\n(d) OPERON electrical layer — {:.1} mW total",
        operon_maps.electrical.total()
    );
    print!("{}", operon_maps.electrical.normalized());

    // Quantify the two observations.
    let optical_sim = map_correlation(&glow_maps.optical, &operon_maps.optical);
    println!("\noptical-map correlation GLOW vs OPERON: {optical_sim:.2} (paper: 'very similar')");
    println!(
        "electrical-layer power: GLOW {:.1} mW vs OPERON {:.1} mW",
        glow_maps.electrical.total(),
        operon_maps.electrical.total()
    );

    // The physically decisive difference the maps cannot show: GLOW's
    // split-blind feasibility check leaves optical links whose *true*
    // loss (with splitting) violates the detection budget — the
    // "potential malfunction" the paper's introduction warns about.
    let resolved = config.resolved_for(glow.nets.iter().map(|n| n.bits));
    let glow_crossings = operon::CrossingIndex::build_with(&glow.nets, &Executor::sequential());
    let mut undetectable = 0usize;
    let mut glow_optical = 0usize;
    for (i, nc) in glow.nets.iter().enumerate() {
        if glow.selection.choice[i] == nc.electrical_idx {
            continue;
        }
        glow_optical += 1;
        let loads = operon::formulation::loaded_path_losses(
            &glow.nets,
            &glow_crossings,
            &glow.selection.choice,
            i,
            &resolved.optical,
        );
        if loads
            .into_iter()
            .any(|l| l > resolved.optical.max_loss_db + 1e-9)
        {
            undetectable += 1;
        }
    }
    println!(
        "GLOW optical links violating the true detection budget: {undetectable}/{glow_optical}"
    );
    println!("OPERON optical links violating the budget: 0 (feasible by construction)");
}

/// Pearson correlation between two equally-sized grids.
fn map_correlation(a: &operon_geom::Grid, b: &operon_geom::Grid) -> f64 {
    let av: Vec<f64> = a.iter().map(|(_, v)| v).collect();
    let bv: Vec<f64> = b.iter().map(|(_, v)| v).collect();
    assert_eq!(av.len(), bv.len());
    let n = av.len() as f64;
    let (ma, mb) = (av.iter().sum::<f64>() / n, bv.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in av.iter().zip(&bv) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}
