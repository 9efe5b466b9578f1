//! Ablation study over OPERON's design choices, run on the I1 substitute:
//!
//! * **crossing sharing** — charging crossing loss per physical waveguide
//!   (the WDM-sharing discount) vs per logical net pair,
//! * **topology family size** — BI1S-only vs the full baseline family,
//! * **candidate budget** — how many co-design candidates per net the
//!   selection may choose from,
//! * **LR iterations** — one pricing round vs the paper's ten.
//!
//! ```text
//! cargo run -p operon-bench --release --bin ablation
//! ```

use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon_bench::instance;
use operon_netlist::synth::paper_benchmark;

struct Variant {
    label: &'static str,
    config: OperonConfig,
}

fn main() {
    let synth = paper_benchmark("I1").expect("I1 exists");
    let design = instance(&synth);

    let base = OperonConfig::default();
    let variants = vec![
        Variant {
            label: "baseline (paper settings)",
            config: base.clone(),
        },
        Variant {
            label: "no crossing sharing",
            config: OperonConfig {
                auto_crossing_sharing: false,
                ..base.clone()
            },
        },
        Variant {
            label: "RSMT topology only",
            config: OperonConfig {
                max_topologies: 1,
                ..base.clone()
            },
        },
        Variant {
            label: "2 candidates per net",
            config: OperonConfig {
                max_candidates: 2,
                ..base.clone()
            },
        },
        Variant {
            label: "single LR iteration",
            config: OperonConfig {
                lr_max_iters: 1,
                ..base.clone()
            },
        },
    ];

    println!(
        "{:<28} {:>11} {:>9} {:>9} {:>8} {:>8}",
        "variant", "power(mW)", "optical", "electr.", "WDMs", "CPU(s)"
    );
    let mut baseline_power = None;
    for v in variants {
        let result = OperonFlow::new(v.config).run(&design).expect("flow");
        let power = result.total_power_mw();
        let delta = match baseline_power {
            None => {
                baseline_power = Some(power);
                String::new()
            }
            Some(base) => format!("  ({:+.1}%)", 100.0 * (power - base) / base),
        };
        println!(
            "{:<28} {:>11.1} {:>9} {:>9} {:>8} {:>8.1}{delta}",
            v.label,
            power,
            result.optical_net_count(),
            result.electrical_net_count(),
            result.wdm.final_count(),
            result.selection.elapsed.as_secs_f64(),
        );
    }
    println!("\n(positive deltas = the ablated variant costs more power; the");
    println!(" no-sharing variant shows crossing loss charged per logical net");
    println!(" pair pushing nets off the optical layer)");
}
