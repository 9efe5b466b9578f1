//! Criterion bench behind Table 1's CPU columns: the LR speed-up vs the
//! exact ILP on identical selection instances.
//!
//! The paper's shape: LR is orders of magnitude faster at a few percent
//! power penalty. (The ILP bench uses a down-scaled instance so a single
//! sample stays in the seconds range.)

use criterion::{criterion_group, criterion_main, Criterion};
use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::formulation::select_ilp;
use operon::lr::{select_lr, LrWorkspace};
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::Executor;
use operon_netlist::synth::{generate, SynthConfig};
use std::time::Duration;

/// A selection instance: candidates plus crossing index. `contested`
/// tightens the loss budget and disables the WDM-sharing discount so the
/// detection constraints genuinely bind (otherwise presolve makes the
/// exact solve trivial).
fn selection_instance(
    bits: usize,
    seed: u64,
    contested: bool,
) -> (Vec<NetCandidates>, CrossingIndex, OperonConfig) {
    let mut synth = SynthConfig::medium();
    synth.target_bits = bits;
    if contested {
        synth.bits_per_group = (1, 4);
    }
    let design = generate(&synth, seed);
    let mut base = OperonConfig::default();
    if contested {
        base.auto_crossing_sharing = false;
        base.optical.max_loss_db = 12.0;
    }
    let nets = build_hyper_nets(&design, &base.cluster);
    let config = base.resolved_for(nets.iter().map(|n| n.bit_count()));
    let candidates: Vec<NetCandidates> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| generate_candidates(n, i, &config))
        .collect();
    let crossings = CrossingIndex::build_with(&candidates, &Executor::sequential());
    (candidates, crossings, config)
}

fn bench_selectors(c: &mut Criterion) {
    let (nets, crossings, config) = selection_instance(600, 1, true);

    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    group.bench_function("lr_600bits_contested", |b| {
        b.iter(|| {
            select_lr(
                &nets,
                &crossings,
                &config,
                &Executor::sequential(),
                &mut LrWorkspace::new(),
            )
        })
    });
    group.bench_function("ilp_600bits_contested_5s_budget", |b| {
        b.iter(|| {
            select_ilp(
                &nets,
                &crossings,
                &config.optical,
                Duration::from_secs(5),
                None,
            )
            .expect("solvable")
        })
    });
    group.finish();

    // LR scaling across instance sizes (paper-default physics).
    let mut group = c.benchmark_group("lr_scaling");
    group.sample_size(10);
    for bits in [100usize, 400, 800] {
        let (nets, crossings, config) = selection_instance(bits, 2, false);
        group.bench_function(format!("lr_{bits}bits"), |b| {
            b.iter(|| {
                select_lr(
                    &nets,
                    &crossings,
                    &config,
                    &Executor::sequential(),
                    &mut LrWorkspace::new(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
