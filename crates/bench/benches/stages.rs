//! Per-stage benches of the OPERON flow: clustering, co-design candidate
//! generation, crossing-index construction, and the WDM stage. The
//! executor's 1-vs-2-worker record, `BENCH_exec.json`, is written by the
//! `exec_bench` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::wdm;
use operon::CrossingIndex;
use operon_cluster::{build_hyper_nets, HyperNet};
use operon_exec::Executor;
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::Design;

fn design() -> Design {
    generate(&SynthConfig::medium(), 3)
}

fn bench_stages(c: &mut Criterion) {
    let design = design();
    let base = OperonConfig::default();

    c.bench_function("stage_clustering_400bits", |b| {
        b.iter(|| build_hyper_nets(&design, &base.cluster))
    });

    let nets: Vec<HyperNet> = build_hyper_nets(&design, &base.cluster);
    let config = base.resolved_for(nets.iter().map(|n| n.bit_count()));

    c.bench_function("stage_codesign_400bits", |b| {
        b.iter(|| {
            nets.iter()
                .enumerate()
                .map(|(i, n)| generate_candidates(n, i, &config))
                .collect::<Vec<_>>()
        })
    });

    let candidates: Vec<NetCandidates> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| generate_candidates(n, i, &config))
        .collect();

    let exec = Executor::sequential();
    c.bench_function("stage_crossing_index_400bits", |b| {
        b.iter(|| CrossingIndex::build_with(&candidates, &exec))
    });

    let crossings = CrossingIndex::build_with(&candidates, &exec);
    let selection = operon::lr::select_lr(
        &candidates,
        &crossings,
        &config,
        &exec,
        &mut operon::lr::LrWorkspace::new(),
    );

    let mut group = c.benchmark_group("stage_wdm");
    group.sample_size(10);
    group.bench_function("wdm_400bits", |b| {
        b.iter(|| {
            wdm::plan(&candidates, &selection.choice, &config.optical, None, &exec)
                .expect("feasible")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
