//! Per-stage benches of the OPERON flow: clustering, co-design candidate
//! generation, crossing-index construction, and the WDM stage — plus a
//! sequential-vs-parallel comparison of the whole flow on the
//! `operon-exec` executor, recorded to `BENCH_exec.json` at the repo
//! root.

use criterion::{criterion_group, criterion_main, Criterion};
use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::wdm;
use operon::CrossingIndex;
use operon_cluster::{build_hyper_nets, HyperNet};
use operon_exec::json::Value;
use operon_exec::Executor;
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::Design;
use std::time::Instant;

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

/// Times the full flow sequentially and on 2/8 executor workers, checks
/// the results are bit-identical, and writes the measured speedups to
/// `BENCH_exec.json` in the repository root.
fn bench_exec_flow(_c: &mut Criterion) {
    const ITERS: u32 = 3;
    let design = design();
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let mut runs: Vec<Value> = Vec::new();
    let mut walls_ms: Vec<f64> = Vec::new();
    let mut baseline: Option<(Vec<usize>, u64)> = None;
    let mut identical = true;
    for threads in [1usize, 2, 8] {
        let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..ITERS {
            let t = Instant::now();
            result = Some(flow.run(&design).expect("flow succeeds"));
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let result = result.expect("at least one iteration");
        let fingerprint = (
            result.selection.choice.clone(),
            result.total_power_mw().to_bits(),
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(b) => identical &= *b == fingerprint,
        }
        println!("flow_medium threads={threads}: best of {ITERS} = {best:.1} ms");
        walls_ms.push(best);
        runs.push(Value::object(vec![
            ("threads", Value::from(threads)),
            ("best_wall_ms", Value::from(best)),
        ]));
    }
    assert!(identical, "parallel flow diverged from sequential results");

    let report = Value::object(vec![
        ("benchmark", Value::from("flow_medium_seed3")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("runs", Value::Array(runs)),
        ("speedup_2_vs_1", Value::from(walls_ms[0] / walls_ms[1])),
        ("speedup_8_vs_1", Value::from(walls_ms[0] / walls_ms[2])),
        ("identical_results", Value::from(identical)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_exec.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_stages, bench_exec_flow);
criterion_main!(benches);
