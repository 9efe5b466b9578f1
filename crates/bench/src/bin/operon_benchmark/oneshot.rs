//! One-shot workloads: cold `OperonFlow::run` routes of synthesized
//! designs (`table1_lr`: the paper suite I1–I5; `die_scale_10k`: one
//! die-scale design).
//!
//! Both passes time `OperonFlow::run` round after round. The traced pass
//! also opens a span around each round and each route, and reads the
//! stage records `OperonFlow::run` writes into its executor's run
//! report: the per-layer numbers and the stage spans under each route
//! come from there, so the traced pass measures the same program.

use crate::layers::{
    self, candidate_count, check_plan, plan_fingerprint, ratio, LayerInputs, OpStages, StageCursor,
};
use crate::report::{peak_rss_mib, Outcome, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{inputs, Pass, Scale, SETUP_REPS};
use operon::config::OperonConfig;
use operon::flow::{FlowResult, OperonFlow};
use operon::CrossingIndex;
use operon_exec::{Executor, Stopwatch};
use operon_netlist::io::{read_design, write_design};
use operon_netlist::synth::{paper_suite, SynthConfig};
use operon_netlist::Design;

/// The designs a one-shot workload routes.
fn configs(workload: &str, scale: Scale) -> Vec<SynthConfig> {
    let i3 = || paper_suite().swap_remove(2);
    match (workload, scale) {
        ("table1_lr", Scale::Full) => paper_suite(),
        ("table1_lr", Scale::Smoke) => vec![i3()],
        ("die_scale_10k", Scale::Full) => vec![SynthConfig::die_scale(10_000)],
        ("die_scale_10k", Scale::Smoke) => vec![SynthConfig::die_scale(2_000)],
        (other, _) => unreachable!("{other} is not a one-shot workload"),
    }
}

/// The set-up a user of the CLI pays: synthesize each design and load it
/// back through the `.sig` text format. Repeated `reps` times; returns
/// the last designs, the per-repetition set-up times (s) and
/// `read_design` times (ms).
pub fn setup(
    configs: &[SynthConfig],
    seed: u64,
    reps: usize,
    tally: &mut Tally,
) -> (Vec<Design>, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut read_ms = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..reps {
        let sw = Stopwatch::start();
        let mut read = 0.0;
        designs.clear();
        for cfg in configs {
            let design = inputs::design(cfg, seed);
            let text = write_design(&design);
            let rsw = Stopwatch::start();
            let back = read_design(&text);
            read += rsw.elapsed().as_secs_f64() * 1e3;
            let back = match back {
                Ok(back) if back == design => Ok(back),
                Ok(_) => Err(format!("{}: the .sig round trip changed it", cfg.name)),
                Err(e) => Err(format!("{}: read_design failed: {e}", cfg.name)),
            };
            tally.record(back.as_ref().map(|_| ()).map_err(String::clone));
            designs.push(back.unwrap_or(design));
        }
        setup_s.push(sw.elapsed().as_secs_f64());
        read_ms.push(read);
    }
    (designs, setup_s, read_ms)
}

/// What the first route of a design fixes: the plan every later route
/// of it must repeat, and the numbers the pass reports for it.
#[derive(Clone, Copy)]
struct FirstRoute {
    fingerprint: u64,
    power_mw: f64,
    wdms: usize,
    hyper_nets: usize,
    candidates: usize,
    wdms_removed: usize,
    warm_trials: u64,
}

/// Checks one route: later routes must repeat the first route's plan;
/// the first route passes the plan checks and becomes the reference.
fn check_route(
    first: &mut Option<FirstRoute>,
    result: &FlowResult,
    exec: &Executor,
) -> Result<(), String> {
    let fingerprint = plan_fingerprint(
        &result.selection.choice,
        result.total_power_mw(),
        &result.wdm,
    );
    match first {
        Some(f) if f.fingerprint == fingerprint => Ok(()),
        Some(_) => Err("plan differs from its first route".to_owned()),
        None => {
            let resolved = OperonConfig::default()
                .resolved_for(result.hyper_nets.iter().map(|n| n.bit_count()));
            // The result does not keep its crossing index; rebuild it.
            let crossings = CrossingIndex::build_with(&result.candidates, exec);
            *first = Some(FirstRoute {
                fingerprint,
                power_mw: result.total_power_mw(),
                wdms: result.wdm.final_count(),
                hyper_nets: result.hyper_nets.len(),
                candidates: candidate_count(&result.candidates),
                wdms_removed: result
                    .wdm
                    .initial_count
                    .saturating_sub(result.wdm.final_count()),
                warm_trials: result.wdm.stats.warm_trials,
            });
            check_plan(
                &result.candidates,
                &crossings,
                &result.selection.choice,
                &result.wdm,
                &resolved,
            )
        }
    }
}

/// Times `OperonFlow::run` round after round over the designs for the
/// run's seconds, checking every route. One operation is one round; one
/// more set-up follows every route.
pub fn run(workload: &str, pass: &Pass) -> Outcome {
    let configs = configs(workload, pass.scale);
    let mut out = Outcome::default();
    let (designs, mut setup_s, mut read_ms) =
        setup(&configs, pass.seed, SETUP_REPS, &mut out.tally);
    let mut peak_mib = 0.0;
    let exec = Executor::new(pass.threads);
    let flow = OperonFlow::new(OperonConfig::default()).with_executor(exec.clone());
    let mut tracer = Tracer::new();
    let mut cursor = StageCursor::new(&exec);
    let mut firsts: Vec<Option<FirstRoute>> = vec![None; designs.len()];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut rounds: Vec<OpStages> = Vec::new();
    let (mut routed_s, mut round_s) = (0.0, 0.0);
    // Stops before a round that would overrun the run's seconds.
    while rounds.is_empty() || routed_s + round_s <= pass.seconds {
        let op = rounds.len() as u64;
        let round_span = pass.trace.then(|| tracer.begin("round", op));
        let mut round = OpStages::default();
        round_s = 0.0;
        for (i, design) in designs.iter().enumerate() {
            let span = pass
                .trace
                .then(|| tracer.begin(&format!("route {}", design.name()), op));
            let sw = Stopwatch::start();
            let routed = flow.run(design);
            let dt = sw.elapsed().as_secs_f64();
            routed_s += dt;
            round_s += dt;
            if let Some(id) = span {
                tracer.end(id);
            }
            let mut stages = cursor.next_op(&exec);
            if let Some(id) = span {
                tracer.children(id, &stages.stage_walls());
            }
            let check = routed.map_err(|e| e.to_string()).and_then(|result| {
                samples[i].push(dt * 1e3);
                // A cold route generates candidates for every hyper net.
                stages
                    .counters
                    .insert("nets_recoded".to_owned(), result.hyper_nets.len() as u64);
                check_route(&mut firsts[i], &result, &exec)
            });
            out.tally
                .record(check.map_err(|e| format!("{}: {e}", design.name())));
            round.add(&stages);
            let (_, s, r) = setup(&configs, pass.seed, 1, &mut out.tally);
            setup_s.extend(s);
            read_ms.extend(r);
        }
        if let Some(id) = round_span {
            tracer.end(id);
        }
        if rounds.is_empty() {
            // Sampled after fixed work: the allocator keeps memory across
            // rounds, so the end-of-run peak depends on how many fit.
            peak_mib = peak_rss_mib();
        }
        rounds.push(round);
    }

    let firsts: Vec<FirstRoute> = firsts.into_iter().flatten().collect();
    let sum = |f: fn(&FirstRoute) -> f64| firsts.iter().map(f).sum::<f64>();
    let latency_ms: f64 = samples.iter().map(|s| median(s)).sum();
    if pass.trace {
        layers::layer_metrics(
            &LayerInputs {
                read_ms: median(&read_ms),
                timed: &rounds,
                counted: &rounds[..1],
                hyper_nets: firsts.iter().map(|f| f.hyper_nets).sum(),
                candidates: firsts.iter().map(|f| f.candidates).sum(),
                deletion_yield: ratio(
                    sum(|f| f.wdms_removed as f64),
                    sum(|f| f.warm_trials as f64),
                ),
                threads: pass.threads,
            },
            &mut out,
        );
        out.push("traced.latency_ms", latency_ms, "ms");
        crate::write_trace(pass, workload, &tracer);
    } else {
        let routes: usize = samples.iter().map(Vec::len).sum();
        out.push("setup_s", median(&setup_s), "s");
        out.push("latency_ms", latency_ms, "ms");
        out.push("throughput_per_s", routes as f64 / routed_s, "1/s");
        out.push("peak_rss_mib", peak_mib, "MiB");
        out.push("power_mw", sum(|f| f.power_mw), "mW");
        out.push("wdm_count", sum(|f| f.wdms as f64), "count");
        out.push("samples", rounds.len() as f64, "count");
        for (design, s) in designs.iter().zip(&samples) {
            out.push(format!("flow.route_ms.{}", design.name()), median(s), "ms");
        }
    }
    out
}
