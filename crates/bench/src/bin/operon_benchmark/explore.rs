//! `explore_pareto`: repeated `operon_explore` sweeps of a config
//! lattice over I1.
//!
//! The lattice is `explore_bench`'s 4 × 4 × 4 = 64 points (`max_delay` ×
//! `lr_iters` × `wdm_displacement`): 4 warm groups whose later points
//! re-run only the selection or WDM suffix, so clustering and crossing
//! run once per group. That makes this the control workload for a
//! crossing or clustering change: the prediction there is no change.

use crate::layers::{self, candidate_count, ratio, LayerInputs, OpStages, StageCursor};
use crate::report::{peak_rss_mib, Outcome, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{inputs, Pass, Scale, SETUP_REPS};
use operon::flow::{FlowResult, OperonFlow};
use operon_exec::{Executor, Stopwatch};
use operon_explore::lattice::{Axis, Lattice};
use operon_explore::sweep::{sweep, SweepOptions, SweepResult};
use operon_netlist::io::{read_design, write_design};
use operon_netlist::synth::{paper_suite, SynthConfig};
use operon_netlist::Design;

fn design_config(scale: Scale) -> SynthConfig {
    match scale {
        Scale::Full => paper_suite().swap_remove(0),
        Scale::Smoke => SynthConfig::medium(),
    }
}

fn axes(scale: Scale) -> [&'static str; 3] {
    match scale {
        Scale::Full => [
            "max_delay=240,260,280,300",
            "lr_iters=6,8,10,12",
            "wdm_displacement=30,60,120,600",
        ],
        Scale::Smoke => [
            "max_delay=260,300",
            "lr_iters=6,12",
            "wdm_displacement=60,600",
        ],
    }
}

/// Declares the lattice and resolves every point (the validation a
/// user pays before a sweep starts).
fn lattice(scale: Scale) -> Result<Lattice, String> {
    let axes = axes(scale)
        .iter()
        .map(|spec| Axis::parse(spec))
        .collect::<Result<Vec<_>, _>>()?;
    let lattice = Lattice::new(vec![], axes)?;
    for i in 0..lattice.len() {
        lattice.point(i)?;
    }
    Ok(lattice)
}

/// Set-up: synthesize I1, load it back through the `.sig` format, and
/// declare and validate the lattice. Repeated `reps` times; returns the
/// last design and lattice, the per-repetition set-up times (s) and
/// `read_design` times (ms).
fn setup(
    pass: &Pass,
    reps: usize,
    tally: &mut Tally,
) -> Option<(Design, Lattice, Vec<f64>, Vec<f64>)> {
    let cfg = design_config(pass.scale);
    let (mut setup_s, mut read_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        let design = inputs::design(&cfg, pass.seed);
        let text = write_design(&design);
        let rsw = Stopwatch::start();
        let back = read_design(&text);
        read_ms.push(rsw.elapsed().as_secs_f64() * 1e3);
        let ready = match back {
            Ok(back) if back == design => lattice(pass.scale).map(|l| (back, l)),
            Ok(_) => Err("the .sig round trip changed the design".to_owned()),
            Err(e) => Err(format!("read_design failed: {e}")),
        };
        setup_s.push(sw.elapsed().as_secs_f64());
        tally.record(ready.as_ref().map(|_| ()).map_err(String::clone));
        last = ready.ok();
    }
    last.map(|(d, l)| (d, l, setup_s, read_ms))
}

/// Sweeps the lattice again and again for the run's seconds. One
/// operation is one sweep; one more set-up follows every sweep.
pub fn run(pass: &Pass) -> Outcome {
    let mut out = Outcome::default();
    let Some((design, lattice, mut setup_s, mut read_ms)) = setup(pass, SETUP_REPS, &mut out.tally)
    else {
        return out;
    };
    let mut peak_mib = 0.0;
    let exec = Executor::new(pass.threads);
    let check_exec = Executor::new(pass.threads);
    let mut tracer = Tracer::new();
    let mut cursor = StageCursor::new(&exec);
    let (mut sweep_ms, mut timed) = (Vec::new(), Vec::<OpStages>::new());
    let mut first: Option<(SweepResult, FlowResult)> = None;
    let (mut k, mut spent_ms, mut last_ms) = (0usize, 0.0, 0.0);
    // Stops before a sweep that would overrun the run's seconds.
    while k == 0 || spent_ms + last_ms <= pass.seconds * 1e3 {
        let run = || sweep(&design, &lattice, &exec, &SweepOptions::default());
        let (result, ms) = if pass.trace {
            tracer.span("sweep", k as u64, run)
        } else {
            let sw = Stopwatch::start();
            let r = run();
            (r, sw.elapsed().as_secs_f64() * 1e3)
        };
        timed.push(cursor.next_op(&exec));
        spent_ms += ms;
        last_ms = ms;
        k += 1;
        if k == 1 {
            // Sampled after fixed work: with two workers the allocator
            // keeps memory across sweeps, so the end-of-run peak depends
            // on how many sweeps fit.
            peak_mib = peak_rss_mib();
        }
        if let Some((_, _, s, r)) = setup(pass, 1, &mut out.tally) {
            setup_s.extend(s);
            read_ms.extend(r);
        }
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.tally.record(Err(format!("sweep {k}: {e}")));
                continue;
            }
        };
        sweep_ms.push(ms);
        // One point per sweep, a different one each time, re-evaluated
        // cold; the front must not move between sweeps.
        let probe = (k * 17 + 5) % lattice.len();
        let cold = recheck(&design, &lattice, &result, probe, &check_exec);
        let check = match (&first, cold) {
            (_, Err(e)) => Err(e),
            (Some((f, _)), Ok(_)) if f.front != result.front => {
                Err("the Pareto front moved between sweeps".to_owned())
            }
            (Some(_), Ok(_)) => Ok(()),
            (None, Ok(cold)) => {
                first = Some((result, cold));
                Ok(())
            }
        };
        out.tally
            .record(check.map_err(|e| format!("sweep {k}: {e}")));
    }
    let Some((result, cold)) = first else {
        return out;
    };
    if pass.trace {
        layers::layer_metrics(
            &LayerInputs {
                read_ms: median(&read_ms),
                timed: &timed,
                counted: &timed[..1],
                hyper_nets: cold.hyper_nets.len(),
                candidates: candidate_count(&cold.candidates),
                deletion_yield: ratio(
                    cold.wdm
                        .initial_count
                        .saturating_sub(cold.wdm.final_count()) as f64,
                    cold.wdm.stats.warm_trials as f64,
                ),
                threads: pass.threads,
            },
            &mut out,
        );
        let stages = result.stages_reused + result.stages_rerun;
        out.push("explore.groups", result.groups as f64, "count");
        out.push(
            "explore.stage_reuse",
            ratio(result.stages_reused as f64, stages as f64),
            "fraction",
        );
        out.push("explore.front_size", result.front.len() as f64, "count");
        out.push("traced.latency_ms", median(&sweep_ms), "ms");
        crate::write_trace(pass, "explore_pareto", &tracer);
    } else {
        let points = (lattice.len() * sweep_ms.len()) as f64;
        out.push("setup_s", median(&setup_s), "s");
        out.push("latency_ms", median(&sweep_ms), "ms");
        out.push(
            "throughput_per_s",
            points / (sweep_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        out.push("peak_rss_mib", peak_mib, "MiB");
        let objectives = result.points.iter().map(|p| &p.objectives);
        out.push(
            "power_mw",
            objectives.clone().map(|o| o.power_mw).sum(),
            "mW",
        );
        out.push(
            "wdm_count",
            objectives.map(|o| o.wdm_count).sum::<usize>() as f64,
            "count",
        );
        out.push("samples", sweep_ms.len() as f64, "count");
    }
    out
}

/// Re-evaluates lattice point `index` with a cold `OperonFlow::run`; its
/// power and WDM count must equal the sweep's, bit for bit.
fn recheck(
    design: &Design,
    lattice: &Lattice,
    result: &SweepResult,
    index: usize,
    exec: &Executor,
) -> Result<FlowResult, String> {
    let point = lattice.point(index)?;
    let cold = OperonFlow::new(point.config)
        .with_executor(exec.clone())
        .run(design)
        .map_err(|e| format!("cold point {index}: {e}"))?;
    let swept = &result.points[index].objectives;
    if cold.total_power_mw().to_bits() != swept.power_mw.to_bits()
        || cold.wdm.final_count() != swept.wdm_count
    {
        return Err(format!(
            "point {index}: sweep ({} mW, {} WDMs) differs from cold ({} mW, {} WDMs)",
            swept.power_mw,
            swept.wdm_count,
            cold.total_power_mw(),
            cold.wdm.final_count()
        ));
    }
    Ok(cold)
}
