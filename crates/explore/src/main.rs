//! Command-line front end for the design-space sweep driver.
//!
//! ```text
//! operon_explore <design.sig> | --synth small|medium[:SEED]
//!                [--spec FILE] [--knob name=v1,v2,...]... [--base name=v]...
//!                [--threads N|auto] [--seed S] [--cold]
//!                [--json FILE] [--svg FILE] [--run-report FILE]
//!                [--emit-trace FILE]
//! ```
//!
//! Declares a config lattice (from a JSON `--spec` file and/or repeated
//! `--knob` axes over `--base` overrides), sweeps it with warm-prefix
//! sharing (`--cold` disables sharing for A/B comparisons — the results
//! are bit-identical either way), and prints the Pareto front.
//! `--json`/`--svg` write the full result and its objective-space
//! rendering, `--emit-trace` writes the sweep as an `operon_serve`
//! JSONL request trace, and `--run-report` dumps the executor's staged
//! instrumentation (including the `"sweep"` reuse counters).

use operon::config::{KnobValue, KNOBS};
use operon_exec::{Executor, Stopwatch};
use operon_explore::lattice::{Axis, Lattice};
use operon_explore::render::render_front_svg;
use operon_explore::sweep::{sweep, sweep_trace, SweepOptions, OBJECTIVE_NAMES};
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::Design;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: operon_explore <design.sig> | --synth small|medium[:SEED] \
         [--spec FILE] [--knob name=v1,v2,...]... [--base name=v]... \
         [--threads N|auto] [--seed S] [--cold] [--json FILE] [--svg FILE] \
         [--run-report FILE] [--emit-trace FILE]\n\nknobs: {}",
        KNOBS.join(", ")
    );
    ExitCode::from(2)
}

/// Parses `--synth small|medium[:SEED]`.
fn parse_synth(spec: &str) -> Option<Design> {
    let (name, seed) = match spec.split_once(':') {
        Some((n, s)) => (n, s.parse::<u64>().ok()?),
        None => (spec, 1),
    };
    let config = match name {
        "small" => SynthConfig::small(),
        "medium" => SynthConfig::medium(),
        _ => return None,
    };
    Some(generate(&config, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut design: Option<Design> = None;
    let mut spec_path: Option<String> = None;
    let mut axes: Vec<Axis> = Vec::new();
    let mut base_knobs: Vec<(String, KnobValue)> = Vec::new();
    let mut threads = 0usize;
    let mut opts = SweepOptions::default();
    let mut json_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--synth" => {
                let Some(d) = args.get(i + 1).and_then(|s| parse_synth(s)) else {
                    return usage();
                };
                design = Some(d);
                i += 2;
            }
            "--spec" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                spec_path = Some(path.clone());
                i += 2;
            }
            "--knob" => {
                let axis = match args.get(i + 1).map(|s| Axis::parse(s)) {
                    Some(Ok(axis)) => axis,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        return usage();
                    }
                    None => return usage(),
                };
                axes.push(axis);
                i += 2;
            }
            "--base" => {
                let Some((name, value)) = args.get(i + 1).and_then(|s| s.split_once('=')) else {
                    return usage();
                };
                base_knobs.push((name.to_owned(), KnobValue::parse(value)));
                i += 2;
            }
            "--threads" => {
                let parsed = args.get(i + 1).and_then(|s| {
                    if s == "auto" {
                        Some(0)
                    } else {
                        s.parse::<usize>().ok()
                    }
                });
                let Some(n) = parsed else {
                    return usage();
                };
                threads = n;
                i += 2;
            }
            "--seed" => {
                let Some(s) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                opts.seed = s;
                i += 2;
            }
            "--cold" => {
                opts.cold = true;
                i += 1;
            }
            "--json" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                json_path = Some(path.clone());
                i += 2;
            }
            "--svg" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                svg_path = Some(path.clone());
                i += 2;
            }
            "--run-report" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                report_path = Some(path.clone());
                i += 2;
            }
            "--emit-trace" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                trace_path = Some(path.clone());
                i += 2;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
            path => {
                if design.is_some() {
                    eprintln!("exactly one design, please");
                    return usage();
                }
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match operon_netlist::io::read_design(&text) {
                    Ok(d) => design = Some(d),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 1;
            }
        }
    }
    let Some(design) = design else {
        eprintln!("no design given (path or --synth)");
        return usage();
    };

    let lattice = {
        let from_spec = match spec_path {
            Some(path) => {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match operon_explore::parse_spec(&text) {
                    Ok(l) => Some(l),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => None,
        };
        // CLI axes/base extend (and come after) the spec's declarations.
        let (mut all_base, mut all_axes) = match from_spec {
            Some(l) => (l.base_knobs().to_vec(), l.axes().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        all_base.extend(base_knobs);
        all_axes.extend(axes);
        match Lattice::new(all_base, all_axes) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
        }
    };

    let exec = Executor::new(threads);
    let watch = Stopwatch::start();
    let result = match sweep(&design, &lattice, &exec, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = watch.elapsed();

    let n = result.points.len();
    println!(
        "{}: {} lattice points in {} {} ({} cold, {} partial)",
        design.name(),
        n,
        result.groups,
        if result.groups == 1 {
            "group"
        } else {
            "groups"
        },
        result.points.iter().filter(|p| !p.warm).count(),
        result.points.iter().filter(|p| p.warm).count(),
    );
    println!(
        "stage reuse: {} of {} pipeline stages answered warm",
        result.stages_reused,
        result.stages_reused + result.stages_rerun
    );
    println!(
        "swept in {:.2?} ({:.2} points/sec)",
        elapsed,
        n as f64 / elapsed.as_secs_f64().max(1e-9)
    );

    println!("\nPareto front ({} points):", result.front.len());
    println!(
        "{:>6}  {:<34} {:>10} {:>5} {:>10} {:>11}",
        "point", "knobs", OBJECTIVE_NAMES[0], "wdms", "delay(ps)", "thermal(mW)"
    );
    for &idx in &result.front {
        let p = &result.points[idx];
        let knobs: Vec<String> = p.knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let o = &p.objectives;
        println!(
            "{idx:>6}  {:<34} {:>10.2} {:>5} {:>10.0} {:>11.2}",
            knobs.join(" "),
            o.power_mw,
            o.wdm_count,
            o.worst_delay_ps,
            o.thermal_tuning_mw
        );
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, result.to_json().pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nsweep results written to {path}");
    }
    if let Some(path) = svg_path {
        if let Err(e) = std::fs::write(&path, render_front_svg(&result)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("front rendering written to {path}");
    }
    if let Some(path) = trace_path {
        let trace = match sweep_trace(&design, &lattice) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot emit trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("request trace written to {path}");
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, exec.report().to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("run report written to {path}");
    }
    ExitCode::SUCCESS
}
