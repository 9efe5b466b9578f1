//! Command-line front end for the OPERON flow.
//!
//! ```text
//! operon_route <design.sig>... [--threads N|auto] [--run-report FILE]
//!              [--ilp SECS] [--capacity N] [--max-loss DB]
//!              [--max-delay PS] [--scale N/D] [--maps] [--nets]
//!              [--svg FILE] [--emit-trace FILE]
//! ```
//!
//! Reads designs in the `operon-netlist` text format (see
//! `operon_netlist::io`), runs the flow, and prints the selection summary.
//! Several design paths form a batch: they are routed concurrently on one
//! shared executor and reported in input order. `--threads` sets the
//! worker count (`auto` or `0`, the default, means one per hardware
//! thread; results are bit-identical for every count), `--run-report`
//! writes the executor's per-stage JSON instrumentation, including each
//! stage's wall time.
//! The config flags set knobs through `OperonConfig::set_knob`, the
//! setter `operon_serve`'s `set_config` and `operon_explore` lattices use
//! too: `--ilp S` sets `selector` to `ilp:S`, and `--capacity`,
//! `--max-loss` and `--max-delay` set `capacity`, `max_loss` and
//! `max_delay`. A value the setter rejects prints its error and the
//! usage. `--maps` additionally renders the optical/electrical power
//! maps as ASCII heat maps; `--svg` writes the routed layout as an SVG
//! drawing (single design only). `--emit-trace` additionally writes the
//! whole invocation as a JSONL request trace — one
//! `open_design`/`set_config`/`route`/`close` session per design, in
//! input order — consumable by `operon_serve --replay`.

use operon::config::{KnobValue, OperonConfig};
use operon::flow::OperonFlow;
use operon_exec::Executor;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: operon_route <design.sig>... [--threads N|auto] \
         [--run-report FILE] [--ilp SECS] [--capacity N] [--max-loss DB] \
         [--max-delay PS] [--scale N/D] [--maps] [--nets] [--svg FILE] [--emit-trace FILE]\n\n\
         config flags set knobs: --ilp SECS selector=ilp:SECS, \
         --capacity capacity, --max-loss max_loss, --max-delay max_delay"
    );
    ExitCode::from(2)
}

/// The config flags and the knob each sets (`--ilp S` sets
/// `selector` to `ilp:S`).
const CONFIG_FLAGS: [(&str, &str); 4] = [
    ("--ilp", "selector"),
    ("--capacity", "capacity"),
    ("--max-loss", "max_loss"),
    ("--max-delay", "max_delay"),
];

struct Options {
    config: OperonConfig,
    /// The knobs the config flags set, in flag order.
    knobs: Vec<(&'static str, KnobValue)>,
    show_maps: bool,
    show_nets: bool,
    scale: Option<(i64, i64)>,
    svg_path: Option<String>,
    emit_trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut paths: Vec<String> = Vec::new();
    let mut opts = Options {
        config: OperonConfig::default(),
        knobs: Vec::new(),
        show_maps: false,
        show_nets: false,
        scale: None,
        svg_path: None,
        emit_trace: false,
    };
    let mut threads = 0usize; // 0 = one worker per hardware thread
    let mut report_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(&(flag, knob)) = CONFIG_FLAGS.iter().find(|(f, _)| *f == args[i]) {
            let Some(token) = args.get(i + 1) else {
                return usage();
            };
            let value = if flag == "--ilp" {
                KnobValue::Text(format!("ilp:{token}"))
            } else {
                KnobValue::parse(token)
            };
            if let Err(e) = opts.config.set_knob(knob, &value) {
                eprintln!("{flag}: {e}");
                return usage();
            }
            opts.knobs.push((knob, value));
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--threads" => {
                // "auto" (the default) means one worker per hardware
                // thread, same as 0.
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
            "--run-report" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                report_path = Some(path.clone());
                i += 2;
            }
            "--maps" => {
                opts.show_maps = true;
                i += 1;
            }
            "--nets" => {
                opts.show_nets = true;
                i += 1;
            }
            "--scale" => {
                // "N/D" or a plain integer factor.
                let Some(spec) = args.get(i + 1) else {
                    return usage();
                };
                let parts: Vec<&str> = spec.splitn(2, '/').collect();
                let num = parts[0].parse::<i64>().ok();
                let den = parts.get(1).map_or(Some(1), |d| d.parse::<i64>().ok());
                match (num, den) {
                    (Some(n), Some(d)) if n > 0 && d > 0 => opts.scale = Some((n, d)),
                    _ => return usage(),
                }
                i += 2;
            }
            "--svg" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                opts.svg_path = Some(path.clone());
                i += 2;
            }
            "--emit-trace" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                trace_path = Some(path.clone());
                opts.emit_trace = true;
                i += 2;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
            design => {
                paths.push(design.to_owned());
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        return usage();
    }
    if opts.svg_path.is_some() && paths.len() > 1 {
        eprintln!("--svg requires a single design");
        return usage();
    }

    // One executor for the whole invocation: a batch routes its designs
    // concurrently, each flow parallelizes internally on the same worker
    // budget, and every stage lands in one shared run report.
    let exec = Executor::new(threads);
    let outputs: Vec<Result<(String, Option<String>), String>> = if paths.len() == 1 {
        vec![route_one(&paths[0], &opts, &exec)]
    } else {
        exec.par_map_coarse(&paths, |path| route_one(path, &opts, &exec))
    };

    let mut out = Stdout::new();
    let mut failed = false;
    let mut trace = String::new();
    for (pos, output) in outputs.iter().enumerate() {
        if pos > 0 {
            out.print("\n");
        }
        match output {
            Ok((text, session_trace)) => {
                out.print(text);
                if let Some(lines) = session_trace {
                    trace.push_str(lines);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }

    if let Some(path) = trace_path {
        if let Err(e) = std::fs::write(&path, &trace) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        out.print(&format!("request trace written to {path}\n"));
    }

    if let Some(path) = report_path {
        let json = exec.report().to_json();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        out.print(&format!("run report written to {path}\n"));
    }
    if !out.finish() || failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Standard output for the report. Once the reader closes the pipe
/// (`operon_route ... | head`) it stops printing, quietly, where
/// `print!` would panic; the run goes on, so the files the flags name
/// are still written and the exit code is unchanged. Any other write
/// error is reported once and fails the run.
struct Stdout {
    lock: std::io::StdoutLock<'static>,
    open: bool,
    failed: bool,
}

impl Stdout {
    fn new() -> Self {
        Self {
            lock: std::io::stdout().lock(),
            open: true,
            failed: false,
        }
    }

    fn print(&mut self, text: &str) {
        if self.open {
            if let Err(e) = self.lock.write_all(text.as_bytes()) {
                self.stop(&e);
            }
        }
    }

    /// Flushes what is buffered; false when a write failed other than
    /// by a closed pipe.
    fn finish(mut self) -> bool {
        if self.open {
            if let Err(e) = self.lock.flush() {
                self.stop(&e);
            }
        }
        !self.failed
    }

    fn stop(&mut self, e: &std::io::Error) {
        self.open = false;
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
            self.failed = true;
        }
    }
}

/// Renders one design's invocation as a JSONL request-trace session
/// (`open_design`/`set_config`/`route`/`close`) replayable by
/// `operon_serve --replay`. The `set_config` line carries the knobs
/// this CLI run's config flags set, so the daemon routes under the same
/// configuration.
fn trace_session(design: &operon_netlist::Design, knobs: &[(&str, KnobValue)]) -> String {
    use operon_exec::json::Value;

    let mut lines = String::new();
    let session = design.name();
    lines.push_str(
        &Value::object(vec![
            ("op", "open_design".into()),
            ("session", session.into()),
            ("design", operon_netlist::io::write_design(design).into()),
        ])
        .compact(),
    );
    lines.push('\n');

    if !knobs.is_empty() {
        let mut fields = vec![("op", "set_config".into()), ("session", session.into())];
        fields.extend(knobs.iter().map(|(knob, value)| (*knob, value.to_json())));
        lines.push_str(&Value::object(fields).compact());
        lines.push('\n');
    }

    for op in ["route", "close"] {
        lines.push_str(
            &Value::object(vec![("op", op.into()), ("session", session.into())]).compact(),
        );
        lines.push('\n');
    }
    lines
}

/// Routes one design and renders its report (the batch driver calls this
/// concurrently, so everything is returned as a string and printed in
/// input order by the caller). The second slot holds this design's
/// request-trace session when `--emit-trace` is active.
fn route_one(
    path: &str,
    opts: &Options,
    exec: &Executor,
) -> Result<(String, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut design = operon_netlist::io::read_design(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some((n, d)) = opts.scale {
        design = design.rescaled(n, d);
    }

    let config = opts.config.clone();
    let result = OperonFlow::new(config.clone())
        .with_executor(exec.clone())
        .run(&design)
        .map_err(|e| format!("{path}: flow failed: {e}"))?;

    let mut out = String::new();
    let w = &mut out;
    writeln!(
        w,
        "{}: {} bits in {} groups -> {} hyper nets ({} hyper pins)",
        design.name(),
        design.bit_count(),
        design.group_count(),
        result.hyper_nets.len(),
        result.hyper_pin_count()
    )
    .expect("write to string");
    writeln!(
        w,
        "selection: {} optical / {} electrical hyper nets{}",
        result.optical_net_count(),
        result.electrical_net_count(),
        if result.selection.proven_optimal {
            " (proven optimal)"
        } else {
            ""
        }
    )
    .expect("write to string");
    writeln!(w, "total power: {:.2} mW", result.total_power_mw()).expect("write to string");
    writeln!(
        w,
        "WDMs: {} connections -> {} placed -> {} final",
        result.wdm.connections.len(),
        result.wdm.initial_count,
        result.wdm.final_count()
    )
    .expect("write to string");

    if opts.show_nets {
        writeln!(
            w,
            "\n{:<6} {:<8} {:>5} {:>11} {:>5} {:>5} {:>11} {:>9} {:>10}",
            "net", "group", "bits", "medium", "nmod", "ndet", "power(mW)", "loss(dB)", "delay(ps)"
        )
        .expect("write to string");
        for s in result.net_summaries(&config) {
            writeln!(
                w,
                "{:<6} {:<8} {:>5} {:>11} {:>5} {:>5} {:>11.2} {:>9.2} {:>10.0}",
                s.net_index,
                s.group.to_string(),
                s.bits,
                s.medium.to_string(),
                s.n_mod,
                s.n_det,
                s.power_mw,
                s.worst_fixed_loss_db,
                s.worst_delay_ps
            )
            .expect("write to string");
        }
        writeln!(w).expect("write to string");
    }

    if config.max_delay_ps.is_some() {
        let violations = result.delay_violations(&config);
        writeln!(
            w,
            "worst arrival: {:.0} ps; {} nets violate the delay bound",
            result.worst_delay_ps(&config),
            violations.len()
        )
        .expect("write to string");
    }

    if opts.show_maps {
        let maps = result.power_maps(&design, &config);
        writeln!(w, "\noptical layer ({:.1} mW):", maps.optical.total()).expect("write to string");
        write!(w, "{}", maps.optical.normalized()).expect("write to string");
        writeln!(w, "\nelectrical layer ({:.1} mW):", maps.electrical.total())
            .expect("write to string");
        write!(w, "{}", maps.electrical.normalized()).expect("write to string");
    }

    if let Some(svg_out) = &opts.svg_path {
        let svg = operon::render::render_svg(
            design.die(),
            &result.candidates,
            &result.selection.choice,
            Some(&result.wdm),
            &operon::render::RenderOptions::default(),
        );
        std::fs::write(svg_out, svg).map_err(|e| format!("cannot write {svg_out}: {e}"))?;
        writeln!(w, "layout written to {svg_out}").expect("write to string");
    }
    let trace = opts.emit_trace.then(|| trace_session(&design, &opts.knobs));
    Ok((out, trace))
}
