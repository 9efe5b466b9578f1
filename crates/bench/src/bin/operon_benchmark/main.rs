//! End-to-end and per-layer benchmark of the OPERON flow over four
//! workloads: the paper suite, a die-scale design, the serve daemon
//! under an ECO trace, and explore sweeps. See `README.md` beside this
//! file for the workloads, the metrics and how to read a trace.
//!
//! ```text
//! # every workload, untraced then traced, one child process each
//! cargo run -p operon-bench --release --bin operon_benchmark -- [--seed 2018]
//! # the cheap gate: every check and every metric name on small inputs
//! cargo run -p operon-bench --release --bin operon_benchmark -- --smoke
//! # K runs with median, quartiles and spread per metric
//! cargo run -p operon-bench --release --bin operon_benchmark -- --repeat 5
//! # one pass of one workload in this process
//! cargo run -p operon-bench --release --bin operon_benchmark -- \
//!     --workload serve_eco --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One pass prints every metric it measured as a
//! `{"workload","metric","value","unit"}` line, then one result line
//! `{"correct","attempted","failed","metrics"}` holding the declared
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! It exits non-zero when any operation failed.
//!
//! The per-layer numbers are measured from outside: the benchmark reads
//! the stage records the program already writes into its executor's run
//! report, and times its own calls. Nothing inside the program is
//! changed.

mod explore;
mod inputs;
mod layers;
mod oneshot;
mod report;
mod serve;
mod stats;
mod trace;

use operon_exec::json::{self, Value};
use report::{metric_line, result_line, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// How long one pass measures, seconds (`run_seconds` of
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;
/// Set-up repetitions before a pass's first operation. One more follows
/// every operation, so `setup_s`, the median of all of them, covers the
/// pass's whole time window: on a shared host, set-up times measured
/// within one second swing by half.
pub const SETUP_REPS: usize = 3;
const DEFAULT_SEED: u64 = 2018;

/// (name, why it is in the benchmark).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "table1_lr",
        "Paper Table 1 runtime: cold LR routes of I1-I5; crossing and LR dominate I2/I5, WDM and clustering I3",
    ),
    (
        "die_scale_10k",
        "Cold route of a 10k-bit die: WDM placement and MCMF reduction dominate and peak RSS passes 100 MiB",
    ),
    (
        "serve_eco",
        "Warm daemon on a 2k-bit die: ECOs beside probe/report reads run the incremental path, delta crossing and resident MCMF",
    ),
    (
        "explore_pareto",
        "64-point config sweeps of I1 answered mostly from resident state; crossing and clustering are bypassed, so it is the control",
    ),
];

/// Declared end-to-end metrics: (name, unit, better, bound). A bound
/// is the share of the parent's median a metric may worsen by. Each is
/// the smallest hundredth at least three times the metric's widest
/// spread, (Q3 − Q1) / median over ten seeds, except the timings: host
/// load on a shared 2-vCPU KVM guest spreads them by up to 0.17, so they
/// get the largest bound allowed.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.21),
    ("power_mw", "mW", "lower", 0.07),
    ("wdm_count", "count", "lower", 0.08),
];

/// Declared per-layer metrics: (name, unit, better).
const PER_LAYER: [(&str, &str, &str); 39] = [
    ("netlist.read_ms", "ms", "lower"),
    ("cluster.ms", "ms", "lower"),
    ("cluster.hyper_nets", "count", "lower"),
    ("codesign.ms", "ms", "lower"),
    ("codesign.candidates", "count", "lower"),
    ("codesign.nets_recoded", "count", "lower"),
    ("crossing.ms", "ms", "lower"),
    ("crossing.pairs", "count", "lower"),
    ("crossing.ns_per_pair", "ns", "lower"),
    ("selection.ms", "ms", "lower"),
    ("selection.lr_iterations", "count", "lower"),
    ("selection.priced_nets", "count", "lower"),
    ("selection.price_reuse", "fraction", "higher"),
    ("selection.load_reuse", "fraction", "higher"),
    ("wdm.ms", "ms", "lower"),
    ("wdm.dijkstra_passes", "count", "lower"),
    ("wdm.warm_trials", "count", "lower"),
    ("wdm.cold_solves", "count", "lower"),
    ("wdm.repair_rounds", "count", "lower"),
    ("wdm.warm_fallbacks", "count", "lower"),
    ("wdm.networks_cloned", "count", "lower"),
    ("wdm.us_per_dijkstra", "us", "lower"),
    ("wdm.deletion_yield", "fraction", "higher"),
    ("exec.threads", "count", "higher"),
    ("exec.tasks.clustering", "count", "lower"),
    ("exec.steals.clustering", "count", "lower"),
    ("exec.efficiency.clustering", "fraction", "higher"),
    ("exec.tasks.codesign", "count", "lower"),
    ("exec.steals.codesign", "count", "lower"),
    ("exec.efficiency.codesign", "fraction", "higher"),
    ("exec.tasks.crossing", "count", "lower"),
    ("exec.steals.crossing", "count", "lower"),
    ("exec.efficiency.crossing", "fraction", "higher"),
    ("exec.tasks.selection", "count", "lower"),
    ("exec.steals.selection", "count", "lower"),
    ("exec.efficiency.selection", "fraction", "higher"),
    ("exec.tasks.wdm", "count", "lower"),
    ("exec.steals.wdm", "count", "lower"),
    ("exec.efficiency.wdm", "fraction", "higher"),
];

/// Input sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// I3 only, `die_scale(2_000)`, 40 serve requests on the medium
    /// design, an 8-point lattice on the medium design.
    Smoke,
}

/// One pass of one workload.
pub struct Pass {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Executor workers.
    pub threads: usize,
    /// Where the traced pass writes `<workload>.trace.json`.
    pub trace_dir: Option<PathBuf>,
}

fn run_pass(workload: &str, pass: &Pass) -> Outcome {
    match workload {
        "table1_lr" | "die_scale_10k" => oneshot::run(workload, pass),
        "serve_eco" => serve::run(pass),
        "explore_pareto" => explore::run(pass),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Writes the traced pass's spans as Chrome trace-event JSON.
pub fn write_trace(pass: &Pass, workload: &str, tracer: &trace::Tracer) {
    let Some(dir) = &pass.trace_dir else {
        return;
    };
    let path = dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// Executor workers: one per hardware thread, as `operon_route` and
/// `operon_serve` default to, capped at two so runs on larger hosts
/// stay comparable.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: operon_benchmark [--seed N] [--smoke] [--repeat K]\n       \
                     operon_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == v) {
                    return Err(format!("unknown workload {v:?}"));
                }
                args.workload = Some(v.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad(v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = Some(v.parse().ok().filter(|&k| k > 0).ok_or_else(|| bad(v))?);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS });
    match (&args.workload, args.repeat) {
        (Some(w), _) => single(w, &args, seconds),
        (None, Some(k)) => repeat(&args, seconds, k),
        (None, None) => match suite(&args, seconds, true) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("operon_benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// One pass of one workload in this process (the `BENCHMARK.json`
/// protocol).
fn single(workload: &str, args: &Args, seconds: f64) -> ExitCode {
    let pass = Pass {
        seed: args.seed,
        seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        threads: threads(),
        trace_dir: Some(PathBuf::from("target").join("operon-benchmark")),
    };
    let outcome = run_pass(workload, &pass);
    for m in &outcome.metrics {
        println!("{}", metric_line(workload, &m.name, m.value, m.unit));
    }
    for p in &outcome.tally.problems {
        eprintln!("{workload}: {p}");
    }
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    };
    match result_line(&outcome, &declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// (workload, metric, value, unit) rows of one suite run.
type Rows = Vec<(String, String, f64, String)>;

/// Every workload, untraced then traced, each pass in a fresh child
/// process of this binary so `peak_rss_mib` is the workload's own.
fn suite(args: &Args, seconds: f64, print: bool) -> Result<Rows, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let sw = operon_exec::Stopwatch::start();
    let mut rows: Rows = Vec::new();
    let mut failures = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut attempted = 0;
        let mut failed = 0;
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|l| json::parse(l).ok());
            let count = |key: &str| result.as_ref().and_then(|r| r.get(key)?.as_i64());
            match (count("attempted"), count("failed")) {
                (Some(a), Some(f)) if output.status.success() => {
                    attempted += a;
                    failed += f;
                }
                _ => failures.push(format!("{workload} --trace {trace}: {}", output.status)),
            }
            for line in lines {
                let v = json::parse(line).map_err(|e| format!("{workload}: {line}: {e}"))?;
                let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or_default();
                let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                rows.push((
                    workload.to_owned(),
                    field("metric").to_owned(),
                    value,
                    field("unit").to_owned(),
                ));
            }
        }
        let rate = if attempted == 0 {
            1.0
        } else {
            failed as f64 / attempted as f64
        };
        rows.push((
            workload.into(),
            "error_rate".into(),
            rate,
            "fraction".into(),
        ));
    }
    // Measures that compare the untraced and the traced child.
    let find = |w: &str, m: &str| rows.iter().find(|r| r.0 == w && r.1 == m).map(|r| r.2);
    let mut derived: Rows = Vec::new();
    for (workload, _) in WORKLOADS {
        if let (Some(plain), Some(traced)) = (
            find(workload, "latency_ms"),
            find(workload, "traced.latency_ms"),
        ) {
            let overhead = traced / plain - 1.0;
            derived.push((
                workload.into(),
                "flow.trace_overhead".into(),
                overhead,
                "fraction".into(),
            ));
        }
    }
    if let (Some(handled), Some(session)) = (
        find("serve_eco", "latency_ms"),
        find("serve_eco", "session.eco_ms_p50"),
    ) {
        derived.push((
            "serve_eco".into(),
            "serve.overhead_ms_p50".into(),
            handled - session,
            "ms".into(),
        ));
    }
    rows.extend(derived);
    if print {
        for (w, m, v, u) in &rows {
            println!("{}", metric_line(w, m, *v, u));
        }
    }
    eprintln!(
        "operon_benchmark: {} workloads, {} threads, {:.1} s",
        WORKLOADS.len(),
        threads(),
        sw.elapsed().as_secs_f64()
    );
    if failures.is_empty() && rows.iter().all(|r| r.1 != "error_rate" || r.2 == 0.0) {
        Ok(rows)
    } else {
        Err(format!("failed passes or operations: {failures:?}"))
    }
}

/// Runs the suite `k` times and prints, per workload and metric, the
/// median, the quartiles and (Q3 − Q1) / median, flagging end-to-end
/// metrics whose spread exceeds their bound.
fn repeat(args: &Args, seconds: f64, k: usize) -> ExitCode {
    let mut runs: Vec<Rows> = Vec::new();
    for i in 0..k {
        eprintln!("operon_benchmark: repeat {}/{k}", i + 1);
        match suite(args, seconds, false) {
            Ok(rows) => runs.push(rows),
            Err(e) => {
                eprintln!("operon_benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut flagged = 0;
    for (w, m, _, u) in &runs[0] {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|rows| rows.iter().find(|r| &r.0 == w && &r.1 == m).map(|r| r.2))
            .collect();
        let (q1, q3) = stats::quartiles(&values);
        let spread = stats::spread(&values);
        let bound = END_TO_END.iter().find(|e| e.0 == m).map(|e| e.3);
        let flag = bound.is_some_and(|b| spread > b);
        flagged += usize::from(flag);
        let mut fields = vec![
            ("workload", Value::from(w.as_str())),
            ("metric", Value::from(m.as_str())),
            ("unit", Value::from(u.as_str())),
            ("runs", Value::from(values.len())),
            ("median", Value::from(stats::median(&values))),
            ("q1", Value::from(q1)),
            ("q3", Value::from(q3)),
            ("spread", Value::from(spread)),
        ];
        if let Some(b) = bound {
            fields.push(("bound", Value::from(b)));
            fields.push(("flagged", Value::Bool(flag)));
        }
        println!("{}", Value::object(fields).compact());
    }
    eprintln!("operon_benchmark: {k} runs, {flagged} end-to-end spreads beyond their bound");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> Pass {
        Pass {
            seed: 5,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
            threads: 2,
            trace_dir: None,
        }
    }

    fn benchmark_json() -> Value {
        json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect("field").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let v = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names(&v, "per_layer"), per_layer);
        for (m, &(_, _, better)) in v
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer")
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
        }
        for (m, &(_, _, better, bound)) in v
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(bound));
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.0));
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &all {
            assert!(valid(n), "bad name {n:?}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");
    }

    /// Every declared metric comes out of every workload's `--smoke`
    /// pass, traced and untraced, with every check passing.
    #[test]
    fn every_workload_reports_every_declared_metric() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let outcome = run_pass(workload, &smoke(trace));
                assert_eq!(
                    outcome.tally.failed, 0,
                    "{workload}: {:?}",
                    outcome.tally.problems
                );
                assert!(outcome.tally.attempted > 0);
                let declared: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
                } else {
                    END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
                };
                let line = result_line(&outcome, &declared)
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                let parsed = json::parse(&line).expect("result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let raw = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&raw(
            "--workload serve_eco --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("serve_eco"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(2.5), true));
        assert!(parse_args(&raw("--workload nope")).is_err());
        assert!(parse_args(&raw("--trace 2")).is_err());
        assert!(parse_args(&raw("--repeat 0")).is_err());
        assert!(parse_args(&raw("--seed")).is_err());
    }
}
