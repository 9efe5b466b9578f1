//! Routes die-scale designs through the one flow, one fresh process per
//! size, and writes `BENCH_shard.json` at the repository root: wall time,
//! peak RSS and a plan fingerprint per size.
//!
//! ```text
//! cargo run -p operon-bench --release --bin shard_bench
//! cargo run -p operon-bench --release --bin shard_bench -- --smoke
//! cargo run -p operon-bench --release --bin shard_bench -- --measure <bits>
//! cargo run -p operon-bench --release --bin shard_bench -- --probe <bits>
//! ```
//!
//! Fixtures are `SynthConfig::die_scale` designs at 10k, 50k, and 100k
//! signal bits on a 5 cm die, seeded with [`HARNESS_SEED`]. Two
//! criteria:
//!
//! 1. **Identity**: the plan must not depend on the thread count or on
//!    the process that routes it — asserted in-process at the smallest
//!    size (threads 1 against one worker per hardware thread: candidate
//!    choices, power bits, WDM plan), and by checking that size's child
//!    process reports the same plan fingerprint.
//! 2. **Same-run numbers only**: peak RSS (`VmHWM`) is a monotone
//!    per-process high-water mark, so every size re-executes this binary
//!    as a fresh child process (`--measure <bits>`) and reports its own
//!    peak. Nothing is gated on numbers from another machine or an
//!    earlier commit.
//!
//! `--smoke` checks thread identity (threads {1, 2}) on a shrunken
//! 2k-bit die, then routes the 10k die once and checks its plan
//! fingerprint against the 10k entry of the committed
//! `BENCH_shard.json`, read at run time, so a solver change that moves
//! any plan (a tie-break among equal-cost flows, say) fails CI, and
//! checks that its run report holds all five pipeline stages. It skips
//! the child processes and the JSON write — the cheap CI gate.
//! `--measure <bits>` routes one size and prints its JSON line (wall,
//! peak RSS, fingerprint, and `stage_ms`: the wall of each of the five
//! stages, from the executor's stage records). `--probe <bits>` routes
//! one size in-process and prints the executor run report (per-stage
//! wall + peak RSS) — the memory-attribution tool.
//!
//! Numbers in the committed `BENCH_shard.json` come from whatever
//! machine last ran this binary; `hardware_threads` records the truth.

use operon::config::OperonConfig;
use operon::flow::{FlowResult, OperonFlow};
use operon_bench::HARNESS_SEED;
use operon_exec::json::{self, Value};
use operon_exec::{peak_rss_kib, RunReport, Stopwatch};
use operon_netlist::synth::{generate, SynthConfig};

/// Die-scale sizes, in signal bits ("#Net" of the paper's Table 1).
const SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// The five pipeline stages, in flow order, as the executor names them.
const STAGES: [&str; 5] = ["clustering", "codesign", "crossing", "selection", "wdm"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bits = || -> usize {
        args.get(1)
            .and_then(|s| s.parse().ok())
            .expect("--measure <bits> | --probe <bits>")
    };
    match args.first().map(String::as_str) {
        Some("--measure") => measure_child(bits()),
        Some("--probe") => {
            let design = generate(&SynthConfig::die_scale(bits()), HARNESS_SEED);
            let flow = OperonFlow::new(OperonConfig::default());
            flow.run(&design).expect("flow");
            println!("{}", flow.executor().report().to_json());
        }
        Some("--smoke") => run_smoke(),
        _ => run_full(),
    }
}

/// FNV-1a over everything the plan exposes: one number that two runs
/// share iff their routed results are byte-identical.
fn fingerprint(result: &FlowResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &choice in &result.selection.choice {
        eat(choice as u64);
    }
    eat(result.selection.power_mw.to_bits());
    eat(result.total_power_mw().to_bits());
    eat(result.wdm.connections.len() as u64);
    eat(result.wdm.initial_count as u64);
    eat(result.wdm.final_count() as u64);
    for w in &result.wdm.wdms {
        eat(w.track as u64);
        eat(w.assigned.len() as u64);
        for &(conn, channels) in &w.assigned {
            eat(conn as u64);
            eat(channels as u64);
        }
    }
    h
}

/// Routes the `bits`-bit die on `threads` workers, with the executor's
/// run report.
fn route(bits: usize, threads: usize) -> (FlowResult, RunReport) {
    let design = generate(&SynthConfig::die_scale(bits), HARNESS_SEED);
    let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
    let result = flow.run(&design).expect("die-scale flow succeeds");
    (result, flow.executor().report())
}

/// The wall of each of the five stages in `report`, in ms, as a JSON
/// object in flow order.
///
/// # Panics
///
/// Panics if a stage has no record.
fn stage_ms(report: &RunReport) -> Value {
    let split = STAGES.map(|name| {
        let mut records = report.stages.iter().filter(|r| r.name == name).peekable();
        assert!(
            records.peek().is_some(),
            "the run report has no `{name}` stage"
        );
        let ms: f64 = records.map(|r| r.wall.as_secs_f64() * 1e3).sum();
        (name, Value::from(ms))
    });
    Value::object(Vec::from(split))
}

/// Child mode: route one size on one worker and print a JSON line with
/// wall time, this process's peak RSS, the plan fingerprint and the
/// per-stage split.
fn measure_child(bits: usize) {
    let sw = Stopwatch::start();
    let (result, report) = route(bits, 1);
    let wall_s = sw.elapsed().as_secs_f64();
    let line = Value::object(vec![
        ("bits", Value::from(bits)),
        ("wall_s", Value::from(wall_s)),
        ("peak_rss_kib", Value::from(peak_rss_kib())),
        (
            "fingerprint",
            Value::from(format!("{:016x}", fingerprint(&result))),
        ),
        ("stage_ms", stage_ms(&report)),
    ]);
    println!("{}", line.compact());
}

/// Spawns a fresh child for one size and parses its report.
fn spawn_cell(bits: usize) -> (f64, u64, String, Value) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--measure", &bits.to_string()])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "child {bits} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child output is UTF-8");
    let line = stdout.lines().last().expect("child printed a report");
    let v = json::parse(line).expect("child report is valid JSON");
    let wall = v.get("wall_s").and_then(Value::as_f64).expect("wall_s");
    let rss = v
        .get("peak_rss_kib")
        .and_then(Value::as_i64)
        .expect("peak_rss_kib") as u64;
    let fp = match v.get("fingerprint") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("fingerprint missing: {other:?}"),
    };
    let stages = v.get("stage_ms").expect("stage_ms").clone();
    (wall, rss, fp, stages)
}

/// Routes the `bits`-bit die at `threads` workers and at one, asserts
/// the plans are byte-identical, and returns their fingerprint.
fn assert_identity(bits: usize, threads: usize) -> String {
    let (reference, _) = route(bits, 1);
    let (routed, _) = route(bits, threads);
    assert_eq!(
        fingerprint(&reference),
        fingerprint(&routed),
        "plan diverged at {bits} bits, {threads} threads"
    );
    assert_eq!(reference.selection.choice, routed.selection.choice);
    assert_eq!(reference.wdm.wdms, routed.wdm.wdms);
    assert_eq!(reference.hyper_nets, routed.hyper_nets);
    format!("{:016x}", fingerprint(&reference))
}

fn run_smoke() {
    for threads in [1, 2] {
        assert_identity(2_000, threads);
    }
    let bits = SIZES[0];
    let pinned = pinned_fingerprint(bits);
    let (result, report) = route(bits, 1);
    let routed = format!("{:016x}", fingerprint(&result));
    assert_eq!(
        routed, pinned,
        "{bits} bits: plan fingerprint moved from the one pinned in BENCH_shard.json"
    );
    let split = stage_ms(&report);
    println!(
        "shard_bench --smoke: all identity checks passed ({bits} bits: {routed}, stage ms {})",
        split.compact()
    );
}

/// The plan fingerprint the committed `BENCH_shard.json` records for
/// `bits`.
fn pinned_fingerprint(bits: usize) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_shard.json");
    let bench = json::parse(&text).expect("BENCH_shard.json is valid JSON");
    let Some(Value::Array(sizes)) = bench.get("sizes") else {
        panic!("BENCH_shard.json has no sizes array");
    };
    let row = sizes
        .iter()
        .find(|row| row.get("nets").and_then(Value::as_i64) == Some(bits as i64))
        .unwrap_or_else(|| panic!("BENCH_shard.json has no {bits}-net row"));
    match row.get("fingerprint") {
        Some(Value::Str(fp)) => fp.clone(),
        other => panic!("{bits}-net row has no fingerprint: {other:?}"),
    }
}

fn run_full() {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    // Criterion 1, in-process: thread identity at the smallest size.
    let in_process = assert_identity(SIZES[0], 0);

    let mut rows: Vec<Value> = Vec::new();
    for &bits in &SIZES {
        let (wall_s, rss, fp, stages) = spawn_cell(bits);
        if bits == SIZES[0] {
            assert_eq!(
                fp, in_process,
                "{bits} bits: the child's plan diverged from the in-process one"
            );
        }
        println!(
            "{bits} bits: wall {wall_s:.2} s, peak RSS {rss} KiB, plan {fp}, stage ms {}",
            stages.compact()
        );
        rows.push(Value::object(vec![
            ("nets", Value::from(bits)),
            ("wall_s", Value::from(wall_s)),
            ("peak_rss_kib", Value::from(rss as usize)),
            ("fingerprint", Value::from(fp)),
            ("stage_ms", stages),
        ]));
    }

    let out = Value::object(vec![
        ("benchmark", Value::from("die_scale_flow")),
        ("hardware_threads", Value::from(hardware)),
        ("seed", Value::from(HARNESS_SEED as usize)),
        ("sizes", Value::Array(rows)),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, out.pretty() + "\n").expect("write BENCH_shard.json");
    println!("wrote {path}");
}
