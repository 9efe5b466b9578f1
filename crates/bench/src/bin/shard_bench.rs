//! Measures the tile-sharded flow against the monolithic flow on
//! die-scale designs, and writes `BENCH_shard.json` at the repository
//! root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin shard_bench
//! cargo run -p operon-bench --release --bin shard_bench -- --smoke
//! ```
//!
//! Fixtures are `SynthConfig::die_scale` designs at 10k, 50k, and 100k
//! signal bits on a 5 cm die, seeded with [`HARNESS_SEED`]. Three
//! criteria:
//!
//! 1. **Identity**: `OperonFlow::with_tiles(..).run` must reproduce
//!    `OperonFlow::run` byte for byte — asserted in-process at the
//!    smallest size (candidate choices, power bits, WDM plan), and via
//!    plan fingerprints across every measured child process.
//! 2. **Peak memory**: at the largest size the sharded run's peak RSS
//!    (`VmHWM`) must be strictly below the unsharded run's. `VmHWM` is
//!    a monotone per-process high-water mark, so every (variant, size)
//!    cell re-executes this binary as a fresh child process
//!    (`--measure`) and reports its own peak.
//! 3. **Ratio floors are same-run**: every asserted ratio compares two
//!    measurements from this invocation — nothing is gated on numbers
//!    from another machine or an earlier commit.
//!
//! `--smoke` checks identity on a shrunken die-scale instance at tile
//! grids {2x2, 4x4} and thread counts {1, 2}, then routes the 10k die
//! once without tiles and checks its plan fingerprint against the 10k
//! entry of the committed `BENCH_shard.json`, read at run time, so a
//! solver change that moves any plan (a tie-break among equal-cost
//! flows, say) fails CI. It skips the child processes and the JSON
//! write — the cheap CI gate. `--probe
//! <variant> <bits>` runs one cell in-process and prints the executor
//! run report (per-stage wall + peak RSS) — the memory-attribution
//! tool this benchmark's acceptance bound was tuned with.
//!
//! Numbers in the committed `BENCH_shard.json` come from whatever
//! machine last ran this binary; `hardware_threads` records the truth.

use operon::config::OperonConfig;
use operon::flow::{FlowResult, OperonFlow};
use operon_bench::HARNESS_SEED;
use operon_exec::json::{self, Value};
use operon_exec::{peak_rss_kib, Stopwatch};
use operon_netlist::synth::{generate, SynthConfig};

/// Tile grid used for every sharded measurement.
const TILES: (usize, usize) = (4, 4);
/// Die-scale sizes, in signal bits ("#Net" of the paper's Table 1).
const SIZES: [usize; 3] = [10_000, 50_000, 100_000];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--measure") {
        return measure_child(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("--probe") {
        let variant = args.get(1).expect("--probe <variant> <bits>").clone();
        let bits: usize = args.get(2).and_then(|s| s.parse().ok()).expect("bits");
        let design = generate(&SynthConfig::die_scale(bits), HARNESS_SEED);
        let flow = flow_for(&variant);
        flow.run(&design).expect("flow");
        println!("{}", flow.executor().report().to_json());
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    if smoke {
        return run_smoke();
    }
    run_full();
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

/// The flow of one variant: `sharded` on the [`TILES`] grid, or
/// `unsharded`.
fn flow_for(variant: &str) -> OperonFlow {
    let flow = OperonFlow::new(OperonConfig::default());
    match variant {
        "sharded" => flow.with_tiles(TILES.0, TILES.1),
        "unsharded" => flow,
        other => panic!("unknown variant {other:?}"),
    }
}

fn run_variant(variant: &str, bits: usize) -> FlowResult {
    let design = generate(&SynthConfig::die_scale(bits), HARNESS_SEED);
    flow_for(variant)
        .run(&design)
        .expect("die-scale flow succeeds")
}

/// Child mode: route one (variant, size) cell and print a JSON line
/// with wall time, this process's peak RSS, and the plan fingerprint.
fn measure_child(args: &[String]) {
    let variant = args.first().expect("--measure <variant> <bits>");
    let bits: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .expect("--measure <variant> <bits>");
    let sw = Stopwatch::start();
    let result = run_variant(variant, bits);
    let wall_s = sw.elapsed().as_secs_f64();
    let line = Value::object(vec![
        ("variant", Value::from(variant.as_str())),
        ("bits", Value::from(bits)),
        ("wall_s", Value::from(wall_s)),
        ("peak_rss_kib", Value::from(peak_rss_kib())),
        (
            "fingerprint",
            Value::from(format!("{:016x}", fingerprint(&result))),
        ),
    ]);
    println!("{}", line.compact());
}

/// Spawns a fresh child for one (variant, size) cell and parses its
/// report.
fn spawn_cell(variant: &str, bits: usize) -> (f64, u64, String) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--measure", variant, &bits.to_string()])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "child {variant}/{bits} failed: {}",
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
    (wall, rss, fp)
}

fn assert_identity(bits: usize, tiles: (usize, usize), threads: usize) {
    let design = generate(&SynthConfig::die_scale(bits), HARNESS_SEED);
    let reference = OperonFlow::new(OperonConfig::default())
        .with_threads(1)
        .run(&design)
        .expect("reference flow");
    let sharded = OperonFlow::new(OperonConfig::default())
        .with_threads(threads)
        .with_tiles(tiles.0, tiles.1)
        .run(&design)
        .expect("sharded flow");
    assert_eq!(
        fingerprint(&reference),
        fingerprint(&sharded),
        "sharded plan diverged at {bits} bits, tiles {tiles:?}, {threads} threads"
    );
    assert_eq!(reference.selection.choice, sharded.selection.choice);
    assert_eq!(reference.wdm.wdms, sharded.wdm.wdms);
    assert_eq!(reference.hyper_nets, sharded.hyper_nets);
}

fn run_smoke() {
    for tiles in [(2, 2), (4, 4)] {
        for threads in [1, 2] {
            assert_identity(2_000, tiles, threads);
        }
    }
    let bits = SIZES[0];
    let pinned = pinned_fingerprint(bits);
    let routed = format!("{:016x}", fingerprint(&run_variant("unsharded", bits)));
    assert_eq!(
        routed, pinned,
        "{bits} bits: plan fingerprint moved from the one pinned in BENCH_shard.json"
    );
    println!("shard_bench --smoke: all identity checks passed ({bits} bits: {routed})");
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

    // Criterion 1, in-process: byte identity at the smallest size.
    assert_identity(SIZES[0], TILES, 0);

    let mut rows: Vec<Value> = Vec::new();
    let mut last_ratio = f64::NAN;
    for (pos, &bits) in SIZES.iter().enumerate() {
        let (wall_un, rss_un, fp_un) = spawn_cell("unsharded", bits);
        let (wall_sh, rss_sh, fp_sh) = spawn_cell("sharded", bits);
        assert_eq!(
            fp_un, fp_sh,
            "{bits} bits: sharded child's plan diverged from unsharded"
        );
        let rss_ratio = rss_sh as f64 / rss_un as f64;
        println!(
            "{bits} bits: wall {wall_un:.2} s -> {wall_sh:.2} s, \
             peak RSS {rss_un} KiB -> {rss_sh} KiB ({rss_ratio:.3}x)"
        );
        if pos == SIZES.len() - 1 {
            // Criterion 2, same-run: the acceptance bound at 100k.
            assert!(
                rss_sh < rss_un,
                "at {bits} bits the sharded peak RSS ({rss_sh} KiB) must be \
                 strictly below the unsharded run's ({rss_un} KiB)"
            );
            last_ratio = rss_ratio;
        }
        rows.push(Value::object(vec![
            ("nets", Value::from(bits)),
            ("unsharded_wall_s", Value::from(wall_un)),
            ("sharded_wall_s", Value::from(wall_sh)),
            ("unsharded_peak_rss_kib", Value::from(rss_un as usize)),
            ("sharded_peak_rss_kib", Value::from(rss_sh as usize)),
            ("peak_rss_ratio", Value::from(rss_ratio)),
            ("wall_ratio", Value::from(wall_sh / wall_un)),
            ("fingerprint", Value::from(fp_sh)),
        ]));
    }

    let out = Value::object(vec![
        ("benchmark", Value::from("tile_sharded_flow")),
        ("hardware_threads", Value::from(hardware)),
        (
            "tiles",
            Value::Array(vec![Value::Int(TILES.0 as i64), Value::Int(TILES.1 as i64)]),
        ),
        ("seed", Value::from(HARNESS_SEED as usize)),
        ("sizes", Value::Array(rows)),
        ("identical_results", Value::from(true)),
        ("peak_rss_ratio_at_largest", Value::from(last_ratio)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, out.pretty() + "\n").expect("write BENCH_shard.json");
    println!("wrote {path}");
}
