//! Measures the wave-synchronous parallel branch-and-bound selector and
//! writes `BENCH_ilp.json` at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin ilp_bench
//! ```
//!
//! Three measurements:
//!
//! 1. **Threads × waves matrix** — the full ILP selection
//!    (`select_ilp`) over two crossing-bound fixtures, every
//!    combination of `threads ∈ {1, 2, 8}` and `wave_size ∈ {1, 8}`:
//!    best wall time, explored nodes, and nodes/second. Results at a
//!    fixed wave size must be bit-identical for every thread count
//!    (asserted), and all runs solve to proven optimality so every
//!    configuration must land on the same power (asserted).
//! 2. **Wave-1 regression guard** — the shipped `Model::solve` at
//!    `wave_size = 1` on one thread versus the pre-wave reference loop
//!    (`Model::solve_reference`) over a battery of random models; the
//!    wave path must stay within 5% of the old sequential solver
//!    (asserted; warm starts usually make it faster).
//! 3. **Warm-start effect** — total simplex iterations over the same
//!    battery with parent-basis rest hints on versus off.
//!
//! Numbers in the committed `BENCH_ilp.json` come from whatever machine
//! last ran this binary — on a 1-CPU container the threads>1 rows
//! measure overhead, not speedup; `hardware_threads` records the truth.

use operon::config::OperonConfig;
use operon::formulation::select_ilp;
use operon::lr::{select_lr, LrWorkspace};
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::json::Value;
use operon_exec::{Executor, Stopwatch};
use operon_ilp::{Model, SolveOptions, VarId};
use operon_netlist::synth::{generate, SynthConfig};
use std::time::Duration;

const ITERS: u32 = 3;
const THREADS: [usize; 3] = [1, 2, 8];
const WAVES: [usize; 2] = [1, 8];

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    let mut fixtures = Vec::new();
    for (name, synth, seed) in [
        ("I1_small_seed42", SynthConfig::small(), 42u64),
        ("I2_medium_seed3", SynthConfig::medium(), 3),
    ] {
        fixtures.push(bench_fixture(name, &synth, seed));
    }
    let (ratio, reference_ms, wave1_ms) = bench_wave1_vs_reference();
    let (warm_iters, cold_iters) = bench_warm_start();
    assert!(
        warm_iters < cold_iters,
        "warm-start hints must cut simplex iterations ({warm_iters} vs {cold_iters})"
    );

    let report = Value::object(vec![
        ("benchmark", Value::from("ilp_wave_search")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("fixtures", Value::Array(fixtures)),
        (
            "wave1_vs_reference",
            Value::object(vec![
                ("reference_best_ms", Value::from(reference_ms)),
                ("wave1_best_ms", Value::from(wave1_ms)),
                ("ratio", Value::from(ratio)),
                ("criterion", Value::from("wave1 <= 1.05 * reference")),
            ]),
        ),
        (
            "warm_start",
            Value::object(vec![
                ("warm_simplex_iterations", Value::from(warm_iters)),
                ("cold_simplex_iterations", Value::from(cold_iters)),
                (
                    "iteration_ratio",
                    Value::from(warm_iters as f64 / cold_iters as f64),
                ),
            ]),
        ),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ilp.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_ilp.json");
    println!("wrote {path}");
}

/// Times `select_ilp` over the threads × waves matrix on one
/// crossing-bound fixture and asserts the determinism contract.
fn bench_fixture(name: &str, synth: &SynthConfig, seed: u64) -> Value {
    // A loss budget tight enough that crossing constraints bind, so the
    // selector genuinely branches instead of presolving everything away.
    let mut config = OperonConfig::default();
    config.optical.max_loss_db = 4.0;

    let design = generate(synth, seed);
    let nets = build_hyper_nets(&design, &config.cluster);
    let config = config.resolved_for(nets.iter().map(|n| n.bit_count()));
    let candidates: Vec<_> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| operon::codesign::generate_candidates(n, i, &config))
        .collect();
    let seq = Executor::sequential();
    let crossings = CrossingIndex::build_with(&candidates, &seq);
    let warm = select_lr(
        &candidates,
        &crossings,
        &config,
        &seq,
        &mut LrWorkspace::new(),
    );

    let mut runs: Vec<Value> = Vec::new();
    let mut power_bits: Option<u64> = None;
    for wave_size in WAVES {
        let mut wave_fingerprint: Option<(Vec<usize>, u64)> = None;
        for threads in THREADS {
            let exec = Executor::new(threads);
            let mut best_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..ITERS {
                let sw = Stopwatch::start();
                let sel = select_ilp(
                    &candidates,
                    &crossings,
                    &config.optical,
                    Duration::from_secs(600),
                    Some(&warm.choice),
                    wave_size,
                    &exec,
                )
                .expect("selection succeeds");
                best_ms = best_ms.min(sw.elapsed().as_secs_f64() * 1e3);
                last = Some(sel);
            }
            let sel = last.expect("at least one iteration");
            assert!(sel.proven_optimal, "{name}: budget must suffice");
            let stats = sel.ilp_stats.expect("ILP path carries stats");
            assert!(stats.nodes_explored > 0, "{name}: fixture must search");

            let fingerprint = (sel.choice.clone(), sel.power_mw.to_bits());
            match &wave_fingerprint {
                None => wave_fingerprint = Some(fingerprint),
                Some(base) => assert_eq!(
                    *base, fingerprint,
                    "{name}: wave {wave_size} diverged at {threads} threads"
                ),
            }
            match power_bits {
                None => power_bits = Some(sel.power_mw.to_bits()),
                Some(bits) => assert_eq!(
                    bits,
                    sel.power_mw.to_bits(),
                    "{name}: optimum differs at wave {wave_size}"
                ),
            }

            let nodes_per_sec = stats.nodes_explored as f64 / (best_ms / 1e3);
            println!(
                "{name} wave={wave_size} threads={threads}: {nodes} nodes, \
                 best of {ITERS} = {best_ms:.1} ms, {nodes_per_sec:.0} nodes/s",
                nodes = stats.nodes_explored,
            );
            runs.push(Value::object(vec![
                ("wave_size", Value::from(wave_size)),
                ("threads", Value::from(threads)),
                ("best_wall_ms", Value::from(best_ms)),
                ("nodes_explored", Value::from(stats.nodes_explored)),
                ("lp_solves", Value::from(stats.lp_solves)),
                ("waves", Value::from(stats.waves)),
                ("simplex_iterations", Value::from(stats.simplex_iterations)),
                ("nodes_per_sec", Value::from(nodes_per_sec)),
            ]));
        }
    }
    Value::object(vec![
        ("name", Value::from(name)),
        ("hyper_nets", Value::from(nets.len())),
        ("runs", Value::Array(runs)),
    ])
}

/// xorshift64* — a tiny deterministic generator so the model battery
/// needs no external RNG crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A battery of random covering/packing models that genuinely branch.
fn battery() -> Vec<Model> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut models = Vec::new();
    for _ in 0..24 {
        let n = 12 + rng.below(6) as usize;
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        // Packing: a few knapsacks over random subsets.
        for _ in 0..4 {
            let mut expr: Vec<(f64, VarId)> = Vec::new();
            for &v in &vars {
                if rng.below(10) < 6 {
                    expr.push((1.0 + rng.below(5) as f64, v));
                }
            }
            if expr.is_empty() {
                continue;
            }
            let cap: f64 = expr.iter().map(|&(c, _)| c).sum::<f64>() / 2.0;
            m.add_le(expr, cap.floor());
        }
        // Covering: force some structure so all-zeros is infeasible.
        for _ in 0..2 {
            let mut expr: Vec<(f64, VarId)> = Vec::new();
            for &v in &vars {
                if rng.below(10) < 5 {
                    expr.push((1.0, v));
                }
            }
            if expr.len() >= 2 {
                m.add_ge(expr, 2.0);
            }
        }
        let obj: Vec<(f64, VarId)> = vars
            .iter()
            .map(|&v| (rng.below(19) as f64 - 9.0, v))
            .collect();
        m.set_objective(obj);
        models.push(m);
    }
    models
}

/// Compares the shipped wave-1 sequential solve against the pre-wave
/// reference loop and asserts the 5% regression criterion.
fn bench_wave1_vs_reference() -> (f64, f64, f64) {
    let models = battery();
    let opts = SolveOptions {
        wave_size: 1,
        executor: Executor::sequential(),
        ..SolveOptions::default()
    };
    let mut reference_ms = f64::INFINITY;
    let mut wave1_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let sw = Stopwatch::start();
        for m in &models {
            let _ = m.solve_reference(&opts);
        }
        reference_ms = reference_ms.min(sw.elapsed().as_secs_f64() * 1e3);

        let sw = Stopwatch::start();
        for m in &models {
            let _ = m.solve(&opts);
        }
        wave1_ms = wave1_ms.min(sw.elapsed().as_secs_f64() * 1e3);
    }
    let ratio = wave1_ms / reference_ms;
    println!("wave1 vs reference: {wave1_ms:.2} ms vs {reference_ms:.2} ms (ratio {ratio:.3})");
    assert!(
        ratio <= 1.05,
        "wave-1 solve regressed beyond 5% of the reference loop ({ratio:.3})"
    );
    (ratio, reference_ms, wave1_ms)
}

/// Totals simplex iterations over the battery with warm-start rest hints
/// on versus off.
fn bench_warm_start() -> (u64, u64) {
    let models = battery();
    let mut totals = [0u64; 2];
    for (slot, warm) in [(0usize, true), (1, false)] {
        let opts = SolveOptions {
            warm_start_basis: warm,
            ..SolveOptions::default()
        };
        for m in &models {
            totals[slot] += m.solve(&opts).stats().simplex_iterations;
        }
    }
    println!(
        "simplex iterations: warm {} vs cold {}",
        totals[0], totals[1]
    );
    (totals[0], totals[1])
}
