//! Measures the branch-and-bound selector and writes `BENCH_ilp.json`
//! at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin ilp_bench
//! cargo run -p operon-bench --release --bin ilp_bench -- --smoke
//! ```
//!
//! Three measurements:
//!
//! 1. **Fixtures** — the full ILP selection (`select_ilp`, LR warm
//!    start, 4 dB loss budget so crossing constraints bind) on two
//!    fixtures: best wall time of [`ITERS`] runs, explored nodes, LP
//!    solves, simplex iterations and the selected power. Every run must
//!    solve to proven optimality and repeat the same search (asserted).
//! 2. **Warm start** — the shipped `Model::solve` against the same
//!    search with `warm_start_basis: false` (cold LP solves at every
//!    node) over a battery of random models: the warm solve must stay
//!    within 5% of the cold one in wall time (asserted) and must spend
//!    fewer simplex iterations in total (asserted).
//! 3. **Order pin** — search counters totalled over a second battery of
//!    small models with equality constraints. Their LP relaxations are
//!    often degenerate, so bounds tie and the explored tree depends on
//!    the exact pop order.
//!
//! `--smoke` runs each fixture's selection and each battery arm once
//! and asserts that explored nodes, LP solves, simplex iterations and
//! the fixtures' power bits equal the committed `BENCH_ilp.json`, read
//! at run time, so a change that moves the search fails CI. The fixtures
//! and the first battery explore the same nodes in any pop order (the
//! fixtures' LR warm start is already optimal), so the order battery is
//! what pins the best-first order. `--smoke` skips the timing and the
//! JSON write.
//!
//! Numbers in the committed `BENCH_ilp.json` come from whatever machine
//! last ran this binary; `hardware_threads` records its thread count.

use operon::config::OperonConfig;
use operon::formulation::{select_ilp, SelectionResult};
use operon::lr::{select_lr, LrWorkspace};
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::json::{self, Value};
use operon_exec::{Executor, Stopwatch};
use operon_ilp::{Model, SolveOptions, SolveStats, VarId};
use operon_netlist::synth::{generate, SynthConfig};
use std::time::Duration;

const ITERS: u32 = 3;

/// The fixtures: name, generator and seed.
fn fixtures() -> [(&'static str, SynthConfig, u64); 2] {
    [
        ("I1_small_seed42", SynthConfig::small(), 42),
        ("I2_medium_seed3", SynthConfig::medium(), 3),
    ]
}

/// The battery arms: JSON key prefix and solver options.
fn arms() -> [(&'static str, SolveOptions); 2] {
    let cold = SolveOptions {
        warm_start_basis: false,
        ..SolveOptions::default()
    };
    [("warm", SolveOptions::default()), ("cold", cold)]
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--smoke") {
        run_smoke();
        return;
    }
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    let rows: Vec<Value> = fixtures()
        .iter()
        .map(|(name, synth, seed)| bench_fixture(name, synth, *seed))
        .collect();
    let report = Value::object(vec![
        ("benchmark", Value::from("ilp_search")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("fixtures", Value::Array(rows)),
        ("warm_start", bench_warm_vs_cold()),
        ("order_pin", bench_order()),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ilp.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_ilp.json");
    println!("wrote {path}");
}

/// The search counters `--smoke` pins, by JSON key.
fn counters(stats: &SolveStats) -> [(&'static str, u64); 3] {
    [
        ("nodes_explored", stats.nodes_explored as u64),
        ("lp_solves", stats.lp_solves as u64),
        ("simplex_iterations", stats.simplex_iterations),
    ]
}

/// One fixture's selection problem: the candidates, their crossing
/// index, the configuration and the LR warm start.
struct Fixture {
    candidates: Vec<operon::codesign::NetCandidates>,
    crossings: CrossingIndex,
    config: OperonConfig,
    warm_choice: Vec<usize>,
}

impl Fixture {
    fn new(synth: &SynthConfig, seed: u64) -> Fixture {
        // A loss budget tight enough that crossing constraints bind, so
        // the selector genuinely branches instead of presolving
        // everything away.
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
        Fixture {
            candidates,
            crossings,
            config,
            warm_choice: warm.choice,
        }
    }

    /// One exact selection, which must finish and search.
    fn select(&self, name: &str) -> (SelectionResult, SolveStats) {
        let sel = select_ilp(
            &self.candidates,
            &self.crossings,
            &self.config.optical,
            Duration::from_secs(600),
            Some(&self.warm_choice),
        )
        .expect("selection succeeds");
        assert!(sel.proven_optimal, "{name}: budget must suffice");
        let stats = sel.ilp_stats.expect("ILP path carries stats");
        assert!(stats.nodes_explored > 0, "{name}: fixture must search");
        (sel, stats)
    }
}

/// Asserts that every counter equals `row`'s `{prefix}{key}` entry.
fn assert_pinned(what: &str, row: &Value, prefix: &str, counters: [(&str, u64); 3]) {
    for (key, value) in counters {
        let key = format!("{prefix}{key}");
        let want = row
            .get(&key)
            .and_then(Value::as_i64)
            .unwrap_or_else(|| panic!("BENCH_ilp.json: {what} has no {key}"));
        assert_eq!(
            i64::try_from(value).ok(),
            Some(want),
            "{what}: {key} moved from the value pinned in BENCH_ilp.json"
        );
    }
}

fn run_smoke() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ilp.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_ilp.json");
    let bench = json::parse(&text).expect("BENCH_ilp.json is valid JSON");
    let rows = bench
        .get("fixtures")
        .and_then(Value::as_array)
        .expect("BENCH_ilp.json has a fixtures array");
    for (name, synth, seed) in fixtures() {
        let row = rows
            .iter()
            .find(|row| row.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("BENCH_ilp.json has no {name} row"));
        let (sel, stats) = Fixture::new(&synth, seed).select(name);
        assert_pinned(name, row, "", counters(&stats));
        let power = row.get("power_mw").and_then(Value::as_f64);
        assert_eq!(
            power.map(f64::to_bits),
            Some(sel.power_mw.to_bits()),
            "{name}: power moved from the {power:?} mW pinned in BENCH_ilp.json"
        );
        println!(
            "{name}: {} nodes, {} LP solves, {} simplex iterations, {} mW, as pinned",
            stats.nodes_explored, stats.lp_solves, stats.simplex_iterations, sel.power_mw
        );
    }
    let warm_row = bench
        .get("warm_start")
        .expect("BENCH_ilp.json has warm_start");
    let models = battery();
    for (arm, opts) in arms() {
        let totals = battery_totals(&models, &opts);
        assert_pinned("battery", warm_row, &format!("{arm}_"), counters(&totals));
    }
    let order_row = bench
        .get("order_pin")
        .expect("BENCH_ilp.json has order_pin");
    let totals = battery_totals(&order_battery(), &SolveOptions::default());
    assert_pinned("order battery", order_row, "", counters(&totals));
    println!("ilp_bench --smoke: every fixture and battery arm repeats its pinned search");
}

/// Times `select_ilp` on one fixture and asserts that every run repeats
/// the same search.
fn bench_fixture(name: &str, synth: &SynthConfig, seed: u64) -> Value {
    let fixture = Fixture::new(synth, seed);
    let mut best_ms = f64::INFINITY;
    let mut runs = Vec::new();
    for _ in 0..ITERS {
        let sw = Stopwatch::start();
        let run = fixture.select(name);
        best_ms = best_ms.min(sw.elapsed().as_secs_f64() * 1e3);
        runs.push(run);
    }
    let (sel, stats) = &runs[0];
    for (other, other_stats) in &runs[1..] {
        assert_eq!(stats, other_stats, "{name}: search repeats");
        assert_eq!(sel.power_mw.to_bits(), other.power_mw.to_bits());
    }
    let nodes_per_sec = stats.nodes_explored as f64 / (best_ms / 1e3);
    println!(
        "{name}: {} nodes, {} LP solves, {} simplex iterations, {} mW, \
         best of {ITERS} = {best_ms:.1} ms, {nodes_per_sec:.0} nodes/s",
        stats.nodes_explored, stats.lp_solves, stats.simplex_iterations, sel.power_mw
    );
    let mut fields = vec![
        ("name", Value::from(name)),
        ("hyper_nets", Value::from(fixture.candidates.len())),
        ("best_wall_ms", Value::from(best_ms)),
    ];
    fields.extend(counters(stats).map(|(k, v)| (k, Value::from(v))));
    fields.push(("power_mw", Value::from(sel.power_mw)));
    fields.push(("nodes_per_sec", Value::from(nodes_per_sec)));
    Value::object(fields)
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

/// The battery's search counters under `opts`, summed over every model.
fn battery_totals(models: &[Model], opts: &SolveOptions) -> SolveStats {
    let mut totals = SolveStats::default();
    for m in models {
        totals.accumulate(&m.solve(opts).stats());
    }
    totals
}

/// Times the shipped warm-start solve against the cold one over the
/// battery, totals their search counters, and asserts the 5% wall time
/// guard and the simplex-iteration cut.
fn bench_warm_vs_cold() -> Value {
    let models = battery();
    let mut best_ms = [f64::INFINITY; 2];
    let mut totals = [SolveStats::default(); 2];
    for _ in 0..ITERS {
        for (slot, (_, opts)) in arms().iter().enumerate() {
            let sw = Stopwatch::start();
            totals[slot] = battery_totals(&models, opts);
            best_ms[slot] = best_ms[slot].min(sw.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [warm_ms, cold_ms] = best_ms;
    let [warm, cold] = totals;
    let ratio = warm_ms / cold_ms;
    println!(
        "warm vs cold: {warm_ms:.2} ms vs {cold_ms:.2} ms (ratio {ratio:.3}), \
         simplex iterations {} vs {}",
        warm.simplex_iterations, cold.simplex_iterations
    );
    assert!(
        ratio <= 1.05,
        "warm-start solve regressed beyond 5% of the cold search ({ratio:.3})"
    );
    assert!(
        warm.simplex_iterations < cold.simplex_iterations,
        "warm-start hints must cut simplex iterations"
    );
    let mut fields: Vec<(String, Value)> = [
        ("warm_best_ms", Value::from(warm_ms)),
        ("cold_best_ms", Value::from(cold_ms)),
        ("ratio", Value::from(ratio)),
        ("criterion", Value::from("warm <= 1.05 * cold")),
    ]
    .map(|(k, v)| (k.to_owned(), v))
    .into();
    for (arm, stats) in [("warm", &warm), ("cold", &cold)] {
        for (key, value) in counters(stats) {
            fields.push((format!("{arm}_{key}"), Value::from(value)));
        }
    }
    fields.push((
        "iteration_ratio".to_owned(),
        Value::from(warm.simplex_iterations as f64 / cold.simplex_iterations as f64),
    ));
    Value::object(fields)
}

/// Models in the order battery.
const ORDER_MODELS: usize = 200;

/// Small random models (8–15 binaries) mixing `<=`, `>=` and `=` rows
/// with small integer coefficients, whose degenerate relaxations make
/// the explored tree sensitive to the pop order.
fn order_battery() -> Vec<Model> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut models = Vec::with_capacity(ORDER_MODELS);
    for _ in 0..ORDER_MODELS {
        let n = 8 + rng.below(8) as usize;
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        for _ in 0..rng.below(6) {
            let mut expr: Vec<(f64, VarId)> = Vec::new();
            for &v in &vars {
                if rng.below(10) < 6 {
                    expr.push((rng.below(11) as f64 - 5.0, v));
                }
            }
            if expr.is_empty() {
                continue;
            }
            let rhs = rng.below(11) as f64 - 4.0;
            match rng.below(3) {
                0 => m.add_le(expr, rhs),
                1 => m.add_ge(expr, rhs),
                _ => m.add_eq(expr, rhs),
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

/// The order battery's search counters.
fn bench_order() -> Value {
    let totals = battery_totals(&order_battery(), &SolveOptions::default());
    println!(
        "order battery: {} nodes, {} LP solves, {} simplex iterations",
        totals.nodes_explored, totals.lp_solves, totals.simplex_iterations
    );
    let mut fields = vec![("models", Value::from(ORDER_MODELS))];
    fields.extend(counters(&totals).map(|(k, v)| (k, Value::from(v))));
    Value::object(fields)
}
