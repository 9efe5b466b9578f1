//! Measures the crossing/pricing kernels — the grid crossing build, the
//! incremental LR pricing loop, and the warm-started MCMF re-solves —
//! and writes
//! `BENCH_crossing.json` at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin crossing_bench
//! cargo run -p operon-bench --release --bin crossing_bench -- --smoke
//! ```
//!
//! Three measurements:
//!
//! 1. **Grid vs brute-force crossing build** over three
//!    segment-density regimes (sparse scattered nets, far-apart
//!    clusters, a crowded core where every bounding box overlaps every
//!    other) plus the Table 1 I2 candidate set, which stays above the
//!    build's parallel threshold at both sizes (`--smoke` takes its
//!    first 250 hyper nets). The grid build must be
//!    byte-identical to `CrossingIndex::build_reference` on every
//!    fixture at 1, 2, and 8 threads, and the I2 builds at 2 and 8
//!    threads must take the parallel path, so the identity gate covers
//!    the multi-range funnel (asserted). The timing criterion is a
//!    same-run ratio, so it holds on noisy shared hardware: the dense
//!    fixture's grid build at least 5× over brute force (asserted). Each
//!    row also records the built index's heap size (`index_kib`) and
//!    whether each thread count ran the parallel path.
//! 2. **Incremental vs reference LR pricing** on synthesized designs:
//!    wall time of `select_lr` (persistent workspace, as a resident
//!    session runs it) against the retained `select_lr_reference`
//!    full-recomputation loop, plus the priced/reused work counters.
//!    Choices and power must be bit-identical (asserted), the dirty
//!    sets must actually reuse some pricing or loaded-loss work
//!    (asserted), and the incremental loop must be at least as fast as
//!    the reference on the binding-budget I2 fixture (`speedup >= 1.0`,
//!    asserted; the other fixtures price in tens of microseconds,
//!    below scheduling noise) so the PR-4 bookkeeping regression can
//!    never silently return.
//! 3. **Warm vs cold MCMF re-solves**: the WDM tentative-deletion
//!    pattern on an assignment network — every single-waveguide deletion
//!    re-solved cold on a fresh network and warm from the committed flow
//!    and potentials. Flows and costs must match exactly and the warm
//!    path must run strictly fewer Dijkstra passes in total (asserted).
//!    The end-to-end `wdm::plan` vs `wdm::plan_cold_reference` wall
//!    times and work counters ride along.
//!
//! `--smoke` shrinks every fixture, keeps every identity assertion, and
//! skips the timing criteria and the JSON write — the cheap CI gate.
//!
//! Numbers in the committed `BENCH_crossing.json` come from whatever
//! machine last ran this binary; `hardware_threads` records the truth.

use operon::codesign::{analyze_assignment, generate_candidates, EdgeMedium, NetCandidates};
use operon::config::OperonConfig;
use operon::lr::{select_lr, select_lr_reference, LrWorkspace};
use operon::wdm;
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::json::Value;
use operon_exec::{Executor, Stopwatch};
use operon_geom::Point;
use operon_mcmf::{EdgeId, McmfGraph};
use operon_netlist::synth::{generate, paper_suite, SynthConfig};
use operon_optics::{ElectricalParams, OpticalLib};
use operon_steiner::{NodeKind, RouteTree};

const ITERS: u32 = 3;
/// The LR pricing fixtures run in tens of microseconds, so their
/// best-of-N needs far more repetitions than the millisecond-scale
/// builds for the minimum to converge under scheduler noise.
const LR_ITERS: u32 = 40;
const THREADS: [usize; 3] = [1, 2, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let builds = bench_crossing_builds(smoke);
    let lr = bench_lr_pricing(smoke);
    let (mcmf, plans) = bench_warm_mcmf(smoke);

    if smoke {
        println!("crossing_bench --smoke: all identity checks passed (brute/grid)");
        return;
    }

    let report = Value::object(vec![
        ("benchmark", Value::from("crossing_kernels")),
        ("iters_per_point", Value::from(u64::from(ITERS))),
        ("hardware_threads", Value::from(hardware)),
        ("crossing_build", Value::Array(builds)),
        ("lr_pricing", Value::Array(lr)),
        ("mcmf_warm_resolve", mcmf),
        ("wdm_plan", Value::Array(plans)),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crossing.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_crossing.json");
    println!("wrote {path}");
}

// ---------------------------------------------------------------------------
// Fixture synthesis
// ---------------------------------------------------------------------------

/// xorshift64* — the same tiny deterministic generator `ilp_bench` uses,
/// so fixtures need no external RNG crate.
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

/// A net whose single candidate is an optical chain through `pts`.
fn chain_net(net_index: usize, pts: &[Point]) -> NetCandidates {
    let mut tree = RouteTree::new(pts[0]);
    let mut prev = tree.root();
    for (i, &p) in pts.iter().enumerate().skip(1) {
        let kind = if i + 1 == pts.len() {
            NodeKind::Terminal
        } else {
            NodeKind::Steiner
        };
        prev = tree.add_child(prev, p, kind);
    }
    let cand = analyze_assignment(
        &tree,
        &vec![EdgeMedium::Optical; pts.len() - 1],
        1,
        &OpticalLib::paper_defaults(),
        &ElectricalParams::paper_defaults(),
    );
    NetCandidates {
        net_index,
        bits: 1,
        candidates: vec![cand],
        electrical_idx: 0,
        fanout_power_mw: 0.0,
    }
}

/// Sparse regime: short diagonals scattered over the whole die, so most
/// net-pair bounding boxes are disjoint and the reference prefilter is at
/// its best. The grid must merely not lose here.
fn sparse_nets(count: usize) -> Vec<NetCandidates> {
    let mut rng = XorShift(0xD1E5_4A11_5EED_0001);
    (0..count)
        .map(|i| {
            let x = rng.below(19_000) as i64;
            let y = rng.below(19_000) as i64;
            let dx = 200 + rng.below(600) as i64;
            let dy = 200 + rng.below(600) as i64;
            chain_net(i, &[Point::new(x, y), Point::new(x + dx, y + dy)])
        })
        .collect()
}

/// Clustered regime: hotspot groups of mutually crossing diagonals, with
/// the groups far apart — the bbox prefilter prunes inter-cluster pairs
/// but pays the full quadratic cost inside each hotspot.
fn clustered_nets(clusters: usize, per_cluster: usize) -> Vec<NetCandidates> {
    let mut rng = XorShift(0xC105_7E4E_D5EE_D002);
    let mut nets = Vec::new();
    for c in 0..clusters {
        let cx = (c as i64 % 4) * 6000;
        let cy = (c as i64 / 4) * 6000;
        for _ in 0..per_cluster {
            let i = nets.len();
            let x0 = cx + rng.below(900) as i64;
            let y0 = cy + rng.below(900) as i64;
            let x1 = cx + rng.below(900) as i64;
            let y1 = cy + rng.below(900) as i64;
            nets.push(chain_net(i, &[Point::new(x0, y0), Point::new(x1, y1)]));
        }
    }
    nets
}

/// Dense regime: concentric rectangular rings (12 segments each, so the
/// per-pair segment test is expensive) threaded by a few die-spanning
/// chords. Every bounding box contains the die center and overlaps every
/// other, so the reference build degenerates to all candidate pairs ×
/// all segment pairs while almost no pair actually crosses — the regime
/// the grid exists for. This is the fixture the ≥5× criterion runs on.
fn dense_nets(rings: usize, chords: usize) -> Vec<NetCandidates> {
    let size = 17_000i64;
    let inset_step = (size / 2 - 200) / rings as i64;
    let mut nets = Vec::new();
    for k in 0..rings {
        let a = k as i64 * inset_step;
        let b = size - a;
        let third = (b - a) / 3;
        // Walk the perimeter with each side split in three; stop one
        // third short of closing so the chain has no duplicate point.
        let pts = vec![
            Point::new(a, a),
            Point::new(a + third, a),
            Point::new(a + 2 * third, a),
            Point::new(b, a),
            Point::new(b, a + third),
            Point::new(b, a + 2 * third),
            Point::new(b, b),
            Point::new(b - third, b),
            Point::new(b - 2 * third, b),
            Point::new(a, b),
            Point::new(a, b - third),
            Point::new(a, b - 2 * third),
            Point::new(a, a + third),
        ];
        nets.push(chain_net(nets.len(), &pts));
    }
    let mut rng = XorShift(0xDE25_E5EE_D000_0003);
    for _ in 0..chords {
        let x0 = 301 + rng.below((size - 600) as u64) as i64;
        let x1 = 301 + rng.below((size - 600) as u64) as i64;
        nets.push(chain_net(
            nets.len(),
            &[Point::new(x0, -100), Point::new(x1, size + 100)],
        ));
    }
    nets
}

/// The candidate sets of a synthesized design's hyper nets, as the flow
/// generates them under `config`, and the configuration resolved for
/// the design.
fn design_candidates(
    config: OperonConfig,
    synth: &SynthConfig,
    seed: u64,
) -> (OperonConfig, Vec<NetCandidates>) {
    let design = generate(synth, seed);
    let nets = build_hyper_nets(&design, &config.cluster);
    let config = config.resolved_for(nets.iter().map(|n| n.bit_count()));
    let candidates = nets
        .iter()
        .enumerate()
        .map(|(i, n)| generate_candidates(n, i, &config))
        .collect();
    (config, candidates)
}

/// Table 1's I2 circuit (synthesized from the Table 1 harness seed):
/// the first `limit` hyper nets' candidate sets, or all of them.
fn paper_i2_nets(limit: Option<usize>) -> Vec<NetCandidates> {
    let (_, mut nets) = design_candidates(OperonConfig::default(), &paper_suite()[1], 2018);
    nets.truncate(limit.unwrap_or(nets.len()));
    nets
}

// ---------------------------------------------------------------------------
// 1. Grid vs brute-force crossing build
// ---------------------------------------------------------------------------

fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: pair count");
    for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
        assert_eq!(ka, kb, "{label}: keys");
        assert_eq!(va, vb, "{label}: records");
    }
}

fn bench_crossing_builds(smoke: bool) -> Vec<Value> {
    let scale = if smoke { 4 } else { 1 };
    // (name, nets, grid ≥5× vs brute?, above the parallel threshold?)
    let fixtures: Vec<(&str, Vec<NetCandidates>, bool, bool)> = vec![
        ("sparse_scattered", sparse_nets(240 / scale), false, false),
        (
            "clustered_hotspots",
            clustered_nets(8, 28 / scale),
            false,
            false,
        ),
        ("dense_core", dense_nets(320 / scale, 12), !smoke, false),
        ("paper_i2", paper_i2_nets(smoke.then_some(250)), false, true),
    ];
    let mut out = Vec::new();
    for (name, nets, must_speed_up, parallel) in fixtures {
        let reference = CrossingIndex::build_reference(&nets);
        let mut reference_ms = f64::INFINITY;
        for _ in 0..ITERS {
            let sw = Stopwatch::start();
            let r = CrossingIndex::build_reference(&nets);
            reference_ms = reference_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            assert_eq!(r.len(), reference.len(), "{name}: reference unstable");
        }

        let mut grid_seq_ms = f64::INFINITY;
        let mut index_kib = 0;
        let mut per_thread = Vec::new();
        for threads in THREADS {
            let exec = Executor::new(threads);
            let mut best_ms = f64::INFINITY;
            let mut ran_parallel = false;
            for _ in 0..ITERS {
                let sw = Stopwatch::start();
                let grid = CrossingIndex::build_with(&nets, &exec);
                best_ms = best_ms.min(sw.elapsed().as_secs_f64() * 1e3);
                assert_index_eq(
                    &grid,
                    &reference,
                    &format!("{name}, grid threads={threads}"),
                );
                if parallel && threads > 1 {
                    assert!(
                        grid.built_parallel(),
                        "{name}: threads={threads} must take the parallel path"
                    );
                }
                ran_parallel = grid.built_parallel();
                index_kib = grid.heap_bytes().div_ceil(1024);
            }
            if threads == 1 {
                grid_seq_ms = best_ms;
            }
            per_thread.push(Value::object(vec![
                ("threads", Value::from(threads)),
                ("best_wall_ms", Value::from(best_ms)),
                ("parallel", Value::from(ran_parallel)),
            ]));
        }

        let speedup = reference_ms / grid_seq_ms;
        println!(
            "crossing {name}: {nets} nets, {pairs} pairs, {index_kib} KiB index, \
             brute {reference_ms:.2} ms, grid {grid_seq_ms:.2} ms ({speedup:.1}x)",
            nets = nets.len(),
            pairs = reference.len(),
        );
        if must_speed_up {
            assert!(
                speedup >= 5.0,
                "{name}: grid build must be at least 5x faster than brute \
                 force ({speedup:.1}x)"
            );
        }
        out.push(Value::object(vec![
            ("name", Value::from(name)),
            ("nets", Value::from(nets.len())),
            ("crossing_pairs", Value::from(reference.len())),
            ("index_kib", Value::from(index_kib)),
            ("brute_force_best_ms", Value::from(reference_ms)),
            ("grid_best_ms", Value::from(grid_seq_ms)),
            ("speedup", Value::from(speedup)),
            ("grid_by_threads", Value::Array(per_thread)),
        ]));
    }
    out
}

// ---------------------------------------------------------------------------
// 2. Incremental vs reference LR pricing
// ---------------------------------------------------------------------------

fn bench_lr_pricing(smoke: bool) -> Vec<Value> {
    // The tightened 4 dB loss budget makes crossing constraints bind, so
    // the pricing loop runs its full iteration budget instead of
    // converging immediately. On the medium design at that budget every
    // net couples to a moving neighbor, so no pricing is reusable — the
    // honest worst case; it rides along at the default budget too, where
    // the dirty sets pay off.
    let mut fixtures = vec![(
        "I1_small_seed42_4db",
        SynthConfig::small(),
        42u64,
        Some(4.0),
    )];
    if !smoke {
        fixtures.push(("I2_medium_seed3_4db", SynthConfig::medium(), 3, Some(4.0)));
        fixtures.push(("I2_medium_seed3", SynthConfig::medium(), 3, None));
    }
    let mut out = Vec::new();
    for (name, synth, seed, budget) in fixtures {
        let mut config = OperonConfig::default();
        if let Some(db) = budget {
            config.optical.max_loss_db = db;
        }
        let (config, candidates) = design_candidates(config, &synth, seed);
        let crossings = CrossingIndex::build_with(&candidates, &Executor::sequential());

        let reference = select_lr_reference(&candidates, &crossings, &config);

        // A persistent workspace, as `WarmSession` holds one across
        // routes — reuse must never change the answer, only skip the
        // allocation cost, so every iteration is asserted identical.
        // Both loops finish in tens of microseconds, so the two timings
        // are interleaved over many repetitions and the minima compared:
        // machine-load drift then hits both sides equally instead of
        // whichever loop happened to run during a noisy stretch.
        let exec = Executor::sequential();
        let mut ws = LrWorkspace::new();
        let mut reference_ms = f64::INFINITY;
        let mut incremental_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..LR_ITERS {
            let sw = Stopwatch::start();
            let r = select_lr_reference(&candidates, &crossings, &config);
            reference_ms = reference_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            assert_eq!(r.choice, reference.choice, "{name}: reference unstable");

            let sw = Stopwatch::start();
            let r = select_lr(&candidates, &crossings, &config, &exec, &mut ws);
            incremental_ms = incremental_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let incremental = last.expect("at least one iteration");
        assert_eq!(
            incremental.choice, reference.choice,
            "{name}: incremental pricing diverged from the reference loop"
        );
        assert_eq!(
            incremental.power_mw.to_bits(),
            reference.power_mw.to_bits(),
            "{name}: power bits diverged"
        );
        let stats = incremental.lr_stats.expect("LR path carries stats");
        assert!(
            stats.reused_prices + stats.reused_loads > 0,
            "{name}: the dirty sets must reuse some pricing or load work"
        );
        assert_eq!(
            stats.priced_nets + stats.reused_prices,
            stats.iterations * candidates.len() as u64,
            "{name}: every net priced or reused each iteration"
        );

        let speedup = reference_ms / incremental_ms;
        let total = stats.priced_nets + stats.reused_prices;
        println!(
            "lr {name}: {n} nets, reference {reference_ms:.2} ms vs \
             incremental {incremental_ms:.2} ms ({speedup:.2}x), \
             priced {p}/{total} ({reused} reused)",
            n = candidates.len(),
            p = stats.priced_nets,
            reused = stats.reused_prices,
        );
        // The floor is asserted on the binding-budget I2 fixture only —
        // the one whose pricing loop runs its full iteration budget, so
        // the ratio is dominated by pricing work. The I1 design and the
        // default-budget I2 (which converges in two iterations) price
        // in tens of microseconds, where scheduling noise swamps the
        // ratio even with the interleaved best-of-N above.
        if !smoke && name.starts_with("I2") && name.ends_with("_4db") {
            assert!(
                speedup >= 1.0,
                "{name}: incremental LR pricing must be at least as fast as \
                 the reference loop ({speedup:.2}x) — the arena port exists \
                 to keep this true"
            );
        }
        out.push(Value::object(vec![
            ("name", Value::from(name)),
            ("hyper_nets", Value::from(candidates.len())),
            ("reference_best_ms", Value::from(reference_ms)),
            ("incremental_best_ms", Value::from(incremental_ms)),
            ("speedup", Value::from(speedup)),
            ("iterations", Value::from(stats.iterations)),
            ("priced_nets", Value::from(stats.priced_nets)),
            ("reused_prices", Value::from(stats.reused_prices)),
            ("load_evals", Value::from(stats.load_evals)),
            ("reused_loads", Value::from(stats.reused_loads)),
        ]));
    }
    out
}

// ---------------------------------------------------------------------------
// 3. Warm vs cold MCMF re-solves
// ---------------------------------------------------------------------------

/// An assignment network in the WDM-reduction shape: `conns` connections
/// of `bits` channels each, `wdms` waveguides of `capacity`, assignment
/// arcs costed by track distance.
struct Reduction {
    g: McmfGraph,
    conn_edges: Vec<EdgeId>,
    assign_edges: Vec<(usize, usize, EdgeId)>,
    wdm_edges: Vec<EdgeId>,
    demand: i64,
}

fn build_reduction(conns: usize, wdms: usize, bits: i64, capacity: i64) -> Reduction {
    let mut g = McmfGraph::new(2 + conns + wdms);
    let s = g.node(0);
    let t = g.node(1 + conns + wdms);
    let mut conn_edges = Vec::new();
    let mut assign_edges = Vec::new();
    let mut wdm_edges = Vec::new();
    for i in 0..conns {
        conn_edges.push(g.add_edge(s, g.node(1 + i), bits, 0));
    }
    for i in 0..conns {
        for w in 0..wdms {
            let cost = (i as i64 - (w as i64 * conns as i64 / wdms as i64)).abs();
            assign_edges.push((
                i,
                w,
                g.add_edge(g.node(1 + i), g.node(1 + conns + w), bits, cost),
            ));
        }
    }
    for w in 0..wdms {
        wdm_edges.push(g.add_edge(g.node(1 + conns + w), t, capacity, 10));
    }
    Reduction {
        g,
        conn_edges,
        assign_edges,
        wdm_edges,
        demand: conns as i64 * bits,
    }
}

/// Runs every single-waveguide tentative deletion cold and warm, asserts
/// the results identical, and returns the benchmark record.
fn bench_warm_mcmf(smoke: bool) -> (Value, Vec<Value>) {
    let (conns, wdms, bits, capacity) = if smoke {
        (6, 3, 10, 32)
    } else {
        (24, 8, 20, 96)
    };
    let mut committed = build_reduction(conns, wdms, bits, capacity);
    let s = committed.g.node(0);
    let t = committed.g.node(1 + conns + wdms);
    let full = committed.g.min_cost_max_flow(s, t);
    assert_eq!(
        full.flow, committed.demand,
        "committed solve must route all"
    );
    let prior = committed.g.potentials().to_vec();

    let mut cold_passes = 0u64;
    let mut warm_passes = 0u64;
    let mut warm_fallbacks = 0u64;
    let mut feasible_trials = 0u64;
    for deleted in 0..wdms {
        // Cold: fresh network with the waveguide's sink edge zeroed.
        let mut cold = build_reduction(conns, wdms, bits, capacity);
        cold.g.set_edge_capacity(cold.wdm_edges[deleted], 0);
        let cold_result = cold.g.min_cost_max_flow(s, t);
        cold_passes += cold.g.stats().dijkstra_passes;

        // Warm: withdraw the committed flow through the waveguide and
        // re-solve from the committed potentials.
        let mut warm = committed.g.clone();
        warm.reset_stats();
        for &(i, w, e) in &committed.assign_edges {
            if w != deleted {
                continue;
            }
            let f = warm.flow(e);
            if f > 0 {
                warm.withdraw_edge_flow(e, f);
                warm.withdraw_edge_flow(committed.conn_edges[i], f);
                warm.withdraw_edge_flow(committed.wdm_edges[deleted], f);
            }
        }
        warm.set_edge_capacity(committed.wdm_edges[deleted], 0);
        let warm_result = warm.min_cost_max_flow_warm(s, t, &prior);
        warm_passes += warm.stats().dijkstra_passes;
        warm_fallbacks += warm.stats().warm_fallbacks;

        assert_eq!(
            warm_result, cold_result,
            "deletion {deleted}: warm and cold re-solves must agree"
        );
        if cold_result.flow == committed.demand {
            feasible_trials += 1;
        }
    }
    assert!(
        warm_passes < cold_passes,
        "warm re-solves must run strictly fewer Dijkstra passes \
         ({warm_passes} vs {cold_passes})"
    );
    println!(
        "mcmf warm: {wdms} deletions ({feasible_trials} feasible), \
         {warm_passes} warm vs {cold_passes} cold Dijkstra passes \
         ({warm_fallbacks} fallbacks)"
    );
    let mcmf = Value::object(vec![
        ("connections", Value::from(conns)),
        ("waveguides", Value::from(wdms)),
        ("deletion_trials", Value::from(wdms)),
        ("feasible_trials", Value::from(feasible_trials)),
        ("warm_dijkstra_passes", Value::from(warm_passes)),
        ("cold_dijkstra_passes", Value::from(cold_passes)),
        (
            "pass_ratio",
            Value::from(warm_passes as f64 / cold_passes as f64),
        ),
        ("warm_fallbacks", Value::from(warm_fallbacks)),
    ]);

    // End-to-end: the warm-started WDM planner against the all-cold
    // reference on synthesized designs.
    let mut fixtures = vec![("I1_small_seed42", SynthConfig::small(), 42u64)];
    if !smoke {
        fixtures.push(("I2_medium_seed3", SynthConfig::medium(), 3));
    }
    let mut plans = Vec::new();
    for (name, synth, seed) in fixtures {
        let (config, candidates) = design_candidates(OperonConfig::default(), &synth, seed);
        let exec = Executor::sequential();
        let crossings = CrossingIndex::build_with(&candidates, &exec);
        let choice = select_lr(
            &candidates,
            &crossings,
            &config,
            &exec,
            &mut LrWorkspace::new(),
        );

        let mut cold_ms = f64::INFINITY;
        let mut cold_plan = None;
        for _ in 0..ITERS {
            let sw = Stopwatch::start();
            let p = wdm::plan_cold_reference(&candidates, &choice.choice, &config.optical)
                .expect("plan feasible");
            cold_ms = cold_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            cold_plan = Some(p);
        }
        let cold_plan = cold_plan.expect("at least one iteration");

        let mut warm_ms = f64::INFINITY;
        let mut warm_plan = None;
        for _ in 0..ITERS {
            let sw = Stopwatch::start();
            let (p, _) = wdm::plan(&candidates, &choice.choice, &config.optical, None, &exec)
                .expect("plan feasible");
            warm_ms = warm_ms.min(sw.elapsed().as_secs_f64() * 1e3);
            warm_plan = Some(p);
        }
        let warm_plan = warm_plan.expect("at least one iteration");

        assert_eq!(
            warm_plan.wdms, cold_plan.wdms,
            "{name}: warm planner must reproduce the cold reference plan"
        );
        assert_eq!(
            warm_plan.initial_count, cold_plan.initial_count,
            "{name}: initial waveguide count"
        );
        assert_eq!(
            warm_plan.stats.mcmf.warm_fallbacks, 0,
            "{name}: no warm trial may fall back to a cold solve"
        );
        println!(
            "wdm {name}: {w} waveguides, cold {cold_ms:.2} ms vs warm \
             {warm_ms:.2} ms, {trials} warm trials, {passes} Dijkstra passes",
            w = warm_plan.wdms.len(),
            trials = warm_plan.stats.warm_trials,
            passes = warm_plan.stats.mcmf.dijkstra_passes,
        );
        plans.push(Value::object(vec![
            ("name", Value::from(name)),
            ("waveguides", Value::from(warm_plan.wdms.len())),
            ("cold_reference_best_ms", Value::from(cold_ms)),
            ("warm_best_ms", Value::from(warm_ms)),
            ("cold_solves", Value::from(warm_plan.stats.cold_solves)),
            ("warm_trials", Value::from(warm_plan.stats.warm_trials)),
            (
                "dijkstra_passes",
                Value::from(warm_plan.stats.mcmf.dijkstra_passes),
            ),
            (
                "repair_rounds",
                Value::from(warm_plan.stats.mcmf.repair_rounds),
            ),
            (
                "warm_fallbacks",
                Value::from(warm_plan.stats.mcmf.warm_fallbacks),
            ),
        ]));
    }
    (mcmf, plans)
}
