//! Measures when the executor's stage maps pay for their workers, and
//! writes `BENCH_exec.json` at the repository root.
//!
//! ```text
//! cargo run -p operon-bench --release --bin exec_bench
//! cargo run -p operon-bench --release --bin exec_bench -- --smoke
//! ```
//!
//! The inputs are the serve workload's design (`die_scale(2_000)`), the
//! 10k-bit die and (full run only) Table 1's I1–I5, all synthesized from
//! the Table 1 harness seed and routed under the default configuration.
//! Every timing is the best of N runs, the two arms alternating. Four
//! sections:
//!
//! 1. **LR break-even sweep.** For growing hyper-net prefixes of the
//!    serve design and the 10k die, one pricing-shaped map, run inline
//!    and spawned on two workers: each net evaluates every candidate's
//!    loaded losses with `loaded_path_losses_for`, which scans the
//!    candidate's paths and crossing-neighbor entries as a pricing pass
//!    does. A row's work is those paths plus entries, the unit of
//!    `LrStats::map_work`. The sweep records the smallest work from
//!    which two workers beat one at every larger point;
//!    `LR_PARALLEL_MIN_WORK` sits above it.
//! 2. **WDM stage on optical prefixes.** `wdm::plan` as shipped at 1
//!    and 2 workers, with only a growing prefix of each input's optical
//!    nets kept optical: each row's component count, work
//!    (`WdmStats::map_work`) and whether the component map ran parallel.
//!    Rows below `WDM_PARALLEL_MIN_WORK` run the same inline loop on
//!    both sides; the rows above it show what two workers gain there.
//! 3. **Stage decisions and identity.** On each whole input, the LR and
//!    WDM map work and decisions, and `select_lr`'s best time at 1 and 2
//!    workers. `select_lr`'s choice, power bits and counters and
//!    `wdm::plan`'s fingerprint and counters are equal at 1, 2 and 8
//!    workers (asserted), on inputs that fall on both sides of both
//!    break-evens (asserted).
//! 4. **Flow.** The whole flow on the medium fixture at 1, 2 and 8
//!    workers: best wall time, and bit-identical results (asserted).
//!
//! One floor, a same-run ratio: on a host with at least 2 CPUs, two
//! workers run the serve design's `select_lr` at ≥ 0.95× the speed of
//! one (asserted). Its maps sit below the break-even, so both runs take
//! the same inline loop; the floor catches a return to spawning there,
//! not noise.
//!
//! `--smoke` shrinks the sweeps and skips Table 1 and the JSON write,
//! keeping every identity assertion and the floor — the CI gate.
//!
//! Numbers in the committed `BENCH_exec.json` come from whatever machine
//! last ran this binary; `hardware_threads` records the truth.

use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::formulation::{loaded_path_losses_for, SelectionResult};
use operon::lr::{select_lr, LrWorkspace};
use operon::wdm::{self, WdmPlan};
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_exec::json::Value;
use operon_exec::{Executor, Stopwatch};
use operon_netlist::synth::{generate, paper_suite, SynthConfig};
use operon_netlist::Design;

/// Synthesis seed of every circuit: the Table 1 harness seed, which the
/// end-to-end benchmark's circuits use too.
const SEED: u64 = 2018;
/// Timed runs per arm of an LR sweep point, whose maps take µs.
const SWEEP_ITERS: u32 = 25;
/// Timed runs per arm of a WDM prefix or a `select_lr` call.
const STAGE_ITERS: u32 = 9;
/// Timed runs per thread count of the flow section.
const FLOW_ITERS: u32 = 3;
/// Floor on one worker's time over two workers' for the serve `select_lr`.
const MIN_SERVE_SPEED_2_VS_1: f64 = 0.95;
const THREADS: [usize; 3] = [1, 2, 8];

/// One routed input: its candidates, crossing index, resolved
/// configuration, LR selection and the LR gate's map work.
struct Input {
    label: String,
    nets: Vec<NetCandidates>,
    crossings: CrossingIndex,
    config: OperonConfig,
    choice: Vec<usize>,
    lr_map_work: u64,
}

impl Input {
    /// The first `limit` hyper nets of `design` (all when `None`), as the
    /// flow generates their candidates under the default configuration.
    fn new(label: &str, design: &Design, limit: Option<usize>) -> Self {
        let config = OperonConfig::default();
        let hyper = build_hyper_nets(design, &config.cluster);
        let hyper = &hyper[..limit.unwrap_or(hyper.len()).min(hyper.len())];
        let config = config.resolved_for(hyper.iter().map(|n| n.bit_count()));
        let nets: Vec<NetCandidates> = hyper
            .iter()
            .enumerate()
            .map(|(i, n)| generate_candidates(n, i, &config))
            .collect();
        let exec = Executor::sequential();
        let crossings = CrossingIndex::build_with(&nets, &exec);
        let mut input = Self {
            label: label.to_owned(),
            nets,
            crossings,
            config,
            choice: Vec::new(),
            lr_map_work: 0,
        };
        let selection = input.select(&exec);
        input.choice = selection.choice;
        input.lr_map_work = selection.lr_stats.expect("LR stats").map_work;
        input
    }

    fn select(&self, exec: &Executor) -> SelectionResult {
        select_lr(
            &self.nets,
            &self.crossings,
            &self.config,
            exec,
            &mut LrWorkspace::new(),
        )
    }

    /// The WDM plan of `choice` on `exec`.
    fn plan(&self, choice: &[usize], exec: &Executor) -> WdmPlan {
        wdm::plan(&self.nets, choice, &self.config.optical, None, exec)
            .expect("feasible plan")
            .0
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let serve_design = generate(&SynthConfig::die_scale(2_000), SEED);
    let die_design = generate(&SynthConfig::die_scale(10_000), SEED);
    let lr_sweeps = bench_lr_sweeps(
        &[("serve_die2k", &serve_design), ("die10k", &die_design)],
        smoke,
    );

    let mut inputs = vec![
        Input::new("serve_die2k", &serve_design, None),
        Input::new("die10k", &die_design, None),
    ];
    if !smoke {
        for cfg in paper_suite() {
            inputs.push(Input::new(&cfg.name, &generate(&cfg, SEED), None));
        }
    }
    let wdm_prefixes = bench_wdm_prefixes(&inputs, smoke);
    let (stages, serve_speed) = bench_stages(&inputs);
    let flow = bench_flow();

    println!("serve select_lr speed, 2 workers vs 1: {serve_speed:.3}x");
    if hardware >= 2 {
        assert!(
            serve_speed >= MIN_SERVE_SPEED_2_VS_1,
            "serve select_lr at 2 workers ran at {serve_speed:.3}x one worker's speed \
             (floor {MIN_SERVE_SPEED_2_VS_1})"
        );
    }

    if smoke {
        println!("exec_bench --smoke: identity at threads 1/2/8 and the serve floor passed");
        return;
    }
    let report = Value::object(vec![
        ("benchmark", Value::from("exec_map_break_even")),
        ("hardware_threads", Value::from(hardware)),
        ("seed", Value::from(SEED)),
        (
            "lr_sweep_iters_per_arm",
            Value::from(u64::from(SWEEP_ITERS)),
        ),
        ("stage_iters_per_arm", Value::from(u64::from(STAGE_ITERS))),
        ("lr_sweeps", lr_sweeps),
        ("wdm_prefixes", wdm_prefixes),
        ("stages", Value::Array(stages)),
        ("serve_select_lr_speed_2_vs_1", Value::from(serve_speed)),
        ("serve_floor", Value::from(MIN_SERVE_SPEED_2_VS_1)),
        ("flow", flow),
        ("identical_results", Value::from(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, report.pretty() + "\n").expect("write BENCH_exec.json");
    println!("wrote {path}");
}

/// Best wall times, in µs, of `iters` alternating runs of `a` and `b`.
fn best_pair_us<A, B>(
    iters: u32,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        let sw = Stopwatch::start();
        std::hint::black_box(a());
        best_a = best_a.min(sw.elapsed().as_secs_f64() * 1e6);
        let sw = Stopwatch::start();
        std::hint::black_box(b());
        best_b = best_b.min(sw.elapsed().as_secs_f64() * 1e6);
    }
    (best_a, best_b)
}

/// The smallest work from which two workers beat one at every larger
/// sweep point, or `None` when they lose at the last one. `points` are
/// `(work, one worker µs, two workers µs)`, ascending by work.
fn break_even(points: &[(u64, f64, f64)]) -> Option<u64> {
    let mut since = None;
    for &(work, one, two) in points {
        if two < one {
            since.get_or_insert(work);
        } else {
            since = None;
        }
    }
    since
}

/// Section 1: for growing hyper-net prefixes of each design, the
/// pricing-shaped map inline against two spawned workers.
fn bench_lr_sweeps(designs: &[(&str, &Design)], smoke: bool) -> Value {
    // Prefix lengths in hyper nets: the serve design has 86, the 10k die
    // 421; the work grows about quadratically with them.
    let limits: [&[usize]; 2] = [
        &[8, 16, 24, 32, 48, 64, 86],
        &[32, 64, 80, 96, 112, 128, 160, 192, 256, 384, 512],
    ];
    let (one, two) = (Executor::sequential(), Executor::new(2));
    let mut out = Vec::new();
    for (&(label, design), limits) in designs.iter().zip(limits) {
        println!("LR map sweep, {label} (best of {SWEEP_ITERS}, inline vs 2 workers):");
        let limits = if smoke { &limits[..2] } else { limits };
        let mut rows = Vec::new();
        let mut points = Vec::new();
        for &limit in limits {
            let input = Input::new(label, design, Some(limit));
            let lib = &input.config.optical;
            let map = |exec: &Executor| {
                exec.par_map_indexed(&input.nets, |i, nc| {
                    (0..nc.candidates.len())
                        .map(|j| {
                            let (nets, crossings) = (&input.nets, &input.crossings);
                            loaded_path_losses_for(nets, crossings, &input.choice, i, j, lib)
                                .iter()
                                .sum::<f64>()
                        })
                        .sum::<f64>()
                })
            };
            assert_eq!(map(&one), map(&two), "{label}: map results differ");
            let (inline, spawned) = best_pair_us(SWEEP_ITERS, || map(&one), || map(&two));
            let work = input.lr_map_work;
            println!(
                "  nets {:>4}  work {work:>8}  inline {inline:>8.1} us  2 workers {spawned:>8.1} us  ratio {:.2}",
                input.nets.len(),
                inline / spawned
            );
            rows.push(Value::object(vec![
                ("nets", Value::from(input.nets.len())),
                ("work", Value::from(work)),
                ("inline_us", Value::from(inline)),
                ("workers2_us", Value::from(spawned)),
            ]));
            points.push((work, inline, spawned));
        }
        let even = break_even(&points);
        println!("  {label}: two workers win from work {even:?}");
        out.push(Value::object(vec![
            ("input", Value::from(label)),
            ("rows", Value::Array(rows)),
            ("break_even_work", even.map_or(Value::Null, Value::from)),
        ]));
    }
    Value::Array(out)
}

/// Section 2: the WDM stage as shipped on growing prefixes of each
/// input's optical nets (the rest electrical), at 1 and 2 workers.
fn bench_wdm_prefixes(inputs: &[Input], smoke: bool) -> Value {
    let (one, two) = (Executor::sequential(), Executor::new(2));
    let sixteenths: &[usize] = if smoke {
        &[2, 16]
    } else {
        &[1, 2, 3, 4, 6, 8, 12, 16]
    };
    let mut out = Vec::new();
    for input in inputs {
        println!(
            "WDM stage on optical prefixes, {} (best of {STAGE_ITERS}):",
            input.label
        );
        let optical: Vec<usize> = (0..input.nets.len())
            .filter(|&i| input.choice[i] != input.nets[i].electrical_idx)
            .collect();
        let mut rows = Vec::new();
        for &k in sixteenths {
            let keep = optical.len() * k / 16;
            let mut choice: Vec<usize> = input.nets.iter().map(|nc| nc.electrical_idx).collect();
            for &i in &optical[..keep] {
                choice[i] = input.choice[i];
            }
            let stats = input.plan(&choice, &one).stats;
            let (t1, t2) = best_pair_us(
                STAGE_ITERS,
                || input.plan(&choice, &one),
                || input.plan(&choice, &two),
            );
            println!(
                "  optical {keep:>4}  components {:>3}  work {:>6}  parallel {:<5}  1 worker {t1:>8.0} us  2 workers {t2:>8.0} us  ratio {:.2}",
                stats.components,
                stats.map_work,
                stats.parallel,
                t1 / t2
            );
            rows.push(Value::object(vec![
                ("optical_nets", Value::from(keep)),
                ("components", Value::from(stats.components)),
                ("work", Value::from(stats.map_work)),
                ("parallel", Value::from(stats.parallel)),
                ("workers1_us", Value::from(t1)),
                ("workers2_us", Value::from(t2)),
            ]));
        }
        out.push(Value::object(vec![
            ("input", Value::from(input.label.as_str())),
            ("rows", Value::Array(rows)),
        ]));
    }
    Value::Array(out)
}

/// Section 3: each input's map work and decisions, `select_lr`'s best
/// wall time at 1 and 2 workers, and identity at every thread count.
/// Also returns the serve input's `select_lr` speed at 2 workers over 1.
fn bench_stages(inputs: &[Input]) -> (Vec<Value>, f64) {
    let (one, two) = (Executor::sequential(), Executor::new(2));
    let mut rows = Vec::new();
    let mut serve_speed = f64::NAN;
    let (mut lr_sides, mut wdm_sides) = ([false; 2], [false; 2]);
    println!("Stage decisions (select_lr best of {STAGE_ITERS}, 1 vs 2 workers):");
    for input in inputs {
        let base = input.select(&one);
        let plan = input.plan(&input.choice, &one);
        let lr = base.lr_stats.expect("LR stats");
        for threads in THREADS {
            let exec = Executor::new(threads);
            let label = format!("{} threads={threads}", input.label);
            let sel = input.select(&exec);
            assert_eq!(sel.choice, base.choice, "{label}: LR choice");
            assert_eq!(
                sel.power_mw.to_bits(),
                base.power_mw.to_bits(),
                "{label}: LR power bits"
            );
            assert_eq!(sel.lr_stats, base.lr_stats, "{label}: LR counters");
            let p = input.plan(&input.choice, &exec);
            assert_eq!(p.fingerprint(), plan.fingerprint(), "{label}: WDM plan");
            assert_eq!(p.stats, plan.stats, "{label}: WDM counters");
        }
        lr_sides[usize::from(lr.parallel)] = true;
        wdm_sides[usize::from(plan.stats.parallel)] = true;

        let (lr1, lr2) = best_pair_us(STAGE_ITERS, || input.select(&one), || input.select(&two));
        if input.label == "serve_die2k" {
            serve_speed = lr1 / lr2;
        }
        println!(
            "  {:<12} lr work {:>8} parallel {:<5} {lr1:>8.0} / {lr2:>8.0} us   wdm work {:>6} parallel {:<5}",
            input.label, lr.map_work, lr.parallel, plan.stats.map_work, plan.stats.parallel
        );
        rows.push(Value::object(vec![
            ("input", Value::from(input.label.as_str())),
            ("nets", Value::from(input.nets.len())),
            ("crossing_pairs", Value::from(input.crossings.len())),
            ("lr_map_work", Value::from(lr.map_work)),
            ("lr_parallel", Value::from(lr.parallel)),
            ("select_lr_us_1", Value::from(lr1)),
            ("select_lr_us_2", Value::from(lr2)),
            ("wdm_components", Value::from(plan.stats.components)),
            ("wdm_work", Value::from(plan.stats.map_work)),
            ("wdm_parallel", Value::from(plan.stats.parallel)),
        ]));
    }
    assert_eq!(
        lr_sides, [true; 2],
        "LR inputs on both sides of the break-even"
    );
    assert_eq!(
        wdm_sides, [true; 2],
        "WDM inputs on both sides of the break-even"
    );
    (rows, serve_speed)
}

/// Section 4: the whole flow on the medium fixture at 1, 2 and 8
/// workers, bit-identical (asserted).
fn bench_flow() -> Value {
    let design = generate(&SynthConfig::medium(), 3);
    let mut runs = Vec::new();
    let mut walls_ms = Vec::new();
    let mut baseline: Option<(Vec<usize>, u64)> = None;
    for threads in THREADS {
        let flow = OperonFlow::new(OperonConfig::default()).with_threads(threads);
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..FLOW_ITERS {
            let sw = Stopwatch::start();
            result = Some(flow.run(&design).expect("flow succeeds"));
            best = best.min(sw.elapsed().as_secs_f64() * 1e3);
        }
        let result = result.expect("at least one iteration");
        let fingerprint = (
            result.selection.choice.clone(),
            result.total_power_mw().to_bits(),
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(b) => assert_eq!(*b, fingerprint, "flow diverged at threads={threads}"),
        }
        println!("flow_medium threads={threads}: best of {FLOW_ITERS} = {best:.1} ms");
        walls_ms.push(best);
        runs.push(Value::object(vec![
            ("threads", Value::from(threads)),
            ("best_wall_ms", Value::from(best)),
        ]));
    }
    Value::object(vec![
        ("benchmark", Value::from("flow_medium_seed3")),
        ("iters_per_point", Value::from(u64::from(FLOW_ITERS))),
        ("runs", Value::Array(runs)),
        ("speedup_2_vs_1", Value::from(walls_ms[0] / walls_ms[1])),
        ("speedup_8_vs_1", Value::from(walls_ms[0] / walls_ms[2])),
    ])
}
