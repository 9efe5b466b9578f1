//! The sweep driver's determinism contract: warm-prefix sharing is a
//! speed-up, never a different answer. The warm sweep's objective
//! vectors are bitwise equal to cold-per-point evaluation, the Pareto
//! front is identical at 1, 2 and 8 threads and for any schedule seed,
//! and the emitted request trace replays through the serve daemon with
//! byte-equal route digests.

use operon::config::{Selector, KNOBS};
use operon_exec::json::{self, Value};
use operon_exec::Executor;
use operon_explore::lattice::{Axis, KnobValue, Lattice};
use operon_explore::sweep::{sweep, sweep_trace, SweepOptions, SweepResult};
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::Design;
use operon_serve::Server;

const THREADS: [usize; 3] = [1, 2, 8];

fn design() -> Design {
    generate(&SynthConfig::small(), 23)
}

/// max_loss splits the lattice into two co-design groups; lr_iters and
/// wdm_pitch vary only suffix stages inside each group.
fn lattice() -> Lattice {
    Lattice::new(
        vec![("capacity".to_owned(), KnobValue::Int(32))],
        vec![
            Axis::parse("max_loss=20,25").unwrap(),
            Axis::parse("lr_iters=6,10").unwrap(),
            Axis::parse("wdm_pitch=20,40").unwrap(),
        ],
    )
    .unwrap()
}

fn assert_bitwise_equal(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.fingerprint, y.fingerprint, "{what}: point {}", x.index);
        let (vx, vy) = (x.objectives.vector(), y.objectives.vector());
        for (k, (ox, oy)) in vx.iter().zip(&vy).enumerate() {
            assert_eq!(
                ox.to_bits(),
                oy.to_bits(),
                "{what}: objective {k} of point {} diverged",
                x.index
            );
        }
    }
    assert_eq!(a.front, b.front, "{what}: front");
}

#[test]
fn warm_front_is_bitwise_equal_to_cold_per_point_at_all_thread_counts() {
    let design = design();
    let lattice = lattice();
    let mut baseline: Option<SweepResult> = None;
    for threads in THREADS {
        let exec = Executor::new(threads);
        let warm = sweep(&design, &lattice, &exec, &SweepOptions::default()).unwrap();
        let cold = sweep(
            &design,
            &lattice,
            &exec,
            &SweepOptions {
                cold: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_bitwise_equal(&warm, &cold, &format!("warm vs cold at {threads} threads"));
        assert!(
            warm.stages_rerun < cold.stages_rerun,
            "warm sweep must re-run strictly fewer stages"
        );
        assert_eq!(cold.stages_reused, 0);
        assert_eq!(warm.groups, 2, "two max_loss values, two warm groups");
        if let Some(b) = &baseline {
            assert_bitwise_equal(b, &warm, &format!("threads 1 vs {threads}"));
            assert_eq!(b.stages_reused, warm.stages_reused);
            assert_eq!(b.stages_rerun, warm.stages_rerun);
        } else {
            baseline = Some(warm);
        }
    }
}

#[test]
fn schedule_seed_never_moves_the_front() {
    let design = design();
    let lattice = lattice();
    let exec = Executor::new(4);
    let mut baseline: Option<SweepResult> = None;
    for seed in [0u64, 1, 0xdead_beef] {
        let result = sweep(
            &design,
            &lattice,
            &exec,
            &SweepOptions {
                seed,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        if let Some(b) = &baseline {
            assert_bitwise_equal(b, &result, &format!("seed {seed}"));
        } else {
            baseline = Some(result);
        }
    }
}

/// Every knob of [`KNOBS`] set in the base, the ILP selector included,
/// plus one WDM-tier axis. The ILP budget is far above what the small
/// design needs, so its search always finishes and stays deterministic.
fn every_knob_lattice() -> Lattice {
    let base = vec![
        ("capacity", KnobValue::Int(16)),
        ("merge_threshold", KnobValue::Float(300.0)),
        ("max_loss", KnobValue::Int(24)),
        ("max_delay", KnobValue::Float(5000.0)),
        ("max_candidates", KnobValue::Int(6)),
        ("selector", KnobValue::Text("ilp:60".to_owned())),
        ("lr_iters", KnobValue::Int(8)),
        ("lr_converge", KnobValue::Float(0.02)),
        ("wdm_pitch", KnobValue::Int(20)),
        ("wdm_displacement", KnobValue::Int(500)),
    ];
    let mut names: Vec<&str> = base.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    let mut all = KNOBS;
    all.sort_unstable();
    assert_eq!(names, all, "the base names every knob");
    Lattice::new(
        base.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        vec![Axis::parse("wdm_pitch=20,40").unwrap()],
    )
    .unwrap()
}

#[test]
fn emitted_trace_replays_through_the_daemon_with_matching_digests() {
    assert_trace_replays(&lattice());
}

#[test]
fn trace_over_every_knob_replays_with_matching_digests() {
    let lattice = every_knob_lattice();
    assert_eq!(
        lattice.point(0).unwrap().config.selector,
        Selector::Ilp {
            time_limit_secs: 60
        }
    );
    assert_trace_replays(&lattice);
}

fn assert_trace_replays(lattice: &Lattice) {
    let design = design();
    let trace = sweep_trace(&design, lattice).unwrap();
    // open + (set_config + route) per point + report + close.
    assert_eq!(trace.lines().count(), 1 + 2 * lattice.len() + 2);

    let mut server = Server::new(Executor::sequential(), 1);
    let responses = server.run_trace(&trace);
    let mut route_powers: Vec<f64> = Vec::new();
    for line in responses.lines() {
        let value = json::parse(line).expect("daemon responses are JSON");
        assert_eq!(
            value.get("ok").and_then(Value::as_bool),
            Some(true),
            "replay rejected a request: {line}"
        );
        if value.get("op").and_then(Value::as_str) == Some("route") {
            route_powers.push(value.get("power_mw").and_then(Value::as_f64).unwrap());
        }
    }
    assert_eq!(route_powers.len(), lattice.len());

    // The daemon replay routes the same lattice points in index order;
    // its power digests are bit-equal to the sweep's objectives.
    let result = sweep(
        &design,
        lattice,
        &Executor::sequential(),
        &SweepOptions::default(),
    )
    .unwrap();
    for (record, power) in result.points.iter().zip(&route_powers) {
        assert_eq!(
            record.objectives.power_mw.to_bits(),
            power.to_bits(),
            "trace replay diverged at point {}",
            record.index
        );
    }
    // The last `set_config` line restates every knob of the last point:
    // the daemon ends on exactly that point's configuration.
    let report = responses
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("op").and_then(Value::as_str) == Some("report"))
        .expect("the trace ends with a report");
    let last = result.points.last().expect("lattices are never empty");
    assert_eq!(
        report.get("config_fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", last.fingerprint).as_str())
    );
}
