//! `serve_eco`: one closed-loop client driving the `operon_serve` daemon
//! over a die-scale design.
//!
//! Set-up opens the design and routes it cold. Then, in every 20
//! requests: 16 `eco_move_pins` orbit nudges, 2 `probe_wdm`, 1
//! `report` and 1 `set_config` toggling `wdm_displacement` between 60
//! and 600; every 100th request is an 8-bit `eco_add_bus` instead. The
//! untraced pass times `Server::handle_line`; the traced pass drives
//! `WarmSession` directly with the same operations.
//!
//! The run seed draws the request trace: which groups the ECOs move, in
//! which order and in which direction. The opened circuit is the same
//! for every seed, so the quality numbers differ between seeds only by
//! what the ECOs change.

use crate::layers::{self, candidate_count, ratio, LayerInputs, OpStages, StageCursor};
use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::{inputs, Pass, Scale, SETUP_REPS};
use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::session::{RouteSummary, WarmSession};
use operon::OperonError;
use operon_exec::json::{self, Value};
use operon_exec::{Executor, Stopwatch};
use operon_geom::Point;
use operon_netlist::io::{read_design, write_design};
use operon_netlist::synth::SynthConfig;
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
use operon_serve::{Request, Server};

const SESSION: &str = "bench";
const BUS_BITS: usize = 8;
const BUS_PITCH: i64 = 8;
/// Pin nudge of an `eco_move_pins` request, dbu.
const NUDGE: i64 = 24;
/// Every this many route-producing responses, one is checked against a
/// cold `OperonFlow::run` of the same mutated design.
const COLD_CHECK_EVERY: usize = 50;
/// Requests per trace cycle: the request mix repeats every 100 requests,
/// the last of which is an `eco_add_bus`. Every run completes the
/// first cycle, and the work counts, `power_mw`, `wdm_count` and
/// `peak_rss_mib` are taken over it, so they repeat exactly.
const CYCLE: usize = 100;

/// One request of the trace.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Move {
        group: usize,
        dx: i64,
        dy: i64,
    },
    Probe,
    Report,
    SetConfig {
        displacement: i64,
    },
    AddBus {
        name: String,
        source: Point,
        sink: Point,
    },
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Move { .. } => "eco_move_pins",
            Op::Probe => "probe_wdm",
            Op::Report => "report",
            Op::SetConfig { .. } => "set_config",
            Op::AddBus { .. } => "eco_add_bus",
        }
    }

    fn routes(&self) -> bool {
        matches!(self, Op::Move { .. } | Op::AddBus { .. })
    }

    fn line(&self) -> String {
        let mut fields = vec![
            ("op", Value::from(self.kind())),
            ("session", SESSION.into()),
        ];
        let point = |p: &Point| Value::Array(vec![Value::Int(p.x), Value::Int(p.y)]);
        match self {
            Op::Move { group, dx, dy } => {
                fields.push(("group", Value::from(*group)));
                fields.push(("dx", Value::Int(*dx)));
                fields.push(("dy", Value::Int(*dy)));
            }
            Op::SetConfig { displacement } => {
                fields.push(("wdm_displacement", Value::Int(*displacement)));
            }
            Op::AddBus { name, source, sink } => {
                fields.push(("name", Value::from(name.as_str())));
                fields.push(("bits", Value::from(BUS_BITS)));
                fields.push(("source", point(source)));
                fields.push(("sink", point(sink)));
                fields.push(("pitch", Value::Int(BUS_PITCH)));
            }
            Op::Probe | Op::Report => {}
        }
        Value::object(fields).compact()
    }
}

fn design_config(scale: Scale) -> SynthConfig {
    match scale {
        Scale::Full => SynthConfig::die_scale(2_000),
        Scale::Smoke => SynthConfig::medium(),
    }
}

fn request_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Smoke => 40,
    }
}

/// The request trace of run seed `seed`. Each group gets a seeded nudge
/// direction among those that keep all its pins on the die, and the
/// groups are visited round-robin in a seeded order. Consecutive moves
/// of a group alternate away from and back to its home position, so
/// every ECO is feasible.
pub fn plan_ops(design: &Design, count: usize, seed: u64) -> Vec<Op> {
    let die = design.die();
    let mut seeded = seed ^ 0x7ace_5eed;
    let mut draw = |n: usize| (inputs::splitmix(&mut seeded) % n as u64) as usize;
    let mut movable: Vec<(usize, (i64, i64))> = Vec::new();
    for (g, group) in design.groups().iter().enumerate() {
        let feasible: Vec<(i64, i64)> = [(NUDGE, 0), (-NUDGE, 0), (0, NUDGE), (0, -NUDGE)]
            .into_iter()
            .filter(|&(dx, dy)| {
                group.bits().iter().all(|b| {
                    b.pins()
                        .all(|p| die.contains(Point::new(p.x + dx, p.y + dy)))
                })
            })
            .collect();
        if !feasible.is_empty() {
            movable.push((g, feasible[draw(feasible.len())]));
        }
    }
    assert!(
        !movable.is_empty(),
        "no group of {} can be nudged",
        design.name()
    );
    for i in (1..movable.len()).rev() {
        movable.swap(i, draw(i + 1));
    }
    let mut away = vec![true; design.group_count()];
    let mut next = 0usize;
    let mut next_move = || {
        let (g, (dx, dy)) = movable[next % movable.len()];
        next += 1;
        let sign = if away[g] { 1 } else { -1 };
        away[g] = !away[g];
        Op::Move {
            group: g,
            dx: sign * dx,
            dy: sign * dy,
        }
    };
    // Bus pins depend on the circuit only: a seeded random bus would add
    // a different power to every run's counted prefix.
    let mut rng = inputs::CIRCUIT_SEED ^ 0x5e7e_ec05;
    let (lo, hi) = (die.lo(), die.hi());
    // Bus pins stay a tenth of the die inside its edges, so all eight
    // bits at BUS_PITCH fit.
    let pin = |rng: &mut u64| {
        let (w, h) = (hi.x - lo.x, hi.y - lo.y);
        let x = lo.x + w / 10 + (inputs::splitmix(rng) % (w as u64 * 8 / 10)) as i64;
        let y = lo.y + h / 10 + (inputs::splitmix(rng) % (h as u64 * 8 / 10)) as i64;
        Point::new(x, y)
    };
    let mut displacement = 600;
    (0..count)
        .map(|i| {
            if (i + 1) % CYCLE == 0 {
                return Op::AddBus {
                    name: format!("eco_bus_{i}"),
                    source: pin(&mut rng),
                    sink: pin(&mut rng),
                };
            }
            match i % 20 {
                0..=15 => next_move(),
                16 | 17 => Op::Probe,
                18 => Op::Report,
                _ => {
                    displacement = if displacement == 600 { 60 } else { 600 };
                    Op::SetConfig { displacement }
                }
            }
        })
        .collect()
}

/// The client's own copy of the session's design and configuration,
/// for the cold checks.
struct Mirror {
    design: Design,
    config: OperonConfig,
}

impl Mirror {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Move { group, dx, dy } => {
                let mut next = Design::new(self.design.name(), self.design.die());
                for g in self.design.groups() {
                    next.push_group(if g.id().index() == *group {
                        inputs::shifted(g, *dx, *dy)
                    } else {
                        g.clone()
                    });
                }
                self.design = next;
            }
            Op::AddBus { name, source, sink } => {
                let bits = (0..BUS_BITS)
                    .map(|i| {
                        let off = BUS_PITCH * i as i64;
                        Bit::new(
                            BitId::new(i as u32),
                            Point::new(source.x, source.y + off),
                            vec![Point::new(sink.x, sink.y + off)],
                        )
                    })
                    .collect();
                let id = GroupId::new(self.design.group_count() as u32);
                self.design
                    .push_group(SignalGroup::new(id, name.as_str(), bits));
            }
            Op::SetConfig { displacement } => {
                self.config.optical.wdm_max_displacement = *displacement;
            }
            Op::Probe | Op::Report => {}
        }
    }
}

/// Open-design request of the trace.
fn open_line(text: &str) -> String {
    Value::object(vec![
        ("op", "open_design".into()),
        ("session", SESSION.into()),
        ("design", text.into()),
    ])
    .compact()
}

fn ok(response: &str) -> Result<Value, String> {
    let v = json::parse(response).map_err(|e| format!("unparsable response {response}: {e}"))?;
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        _ => Err(format!("request failed: {response}")),
    }
}

pub fn run(pass: &Pass) -> Outcome {
    let design = inputs::circuit(&design_config(pass.scale));
    let ops = plan_ops(&design, request_count(pass.scale), pass.seed);
    let counted = CYCLE.min(ops.len());
    let text = write_design(&design);
    let read_ms = median(
        &(0..SETUP_REPS)
            .map(|_| {
                let sw = Stopwatch::start();
                let _ = std::hint::black_box(read_design(&text));
                sw.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    let mut out = Outcome::default();
    if pass.trace {
        traced(pass, &design, &ops, counted, read_ms, &mut out);
    } else {
        untraced(pass, &design, &text, &ops, counted, &mut out);
    }
    out
}

fn untraced(
    pass: &Pass,
    design: &Design,
    text: &str,
    ops: &[Op],
    counted: usize,
    out: &mut Outcome,
) {
    let route_line = format!("{{\"op\":\"route\",\"session\":\"{SESSION}\"}}");
    let mut setup_s = Vec::new();
    // Set-up: a new daemon opens the design and routes it cold. Repeated
    // `SETUP_REPS` times up front and once after every cycle of the trace.
    let mut set_up = |out: &mut Outcome| {
        let sw = Stopwatch::start();
        let mut s = Server::new(Executor::new(pass.threads), 1);
        let opened = s.handle_line(&open_line(text));
        let routed = s.handle_line(&route_line);
        setup_s.push(sw.elapsed().as_secs_f64());
        out.tally.record(ok(&opened).and(ok(&routed)).map(|_| ()));
        s
    };
    let mut server = set_up(out);
    for _ in 1..SETUP_REPS {
        server = set_up(out);
    }

    let mut mirror = Mirror {
        design: design.clone(),
        config: OperonConfig::default(),
    };
    let (mut all_ms, mut eco_ms) = (Vec::new(), Vec::new());
    let (mut power, mut wdms, mut routed) = (0.0, 0i64, 0usize);
    let (mut served_ms, mut peak_mib) = (0.0, 0.0);
    for (i, op) in ops.iter().enumerate() {
        if i >= counted && served_ms >= pass.seconds * 1e3 {
            break;
        }
        let line = op.line();
        let sw = Stopwatch::start();
        let response = server.handle_line(&line);
        let ms = sw.elapsed().as_secs_f64() * 1e3;
        served_ms += ms;
        all_ms.push(ms);
        if matches!(op, Op::Move { .. }) {
            eco_ms.push(ms);
        }
        mirror.apply(op);
        let check = ok(&response).and_then(|v| {
            if op.routes() {
                routed += 1;
                let p = v
                    .get("power_mw")
                    .and_then(Value::as_f64)
                    .ok_or("no power_mw")?;
                if i < counted {
                    power += p;
                    wdms += v.get("wdms").and_then(Value::as_i64).ok_or("no wdms")?;
                }
                if routed % COLD_CHECK_EVERY == 1 {
                    cold_check(&mirror, p, pass.threads)?;
                }
            }
            if matches!(op, Op::Report)
                && v.get("wdm_networks_cloned").and_then(Value::as_i64) != Some(0)
            {
                return Err(format!("a warm session cloned a flow network: {response}"));
            }
            Ok(())
        });
        out.tally
            .record(check.map_err(|e| format!("request {i} ({}): {e}", op.kind())));
        if i + 1 == counted {
            // Sampled here, after fixed work: later `eco_add_bus`
            // requests grow the design by however far the run gets.
            peak_mib = peak_rss_mib();
        }
        if (i + 1) % CYCLE == 0 {
            set_up(out);
        }
    }
    out.push("setup_s", median(&setup_s), "s");
    // ECO requests only. Every 20 requests toggle `wdm_displacement`,
    // which makes ECOs bimodal (about 3× slower at 600 than at 60), and
    // a fifth of the requests are short reads: the median over all
    // requests falls between modes and jumps between them run to run.
    out.push("latency_ms", median(&eco_ms), "ms");
    // The median over whole cycles, which share one mix, shrugs off a
    // transient stall of the shared host.
    let rates: Vec<f64> = all_ms
        .chunks_exact(CYCLE)
        .map(|c| CYCLE as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    let rate = if rates.is_empty() {
        all_ms.len() as f64 / (served_ms / 1e3)
    } else {
        median(&rates)
    };
    out.push("throughput_per_s", rate, "1/s");
    out.push("peak_rss_mib", peak_mib, "MiB");
    out.push("power_mw", power, "mW");
    out.push("wdm_count", wdms as f64, "count");
    out.push("samples", all_ms.len() as f64, "count");
    out.push("request_p50_ms", median(&all_ms), "ms");
    out.push("request_p99_ms", nearest_rank(&all_ms, 99.0), "ms");
    out.push("request_mean_ms", served_ms / all_ms.len() as f64, "ms");
}

/// A warm response's power must equal, bit for bit, a cold route of the
/// identically mutated design under the same configuration.
fn cold_check(mirror: &Mirror, warm_power: f64, threads: usize) -> Result<(), String> {
    let cold = OperonFlow::new(mirror.config.clone())
        .with_threads(threads)
        .run(&mirror.design)
        .map_err(|e| format!("cold reference failed: {e}"))?;
    if cold.total_power_mw().to_bits() == warm_power.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "warm power {warm_power} differs from cold {}",
            cold.total_power_mw()
        ))
    }
}

/// Runs one operation on the session directly.
fn apply(session: &mut WarmSession, op: &Op) -> Result<Option<RouteSummary>, OperonError> {
    match op {
        Op::Move { group, dx, dy } => session.move_pins(*group, *dx, *dy).map(Some),
        Op::AddBus { name, source, sink } => session
            .add_bus(name, BUS_BITS, *source, *sink, BUS_PITCH)
            .map(Some),
        Op::Probe => session.probe_wdm().map(|_| None),
        Op::Report => {
            let cloned = session.stats().wdm.mcmf.networks_cloned;
            if cloned == 0 {
                Ok(None)
            } else {
                Err(OperonError::SelectionFailed(format!(
                    "{cloned} flow networks cloned"
                )))
            }
        }
        Op::SetConfig { displacement } => {
            let mut config = session.config().clone();
            config.optical.wdm_max_displacement = *displacement;
            session.set_config(config).map(|()| None)
        }
    }
}

fn traced(
    pass: &Pass,
    design: &Design,
    ops: &[Op],
    counted: usize,
    read_ms: f64,
    out: &mut Outcome,
) {
    let exec = Executor::new(pass.threads);
    let mut tracer = Tracer::new();
    let mut cold_ms = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let opened = WarmSession::open(design.clone(), OperonConfig::default(), exec.clone());
        let routed = opened.and_then(|mut s| {
            let (r, ms) = tracer.span("cold route", 0, || s.route());
            cold_ms.push(ms);
            r.map(|_| s)
        });
        match routed {
            Ok(s) => {
                out.tally.record(Ok(()));
                session = Some(s);
            }
            Err(e) => out.tally.record(Err(format!("cold route failed: {e}"))),
        }
    }
    let Some(mut session) = session else {
        return;
    };
    let mut cursor = StageCursor::new(&exec);
    let (mut timed, mut counted_ops) = (Vec::<OpStages>::new(), Vec::new());
    let (mut eco_ms, mut probe_ms, mut bus_ms, mut parse_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut deleted, mut stats_at_count) = (0usize, session.stats());
    let mut sizes = (0usize, 0usize);
    let mut spent_ms = 0.0;
    for (i, op) in ops.iter().enumerate() {
        if i >= counted && spent_ms >= pass.seconds * 1e3 {
            break;
        }
        let line = op.line();
        let sw = Stopwatch::start();
        let parsed = Request::parse(std::hint::black_box(&line));
        parse_us.push(sw.elapsed().as_secs_f64() * 1e6);
        let (result, ms) = tracer.span(op.kind(), i as u64 + 1, || apply(&mut session, op));
        spent_ms += ms;
        let stages = cursor.next_op(&exec);
        match op {
            Op::Move { .. } => eco_ms.push(ms),
            Op::Probe => probe_ms.push(ms),
            Op::AddBus { .. } => bus_ms.push(ms),
            Op::Report | Op::SetConfig { .. } => {}
        }
        if matches!(op, Op::Move { .. }) {
            if i < counted {
                if let Ok(Some(summary)) = &result {
                    deleted += summary.wdm_initial.saturating_sub(summary.wdm_final);
                }
                counted_ops.push(stages.clone());
            }
            timed.push(stages);
        }
        if i + 1 == counted {
            stats_at_count = session.stats();
            sizes = (
                session.hyper_nets().map_or(0, <[_]>::len),
                session.candidates().map_or(0, candidate_count),
            );
        }
        let check = match (parsed, result) {
            (Err(e), _) => Err(format!("request {i} does not parse: {e}")),
            (_, Err(e)) => Err(format!("request {i} ({}): {e}", op.kind())),
            (Ok(_), Ok(_)) => Ok(()),
        };
        out.tally.record(check);
    }
    let trials: u64 = counted_ops
        .iter()
        .map(|op| op.counter("wdm_warm_trials"))
        .sum();
    layers::layer_metrics(
        &LayerInputs {
            read_ms,
            timed: &timed,
            counted: &counted_ops,
            hyper_nets: sizes.0,
            candidates: sizes.1,
            deletion_yield: ratio(deleted as f64, trials as f64),
            threads: pass.threads,
        },
        out,
    );
    let st = stats_at_count;
    let eco_p50 = median(&eco_ms);
    let cold = median(&cold_ms);
    out.push("session.eco_ms_p50", eco_p50, "ms");
    out.push("session.probe_ms_p50", median(&probe_ms), "ms");
    out.push("session.add_bus_ms_p50", median(&bus_ms), "ms");
    out.push("session.cold_route_ms", cold, "ms");
    out.push("session.eco_vs_cold", cold / eco_p50, "ratio");
    let share = |a: u64, b: u64| ratio(a as f64, (a + b) as f64);
    out.push(
        "session.net_reuse",
        share(st.nets_reused, st.nets_recoded),
        "fraction",
    );
    out.push(
        "session.delta_rebuild_share",
        share(st.crossing_delta_rebuilds, st.crossing_full_builds),
        "fraction",
    );
    out.push("session.partial_routes", st.partial_routes as f64, "count");
    out.push("serve.parse_us_p50", median(&parse_us), "us");
    crate::write_trace(pass, "serve_eco", &tracer);
}
