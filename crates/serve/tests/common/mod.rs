//! The request trace the serve integration tests share.

use operon_exec::json::Value;
use operon_netlist::synth::{generate, SynthConfig};

/// Builds a ~100-request two-session ECO trace: open both sessions,
/// route, then interleaved `eco_move_pins` nudges (each group moved
/// away from and back to its home position so every ECO is feasible),
/// a `probe_wdm` every 10 requests and a `report` every 25, then close.
pub fn build_trace() -> String {
    let design = generate(&SynthConfig::small(), 42);
    let design_text = operon_netlist::io::write_design(&design);
    let die = design.die();
    let mut lines: Vec<String> = Vec::new();
    for session in ["left", "right"] {
        lines.push(
            Value::object(vec![
                ("op", "open_design".into()),
                ("session", session.into()),
                ("design", design_text.as_str().into()),
            ])
            .compact(),
        );
        lines.push(format!("{{\"op\":\"route\",\"session\":\"{session}\"}}"));
    }

    // Feasible nudge per group: a direction that keeps every pin on the
    // die, applied and undone alternately.
    const NUDGE: i64 = 24;
    let directions: Vec<Option<(i64, i64)>> = design
        .groups()
        .iter()
        .map(|group| {
            [(NUDGE, 0i64), (-NUDGE, 0), (0, NUDGE), (0, -NUDGE)]
                .into_iter()
                .find(|&(dx, dy)| {
                    group.bits().iter().all(|b| {
                        b.pins()
                            .all(|p| die.contains(operon_geom::Point::new(p.x + dx, p.y + dy)))
                    })
                })
        })
        .collect();

    let mut away = vec![true; directions.len()];
    let mut group = 0usize;
    let mut emitted = 0usize;
    while emitted < 88 {
        if let Some((dx, dy)) = directions[group] {
            let session = if emitted.is_multiple_of(2) {
                "left"
            } else {
                "right"
            };
            let sign = if away[group] { 1 } else { -1 };
            lines.push(format!(
                "{{\"op\":\"eco_move_pins\",\"session\":\"{session}\",\"group\":{group},\
                 \"dx\":{},\"dy\":{}}}",
                sign * dx,
                sign * dy
            ));
            away[group] = !away[group];
            emitted += 1;
            if emitted.is_multiple_of(10) {
                lines.push(format!(
                    "{{\"op\":\"probe_wdm\",\"session\":\"{session}\"}}"
                ));
            }
            if emitted.is_multiple_of(25) {
                lines.push(format!("{{\"op\":\"report\",\"session\":\"{session}\"}}"));
            }
        }
        group = (group + 1) % directions.len();
    }
    for session in ["left", "right"] {
        lines.push(format!("{{\"op\":\"report\",\"session\":\"{session}\"}}"));
        lines.push(format!("{{\"op\":\"close\",\"session\":\"{session}\"}}"));
    }
    lines.join("\n") + "\n"
}
