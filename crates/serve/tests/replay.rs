//! Replay-determinism integration test: a recorded ~100-request ECO
//! trace must replay byte-for-byte identically at 1, 2 and 8 worker
//! threads, with thread-invariant session counters throughout.

mod common;

use common::build_trace;
use operon_exec::json::{self, Value};
use operon_exec::Executor;
use operon_netlist::synth::{generate, SynthConfig};
use operon_serve::Server;

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let trace = build_trace();
    assert!(
        trace.lines().count() >= 100,
        "the trace must be ~100 requests, got {}",
        trace.lines().count()
    );

    let reference = Server::new(Executor::new(1), 1).run_trace(&trace);
    assert_eq!(
        reference.lines().count(),
        trace.lines().count(),
        "one response per request"
    );
    for line in reference.lines() {
        assert!(line.contains("\"ok\":true"), "request failed: {line}");
    }

    for threads in [2usize, 8] {
        let replay = Server::new(Executor::new(threads), threads).run_trace(&trace);
        assert_eq!(
            replay, reference,
            "replay diverged at {threads} worker threads"
        );
    }

    // The byte equality above already pins every counter in every
    // report response across thread counts; spot-check the session
    // invariants inside the final reports.
    let last_reports: Vec<Value> = reference
        .lines()
        .filter(|l| l.contains("\"op\":\"report\""))
        .map(|l| json::parse(l).expect("report response is valid JSON"))
        .collect();
    assert!(last_reports.len() >= 4);
    for report in &last_reports {
        assert_eq!(
            report.get("wdm_networks_cloned").and_then(Value::as_i64),
            Some(0),
            "warm sessions must never clone a flow network"
        );
        assert_eq!(report.get("cold_routes").and_then(Value::as_i64), Some(1));
        let fingerprint = report
            .get("fingerprint")
            .and_then(Value::as_str)
            .expect("report carries the state digest");
        assert_eq!(fingerprint.len(), 16);
    }
}

/// ECO requests whose pin arithmetic leaves the `i64` range get an error
/// response instead of panicking (or wrapping) the daemon: the session
/// they address keeps its routed state, and the other session still
/// routes.
#[test]
fn overflowing_eco_is_an_error_response_and_sessions_survive() {
    let design = generate(&SynthConfig::small(), 42);
    let design_text = operon_netlist::io::write_design(&design);
    let mut lines: Vec<String> = Vec::new();
    for session in ["a", "b"] {
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
    let bad = [
        r#"{"op":"eco_move_pins","session":"a","group":0,"dx":9223372036854775807,"dy":0}"#,
        r#"{"op":"eco_add_bus","session":"a","name":"far","bits":3,"source":[1,1],"sink":[2,2],"pitch":9223372036854775807}"#,
    ];
    lines.extend(bad.iter().map(|l| (*l).to_owned()));
    for session in ["b", "a"] {
        lines.push(format!(
            "{{\"op\":\"eco_move_pins\",\"session\":\"{session}\",\"group\":0,\"dx\":0,\"dy\":0}}"
        ));
        lines.push(format!("{{\"op\":\"route\",\"session\":\"{session}\"}}"));
    }
    let trace = lines.join("\n") + "\n";

    let out = Server::new(Executor::new(2), 2).run_trace(&trace);
    let responses: Vec<Value> = out
        .lines()
        .map(|l| json::parse(l).expect("response is valid JSON"))
        .collect();
    assert_eq!(responses.len(), lines.len(), "one response per request");
    let ok = |r: &Value| r.get("ok").and_then(Value::as_bool);
    for (i, r) in responses.iter().enumerate() {
        let expect = !(4..4 + bad.len()).contains(&i);
        assert_eq!(ok(r), Some(expect), "request {i} ({}): {r:?}", lines[i]);
    }
    let power = |r: &Value| r.get("power_mw").and_then(Value::as_f64);
    // Session "a" answers exactly as before the rejected requests.
    assert_eq!(power(&responses[1]), power(&responses[responses.len() - 1]));
    assert_eq!(power(&responses[3]), power(&responses[7]));
}
