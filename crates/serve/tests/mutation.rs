//! Input-mutation robustness: seeded byte flips, truncations and splices
//! of the replay trace's request lines never panic the daemon or the
//! JSON parser. Every response is one JSON object with an `ok` field,
//! and a session no mutated line addresses still routes afterwards.

mod common;

use common::build_trace;
use operon_exec::json::{self, Value};
use operon_exec::Executor;
use operon_serve::Server;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated request lines fed through the daemon in each phase.
const CASES: usize = 1_500;

/// SplitMix64: a seeded generator, so every run replays the same cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutation of a trace line: 1–4 byte flips, a truncation, or a
/// splice of one line's prefix onto another's suffix. Returns the kind
/// and the mutated text (invalid UTF-8 replaced, as a line reader would
/// see it decoded).
fn mutate(lines: &[&str], rng: &mut SplitMix) -> (&'static str, String) {
    let line = lines[rng.below(lines.len())].as_bytes();
    let (kind, bytes) = match rng.below(3) {
        0 => {
            let mut bytes = line.to_vec();
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len());
                // A non-zero mask always changes the byte; a low one
                // often keeps a digit a digit, so numbers change value.
                let width = if rng.below(2) == 0 { 15 } else { 255 };
                bytes[at] ^= (rng.below(width) + 1) as u8;
            }
            ("flip", bytes)
        }
        1 => ("truncate", line[..rng.below(line.len())].to_vec()),
        _ => {
            let other = lines[rng.below(lines.len())].as_bytes();
            let mut bytes = line[..rng.below(line.len() + 1)].to_vec();
            bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            ("splice", bytes)
        }
    };
    (kind, String::from_utf8_lossy(&bytes).into_owned())
}

/// The response's `ok` flag, failing on anything but a JSON object
/// that carries one.
fn ok_flag(response: &str, case: &str) -> bool {
    let value = json::parse(response)
        .unwrap_or_else(|e| panic!("{case}: response is not JSON ({e}): {response}"));
    value
        .get("ok")
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("{case}: response has no ok flag: {response}"))
}

/// Feeds `CASES` mutated lines to `server` and to the JSON parser.
/// Every response must be JSON with an `ok` flag; a session a mutated
/// `open_design` opens is closed again, so no stray session lingers.
/// Returns the `[failed, succeeded]` response counts.
fn feed_mutations(server: &mut Server, lines: &[&str], rng: &mut SplitMix) -> [usize; 2] {
    let mut answered = [0usize; 2];
    for case in 0..CASES {
        let (kind, line) = mutate(lines, rng);
        let label = format!("case {case} ({kind})");
        let handled = catch_unwind(AssertUnwindSafe(|| {
            let _ = json::parse(&line);
            server.handle_line(&line)
        }));
        let response =
            handled.unwrap_or_else(|_| panic!("{label}: panicked on request line {line:?}"));
        let ok = ok_flag(&response, &label);
        answered[usize::from(ok)] += 1;
        if ok && response.contains("\"op\":\"open_design\"") {
            let opened = json::parse(&response).expect("checked above");
            let name = opened.get("session").and_then(Value::as_str).unwrap_or("");
            let close = Value::object(vec![("op", "close".into()), ("session", name.into())]);
            assert!(ok_flag(&server.handle_line(&close.compact()), &label));
        }
    }
    answered
}

#[test]
fn mutated_trace_lines_never_panic_and_spare_session_routes() {
    let trace = build_trace();
    let lines: Vec<&str> = trace.lines().collect();
    let spare_open = lines[0].replacen("\"left\"", "\"spare\"", 1);
    assert!(
        spare_open.contains("\"spare\""),
        "first line opens a session"
    );

    let mut server = Server::new(Executor::new(2), 2);
    assert!(ok_flag(&server.handle_line(&spare_open), "open spare"));
    let route_spare = r#"{"op":"route","session":"spare"}"#;
    let before = server.handle_line(route_spare);
    assert!(ok_flag(&before, "route spare"), "{before}");

    let mut rng = SplitMix(0x6f70_6572_6f6e);
    // First with the trace's sessions closed, so mutated designs reach
    // the design reader; then with them opened and routed as the trace
    // does, so mutated requests reach the routed sessions.
    let mut answered = feed_mutations(&mut server, &lines, &mut rng);
    for line in &lines[..4] {
        let response = server.handle_line(line);
        assert!(ok_flag(&response, "setup"), "{response}");
    }
    let [failed, succeeded] = feed_mutations(&mut server, &lines, &mut rng);
    answered[0] += failed;
    answered[1] += succeeded;
    // The generator reaches both outcomes.
    assert!(answered[0] > 0 && answered[1] > 0, "{answered:?}");

    let after = server.handle_line(route_spare);
    assert!(ok_flag(&after, "route spare after"), "{after}");
    let power = |r: &str| json::parse(r).ok()?.get("power_mw").and_then(Value::as_f64);
    assert_eq!(
        power(&after),
        power(&before),
        "the spare session is untouched"
    );
}
