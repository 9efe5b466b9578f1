//! Seeded mutation property tests over knob input from outside the
//! process: knob names (the declared ones, near misses and junk) and
//! JSON values of every shape, fed to `operon_serve` `set_config` lines
//! and to `operon_explore` axis and lattice-spec parsing. Nothing may
//! panic, and every front end accepts exactly what
//! [`OperonConfig::set_knob`] plus [`OperonConfig::validate`] accept.

use operon::config::{KnobValue, OperonConfig, KNOBS};
use operon_exec::json::{self, Value};
use operon_exec::Executor;
use operon_explore::lattice::{parse_spec, Axis, Lattice};
use operon_serve::Server;
use proptest::collection::vec;
use proptest::prelude::*;

const DESIGN: &str = "design d\ndie 0 0 600 600\ngroup a\nbit 20 20 : 500 500\nend\n";

/// A misspelling of a declared knob name.
fn near_miss(name: &str, how: usize) -> String {
    match how {
        0 => name[..name.len() - 1].to_owned(),
        1 => format!("{name}s"),
        2 => name.to_uppercase(),
        _ => name.replace('_', "-"),
    }
}

fn knob_name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..KNOBS.len()).prop_map(|i| KNOBS[i].to_owned()),
        (0..KNOBS.len()).prop_map(|i| KNOBS[i].to_owned()),
        (0..KNOBS.len(), 0usize..4).prop_map(|(i, how)| near_miss(KNOBS[i], how)),
        prop_oneof![
            Just("ilp_secs"),
            Just("ilp_wave_size"),
            Just(""),
            Just("op"),
            Just("session"),
            Just("selector "),
        ]
        .prop_map(str::to_owned),
        "junk",
    ]
}

#[test]
fn removed_ilp_wave_size_knob_is_rejected_by_name() {
    for spec in [
        r#"{"base": {"ilp_wave_size": 1}, "axes": [{"knob": "lr_iters", "values": [4]}]}"#,
        r#"{"axes": [{"knob": "ilp_wave_size", "values": [1, 2]}]}"#,
    ] {
        let err = parse_spec(spec).unwrap_err();
        assert!(err.contains("unknown"), "{spec}: {err}");
        assert!(err.contains("\"ilp_wave_size\""), "{spec}: {err}");
    }
}

fn json_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..=64).prop_map(Value::Int),
        (300i64..=900).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0)].prop_map(Value::Int),
        (-2.0f64..1.0).prop_map(Value::Float),
        (0.0f64..3000.0).prop_map(Value::Float),
        prop_oneof![Just(1e300), Just(-0.0), Just(20.0)].prop_map(Value::Float),
        prop_oneof![
            Just("lr"),
            Just("ilp"),
            Just("ilp:30"),
            Just("ilp:0"),
            Just("ilp:-1"),
            Just("ilp:x"),
            Just("high"),
            Just(""),
        ]
        .prop_map(|s| Value::Str(s.to_owned())),
        "text".prop_map(Value::Str),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..3).prop_map(|v| Value::Array(vec![Value::Int(v)])),
        Just(Value::object(vec![("max_loss", Value::Int(20))])),
    ]
}

/// Sets one JSON knob pair the way every front end must: read the value,
/// then set it.
fn set_json(config: &mut OperonConfig, name: &str, value: &Value) -> bool {
    KnobValue::from_json(name, value)
        .and_then(|v| config.set_knob(name, &v))
        .is_ok()
}

fn config_fingerprint(server: &mut Server) -> String {
    let report = server.handle_line("{\"op\":\"report\",\"session\":\"s\"}");
    json::parse(&report)
        .ok()
        .and_then(|r| {
            r.get("config_fingerprint")
                .and_then(Value::as_str)
                .map(str::to_owned)
        })
        .unwrap_or_else(|| panic!("report has no config fingerprint: {report}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_config_is_ok_exactly_when_every_knob_sets_and_validates(
        lines in vec(vec((knob_name(), json_value()), 0..4), 1..6)
    ) {
        let mut server = Server::new(Executor::sequential(), 1);
        let open = Value::object(vec![
            ("op", "open_design".into()),
            ("session", "s".into()),
            ("design", DESIGN.into()),
        ]);
        prop_assert!(server.handle_line(&open.compact()).contains("\"ok\":true"));
        let mut expected = OperonConfig::default();
        for pairs in &lines {
            let mut fields = vec![
                ("op".to_owned(), Value::from("set_config")),
                ("session".to_owned(), Value::from("s")),
            ];
            fields.extend(pairs.iter().cloned());
            let line = Value::Object(fields).compact();
            let response = server.handle_line(&line);
            let response = json::parse(&response)
                .map_err(|e| TestCaseError::fail(format!("{line} -> bad JSON: {e}")))?;

            let mut next = expected.clone();
            let accepted = pairs
                .iter()
                .filter(|(name, _)| name != "op" && name != "session")
                .all(|(name, value)| set_json(&mut next, name, value))
                && next.validate().is_ok();
            prop_assert_eq!(
                response.get("ok").and_then(Value::as_bool),
                Some(accepted),
                "{} -> {}",
                line,
                response.compact()
            );
            if accepted {
                expected = next;
            }
            prop_assert_eq!(
                config_fingerprint(&mut server),
                format!("{:016x}", expected.fingerprint())
            );
        }
    }

    #[test]
    fn lattice_specs_accept_exactly_what_the_setter_accepts(
        name in knob_name(),
        values in vec(json_value(), 1..4),
        cut in 0usize..200,
    ) {
        let spec = Value::object(vec![
            ("base", Value::Object(vec![(name.clone(), values[0].clone())])),
            (
                "axes",
                Value::Array(vec![Value::object(vec![
                    ("knob", Value::Str(name.clone())),
                    ("values", Value::Array(values.clone())),
                ])]),
            ),
        ])
        .compact();
        let mut base = OperonConfig::default();
        let declared = KNOBS.contains(&name.as_str())
            && set_json(&mut base, &name, &values[0])
            && values.iter().all(|v| KnobValue::from_json(&name, v).is_ok());
        match parse_spec(&spec) {
            Ok(lattice) => {
                prop_assert!(declared, "{} was accepted", spec);
                prop_assert_eq!(lattice.len(), values.len());
                for (i, value) in values.iter().enumerate() {
                    let mut config = base.clone();
                    let valid = set_json(&mut config, &name, value) && config.validate().is_ok();
                    match lattice.point(i) {
                        Ok(point) => {
                            prop_assert!(valid, "{} point {} was accepted", spec, i);
                            prop_assert_eq!(point.config, config);
                        }
                        Err(_) => prop_assert!(!valid, "{} point {} was rejected", spec, i),
                    }
                }
            }
            Err(e) => prop_assert!(!declared, "{} was rejected: {}", spec, e),
        }
        // A truncated spec is an error or a lattice, never a panic.
        let cut = (0..=cut.min(spec.len()))
            .rev()
            .find(|&c| spec.is_char_boundary(c))
            .unwrap_or(0);
        let _ = parse_spec(&spec[..cut]);
    }

    #[test]
    fn axis_specs_never_panic_and_resolve_through_the_setter(
        name in knob_name(),
        values in vec(json_value(), 0..4),
        raw in "raw",
    ) {
        let _ = Axis::parse(&raw);
        let tokens: Vec<String> = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => other.compact(),
            })
            .collect();
        let spec = format!("{name}={}", tokens.join(","));
        let Ok(axis) = Axis::parse(&spec) else {
            return Ok(());
        };
        let lattice = Lattice::new(vec![], vec![axis.clone()]);
        prop_assert_eq!(lattice.is_ok(), KNOBS.contains(&axis.knob.as_str()), "{}", spec);
        if let Ok(lattice) = lattice {
            for (i, value) in axis.values.iter().enumerate() {
                let mut config = OperonConfig::default();
                let valid =
                    config.set_knob(&axis.knob, value).is_ok() && config.validate().is_ok();
                prop_assert_eq!(lattice.point(i).is_ok(), valid, "{} point {}", spec, i);
            }
        }
    }
}
