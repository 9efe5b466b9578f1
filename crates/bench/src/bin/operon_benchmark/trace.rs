//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around the benchmark's own calls into the program,
//! or built from the stage durations the program reports (nothing inside
//! the program is instrumented). They are kept in memory and written
//! once at the end as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto, speedscope).

use operon_exec::json::Value;
use operon_exec::Stopwatch;

/// One closed (or still open) span. Times are microseconds since the
/// tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The workload operation (route round, request, sweep) this span
    /// belongs to; every span of one operation shares it.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.clock.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        let now = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (spans close innermost first) and returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.dur_us() / 1e3
    }

    /// Adds closed child spans of span `parent` from their durations
    /// (ms), laid end to end from the parent's start: the flow reports
    /// how long each stage took, not when it started.
    pub fn children(&mut self, parent: usize, parts: &[(&str, f64)]) {
        let (mut at, op) = (self.spans[parent].start_us, self.spans[parent].op);
        for &(name, ms) in parts {
            self.spans.push(Span {
                name: name.to_owned(),
                start_us: at,
                end_us: at + ms * 1e3,
                parent: Some(parent),
                op,
            });
            at += ms * 1e3;
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, op);
        let out = f();
        let ms = self.end(id);
        (out, ms)
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn to_chrome_json(&self) -> String {
        let self_us = self_times_us(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(&self_us)
            .enumerate()
            .map(|(id, (s, own))| {
                Value::object(vec![
                    ("name", Value::from(s.name.as_str())),
                    ("cat", Value::from("operon")),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(s.start_us)),
                    ("dur", Value::from(s.dur_us())),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(1)),
                    (
                        "args",
                        Value::object(vec![
                            ("id", Value::from(id)),
                            ("parent", s.parent.map_or(Value::Int(-1), Value::from)),
                            ("op", Value::from(s.op)),
                            ("self_us", Value::from(*own)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
        .compact()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_us,
            end_us,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("route", 0.0, 100.0, None),
            span("crossing", 10.0, 40.0, Some(0)),
            span("kernel", 15.0, 25.0, Some(1)),
            // Overlaps its sibling by 10 us: covered once.
            span("selection", 30.0, 60.0, Some(0)),
            span("wdm", 70.0, 90.0, Some(0)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![100.0 - 50.0 - 20.0, 20.0, 10.0, 30.0, 20.0]);
    }

    #[test]
    fn chrome_trace_parses_and_keeps_the_tree() {
        let mut t = Tracer::new();
        let root = t.begin("route", 3);
        let ((), ms) = t.span("crossing", 3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(ms >= 0.0);
        t.end(root);
        let text = t.to_chrome_json();
        let v = operon_exec::json::parse(&text).expect("trace is valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_i64()), Some(0));
        assert_eq!(args.get("op").and_then(|p| p.as_i64()), Some(3));
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    }

    #[test]
    fn children_from_durations_fill_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("route", 7);
        t.end(root);
        t.children(root, &[("crossing", 2.0), ("selection", 0.5)]);
        let kids = &t.spans[1..];
        assert_eq!(kids.len(), 2);
        // Offsets from the parent's start, in us; float sums round.
        let start = t.spans[root].start_us;
        let offsets: Vec<(f64, f64)> = kids
            .iter()
            .map(|k| (k.start_us - start, k.end_us - start))
            .collect();
        for (got, want) in offsets.iter().zip([(0.0, 2000.0), (2000.0, 2500.0)]) {
            assert!(
                (got.0 - want.0).abs() < 1e-6 && (got.1 - want.1).abs() < 1e-6,
                "{got:?} != {want:?}"
            );
        }
        assert!(kids.iter().all(|k| k.parent == Some(root) && k.op == 7));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_innermost_first() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 0);
        t.end(outer);
    }
}
