//! `operon-serve`: a persistent routing daemon with cross-request warm
//! sessions.
//!
//! The daemon speaks a line-oriented JSON (JSONL) protocol over any
//! byte pipe: each request is one JSON object on one line, each request
//! produces exactly one JSON response line, and responses are written
//! in request order. Sessions — a design plus every warm artifact the
//! flow derives from it — stay resident in the process between
//! requests, so a stream of incremental ECOs re-routes at warm speed
//! instead of re-running the cold pipeline per invocation.
//!
//! # Requests
//!
//! | `op`            | fields                                              |
//! |-----------------|-----------------------------------------------------|
//! | `open_design`   | `session`, `design` (netlist text format, inline)   |
//! | `route`         | `session`                                           |
//! | `eco_move_pins` | `session`, `group`, `dx`, `dy`                      |
//! | `eco_add_bus`   | `session`, `name`, `bits`, `source`, `sink`, `pitch`|
//! | `set_config`    | `session`, knobs ([`operon::config::KNOBS`])        |
//! | `probe_wdm`     | `session`                                           |
//! | `report`        | `session`                                           |
//! | `close`         | `session`                                           |
//! | `shutdown`      | —                                                   |
//!
//! ECO requests apply the change and immediately re-route (warm when
//! possible), responding with the same route digest as `route`.
//! Failed requests — unknown session, malformed JSON, rejected ECO —
//! produce an `{"ok": false, ...}` response and leave every session
//! untouched; the daemon keeps serving.
//!
//! # Determinism contract
//!
//! Responses never carry wall-clock readings; every response byte is a
//! pure function of the request history. Concretely: requests to one
//! session are applied in input order no matter how the scheduler
//! batches them, each response depends only on that session's state
//! plus the request, and the underlying flow is bit-identical at any
//! worker count. Replaying a recorded trace therefore reproduces every
//! response byte-for-byte at any `--threads` value — that is what
//! `operon_serve --replay` (and the tests) assert. Timing lives only in
//! the executor's run report, never in the protocol.
//!
//! # Scheduling
//!
//! Incoming requests are admitted in batches by
//! [`operon_exec::Admission`]: a batch is the longest run of requests
//! addressing pairwise-distinct sessions (capped at the configured
//! width), and session-map mutators (`open_design`, `close`,
//! `shutdown`) run exclusively. A batch routes its sessions
//! concurrently on the shared executor via `par_map_coarse` while each
//! flow also parallelizes internally — the admission width is the
//! outer-vs-inner balance knob.

use operon::config::{KnobValue, OperonConfig};
use operon::session::WarmSession;
use operon::OperonError;
use operon_exec::json::{self, Value};
use operon_exec::{Admission, AdmissionKey, Executor};
use operon_geom::Point;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Mutex;

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens a session over an inline design (netlist text format).
    Open {
        /// Session name (the key all later requests address).
        session: String,
        /// The design, in the `operon_netlist::io` text format.
        design: String,
    },
    /// Routes the session's design (cached when already routed).
    Route {
        /// Target session.
        session: String,
    },
    /// ECO: translate one group's pins, then re-route.
    MovePins {
        /// Target session.
        session: String,
        /// Dense group index.
        group: usize,
        /// X translation.
        dx: i64,
        /// Y translation.
        dy: i64,
    },
    /// ECO: append a new bus group, then re-route.
    AddBus {
        /// Target session.
        session: String,
        /// New group name.
        name: String,
        /// Bus width.
        bits: usize,
        /// Bit-0 source pin.
        source: Point,
        /// Bit-0 sink pin.
        sink: Point,
        /// Per-bit y spacing.
        pitch: i64,
    },
    /// Sets configuration knobs; knobs the request does not name keep
    /// their values. Every key of the request object except `op` and
    /// `session` is a knob from [`operon::config::KNOBS`], applied in
    /// request order through [`OperonConfig::set_knob`] to a copy of
    /// the session's config. An unknown name, a value of the wrong type
    /// or an invalid result is an error response naming the problem,
    /// and the session keeps its config.
    SetConfig {
        /// Target session.
        session: String,
        /// The knob assignments, in request order.
        knobs: Vec<(String, KnobValue)>,
    },
    /// Per-waveguide deletion what-ifs, read off the resident WDM plan.
    Probe {
        /// Target session.
        session: String,
    },
    /// Deterministic session counters + state digest.
    Report {
        /// Target session.
        session: String,
    },
    /// Closes a session, freeing its resident state.
    Close {
        /// Target session.
        session: String,
    },
    /// Stops the serve loop after this response.
    Shutdown,
}

impl Request {
    /// The wire name of this request kind.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open_design",
            Request::Route { .. } => "route",
            Request::MovePins { .. } => "eco_move_pins",
            Request::AddBus { .. } => "eco_add_bus",
            Request::SetConfig { .. } => "set_config",
            Request::Probe { .. } => "probe_wdm",
            Request::Report { .. } => "report",
            Request::Close { .. } => "close",
            Request::Shutdown => "shutdown",
        }
    }

    /// The session this request addresses (none for `shutdown`).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Route { session }
            | Request::MovePins { session, .. }
            | Request::AddBus { session, .. }
            | Request::SetConfig { session, .. }
            | Request::Probe { session }
            | Request::Report { session }
            | Request::Close { session } => Some(session),
            Request::Shutdown => None,
        }
    }

    /// How the scheduler may batch this request: session-map mutators
    /// are exclusive, everything else batches by session key.
    fn admission_key(&self) -> AdmissionKey<'_> {
        match self {
            Request::Open { .. } | Request::Close { .. } | Request::Shutdown => {
                AdmissionKey::Exclusive
            }
            other => match other.session() {
                Some(s) => AdmissionKey::Keyed(s),
                None => AdmissionKey::Exclusive,
            },
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, an unknown `op`, or
    /// missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request has no \"op\" string")?;
        let session = || -> Result<String, String> {
            Ok(value
                .get("session")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{op} needs a \"session\" string"))?
                .to_owned())
        };
        let int = |key: &str| -> Result<i64, String> {
            value
                .get(key)
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("{op} needs an integer \"{key}\""))
        };
        let point = |key: &str| -> Result<Point, String> {
            let arr = value
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{op} needs \"{key}\": [x, y]"))?;
            match arr {
                [x, y] => match (x.as_i64(), y.as_i64()) {
                    (Some(x), Some(y)) => Ok(Point::new(x, y)),
                    _ => Err(format!("{op} \"{key}\" coordinates must be integers")),
                },
                _ => Err(format!("{op} needs \"{key}\": [x, y]")),
            }
        };
        match op {
            "open_design" => Ok(Request::Open {
                session: session()?,
                design: value
                    .get("design")
                    .and_then(Value::as_str)
                    .ok_or("open_design needs a \"design\" string")?
                    .to_owned(),
            }),
            "route" => Ok(Request::Route {
                session: session()?,
            }),
            "eco_move_pins" => Ok(Request::MovePins {
                session: session()?,
                group: usize::try_from(int("group")?)
                    .map_err(|_| "\"group\" must be non-negative".to_owned())?,
                dx: int("dx")?,
                dy: int("dy")?,
            }),
            "eco_add_bus" => Ok(Request::AddBus {
                session: session()?,
                name: value
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("eco_add_bus needs a \"name\" string")?
                    .to_owned(),
                bits: usize::try_from(int("bits")?)
                    .map_err(|_| "\"bits\" must be non-negative".to_owned())?,
                source: point("source")?,
                sink: point("sink")?,
                pitch: value.get("pitch").and_then(Value::as_i64).unwrap_or(1),
            }),
            "set_config" => {
                let session = session()?;
                let mut knobs = Vec::new();
                if let Value::Object(pairs) = &value {
                    for (name, v) in pairs.iter().filter(|(k, _)| k != "op" && k != "session") {
                        let v = KnobValue::from_json(name, v).map_err(|e| e.to_string())?;
                        knobs.push((name.clone(), v));
                    }
                }
                Ok(Request::SetConfig { session, knobs })
            }
            "probe_wdm" => Ok(Request::Probe {
                session: session()?,
            }),
            "report" => Ok(Request::Report {
                session: session()?,
            }),
            "close" => Ok(Request::Close {
                session: session()?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One queued request line: the parse result, or the error to report in
/// its place (errors hold the queue slot so responses stay in order).
struct PendingLine {
    req: Result<Request, String>,
}

/// A batch slot: the request plus its checked-out session, lockable so
/// `par_map_coarse` workers can mutate their own slot through `&self`.
type BatchSlot = Mutex<(Result<Request, String>, Option<WarmSession>)>;

/// The daemon: resident sessions plus the admission scheduler.
///
/// # Examples
///
/// ```
/// use operon_exec::Executor;
/// use operon_serve::Server;
///
/// let mut server = Server::new(Executor::sequential(), 1);
/// let design = "design d\ndie 0 0 400 400\ngroup a\nbit 10 10 : 300 300\nend\n";
/// let open = operon_exec::json::Value::object(vec![
///     ("op", "open_design".into()),
///     ("session", "s".into()),
///     ("design", design.into()),
/// ]);
/// let response = server.handle_line(&open.compact());
/// assert!(response.starts_with("{\"ok\":true"));
/// let routed = server.handle_line("{\"op\": \"route\", \"session\": \"s\"}");
/// assert!(routed.contains("\"power_mw\""));
/// ```
pub struct Server {
    exec: Executor,
    admission: Admission,
    sessions: BTreeMap<String, WarmSession>,
    shutdown: bool,
}

impl Server {
    /// Creates a daemon over `exec`, batching up to `batch` requests
    /// (0 means one per executor worker).
    pub fn new(exec: Executor, batch: usize) -> Self {
        let width = if batch == 0 { exec.threads() } else { batch };
        Self {
            exec,
            admission: Admission::new(width),
            sessions: BTreeMap::new(),
            shutdown: false,
        }
    }

    /// Whether a `shutdown` request has been processed.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown
    }

    /// Open session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles one request line, returning its response line (no
    /// trailing newline). Identical to what the batched serve loop
    /// produces for the same line at the same session state.
    pub fn handle_line(&mut self, line: &str) -> String {
        let mut pending = vec![PendingLine {
            req: Request::parse(line),
        }];
        let mut out = String::new();
        self.drain(&mut pending, &mut out);
        // drain() writes exactly one "response\n" per request line.
        out.pop();
        out
    }

    /// Runs a full request trace (one request per line; blank lines
    /// skipped), returning the concatenated response lines. All lines
    /// are queued upfront, so batching — and every response byte — is a
    /// pure function of the trace and the admission width.
    pub fn run_trace(&mut self, trace: &str) -> String {
        let mut pending: Vec<PendingLine> = trace
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| PendingLine {
                req: Request::parse(l),
            })
            .collect();
        let mut out = String::new();
        self.drain(&mut pending, &mut out);
        self.record_admission_stats();
        out
    }

    /// The blocking serve loop: reads request lines from `reader` until
    /// EOF or `shutdown`, writing one response line per request to
    /// `writer` (flushed per drain so pipe peers can pipeline).
    /// When `record` is given, every raw request line is appended to it
    /// — the resulting file replays via [`Server::run_trace`].
    ///
    /// Requests already buffered in `reader` are batched together;
    /// the concrete batching never changes any response byte (see the
    /// module docs), only how much routing runs concurrently.
    ///
    /// # Errors
    ///
    /// I/O errors from the reader, writer, or trace recorder.
    pub fn serve<R: Read, W: Write>(
        &mut self,
        reader: &mut BufReader<R>,
        writer: &mut W,
        mut record: Option<&mut dyn Write>,
    ) -> std::io::Result<()> {
        let mut line = String::new();
        while !self.shutdown {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break; // EOF
            }
            let mut pending = Vec::new();
            let mut queue_line = |l: &str, record: &mut Option<&mut dyn Write>| {
                if l.trim().is_empty() {
                    return std::io::Result::Ok(());
                }
                if let Some(rec) = record.as_deref_mut() {
                    rec.write_all(l.trim_end_matches(['\r', '\n']).as_bytes())?;
                    rec.write_all(b"\n")?;
                }
                pending.push(PendingLine {
                    req: Request::parse(l),
                });
                Ok(())
            };
            queue_line(&line, &mut record)?;
            // Drain whatever further complete lines the pipe already
            // delivered: they form the batching window.
            while reader.buffer().contains(&b'\n') {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    break;
                }
                queue_line(&line, &mut record)?;
            }
            let mut out = String::new();
            self.drain(&mut pending, &mut out);
            writer.write_all(out.as_bytes())?;
            writer.flush()?;
        }
        self.record_admission_stats();
        writer.flush()
    }

    /// Executes queued requests in admission batches until the queue is
    /// empty or a `shutdown` request is processed, appending one
    /// `response\n` per request to `out` in queue order.
    fn drain(&mut self, pending: &mut Vec<PendingLine>, out: &mut String) {
        while !pending.is_empty() && !self.shutdown {
            let n = self.admission.admit(pending, |p| match &p.req {
                Ok(req) => req.admission_key(),
                Err(_) => AdmissionKey::Exclusive,
            });
            let batch: Vec<PendingLine> = pending.drain(..n).collect();
            if let [single] = &batch[..] {
                out.push_str(&self.execute_one(single));
                out.push('\n');
                continue;
            }
            // n > 1: pairwise-distinct session keys, so the batch routes
            // concurrently. Sessions are checked out of the map for the
            // duration; responses come back in queue order.
            let slots: Vec<BatchSlot> = batch
                .into_iter()
                .map(|p| {
                    let slot = p
                        .req
                        .as_ref()
                        .ok()
                        .and_then(|r| r.session())
                        .and_then(|s| self.sessions.remove(s));
                    Mutex::new((p.req, slot))
                })
                .collect();
            let exec = self.exec.clone();
            let responses = exec.par_map_coarse(&slots, |slot| {
                let mut guard = match slot.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let (req, session) = &mut *guard;
                match req {
                    Ok(req) => handle_session_request(req, session, &exec),
                    Err(e) => error_response(None, None, e),
                }
            });
            for slot in slots {
                let (req, session) = match slot.into_inner() {
                    Ok(inner) => inner,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if let (Ok(req), Some(session)) = (req, session) {
                    if let Some(name) = req.session() {
                        self.sessions.insert(name.to_owned(), session);
                    }
                }
            }
            for response in responses {
                out.push_str(&response);
                out.push('\n');
            }
        }
        // A shutdown mid-queue still answers the remaining requests —
        // deterministically, as errors.
        for p in pending.drain(..) {
            let op = p.req.as_ref().ok().map(Request::op);
            let session = p.req.as_ref().ok().and_then(Request::session);
            out.push_str(&error_response(op, session, "daemon is shutting down"));
            out.push('\n');
        }
    }

    /// Executes one request inline (exclusive ops and batches of one).
    fn execute_one(&mut self, p: &PendingLine) -> String {
        let req = match &p.req {
            Ok(req) => req,
            Err(e) => return error_response(None, None, e),
        };
        match req {
            Request::Open { session, design } => self.open(session, design),
            Request::Close { session } => match self.sessions.remove(session) {
                Some(live) => {
                    let stats = live.close();
                    Value::object(vec![
                        ("ok", Value::Bool(true)),
                        ("op", "close".into()),
                        ("session", session.as_str().into()),
                        ("routes", Value::Int(stats.routes as i64)),
                    ])
                    .compact()
                }
                None => unknown_session(req.op(), session),
            },
            Request::Shutdown => {
                self.shutdown = true;
                Value::object(vec![("ok", Value::Bool(true)), ("op", "shutdown".into())]).compact()
            }
            other => {
                let name = other.session().unwrap_or_default().to_owned();
                let mut slot = self.sessions.remove(&name);
                let exec = self.exec.clone();
                let response = handle_session_request(other, &mut slot, &exec);
                if let Some(session) = slot {
                    self.sessions.insert(name, session);
                }
                response
            }
        }
    }

    fn open(&mut self, session: &str, design_text: &str) -> String {
        if self.sessions.contains_key(session) {
            return error_response(
                Some("open_design"),
                Some(session),
                &format!("session {session:?} is already open"),
            );
        }
        let design = match operon_netlist::io::read_design(design_text) {
            Ok(d) => d,
            Err(e) => return error_response(Some("open_design"), Some(session), &e.to_string()),
        };
        let groups = design.group_count();
        let bits = design.bit_count();
        match WarmSession::open(design, OperonConfig::default(), self.exec.clone()) {
            Ok(live) => {
                self.sessions.insert(session.to_owned(), live);
                Value::object(vec![
                    ("ok", Value::Bool(true)),
                    ("op", "open_design".into()),
                    ("session", session.into()),
                    ("groups", Value::Int(groups as i64)),
                    ("bits", Value::Int(bits as i64)),
                ])
                .compact()
            }
            Err(e) => error_response(Some("open_design"), Some(session), &e.to_string()),
        }
    }

    /// Folds the admission scheduler's counters into the shared run
    /// report (stage `"admission"`). Counters, like all run-report
    /// content, never appear in protocol responses.
    fn record_admission_stats(&mut self) {
        let mut stage = self.exec.stage("admission");
        stage.record("batches", self.admission.batches());
        stage.record("admitted", self.admission.admitted());
        stage.record("largest_batch", self.admission.largest_batch());
        stage.record("exclusive_batches", self.admission.exclusive_batches());
    }
}

/// Handles a session-scoped request against its (checked-out) session
/// slot. Pure per-session: the response depends only on the slot state
/// and the request, never on batch composition or timing.
fn handle_session_request(
    req: &Request,
    slot: &mut Option<WarmSession>,
    exec: &Executor,
) -> String {
    let _ = exec; // reserved for request kinds that spawn nested work
    let Some(name) = req.session() else {
        return error_response(Some(req.op()), None, "request addresses no session");
    };
    let Some(session) = slot.as_mut() else {
        return unknown_session(req.op(), name);
    };
    let route_digest = |summary: operon::session::RouteSummary| {
        Value::object(vec![
            ("ok", Value::Bool(true)),
            ("op", req.op().into()),
            ("session", name.into()),
            ("warm", Value::Bool(summary.warm)),
            ("hyper_nets", Value::Int(summary.hyper_nets as i64)),
            ("optical", Value::Int(summary.optical as i64)),
            ("electrical", Value::Int(summary.electrical as i64)),
            ("power_mw", Value::Float(summary.power_mw)),
            ("wdms", Value::Int(summary.wdm_final as i64)),
            ("proven_optimal", Value::Bool(summary.proven_optimal)),
            (
                "stages_reused",
                Value::Int(i64::from(summary.stages_reused)),
            ),
            ("stages_rerun", Value::Int(i64::from(summary.stages_rerun))),
        ])
        .compact()
    };
    let route_result = |r: Result<operon::session::RouteSummary, OperonError>| match r {
        Ok(summary) => route_digest(summary),
        Err(e) => error_response(Some(req.op()), Some(name), &e.to_string()),
    };
    match req {
        Request::Route { .. } => route_result(session.route()),
        Request::MovePins { group, dx, dy, .. } => {
            route_result(session.move_pins(*group, *dx, *dy))
        }
        Request::AddBus {
            name: bus,
            bits,
            source,
            sink,
            pitch,
            ..
        } => route_result(session.add_bus(bus, *bits, *source, *sink, *pitch)),
        Request::SetConfig { knobs, .. } => {
            let mut config = session.config().clone();
            let set = knobs
                .iter()
                .try_for_each(|(knob, value)| config.set_knob(knob, value))
                .and_then(|()| session.set_config(config));
            match set {
                Ok(()) => Value::object(vec![
                    ("ok", Value::Bool(true)),
                    ("op", "set_config".into()),
                    ("session", name.into()),
                ])
                .compact(),
                Err(e) => error_response(Some(req.op()), Some(name), &e.to_string()),
            }
        }
        Request::Probe { .. } => match session.probe_wdm() {
            Ok(probes) => {
                let deletable = probes.iter().filter(|p| p.deletable).count();
                let displaced: i64 = probes.iter().map(|p| p.displaced).sum();
                let reroute_cost: i64 = probes.iter().map(|p| p.reroute_cost).sum();
                Value::object(vec![
                    ("ok", Value::Bool(true)),
                    ("op", "probe_wdm".into()),
                    ("session", name.into()),
                    ("waveguides", Value::Int(probes.len() as i64)),
                    ("deletable", Value::Int(deletable as i64)),
                    ("displaced", Value::Int(displaced)),
                    ("reroute_cost", Value::Int(reroute_cost)),
                ])
                .compact()
            }
            Err(e) => error_response(Some(req.op()), Some(name), &e.to_string()),
        },
        Request::Report { .. } => {
            let stats = session.stats();
            let power = session
                .selection()
                .map_or(Value::Null, |sel| Value::Float(sel.power_mw));
            Value::object(vec![
                ("ok", Value::Bool(true)),
                ("op", "report".into()),
                ("session", name.into()),
                ("routed", Value::Bool(session.is_routed())),
                ("power_mw", power),
                ("routes", Value::Int(stats.routes as i64)),
                ("cold_routes", Value::Int(stats.cold_routes as i64)),
                ("warm_routes", Value::Int(stats.warm_routes as i64)),
                ("cached_routes", Value::Int(stats.cached_routes as i64)),
                ("partial_routes", Value::Int(stats.partial_routes as i64)),
                ("stages_reused", Value::Int(stats.stages_reused as i64)),
                ("stages_rerun", Value::Int(stats.stages_rerun as i64)),
                ("groups_reused", Value::Int(stats.groups_reused as i64)),
                (
                    "groups_reclustered",
                    Value::Int(stats.groups_reclustered as i64),
                ),
                ("nets_reused", Value::Int(stats.nets_reused as i64)),
                ("nets_recoded", Value::Int(stats.nets_recoded as i64)),
                (
                    "crossing_delta_rebuilds",
                    Value::Int(stats.crossing_delta_rebuilds as i64),
                ),
                (
                    "crossing_full_builds",
                    Value::Int(stats.crossing_full_builds as i64),
                ),
                ("probes", Value::Int(stats.probes as i64)),
                ("config_changes", Value::Int(stats.config_changes as i64)),
                ("lr_iterations", Value::Int(stats.lr.iterations as i64)),
                ("lr_priced_nets", Value::Int(stats.lr.priced_nets as i64)),
                ("wdm_cold_solves", Value::Int(stats.wdm.cold_solves as i64)),
                ("wdm_warm_trials", Value::Int(stats.wdm.warm_trials as i64)),
                (
                    "wdm_orientations_reused",
                    Value::Int(stats.wdm.orientations_reused as i64),
                ),
                (
                    "wdm_networks_cloned",
                    Value::Int(stats.wdm.mcmf.networks_cloned as i64),
                ),
                (
                    "fingerprint",
                    format!("{:016x}", session.fingerprint()).into(),
                ),
                (
                    "config_fingerprint",
                    format!("{:016x}", session.config().fingerprint()).into(),
                ),
            ])
            .compact()
        }
        // Open/Close/Shutdown are exclusive and never reach this path.
        other => error_response(
            Some(other.op()),
            other.session(),
            "request kind cannot run batched",
        ),
    }
}

fn unknown_session(op: &str, session: &str) -> String {
    error_response(Some(op), Some(session), &format!("no session {session:?}"))
}

fn error_response(op: Option<&str>, session: Option<&str>, message: &str) -> String {
    let mut fields = vec![("ok", Value::Bool(false))];
    fields.push(("op", op.map_or(Value::Null, Value::from)));
    if let Some(s) = session {
        fields.push(("session", s.into()));
    }
    fields.push(("error", message.into()));
    Value::object(fields).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = "design d\ndie 0 0 600 600\ngroup a\nbit 20 20 : 500 500\n\
                          bit 30 20 : 500 480\nend\ngroup b\nbit 40 400 : 560 40\nend\n";

    fn open_line(session: &str) -> String {
        Value::object(vec![
            ("op", "open_design".into()),
            ("session", session.into()),
            ("design", DESIGN.into()),
        ])
        .compact()
    }

    #[test]
    fn open_route_report_close_round_trip() {
        let mut server = Server::new(Executor::sequential(), 1);
        let open = server.handle_line(&open_line("s"));
        assert!(open.contains("\"ok\":true"), "{open}");
        let route = server.handle_line("{\"op\":\"route\",\"session\":\"s\"}");
        assert!(route.contains("\"power_mw\""), "{route}");
        let report = server.handle_line("{\"op\":\"report\",\"session\":\"s\"}");
        assert!(report.contains("\"wdm_networks_cloned\":0"), "{report}");
        let close = server.handle_line("{\"op\":\"close\",\"session\":\"s\"}");
        assert!(close.contains("\"routes\":1"), "{close}");
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn errors_are_responses_not_failures() {
        let mut server = Server::new(Executor::sequential(), 1);
        for (line, needle) in [
            ("{not json", "malformed request"),
            ("{\"op\": \"warp\"}", "unknown op"),
            ("{\"op\": \"route\"}", "needs a"),
            ("{\"op\": \"route\", \"session\": \"ghost\"}", "no session"),
        ] {
            let resp = server.handle_line(line);
            assert!(resp.contains("\"ok\":false"), "{resp}");
            assert!(resp.contains(needle), "{resp}");
        }
        // The daemon still works afterwards.
        assert!(server.handle_line(&open_line("s")).contains("\"ok\":true"));
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

    #[test]
    fn bad_knobs_are_errors_and_leave_the_config_alone() {
        let mut server = Server::new(Executor::sequential(), 1);
        assert!(server.handle_line(&open_line("s")).contains("\"ok\":true"));
        let before = config_fingerprint(&mut server);
        for (knobs, knob) in [
            ("\"capacity\": -4", "capacity"),
            ("\"lr_iter\": 5", "lr_iter"),
            ("\"max_loss\": \"high\"", "max_loss"),
            ("\"ilp_secs\": 30", "ilp_secs"),
            ("\"selector\": \"ilp\"", "selector"),
            ("\"ilp_wave_size\": 2", "ilp_wave_size"),
            ("\"max_loss\": [1]", "max_loss"),
            // A good knob before a bad one is not applied either.
            ("\"lr_iters\": 4, \"capacity\": 0", "capacity"),
        ] {
            let line = format!("{{\"op\": \"set_config\", \"session\": \"s\", {knobs}}}");
            let resp = server.handle_line(&line);
            assert!(resp.contains("\"ok\":false"), "{line} -> {resp}");
            assert!(
                resp.contains(&format!("\\\"{knob}\\\"")),
                "{line} -> {resp}"
            );
            assert_eq!(config_fingerprint(&mut server), before, "{line}");
        }
        let ilp = "{\"op\":\"set_config\",\"session\":\"s\",\"selector\":\"ilp:30\"}";
        assert!(server.handle_line(ilp).contains("\"ok\":true"));
        assert_ne!(config_fingerprint(&mut server), before);
    }

    #[test]
    fn die_beyond_die_scale_is_rejected_and_sessions_survive() {
        let mut server = Server::new(Executor::sequential(), 1);
        assert!(server
            .handle_line(&open_line("good"))
            .contains("\"ok\":true"));
        let huge = "design h\ndie -4000000000000000000 -4000000000000000000 \
                    4000000000000000000 4000000000000000000\ngroup a\n\
                    bit 0 0 : 3000000000000000000 3000000000000000000\n\
                    bit 5 5 : -3000000000000000000 7\nend\n";
        for (session, design) in [
            (
                "wide",
                "design w\ndie -9000000000000000000 0 9000000000000000000 10\n",
            ),
            ("huge", huge),
        ] {
            let line = Value::object(vec![
                ("op", "open_design".into()),
                ("session", session.into()),
                ("design", design.into()),
            ])
            .compact();
            let resp = server.handle_line(&line);
            assert!(resp.contains("\"ok\":false"), "{resp}");
            assert!(resp.contains("die corner"), "{resp}");
        }
        assert_eq!(server.session_count(), 1);
        // A die just inside the bound, with pins on its far corners,
        // opens and routes.
        let edge = operon_geom::DIE_SCALE - 1;
        let corner = Value::object(vec![
            ("op", "open_design".into()),
            ("session", "corner".into()),
            (
                "design",
                format!(
                    "design c\ndie {n} {n} {edge} {edge}\ngroup a\n\
                     bit {n} {n} : {edge} {edge}\nbit {edge} {n} : {n} {edge}\nend\n",
                    n = -edge
                )
                .into(),
            ),
        ])
        .compact();
        assert!(server.handle_line(&corner).contains("\"ok\":true"));
        let route = server.handle_line("{\"op\":\"route\",\"session\":\"corner\"}");
        assert!(route.contains("\"power_mw\""), "{route}");
        let route = server.handle_line("{\"op\":\"route\",\"session\":\"good\"}");
        assert!(route.contains("\"power_mw\""), "{route}");
    }

    #[test]
    fn eco_responses_match_between_batched_and_single() {
        let trace = [
            open_line("a"),
            open_line("b"),
            "{\"op\":\"route\",\"session\":\"a\"}".to_owned(),
            "{\"op\":\"route\",\"session\":\"b\"}".to_owned(),
            "{\"op\":\"eco_move_pins\",\"session\":\"a\",\"group\":0,\"dx\":5,\"dy\":-5}"
                .to_owned(),
            "{\"op\":\"eco_move_pins\",\"session\":\"b\",\"group\":1,\"dx\":-5,\"dy\":5}"
                .to_owned(),
            "{\"op\":\"report\",\"session\":\"a\"}".to_owned(),
            "{\"op\":\"report\",\"session\":\"b\"}".to_owned(),
        ]
        .join("\n");
        let mut wide = Server::new(Executor::new(2), 4);
        let batched = wide.run_trace(&trace);
        let mut narrow = Server::new(Executor::sequential(), 1);
        let sequential = narrow.run_trace(&trace);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn serve_loop_reads_and_records() {
        let trace = [
            open_line("s"),
            "{\"op\":\"route\",\"session\":\"s\"}".to_owned(),
            "{\"op\":\"shutdown\"}".to_owned(),
        ]
        .join("\n")
            + "\n";
        let mut server = Server::new(Executor::sequential(), 1);
        let mut reader = BufReader::new(trace.as_bytes());
        let mut out = Vec::new();
        let mut recorded = Vec::new();
        server
            .serve(&mut reader, &mut out, Some(&mut recorded))
            .expect("in-memory serve cannot fail");
        assert!(server.is_shut_down());
        let out = String::from_utf8(out).expect("responses are UTF-8");
        assert_eq!(out.lines().count(), 3);
        assert_eq!(String::from_utf8(recorded).expect("trace is UTF-8"), trace);
        // The recorded trace replays to the same responses.
        let mut replayer = Server::new(Executor::sequential(), 1);
        assert_eq!(replayer.run_trace(&trace), out);
    }
}
