//! The warm-artifact sweep driver.
//!
//! Evaluating a lattice as N independent cold runs repeats the whole
//! pipeline per point. This driver instead groups lattice points by
//! [`operon::config::OperonConfig::shared_prefix_key`] — points that differ only in
//! selection-, WDM- or reporting-tier knobs — and walks each group on
//! one resident [`WarmSession`]: the first point routes cold, every
//! subsequent point re-runs only the dirty pipeline suffix
//! ([`WarmSession::set_config`] + [`WarmSession::route`]). Partial
//! re-runs are bit-identical to cold runs by the session contract, so
//! the sweep's objective vectors — and therefore its Pareto front — are
//! byte-equal to the cold-per-point evaluation, at any thread count and
//! any schedule seed.
//!
//! Groups are shuffled by a seeded Fisher–Yates before scheduling (load
//! balance across the coarse workers); results scatter back by lattice
//! index and the dominance filter consumes them in index order, so
//! neither the seed nor the thread count can move the front.

use crate::lattice::{KnobValue, Lattice};
use crate::pareto::ParetoFront;
use operon::session::RouteSummary;
use operon::{report, timing, OperonError, WarmSession};
use operon_exec::json::Value;
use operon_exec::Executor;
use operon_netlist::Design;
use operon_optics::thermal::ThermalProfile;
use std::collections::BTreeMap;

/// The objective vector's dimension names, in vector order. All four
/// are minimized.
pub const OBJECTIVE_NAMES: [&str; 4] = [
    "power_mw",
    "wdm_count",
    "worst_delay_ps",
    "thermal_tuning_mw",
];

/// One lattice point's objective vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objectives {
    /// Total selection power, mW.
    pub power_mw: f64,
    /// Final WDM waveguide count.
    pub wdm_count: usize,
    /// Worst source-to-sink arrival over every chosen candidate, ps.
    pub worst_delay_ps: f64,
    /// Ring tuning power of the selection under the sweep's thermal
    /// profile, mW.
    pub thermal_tuning_mw: f64,
}

impl Objectives {
    /// The vector form consumed by the dominance filter, ordered as
    /// [`OBJECTIVE_NAMES`].
    pub fn vector(&self) -> [f64; 4] {
        [
            self.power_mw,
            self.wdm_count as f64,
            self.worst_delay_ps,
            self.thermal_tuning_mw,
        ]
    }
}

/// One evaluated lattice point.
#[derive(Clone, Debug)]
pub struct PointRecord {
    /// Dense lattice index.
    pub index: usize,
    /// The point's axis knob assignments.
    pub knobs: Vec<(String, KnobValue)>,
    /// [`operon::config::OperonConfig::fingerprint`] of the exact
    /// configuration routed.
    pub fingerprint: u64,
    /// The measured objective vector.
    pub objectives: Objectives,
    /// Whether warm state served the route (false = cold pipeline).
    pub warm: bool,
    /// Pipeline stages answered from resident artifacts for this point.
    pub stages_reused: u32,
    /// Pipeline stages re-run for this point.
    pub stages_rerun: u32,
}

/// A finished sweep: every point plus the Pareto front over
/// [`OBJECTIVE_NAMES`].
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Per-point records, in lattice index order.
    pub points: Vec<PointRecord>,
    /// Lattice indices on the Pareto front, ascending.
    pub front: Vec<usize>,
    /// Warm groups the lattice decomposed into (equals the point count
    /// under [`SweepOptions::cold`]).
    pub groups: usize,
    /// Total pipeline stages answered from resident artifacts.
    pub stages_reused: u64,
    /// Total pipeline stages re-run.
    pub stages_rerun: u64,
}

impl SweepResult {
    /// JSON rendering of the whole sweep (points, objectives, front,
    /// reuse totals). Deterministic: byte-equal across thread counts
    /// and schedule seeds.
    pub fn to_json(&self) -> Value {
        let points: Vec<Value> = self
            .points
            .iter()
            .map(|r| {
                let knobs: Vec<(String, Value)> = r
                    .knobs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect();
                let objectives: Vec<(String, Value)> = OBJECTIVE_NAMES
                    .iter()
                    .zip(r.objectives.vector())
                    .map(|(name, v)| ((*name).to_owned(), Value::Float(v)))
                    .collect();
                Value::object(vec![
                    ("index".to_owned(), Value::Int(r.index as i64)),
                    ("knobs".to_owned(), Value::object(knobs)),
                    (
                        "config_fingerprint".to_owned(),
                        Value::Str(format!("{:016x}", r.fingerprint)),
                    ),
                    ("objectives".to_owned(), Value::object(objectives)),
                    ("warm".to_owned(), Value::Bool(r.warm)),
                    (
                        "stages_reused".to_owned(),
                        Value::Int(i64::from(r.stages_reused)),
                    ),
                    (
                        "stages_rerun".to_owned(),
                        Value::Int(i64::from(r.stages_rerun)),
                    ),
                ])
            })
            .collect();
        Value::object(vec![
            (
                "objective_names",
                Value::Array(
                    OBJECTIVE_NAMES
                        .iter()
                        .map(|n| Value::Str((*n).to_owned()))
                        .collect(),
                ),
            ),
            ("points", Value::Array(points)),
            (
                "front",
                Value::Array(self.front.iter().map(|&i| Value::Int(i as i64)).collect()),
            ),
            ("groups", Value::Int(self.groups as i64)),
            ("stages_reused", Value::Int(self.stages_reused as i64)),
            ("stages_rerun", Value::Int(self.stages_rerun as i64)),
        ])
    }
}

/// Sweep driver options.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Schedule seed (group shuffle for load balance; never affects
    /// results).
    pub seed: u64,
    /// Evaluate every point on its own cold session instead of sharing
    /// warm prefixes — the baseline the warm driver is benchmarked
    /// against. Results are bit-identical either way.
    pub cold: bool,
    /// Thermal profile pricing the `thermal_tuning_mw` objective.
    pub thermal: ThermalProfile,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            seed: 0x5EED,
            cold: false,
            thermal: ThermalProfile::stressed(2.0),
        }
    }
}

/// splitmix64: the workspace's stock seed-expansion mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle of the group schedule.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x0bad_5eed_0bad_5eed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Measures one routed point's objective vector off the session's
/// resident artifacts. Pure: iteration follows net order, so the fold
/// is deterministic at any thread count.
fn objectives_of(
    session: &WarmSession,
    summary: &RouteSummary,
    thermal: &ThermalProfile,
) -> Result<Objectives, OperonError> {
    let (Some(candidates), Some(selection)) = (session.candidates(), session.selection()) else {
        return Err(OperonError::SelectionFailed(
            "sweep session has no routed state to measure".to_owned(),
        ));
    };
    let delay = &session.config().delay;
    let worst_delay_ps = candidates
        .iter()
        .zip(&selection.choice)
        .map(|(nc, &j)| timing::worst_delay_ps(&nc.candidates[j], delay))
        .fold(0.0, f64::max);
    let thermal_tuning_mw =
        report::thermal_report(candidates, &selection.choice, thermal).tuning_power_mw;
    Ok(Objectives {
        power_mw: summary.power_mw,
        wdm_count: summary.wdm_final,
        worst_delay_ps,
        thermal_tuning_mw,
    })
}

/// Walks one group on a single resident session: the first point routes
/// cold, every later point re-runs only the suffix its diff dirties.
fn eval_group(
    design: &Design,
    exec: &Executor,
    points: &[crate::lattice::SweepPoint],
    opts: &SweepOptions,
) -> Result<Vec<PointRecord>, OperonError> {
    let first = points
        .first()
        .ok_or_else(|| OperonError::InvalidConfig("empty sweep group".to_owned()))?;
    let mut session = WarmSession::open(design.clone(), first.config.clone(), exec.clone())?;
    let mut out = Vec::with_capacity(points.len());
    for (pos, point) in points.iter().enumerate() {
        if pos > 0 {
            session.set_config(point.config.clone())?;
        }
        let summary = session.route()?;
        let objectives = objectives_of(&session, &summary, &opts.thermal)?;
        out.push(PointRecord {
            index: point.index,
            knobs: point.knobs.clone(),
            fingerprint: point.config.fingerprint(),
            objectives,
            warm: summary.warm,
            stages_reused: summary.stages_reused,
            stages_rerun: summary.stages_rerun,
        });
    }
    Ok(out)
}

/// Evaluates every lattice point and streams the objective vectors into
/// a Pareto front (see the module docs for the reuse and determinism
/// story). Emits a `"sweep"` stage with the reuse counters into the
/// executor's run report; per-point attribution rides on the
/// `config_fingerprint` stage labels the sessions stamp.
///
/// # Errors
///
/// Lattice declaration errors surface as
/// [`OperonError::InvalidConfig`]; routing errors propagate from the
/// sessions. When several groups fail, the error of the group holding
/// the smallest lattice index is reported — independent of thread
/// count and schedule seed.
pub fn sweep(
    design: &Design,
    lattice: &Lattice,
    exec: &Executor,
    opts: &SweepOptions,
) -> Result<SweepResult, OperonError> {
    let n = lattice.len();
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        points.push(lattice.point(i).map_err(OperonError::InvalidConfig)?);
    }

    let mut groups: Vec<Vec<crate::lattice::SweepPoint>> = if opts.cold {
        points.into_iter().map(|p| vec![p]).collect()
    } else {
        let mut by_key: BTreeMap<String, Vec<crate::lattice::SweepPoint>> = BTreeMap::new();
        for p in points {
            by_key
                .entry(p.config.shared_prefix_key())
                .or_default()
                .push(p);
        }
        by_key.into_values().collect()
    };
    // Canonical group order: by smallest member index (points were
    // pushed in index order, so the first member is the smallest).
    groups.sort_by_key(|g| g.first().map_or(usize::MAX, |p| p.index));
    let group_count = groups.len();

    let mut schedule: Vec<&Vec<crate::lattice::SweepPoint>> = groups.iter().collect();
    shuffle(&mut schedule, opts.seed);

    let results = exec.par_map_coarse(&schedule, |group| eval_group(design, exec, group, opts));

    let mut first_error: Option<(usize, OperonError)> = None;
    let mut slots: Vec<Option<PointRecord>> = (0..n).map(|_| None).collect();
    for (group, result) in schedule.iter().zip(results) {
        match result {
            Ok(records) => {
                for record in records {
                    let index = record.index;
                    slots[index] = Some(record);
                }
            }
            Err(e) => {
                let lead = group.first().map_or(usize::MAX, |p| p.index);
                if first_error.as_ref().is_none_or(|(i, _)| lead < *i) {
                    first_error = Some((lead, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    let points: Vec<PointRecord> = slots
        .into_iter()
        .map(|slot| slot.expect("groups partition the lattice"))
        .collect();

    // Offer in lattice index order: the front (and its acceptance
    // history) is a pure function of the lattice, never the schedule.
    let mut front = ParetoFront::new(OBJECTIVE_NAMES.len());
    for record in &points {
        front.offer(record.index, &record.objectives.vector());
    }
    let stages_reused: u64 = points.iter().map(|r| u64::from(r.stages_reused)).sum();
    let stages_rerun: u64 = points.iter().map(|r| u64::from(r.stages_rerun)).sum();
    {
        let mut stage = exec.stage("sweep");
        stage.record("points", n as u64);
        stage.record("groups", group_count as u64);
        stage.record(
            "cold_points",
            points.iter().filter(|r| !r.warm).count() as u64,
        );
        stage.record("stages_reused", stages_reused);
        stage.record("stages_rerun", stages_rerun);
        stage.record("front_size", front.len() as u64);
    }
    Ok(SweepResult {
        points,
        front: front.indices(),
        groups: group_count,
        stages_reused,
        stages_rerun,
    })
}

/// Renders the whole sweep as an `operon_serve` JSONL request trace:
/// one session, then per lattice point a `set_config` (base knobs +
/// that point's axis assignments, so replay applies each point's exact
/// configuration regardless of the previous point) followed by a
/// `route`, closed by `report` + `close`. Replaying the trace through
/// the daemon doubles a sweep as a service stress workload — and the
/// daemon's per-route `power_mw` digests are bit-equal to the sweep's
/// own objective vectors.
///
/// # Errors
///
/// The errors of [`Lattice::point`].
pub fn sweep_trace(design: &Design, lattice: &Lattice) -> Result<String, String> {
    let session = format!("{}-sweep", design.name());
    let mut out = String::new();
    out.push_str(
        &Value::object(vec![
            ("op".to_owned(), Value::Str("open_design".to_owned())),
            ("session".to_owned(), Value::Str(session.clone())),
            (
                "design".to_owned(),
                Value::Str(operon_netlist::io::write_design(design)),
            ),
        ])
        .compact(),
    );
    out.push('\n');
    for i in 0..lattice.len() {
        let point = lattice.point(i)?;
        let mut fields: Vec<(String, Value)> = vec![
            ("op".to_owned(), Value::Str("set_config".to_owned())),
            ("session".to_owned(), Value::Str(session.clone())),
        ];
        for (name, value) in lattice.base_knobs().iter().chain(point.knobs.iter()) {
            fields.push((name.clone(), value.to_json()));
        }
        out.push_str(&Value::object(fields).compact());
        out.push('\n');
        out.push_str(
            &Value::object(vec![
                ("op".to_owned(), Value::Str("route".to_owned())),
                ("session".to_owned(), Value::Str(session.clone())),
            ])
            .compact(),
        );
        out.push('\n');
    }
    for op in ["report", "close"] {
        out.push_str(
            &Value::object(vec![
                ("op".to_owned(), Value::Str(op.to_owned())),
                ("session".to_owned(), Value::Str(session.clone())),
            ])
            .compact(),
        );
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Axis;
    use operon_netlist::synth::{generate, SynthConfig};

    fn small_lattice() -> Lattice {
        Lattice::new(
            vec![],
            vec![
                Axis::parse("max_loss=20,25").unwrap(),
                Axis::parse("lr_iters=6,10").unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn warm_sweep_reuses_prefixes_within_groups() {
        let design = generate(&SynthConfig::small(), 11);
        let lattice = small_lattice();
        let exec = Executor::sequential();
        let result = sweep(&design, &lattice, &exec, &SweepOptions::default()).unwrap();
        assert_eq!(result.points.len(), 4);
        assert_eq!(result.groups, 2, "two max_loss values, two warm groups");
        // Each group: one cold point, one selection-tier partial (3/2).
        let cold = result.points.iter().filter(|p| !p.warm).count();
        assert_eq!(cold, 2);
        assert_eq!(result.stages_reused, 2 * 3);
        assert_eq!(result.stages_rerun, 2 * (5 + 2));
        assert!(!result.front.is_empty());
        for w in result.front.windows(2) {
            assert!(w[0] < w[1], "front indices must be ascending");
        }
    }

    #[test]
    fn cold_mode_isolates_every_point() {
        let design = generate(&SynthConfig::small(), 11);
        let lattice = small_lattice();
        let exec = Executor::sequential();
        let opts = SweepOptions {
            cold: true,
            ..SweepOptions::default()
        };
        let result = sweep(&design, &lattice, &exec, &opts).unwrap();
        assert_eq!(result.groups, 4);
        assert!(result.points.iter().all(|p| !p.warm));
        assert_eq!(result.stages_reused, 0);
        assert_eq!(result.stages_rerun, 4 * 5);
    }

    #[test]
    fn invalid_lattice_points_fail_deterministically() {
        let design = generate(&SynthConfig::small(), 11);
        // Pitch above displacement: every point invalid; the error must
        // name the smallest index (0).
        let lattice =
            Lattice::new(vec![], vec![Axis::parse("wdm_pitch=700,800").unwrap()]).unwrap();
        let err = sweep(
            &design,
            &lattice,
            &Executor::sequential(),
            &SweepOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("lattice point 0"), "{err}");
    }

    #[test]
    fn sweep_json_is_self_describing() {
        let design = generate(&SynthConfig::small(), 11);
        let result = sweep(
            &design,
            &small_lattice(),
            &Executor::sequential(),
            &SweepOptions::default(),
        )
        .unwrap();
        let json = result.to_json();
        assert_eq!(
            json.get("points").and_then(Value::as_array).unwrap().len(),
            4
        );
        let p0 = &json.get("points").and_then(Value::as_array).unwrap()[0];
        assert!(p0
            .get("config_fingerprint")
            .and_then(Value::as_str)
            .is_some());
        assert!(p0
            .get("objectives")
            .and_then(|o| o.get("power_mw"))
            .and_then(Value::as_f64)
            .is_some());
        assert!(json.get("front").and_then(Value::as_array).is_some());
    }
}
