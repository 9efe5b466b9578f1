//! Warm routing sessions: the one driver of the OPERON pipeline.
//!
//! A [`WarmSession`] owns one design plus every expensive artifact the
//! flow derives from it — hyper nets, per-net candidate pools, the
//! [`CrossingIndex`], the latest selection, and the WDM plan together
//! with its orientation-reuse record ([`ResidentAssignment`]) — and
//! reuses them across requests instead of rebuilding per invocation. It
//! is the unit of residency behind the `operon_serve` daemon and the
//! `operon_explore` sweep, and [`OperonFlow::run`] is a one-shot
//! session: open, route, [`into_result`](WarmSession::into_result).
//!
//! Every route runs the paper's five stages (Fig. 2) — clustering,
//! co-design, crossing analysis, selection, WDM — through one stage
//! sequence that starts at the first stage whose inputs changed and
//! takes everything upstream from the resident state:
//!
//! * a cold route starts at clustering and reuses nothing;
//! * an ECO ([`WarmSession::apply_design`] and the helpers built on it)
//!   starts at clustering too, but groups whose name and bits are
//!   unchanged keep their hyper nets and candidate pools;
//! * a configuration change ([`WarmSession::set_config`]) starts at its
//!   first dirty stage ([`OperonConfig::first_dirty_stage`]).
//!
//! Each stage opens exactly one executor stage record, so the run
//! report is the session's only timing system. After any sequence of
//! requests the resident result is **identical** to a cold route of the
//! current design under the current configuration — warmth is purely a
//! speed-up, never a different answer. That is what makes the serving
//! layer's replay determinism possible: responses derived from session
//! state are pure functions of the request history, independent of
//! thread count and batch composition.
//!
//! What stays warm across an ECO:
//!
//! * unchanged groups keep their clustering and co-design candidates;
//! * when every reused hyper net keeps its dense index, the crossing
//!   index is patched via [`CrossingIndex::rebuild_delta`] instead of
//!   rebuilt: only the changed nets' segments are tested, against the
//!   nets whose bounding boxes they overlap, and every other record is
//!   kept;
//! * selection re-runs globally (a local change can shift the crossing
//!   coupling anywhere) against the session's resident LR workspace;
//! * WDM planning re-runs via [`wdm::plan`], which is handed the
//!   previous route's reuse record: an orientation whose connection list
//!   and WDM knobs did not change is taken over unsolved
//!   (`wdm_orientations_reused`), the other one is re-planned one
//!   assignment component per coarse task (`wdm_components`).
//!
//! No flow network stays resident: each one is dropped when its
//! component's reduction ends, and the WDM plan is the only WDM state a
//! session keeps. While a reduction runs, each tentative deletion is a
//! plain max-flow check on the component's committed network
//! ([`McmfGraph::can_divert`](operon_mcmf::McmfGraph::can_divert)),
//! which leaves that network bitwise as it found it. Deletion what-ifs
//! ([`WarmSession::probe_wdm`]) read the reduction's fixpoint off the
//! plan and run no solver. A flow network cannot be cloned, so
//! `networks_cloned` stays 0 for the whole session lifecycle.
//!
//! [`OperonFlow::run`]: crate::flow::OperonFlow::run

use crate::codesign::{generate_candidates, NetCandidates};
use crate::config::{DirtyStage, OperonConfig, Selector};
use crate::flow::FlowResult;
use crate::formulation::{select_ilp, selection_feasible, SelectionResult};
use crate::lr::{select_lr, LrStats, LrWorkspace};
use crate::wdm::{self, ResidentAssignment, WdmPlan, WdmProbe, WdmStats};
use crate::{CrossingIndex, OperonError};
use operon_cluster::{group_clusters, HyperNet, HyperNetId};
use operon_exec::{Executor, StageScope};
use operon_geom::Point;
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Deterministic work counters accumulated over a session's lifetime.
///
/// Every field is a pure function of the request history (thread-count
/// invariant), so sessions can surface these in protocol responses
/// without breaking the byte-identical replay contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Route-producing requests handled (`route` + ECOs).
    pub routes: u64,
    /// Routes that ran the full cold pipeline.
    pub cold_routes: u64,
    /// Routes that reused warm per-group state incrementally.
    pub warm_routes: u64,
    /// `route` requests answered from the resident result outright.
    pub cached_routes: u64,
    /// Warm routes that re-ran only the dirty pipeline suffix after a
    /// configuration change (a subset of `warm_routes`).
    pub partial_routes: u64,
    /// Whole pipeline stages (of the five: clustering, codesign,
    /// crossing, selection, WDM) answered from resident artifacts,
    /// summed over every route. Cached routes count all five; a
    /// config-partial route counts its clean prefix; ECO routes count
    /// zero (their reuse is finer-grained — see the group, net and
    /// crossing counters).
    pub stages_reused: u64,
    /// Whole pipeline stages re-run, summed over every route.
    pub stages_rerun: u64,
    /// Groups whose clustering + candidates were reused across ECOs.
    pub groups_reused: u64,
    /// Groups re-clustered because they changed.
    pub groups_reclustered: u64,
    /// Hyper nets whose candidate pools were reused.
    pub nets_reused: u64,
    /// Hyper nets whose candidates were regenerated.
    pub nets_recoded: u64,
    /// Crossing indexes patched via `rebuild_delta`.
    pub crossing_delta_rebuilds: u64,
    /// Crossing indexes built from scratch.
    pub crossing_full_builds: u64,
    /// WDM deletion what-if probes answered.
    pub probes: u64,
    /// Configuration replacements.
    pub config_changes: u64,
    /// Accumulated LR pricing counters across all selections.
    pub lr: LrStats,
    /// Accumulated WDM/MCMF counters across all plans.
    pub wdm: WdmStats,
}

/// A compact, deterministic digest of one routed state — everything a
/// protocol response reports about a route without touching wall-clock.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteSummary {
    /// Whether warm state (cached or incremental) served the request.
    pub warm: bool,
    /// Hyper nets routed.
    pub hyper_nets: usize,
    /// Hyper nets routed at least partly optically.
    pub optical: usize,
    /// Hyper nets routed fully electrically.
    pub electrical: usize,
    /// Total power of the selection, mW.
    pub power_mw: f64,
    /// Whether the selector proved optimality (ILP only).
    pub proven_optimal: bool,
    /// WDM count after sweep placement.
    pub wdm_initial: usize,
    /// WDM count after flow re-assignment + reduction.
    pub wdm_final: usize,
    /// Whole pipeline stages this route answered from resident
    /// artifacts (5 for a cached answer, 0 for a cold run; a
    /// config-partial route reports its clean prefix length).
    pub stages_reused: u32,
    /// Whole pipeline stages this route re-ran.
    pub stages_rerun: u32,
}

/// The resident artifacts of a routed design.
struct WarmState {
    hyper_nets: Vec<HyperNet>,
    candidates: Vec<NetCandidates>,
    crossings: CrossingIndex,
    selection: SelectionResult,
    wdm: WdmPlan,
    resident: ResidentAssignment,
}

/// What a route takes from the resident state besides the design.
enum Reuse {
    /// Nothing: every stage runs from scratch.
    Nothing,
    /// An ECO: the previous design and its routed state. Groups that
    /// match an old group keep its hyper nets and candidates; the
    /// crossing index is patched when every kept net keeps its index.
    Groups(Design, WarmState),
    /// A configuration change: the stages before the first dirty one
    /// keep their outputs.
    Prefix(WarmState),
}

/// Hyper nets in dense order, each with the candidate pool and old
/// dense index it carries over from the previous route, if any.
type Clustered = Vec<(HyperNet, Option<(NetCandidates, usize)>)>;

/// One design's long-lived routing session (see the module docs).
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::session::WarmSession;
/// use operon_exec::Executor;
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 7);
/// let mut session =
///     WarmSession::open(design, OperonConfig::default(), Executor::sequential())?;
/// let first = session.route()?;
/// let again = session.route()?; // answered from the resident result
/// assert_eq!(first.power_mw, again.power_mw);
/// assert!(again.warm);
/// # Ok::<(), operon::OperonError>(())
/// ```
pub struct WarmSession {
    config: OperonConfig,
    exec: Executor,
    design: Design,
    state: Option<WarmState>,
    /// First pipeline stage the resident state is stale for, escalated
    /// across `set_config` calls since the last route. Meaningful only
    /// while `state` is `Some`; `Clean` means the resident result
    /// answers the current configuration outright.
    dirty: DirtyStage,
    stats: SessionStats,
    /// Persistent LR pricing arenas, reused by every selection this
    /// session runs (reuse never changes results, only skips allocator
    /// traffic — see [`LrWorkspace`]).
    lr_ws: LrWorkspace,
}

impl WarmSession {
    /// Opens a session over `design`. Validates eagerly; no routing work
    /// happens until the first route-producing request.
    ///
    /// # Errors
    ///
    /// [`OperonError::InvalidConfig`] / [`OperonError::EmptyDesign`].
    pub fn open(design: Design, config: OperonConfig, exec: Executor) -> Result<Self, OperonError> {
        config.validate()?;
        if design.groups().is_empty() {
            return Err(OperonError::EmptyDesign);
        }
        Ok(Self {
            config,
            exec,
            design,
            state: None,
            dirty: DirtyStage::Clean,
            stats: SessionStats::default(),
            lr_ws: LrWorkspace::new(),
        })
    }

    /// The current design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The active configuration.
    pub fn config(&self) -> &OperonConfig {
        &self.config
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Whether a resident routed state exists.
    pub fn is_routed(&self) -> bool {
        self.state.is_some()
    }

    /// The resident selection, when routed.
    pub fn selection(&self) -> Option<&SelectionResult> {
        self.state.as_ref().map(|s| &s.selection)
    }

    /// The resident WDM plan, when routed.
    pub fn wdm_plan(&self) -> Option<&WdmPlan> {
        self.state.as_ref().map(|s| &s.wdm)
    }

    /// The resident hyper nets, when routed.
    pub fn hyper_nets(&self) -> Option<&[HyperNet]> {
        self.state.as_ref().map(|s| s.hyper_nets.as_slice())
    }

    /// The resident per-net candidate pools, when routed.
    pub fn candidates(&self) -> Option<&[NetCandidates]> {
        self.state.as_ref().map(|s| s.candidates.as_slice())
    }

    /// Digest of the resident WDM plan ([`WdmPlan::fingerprint`]; 0 when
    /// unrouted). Probes read the plan and leave it unchanged; the digest
    /// is thread-count invariant because every plan is.
    pub fn fingerprint(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.wdm.fingerprint())
    }

    /// Routes the current design: answers from the resident result when
    /// it is current, re-runs only the dirty pipeline suffix after a
    /// configuration change (see [`WarmSession::set_config`]), and runs
    /// the cold pipeline otherwise.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::flow::OperonFlow::run`].
    pub fn route(&mut self) -> Result<RouteSummary, OperonError> {
        self.stats.routes += 1;
        let dirty = std::mem::replace(&mut self.dirty, DirtyStage::Clean);
        match self.state.take() {
            Some(state) if dirty == DirtyStage::Clean => {
                self.stats.cached_routes += 1;
                Ok(self.install(state, true, dirty))
            }
            Some(prev) => {
                self.stats.warm_routes += 1;
                self.stats.partial_routes += 1;
                self.run_from(dirty, Reuse::Prefix(prev))
            }
            None => {
                self.stats.cold_routes += 1;
                self.run_from(DirtyStage::Clustering, Reuse::Nothing)
            }
        }
    }

    /// Consumes the session and hands over its routed artifacts, routing
    /// first unless the resident result is current. This is what
    /// [`crate::flow::OperonFlow::run`] calls.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`route`](WarmSession::route).
    pub fn into_result(mut self) -> Result<FlowResult, OperonError> {
        self.route()?;
        let Some(state) = self.state else {
            return Err(OperonError::SelectionFailed(
                "session has no routed state".to_owned(),
            ));
        };
        Ok(FlowResult {
            hyper_nets: state.hyper_nets,
            candidates: state.candidates,
            selection: state.selection,
            wdm: state.wdm,
        })
    }

    /// ECO: translates every pin of one group by `(dx, dy)` and
    /// re-routes incrementally.
    ///
    /// # Errors
    ///
    /// [`OperonError::EcoRejected`] (nothing changed) when the group
    /// index is out of range or a pin would leave the die (or the
    /// coordinate range); otherwise the failure modes of
    /// [`crate::flow::OperonFlow::run`].
    pub fn move_pins(
        &mut self,
        group: usize,
        dx: i64,
        dy: i64,
    ) -> Result<RouteSummary, OperonError> {
        let die = self.design.die();
        let Some(target) = self.design.groups().get(group) else {
            return Err(OperonError::EcoRejected(format!(
                "no group {group} (design has {})",
                self.design.group_count()
            )));
        };
        let shift = |p: Point| {
            p.x.checked_add(dx)
                .zip(p.y.checked_add(dy))
                .map(|(x, y)| Point::new(x, y))
                .filter(|&q| die.contains(q))
                .ok_or_else(|| {
                    OperonError::EcoRejected(format!(
                        "moving group {group} by ({dx}, {dy}) pushes pin {p} outside die {die}"
                    ))
                })
        };
        let mut bits = target
            .bits()
            .iter()
            .map(|b| {
                let source = shift(b.source())?;
                let sinks = b
                    .sinks()
                    .iter()
                    .map(|&s| shift(s))
                    .collect::<Result<_, _>>()?;
                Ok(Bit::new(b.id(), source, sinks))
            })
            .collect::<Result<Vec<_>, OperonError>>()?;
        let mut next = Design::new(self.design.name(), die);
        for (i, sig) in self.design.groups().iter().enumerate() {
            if i == group {
                let bits = std::mem::take(&mut bits);
                next.push_group(SignalGroup::new(sig.id(), sig.name(), bits));
            } else {
                next.push_group(sig.clone());
            }
        }
        self.apply_design(next)
    }

    /// ECO: appends a new `bits`-wide bus (one sink per bit, bits laid
    /// out at `pitch` spacing along y) and re-routes incrementally.
    /// Appending keeps every existing hyper net's dense index, so this
    /// is the crossing index's `rebuild_delta` fast path.
    ///
    /// # Errors
    ///
    /// [`OperonError::EcoRejected`] (nothing changed) for an empty bus
    /// or pins outside the die (or the coordinate range); otherwise the
    /// failure modes of [`crate::flow::OperonFlow::run`].
    pub fn add_bus(
        &mut self,
        name: &str,
        bits: usize,
        source: Point,
        sink: Point,
        pitch: i64,
    ) -> Result<RouteSummary, OperonError> {
        if bits == 0 {
            return Err(OperonError::EcoRejected(format!(
                "bus {name:?} needs at least one bit"
            )));
        }
        let die = self.design.die();
        let pin = |p: Point, i: usize| {
            let y = i64::try_from(i)
                .ok()
                .and_then(|i| pitch.checked_mul(i))
                .and_then(|off| p.y.checked_add(off));
            match y.map(|y| Point::new(p.x, y)) {
                Some(q) if die.contains(q) => Ok(q),
                Some(q) => Err(OperonError::EcoRejected(format!(
                    "bus {name:?} pin {q} lies outside die {die}"
                ))),
                None => Err(OperonError::EcoRejected(format!(
                    "bus {name:?} bit {i} at pitch {pitch} leaves the coordinate range"
                ))),
            }
        };
        let group_bits = (0..bits)
            .map(|i| {
                Ok(Bit::new(
                    BitId::new(i as u32),
                    pin(source, i)?,
                    vec![pin(sink, i)?],
                ))
            })
            .collect::<Result<Vec<_>, OperonError>>()?;
        let mut next = self.design.clone();
        next.push_group(SignalGroup::new(
            GroupId::new(self.design.group_count() as u32),
            name,
            group_bits,
        ));
        self.apply_design(next)
    }

    /// ECO: replaces the design and re-routes — incrementally when warm
    /// state exists, cold otherwise. A group of `next` whose name and
    /// bits equal a group of the current design keeps that group's
    /// clustering and candidate pools, wherever it now sits (groups are
    /// paired in order of name, so duplicated names pair positionally).
    /// The result is identical to a fresh
    /// [`OperonFlow::run`](crate::flow::OperonFlow::run) on `next`.
    ///
    /// # Errors
    ///
    /// [`OperonError::EmptyDesign`] (nothing changed) when `next` has no
    /// signal groups; otherwise the failure modes of
    /// [`crate::flow::OperonFlow::run`].
    pub fn apply_design(&mut self, next: Design) -> Result<RouteSummary, OperonError> {
        if next.groups().is_empty() {
            return Err(OperonError::EmptyDesign);
        }
        self.stats.routes += 1;
        // Candidates generated under a stale co-design config must not
        // be reused by the ECO path; selection-or-later staleness is
        // fine because the ECO re-runs selection + WDM under the
        // current configuration anyway.
        if self.dirty >= DirtyStage::Codesign {
            self.state = None;
        }
        self.dirty = DirtyStage::Clean;
        let old = std::mem::replace(&mut self.design, next);
        match self.state.take() {
            Some(prev) => {
                self.stats.warm_routes += 1;
                self.run_from(DirtyStage::Clustering, Reuse::Groups(old, prev))
            }
            None => {
                self.stats.cold_routes += 1;
                self.run_from(DirtyStage::Clustering, Reuse::Nothing)
            }
        }
    }

    /// Replaces the configuration. The diff against the active
    /// configuration is classified by
    /// [`OperonConfig::first_dirty_stage`] and the still-valid prefix of
    /// the resident state is kept: the next [`route`](WarmSession::route)
    /// re-runs only the dirty suffix (selection knobs keep clustering +
    /// candidates + crossings; WDM pitch knobs additionally keep the
    /// selection; co-design knobs keep clustering only). Clustering-tier
    /// changes drop everything, so the next route runs cold. Several
    /// `set_config` calls between routes escalate to the deepest dirty
    /// stage. The partial re-run is bit-identical to a cold run under
    /// the new configuration — each stage is a pure function of its
    /// config slice and the previous stage's output.
    ///
    /// # Errors
    ///
    /// [`OperonError::InvalidConfig`]; the old configuration and state
    /// stay in place on failure.
    pub fn set_config(&mut self, config: OperonConfig) -> Result<(), OperonError> {
        config.validate()?;
        let stage = self.config.first_dirty_stage(&config);
        self.config = config;
        self.stats.config_changes += 1;
        if self.state.is_some() {
            self.dirty = self.dirty.max(stage);
            if self.dirty >= DirtyStage::Clustering {
                self.state = None;
                self.dirty = DirtyStage::Clean;
            }
        }
        Ok(())
    }

    /// What-if: for every final waveguide, in plan order, could it be
    /// deleted, and at what re-route cost? Routes first when unrouted.
    ///
    /// The answer is read off the resident plan and runs no solver. The
    /// WDM reduction runs to its fixpoint, so every final waveguide
    /// failed a tentative deletion on a superset of the final active
    /// set, and a failed deletion stays infeasible on every subset of it
    /// (see [`WdmStats`]). So each probe reads `deletable: false`,
    /// `displaced` equal to the channels the waveguide carries and
    /// `reroute_cost: 0` ([`WdmProbe`]), and
    /// [`fingerprint`](WarmSession::fingerprint) is unchanged.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`route`](WarmSession::route).
    pub fn probe_wdm(&mut self) -> Result<Vec<WdmProbe>, OperonError> {
        if self.state.is_none() {
            self.route()?;
        }
        let Some(state) = self.state.as_ref() else {
            return Err(OperonError::SelectionFailed(
                "session has no routed state to probe".to_owned(),
            ));
        };
        let mut stage = self.exec.stage("probe");
        let probes = state.wdm.probes();
        stage.record("probes", probes.len() as u64);
        self.stats.probes += probes.len() as u64;
        Ok(probes)
    }

    /// Closes the session, returning its lifetime counters.
    pub fn close(self) -> SessionStats {
        self.stats
    }

    /// The pipeline: runs the five stages in order from `from`, the
    /// first stage whose inputs changed, taking everything upstream from
    /// `reuse`, and installs the result as the resident state. A cold
    /// route is an ECO that reuses nothing.
    fn run_from(
        &mut self,
        from: DirtyStage,
        mut reuse: Reuse,
    ) -> Result<RouteSummary, OperonError> {
        let warm = !matches!(reuse, Reuse::Nothing);
        // The WDM stage reuses any orientation whose inputs did not change.
        let prior_wdm = match &mut reuse {
            Reuse::Groups(_, prev) | Reuse::Prefix(prev) => {
                Some(std::mem::take(&mut prev.resident))
            }
            Reuse::Nothing => None,
        };
        let (hyper_nets, candidates, crossings, kept_selection) = match reuse {
            // Selection or WDM dirty: stages 1–3 keep their outputs.
            Reuse::Prefix(prev) if from <= DirtyStage::Selection => (
                prev.hyper_nets,
                prev.candidates,
                prev.crossings,
                (from <= DirtyStage::Wdm).then_some(prev.selection),
            ),
            reuse => {
                let (clustered, patch) = match reuse {
                    // Co-design dirty: only the clustering stays.
                    Reuse::Prefix(prev) if from == DirtyStage::Codesign => (
                        prev.hyper_nets.into_iter().map(|net| (net, None)).collect(),
                        None,
                    ),
                    Reuse::Groups(old, prev) => (
                        self.clustering_stage(Some((&old, prev.hyper_nets, prev.candidates))),
                        Some(prev.crossings),
                    ),
                    Reuse::Prefix(_) | Reuse::Nothing => (self.clustering_stage(None), None),
                };
                let resolved = self.resolved(clustered.iter().map(|(net, _)| net));
                let (hyper_nets, candidates, changed, in_place) =
                    self.codesign_stage(from, clustered, &resolved);
                let crossings =
                    self.crossing_stage(&candidates, patch.filter(|_| in_place), &changed);
                (hyper_nets, candidates, crossings, None)
            }
        };
        let resolved = self.resolved(hyper_nets.iter());
        let selection = match kept_selection {
            Some(selection) => selection,
            None => self.selection_stage(from, &candidates, &crossings, &resolved)?,
        };
        let (wdm, resident) =
            self.wdm_stage(from, &candidates, &selection.choice, &resolved, prior_wdm)?;
        let state = WarmState {
            hyper_nets,
            candidates,
            crossings,
            selection,
            wdm,
            resident,
        };
        Ok(self.install(state, warm, from))
    }

    /// Stage 1, signal processing: clusters each group of the design
    /// into hyper nets with dense ids (`build_hyper_nets` exactly, when
    /// nothing is reused). Under an ECO, `prev` holds the previous
    /// design with its hyper nets and candidate pools; a group whose
    /// name and bits match an old group keeps that group's nets, re-filed
    /// under their new ids, and its pools. The other groups are
    /// clustered in parallel, one executor task per group.
    fn clustering_stage(
        &mut self,
        prev: Option<(&Design, Vec<HyperNet>, Vec<NetCandidates>)>,
    ) -> Clustered {
        let mut stage = self.exec.stage("clustering");
        self.stamp(&mut stage, true);
        let (old_groups, mut old_nets) = match prev {
            Some((old, nets, candidates)) => {
                let mut by_group: Vec<Vec<(HyperNet, NetCandidates, usize)>> =
                    (0..old.group_count()).map(|_| Vec::new()).collect();
                for (i, (net, nc)) in nets.into_iter().zip(candidates).enumerate() {
                    if let Some(slot) = by_group.get_mut(net.group().index()) {
                        slot.push((net, nc, i));
                    }
                }
                (old.groups(), by_group)
            }
            None => (&[][..], Vec::new()),
        };
        // Old groups by name, claimed in order.
        let mut by_name: BTreeMap<&str, VecDeque<usize>> = BTreeMap::new();
        for (o, g) in old_groups.iter().enumerate() {
            by_name.entry(g.name()).or_default().push_back(o);
        }

        let groups = self.design.groups();
        let kept: Vec<Option<_>> = groups
            .iter()
            .map(|group| {
                by_name
                    .get_mut(group.name())
                    .and_then(VecDeque::pop_front)
                    .filter(|&o| old_groups.get(o).is_some_and(|g| g.bits() == group.bits()))
                    .and_then(|o| old_nets.get_mut(o))
                    .map(std::mem::take)
            })
            .collect();
        // Re-cluster the groups nothing carries over, one independent
        // task per group; ids are dealt afterwards in group order.
        let todo: Vec<&SignalGroup> = groups
            .iter()
            .zip(&kept)
            .filter(|(_, nets)| nets.is_none())
            .map(|(group, _)| group)
            .collect();
        let cluster = &self.config.cluster;
        let mut fresh = self
            .exec
            .par_map(&todo, |group| group_clusters(group, cluster))
            .into_iter();

        let mut out: Clustered = Vec::new();
        let (mut reused, mut reclustered) = (0u64, 0u64);
        for (group, kept) in groups.iter().zip(kept) {
            if let Some(nets) = kept {
                reused += 1;
                for (net, nc, old_index) in nets {
                    let id = HyperNetId::new(out.len() as u32);
                    out.push((net.renumbered(id, group.id()), Some((nc, old_index))));
                }
            } else {
                reclustered += 1;
                for (bits, pins) in fresh.next().unwrap_or_default() {
                    let id = HyperNetId::new(out.len() as u32);
                    out.push((HyperNet::new(id, group.id(), bits, pins), None));
                }
            }
        }
        stage.record("groups_reused", reused);
        stage.record("groups_reclustered", reclustered);
        self.stats.groups_reused += reused;
        self.stats.groups_reclustered += reclustered;
        out
    }

    /// Stage 2, co-design: generates the candidate pool of every hyper
    /// net that carries none over (one independent DP per net, spread
    /// over the executor) and re-files carried pools under their new
    /// index. Returns the nets, the pools, the regenerated indices, and
    /// whether every carried net kept its old index — the precondition
    /// for patching the resident crossing index.
    fn codesign_stage(
        &mut self,
        from: DirtyStage,
        clustered: Clustered,
        resolved: &OperonConfig,
    ) -> (Vec<HyperNet>, Vec<NetCandidates>, Vec<usize>, bool) {
        let mut stage = self.exec.stage("codesign");
        self.stamp(&mut stage, from == DirtyStage::Codesign);
        let mut in_place = true;
        let (hyper_nets, carried): (Vec<HyperNet>, Vec<Option<NetCandidates>>) = clustered
            .into_iter()
            .enumerate()
            .map(|(i, (net, reuse))| {
                let nc = reuse.map(|(mut nc, old_index)| {
                    in_place &= old_index == i;
                    nc.net_index = i;
                    nc
                });
                (net, nc)
            })
            .unzip();
        let todo: Vec<(usize, &HyperNet)> = hyper_nets
            .iter()
            .enumerate()
            .zip(&carried)
            .filter(|(_, nc)| nc.is_none())
            .map(|(net, _)| net)
            .collect();
        let changed: Vec<usize> = todo.iter().map(|&(i, _)| i).collect();
        let mut fresh = self
            .exec
            .par_map(&todo, |&(i, net)| generate_candidates(net, i, resolved))
            .into_iter();
        let candidates: Vec<NetCandidates> = carried
            .into_iter()
            .filter_map(|nc| nc.or_else(|| fresh.next()))
            .collect();
        let recoded = changed.len() as u64;
        let reused = candidates.len() as u64 - recoded;
        stage.record("nets_reused", reused);
        stage.record("nets_recoded", recoded);
        self.stats.nets_reused += reused;
        self.stats.nets_recoded += recoded;
        (hyper_nets, candidates, changed, in_place)
    }

    /// Stage 3, crossing analysis: patches `patch` — the resident index,
    /// offered only while every kept net kept its index — for the
    /// `changed` nets, or builds from scratch.
    fn crossing_stage(
        &mut self,
        candidates: &[NetCandidates],
        patch: Option<CrossingIndex>,
        changed: &[usize],
    ) -> CrossingIndex {
        let mut stage = self.exec.stage("crossing");
        // Which builder ran, whether the pair tests used the workers, how
        // many segments it recounted, how many of them were distinct per
        // net, how many segment pair tests its grid ran and how many
        // crossings between distinct segments they found, the pair and
        // segment-crossing counts, and the index's heap size: pure
        // functions of the candidate set and the builder, so run reports
        // stay thread-count invariant.
        let idx = match patch {
            Some(prev) => {
                stage.record("crossing_delta_rebuild", 1);
                stage.record("crossing_build_delta", 1);
                self.stats.crossing_delta_rebuilds += 1;
                prev.rebuild_delta(candidates, changed)
            }
            None => {
                stage.record("crossing_build_grid", 1);
                self.stats.crossing_full_builds += 1;
                CrossingIndex::build_with(candidates, &self.exec)
            }
        };
        let work = idx.grid_work();
        stage.record("crossing_build_parallel", u64::from(idx.built_parallel()));
        stage.record("crossing_segments", work.segments);
        stage.record("crossing_distinct_segments", work.distinct_segments);
        stage.record("crossing_pair_tests", work.pair_tests);
        stage.record("crossing_distinct_hits", work.distinct_hits);
        stage.record("crossing_pairs", idx.len() as u64);
        stage.record("crossing_hits", idx.segment_crossings());
        stage.record("crossing_index_kib", idx.heap_bytes().div_ceil(1024) as u64);
        idx
    }

    /// Stage 4, selection: the exact ILP warm-started by the LR
    /// heuristic, or the LR heuristic alone, on the session's pricing
    /// arenas.
    fn selection_stage(
        &mut self,
        from: DirtyStage,
        candidates: &[NetCandidates],
        crossings: &CrossingIndex,
        resolved: &OperonConfig,
    ) -> Result<SelectionResult, OperonError> {
        let mut stage = self.exec.stage("selection");
        self.stamp(&mut stage, from == DirtyStage::Selection);
        let lr = select_lr(candidates, crossings, resolved, &self.exec, &mut self.lr_ws);
        let selection = match resolved.selector {
            Selector::Ilp { time_limit_secs } => {
                // The LR choice warm-starts the exact solver, so a
                // limit-terminated solve still returns a strong
                // incumbent.
                let mut ilp = select_ilp(
                    candidates,
                    crossings,
                    &resolved.optical,
                    Duration::from_secs(time_limit_secs),
                    Some(&lr.choice),
                )?;
                ilp.lr_stats = lr.lr_stats;
                ilp
            }
            Selector::LagrangianRelaxation => lr,
        };
        debug_assert!(selection_feasible(
            candidates,
            crossings,
            &selection.choice,
            &resolved.optical
        ));
        if let Some(ilp) = selection.ilp_stats {
            stage.record("ilp_nodes", ilp.nodes_explored as u64);
            stage.record("ilp_lp_solves", ilp.lp_solves as u64);
            stage.record("ilp_incumbent_updates", ilp.incumbent_updates as u64);
            stage.record("ilp_simplex_iterations", ilp.simplex_iterations);
        }
        if let Some(lr) = selection.lr_stats {
            stage.record("lr_iterations", lr.iterations);
            stage.record("lr_priced_nets", lr.priced_nets);
            stage.record("lr_load_evals", lr.load_evals);
            stage.record("lr_parallel", u64::from(lr.parallel));
            stage.record("lr_map_work", lr.map_work);
            self.stats.lr.accumulate(&lr);
        }
        Ok(selection)
    }

    /// Stage 5, WDM placement + assignment, returning the plan and its
    /// orientation-reuse record. An orientation whose inputs equal those
    /// `prior` was planned from is taken over unsolved.
    fn wdm_stage(
        &mut self,
        from: DirtyStage,
        candidates: &[NetCandidates],
        choice: &[usize],
        resolved: &OperonConfig,
        prior: Option<ResidentAssignment>,
    ) -> Result<(WdmPlan, ResidentAssignment), OperonError> {
        let mut stage = self.exec.stage("wdm");
        self.stamp(&mut stage, from == DirtyStage::Wdm);
        let (plan, resident) = wdm::plan(candidates, choice, &resolved.optical, prior, &self.exec)?;
        let stats = &plan.stats;
        stage.record("wdm_components", stats.components);
        stage.record("wdm_cold_solves", stats.cold_solves);
        stage.record("wdm_warm_trials", stats.warm_trials);
        stage.record("wdm_orientations_reused", stats.orientations_reused);
        stage.record("wdm_dijkstra_passes", stats.mcmf.dijkstra_passes);
        stage.record("wdm_arcs_scanned", stats.mcmf.arcs_scanned);
        stage.record("wdm_networks_cloned", stats.mcmf.networks_cloned);
        stage.record("wdm_parallel", u64::from(stats.parallel));
        stage.record("wdm_work", stats.map_work);
        self.stats.wdm.accumulate(stats);
        Ok((plan, resident))
    }

    /// The configuration with its crossing-sharing factor resolved for
    /// `nets`, exactly as a cold run derives it.
    fn resolved<'a>(&self, nets: impl Iterator<Item = &'a HyperNet>) -> OperonConfig {
        self.config.resolved_for(nets.map(HyperNet::bit_count))
    }

    /// Stamps the configuration's fingerprint on the first stage a route
    /// re-runs, so run reports attribute the work to an exact config
    /// lattice point.
    fn stamp(&self, stage: &mut StageScope<'_>, first: bool) {
        if first {
            stage.label(
                "config_fingerprint",
                format!("{:016x}", self.config.fingerprint()),
            );
        }
    }

    /// Installs `state` as the resident result of a route whose first
    /// re-run stage was `from` and returns the route's digest.
    fn install(&mut self, state: WarmState, warm: bool, from: DirtyStage) -> RouteSummary {
        self.stats.stages_reused += u64::from(from.stages_reused());
        self.stats.stages_rerun += u64::from(from.stages_rerun());
        let optical = state
            .candidates
            .iter()
            .zip(&state.selection.choice)
            .filter(|(nc, &j)| !nc.candidates[j].is_pure_electrical())
            .count();
        let summary = RouteSummary {
            warm,
            hyper_nets: state.hyper_nets.len(),
            optical,
            electrical: state.hyper_nets.len() - optical,
            power_mw: state.selection.power_mw,
            proven_optimal: state.selection.proven_optimal,
            wdm_initial: state.wdm.initial_count,
            wdm_final: state.wdm.final_count(),
            stages_reused: from.stages_reused(),
            stages_rerun: from.stages_rerun(),
        };
        self.state = Some(state);
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::OperonFlow;
    use operon_netlist::synth::{generate, SynthConfig};

    #[test]
    fn cached_route_is_idempotent() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        let a = s.route().unwrap();
        let b = s.route().unwrap();
        assert!(!a.warm && b.warm);
        assert_eq!(a.power_mw, b.power_mw);
        assert_eq!(s.stats().cold_routes, 1);
        assert_eq!(s.stats().cached_routes, 1);
    }

    #[test]
    fn rejected_ecos_leave_the_session_intact() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        let routed = s.route().unwrap();
        let fp = s.fingerprint();
        assert!(matches!(
            s.move_pins(999, 1, 1),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(matches!(
            s.move_pins(0, i64::MAX / 2, 0),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(matches!(
            s.add_bus("b", 0, Point::new(0, 0), Point::new(1, 1), 1),
            Err(OperonError::EcoRejected(_))
        ));
        // Coordinates past i64 are rejected, not wrapped (or panicked on).
        assert!(matches!(
            s.move_pins(0, i64::MAX, 0),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(matches!(
            s.add_bus("b", 2, Point::new(1, 1), Point::new(2, 2), i64::MAX),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(s.is_routed());
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.route().unwrap().power_mw, routed.power_mw);
    }

    #[test]
    fn set_config_revalidates_and_classifies_the_diff() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        s.route().unwrap();
        let mut bad = OperonConfig::default();
        bad.cluster.capacity = 7;
        assert!(s.set_config(bad).is_err());
        assert!(s.is_routed(), "failed set_config must not drop state");

        // A co-design-tier change keeps the clustering resident; the
        // next route is a warm partial re-run, not a cold one.
        let mut tighter = OperonConfig::default();
        tighter.optical.max_loss_db *= 0.8;
        s.set_config(tighter).unwrap();
        assert!(s.is_routed(), "codesign-tier change keeps the prefix");
        let again = s.route().unwrap();
        assert!(again.warm);
        assert_eq!(again.stages_reused, 1);
        assert_eq!(again.stages_rerun, 4);
        assert_eq!(
            s.config().optical.max_loss_db,
            OperonFlow::new(OperonConfig::default())
                .config()
                .optical
                .max_loss_db
                * 0.8
        );

        // A clustering-tier change (the coupled capacity knob) drops
        // everything; the next route runs cold.
        s.set_config(OperonConfig::default().with_wdm_capacity(16))
            .unwrap();
        assert!(!s.is_routed());
        let cold = s.route().unwrap();
        assert!(!cold.warm);
        assert_eq!(cold.stages_reused, 0);
    }

    /// For every dirty tier, a `set_config` + partial re-route must be
    /// bit-identical to a fresh cold session under the same config.
    #[test]
    fn partial_reroute_matches_fresh_cold_run_per_tier() {
        let design = generate(&SynthConfig::small(), 9);
        let base = OperonConfig::default();

        let mut wdm_cfg = base.clone();
        wdm_cfg.optical.wdm_min_pitch += 4;
        let mut sel_cfg = base.clone();
        sel_cfg.lr_max_iters = 4;
        sel_cfg.lr_converge_ratio = 0.05;
        let mut codesign_cfg = base.clone();
        codesign_cfg.optical.max_loss_db *= 0.85;
        codesign_cfg.max_candidates = 5;

        for (cfg, reused) in [(wdm_cfg, 4u32), (sel_cfg, 3), (codesign_cfg, 1)] {
            let mut warm =
                WarmSession::open(design.clone(), base.clone(), Executor::sequential()).unwrap();
            warm.route().unwrap();
            warm.set_config(cfg.clone()).unwrap();
            let partial = warm.route().unwrap();
            assert!(partial.warm);
            assert_eq!(partial.stages_reused, reused, "wrong prefix for {cfg:?}");

            let mut cold =
                WarmSession::open(design.clone(), cfg.clone(), Executor::sequential()).unwrap();
            let fresh = cold.route().unwrap();
            assert_eq!(
                partial.power_mw.to_bits(),
                fresh.power_mw.to_bits(),
                "partial power diverged for {cfg:?}"
            );
            assert_eq!(partial.wdm_final, fresh.wdm_final);
            assert_eq!(partial.optical, fresh.optical);
            assert_eq!(
                warm.selection().unwrap().choice,
                cold.selection().unwrap().choice,
                "partial selection diverged for {cfg:?}"
            );
            assert_eq!(warm.fingerprint(), cold.fingerprint());

            let stats = warm.stats();
            assert_eq!(stats.partial_routes, 1);
            assert_eq!(stats.stages_reused, u64::from(reused));
        }
    }

    #[test]
    fn dirty_stage_escalates_across_config_changes() {
        let design = generate(&SynthConfig::small(), 3);
        let base = OperonConfig::default();
        let mut s = WarmSession::open(design, base.clone(), Executor::sequential()).unwrap();
        s.route().unwrap();

        // Selection-tier change, then a revert to the exact original
        // config: the diff of the second call is Clean, but the state
        // is already stale at the selection tier — it must not be
        // answered as cached.
        let mut sel = base.clone();
        sel.lr_max_iters = 3;
        s.set_config(sel).unwrap();
        s.set_config(base.clone()).unwrap();
        let rerouted = s.route().unwrap();
        assert!(rerouted.warm);
        assert_eq!(
            rerouted.stages_reused, 3,
            "revert must still re-run the escalated suffix"
        );

        // Identical result to never having touched the config.
        let mut fresh = WarmSession::open(
            generate(&SynthConfig::small(), 3),
            base,
            Executor::sequential(),
        )
        .unwrap();
        let cold = fresh.route().unwrap();
        assert_eq!(rerouted.power_mw.to_bits(), cold.power_mw.to_bits());
    }

    #[test]
    fn eco_after_config_change_stays_identical_to_fresh_run() {
        let design = generate(&SynthConfig::small(), 5);
        let base = OperonConfig::default();
        for (mk, _name) in [
            (
                (|| OperonConfig {
                    lr_max_iters: 4,
                    ..OperonConfig::default()
                }) as fn() -> OperonConfig,
                "selection",
            ),
            (
                || {
                    let mut c = OperonConfig::default();
                    c.optical.max_loss_db *= 0.85;
                    c
                },
                "codesign",
            ),
        ] {
            let cfg = mk();
            let mut s =
                WarmSession::open(design.clone(), base.clone(), Executor::sequential()).unwrap();
            s.route().unwrap();
            s.set_config(cfg.clone()).unwrap();
            // ECO while config-dirty: the reused candidates must belong
            // to the *new* config, or be regenerated.
            let eco = s
                .add_bus("late", 3, Point::new(50, 50), Point::new(900, 900), 8)
                .unwrap();

            let mut fresh = WarmSession::open(design.clone(), cfg, Executor::sequential()).unwrap();
            fresh.route().unwrap();
            let fresh_eco = fresh
                .add_bus("late", 3, Point::new(50, 50), Point::new(900, 900), 8)
                .unwrap();
            assert_eq!(eco.power_mw.to_bits(), fresh_eco.power_mw.to_bits());
            assert_eq!(eco.wdm_final, fresh_eco.wdm_final);
            assert_eq!(
                s.selection().unwrap().choice,
                fresh.selection().unwrap().choice
            );
        }
    }

    #[test]
    fn partial_reuse_stats_are_thread_invariant() {
        let design = generate(&SynthConfig::medium(), 5);
        let mut baseline = None;
        for threads in [1, 2, 8] {
            let mut s = WarmSession::open(
                design.clone(),
                OperonConfig::default(),
                Executor::new(threads),
            )
            .unwrap();
            s.route().unwrap();
            let sel = OperonConfig {
                lr_max_iters: 4,
                ..OperonConfig::default()
            };
            s.set_config(sel).unwrap();
            s.route().unwrap();
            let mut loss = OperonConfig {
                lr_max_iters: 4,
                ..OperonConfig::default()
            };
            loss.optical.max_loss_db *= 0.9;
            s.set_config(loss).unwrap();
            s.route().unwrap();
            let stats = s.close();
            assert_eq!(stats.partial_routes, 2);
            assert_eq!(stats.stages_reused, 3 + 1);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(*b, stats, "stats diverged at {threads} threads"),
            }
        }
    }
}
