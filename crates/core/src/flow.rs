//! The end-to-end OPERON flow (paper Fig. 2): a one-shot facade over
//! [`WarmSession`], the pipeline's only driver.

use crate::baselines::BaselineSelection;
use crate::codesign::NetCandidates;
use crate::config::OperonConfig;
use crate::formulation::SelectionResult;
use crate::report::{power_maps, PowerMaps};
use crate::session::WarmSession;
use crate::wdm::WdmPlan;
use crate::OperonError;
use operon_cluster::{build_hyper_nets, HyperNet};
use operon_exec::Executor;
use operon_netlist::Design;

/// The medium mix of one selected route.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouteMedium {
    /// Every edge optical.
    Optical,
    /// Every edge electrical (the fallback).
    Electrical,
    /// Optical trunk with electrical branches (or vice versa).
    Mixed,
}

impl core::fmt::Display for RouteMedium {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RouteMedium::Optical => write!(f, "optical"),
            RouteMedium::Electrical => write!(f, "electrical"),
            RouteMedium::Mixed => write!(f, "mixed"),
        }
    }
}

/// A per-hyper-net digest of the synthesized route.
#[derive(Clone, Debug, PartialEq)]
pub struct NetSummary {
    /// Dense hyper-net index.
    pub net_index: usize,
    /// The owning signal group.
    pub group: operon_netlist::GroupId,
    /// Channel count.
    pub bits: usize,
    /// Medium mix of the selected candidate.
    pub medium: RouteMedium,
    /// Modulators per bit.
    pub n_mod: usize,
    /// Detectors per bit.
    pub n_det: usize,
    /// Total power including the hyper-pin fan-out, mW.
    pub power_mw: f64,
    /// Worst crossing-free stretch loss, dB.
    pub worst_fixed_loss_db: f64,
    /// Worst sink arrival, ps.
    pub worst_delay_ps: f64,
}

/// Everything a flow run produces.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The hyper nets routed.
    pub hyper_nets: Vec<HyperNet>,
    /// Per-net candidate sets.
    pub candidates: Vec<NetCandidates>,
    /// The chosen candidate per net.
    pub selection: SelectionResult,
    /// The WDM stage outcome (Fig. 8 data).
    pub wdm: WdmPlan,
}

impl FlowResult {
    /// Total power of the synthesized design, mW.
    pub fn total_power_mw(&self) -> f64 {
        self.selection.power_mw
    }

    /// Number of hyper nets routed (at least partly) optically.
    pub fn optical_net_count(&self) -> usize {
        self.candidates
            .iter()
            .zip(&self.selection.choice)
            .filter(|(nc, &j)| !nc.candidates[j].is_pure_electrical())
            .count()
    }

    /// Number of hyper nets routed fully electrically.
    pub fn electrical_net_count(&self) -> usize {
        self.hyper_nets.len() - self.optical_net_count()
    }

    /// Total hyper-pin count (the "#HPin" column of Table 1).
    pub fn hyper_pin_count(&self) -> usize {
        self.hyper_nets.iter().map(|n| n.pins().len()).sum()
    }

    /// Per-hyper-net summaries of the selection, in net order.
    pub fn net_summaries(&self, config: &OperonConfig) -> Vec<NetSummary> {
        self.hyper_nets
            .iter()
            .zip(&self.candidates)
            .zip(&self.selection.choice)
            .map(|((net, nc), &j)| {
                let cand = &nc.candidates[j];
                let medium = if cand.is_pure_electrical() {
                    RouteMedium::Electrical
                } else if cand.electrical_power_mw > 0.0 {
                    RouteMedium::Mixed
                } else {
                    RouteMedium::Optical
                };
                NetSummary {
                    net_index: nc.net_index,
                    group: net.group(),
                    bits: net.bit_count(),
                    medium,
                    n_mod: cand.n_mod,
                    n_det: cand.n_det,
                    power_mw: cand.total_power_mw() + nc.fanout_power_mw,
                    worst_fixed_loss_db: cand.worst_fixed_loss_db(),
                    worst_delay_ps: crate::timing::worst_delay_ps(cand, &config.delay),
                }
            })
            .collect()
    }

    /// The worst sink arrival time across all selected routes, ps.
    pub fn worst_delay_ps(&self, config: &OperonConfig) -> f64 {
        self.candidates
            .iter()
            .zip(&self.selection.choice)
            .map(|(nc, &j)| crate::timing::worst_delay_ps(&nc.candidates[j], &config.delay))
            .fold(0.0, f64::max)
    }

    /// Hyper nets whose selected route violates the configured delay
    /// bound (only the electrical fallback can violate it — every other
    /// candidate was filtered during generation). Empty when no bound is
    /// set.
    pub fn delay_violations(&self, config: &OperonConfig) -> Vec<usize> {
        let Some(bound) = config.max_delay_ps else {
            return Vec::new();
        };
        self.candidates
            .iter()
            .zip(&self.selection.choice)
            .filter(|(nc, &j)| {
                crate::timing::worst_delay_ps(&nc.candidates[j], &config.delay) > bound + 1e-9
            })
            .map(|(nc, _)| nc.net_index)
            .collect()
    }

    /// Builds the optical/electrical power maps of the result over the
    /// design's die (Fig. 9).
    pub fn power_maps(&self, design: &Design, config: &OperonConfig) -> PowerMaps {
        power_maps(
            design.die(),
            config.powermap_cells,
            &self.candidates,
            &self.selection.choice,
            &config.optical,
            &config.electrical,
        )
    }
}

/// The OPERON route-synthesis engine.
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::flow::OperonFlow;
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 9);
/// let result = OperonFlow::new(OperonConfig::default()).run(&design)?;
/// assert_eq!(result.selection.choice.len(), result.hyper_nets.len());
/// # Ok::<(), operon::OperonError>(())
/// ```
#[derive(Clone, Debug)]
pub struct OperonFlow {
    config: OperonConfig,
    exec: Executor,
}

impl OperonFlow {
    /// Creates a flow with the given configuration.
    ///
    /// The flow starts single-threaded; opt into parallelism with
    /// [`with_threads`](Self::with_threads) or
    /// [`with_executor`](Self::with_executor). Results are identical
    /// either way — the executor guarantees bit-identical outputs for
    /// every thread count.
    pub fn new(config: OperonConfig) -> Self {
        Self {
            config,
            exec: Executor::sequential(),
        }
    }

    /// Runs the parallel stages on `threads` workers (`0` = one per
    /// hardware thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = Executor::new(threads);
        self
    }

    /// Runs the parallel stages on an existing executor — lets several
    /// flows (e.g. a batch run) share one worker budget and accumulate
    /// into one run report.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The executor driving the parallel stages (its
    /// [`report`](Executor::report) carries the per-stage
    /// instrumentation).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The active configuration.
    pub fn config(&self) -> &OperonConfig {
        &self.config
    }

    /// Runs the full flow on `design`: a one-shot [`WarmSession`] on a
    /// copy of it, consumed by [`WarmSession::into_result`]. The
    /// executor's run report gets one record per stage.
    ///
    /// # Errors
    ///
    /// * [`OperonError::InvalidConfig`] if the configuration fails
    ///   validation.
    /// * [`OperonError::EmptyDesign`] if the design has no signal groups.
    /// * [`OperonError::SelectionFailed`] if the ILP selector reports
    ///   infeasibility (cannot happen with intact electrical fallbacks).
    /// * [`OperonError::WdmInfeasible`] if the WDM stage cannot carry the
    ///   selected channel demand.
    pub fn run(&self, design: &Design) -> Result<FlowResult, OperonError> {
        WarmSession::open(design.clone(), self.config.clone(), self.exec.clone())?.into_result()
    }

    /// Runs the GLOW-like optical baseline on the same clustering, for
    /// side-by-side comparison (Table 1's "Optical \[4\]" column and the
    /// Fig. 9 maps).
    pub fn run_glow(&self, design: &Design) -> Result<BaselineSelection, OperonError> {
        self.config.validate()?;
        if design.groups().is_empty() {
            return Err(OperonError::EmptyDesign);
        }
        let hyper_nets = build_hyper_nets(design, &self.config.cluster);
        Ok(crate::baselines::glow_baseline(&hyper_nets, &self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Selector;
    use operon_netlist::synth::{generate, SynthConfig};

    fn small_design() -> Design {
        generate(&SynthConfig::small(), 21)
    }

    #[test]
    fn run_report_carries_config_fingerprint_label() {
        let flow = OperonFlow::new(OperonConfig::default());
        flow.run(&small_design()).unwrap();
        let report = flow.executor().report();
        let expected = format!("{:016x}", flow.config().fingerprint());
        assert!(
            report.stages.iter().any(|s| s
                .labels
                .iter()
                .any(|(k, v)| k == "config_fingerprint" && *v == expected)),
            "every run must stamp its config fingerprint on a stage"
        );
        assert!(report.to_json().contains(&expected));
    }

    #[test]
    fn flow_runs_end_to_end_with_lr() {
        let design = small_design();
        let result = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("flow succeeds");
        assert_eq!(result.selection.choice.len(), result.hyper_nets.len());
        assert!(result.total_power_mw() > 0.0);
        assert_eq!(
            result.optical_net_count() + result.electrical_net_count(),
            result.hyper_nets.len()
        );
    }

    #[test]
    fn flow_runs_end_to_end_with_ilp() {
        let design = small_design();
        let config = OperonConfig {
            selector: Selector::Ilp {
                time_limit_secs: 30,
            },
            ..OperonConfig::default()
        };
        let result = OperonFlow::new(config).run(&design).expect("flow succeeds");
        assert!(result.total_power_mw() > 0.0);
    }

    #[test]
    fn ilp_never_worse_than_lr() {
        let design = small_design();
        let lr = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("LR flow");
        let config = OperonConfig {
            selector: Selector::Ilp {
                time_limit_secs: 60,
            },
            ..OperonConfig::default()
        };
        let ilp = OperonFlow::new(config).run(&design).expect("ILP flow");
        if ilp.selection.proven_optimal {
            assert!(
                ilp.total_power_mw() <= lr.total_power_mw() + 1e-6,
                "ILP {} vs LR {}",
                ilp.total_power_mw(),
                lr.total_power_mw()
            );
        }
    }

    #[test]
    fn operon_beats_glow_and_electrical() {
        // The Table 1 ordering: Electrical > Optical (GLOW) > OPERON.
        let design = generate(&SynthConfig::medium(), 5);
        let flow = OperonFlow::new(OperonConfig::default());
        let operon = flow.run(&design).expect("flow");
        let glow = flow.run_glow(&design).expect("glow");
        let electrical =
            crate::baselines::electrical_power_mw(&design, &OperonConfig::default().electrical);
        assert!(
            operon.total_power_mw() <= glow.selection.power_mw + 1e-6,
            "OPERON {} should not exceed GLOW {}",
            operon.total_power_mw(),
            glow.selection.power_mw
        );
        assert!(
            glow.selection.power_mw < electrical,
            "GLOW {} should beat electrical {}",
            glow.selection.power_mw,
            electrical
        );
    }

    #[test]
    fn empty_design_is_an_error() {
        let die = operon_geom::BoundingBox::new(
            operon_geom::Point::new(0, 0),
            operon_geom::Point::new(100, 100),
        );
        let design = Design::new("empty", die);
        let err = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect_err("no groups");
        assert_eq!(err, OperonError::EmptyDesign);
    }

    #[test]
    fn invalid_config_is_an_error() {
        let mut config = OperonConfig::default();
        config.cluster.capacity = 7; // mismatch with wdm_capacity
        let err = OperonFlow::new(config)
            .run(&small_design())
            .expect_err("invalid config");
        assert!(matches!(err, OperonError::InvalidConfig(_)));
    }

    #[test]
    fn flow_is_deterministic() {
        let design = small_design();
        let flow = OperonFlow::new(OperonConfig::default());
        let a = flow.run(&design).expect("first run");
        let b = flow.run(&design).expect("second run");
        assert_eq!(a.selection.choice, b.selection.choice);
        assert_eq!(a.total_power_mw(), b.total_power_mw());
        assert_eq!(a.wdm.final_count(), b.wdm.final_count());
    }

    #[test]
    fn wdm_final_never_exceeds_initial() {
        let design = small_design();
        let result = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("flow");
        assert!(result.wdm.final_count() <= result.wdm.initial_count);
        if result.optical_net_count() > 0 {
            assert!(!result.wdm.connections.is_empty());
        }
    }

    #[test]
    fn power_maps_cover_total_power_scale() {
        let design = small_design();
        let config = OperonConfig::default();
        let result = OperonFlow::new(config.clone()).run(&design).expect("flow");
        let maps = result.power_maps(&design, &config);
        let deposited = maps.optical.total() + maps.electrical.total();
        // Maps hold conversion + wire + fan-out power = selection power.
        assert!(
            (deposited - result.total_power_mw()).abs() < result.total_power_mw() * 0.05 + 1e-6,
            "maps {} vs selection {}",
            deposited,
            result.total_power_mw()
        );
    }

    #[test]
    fn delay_bound_steers_selection() {
        // On a 2 cm die with long buses, a tight delay bound rules the
        // slow electrical candidates out wherever an optical route meets
        // timing — optical share must not drop, and every non-fallback
        // route must meet the bound.
        let design =
            operon_netlist::synth::generate(&operon_netlist::synth::SynthConfig::medium(), 3);
        let unconstrained = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("flow");

        let bound = 700.0; // ps: ~1 cm of repeatered wire, generous for optics
        let config = OperonConfig {
            max_delay_ps: Some(bound),
            ..OperonConfig::default()
        };
        let constrained = OperonFlow::new(config.clone()).run(&design).expect("flow");

        assert!(constrained.optical_net_count() >= unconstrained.optical_net_count());
        // All violations (if any) sit on electrical fallbacks.
        for i in constrained.delay_violations(&config) {
            let nc = &constrained.candidates[i];
            let j = constrained.selection.choice[i];
            assert_eq!(j, nc.electrical_idx, "only fallbacks may violate");
        }
        // Nets not in the violation list meet the bound.
        let violating: std::collections::BTreeSet<usize> =
            constrained.delay_violations(&config).into_iter().collect();
        for (nc, &j) in constrained
            .candidates
            .iter()
            .zip(&constrained.selection.choice)
        {
            if !violating.contains(&nc.net_index) {
                let d = crate::timing::worst_delay_ps(&nc.candidates[j], &config.delay);
                assert!(d <= bound + 1e-9, "net {} delay {d}", nc.net_index);
            }
        }
    }

    #[test]
    fn net_summaries_are_complete_and_consistent() {
        let design = small_design();
        let config = OperonConfig::default();
        let result = OperonFlow::new(config.clone()).run(&design).expect("flow");
        let summaries = result.net_summaries(&config);
        assert_eq!(summaries.len(), result.hyper_nets.len());
        let total: f64 = summaries.iter().map(|s| s.power_mw).sum();
        assert!((total - result.total_power_mw()).abs() < 1e-9);
        let optical = summaries
            .iter()
            .filter(|s| s.medium != RouteMedium::Electrical)
            .count();
        assert_eq!(optical, result.optical_net_count());
        for s in &summaries {
            assert!(s.bits > 0);
            assert!(s.power_mw >= 0.0);
            if s.medium == RouteMedium::Electrical {
                assert_eq!(s.n_mod + s.n_det, 0);
                assert_eq!(s.worst_fixed_loss_db, 0.0);
            } else {
                assert!(s.n_mod >= 1 && s.n_det >= 1);
            }
        }
    }

    #[test]
    fn eco_rerun_matches_fresh_run() {
        use operon_netlist::{Bit, BitId, GroupId, SignalGroup};

        let old_design = generate_medium();
        let flow = OperonFlow::new(OperonConfig::default());
        let mut session = WarmSession::open(
            old_design.clone(),
            OperonConfig::default(),
            Executor::sequential(),
        )
        .expect("open");
        session.route().expect("initial run");

        // ECO: replace the last group with a different bus.
        let mut new_design = Design::new(old_design.name(), old_design.die());
        let n = old_design.group_count();
        for g in old_design.groups().iter().take(n - 1) {
            new_design.push_group(g.clone());
        }
        let changed = SignalGroup::new(
            GroupId::new((n - 1) as u32),
            "eco_bus",
            (0..4)
                .map(|i| {
                    Bit::new(
                        BitId::new(i),
                        operon_geom::Point::new(500 + i as i64 * 10, 500),
                        vec![operon_geom::Point::new(18_000, 18_000 + i as i64 * 10)],
                    )
                })
                .collect(),
        );
        new_design.push_group(changed);

        session.apply_design(new_design.clone()).expect("eco run");
        assert_eq!(session.stats().groups_reused, n as u64 - 1);
        let eco = session.into_result().expect("eco result");
        let fresh = flow.run(&new_design).expect("fresh run");
        assert_eq!(eco.selection.choice, fresh.selection.choice);
        assert_eq!(eco.total_power_mw(), fresh.total_power_mw());
        assert_eq!(eco.wdm.final_count(), fresh.wdm.final_count());
        assert_eq!(eco.hyper_nets, fresh.hyper_nets);
    }

    fn generate_medium() -> Design {
        operon_netlist::synth::generate(&operon_netlist::synth::SynthConfig::medium(), 17)
    }

    #[test]
    fn eco_with_no_changes_is_identity() {
        let design = small_design();
        let previous = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("run");
        let mut session = WarmSession::open(
            design.clone(),
            OperonConfig::default(),
            Executor::sequential(),
        )
        .expect("open");
        session.route().expect("route");
        session.apply_design(design).expect("eco");
        let eco = session.into_result().expect("eco result");
        assert_eq!(eco.selection.choice, previous.selection.choice);
        assert_eq!(eco.total_power_mw(), previous.total_power_mw());
    }

    #[test]
    fn worst_delay_reported() {
        let design = small_design();
        let config = OperonConfig::default();
        let result = OperonFlow::new(config.clone()).run(&design).expect("flow");
        assert!(result.worst_delay_ps(&config) > 0.0);
        assert!(result.delay_violations(&config).is_empty(), "no bound set");
    }
}
