//! The comparison points of the paper's Table 1.
//!
//! * **Electrical \[14\]** (Streak-like): every signal bit is routed
//!   individually with a rectilinear Steiner minimum tree; power is pure
//!   dynamic wire power (Eq. (6)).
//! * **Optical \[4\]** (GLOW-like): every hyper net is routed fully
//!   optically on an any-angle Steiner topology. GLOW models propagation
//!   and crossing loss but — faithful to its known blind spot — the
//!   feasibility check **ignores splitting loss**, the exact omission
//!   OPERON's intro criticizes; nets that fail even this lenient check
//!   fall back to electrical wires.

use crate::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
use crate::config::OperonConfig;
use crate::formulation::{selection_power_mw, SelectionResult};
use operon_cluster::HyperNet;
use operon_exec::Executor;
use operon_geom::dbu_to_cm;
use operon_netlist::Design;
use operon_optics::ElectricalParams;
use operon_steiner::{euclidean, rsmt_bi1s};

/// Power of the pure-electrical design (Streak-like), mW: every bit gets
/// its own RSMT over its actual pins.
///
/// # Examples
///
/// ```
/// use operon::baselines::electrical_power_mw;
/// use operon_netlist::synth::{generate, SynthConfig};
/// use operon_optics::ElectricalParams;
///
/// let design = generate(&SynthConfig::small(), 2);
/// let p = electrical_power_mw(&design, &ElectricalParams::paper_defaults());
/// assert!(p > 0.0);
/// ```
pub fn electrical_power_mw(design: &Design, elec: &ElectricalParams) -> f64 {
    let mut total_cm = 0.0;
    for group in design.groups() {
        for bit in group.bits() {
            let pins: Vec<_> = bit.pins().collect();
            let tree = rsmt_bi1s(&pins);
            total_cm += dbu_to_cm(tree.wirelength_manhattan() as f64);
        }
    }
    operon_optics::electrical_power_mw(elec, total_cm)
}

/// A baseline selection compatible with the OPERON reporting machinery:
/// one candidate set per hyper net plus the chosen index.
#[derive(Clone, Debug)]
pub struct BaselineSelection {
    /// Per-net candidate sets (optical-only candidate + electrical
    /// fallback).
    pub nets: Vec<NetCandidates>,
    /// The selection result (power, choice).
    pub selection: SelectionResult,
}

/// Runs the GLOW-like optical baseline over pre-built hyper nets.
///
/// Per net, a single all-optical candidate is built on the Euclidean
/// Steiner topology; it is kept when its loss *without the splitting
/// term* fits the budget (GLOW ignored splitting loss), otherwise the net
/// falls back to electrical. The reported power uses the full, honest
/// accounting.
pub fn glow_baseline(nets: &[HyperNet], config: &OperonConfig) -> BaselineSelection {
    let start = operon_exec::Stopwatch::start();
    let config = config.resolved_for(nets.iter().map(|n| n.bit_count()));
    let lib = &config.optical;
    let elec = &config.electrical;

    let mut out_nets = Vec::with_capacity(nets.len());
    let mut choice = Vec::with_capacity(nets.len());
    for (i, net) in nets.iter().enumerate() {
        let pins = net.pin_locations();
        let bits = net.bit_count();
        let optical_tree = euclidean::steiner_tree(&pins, 1.0);
        let optical = analyze_assignment(
            &optical_tree,
            &vec![EdgeMedium::Optical; optical_tree.edge_count()],
            bits,
            lib,
            elec,
        );
        let rsmt = rsmt_bi1s(&pins);
        let electrical = analyze_assignment(
            &rsmt,
            &vec![EdgeMedium::Electrical; rsmt.edge_count()],
            bits,
            lib,
            elec,
        );
        let take_optical = !optical.optical_segments.is_empty();

        let fanout_dbu: f64 = net
            .pins()
            .iter()
            .flat_map(|hp| {
                let center = hp.location();
                hp.members()
                    .iter()
                    .map(move |m| center.manhattan(m.location) as f64)
            })
            .sum();
        let fanout_power_mw = operon_optics::electrical_power_mw(elec, dbu_to_cm(fanout_dbu));

        out_nets.push(NetCandidates {
            net_index: i,
            bits,
            candidates: vec![optical, electrical],
            electrical_idx: 1,
            fanout_power_mw,
        });
        choice.push(usize::from(!take_optical));
    }

    // GLOW's feasibility repair: propagation + crossing loss must fit the
    // budget — splitting loss is (deliberately, faithfully) ignored.
    let crossings = crate::CrossingIndex::build_with(&out_nets, &Executor::sequential());
    loop {
        let mut worst: Option<(usize, f64)> = None;
        for (i, nc) in out_nets.iter().enumerate() {
            if choice[i] == nc.electrical_idx {
                continue;
            }
            let cand = &nc.candidates[choice[i]];
            for (pi, path) in cand.paths.iter().enumerate() {
                let propagation_db: f64 = lib.alpha_db_per_cm
                    * path
                        .segments
                        .iter()
                        .map(|&s| dbu_to_cm(cand.optical_segments[s].length()))
                        .sum::<f64>();
                let mut load = propagation_db;
                for (m, &sel_m) in choice.iter().enumerate() {
                    if m == i || sel_m == out_nets[m].electrical_idx {
                        continue;
                    }
                    let n = crossings.crossings_on_path(i, choice[i], pi, m, sel_m);
                    load += lib.crossing_loss_db(n);
                }
                let excess = load - lib.max_loss_db;
                if excess > 1e-9 && worst.is_none_or(|(_, w)| excess > w) {
                    worst = Some((i, excess));
                }
            }
        }
        match worst {
            Some((i, _)) => {
                let fallback = out_nets[i].electrical_idx;
                choice[i] = fallback;
            }
            None => break,
        }
    }

    let power_mw = selection_power_mw(&out_nets, &choice);
    BaselineSelection {
        nets: out_nets,
        selection: SelectionResult {
            choice,
            power_mw,
            proven_optimal: false,
            elapsed: start.elapsed(),
            ilp_stats: None,
            lr_stats: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use operon_cluster::build_hyper_nets;
    use operon_netlist::synth::{generate, SynthConfig};

    #[test]
    fn electrical_baseline_scales_with_bits() {
        let small = generate(&SynthConfig::small(), 3);
        let medium = generate(&SynthConfig::medium(), 3);
        let e = ElectricalParams::paper_defaults();
        let ps = electrical_power_mw(&small, &e);
        let pm = electrical_power_mw(&medium, &e);
        assert!(ps > 0.0);
        assert!(pm > ps, "more bits and bigger die cost more power");
    }

    #[test]
    fn glow_routes_most_nets_optically() {
        let design = generate(&SynthConfig::small(), 6);
        let config = OperonConfig::default();
        let nets = build_hyper_nets(&design, &config.cluster);
        let glow = glow_baseline(&nets, &config);
        assert_eq!(glow.selection.choice.len(), nets.len());
        let optical = glow.selection.choice.iter().filter(|&&c| c == 0).count();
        assert!(
            optical * 2 >= nets.len(),
            "GLOW should route at least half the nets optically ({optical}/{})",
            nets.len()
        );
    }

    #[test]
    fn glow_beats_electrical_on_distant_traffic() {
        // The paper's headline: optical costs about a third of electrical.
        let design = generate(&SynthConfig::medium(), 6);
        let config = OperonConfig::default();
        let nets = build_hyper_nets(&design, &config.cluster);
        let glow = glow_baseline(&nets, &config);
        let elec = electrical_power_mw(&design, &config.electrical);
        assert!(
            glow.selection.power_mw < elec,
            "GLOW {} should beat electrical {}",
            glow.selection.power_mw,
            elec
        );
    }
}
