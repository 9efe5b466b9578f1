//! Power-map reporting (paper Fig. 9).
//!
//! Deposits the power of a selection onto two die-sized grids:
//!
//! * the **optical layer** receives the EO/OE conversion power at the
//!   modulator and detector locations (propagation itself is free, so the
//!   optical hotspots are the conversion sites — which is why GLOW's and
//!   OPERON's optical maps look alike in the paper);
//! * the **electrical layer** receives the dynamic wire power smeared
//!   along every electrical route (plus hyper-pin fan-out at the pin
//!   gravity centers).

use crate::codesign::{EdgeMedium, NetCandidates};
use operon_geom::{dbu_to_cm, BoundingBox, Grid, Point};
use operon_optics::thermal::ThermalProfile;
use operon_optics::{ElectricalParams, OpticalLib};

/// The optical- and electrical-layer power grids of one selection.
#[derive(Clone, Debug)]
pub struct PowerMaps {
    /// Conversion power per cell, mW.
    pub optical: Grid,
    /// Wire power per cell, mW.
    pub electrical: Grid,
}

impl PowerMaps {
    /// Normalized copies (max cell = 1.0) for cross-design comparison.
    pub fn normalized(&self) -> PowerMaps {
        PowerMaps {
            optical: self.optical.normalized(),
            electrical: self.electrical.normalized(),
        }
    }
}

/// Builds the power maps of a selection over `die` at `cells × cells`
/// resolution.
///
/// # Panics
///
/// Panics if `cells == 0` or the die is degenerate.
pub fn power_maps(
    die: BoundingBox,
    cells: usize,
    nets: &[NetCandidates],
    choice: &[usize],
    lib: &OpticalLib,
    elec: &ElectricalParams,
) -> PowerMaps {
    let mut optical = Grid::new(die, cells, cells);
    let mut electrical = Grid::new(die, cells, cells);
    let mw_per_cm = elec.power_mw_per_cm();

    for (nc, &j) in nets.iter().zip(choice) {
        let cand = &nc.candidates[j];
        let bits = cand.bits as f64;

        // Optical layer: conversion power at device sites.
        for &p in &cand.modulator_points {
            optical.deposit(p, bits * lib.p_mod_pj_per_bit);
        }
        for &p in &cand.detector_points {
            optical.deposit(p, bits * lib.p_det_pj_per_bit);
        }

        // Electrical layer: wire power along each electrical edge's
        // L-route.
        for (parent, child) in cand.tree.edges() {
            if cand.media[child.index() - 1] != EdgeMedium::Electrical {
                continue;
            }
            let (a, b) = (cand.tree.point(parent), cand.tree.point(child));
            let corner = operon_geom::Point::new(b.x, a.y);
            let len_cm = operon_geom::dbu_to_cm(a.manhattan(b) as f64);
            let power = bits * len_cm * mw_per_cm;
            let l1 = a.manhattan(corner) as f64;
            let l2 = corner.manhattan(b) as f64;
            let total = (l1 + l2).max(1.0);
            if l1 > 0.0 {
                electrical.deposit_segment(a, corner, power * l1 / total);
            }
            if l2 > 0.0 {
                electrical.deposit_segment(corner, b, power * l2 / total);
            }
        }
        // Hyper-pin fan-out power lands at the candidate's pin locations
        // (uniformly over the tree's terminals, a fair smearing).
        let terminals = cand.tree.terminals();
        if !terminals.is_empty() && nc.fanout_power_mw > 0.0 {
            let share = nc.fanout_power_mw / terminals.len() as f64;
            for t in terminals {
                electrical.deposit(cand.tree.point(t), share);
            }
        }
    }
    PowerMaps {
        optical,
        electrical,
    }
}

/// Electrical routing-track utilization of a selection.
#[derive(Clone, Debug)]
pub struct CongestionReport {
    /// Per-cell demanded wire tracks (bit-wires crossing the cell,
    /// normalized by the cell's span).
    pub utilization: Grid,
    /// Cells whose demand exceeds the per-cell track supply.
    pub overflow_cells: usize,
    /// The peak per-cell utilization as a fraction of the supply.
    pub peak_utilization: f64,
}

/// Estimates electrical-layer congestion: every selected electrical edge
/// deposits `bits × length` of wire demand along its L-route; each cell's
/// demand is divided by its geometric span to get an equivalent parallel-
/// track count, compared against `tracks_per_cell`.
///
/// Optical traffic does not appear here — moving wires onto the optical
/// layer is exactly how OPERON relieves this map (the Fig. 9(b)/(d)
/// observation in congestion rather than power terms).
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::flow::OperonFlow;
/// use operon::report::congestion_report;
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 1);
/// let result = OperonFlow::new(OperonConfig::default()).run(&design)?;
/// let report = congestion_report(
///     design.die(),
///     16,
///     &result.candidates,
///     &result.selection.choice,
///     64,
/// );
/// assert!(report.peak_utilization >= 0.0);
/// # Ok::<(), operon::OperonError>(())
/// ```
///
/// # Panics
///
/// Panics if `cells == 0`, the die is degenerate, or
/// `tracks_per_cell == 0`.
pub fn congestion_report(
    die: BoundingBox,
    cells: usize,
    nets: &[NetCandidates],
    choice: &[usize],
    tracks_per_cell: usize,
) -> CongestionReport {
    assert!(tracks_per_cell > 0, "track supply must be positive");
    let mut demand = Grid::new(die, cells, cells);
    for (nc, &j) in nets.iter().zip(choice) {
        let cand = &nc.candidates[j];
        let bits = cand.bits as f64;
        for (parent, child) in cand.tree.edges() {
            if cand.media[child.index() - 1] != EdgeMedium::Electrical {
                continue;
            }
            let (a, b) = (cand.tree.point(parent), cand.tree.point(child));
            let corner = Point::new(b.x, a.y);
            let l1 = a.manhattan(corner) as f64;
            let l2 = corner.manhattan(b) as f64;
            if l1 > 0.0 {
                demand.deposit_segment(a, corner, bits * l1);
            }
            if l2 > 0.0 {
                demand.deposit_segment(corner, b, bits * l2);
            }
        }
    }
    // Convert wirelength demand into parallel-track counts per cell.
    let cell_span =
        ((die.width() as f64 / cells as f64) + (die.height() as f64 / cells as f64)) / 2.0;
    let mut utilization = Grid::new(die, cells, cells);
    let mut overflow = 0usize;
    let mut peak = 0.0f64;
    for (cell, wirelength) in demand.iter() {
        let tracks = wirelength / cell_span;
        let frac = tracks / tracks_per_cell as f64;
        peak = peak.max(frac);
        if tracks > tracks_per_cell as f64 {
            overflow += 1;
        }
        if frac > 0.0 {
            // Deposit at the cell center so indices line up.
            let lo = die.lo();
            let cx = lo.x + ((cell.col as f64 + 0.5) * die.width() as f64 / cells as f64) as i64;
            let cy = lo.y + ((cell.row as f64 + 0.5) * die.height() as f64 / cells as f64) as i64;
            utilization.deposit(Point::new(cx, cy), frac);
        }
    }
    CongestionReport {
        utilization,
        overflow_cells: overflow,
        peak_utilization: peak,
    }
}

/// Thermal pricing of a finished selection under a die temperature
/// profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalReport {
    /// Total ring tuning power across every modulator and detector of the
    /// selection (scaled by channel counts), mW.
    pub tuning_power_mw: f64,
    /// The worst residual off-resonance loss any single device suffers,
    /// dB — headroom the detection budget must additionally absorb.
    pub worst_extra_loss_db: f64,
    /// Total device sites priced (modulators + detectors, not scaled by
    /// bits).
    pub device_sites: usize,
}

/// Prices a selection under a thermal profile: every ring (one per
/// channel at each modulator/detector site) pays tuning power for its
/// local temperature deviation, and the worst off-resonance derating is
/// reported for budget checks.
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::flow::OperonFlow;
/// use operon::report::thermal_report;
/// use operon_netlist::synth::{generate, SynthConfig};
/// use operon_optics::thermal::ThermalProfile;
///
/// let design = generate(&SynthConfig::small(), 1);
/// let result = OperonFlow::new(OperonConfig::default()).run(&design)?;
/// let calm = thermal_report(
///     &result.candidates,
///     &result.selection.choice,
///     &ThermalProfile::uniform(55.0),
/// );
/// assert_eq!(calm.tuning_power_mw, 0.0);
/// # Ok::<(), operon::OperonError>(())
/// ```
pub fn thermal_report(
    nets: &[NetCandidates],
    choice: &[usize],
    profile: &ThermalProfile,
) -> ThermalReport {
    let mut tuning = 0.0f64;
    let mut worst_loss = 0.0f64;
    let mut sites = 0usize;
    let mut price = |p: Point, bits: usize| {
        let (x, y) = (dbu_to_cm(p.x as f64), dbu_to_cm(p.y as f64));
        tuning += bits as f64 * profile.tuning_power_mw(x, y);
        worst_loss = worst_loss.max(profile.extra_loss_db(x, y));
        sites += 1;
    };
    for (nc, &j) in nets.iter().zip(choice) {
        let cand = &nc.candidates[j];
        for &p in &cand.modulator_points {
            price(p, cand.bits);
        }
        for &p in &cand.detector_points {
            price(p, cand.bits);
        }
    }
    ThermalReport {
        tuning_power_mw: tuning,
        worst_extra_loss_db: worst_loss,
        device_sites: sites,
    }
}

/// Laser-supply pricing of a selection under a physical link budget.
#[derive(Clone, Debug, PartialEq)]
pub struct LaserReport {
    /// Total electrical laser power when every optical net's channels
    /// launch at exactly the power its worst loaded path requires, mW.
    pub total_laser_mw: f64,
    /// The smallest remaining headroom of any link at the budget's fixed
    /// launch power, dB (negative = some link does not close).
    pub worst_headroom_db: f64,
    /// Number of optical nets priced.
    pub optical_nets: usize,
}

/// Prices the laser supply of a selection: per optical net, the loaded
/// loss of its worst path (fixed + crossing loss against the rest of the
/// selection) sets the required launch power, scaled by wall-plug
/// efficiency and channel count.
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::flow::OperonFlow;
/// use operon::report::laser_report;
/// use operon::CrossingIndex;
/// use operon_exec::Executor;
/// use operon_netlist::synth::{generate, SynthConfig};
/// use operon_optics::linkbudget::LinkBudget;
///
/// let design = generate(&SynthConfig::small(), 1);
/// let config = OperonConfig::default();
/// let result = OperonFlow::new(config.clone()).run(&design)?;
/// let crossings = CrossingIndex::build_with(&result.candidates, &Executor::sequential());
/// let report = laser_report(
///     &result.candidates,
///     &crossings,
///     &result.selection.choice,
///     &LinkBudget::paper_defaults(),
///     &config.optical,
/// );
/// // Every link the flow accepted closes at the budget's launch power.
/// assert!(report.worst_headroom_db >= 0.0);
/// # Ok::<(), operon::OperonError>(())
/// ```
pub fn laser_report(
    nets: &[NetCandidates],
    crossings: &crate::CrossingIndex,
    choice: &[usize],
    budget: &operon_optics::linkbudget::LinkBudget,
    lib: &OpticalLib,
) -> LaserReport {
    let mut total = 0.0f64;
    let mut worst_headroom = f64::INFINITY;
    let mut optical_nets = 0usize;
    for (i, nc) in nets.iter().enumerate() {
        let cand = &nc.candidates[choice[i]];
        if cand.is_pure_electrical() {
            continue;
        }
        optical_nets += 1;
        let worst_loss = crate::formulation::loaded_path_losses(nets, crossings, choice, i, lib)
            .into_iter()
            .fold(0.0f64, f64::max);
        total += cand.bits as f64 * budget.laser_power_mw(worst_loss);
        worst_headroom = worst_headroom.min(budget.headroom_db(worst_loss));
    }
    LaserReport {
        total_laser_mw: total,
        worst_headroom_db: if optical_nets == 0 {
            budget.max_loss_db()
        } else {
            worst_headroom
        },
        optical_nets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::analyze_assignment;
    use operon_steiner::{NodeKind, RouteTree};

    fn die() -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(20_000, 20_000))
    }

    fn net(media: Vec<EdgeMedium>) -> NetCandidates {
        let mut tree = RouteTree::new(Point::new(1_000, 1_000));
        tree.add_child(tree.root(), Point::new(19_000, 19_000), NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &media,
            4,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        NetCandidates {
            net_index: 0,
            bits: 4,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    #[test]
    fn optical_selection_heats_only_optical_layer() {
        let nets = vec![net(vec![EdgeMedium::Optical])];
        let maps = power_maps(
            die(),
            16,
            &nets,
            &[0],
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        // 4 bits x (0.511 + 0.374) mW of conversions.
        assert!((maps.optical.total() - 4.0 * 0.885).abs() < 1e-9);
        assert_eq!(maps.electrical.total(), 0.0);
    }

    #[test]
    fn electrical_selection_heats_only_electrical_layer() {
        let nets = vec![net(vec![EdgeMedium::Electrical])];
        let maps = power_maps(
            die(),
            16,
            &nets,
            &[0],
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        assert_eq!(maps.optical.total(), 0.0);
        // 4 bits x 3.6 cm Manhattan x 2 mW/cm.
        assert!((maps.electrical.total() - 4.0 * 7.2).abs() < 1e-6);
    }

    #[test]
    fn conversion_power_lands_at_device_sites() {
        let nets = vec![net(vec![EdgeMedium::Optical])];
        let maps = power_maps(
            die(),
            10,
            &nets,
            &[0],
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        let src_cell = maps.optical.cell_of(Point::new(1_000, 1_000));
        let dst_cell = maps.optical.cell_of(Point::new(19_000, 19_000));
        assert!((maps.optical.value(src_cell.col, src_cell.row) - 4.0 * 0.511).abs() < 1e-9);
        assert!((maps.optical.value(dst_cell.col, dst_cell.row) - 4.0 * 0.374).abs() < 1e-9);
    }

    #[test]
    fn fanout_power_deposited_at_terminals() {
        let mut nc = net(vec![EdgeMedium::Optical]);
        nc.fanout_power_mw = 1.0;
        let maps = power_maps(
            die(),
            16,
            &[nc],
            &[0],
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        assert!((maps.electrical.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_counts_only_electrical_wires() {
        let optical = net(vec![EdgeMedium::Optical]);
        let electrical = net(vec![EdgeMedium::Electrical]);
        let r_opt = congestion_report(die(), 16, &[optical], &[0], 8);
        assert_eq!(r_opt.overflow_cells, 0);
        assert_eq!(r_opt.peak_utilization, 0.0);
        let r_ele = congestion_report(die(), 16, &[electrical], &[0], 8);
        assert!(r_ele.peak_utilization > 0.0);
        assert!(r_ele.utilization.total() > 0.0);
    }

    #[test]
    fn congestion_overflow_triggers_on_tight_supply() {
        // 4 bits of wire through each cell against a supply of 1 track.
        let electrical = net(vec![EdgeMedium::Electrical]);
        let tight = congestion_report(die(), 16, std::slice::from_ref(&electrical), &[0], 1);
        let loose = congestion_report(die(), 16, &[electrical], &[0], 1_000);
        assert!(tight.overflow_cells > 0, "4 parallel bits exceed 1 track");
        assert_eq!(loose.overflow_cells, 0);
        assert!(tight.peak_utilization > loose.peak_utilization);
    }

    #[test]
    #[should_panic(expected = "track supply")]
    fn zero_track_supply_rejected() {
        let electrical = net(vec![EdgeMedium::Electrical]);
        let _ = congestion_report(die(), 8, &[electrical], &[0], 0);
    }

    #[test]
    fn laser_report_prices_optical_nets_only() {
        use operon_exec::Executor;
        use operon_optics::linkbudget::LinkBudget;
        let optical = net(vec![EdgeMedium::Optical]);
        let electrical = net(vec![EdgeMedium::Electrical]);
        let budget = LinkBudget::paper_defaults();
        let lib = OpticalLib::paper_defaults();

        let nets = vec![electrical];
        let idx = crate::CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = laser_report(&nets, &idx, &[0], &budget, &lib);
        assert_eq!(r.optical_nets, 0);
        assert_eq!(r.total_laser_mw, 0.0);
        assert_eq!(r.worst_headroom_db, budget.max_loss_db());

        let nets = vec![optical];
        let idx = crate::CrossingIndex::build_with(&nets, &Executor::sequential());
        let r = laser_report(&nets, &idx, &[0], &budget, &lib);
        assert_eq!(r.optical_nets, 1);
        let loss = nets[0].candidates[0].worst_fixed_loss_db();
        let expect = 4.0 * budget.laser_power_mw(loss);
        assert!((r.total_laser_mw - expect).abs() < 1e-9);
        assert!((r.worst_headroom_db - budget.headroom_db(loss)).abs() < 1e-9);
    }

    #[test]
    fn thermal_uniform_profile_costs_nothing() {
        let nets = vec![net(vec![EdgeMedium::Optical])];
        let r = thermal_report(&nets, &[0], &ThermalProfile::uniform(60.0));
        assert_eq!(r.tuning_power_mw, 0.0);
        assert_eq!(r.worst_extra_loss_db, 0.0);
        assert_eq!(r.device_sites, 2, "one modulator + one detector");
    }

    #[test]
    fn thermal_gradient_charges_devices() {
        let nets = vec![net(vec![EdgeMedium::Optical])];
        let mut p = ThermalProfile::uniform(50.0);
        p.gradient_c_per_cm = (10.0, 0.0);
        let r = thermal_report(&nets, &[0], &p);
        // Devices at x = 0.1 cm and 1.9 cm deviate 1 °C and 19 °C from
        // calibration; 4 bits each at 0.02 mW/°C.
        let expect = 4.0 * 0.02 * (1.0 + 19.0);
        assert!(
            (r.tuning_power_mw - expect).abs() < 1e-9,
            "{}",
            r.tuning_power_mw
        );
        assert!(r.worst_extra_loss_db > 0.0);
    }

    #[test]
    fn electrical_selection_has_no_thermal_cost() {
        let nets = vec![net(vec![EdgeMedium::Electrical])];
        let r = thermal_report(&nets, &[0], &ThermalProfile::stressed(2.0));
        assert_eq!(r.tuning_power_mw, 0.0);
        assert_eq!(r.device_sites, 0);
    }

    #[test]
    fn normalized_maps_cap_at_one() {
        let nets = vec![net(vec![EdgeMedium::Optical])];
        let maps = power_maps(
            die(),
            16,
            &nets,
            &[0],
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        )
        .normalized();
        assert!(maps.optical.max() <= 1.0 + 1e-12);
    }
}
