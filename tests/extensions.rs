//! Cross-crate integration tests of the extension features: timing,
//! thermal pricing, laser budgets, wavelength channels, SVG rendering,
//! and the incremental (ECO) flow.

use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::render::{render_svg, RenderOptions};
use operon::report::{laser_report, thermal_report};
use operon::session::WarmSession;
use operon::wdm::channels::{assign_channels, validate_channels};
use operon::CrossingIndex;
use operon_netlist::stats::DesignStats;
use operon_netlist::synth::{generate, SynthConfig};
use operon_optics::linkbudget::LinkBudget;
use operon_optics::thermal::ThermalProfile;

fn flow_and_result() -> (
    OperonConfig,
    operon_netlist::Design,
    operon::flow::FlowResult,
) {
    let design = generate(&SynthConfig::medium(), 29);
    let config = OperonConfig::default();
    let result = OperonFlow::new(config.clone()).run(&design).expect("flow");
    (config, design, result)
}

#[test]
fn wavelength_channels_validate_on_real_flows() {
    let (config, _design, result) = flow_and_result();
    let channels = assign_channels(&result.wdm, config.optical.wdm_capacity);
    validate_channels(&result.wdm, &channels, config.optical.wdm_capacity)
        .expect("channel assignment is legal");
    // Spot-check: the busiest waveguide is tightly packed from channel 0.
    if let Some(wc) = channels.iter().max_by_key(|wc| wc.used()) {
        let lowest = wc.blocks.iter().map(|b| b.first).min().expect("non-empty");
        assert_eq!(lowest, 0);
    }
}

#[test]
fn laser_budget_closes_for_accepted_selections() {
    let (config, _design, result) = flow_and_result();
    let crossings = CrossingIndex::build(&result.candidates);
    let resolved = config.resolved_for(result.hyper_nets.iter().map(|n| n.bit_count()));
    // A budget matching the configured l_m must close every link.
    let budget = LinkBudget::paper_defaults();
    assert!((budget.max_loss_db() - resolved.optical.max_loss_db).abs() < 1e-9);
    let report = laser_report(
        &result.candidates,
        &crossings,
        &result.selection.choice,
        &budget,
        &resolved.optical,
    );
    assert!(report.worst_headroom_db >= -1e-9, "{report:?}");
    assert!(report.total_laser_mw > 0.0);
    // A 10 dB tighter receiver cannot close the worst link.
    let tight = LinkBudget {
        sensitivity_dbm: budget.sensitivity_dbm + 10.0,
        ..budget
    };
    let tight_report = laser_report(
        &result.candidates,
        &crossings,
        &result.selection.choice,
        &tight,
        &resolved.optical,
    );
    assert!(tight_report.worst_headroom_db < report.worst_headroom_db);
}

#[test]
fn thermal_stress_costs_more_than_calm() {
    let (_config, _design, result) = flow_and_result();
    let calm = thermal_report(
        &result.candidates,
        &result.selection.choice,
        &ThermalProfile::uniform(55.0),
    );
    let stressed = thermal_report(
        &result.candidates,
        &result.selection.choice,
        &ThermalProfile::stressed(2.0),
    );
    assert_eq!(calm.tuning_power_mw, 0.0);
    assert!(stressed.tuning_power_mw > 0.0);
    assert_eq!(calm.device_sites, stressed.device_sites);
}

#[test]
fn svg_renders_every_selected_route() {
    let (_config, design, result) = flow_and_result();
    let svg = render_svg(
        design.die(),
        &result.candidates,
        &result.selection.choice,
        Some(&result.wdm),
        &RenderOptions::default(),
    );
    let optical_segments: usize = result
        .candidates
        .iter()
        .zip(&result.selection.choice)
        .map(|(nc, &j)| nc.candidates[j].optical_segments.len())
        .sum();
    assert_eq!(svg.matches("class=\"waveguide\"").count(), optical_segments);
    assert_eq!(
        svg.matches("class=\"wdm\"").count(),
        result.wdm.final_count()
    );
}

#[test]
fn eco_after_group_removal_matches_fresh() {
    let design = generate(&SynthConfig::small(), 31);
    let flow = OperonFlow::new(OperonConfig::default());
    let mut session = WarmSession::open(
        design.clone(),
        flow.config().clone(),
        flow.executor().clone(),
    )
    .expect("open");
    session.route().expect("run");

    // Remove the last group (ids stay dense).
    let mut trimmed = operon_netlist::Design::new(design.name(), design.die());
    let keep = design.group_count() - 1;
    for g in design.groups().iter().take(keep) {
        trimmed.push_group(g.clone());
    }
    let eco = session.apply_design(trimmed.clone()).expect("eco");
    assert!(eco.warm);
    let fresh = flow.run(&trimmed).expect("fresh");
    assert_eq!(
        session.selection().expect("routed").choice,
        fresh.selection.choice
    );
    assert_eq!(eco.power_mw, fresh.total_power_mw());
}

#[test]
fn optical_offload_relieves_electrical_congestion() {
    // OPERON's selection vs. forcing every net onto its electrical
    // fallback: the hybrid must never be more congested, and on a
    // long-haul design the relief should be dramatic.
    let (config, design, result) = flow_and_result();
    let tracks = 64;
    let hybrid = operon::report::congestion_report(
        design.die(),
        config.powermap_cells,
        &result.candidates,
        &result.selection.choice,
        tracks,
    );
    let all_electrical: Vec<usize> = result
        .candidates
        .iter()
        .map(|nc| nc.electrical_idx)
        .collect();
    let copper = operon::report::congestion_report(
        design.die(),
        config.powermap_cells,
        &result.candidates,
        &all_electrical,
        tracks,
    );
    assert!(hybrid.peak_utilization <= copper.peak_utilization + 1e-9);
    assert!(hybrid.overflow_cells <= copper.overflow_cells);
    assert!(
        hybrid.utilization.total() < copper.utilization.total() * 0.5,
        "long-haul traffic moved to the optical layer: {} vs {}",
        hybrid.utilization.total(),
        copper.utilization.total()
    );
}

#[test]
fn design_stats_reflect_generator_configuration() {
    let narrow = SynthConfig {
        distant_sink_prob: 0.0,
        ..SynthConfig::medium()
    };
    let wide = SynthConfig {
        distant_sink_prob: 1.0,
        ..SynthConfig::medium()
    };
    let near = DesignStats::of(&generate(&narrow, 7));
    let far = DesignStats::of(&generate(&wide, 7));
    assert!(
        far.span_cm.1 > near.span_cm.1,
        "distant sinks must lengthen spans: {:.2} vs {:.2}",
        far.span_cm.1,
        near.span_cm.1
    );
    assert!(far.long_haul_fraction >= near.long_haul_fraction);
}
