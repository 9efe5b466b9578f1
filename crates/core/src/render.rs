//! SVG rendering of synthesized routes.
//!
//! Draws the die, the selected routes (electrical wires as rectilinear
//! L-paths, optical waveguides as straight any-angle segments), the EO/OE
//! conversion devices, and optionally the placed WDM tracks — the visual
//! counterpart of the paper's Fig. 4.

use crate::codesign::{EdgeMedium, NetCandidates};
use crate::wdm::{TrackOrientation, WdmPlan};
use operon_geom::{BoundingBox, Point};
use std::fmt::Write as _;

/// Styling and content knobs for [`render_svg`].
#[derive(Clone, Debug)]
pub struct RenderOptions {
    /// Output width in pixels (height follows the die aspect ratio).
    pub width_px: u32,
    /// Draw modulator/detector markers.
    pub show_devices: bool,
    /// Draw the WDM tracks of a [`WdmPlan`].
    pub show_wdms: bool,
    /// Stroke width in die units (dbu).
    pub stroke_dbu: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        Self {
            width_px: 800,
            show_devices: true,
            show_wdms: true,
            stroke_dbu: 40.0,
        }
    }
}

/// Renders a selection (and optionally its WDM plan) to an SVG document.
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::flow::OperonFlow;
/// use operon::render::{render_svg, RenderOptions};
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 1);
/// let result = OperonFlow::new(OperonConfig::default()).run(&design)?;
/// let svg = render_svg(
///     design.die(),
///     &result.candidates,
///     &result.selection.choice,
///     Some(&result.wdm),
///     &RenderOptions::default(),
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.ends_with("</svg>\n"));
/// # Ok::<(), operon::OperonError>(())
/// ```
pub fn render_svg(
    die: BoundingBox,
    nets: &[NetCandidates],
    choice: &[usize],
    wdm: Option<&WdmPlan>,
    options: &RenderOptions,
) -> String {
    let w = die.width().max(1) as f64;
    let h = die.height().max(1) as f64;
    let height_px = (options.width_px as f64 * h / w).round() as u32;
    let sw = options.stroke_dbu;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="{} {} {} {}">"##,
        options.width_px,
        height_px.max(1),
        die.lo().x,
        die.lo().y,
        die.width(),
        die.height()
    );
    let _ = writeln!(
        svg,
        r##"<rect x="{}" y="{}" width="{}" height="{}" fill="#fcfcf8" stroke="#333" stroke-width="{sw}"/>"##,
        die.lo().x,
        die.lo().y,
        die.width(),
        die.height()
    );

    // WDM tracks under the routes.
    if let (true, Some(plan)) = (options.show_wdms, wdm) {
        for track in &plan.wdms {
            let (x1, y1, x2, y2) = match track.orientation {
                TrackOrientation::Horizontal => (die.lo().x, track.track, die.hi().x, track.track),
                TrackOrientation::Vertical => (track.track, die.lo().y, track.track, die.hi().y),
            };
            let _ = writeln!(
                svg,
                r##"<line class="wdm" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#9ecae1" stroke-width="{}" stroke-dasharray="{} {}"/>"##,
                sw * 0.75,
                sw * 4.0,
                sw * 4.0
            );
        }
    }

    // Routes.
    for (nc, &j) in nets.iter().zip(choice) {
        let cand = &nc.candidates[j];
        // Electrical edges: L-shaped polylines.
        for (parent, child) in cand.tree.edges() {
            if cand.media[child.index() - 1] != EdgeMedium::Electrical {
                continue;
            }
            let (a, b) = (cand.tree.point(parent), cand.tree.point(child));
            let corner = Point::new(b.x, a.y);
            let _ = writeln!(
                svg,
                r##"<polyline class="ewire" points="{},{} {},{} {},{}" fill="none" stroke="#e6873c" stroke-width="{sw}"/>"##,
                a.x, a.y, corner.x, corner.y, b.x, b.y
            );
        }
        // Optical segments: straight lines.
        for seg in &cand.optical_segments {
            let _ = writeln!(
                svg,
                r##"<line class="waveguide" x1="{}" y1="{}" x2="{}" y2="{}" stroke="#2b6cb0" stroke-width="{sw}"/>"##,
                seg.a.x, seg.a.y, seg.b.x, seg.b.y
            );
        }
        if options.show_devices {
            let r = sw * 2.5;
            for p in &cand.modulator_points {
                let _ = writeln!(
                    svg,
                    r##"<rect class="modulator" x="{}" y="{}" width="{}" height="{}" fill="#38a169"/>"##,
                    p.x as f64 - r,
                    p.y as f64 - r,
                    2.0 * r,
                    2.0 * r
                );
            }
            for p in &cand.detector_points {
                let _ = writeln!(
                    svg,
                    r##"<circle class="detector" cx="{}" cy="{}" r="{r}" fill="#c53030"/>"##,
                    p.x, p.y
                );
            }
        }
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::analyze_assignment;
    use operon_optics::{ElectricalParams, OpticalLib};
    use operon_steiner::{NodeKind, RouteTree};

    fn die() -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(10_000, 10_000))
    }

    fn net(media: Vec<EdgeMedium>) -> NetCandidates {
        let mut tree = RouteTree::new(Point::new(1_000, 1_000));
        let s = tree.add_child(tree.root(), Point::new(5_000, 5_000), NodeKind::Steiner);
        tree.add_child(s, Point::new(9_000, 4_000), NodeKind::Terminal);
        tree.add_child(s, Point::new(9_000, 6_000), NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &media,
            2,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        NetCandidates {
            net_index: 0,
            bits: 2,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    fn count(haystack: &str, needle: &str) -> usize {
        haystack.matches(needle).count()
    }

    #[test]
    fn svg_is_well_formed_shell() {
        let nets = vec![net(vec![EdgeMedium::Optical; 3])];
        let svg = render_svg(die(), &nets, &[0], None, &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(count(&svg, "<svg"), 1);
        assert!(svg.contains(r#"viewBox="0 0 10000 10000""#));
    }

    #[test]
    fn optical_route_draws_waveguides_and_devices() {
        let nets = vec![net(vec![EdgeMedium::Optical; 3])];
        let svg = render_svg(die(), &nets, &[0], None, &RenderOptions::default());
        assert_eq!(count(&svg, r#"class="waveguide""#), 3);
        assert_eq!(count(&svg, r#"class="modulator""#), 1);
        assert_eq!(count(&svg, r#"class="detector""#), 2);
        assert_eq!(count(&svg, r#"class="ewire""#), 0);
    }

    #[test]
    fn electrical_route_draws_lshapes_only() {
        let nets = vec![net(vec![EdgeMedium::Electrical; 3])];
        let svg = render_svg(die(), &nets, &[0], None, &RenderOptions::default());
        assert_eq!(count(&svg, r#"class="ewire""#), 3);
        assert_eq!(count(&svg, r#"class="waveguide""#), 0);
        assert_eq!(count(&svg, r#"class="modulator""#), 0);
    }

    #[test]
    fn devices_can_be_hidden() {
        let nets = vec![net(vec![EdgeMedium::Optical; 3])];
        let opts = RenderOptions {
            show_devices: false,
            ..RenderOptions::default()
        };
        let svg = render_svg(die(), &nets, &[0], None, &opts);
        assert_eq!(count(&svg, r#"class="modulator""#), 0);
        assert_eq!(count(&svg, r#"class="detector""#), 0);
    }

    #[test]
    fn wdm_tracks_render_when_requested() {
        let nets = vec![net(vec![EdgeMedium::Optical; 3])];
        let choice = vec![0usize];
        let (plan, _) = crate::wdm::plan(
            &nets,
            &choice,
            &OpticalLib::paper_defaults(),
            None,
            &operon_exec::Executor::sequential(),
        )
        .expect("feasible");
        let with = render_svg(
            die(),
            &nets,
            &choice,
            Some(&plan),
            &RenderOptions::default(),
        );
        assert_eq!(count(&with, r#"class="wdm""#), plan.final_count());
        let without = render_svg(
            die(),
            &nets,
            &choice,
            Some(&plan),
            &RenderOptions {
                show_wdms: false,
                ..RenderOptions::default()
            },
        );
        assert_eq!(count(&without, r#"class="wdm""#), 0);
    }

    #[test]
    fn aspect_ratio_follows_die() {
        let tall = BoundingBox::new(Point::new(0, 0), Point::new(5_000, 10_000));
        let mut t = RouteTree::new(Point::new(100, 100));
        t.add_child(t.root(), Point::new(4_000, 9_000), NodeKind::Terminal);
        let cand = analyze_assignment(
            &t,
            &[EdgeMedium::Optical],
            1,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        let nets = vec![NetCandidates {
            net_index: 0,
            bits: 1,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }];
        let svg = render_svg(tall, &nets, &[0], None, &RenderOptions::default());
        assert!(svg.contains(r#"width="800" height="1600""#));
    }
}
