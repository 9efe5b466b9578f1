//! Fixed-point planar geometry for optical-electrical route synthesis.
//!
//! All coordinates are integer *database units* (dbu). The OPERON benchmarks
//! are up-scaled to centimeter dimensions; throughout this workspace
//! `1 dbu = 1 µm`, so [`DBU_PER_CM`] converts wirelength to the
//! centimeter scale used by the optical loss coefficients (dB/cm).
//!
//! The crate provides the primitives every other crate builds on:
//!
//! * [`Point`] — integer lattice point with Manhattan/Euclidean metrics,
//! * [`BoundingBox`] — axis-aligned boxes with overlap tests (used by the
//!   ILP variable-reduction speed-up of the paper),
//! * [`Segment`] — line segments with exact intersection predicates (used
//!   to count waveguide crossings for the crossing-loss term),
//! * [`Grid`] — uniform `f64` binning (used for hotspot power maps),
//! * [`SegmentGrid`] — uniform segment bucketing that accelerates
//!   all-pairs segment intersection queries, with an exact owner-cell
//!   rule so each crossing is reported once.
//!
//! # Examples
//!
//! ```
//! use operon_geom::{Point, Segment};
//!
//! let a = Segment::new(Point::new(0, 0), Point::new(10, 10));
//! let b = Segment::new(Point::new(0, 10), Point::new(10, 0));
//! assert!(a.crosses(&b));
//! ```

#![forbid(unsafe_code)]

mod bbox;
mod grid;
mod point;
mod segment;

pub use bbox::BoundingBox;
pub use grid::{Grid, GridCell, SegmentGrid};
pub use point::{FPoint, Point};
pub use segment::{Orientation, Segment};

/// Database units per centimeter (`1 dbu = 1 µm`).
///
/// Optical loss coefficients in the literature are quoted in dB/cm; the
/// netlists store coordinates in dbu, so wirelength must be divided by this
/// constant before applying the propagation-loss coefficient.
pub const DBU_PER_CM: f64 = 10_000.0;

/// Coordinate magnitude (2^30 dbu) below which the exact predicates
/// ([`Segment::orientation`], [`SegmentGrid::owns_crossing`]) take their
/// die-scale fast paths: narrower or unchecked integer arithmetic whose
/// bounds rule out overflow.
///
/// Design readers reject any die corner at or beyond this magnitude, so
/// every coordinate a route sees (pins lie inside the die) stays far
/// from `i64` overflow in widths, distances and midpoints.
pub const DIE_SCALE: i64 = 1 << 30;

/// Whether both coordinates of `p` lie strictly within [`DIE_SCALE`].
#[inline]
pub(crate) fn at_die_scale(p: Point) -> bool {
    p.x.abs() < DIE_SCALE && p.y.abs() < DIE_SCALE
}

/// Converts a length in database units to centimeters.
///
/// # Examples
///
/// ```
/// assert_eq!(operon_geom::dbu_to_cm(20_000.0), 2.0);
/// ```
#[inline]
pub fn dbu_to_cm(dbu: f64) -> f64 {
    dbu / DBU_PER_CM
}

/// Converts a length in centimeters to database units.
///
/// # Examples
///
/// ```
/// assert_eq!(operon_geom::cm_to_dbu(1.5), 15_000.0);
/// ```
#[inline]
pub fn cm_to_dbu(cm: f64) -> f64 {
    cm * DBU_PER_CM
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_round_trips() {
        for v in [0.0, 1.0, 2.5, 123.456] {
            let dbu = cm_to_dbu(v);
            assert!((dbu_to_cm(dbu) - v).abs() < 1e-12);
        }
    }
}
