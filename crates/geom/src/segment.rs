//! Line segments and exact intersection predicates.
//!
//! Waveguide crossings induce the `β · n_x` loss term of Eq. (2); the
//! predicates here are exact (integer arithmetic, no epsilon tuning) so
//! crossing counts are deterministic.

use crate::{at_die_scale, BoundingBox, Point};
use core::fmt;

/// Orientation of an ordered point triple.
///
/// Returned by [`Segment::orientation`]; the building block of the
/// segment-intersection predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The triple turns counter-clockwise.
    CounterClockwise,
    /// The triple turns clockwise.
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

/// A line segment between two lattice points.
///
/// # Examples
///
/// ```
/// use operon_geom::{Point, Segment};
///
/// let s = Segment::new(Point::new(0, 0), Point::new(6, 8));
/// assert_eq!(s.length(), 10.0);
/// assert!(!s.is_axis_aligned());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`. Degenerate (zero-length)
    /// segments are allowed.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Self { a, b }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.euclidean(self.b)
    }

    /// Manhattan length.
    #[inline]
    pub fn manhattan_length(&self) -> i64 {
        self.a.manhattan(self.b)
    }

    /// Whether both endpoints coincide.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// Whether the segment is horizontal or vertical.
    #[inline]
    pub fn is_axis_aligned(&self) -> bool {
        self.a.x == self.b.x || self.a.y == self.b.y
    }

    /// Whether the segment is horizontal (constant y, nonzero extent in x).
    #[inline]
    pub fn is_horizontal(&self) -> bool {
        self.a.y == self.b.y && self.a.x != self.b.x
    }

    /// Whether the segment is vertical (constant x, nonzero extent in y).
    #[inline]
    pub fn is_vertical(&self) -> bool {
        self.a.x == self.b.x && self.a.y != self.b.y
    }

    /// Tightest bounding box of the segment.
    #[inline]
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::new(self.a, self.b)
    }

    /// Orientation of the triple `(p, q, r)`.
    #[inline]
    pub fn orientation(p: Point, q: Point, r: Point) -> Orientation {
        // Die-scale fast path: with every coordinate under 2^30 the
        // differences fit 31 bits and the cross product is exact in
        // i64 — no 128-bit multiplies on the hot pair-test predicate.
        let cross = if at_die_scale(p) && at_die_scale(q) && at_die_scale(r) {
            ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)) as i128
        } else {
            (q.x - p.x) as i128 * (r.y - p.y) as i128 - (q.y - p.y) as i128 * (r.x - p.x) as i128
        };
        match cross {
            c if c > 0 => Orientation::CounterClockwise,
            c if c < 0 => Orientation::Clockwise,
            _ => Orientation::Collinear,
        }
    }

    /// Tests whether the closed segments intersect (share at least one
    /// point), including touching endpoints and collinear overlap.
    #[inline]
    pub fn intersects(&self, other: &Segment) -> bool {
        let o1 = Self::orientation(self.a, self.b, other.a);
        let o2 = Self::orientation(self.a, self.b, other.b);
        let o3 = Self::orientation(other.a, other.b, self.a);
        let o4 = Self::orientation(other.a, other.b, self.b);

        // General position: the endpoints of each segment straddle the
        // other's supporting line.
        if o1 != o2 && o3 != o4 {
            return true;
        }
        // Collinear special cases: a point of one segment lies on the other.
        (o1 == Orientation::Collinear && self.contains_collinear(other.a))
            || (o2 == Orientation::Collinear && self.contains_collinear(other.b))
            || (o3 == Orientation::Collinear && other.contains_collinear(self.a))
            || (o4 == Orientation::Collinear && other.contains_collinear(self.b))
    }

    /// Tests whether the open interiors of the segments cross at a single
    /// point (a *proper* crossing).
    ///
    /// This is the predicate used to count waveguide crossings: two
    /// waveguides that merely touch at a shared branch point do not incur
    /// crossing loss, but transversal intersections do.
    #[inline]
    pub fn crosses(&self, other: &Segment) -> bool {
        let o1 = Self::orientation(self.a, self.b, other.a);
        let o2 = Self::orientation(self.a, self.b, other.b);
        let o3 = Self::orientation(other.a, other.b, self.a);
        let o4 = Self::orientation(other.a, other.b, self.b);
        o1 != Orientation::Collinear
            && o2 != Orientation::Collinear
            && o3 != Orientation::Collinear
            && o4 != Orientation::Collinear
            && o1 != o2
            && o3 != o4
    }

    /// Tests whether `p`, already known to be collinear with the segment,
    /// lies within its bounding box (and therefore on the segment).
    fn contains_collinear(&self, p: Point) -> bool {
        self.bounding_box().contains(p)
    }

    /// Tests whether `p` lies on the closed segment.
    pub fn contains(&self, p: Point) -> bool {
        Self::orientation(self.a, self.b, p) == Orientation::Collinear && self.contains_collinear(p)
    }

    /// Perpendicular distance from `p` to the supporting line, in dbu.
    ///
    /// Degenerate segments fall back to point distance.
    pub fn line_distance(&self, p: Point) -> f64 {
        if self.is_degenerate() {
            return self.a.euclidean(p);
        }
        let cross = ((self.b.x - self.a.x) as i128 * (p.y - self.a.y) as i128
            - (self.b.y - self.a.y) as i128 * (p.x - self.a.x) as i128)
            .unsigned_abs() as f64;
        cross / self.length()
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing_detected() {
        let a = seg(0, 0, 10, 10);
        let b = seg(0, 10, 10, 0);
        assert!(a.crosses(&b));
        assert!(a.intersects(&b));
    }

    #[test]
    fn shared_endpoint_is_intersection_not_crossing() {
        let a = seg(0, 0, 5, 5);
        let b = seg(5, 5, 9, 0);
        assert!(a.intersects(&b));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn t_junction_is_not_a_proper_crossing() {
        // b's endpoint lies in the interior of a.
        let a = seg(0, 0, 10, 0);
        let b = seg(5, 0, 5, 7);
        assert!(a.intersects(&b));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn collinear_overlap_intersects() {
        let a = seg(0, 0, 10, 0);
        let b = seg(5, 0, 15, 0);
        assert!(a.intersects(&b));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn collinear_disjoint_does_not_intersect() {
        let a = seg(0, 0, 4, 0);
        let b = seg(5, 0, 9, 0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let a = seg(0, 0, 10, 0);
        let b = seg(0, 1, 10, 1);
        assert!(!a.intersects(&b));
        assert!(!a.crosses(&b));
    }

    #[test]
    fn contains_checks_on_segment_points() {
        let s = seg(0, 0, 10, 10);
        assert!(s.contains(Point::new(5, 5)));
        assert!(s.contains(Point::new(0, 0)));
        assert!(!s.contains(Point::new(5, 6)));
        assert!(!s.contains(Point::new(11, 11)));
    }

    #[test]
    fn line_distance_examples() {
        let s = seg(0, 0, 10, 0);
        assert!((s.line_distance(Point::new(5, 4)) - 4.0).abs() < 1e-12);
        assert!((s.line_distance(Point::new(-3, 0)) - 0.0).abs() < 1e-12);
        let d = seg(2, 2, 2, 2);
        assert!((d.line_distance(Point::new(5, 6)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axis_aligned_predicates() {
        assert!(seg(0, 3, 9, 3).is_horizontal());
        assert!(!seg(0, 3, 9, 3).is_vertical());
        assert!(seg(4, 0, 4, 9).is_vertical());
        assert!(seg(1, 1, 1, 1).is_axis_aligned());
        assert!(!seg(1, 1, 1, 1).is_horizontal());
        assert!(!seg(0, 0, 3, 4).is_axis_aligned());
    }

    fn arb_seg() -> impl Strategy<Value = Segment> {
        (-50i64..50, -50i64..50, -50i64..50, -50i64..50)
            .prop_map(|(ax, ay, bx, by)| seg(ax, ay, bx, by))
    }

    /// Brute-force rational check of closed-segment intersection for the
    /// proptest oracle.
    fn intersects_oracle(s: &Segment, t: &Segment) -> bool {
        // Sample the parameterized intersection with exact arithmetic:
        // solve s.a + u*(s.b-s.a) = t.a + v*(t.b-t.a) over the rationals.
        let (p, r) = (s.a, s.b - s.a);
        let (q, sdir) = (t.a, t.b - t.a);
        let rxs = r.x as i128 * sdir.y as i128 - r.y as i128 * sdir.x as i128;
        let qp = q - p;
        let qpxr = qp.x as i128 * r.y as i128 - qp.y as i128 * r.x as i128;
        if rxs == 0 {
            if qpxr != 0 {
                return false; // parallel, non-collinear
            }
            // Collinear: project onto the dominant axis and test interval
            // overlap. Handle degenerate segments via containment.
            if s.is_degenerate() {
                return t.contains(s.a);
            }
            if t.is_degenerate() {
                return s.contains(t.a);
            }
            let key = |pt: Point| -> i64 {
                if r.x.abs() >= r.y.abs() {
                    pt.x
                } else {
                    pt.y
                }
            };
            let (s0, s1) = (key(s.a).min(key(s.b)), key(s.a).max(key(s.b)));
            let (t0, t1) = (key(t.a).min(key(t.b)), key(t.a).max(key(t.b)));
            return s0 <= t1 && t0 <= s1;
        }
        let qpxs = qp.x as i128 * sdir.y as i128 - qp.y as i128 * sdir.x as i128;
        // u = qpxs / rxs, v = qpxr / rxs; need both in [0, 1].
        let in_unit = |num: i128, den: i128| -> bool {
            if den > 0 {
                0 <= num && num <= den
            } else {
                den <= num && num <= 0
            }
        };
        in_unit(qpxs, rxs) && in_unit(qpxr, rxs)
    }

    #[test]
    fn predicates_stay_exact_at_sweep_limit_magnitudes() {
        // One-dbu discriminations at |coord| ~ 2^40 — the top of the
        // sweep's supported range. The i64 fast path must defer to the
        // i128 cross product here; an inexact predicate would collapse
        // these parallel-by-one-dbu cases into false crossings.
        const L: i64 = (1 << 40) - 1;
        let diag = seg(-L, -L, L, L);
        let shifted = seg(-L, -L + 1, L, L + 1);
        assert!(!diag.intersects(&shifted), "parallel 1-dbu offset");
        assert!(!diag.crosses(&shifted));
        let anti = seg(-L, L, L, -L);
        assert!(diag.crosses(&anti), "transversal at the origin");
        // Shares diag's right endpoint, 1 dbu off-line at the left:
        // touches but never properly crosses.
        let graze = seg(-L, -L + 1, L, L);
        assert!(diag.intersects(&graze));
        assert!(!diag.crosses(&graze));
        assert!(diag.contains(Point::new(123_456_789, 123_456_789)));
        assert!(!diag.contains(Point::new(123_456_789, 123_456_790)));
    }

    /// Direct `i128` evaluation of the orientation cross product — the
    /// oracle for the windowed `i64` fast path.
    fn orientation_oracle(p: Point, q: Point, r: Point) -> Orientation {
        let cross =
            (q.x - p.x) as i128 * (r.y - p.y) as i128 - (q.y - p.y) as i128 * (r.x - p.x) as i128;
        match cross {
            c if c > 0 => Orientation::CounterClockwise,
            c if c < 0 => Orientation::Clockwise,
            _ => Orientation::Collinear,
        }
    }

    /// Segments confined to a small window around `(sx, sy) * (2^40 - 200)`
    /// — large enough that every coordinate product overflows i64, small
    /// enough that the two segments still interact.
    fn arb_seg_near_limit() -> impl Strategy<Value = Segment> {
        const BASE: i64 = (1 << 40) - 200;
        (
            any::<bool>(),
            any::<bool>(),
            0i64..150,
            0i64..150,
            0i64..150,
            0i64..150,
        )
            .prop_map(|(nx, ny, ax, ay, bx, by)| {
                let sx = if nx { -1 } else { 1 };
                let sy = if ny { -1 } else { 1 };
                seg(
                    sx * (BASE + ax),
                    sy * (BASE + ay),
                    sx * (BASE + bx),
                    sy * (BASE + by),
                )
            })
    }

    /// Point coordinates straddling the 2^30 fast-path cutoff of
    /// [`Segment::orientation`], either sign.
    fn arb_boundary_coord() -> impl Strategy<Value = i64> {
        use crate::DIE_SCALE;
        (any::<bool>(), DIE_SCALE - 1_000..DIE_SCALE + 1_000)
            .prop_map(|(neg, c)| if neg { -c } else { c })
    }

    proptest! {
        #[test]
        fn intersects_matches_rational_oracle(a in arb_seg(), b in arb_seg()) {
            prop_assert_eq!(a.intersects(&b), intersects_oracle(&a, &b));
        }

        #[test]
        fn intersects_matches_oracle_near_the_sweep_limit(
            a in arb_seg_near_limit(),
            b in arb_seg_near_limit(),
        ) {
            prop_assert_eq!(a.intersects(&b), intersects_oracle(&a, &b));
            prop_assert_eq!(a.crosses(&b), b.crosses(&a));
        }

        #[test]
        fn orientation_fast_path_agrees_at_the_i64_boundary(
            coords in (
                arb_boundary_coord(),
                arb_boundary_coord(),
                arb_boundary_coord(),
                arb_boundary_coord(),
                arb_boundary_coord(),
                arb_boundary_coord(),
            ),
        ) {
            // The window straddles the fast-path cutoff, so triples mix
            // both evaluation paths; each must match the pure i128 form.
            let (px, py, qx, qy, rx, ry) = coords;
            let (p, q, r) = (Point::new(px, py), Point::new(qx, qy), Point::new(rx, ry));
            prop_assert_eq!(Segment::orientation(p, q, r), orientation_oracle(p, q, r));
        }

        #[test]
        fn crossing_implies_intersection(a in arb_seg(), b in arb_seg()) {
            if a.crosses(&b) {
                prop_assert!(a.intersects(&b));
            }
        }

        #[test]
        fn intersection_is_symmetric(a in arb_seg(), b in arb_seg()) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            prop_assert_eq!(a.crosses(&b), b.crosses(&a));
        }

        #[test]
        fn segment_intersects_itself(a in arb_seg()) {
            prop_assert!(a.intersects(&a));
            prop_assert!(!a.crosses(&a));
        }
    }
}
