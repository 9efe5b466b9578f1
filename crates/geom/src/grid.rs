//! Uniform spatial grids.
//!
//! Used in two roles:
//!
//! 1. **Power maps** (paper Fig. 9): each cell accumulates the power
//!    dissipated by the wires and converters it covers.
//! 2. **Crossing-count acceleration** ([`SegmentGrid`]): candidate segment
//!    pairs are pruned to those that traverse a common cell, and each
//!    crossing is reported only by the cell that owns its crossing point.

use crate::{at_die_scale, BoundingBox, Point, Segment, DIE_SCALE};
use core::fmt;

/// Index of a cell in a [`Grid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Column index (x direction).
    pub col: usize,
    /// Row index (y direction).
    pub row: usize,
}

/// A uniform grid of `f64` accumulators over a die region.
///
/// # Examples
///
/// ```
/// use operon_geom::{BoundingBox, Grid, Point};
///
/// let die = BoundingBox::new(Point::new(0, 0), Point::new(100, 100));
/// let mut g = Grid::new(die, 10, 10);
/// g.deposit(Point::new(5, 5), 2.0);
/// g.deposit(Point::new(7, 3), 1.0);
/// assert_eq!(g.value(0, 0), 3.0);
/// assert_eq!(g.total(), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    extent: BoundingBox,
    cols: usize,
    rows: usize,
    cells: Vec<f64>,
}

impl Grid {
    /// Creates a zero-initialized grid with `cols × rows` cells over
    /// `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero, or if `extent` is degenerate
    /// (zero width or height).
    pub fn new(extent: BoundingBox, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(
            extent.width() > 0 && extent.height() > 0,
            "grid extent must have positive area, got {extent}"
        );
        Self {
            extent,
            cols,
            rows,
            cells: vec![0.0; cols * rows],
        }
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The region covered by the grid.
    #[inline]
    pub fn extent(&self) -> BoundingBox {
        self.extent
    }

    /// Maps a point to its cell, clamping points outside the extent to the
    /// boundary cells.
    pub fn cell_of(&self, p: Point) -> GridCell {
        let fx = (p.x - self.extent.lo().x) as f64 / self.extent.width() as f64;
        let fy = (p.y - self.extent.lo().y) as f64 / self.extent.height() as f64;
        let col = ((fx * self.cols as f64) as isize).clamp(0, self.cols as isize - 1) as usize;
        let row = ((fy * self.rows as f64) as isize).clamp(0, self.rows as isize - 1) as usize;
        GridCell { col, row }
    }

    /// Adds `amount` to the cell containing `p`.
    pub fn deposit(&mut self, p: Point, amount: f64) {
        let c = self.cell_of(p);
        self.cells[c.row * self.cols + c.col] += amount;
    }

    /// Distributes `amount` uniformly along the straight segment from `a`
    /// to `b` by sampling it at sub-cell resolution.
    ///
    /// This is how wire power is smeared over a power map: a long wire
    /// heats every cell it traverses in proportion to the length inside.
    pub fn deposit_segment(&mut self, a: Point, b: Point, amount: f64) {
        let len = a.euclidean(b);
        if len == 0.0 {
            self.deposit(a, amount);
            return;
        }
        // Sample at roughly quarter-cell pitch so that every traversed cell
        // receives its share.
        let cell_w = self.extent.width() as f64 / self.cols as f64;
        let cell_h = self.extent.height() as f64 / self.rows as f64;
        let step = (cell_w.min(cell_h) / 4.0).max(1.0);
        let samples = (len / step).ceil() as usize + 1;
        let share = amount / samples as f64;
        for i in 0..samples {
            let t = i as f64 / (samples - 1).max(1) as f64;
            let p = Point::new(
                a.x + ((b.x - a.x) as f64 * t).round() as i64,
                a.y + ((b.y - a.y) as f64 * t).round() as i64,
            );
            self.deposit(p, share);
        }
    }

    /// Value of the cell at (`col`, `row`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn value(&self, col: usize, row: usize) -> f64 {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of bounds"
        );
        self.cells[row * self.cols + col]
    }

    /// Sum over all cells.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Maximum cell value (0.0 for an all-zero grid).
    pub fn max(&self) -> f64 {
        self.cells.iter().copied().fold(0.0, f64::max)
    }

    /// Iterates over `(cell, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (GridCell, f64)> + '_ {
        self.cells.iter().enumerate().map(move |(i, &v)| {
            (
                GridCell {
                    col: i % self.cols,
                    row: i / self.cols,
                },
                v,
            )
        })
    }

    /// Returns the grid normalized so the maximum cell is 1.0.
    ///
    /// An all-zero grid is returned unchanged.
    pub fn normalized(&self) -> Grid {
        let mx = self.max();
        if mx == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        for v in &mut out.cells {
            *v /= mx;
        }
        out
    }

    /// Cells whose value is at least `frac` of the maximum (hotspots).
    pub fn hotspots(&self, frac: f64) -> Vec<GridCell> {
        let threshold = self.max() * frac;
        if threshold == 0.0 {
            return Vec::new();
        }
        self.iter()
            .filter(|&(_, v)| v >= threshold)
            .map(|(c, _)| c)
            .collect()
    }
}

impl fmt::Display for Grid {
    /// Renders the grid as an ASCII heat map (`.:-=+*#%@` ramp), row 0 at
    /// the bottom as in die coordinates.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mx = self.max();
        for row in (0..self.rows).rev() {
            for col in 0..self.cols {
                let v = self.value(col, row);
                let idx = if mx == 0.0 {
                    0
                } else {
                    (((v / mx) * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
                };
                write!(f, "{}", RAMP[idx] as char)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A deterministic uniform grid that buckets line segments by the cells
/// they traverse.
///
/// Built for crossing-count acceleration: two segments can only cross
/// where they geometrically overlap, so any properly-crossing pair shares
/// at least one cell (the cell containing the crossing point — see the
/// coverage invariant below). Candidate-pair generation then only has to
/// look inside cells instead of at all `O(N²)` pairs.
///
/// **Coverage invariant:** for every point `p` on an inserted segment
/// with `p` inside the extent, the cell containing `p` is among the cells
/// the segment was bucketed into. Rasterization walks the row bands the
/// segment traverses and, per band, marks the exact column range spanned
/// by the segment inside that band (computed with exact integer
/// rationals — `x(y)` is monotone in `y` along a straight segment). A
/// die-spanning diagonal therefore occupies `O(rows + cols)` cells, not
/// every cell of its bounding box.
///
/// A pair sharing several cells is seen in each of them;
/// [`owns_crossing`](Self::owns_crossing) picks the one cell that reports
/// it.
///
/// Everything about the structure is deterministic: cell geometry is
/// integer arithmetic on dbu coordinates, and each cell lists item ids in
/// insertion order.
///
/// # Examples
///
/// ```
/// use operon_geom::{BoundingBox, Point, Segment, SegmentGrid};
///
/// let extent = BoundingBox::new(Point::new(0, 0), Point::new(100, 100));
/// let mut g = SegmentGrid::new(extent, 4, 4);
/// g.insert(0, Segment::new(Point::new(0, 0), Point::new(100, 100)));
/// g.insert(1, Segment::new(Point::new(0, 100), Point::new(100, 0)));
/// // The diagonals cross at (50, 50); some cell holds both.
/// assert!(g
///     .nonempty_cells()
///     .iter()
///     .any(|&c| g.cell_items(c) == [0, 1]));
/// ```
#[derive(Clone, Debug)]
pub struct SegmentGrid {
    extent: BoundingBox,
    cols: usize,
    rows: usize,
    cell_w: i64,
    cell_h: i64,
    /// Whether the origin lies within [`DIE_SCALE`] and both grid spans
    /// within `4 · DIE_SCALE`: with die-scale endpoints,
    /// [`owns_crossing`](Self::owns_crossing) then cannot overflow.
    die_scale: bool,
    cells: Vec<Vec<u32>>,
}

impl SegmentGrid {
    /// Creates an empty grid with `cols × rows` cells over `extent`.
    ///
    /// Unlike [`Grid::new`], degenerate extents (zero width or height —
    /// all segments on one line) are allowed; the cell size is always at
    /// least one dbu.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn new(extent: BoundingBox, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        // `+ 1` guarantees `cols * cell_w > width`, so every in-extent
        // x maps to a column strictly below `cols` (same for rows).
        let cell_w = extent.width() / cols as i64 + 1;
        let cell_h = extent.height() / rows as i64 + 1;
        let lo = extent.lo();
        let span = |n: usize, size: i64| n as i128 * i128::from(size);
        let die_scale = lo.x.abs() < DIE_SCALE
            && lo.y.abs() < DIE_SCALE
            && span(cols, cell_w) <= 4 * i128::from(DIE_SCALE)
            && span(rows, cell_h) <= 4 * i128::from(DIE_SCALE);
        Self {
            extent,
            cols,
            rows,
            cell_w,
            cell_h,
            die_scale,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    /// Creates a grid sized for roughly `items` segments: a square layout
    /// with about one cell per item, capped at 512 cells per side.
    pub fn sized(extent: BoundingBox, items: usize) -> Self {
        let side = ((items as f64).sqrt().ceil() as usize).clamp(1, 512);
        Self::new(extent, side, side)
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The region covered by the grid.
    #[inline]
    pub fn extent(&self) -> BoundingBox {
        self.extent
    }

    /// Item ids stored in cell `cell` (row-major index), in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cols * rows`.
    #[inline]
    pub fn cell_items(&self, cell: usize) -> &[u32] {
        &self.cells[cell]
    }

    /// Row-major indices of all cells holding at least one item,
    /// ascending.
    pub fn nonempty_cells(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&c| !self.cells[c].is_empty())
            .collect()
    }

    /// The largest number of items in any single cell (the grid's load
    /// factor hotspot — if this approaches the total item count the grid
    /// has degenerated to brute force).
    pub fn max_cell_load(&self) -> usize {
        self.cells.iter().map(Vec::len).max().unwrap_or(0)
    }

    fn col_of(&self, x: i64) -> usize {
        let off = (x - self.extent.lo().x).max(0);
        ((off / self.cell_w) as usize).min(self.cols - 1)
    }

    fn row_of(&self, y: i64) -> usize {
        let off = (y - self.extent.lo().y).max(0);
        ((off / self.cell_h) as usize).min(self.rows - 1)
    }

    /// Column of the exact rational x-coordinate `num / den` (`den > 0`).
    fn col_of_rational(&self, num: i128, den: i128) -> usize {
        let off = num - i128::from(self.extent.lo().x) * den;
        if off <= 0 {
            return 0;
        }
        let col = div_floor(off, den * i128::from(self.cell_w));
        (col as usize).min(self.cols - 1)
    }

    /// Buckets `seg` into every cell it traverses inside the extent.
    ///
    /// The coverage invariant holds for the portion of the segment lying
    /// inside the extent; parts outside are clamped to boundary cells
    /// without any coverage guarantee, so build the grid over an extent
    /// that contains every inserted segment.
    pub fn insert(&mut self, id: u32, seg: Segment) {
        let lo = self.extent.lo();
        let (ylo, yhi) = if seg.a.y <= seg.b.y {
            (seg.a.y, seg.b.y)
        } else {
            (seg.b.y, seg.a.y)
        };
        let r0 = self.row_of(ylo);
        let r1 = self.row_of(yhi);
        if seg.a.y == seg.b.y {
            // Horizontal or degenerate: one row band, a contiguous column
            // range.
            let c0 = self.col_of(seg.a.x.min(seg.b.x));
            let c1 = self.col_of(seg.a.x.max(seg.b.x));
            for c in c0..=c1 {
                self.cells[r0 * self.cols + c].push(id);
            }
            return;
        }
        // x(y) = ax + (y − ay)·dx/dy, exact in i128; monotone in y, so
        // inside any row band the covered columns are exactly those
        // between the columns at the band's two boundary ordinates.
        let dx = i128::from(seg.b.x - seg.a.x);
        let dy = i128::from(seg.b.y - seg.a.y);
        let x_at = |y: i64| -> (i128, i128) {
            let num = i128::from(seg.a.x) * dy + i128::from(y - seg.a.y) * dx;
            if dy < 0 {
                (-num, -dy)
            } else {
                (num, dy)
            }
        };
        let span = self.rows as i64 * self.cell_h;
        let ylo_c = ylo.clamp(lo.y, lo.y + span);
        let yhi_c = yhi.clamp(lo.y, lo.y + span);
        for r in r0..=r1 {
            let band_lo = ylo_c.max(lo.y + r as i64 * self.cell_h);
            let band_hi = yhi_c.min(lo.y + (r as i64 + 1) * self.cell_h);
            if band_lo > band_hi {
                continue;
            }
            let (n1, d1) = x_at(band_lo);
            let (n2, d2) = x_at(band_hi);
            let ca = self.col_of_rational(n1, d1);
            let cb = self.col_of_rational(n2, d2);
            let (c0, c1) = if ca <= cb { (ca, cb) } else { (cb, ca) };
            for c in c0..=c1 {
                self.cells[r * self.cols + c].push(id);
            }
        }
    }

    /// Whether cell `cell` owns the proper crossing point of `s` and `t`:
    /// the cell holding the exact rational crossing point, clamped to the
    /// boundary cells the way [`insert`](Self::insert) clamps. By the
    /// coverage invariant that cell holds both segments, so testing pairs
    /// only where this returns `true` reports each crossing exactly once.
    ///
    /// Comparisons are exact multiply-only `i128` arithmetic. Die-scale
    /// inputs — every endpoint and the grid origin within 2^30, each grid
    /// span within 2^32 — run it unchecked: then every band bound is
    /// within 2^33, the crossing-point fraction's `num` and `den` within
    /// 2^63, and each comparison's `(a − bound)·den + d·num` within
    /// 2^98. Other inputs take the same formula with checked ops; when
    /// one would overflow (coordinates far beyond die scale), or the
    /// segments are parallel, the answer is `true`: the caller may then
    /// see the pair in several cells and must deduplicate.
    #[inline]
    pub fn owns_crossing(&self, cell: usize, s: &Segment, t: &Segment) -> bool {
        if self.die_scale
            && at_die_scale(s.a)
            && at_die_scale(s.b)
            && at_die_scale(t.a)
            && at_die_scale(t.b)
        {
            self.owns_crossing_exact::<false>(cell, s, t)
        } else {
            self.owns_crossing_exact::<true>(cell, s, t)
        }
        .unwrap_or(true)
    }

    /// The ownership test, with every `i128` op overflow-checked when
    /// `CHECKED` and plain otherwise (only for inputs whose bounds rule
    /// overflow out — see [`owns_crossing`](Self::owns_crossing)).
    #[inline]
    fn owns_crossing_exact<const CHECKED: bool>(
        &self,
        cell: usize,
        s: &Segment,
        t: &Segment,
    ) -> Option<bool> {
        let mul = |x, y| op::<CHECKED>(x, y, i128::checked_mul, |a, b| a * b);
        let add = |x, y| op::<CHECKED>(x, y, i128::checked_add, |a, b| a + b);
        let sub = |x, y| op::<CHECKED>(x, y, i128::checked_sub, |a, b| a - b);
        let neg = |x| op::<CHECKED>(x, 0, |a, _| a.checked_neg(), |a, _| -a);
        let diff = |p: Point, q: Point| {
            (
                i128::from(q.x) - i128::from(p.x),
                i128::from(q.y) - i128::from(p.y),
            )
        };
        let cross = |u: (i128, i128), v: (i128, i128)| sub(mul(u.0, v.1)?, mul(u.1, v.0)?);
        let (d1, d2) = (diff(s.a, s.b), diff(t.a, t.b));
        // The crossing point is s.a + d1 · num / den.
        let den = cross(d1, d2)?;
        if den == 0 {
            return None;
        }
        let num = cross(diff(s.a, t.a), d2)?;
        let (num, den) = if den < 0 {
            (neg(num)?, neg(den)?)
        } else {
            (num, den)
        };
        // Whether the coordinate `a + d · num / den` is at least `bound`.
        let at_least = |a: i64, d: i128, bound: i128| -> Option<bool> {
            Some(add(mul(i128::from(a) - bound, den)?, mul(d, num)?)? >= 0)
        };
        // Band `idx` of `n` owns `[lo + idx·size, lo + (idx+1)·size)`,
        // with the first and last bands open towards the outside.
        let in_band = |a: i64, d: i128, lo: i64, size: i64, idx: usize, n: usize| {
            let start = i128::from(lo) + idx as i128 * i128::from(size);
            let above = idx == 0 || at_least(a, d, start)?;
            let below = idx + 1 == n || !at_least(a, d, start + i128::from(size))?;
            Some(above && below)
        };
        let lo = self.extent.lo();
        let (col, row) = (cell % self.cols, cell / self.cols);
        Some(
            in_band(s.a.x, d1.0, lo.x, self.cell_w, col, self.cols)?
                && in_band(s.a.y, d1.1, lo.y, self.cell_h, row, self.rows)?,
        )
    }
}

/// `x ∘ y` by `checked` when `CHECKED`, else by `plain`: the one switch
/// between [`SegmentGrid::owns_crossing`]'s two arithmetic modes.
#[inline(always)]
fn op<const CHECKED: bool>(
    x: i128,
    y: i128,
    checked: fn(i128, i128) -> Option<i128>,
    plain: fn(i128, i128) -> i128,
) -> Option<i128> {
    if CHECKED {
        checked(x, y)
    } else {
        Some(plain(x, y))
    }
}

/// Floor division for `i128` with a positive divisor.
fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && a < 0 {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn die() -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(100, 100))
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = Grid::new(die(), 0, 4);
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_extent_rejected() {
        let b = BoundingBox::new(Point::new(0, 0), Point::new(0, 10));
        let _ = Grid::new(b, 2, 2);
    }

    #[test]
    fn cell_of_clamps_outside_points() {
        let g = Grid::new(die(), 10, 10);
        assert_eq!(g.cell_of(Point::new(-5, -5)), GridCell { col: 0, row: 0 });
        assert_eq!(
            g.cell_of(Point::new(1000, 1000)),
            GridCell { col: 9, row: 9 }
        );
    }

    #[test]
    fn deposit_accumulates() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 1.5);
        g.deposit(Point::new(12, 14), 0.5);
        assert_eq!(g.value(0, 0), 2.0);
        assert_eq!(g.total(), 2.0);
    }

    #[test]
    fn deposit_segment_conserves_total() {
        let mut g = Grid::new(die(), 8, 8);
        g.deposit_segment(Point::new(3, 3), Point::new(97, 91), 10.0);
        assert!((g.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deposit_degenerate_segment_is_point_deposit() {
        let mut g = Grid::new(die(), 8, 8);
        g.deposit_segment(Point::new(50, 50), Point::new(50, 50), 3.0);
        let c = g.cell_of(Point::new(50, 50));
        assert_eq!(g.value(c.col, c.row), 3.0);
    }

    #[test]
    fn deposit_segment_spreads_across_cells() {
        let mut g = Grid::new(die(), 10, 1);
        g.deposit_segment(Point::new(0, 50), Point::new(99, 50), 1.0);
        let touched = g.iter().filter(|&(_, v)| v > 0.0).count();
        assert_eq!(touched, 10, "horizontal wire should heat all 10 columns");
    }

    #[test]
    fn normalized_max_is_one() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 4.0);
        g.deposit(Point::new(90, 90), 2.0);
        let n = g.normalized();
        assert_eq!(n.max(), 1.0);
        let c = n.cell_of(Point::new(90, 90));
        assert_eq!(n.value(c.col, c.row), 0.5);
    }

    #[test]
    fn normalized_zero_grid_is_unchanged() {
        let g = Grid::new(die(), 4, 4);
        assert_eq!(g.normalized().total(), 0.0);
    }

    #[test]
    fn hotspots_of_zero_grid_empty() {
        let g = Grid::new(die(), 4, 4);
        assert!(g.hotspots(0.5).is_empty());
    }

    #[test]
    fn hotspots_threshold_filters() {
        let mut g = Grid::new(die(), 4, 4);
        g.deposit(Point::new(10, 10), 10.0);
        g.deposit(Point::new(90, 90), 1.0);
        let hs = g.hotspots(0.5);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0], g.cell_of(Point::new(10, 10)));
    }

    #[test]
    fn display_has_rows_lines() {
        let g = Grid::new(die(), 3, 5);
        let s = g.to_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.lines().all(|l| l.chars().count() == 3));
    }

    #[test]
    fn segment_grid_horizontal_covers_all_columns_in_one_row() {
        let mut g = SegmentGrid::new(die(), 10, 10);
        g.insert(7, Segment::new(Point::new(0, 55), Point::new(100, 55)));
        let cells = g.nonempty_cells();
        assert_eq!(cells.len(), 10, "one full row of columns");
        let row = g.row_of(55);
        assert!(cells.iter().all(|&c| c / 10 == row));
        assert!(cells.iter().all(|&c| g.cell_items(c) == [7]));
    }

    #[test]
    fn segment_grid_diagonal_is_sparse_not_bbox_dense() {
        // A die-spanning diagonal must occupy O(rows + cols) cells, not
        // the full bounding box (which here is every cell of the grid).
        let mut g = SegmentGrid::new(die(), 16, 16);
        g.insert(0, Segment::new(Point::new(0, 0), Point::new(100, 100)));
        let n = g.nonempty_cells().len();
        assert!(n >= 16, "diagonal traverses every row: {n}");
        assert!(n <= 3 * 16, "diagonal must not fill its bbox: {n}");
    }

    #[test]
    fn segment_grid_degenerate_extent_is_usable() {
        // All segments collinear on x = 5: zero-width extent.
        let extent = BoundingBox::new(Point::new(5, 0), Point::new(5, 100));
        let mut g = SegmentGrid::new(extent, 4, 4);
        g.insert(0, Segment::new(Point::new(5, 0), Point::new(5, 100)));
        assert_eq!(g.max_cell_load(), 1);
        assert!(!g.nonempty_cells().is_empty());
    }

    #[test]
    fn segment_grid_insertion_order_is_preserved_per_cell() {
        let mut g = SegmentGrid::new(die(), 2, 2);
        for id in 0..4u32 {
            g.insert(id, Segment::new(Point::new(10, 10), Point::new(40, 40)));
        }
        for c in g.nonempty_cells() {
            assert_eq!(g.cell_items(c), [0, 1, 2, 3]);
        }
    }

    #[test]
    fn crossing_on_cell_corner_is_owned_by_the_upper_right_cell() {
        // 4×4 cells of side 26 over 0..=100: the diagonals cross at
        // (52, 52), exactly on the corner shared by cells (1,1), (1,2),
        // (2,1) and (2,2). Floor semantics give it to (2, 2).
        let mut g = SegmentGrid::new(die(), 4, 4);
        let s = Segment::new(Point::new(4, 4), Point::new(100, 100));
        let t = Segment::new(Point::new(4, 100), Point::new(100, 4));
        g.insert(0, s);
        g.insert(1, t);
        let owners: Vec<usize> = (0..16).filter(|&c| g.owns_crossing(c, &s, &t)).collect();
        assert_eq!(owners, [2 * 4 + 2]);
    }

    #[test]
    fn owns_crossing_falls_back_to_true_on_overflow() {
        let big = i64::MAX / 2;
        let extent = BoundingBox::new(Point::new(-big, -big), Point::new(big, big));
        let g = SegmentGrid::new(extent, 4, 4);
        let s = Segment::new(Point::new(-big, -big), Point::new(big, big));
        let t = Segment::new(Point::new(-big, big), Point::new(big, -big));
        assert!((0..16).all(|c| g.owns_crossing(c, &s, &t)));
    }

    proptest! {
        #[test]
        fn segment_grid_crossing_pairs_share_a_cell(
            ax in 0i64..200, ay in 0i64..200, bx in 0i64..200, by in 0i64..200,
            cx in 0i64..200, cy in 0i64..200, dx in 0i64..200, dy in 0i64..200,
            cols in 1usize..12, rows in 1usize..12,
        ) {
            let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
            let extent = BoundingBox::from_points(
                [s1.a, s1.b, s2.a, s2.b].into_iter(),
            ).unwrap();
            let mut g = SegmentGrid::new(extent, cols, rows);
            g.insert(0, s1);
            g.insert(1, s2);
            if s1.crosses(&s2) {
                let shared = g.nonempty_cells().into_iter().any(|c| {
                    let items = g.cell_items(c);
                    items.contains(&0) && items.contains(&1)
                });
                prop_assert!(shared, "crossing segments must share a cell");
            }
        }

        #[test]
        fn segment_grid_endpoint_cells_are_covered(
            ax in 0i64..101, ay in 0i64..101,
            bx in 0i64..101, by in 0i64..101,
            cols in 1usize..9, rows in 1usize..9,
        ) {
            let seg = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let mut g = SegmentGrid::new(die(), cols, rows);
            g.insert(3, seg);
            for p in [seg.a, seg.b] {
                let cell = g.row_of(p.y) * cols + g.col_of(p.x);
                prop_assert!(
                    g.cell_items(cell).contains(&3),
                    "endpoint {p:?} cell {cell} not covered"
                );
            }
        }
    }

    proptest! {
        // Most random pairs do not cross and are skipped, so this runs
        // enough cases to test a few hundred crossings.
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The once-per-crossing rule: over random properly crossing
        /// pairs (lattice and rational crossing points alike) and random
        /// grid dims, exactly one cell holding both segments owns the
        /// crossing.
        #[test]
        fn exactly_one_shared_cell_owns_each_crossing(
            ax in 0i64..200, ay in 0i64..200, bx in 0i64..200, by in 0i64..200,
            cx in 0i64..200, cy in 0i64..200, dx in 0i64..200, dy in 0i64..200,
            cols in 1usize..24, rows in 1usize..24,
        ) {
            let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
            let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
            prop_assume!(s1.crosses(&s2));
            let extent = BoundingBox::from_points(
                [s1.a, s1.b, s2.a, s2.b].into_iter(),
            ).unwrap();
            let mut g = SegmentGrid::new(extent, cols, rows);
            g.insert(0, s1);
            g.insert(1, s2);
            let owners = g
                .nonempty_cells()
                .into_iter()
                .filter(|&c| g.cell_items(c) == [0, 1] && g.owns_crossing(c, &s1, &s2))
                .count();
            prop_assert_eq!(owners, 1, "one shared cell must own the crossing");
            // Ownership belongs to the point, not to the argument order,
            // and no cell outside the shared ones claims it.
            let swapped = (0..cols * rows)
                .filter(|&c| g.owns_crossing(c, &s2, &s1))
                .count();
            prop_assert_eq!(swapped, 1);
        }
    }

    /// Asserts that the die-scale (unchecked) and the checked ownership
    /// tests agree on every cell for a properly crossing pair the gate
    /// sends down the die-scale path.
    fn assert_paths_agree(g: &SegmentGrid, s: &Segment, t: &Segment) -> Result<(), TestCaseError> {
        prop_assert!(g.die_scale, "grid {:?} must qualify", g.extent);
        prop_assert!([s.a, s.b, t.a, t.b].into_iter().all(at_die_scale));
        let mut owners = 0;
        for c in 0..g.cols * g.rows {
            let fast = g.owns_crossing_exact::<false>(c, s, t);
            prop_assert_eq!(fast, g.owns_crossing_exact::<true>(c, s, t), "cell {}", c);
            prop_assert!(fast.is_some(), "no overflow at die scale");
            owners += usize::from(g.owns_crossing(c, s, t));
        }
        prop_assert_eq!(owners, 1, "one cell owns the crossing");
        Ok(())
    }

    /// Strictly inside ±2^30: the die-scale gate's limit.
    const NEAR: i64 = DIE_SCALE - 1;

    #[test]
    fn die_scale_gate_rejects_far_grids_and_endpoints() {
        let wide = BoundingBox::new(Point::new(-NEAR, -NEAR), Point::new(NEAR, NEAR));
        assert!(SegmentGrid::new(wide, 24, 24).die_scale);
        let far = BoundingBox::new(Point::new(-DIE_SCALE, 0), Point::new(0, 10));
        assert!(!SegmentGrid::new(far, 4, 4).die_scale);
        let long = BoundingBox::new(Point::new(0, 0), Point::new(5 * DIE_SCALE, 10));
        assert!(!SegmentGrid::new(long, 4, 4).die_scale);
        // A die-scale grid with an endpoint past 2^30 takes the checked
        // path and still answers exactly.
        let g = SegmentGrid::new(die(), 4, 4);
        let s = Segment::new(Point::new(0, 0), Point::new(DIE_SCALE, DIE_SCALE));
        let t = Segment::new(Point::new(0, 100), Point::new(100, 0));
        let owners: Vec<usize> = (0..16).filter(|&c| g.owns_crossing(c, &s, &t)).collect();
        assert_eq!(owners, [4 + 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random crossing pairs in a 400-dbu window placed anywhere in
        /// ±2^30 — up against either limit, and with negative extents.
        #[test]
        fn die_scale_ownership_equals_checked_near_the_limits(
            origin in prop_oneof![
                Just((-NEAR, -NEAR)),
                Just((NEAR - 400, NEAR - 400)),
                Just((-NEAR, NEAR - 400)),
                (-NEAR..NEAR - 400, -NEAR..NEAR - 400),
            ],
            pts in proptest::collection::vec((0i64..=400, 0i64..=400), 4),
            cols in 1usize..24, rows in 1usize..24,
        ) {
            let p = |i: usize| Point::new(origin.0 + pts[i].0, origin.1 + pts[i].1);
            let (s, t) = (Segment::new(p(0), p(1)), Segment::new(p(2), p(3)));
            prop_assume!(s.crosses(&t));
            let extent = BoundingBox::from_points([s.a, s.b, t.a, t.b].into_iter()).unwrap();
            assert_paths_agree(&SegmentGrid::new(extent, cols, rows), &s, &t)?;
        }

        /// Random crossing pairs with endpoints anywhere in ±2^30, so
        /// every product in the test reaches its largest magnitudes.
        #[test]
        fn die_scale_ownership_equals_checked_on_die_spanning_pairs(
            pts in proptest::collection::vec((-NEAR..=NEAR, -NEAR..=NEAR), 4),
            cols in 1usize..24, rows in 1usize..24,
        ) {
            let p = |i: usize| Point::new(pts[i].0, pts[i].1);
            let (s, t) = (Segment::new(p(0), p(1)), Segment::new(p(2), p(3)));
            prop_assume!(s.crosses(&t));
            let extent = BoundingBox::from_points([s.a, s.b, t.a, t.b].into_iter()).unwrap();
            assert_paths_agree(&SegmentGrid::new(extent, cols, rows), &s, &t)?;
        }

        /// Crossings exactly on a cell edge or corner: an X centered on
        /// the boundary point, over a grid whose origin may be negative
        /// or near ±2^30.
        #[test]
        fn die_scale_ownership_equals_checked_on_cell_edges_and_corners(
            origin in prop_oneof![
                Just(-NEAR + 8),
                Just(NEAR - 1008),
                -NEAR + 8..NEAR - 1008,
            ],
            cols in 1usize..12, rows in 1usize..12,
            (i, j) in (0usize..12, 0usize..12),
            (half, on_x, on_y) in (1i64..5, any::<bool>(), any::<bool>()),
        ) {
            let extent = BoundingBox::new(
                Point::new(origin, origin),
                Point::new(origin + 1000, origin + 1000),
            );
            let g = SegmentGrid::new(extent, cols, rows);
            // A point on a column edge and/or a row edge (a corner when
            // both), or a cell center when neither.
            let x = origin + (i % cols) as i64 * g.cell_w + if on_x { 0 } else { g.cell_w / 2 };
            let y = origin + (j % rows) as i64 * g.cell_h + if on_y { 0 } else { g.cell_h / 2 };
            let s = Segment::new(Point::new(x - half, y - half), Point::new(x + half, y + half));
            let t = Segment::new(Point::new(x - half, y + half), Point::new(x + half, y - half));
            prop_assert!(s.crosses(&t));
            assert_paths_agree(&g, &s, &t)?;
        }
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_deposits(
            deposits in proptest::collection::vec(
                ((0i64..100, 0i64..100), 0.0f64..10.0), 0..30)
        ) {
            let mut g = Grid::new(die(), 7, 7);
            let mut expected = 0.0;
            for ((x, y), amt) in deposits {
                g.deposit(Point::new(x, y), amt);
                expected += amt;
            }
            prop_assert!((g.total() - expected).abs() < 1e-9);
        }

        #[test]
        fn cell_of_in_bounds(x in -500i64..500, y in -500i64..500) {
            let g = Grid::new(die(), 9, 11);
            let c = g.cell_of(Point::new(x, y));
            prop_assert!(c.col < 9 && c.row < 11);
        }
    }
}
