//! Tile-sharded hierarchical crossing build and tile scheduling.
//!
//! Die-scale designs (100k+ bits) make the monolithic flow's working set
//! the bottleneck: one global segment grid, one global hit buffer, one
//! global pricing sweep. This module shards the die on a **fixed
//! deterministic tile grid** and runs the crossing discovery per tile,
//! concurrently, then stitches the per-tile results back together with
//! an ordered merge that is **bit-identical to the unsharded build by
//! construction** — no tolerance, no re-canonicalization.
//!
//! # Why the merge is exact
//!
//! [`TileGrid::tile_of_bbox`] classifies every net by the bounding box of
//! its optical candidates using a monotone clamped cell function. The
//! preimage of each tile under that function is a half-open interval of
//! the real axis (extended to ±∞ at the die edges), so the real regions
//! of distinct tiles are **disjoint**. A net interior to tile `t` has its
//! whole convex hull inside region `t`; two nets interior to *different*
//! tiles therefore cannot share any crossing point — even a non-integer
//! one. The hit universe decomposes exactly:
//!
//! * interior(t) × interior(t) — discovered only by tile `t`'s pass;
//! * interior(t) × boundary — the crossing point lies in region `t`,
//!   so the boundary net's bbox overlaps region `t` and the net is in
//!   tile `t`'s involved set; no other tile retains the hit (the retain
//!   filter keeps hits with at least one net interior to the pass's own
//!   tile, and interior sets are disjoint);
//! * boundary × boundary — covered by the dedicated boundary pass.
//!
//! The per-pass hit lists are therefore key-disjoint and jointly
//! complete. Each pass runs the same packed-hit discovery as the
//! monolithic build ([`crate::crossing`]'s `subset_hits`) and sorts and
//! deduplicates its list; a k-way merge of the lists appends the records
//! to the same arena the monolithic build fills, in the same key order,
//! so the result equals [`CrossingIndex::build_with`] byte for byte —
//! pinned by proptests across tile dims and thread counts.
//!
//! # Memory
//!
//! A hit names its candidates by global id and packs into 16 bytes, so
//! a resident tile cache holds 16 bytes per segment crossing. A one-shot
//! build frees its tile lists before the neighbor arena goes up
//! (`ShardCache::into_index`), but so does the monolithic build with
//! its hit buffer, so the sharded peak only matches the unsharded one.
//!
//! # Scheduling
//!
//! [`ShardPartition::schedule`] linearizes the nets tile by tile with
//! the boundary nets last. A tiled [`crate::session::WarmSession`] runs
//! LR pricing in that order and scatters results back to global net
//! positions — same pure per-net functions, same outputs, better
//! locality — and the boundary chunk prices last, against the merged
//! crossing index (the reconciliation pass).

use crate::codesign::NetCandidates;
use crate::crossing::{
    assemble_sorted_runs, net_bboxes, subset_hits, BuildInfo, CandIds, ChosenBuild, Hit,
};
use crate::CrossingIndex;
use operon_exec::Executor;
use operon_geom::{BoundingBox, Point};

/// A fixed `cols × rows` tiling of the die.
///
/// The cell function is monotone and clamped: coordinates left of the
/// die map to column 0, right of it to the last column (same for rows),
/// so every point of the plane belongs to exactly one tile and the tile
/// regions partition the plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    lo: Point,
    /// Die extent + 1 per axis (the number of integer coordinates), ≥ 1.
    span_x: i64,
    span_y: i64,
    cols: usize,
    rows: usize,
}

impl TileGrid {
    /// Creates a grid over `die` with the given tile dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn new(die: BoundingBox, cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "tile dims must be at least 1x1");
        Self {
            lo: die.lo(),
            span_x: die.hi().x - die.lo().x + 1,
            span_y: die.hi().y - die.lo().y + 1,
            cols,
            rows,
        }
    }

    /// Tile columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total tile count.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The clamped monotone cell index along one axis:
    /// `floor((v − lo) · n / span)`, clamped into `[0, n)`.
    #[inline]
    fn cell_axis(v: i64, lo: i64, span: i64, n: usize) -> usize {
        let off = (v - lo).clamp(0, span - 1) as i128;
        ((off * n as i128) / span as i128) as usize
    }

    /// The tile containing `p` (clamped at the die edges).
    #[inline]
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        (
            Self::cell_axis(p.x, self.lo.x, self.span_x, self.cols),
            Self::cell_axis(p.y, self.lo.y, self.span_y, self.rows),
        )
    }

    /// The tile a bbox is interior to: `Some(tile)` iff both corners land
    /// in the same tile, which bounds the whole real hull of the box
    /// inside that tile's region.
    #[inline]
    pub fn tile_of_bbox(&self, bb: &BoundingBox) -> Option<usize> {
        let (cx0, cy0) = self.cell_of(bb.lo());
        let (cx1, cy1) = self.cell_of(bb.hi());
        (cx0 == cx1 && cy0 == cy1).then_some(cy0 * self.cols + cx0)
    }

    /// The closed integer interval of axis coordinates whose cell is
    /// `c`, extended to ±∞ (i64::MIN/MAX) at the edges so clamped
    /// out-of-die coordinates stay inside their edge tile's region.
    #[inline]
    fn region_axis(c: usize, lo: i64, span: i64, n: usize) -> (i64, i64) {
        let start = if c == 0 {
            i64::MIN
        } else {
            // ceil(c · span / n): first offset whose cell is `c`.
            lo + ((c as i128 * span as i128 + n as i128 - 1) / n as i128) as i64
        };
        let end = if c + 1 == n {
            i64::MAX
        } else {
            lo + (((c + 1) as i128 * span as i128 + n as i128 - 1) / n as i128) as i64 - 1
        };
        (start, end)
    }

    /// The integer bounding box of tile `t`'s region. A bbox overlaps
    /// this box iff its real hull intersects the tile's real region, so
    /// it is the exact prefilter for the per-tile involved sets.
    pub fn region(&self, t: usize) -> BoundingBox {
        let (cx, cy) = (t % self.cols, t / self.cols);
        let (x0, x1) = Self::region_axis(cx, self.lo.x, self.span_x, self.cols);
        let (y0, y1) = Self::region_axis(cy, self.lo.y, self.span_y, self.rows);
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
    }
}

/// Where a net landed in the tile partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileClass {
    /// Bbox interior to one tile.
    Interior(u32),
    /// Bbox straddles a tile edge — handled by the boundary pass.
    Boundary,
    /// No optical bbox: the net cannot cross anything.
    Excluded,
}

/// The interior/boundary classification of a candidate set on a grid.
#[derive(Clone, Debug)]
pub struct ShardPartition {
    /// Per-net classification, indexed by dense net id.
    pub tile_of: Vec<TileClass>,
    /// Ascending net ids interior to each tile.
    pub interior: Vec<Vec<u32>>,
    /// Ascending net ids whose bbox straddles a tile edge.
    pub boundary: Vec<u32>,
    /// Ascending net ids with no optical geometry.
    pub excluded: Vec<u32>,
}

impl ShardPartition {
    /// Partitions nets by bbox. `bboxes[i]` is net `i`'s union optical
    /// candidate bbox (`None` = no optical geometry).
    pub fn new(bboxes: &[Option<BoundingBox>], grid: &TileGrid) -> Self {
        let mut tile_of = Vec::with_capacity(bboxes.len());
        let mut interior = vec![Vec::new(); grid.tile_count()];
        let mut boundary = Vec::new();
        let mut excluded = Vec::new();
        for (i, bb) in bboxes.iter().enumerate() {
            let class = match bb {
                None => {
                    excluded.push(i as u32);
                    TileClass::Excluded
                }
                Some(bb) => match grid.tile_of_bbox(bb) {
                    Some(t) => {
                        interior[t].push(i as u32);
                        TileClass::Interior(t as u32)
                    }
                    None => {
                        boundary.push(i as u32);
                        TileClass::Boundary
                    }
                },
            };
            tile_of.push(class);
        }
        Self {
            tile_of,
            interior,
            boundary,
            excluded,
        }
    }

    /// All net ids in tile order: interior nets tile by tile, then the
    /// boundary nets, then the excluded nets. A permutation of
    /// `0..net_count` — the iteration order of the flow's per-net
    /// parallel stages under sharding.
    pub fn schedule(&self) -> Vec<u32> {
        let n = self.tile_of.len();
        let mut order = Vec::with_capacity(n);
        for tile in &self.interior {
            order.extend_from_slice(tile);
        }
        order.extend_from_slice(&self.boundary);
        order.extend_from_slice(&self.excluded);
        debug_assert_eq!(order.len(), n);
        order
    }
}

/// One unit of sharded crossing discovery.
enum Pass {
    /// Hits involving at least one net interior to this tile.
    Tile(usize),
    /// Hits among the boundary nets.
    Boundary,
}

/// Ascending involved net ids of tile `t`: its interior nets plus every
/// boundary net whose bbox overlaps the tile's region (the exact
/// prefilter — any interior × boundary crossing point lies inside the
/// region, so the boundary net's bbox must overlap it).
pub(crate) fn tile_involved(
    grid: &TileGrid,
    part: &ShardPartition,
    bboxes: &[Option<BoundingBox>],
    t: usize,
) -> Vec<u32> {
    let region = grid.region(t);
    let mut ids: Vec<u32> = part.interior[t].clone();
    for &b in &part.boundary {
        if bboxes[b as usize].is_some_and(|bb| bb.overlaps(&region)) {
            ids.push(b);
        }
    }
    ids.sort_unstable();
    ids
}

/// Tile `t`'s sorted deduplicated hit list: discovery over the involved
/// set, retained to hits with at least one interior-`t` net (boundary ×
/// boundary pairs the local discovery also saw belong to the boundary
/// pass). Internally sequential — the pass level fans out instead.
fn tile_pass(
    nets: &[NetCandidates],
    ids: &CandIds,
    part: &ShardPartition,
    involved_ids: &[u32],
    t: usize,
) -> Vec<Hit> {
    let mut involved = vec![false; nets.len()];
    for &i in involved_ids {
        involved[i as usize] = true;
    }
    let mut hits = subset_hits(nets, ids, &involved, &Executor::sequential());
    let t = t as u32;
    hits.retain(|&hit| {
        let (a, b) = ids.hit_nets(hit);
        part.tile_of[a] == TileClass::Interior(t) || part.tile_of[b] == TileClass::Interior(t)
    });
    hits.sort_unstable();
    hits.dedup();
    // The list stays resident until assembly; the boundary × boundary
    // hits the retain dropped must not stay resident with it.
    hits.shrink_to_fit();
    hits
}

/// The boundary pass: sorted deduplicated hits among the boundary nets.
fn boundary_pass(nets: &[NetCandidates], ids: &CandIds, part: &ShardPartition) -> Vec<Hit> {
    let mut involved = vec![false; nets.len()];
    for &b in &part.boundary {
        involved[b as usize] = true;
    }
    let mut hits = subset_hits(nets, ids, &involved, &Executor::sequential());
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// The resident state of a sharded crossing build: the partition, each
/// tile's involved set, and each pass's discovered hit list. A
/// [`crate::session::WarmSession`] keeps one across ECOs so only dirty
/// tiles re-run discovery ([`refresh_cache`]); [`assemble`]
/// (ShardCache::assemble) folds the lists into the canonical index.
#[derive(Clone, Debug)]
pub(crate) struct ShardCache {
    pub(crate) grid: TileGrid,
    pub(crate) part: ShardPartition,
    /// The global candidate ids the hit lists name candidates by.
    ids: CandIds,
    /// Ascending involved net ids per tile (empty when the tile has no
    /// interior net — such a tile can retain no hit).
    pub(crate) involved: Vec<Vec<u32>>,
    /// Sorted deduplicated retained hits per tile.
    pub(crate) tile_hits: Vec<Vec<Hit>>,
    /// Sorted deduplicated hits among the boundary nets.
    pub(crate) boundary_hits: Vec<Hit>,
}

impl ShardCache {
    /// Passes that actually discovered hits this build.
    pub(crate) fn pass_count(&self) -> usize {
        self.involved.iter().filter(|ids| !ids.is_empty()).count()
            + usize::from(!self.part.boundary.is_empty())
    }

    fn build_info(&self) -> BuildInfo {
        BuildInfo {
            strategy: ChosenBuild::Sharded,
            parallel: self.pass_count() > 1,
        }
    }

    /// The per-pass hit lists in tile order, boundary last — sorted,
    /// deduplicated, and key-disjoint (the module docs' decomposition).
    fn runs(&self) -> Vec<&[Hit]> {
        self.tile_hits
            .iter()
            .map(Vec::as_slice)
            .chain(std::iter::once(self.boundary_hits.as_slice()))
            .collect()
    }

    /// Merges the per-pass hit lists and assembles the index through the
    /// canonical record funnel — equivalent to a global concat + sort +
    /// dedup + assembly, without materializing the merged hit buffer.
    /// Keeps the cache resident (the warm-session path).
    pub(crate) fn assemble(&self, nets: &[NetCandidates]) -> CrossingIndex {
        let records = assemble_sorted_runs(nets, &self.ids, &self.runs());
        CrossingIndex::from_records(records, self.ids.base().to_vec(), self.build_info())
    }

    /// [`assemble`](Self::assemble) for one-shot builds: consumes the
    /// cache so every per-tile hit list is freed before the neighbor
    /// arena goes up. The monolithic build frees its hit buffer at the
    /// same point, so both one-shot peaks are records + hits, then
    /// records + neighbor arena.
    pub(crate) fn into_index(self, nets: &[NetCandidates]) -> CrossingIndex {
        let info = self.build_info();
        let records = assemble_sorted_runs(nets, &self.ids, &self.runs());
        let ShardCache {
            ids,
            tile_hits,
            boundary_hits,
            ..
        } = self;
        drop((tile_hits, boundary_hits));
        CrossingIndex::from_records(records, ids.into_base(), info)
    }
}

/// Runs every discovery pass on `exec` and returns the resident cache.
pub(crate) fn build_cache(nets: &[NetCandidates], grid: TileGrid, exec: &Executor) -> ShardCache {
    let bboxes = net_bboxes(nets);
    let part = ShardPartition::new(&bboxes, &grid);
    let involved: Vec<Vec<u32>> = (0..grid.tile_count())
        .map(|t| {
            if part.interior[t].is_empty() {
                Vec::new()
            } else {
                tile_involved(&grid, &part, &bboxes, t)
            }
        })
        .collect();
    let mut cache = ShardCache {
        grid,
        part,
        ids: CandIds::new(nets),
        involved,
        tile_hits: vec![Vec::new(); grid.tile_count()],
        boundary_hits: Vec::new(),
    };
    let dirty_tiles: Vec<usize> = (0..grid.tile_count())
        .filter(|&t| !cache.involved[t].is_empty())
        .collect();
    run_passes(nets, &mut cache, &dirty_tiles, true, exec);
    cache
}

/// Re-shards after an ECO that kept every reused net's dense index:
/// tiles whose involved set is unchanged and touches no changed net
/// keep their cached hit list; only dirty tiles (and the boundary pass,
/// when a boundary net changed) re-run discovery. Returns the new cache
/// plus `(tiles_reused, tiles_resharded)`.
///
/// The result is identical to [`build_cache`] on the new candidate set:
/// a pass's hit list is a pure function of its involved nets' candidate
/// geometry, and an unchanged involved set over unchanged nets pins
/// exactly that input. Only the global candidate ids can move (a changed
/// net with a new candidate count shifts every later net's ids), so a
/// reused list is restated in the new ids when they differ.
pub(crate) fn refresh_cache(
    prev: &ShardCache,
    nets: &[NetCandidates],
    changed: &[usize],
    exec: &Executor,
) -> (ShardCache, u64, u64) {
    let grid = prev.grid;
    let bboxes = net_bboxes(nets);
    let part = ShardPartition::new(&bboxes, &grid);
    let ids = CandIds::new(nets);
    let reuse = |hits: &[Hit]| {
        if prev.ids == ids {
            hits.to_vec()
        } else {
            prev.ids.remap(&ids, hits)
        }
    };
    let mut is_changed = vec![false; nets.len()];
    for &i in changed {
        if i < nets.len() {
            is_changed[i] = true;
        }
    }
    let involved: Vec<Vec<u32>> = (0..grid.tile_count())
        .map(|t| {
            if part.interior[t].is_empty() {
                Vec::new()
            } else {
                tile_involved(&grid, &part, &bboxes, t)
            }
        })
        .collect();

    let mut reused = 0u64;
    let mut dirty_tiles: Vec<usize> = Vec::new();
    let mut tile_hits: Vec<Vec<Hit>> = vec![Vec::new(); grid.tile_count()];
    for t in 0..grid.tile_count() {
        if involved[t].is_empty() {
            continue;
        }
        let clean = prev.involved.get(t).map(Vec::as_slice) == Some(involved[t].as_slice())
            && !involved[t].iter().any(|&i| is_changed[i as usize]);
        if clean {
            tile_hits[t] = reuse(&prev.tile_hits[t]);
            reused += 1;
        } else {
            dirty_tiles.push(t);
        }
    }
    let boundary_clean = prev.part.boundary == part.boundary
        && !part.boundary.iter().any(|&b| is_changed[b as usize]);
    let resharded = dirty_tiles.len() as u64 + u64::from(!boundary_clean);

    let boundary_hits = if boundary_clean {
        reuse(&prev.boundary_hits)
    } else {
        Vec::new()
    };
    let mut cache = ShardCache {
        grid,
        part,
        ids,
        involved,
        tile_hits,
        boundary_hits,
    };
    run_passes(nets, &mut cache, &dirty_tiles, !boundary_clean, exec);
    (cache, reused, resharded)
}

/// Runs the listed tile passes (plus the boundary pass when requested)
/// concurrently on `exec` and scatters the lists into the cache.
fn run_passes(
    nets: &[NetCandidates],
    cache: &mut ShardCache,
    dirty_tiles: &[usize],
    run_boundary: bool,
    exec: &Executor,
) {
    let mut passes: Vec<Pass> = dirty_tiles.iter().map(|&t| Pass::Tile(t)).collect();
    if run_boundary && !cache.part.boundary.is_empty() {
        passes.push(Pass::Boundary);
    }
    // Pass outputs are pure functions of the candidate set, so the
    // merged cache is thread-invariant.
    let outs: Vec<(Option<usize>, Vec<Hit>)> = exec.par_map_coarse(&passes, |pass| match *pass {
        Pass::Tile(t) => (
            Some(t),
            tile_pass(nets, &cache.ids, &cache.part, &cache.involved[t], t),
        ),
        Pass::Boundary => (None, boundary_pass(nets, &cache.ids, &cache.part)),
    });
    for (slot, hits) in outs {
        match slot {
            Some(t) => cache.tile_hits[t] = hits,
            None => cache.boundary_hits = hits,
        }
    }
}

/// Builds the crossing index tile by tile and merges in tile order.
/// Byte-identical to [`CrossingIndex::build_with`] on the same candidate
/// set (see the module docs for the argument); the per-tile passes run
/// concurrently on `exec`.
pub fn build_sharded(nets: &[NetCandidates], grid: &TileGrid, exec: &Executor) -> CrossingIndex {
    build_cache(nets, *grid, exec).into_index(nets)
}

/// Maps `f` over `items` in an explicit iteration `order`, scattering
/// results back to their global positions. With `order == None` this is
/// exactly [`Executor::par_map_indexed`]; with a schedule it computes
/// the same pure per-item results in tile-locality order — bit-identical
/// output either way.
pub(crate) fn ordered_map_indexed<T, R>(
    exec: &Executor,
    items: &[T],
    order: Option<&[u32]>,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let Some(ord) = order else {
        return exec.par_map_indexed(items, f);
    };
    debug_assert_eq!(ord.len(), items.len());
    let permuted = exec.par_map(ord, |&i| f(i as usize, &items[i as usize]));
    // Scatter back to global positions. The schedule is a permutation,
    // so sorting by original index restores exactly the plain-map order.
    let mut pairs: Vec<(u32, R)> = ord.iter().copied().zip(permuted).collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, EdgeMedium};
    use operon_optics::{ElectricalParams, OpticalLib};
    use operon_steiner::{NodeKind, RouteTree};

    fn optical_net(net_index: usize, a: Point, b: Point) -> NetCandidates {
        let mut tree = RouteTree::new(a);
        tree.add_child(tree.root(), b, NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical],
            1,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        NetCandidates {
            net_index,
            bits: 1,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    fn die(n: i64) -> BoundingBox {
        BoundingBox::new(Point::new(0, 0), Point::new(n, n))
    }

    #[test]
    fn tile_regions_partition_the_axis() {
        // Every coordinate belongs to exactly one tile, regions abut
        // without gaps, and cell_of agrees with region membership.
        let grid = TileGrid::new(die(999), 4, 3);
        for x in [-50i64, 0, 1, 249, 250, 500, 998, 999, 2000] {
            let (cx, _) = grid.cell_of(Point::new(x, 0));
            assert!(cx < 4);
            let region = grid.region(cx); // row 0 tile of that column
            assert!(region.lo().x <= x && x <= region.hi().x, "x={x} cx={cx}");
        }
        // Adjacent column regions abut exactly.
        for cx in 0..3usize {
            let a = grid.region(cx);
            let b = grid.region(cx + 1);
            assert_eq!(a.hi().x + 1, b.lo().x, "columns {cx},{}", cx + 1);
        }
        // Edge tiles extend to infinity (clamped points stay inside).
        assert_eq!(grid.region(0).lo().x, i64::MIN);
        assert_eq!(grid.region(3).hi().x, i64::MAX);
    }

    #[test]
    fn interior_bboxes_of_distinct_tiles_are_disjoint() {
        let grid = TileGrid::new(die(1000), 2, 2);
        let a = BoundingBox::new(Point::new(10, 10), Point::new(100, 100));
        let b = BoundingBox::new(Point::new(600, 600), Point::new(900, 900));
        let ta = grid.tile_of_bbox(&a).expect("interior");
        let tb = grid.tile_of_bbox(&b).expect("interior");
        assert_ne!(ta, tb);
        assert!(!a.overlaps(&b));
        // A straddling box is boundary.
        let c = BoundingBox::new(Point::new(100, 100), Point::new(900, 120));
        assert_eq!(grid.tile_of_bbox(&c), None);
    }

    #[test]
    fn partition_schedule_is_a_permutation() {
        let grid = TileGrid::new(die(1000), 2, 2);
        let nets = vec![
            optical_net(0, Point::new(10, 10), Point::new(100, 100)),
            optical_net(1, Point::new(600, 600), Point::new(900, 900)),
            optical_net(2, Point::new(100, 100), Point::new(900, 120)),
        ];
        let bboxes = net_bboxes(&nets);
        let part = ShardPartition::new(&bboxes, &grid);
        assert_eq!(part.boundary, vec![2]);
        let mut order = part.schedule();
        assert_eq!(order.len(), nets.len());
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_build_matches_monolithic_on_crossing_bundle() {
        // Die-spanning diagonals (all boundary) plus tile-local crosses:
        // exercises interior × interior, interior × boundary, and
        // boundary × boundary hits in one fixture.
        let mut nets: Vec<NetCandidates> = (0..8)
            .map(|k| {
                let y0 = (k as i64) * 120;
                optical_net(k, Point::new(0, y0), Point::new(1000, 1000 - y0))
            })
            .collect();
        nets.push(optical_net(8, Point::new(10, 10), Point::new(200, 240)));
        nets.push(optical_net(9, Point::new(10, 240), Point::new(200, 10)));
        let reference = CrossingIndex::build(&nets);
        assert!(!reference.is_empty());
        for (cols, rows) in [(1, 1), (2, 2), (4, 4), (3, 1)] {
            let grid = TileGrid::new(die(1000), cols, rows);
            for threads in [1, 2, 8] {
                let sharded = build_sharded(&nets, &grid, &Executor::new(threads));
                assert_eq!(sharded, reference, "{cols}x{rows} tiles, threads={threads}");
                assert_eq!(sharded.build_info().strategy, ChosenBuild::Sharded);
            }
        }
    }

    #[test]
    fn refresh_restates_reused_tiles_when_candidate_ids_shift() {
        // Net 0 (tile 0) gains a candidate, which shifts the global
        // candidate ids of nets 1 and 2; their tile (3) stays clean, so
        // its cached hits must be restated in the new ids.
        let mut nets = vec![
            optical_net(0, Point::new(10, 10), Point::new(200, 200)),
            optical_net(1, Point::new(600, 600), Point::new(900, 900)),
            optical_net(2, Point::new(600, 900), Point::new(900, 600)),
            optical_net(3, Point::new(10, 200), Point::new(200, 10)),
        ];
        let grid = TileGrid::new(die(1000), 2, 2);
        let exec = Executor::sequential();
        let prev = build_cache(&nets, grid, &exec);
        assert_eq!(prev.assemble(&nets), CrossingIndex::build(&nets));
        let extra = optical_net(0, Point::new(10, 100), Point::new(300, 120));
        nets[0].candidates.extend(extra.candidates);
        let (cache, reused, resharded) = refresh_cache(&prev, &nets, &[0], &exec);
        assert_eq!((reused, resharded), (1, 1));
        assert_ne!(cache.ids, prev.ids);
        let refreshed = cache.assemble(&nets);
        let full = CrossingIndex::build(&nets);
        assert_eq!(refreshed.len(), 3);
        assert_eq!(refreshed, full);
        assert_eq!(cache.into_index(&nets), full);
    }

    #[test]
    fn ordered_map_scatter_matches_plain_map() {
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..100).collect();
        let order: Vec<u32> = (0..100u32).rev().collect();
        let plain = exec.par_map_indexed(&items, |i, &x| x * 3 + i as u64);
        let ordered = ordered_map_indexed(&exec, &items, Some(&order), |i, &x| x * 3 + i as u64);
        assert_eq!(plain, ordered);
    }
}
