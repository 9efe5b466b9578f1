//! Waveguide-crossing accounting between candidate pairs.
//!
//! Crossing loss (`β · n_x` of Eq. (2)) couples hyper nets: how much loss
//! a path suffers depends on which candidates *other* nets select. The
//! [`CrossingIndex`] precomputes, for every pair of optical candidates
//! that geometrically cross, the number of proper segment crossings
//! attributed to each detector path of both candidates. The ILP turns
//! each such pair into a linearized product variable; the LR algorithm
//! reads the same index when pricing candidates against the previous
//! iterate (Eq. (5)).
//!
//! # Builders
//!
//! One spatial kernel builds the index; an all-pairs oracle checks it:
//!
//! * **Grid** ([`CrossingIndex::build_with`]) — buckets every distinct
//!   segment of each net into a uniform [`SegmentGrid`] and tests only
//!   pairs that co-occupy a cell. The co-design DP builds all of a net's
//!   candidates on one baseline tree, so they repeat each other's
//!   segments bit for bit; a net's repeats share one grid entry, which
//!   lists the `(candidate, segment)` pairs that own it, and each
//!   crossing the grid finds is expanded into its owners' cross product
//!   (see `DistinctSegs`). A cell reports a crossing only if it owns the
//!   exact crossing point ([`SegmentGrid::owns_crossing`]), so each
//!   crossing is found once however many cells the two segments share.
//!   Below a deterministic work threshold the per-cell tests and the
//!   funnel run inline instead of on the executor, because the
//!   fan-out/merge overhead exceeds the work at small sizes.
//! * **Brute force** ([`CrossingIndex::build_reference`]) — all candidate
//!   pairs behind net- and candidate-level bounding-box prefilters (the
//!   paper's "non-overlapped bounding boxes" variable reduction).
//!   Retained as the equivalence oracle for tests and benchmarks.
//!
//! The spatial builds pass their crossings through one funnel (see
//! `funnel`). Its input is the expanded pairs, one per crossing of two
//! `(candidate, segment)` entries, exactly what a grid over every
//! candidate's copy would report, so deduplicating segments changes no
//! record. A counting sort buckets the 8-byte hits (see `Hit`) by
//! candidate A, and contiguous candidate ranges then sort, deduplicate
//! and assemble their buckets on the executor's workers, each into its
//! own window of the arenas. Every build fills the same arenas in
//! ascending pair order, so the index is a pure function of the candidate
//! set — independent of builder, cell count, range count, iteration
//! order, and thread count.
//!
//! # Arena layout
//!
//! No record owns a heap allocation: the index is a handful of flat
//! vectors, so building, cloning and dropping it touch a few large
//! buffers, and no tree map sits on any hot path. Candidates get dense
//! global ids in `(net, cand)` order — net `n`'s candidates are ids
//! `cand_base[n]..cand_base[n + 1]`, the numbering of the LR multiplier
//! arena — and `net_of` maps an id back to its net, so id order is
//! `(net, cand)` order.
//!
//! * **Records.** Pairs are rows by side-A candidate (the one on the
//!   lower net): row `g` is records `row_off[g]..row_off[g + 1]`, and
//!   `partner[i]` is record `i`'s side-B id, ascending within the row.
//!   `pair()` is a binary search within one row. `shape[i]` holds the
//!   record's counts in 4 bytes: its total and a code per side naming a
//!   slice of the static `INLINE_SIDES` table, which lists every side of
//!   at most two entries with path indexes below `INLINE_PATHS` and
//!   counts up to `INLINE_COUNT`. A record that does not fit (wider
//!   sides, larger counts or totals) sets the word's `WIDE` bit and
//!   indexes the wide arenas instead, laid out like a plain count arena.
//!   Either way [`PairCross`] borrows its per-path slices.
//! * **Neighbor lists.** Candidate `g`'s list is
//!   `adj[adj_off[g]..adj_off[g + 1]]`, an O(1) slice. An 8-byte
//!   [`Neighbor`] names the other candidate by global id and the record
//!   by index, with the list owner's side in the handle's top bit. The
//!   lists are filled by a counting sort in record order, so each one is
//!   ascending by record, which is ascending by the other candidate's
//!   `(net, cand)`.
//!
//! A pair thus costs 8 bytes of record and 16 of neighbor entries, plus
//! 12 bytes per candidate (`row_off`, `adj_off`, `net_of`) and the rare
//! wide record. Builds write records straight from the sorted hits: the
//! grid build through the funnel, [`CrossingIndex::rebuild_delta`] by
//! merging its retained rows, restated in the new candidate ids, with the
//! funnel's recounted records. The neighbor arena is derived last, after
//! the hit buffer is freed. Record handles are positions in pair order,
//! re-derived by every build.

use crate::codesign::{CandidateRoute, NetCandidates, PathLoss};
use operon_exec::Executor;
use operon_geom::{BoundingBox, Point, Segment, SegmentGrid};
use std::sync::{Mutex, PoisonError};

/// Crossing counts between one ordered pair of candidates: a borrowed
/// view of one record of a [`CrossingIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCross<'a> {
    /// `(path index in candidate A, crossings on that path)`, ascending.
    pub per_path_a: &'a PathCounts,
    /// `(path index in candidate B, crossings on that path)`, ascending.
    pub per_path_b: &'a PathCounts,
    /// Total segment crossings between the two candidates.
    pub total: usize,
}

/// Key: `(net_a, cand_a, net_b, cand_b)` with `net_a < net_b`.
pub(crate) type PairKey = (usize, usize, usize, usize);

/// One side's `(path index, crossings)` counts of a crossing record.
pub type PathCounts = [(u32, u32)];

/// Top bit of a [`Neighbor`]'s record handle: the list owner is side A.
const OWNER_IS_A: u32 = 1 << 31;

/// One entry of a candidate's neighbor list: a candidate of another net
/// that it crosses, plus a direct handle to the shared crossing record so
/// hot pricing loops read per-path counts without any search per query.
/// [`CrossingIndex::neighbor_key`] names the other candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// Global id of the other candidate.
    id: u32,
    /// Record index, with [`OWNER_IS_A`] set when the list owner is
    /// side A of the record.
    handle: u32,
}

impl Neighbor {
    /// Global id of the other candidate: net `n`'s candidates are
    /// numbered consecutively in `(net, cand)` order, as in the LR
    /// multiplier arena.
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.id as usize
    }

    #[inline]
    fn record(&self) -> usize {
        (self.handle & !OWNER_IS_A) as usize
    }
}

/// Path indexes an inline side may name: `0..INLINE_PATHS`.
const INLINE_PATHS: u32 = 4;
/// Crossing counts an inline side entry may hold: `1..=INLINE_COUNT`.
const INLINE_COUNT: u32 = 8;
/// Inline sides of one entry: codes `1..=SINGLES`.
const SINGLES: u32 = INLINE_PATHS * INLINE_COUNT;
/// Inline sides of two entries: the next `DOUBLES` codes.
const DOUBLES: u32 = INLINE_PATHS * (INLINE_PATHS - 1) / 2 * INLINE_COUNT * INLINE_COUNT;
/// Bits of one side's code in a shape word (code 0 is the empty side).
const SIDE_BITS: u32 = 10;
const SIDE_MASK: u32 = (1 << SIDE_BITS) - 1;
/// Top bit of a shape word: the record lives in the wide arenas, and the
/// rest of the word is its index there. Otherwise the word is `total <<
/// 2·SIDE_BITS | side A code << SIDE_BITS | side B code`.
const WIDE: u32 = 1 << 31;
/// The largest total an inline shape word holds.
const INLINE_TOTAL_MAX: u32 = (WIDE >> (2 * SIDE_BITS)) - 1;
const _: () = assert!(1 + SINGLES + DOUBLES <= 1 << SIDE_BITS);

/// Every inline side's entries, back to back: the one-entry sides in
/// `(path, count)` order, then the two-entry sides in `(path, path',
/// count, count')` order. `inline_side` maps a code to its slice.
static INLINE_SIDES: [(u32, u32); (SINGLES + 2 * DOUBLES) as usize] = inline_sides();

const fn inline_sides() -> [(u32, u32); (SINGLES + 2 * DOUBLES) as usize] {
    let mut t = [(0, 0); (SINGLES + 2 * DOUBLES) as usize];
    let mut k = 0;
    let mut p = 0;
    while p < INLINE_PATHS {
        let mut c = 1;
        while c <= INLINE_COUNT {
            t[k] = (p, c);
            k += 1;
            c += 1;
        }
        p += 1;
    }
    let mut p = 0;
    while p < INLINE_PATHS {
        let mut q = p + 1;
        while q < INLINE_PATHS {
            let mut c = 1;
            while c <= INLINE_COUNT {
                let mut d = 1;
                while d <= INLINE_COUNT {
                    t[k] = (p, c);
                    t[k + 1] = (q, d);
                    k += 2;
                    d += 1;
                }
                c += 1;
            }
            q += 1;
        }
        p += 1;
    }
    t
}

/// The code of a side listed in [`INLINE_SIDES`] (0 for the empty side),
/// or `None` when the side does not fit.
fn side_code(side: &PathCounts) -> Option<u32> {
    let fits = |p: u32, c: u32| p < INLINE_PATHS && (1..=INLINE_COUNT).contains(&c);
    match *side {
        [] => Some(0),
        [(p, c)] if fits(p, c) => Some(1 + p * INLINE_COUNT + c - 1),
        [(p, c), (q, d)] if p < q && fits(p, c) && fits(q, d) => {
            // Rank of `(p, q)` among the path pairs, in table order.
            let rank = p * (2 * INLINE_PATHS - p - 1) / 2 + (q - p - 1);
            Some(1 + SINGLES + (rank * INLINE_COUNT + c - 1) * INLINE_COUNT + d - 1)
        }
        _ => None,
    }
}

/// The side an inline code names.
#[inline]
fn inline_side(code: u32) -> &'static PathCounts {
    let code = code as usize;
    let singles = SINGLES as usize;
    if code <= singles {
        &INLINE_SIDES[code.saturating_sub(1)..code]
    } else {
        let at = singles + 2 * (code - 1 - singles);
        &INLINE_SIDES[at..at + 2]
    }
}

/// A record's inline shape word, or `None` when it must go wide.
fn inline_word(per_a: &PathCounts, per_b: &PathCounts, total: usize) -> Option<u32> {
    let total = u32::try_from(total)
        .ok()
        .filter(|&t| t <= INLINE_TOTAL_MAX)?;
    Some(total << (2 * SIDE_BITS) | side_code(per_a)? << SIDE_BITS | side_code(per_b)?)
}

/// Grid pair tests (between distinct segments) below which the build
/// runs inline.
///
/// A test between distinct segments also expands its crossing into the
/// owners' cross product, so it carries more work than a test between
/// two `(candidate, segment)` copies would. Interleaved runs over prefixes of the Table 1 I2
/// candidate set on 2 vCPUs, parallel against inline: 2 workers win
/// from ~11k tests (11.3k in 1.33 vs 1.77 ms, 13 of 15 runs), and
/// oversubscribed executors (8 workers) from ~29k (28.6k in 3.55 vs 4.16
/// ms, 14 of 15; 47k in 3.9 vs 4.5 ms, 15 of 15), so the bar sits above
/// both. `dense_core` and `paper_i2` in `BENCH_crossing.json` run above
/// it, the `--smoke` I2 prefix (179k tests) included. The count — Σ per
/// cell of the pairs with a queried side — is a pure function of the
/// candidate set and grid dims, so the chosen path is deterministic;
/// either path yields the identical index because the funnel sorts
/// within each candidate's bucket.
const GRID_PARALLEL_MIN_PAIR_TESTS: u64 = 50_000;

/// Cell runs (and funnel ranges) per worker on the parallel path:
/// enough for work stealing to even out dense and sparse runs, few
/// enough that each run's pair buffer is large.
const GRID_TASKS_PER_WORKER: usize = 4;

/// Tasks a grid pass (its pair tests, or its funnel ranges) splits into:
/// a few per worker when it runs parallel on more than one worker, else
/// one, since a single worker gains nothing from the split.
fn grid_tasks(parallel: bool, exec: &Executor) -> usize {
    if parallel && exec.threads() > 1 {
        GRID_TASKS_PER_WORKER * exec.threads()
    } else {
        1
    }
}

/// One distinct optical segment of a net: the unit the grid tests.
struct SegRef {
    net: u32,
    s: Segment,
}

/// The distinct optical segments of the nets a build recounts, each with
/// the `(candidate, segment)` entries that route it.
///
/// The co-design DP builds every candidate of a net on one baseline tree,
/// so a net's candidates repeat each other's segments bit for bit. Each
/// net's non-degenerate segments (a degenerate one never properly crosses
/// anything) are grouped on their exact `(a, b)` key, by sorting, and
/// each group becomes one entry listing its owners in ascending
/// `(candidate, segment)` order. A reversed copy is a different key; the
/// DP never emits one. Entries run in `(net, first owner)` order, so the
/// set is a pure function of the candidates.
#[derive(Default)]
struct DistinctSegs {
    segs: Vec<SegRef>,
    /// Entry `d`'s owners are `owners[own_off[d]..own_off[d + 1]]`.
    own_off: Vec<u32>,
    /// `(global candidate id, segment index)` per owner.
    owners: Vec<(u32, u32)>,
}

impl DistinctSegs {
    /// Appends the distinct segments of the nets `keep` accepts, net by
    /// net in index order.
    fn push_nets(&mut self, nets: &[NetCandidates], ids: &CandIds, keep: impl Fn(usize) -> bool) {
        if self.own_off.is_empty() {
            self.own_off.push(0);
        }
        // One net's entries as `(a, b, candidate, segment)`, and its
        // groups as `(start, end)` windows of them.
        let mut entries: Vec<(Point, Point, u32, u32)> = Vec::new();
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (i, nc) in nets.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            entries.clear();
            for (j, c) in nc.candidates.iter().enumerate() {
                let g = ids.base[i] + j as u32;
                for (k, s) in c.optical_segments.iter().enumerate() {
                    if !s.is_degenerate() {
                        entries.push((s.a, s.b, g, k as u32));
                    }
                }
            }
            // Equal keys end up adjacent, each group in owner order.
            entries.sort_unstable();
            groups.clear();
            let mut start = 0;
            for run in entries.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
                groups.push((start, start + run.len()));
                start += run.len();
            }
            groups.sort_unstable_by_key(|&(start, _)| (entries[start].2, entries[start].3));
            for &(start, end) in &groups {
                let (a, b, _, _) = entries[start];
                self.segs.push(SegRef {
                    net: i as u32,
                    s: Segment::new(a, b),
                });
                self.owners
                    .extend(entries[start..end].iter().map(|&(_, _, g, k)| (g, k)));
                self.own_off.push(self.owners.len() as u32);
            }
        }
    }

    /// Number of distinct segments.
    fn len(&self) -> usize {
        self.segs.len()
    }

    /// The owner ids (indexes into `owners`) of entry `d`.
    #[inline]
    fn owner_ids(&self, d: u32) -> std::ops::Range<u32> {
        self.own_off[d as usize]..self.own_off[d as usize + 1]
    }
}

/// What the grid pass of a build worked on: a pure function of the
/// candidate set and the grid dims, so the same at every thread count.
/// All zero for the reference build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridWork {
    /// Non-degenerate optical `(candidate, segment)` entries of the nets
    /// the build recounted (for a delta, the changed nets).
    pub segments: u64,
    /// Distinct segments per net among them: the entries the grid
    /// queried.
    pub distinct_segments: u64,
    /// Segment pair tests the grid ran.
    pub pair_tests: u64,
    /// Crossings the grid reported between distinct segments, before
    /// they were expanded into their owners' `(candidate, segment)`
    /// pairs.
    pub distinct_hits: u64,
}

/// All pairwise crossing counts over a candidate set.
///
/// Flat arenas throughout (see the module docs): per side-A candidate, a
/// row of side-B ids with one 4-byte shape word per record, a wide arena
/// for the records whose counts do not fit the word, and a CSR neighbor
/// arena of 8-byte entries indexed by global candidate id. Iteration
/// order is `(net_a, cand_a, net_b, cand_b)` order, so runs are
/// bit-reproducible without any tree map.
#[derive(Clone, Debug, Default)]
pub struct CrossingIndex {
    /// Global candidate ids of the nets the index was built from.
    ids: CandIds,
    /// Row offsets into `partner` and `shape`, one row per side-A
    /// candidate id.
    row_off: Vec<u32>,
    /// Per record, the side-B candidate id.
    partner: Vec<u32>,
    /// Per record, the inline shape word or the [`WIDE`] arena index.
    shape: Vec<u32>,
    /// The records whose counts do not fit a shape word.
    wide: WideRecords,
    /// CSR offsets into `adj`, one row per global candidate id.
    adj_off: Vec<u32>,
    /// Neighbor arena: candidate `g`'s list is
    /// `adj[adj_off[g]..adj_off[g + 1]]`.
    adj: Vec<Neighbor>,
    /// Whether the last build's pair tests and funnel took the parallel
    /// path (excluded from equality).
    parallel: bool,
    /// What the last build's grid pass worked on (excluded from
    /// equality).
    work: GridWork,
}

impl PartialEq for CrossingIndex {
    fn eq(&self, other: &Self) -> bool {
        // The arenas are laid out canonically, the neighbor arena is a
        // pure function of the records, and `parallel` is provenance, not
        // content: two indexes are equal iff their pair maps are.
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl CrossingIndex {
    /// Builds the index over every candidate pair from different hyper
    /// nets whose optical segments properly cross, on the grid, with the
    /// pair tests spread over `exec`'s workers when the estimated work
    /// clears the parallel threshold. Identical output for every thread
    /// count.
    pub fn build_with(nets: &[NetCandidates], exec: &Executor) -> Self {
        Self::build_grid(nets, exec, None, None)
    }

    /// Whether the build that produced this index ran its pair tests and
    /// funnel on the parallel path: spread over the executor's workers,
    /// or one task on a one-worker executor. `false` for delta patches,
    /// the reference build, and grid builds under the parallel work
    /// threshold.
    #[inline]
    pub fn built_parallel(&self) -> bool {
        self.parallel
    }

    /// What the grid pass of the build that produced this index worked
    /// on: for a delta, the changed nets' segments and the pair tests
    /// with a changed side.
    #[inline]
    pub fn grid_work(&self) -> GridWork {
        self.work
    }

    /// Grid build (auto-sized cells unless `dims` is given; the explicit
    /// dims are the escape hatch the equivalence proptests use). The
    /// funnel splits its work into `ranges` candidate ranges when given,
    /// else into as many as the pair tests ran in.
    fn build_grid(
        nets: &[NetCandidates],
        exec: &Executor,
        dims: Option<(usize, usize)>,
        ranges: Option<usize>,
    ) -> Self {
        let ids = CandIds::new(nets);
        let mut segs = DistinctSegs::default();
        segs.push_nets(nets, &ids, |_| true);
        let (pairs, parallel, work) = grid_pairs(&segs, segs.len(), dims, exec);
        let ranges = ranges.unwrap_or(grid_tasks(parallel, exec));
        let records = funnel(nets, &ids, segs.owners, pairs, ranges, exec);
        Self::from_records(records, ids, parallel, work)
    }

    #[cfg(test)]
    fn build_with_grid_dims(
        nets: &[NetCandidates],
        exec: &Executor,
        dims: Option<(usize, usize)>,
    ) -> Self {
        Self::build_grid(nets, exec, dims, None)
    }

    /// A grid build whose funnel runs `ranges` candidate ranges whatever
    /// the input size, so small fixtures exercise the multi-range path.
    #[cfg(test)]
    fn build_with_funnel_ranges(nets: &[NetCandidates], exec: &Executor, ranges: usize) -> Self {
        Self::build_grid(nets, exec, None, Some(ranges))
    }

    /// The pre-grid all-pairs build: scans every net pair with a
    /// bounding-box prefilter, then every candidate pair with overlapping
    /// optical boxes. Retained as the equivalence oracle — the grid build
    /// must produce a byte-identical index.
    pub fn build_reference(nets: &[NetCandidates]) -> Self {
        let ids = CandIds::new(nets);
        // Net-level prefilter: union bbox of all optical candidates.
        let net_bbox = net_bboxes(nets);

        let mut rows: Vec<(u32, u32, OwnedRecord)> = Vec::new();
        for (a, bb_a) in net_bbox.iter().enumerate() {
            let Some(bb_a) = bb_a else { continue };
            for b in a + 1..nets.len() {
                let Some(bb_b) = net_bbox[b] else { continue };
                if !bb_a.overlaps(&bb_b) {
                    continue;
                }
                for (ai, ca) in nets[a].candidates.iter().enumerate() {
                    let Some(cbb_a) = ca.optical_bbox else {
                        continue;
                    };
                    for (bi, cb) in nets[b].candidates.iter().enumerate() {
                        let Some(cbb_b) = cb.optical_bbox else {
                            continue;
                        };
                        if !cbb_a.overlaps(&cbb_b) {
                            continue;
                        }
                        if let Some(record) = count_pair(ca, cb) {
                            let ga = ids.base[a] + ai as u32;
                            let gb = ids.base[b] + bi as u32;
                            rows.push((ga, gb, record));
                        }
                    }
                }
            }
        }

        rows.sort_unstable_by_key(|row| (row.0, row.1));
        let mut records = Records::new(ids.len(), rows.len());
        for (ga, gb, (per_a, per_b, total)) in &rows {
            records.push(*ga, *gb, per_a, per_b, *total);
        }
        Self::from_records(records.finish(), ids, false, GridWork::default())
    }

    /// Rebuilds the index after the candidates of `changed` nets were
    /// replaced, reusing every record that involves no changed net.
    /// Equivalent to a full [`build_with`](Self::build_with) of the new
    /// candidate set, at the cost of the changed rows only. A net whose
    /// candidate count differs from the indexed one, or that the index
    /// does not know, counts as changed whether listed or not.
    ///
    /// Implementation: the dirty neighborhood — changed nets plus every
    /// net whose bounding box overlaps a changed net's — is binned on one
    /// grid sized for the changed nets' distinct segments, which come
    /// first. The involved nets' distinct segments follow, deduplicated
    /// by the same code as a full build's. Only the changed entries are
    /// queried, each against the entries after it in its cells, so every
    /// pair the pass tests has a changed side and a pair of two changed
    /// segments is tested once; each crossing leaves as its owners' cross
    /// product, as in a full build.
    /// Every retained row involves no changed net, so the two pair sets
    /// are disjoint and one linear merge appends both in pair order;
    /// retained rows are restated in the new candidate ids, which move
    /// whenever an earlier net's candidate count changed.
    pub fn rebuild_delta(&self, nets: &[NetCandidates], changed: &[usize]) -> Self {
        let ids = CandIds::new(nets);
        let mut is_changed: Vec<bool> = (0..nets.len())
            .map(|i| self.ids.count(i) != Some(nets[i].candidates.len()))
            .collect();
        for &i in changed {
            if i < nets.len() {
                is_changed[i] = true;
            }
        }

        // Dirty neighborhood: changed nets and bbox-overlapping others.
        // A pair crossing a changed net must overlap its bbox, so the
        // local grid pass sees every pair that needs recounting.
        let net_bbox = net_bboxes(nets);
        let changed_boxes: Vec<BoundingBox> = (0..nets.len())
            .filter(|&i| is_changed[i])
            .filter_map(|i| net_bbox[i])
            .collect();
        let mut involved = vec![false; nets.len()];
        for (i, bb) in net_bbox.iter().enumerate() {
            let Some(bb) = bb else { continue };
            if is_changed[i] || changed_boxes.iter().any(|cb| cb.overlaps(bb)) {
                involved[i] = true;
            }
        }
        let mut segs = DistinctSegs::default();
        segs.push_nets(nets, &ids, |i| is_changed[i]);
        let queries = segs.len();
        segs.push_nets(nets, &ids, |i| involved[i] && !is_changed[i]);
        let exec = Executor::sequential();
        let (pairs, _, work) = grid_pairs(&segs, queries, None, &exec);
        debug_assert!(pairs.iter().flatten().all(|&(a, b)| {
            let net = |o: u32| ids.net_of[segs.owners[o as usize].0 as usize] as usize;
            is_changed[net(a)] || is_changed[net(b)]
        }));
        let recount = funnel(nets, &ids, segs.owners, pairs, 1, &exec);

        // Retained rows (both nets unchanged, so each keeps its candidate
        // indexes) merged with the recounted records in pair order. All
        // ids of an unchanged net move by one offset, `shift[n]`
        // (wrapping; `None` for a changed net), so a row's partners on a
        // stretch of consecutive nets with equal shifts — up to
        // `stretch_end[n]`, an old id — are copied as one run, shifted,
        // and a stretch of changed nets is dropped. Without a change of
        // candidate count every unchanged stretch has shift 0. A retained
        // row's recounted partners are all on changed nets, so they fall
        // between the runs.
        let shift: Vec<Option<u32>> = (0..self.ids.base.len().saturating_sub(1))
            .map(|n| {
                (is_changed.get(n) == Some(&false))
                    .then(|| ids.base[n].wrapping_sub(self.ids.base[n]))
            })
            .collect();
        let mut stretch_end = vec![0u32; shift.len()];
        for n in (0..shift.len()).rev() {
            stretch_end[n] = match shift.get(n + 1) {
                Some(next) if *next == shift[n] => stretch_end[n + 1],
                _ => self.ids.base[n + 1],
            };
        }
        let shift_of = |net: u32| shift.get(net as usize).copied().flatten();
        let mut records = Records::new(ids.len(), self.len() + recount.partner.len());
        for ga in 0..ids.len() as u32 {
            let fresh =
                recount.row_off[ga as usize] as usize..recount.row_off[ga as usize + 1] as usize;
            let mut fresh_at = fresh.start;
            if let Some(s) = shift_of(ids.net_of[ga as usize]) {
                let row = self.row(ga.wrapping_sub(s));
                let mut i = row.start;
                while i < row.end {
                    let nb = self.ids.net_of[self.partner[i] as usize];
                    let stop = stretch_end[nb as usize];
                    let end = i + self.partner[i..row.end].partition_point(|&g| g < stop);
                    if let Some(sb) = shift_of(nb) {
                        let first = self.partner[i].wrapping_add(sb);
                        let cut = fresh_at
                            + recount.partner[fresh_at..fresh.end].partition_point(|&g| g < first);
                        let (p, w) = (
                            &recount.partner[fresh_at..cut],
                            &recount.shape[fresh_at..cut],
                        );
                        records.copy_run(ga, p, w, &recount.wide, 0);
                        let (p, w) = (&self.partner[i..end], &self.shape[i..end]);
                        records.copy_run(ga, p, w, &self.wide, sb);
                        fresh_at = cut;
                    }
                    i = end;
                }
            }
            let (p, w) = (
                &recount.partner[fresh_at..fresh.end],
                &recount.shape[fresh_at..fresh.end],
            );
            records.copy_run(ga, p, w, &recount.wide, 0);
        }
        Self::from_records(records.finish(), ids, false, work)
    }

    /// Completes an index from its finished record arenas: derives the
    /// neighbor CSR. `ids` numbers the candidates the records were built
    /// from; `parallel` and `work` describe the build.
    fn from_records(records: Records, ids: CandIds, parallel: bool, work: GridWork) -> Self {
        let Records {
            mut row_off,
            mut partner,
            mut shape,
            mut wide,
        } = records;
        // Capacities may be estimates; the index keeps exactly what it
        // holds.
        row_off.shrink_to_fit();
        partner.shrink_to_fit();
        shape.shrink_to_fit();
        wide.shrink_to_fit();
        let n_cands = ids.len();
        debug_assert_eq!(row_off.len(), n_cands + 1);
        debug_assert!(
            partner.len() <= OWNER_IS_A as usize,
            "record handles overflow 31 bits"
        );

        // Neighbor CSR by counting sort: degrees, prefix sums, then one
        // pass in record order, so every list is ascending by record.
        let mut adj_off = vec![0u32; n_cands + 1];
        for (ga, gb, _) in record_ids(&row_off, &partner) {
            adj_off[ga as usize + 1] += 1;
            adj_off[gb as usize + 1] += 1;
        }
        for g in 0..n_cands {
            adj_off[g + 1] += adj_off[g];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![Neighbor { id: 0, handle: 0 }; 2 * partner.len()];
        for (ga, gb, i) in record_ids(&row_off, &partner) {
            let slot = &mut cursor[ga as usize];
            adj[*slot as usize] = Neighbor {
                id: gb,
                handle: i as u32 | OWNER_IS_A,
            };
            *slot += 1;
            let slot = &mut cursor[gb as usize];
            adj[*slot as usize] = Neighbor {
                id: ga,
                handle: i as u32,
            };
            *slot += 1;
        }

        Self {
            ids,
            row_off,
            partner,
            shape,
            wide,
            adj_off,
            adj,
            parallel,
            work,
        }
    }

    /// Record `i` as a view into the arenas.
    #[inline]
    fn view(&self, i: usize) -> PairCross<'_> {
        let word = self.shape[i];
        if word & WIDE != 0 {
            return self.wide.view((word & !WIDE) as usize);
        }
        PairCross {
            per_path_a: inline_side((word >> SIDE_BITS) & SIDE_MASK),
            per_path_b: inline_side(word & SIDE_MASK),
            total: (word >> (2 * SIDE_BITS)) as usize,
        }
    }

    /// The records of side-A candidate `g`.
    #[inline]
    fn row(&self, g: u32) -> std::ops::Range<usize> {
        self.row_off[g as usize] as usize..self.row_off[g as usize + 1] as usize
    }

    /// The crossing record of a candidate pair, if they cross. The nets
    /// may be given in either order.
    pub fn pair(
        &self,
        net_a: usize,
        cand_a: usize,
        net_b: usize,
        cand_b: usize,
    ) -> Option<PairCross<'_>> {
        let (a, b) = if net_a < net_b {
            ((net_a, cand_a), (net_b, cand_b))
        } else {
            ((net_b, cand_b), (net_a, cand_a))
        };
        let (ga, gb) = (self.ids.id(a.0, a.1)?, self.ids.id(b.0, b.1)?);
        let row = self.row(ga);
        let at = self.partner[row.clone()].binary_search(&gb).ok()?;
        Some(self.view(row.start + at))
    }

    /// The crossing record behind a neighbor-list entry — no search.
    #[inline]
    pub fn record(&self, nb: &Neighbor) -> PairCross<'_> {
        self.view(nb.record())
    }

    /// Per-path crossing counts of a neighbor-list entry, as
    /// `(owner's side, neighbor's side)` — the cached equivalent of a
    /// `pair()` lookup plus the `net < other` side selection.
    #[inline]
    pub fn per_path(&self, nb: &Neighbor) -> (&PathCounts, &PathCounts) {
        let pc = self.view(nb.record());
        if nb.handle & OWNER_IS_A != 0 {
            (pc.per_path_a, pc.per_path_b)
        } else {
            (pc.per_path_b, pc.per_path_a)
        }
    }

    /// The `(net, cand)` of a neighbor-list entry's candidate.
    #[inline]
    pub fn neighbor_key(&self, nb: &Neighbor) -> (usize, usize) {
        let (net, cand) = self.ids.split(nb.id);
        (net as usize, cand as usize)
    }

    /// Crossings landing on path `path` of `(net, cand)` caused by
    /// `(other_net, other_cand)` (0 when the pair does not cross).
    pub fn crossings_on_path(
        &self,
        net: usize,
        cand: usize,
        path: usize,
        other_net: usize,
        other_cand: usize,
    ) -> usize {
        let Some(pc) = self.pair(net, cand, other_net, other_cand) else {
            return 0;
        };
        let per_path = if net < other_net {
            pc.per_path_a
        } else {
            pc.per_path_b
        };
        per_path
            .iter()
            .find(|&&(p, _)| p as usize == path)
            .map_or(0, |&(_, n)| n as usize)
    }

    /// Iterates over all crossing pairs as
    /// `((net_a, cand_a, net_b, cand_b), record)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, PairCross<'_>)> {
        record_ids(&self.row_off, &self.partner).map(|(ga, gb, i)| {
            let ((na, ca), (nb, cb)) = (self.ids.split(ga), self.ids.split(gb));
            (
                (na as usize, ca as usize, nb as usize, cb as usize),
                self.view(i),
            )
        })
    }

    /// The candidates of other nets that cross `(net, cand)` — an O(1)
    /// slice of the neighbor arena, ascending by the other candidate's
    /// `(net, cand)` (which is record order), so at most one entry names
    /// any one candidate and each net's entries are contiguous.
    pub fn neighbors(&self, net: usize, cand: usize) -> &[Neighbor] {
        let Some(g) = self.ids.id(net, cand) else {
            return &[];
        };
        let g = g as usize;
        &self.adj[self.adj_off[g] as usize..self.adj_off[g + 1] as usize]
    }

    /// Number of crossing candidate pairs.
    pub fn len(&self) -> usize {
        self.partner.len()
    }

    /// Whether no candidate pair crosses.
    pub fn is_empty(&self) -> bool {
        self.partner.is_empty()
    }

    /// Proper segment crossings summed over all pairs: the number of
    /// distinct hits the spatial builds found.
    pub fn segment_crossings(&self) -> u64 {
        (0..self.len()).map(|i| self.view(i).total as u64).sum()
    }

    /// Heap bytes the index holds: the capacity of every arena, the
    /// candidate ids, row and neighbor offsets and wide arenas included.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.heap_bytes()
            + (self.row_off.capacity()
                + self.partner.capacity()
                + self.shape.capacity()
                + self.adj_off.capacity())
                * size_of::<u32>()
            + self.wide.heap_bytes()
            + self.adj.capacity() * size_of::<Neighbor>()
    }
}

/// `(side A id, side B id, record index)` of every record, in order.
fn record_ids<'a>(
    row_off: &'a [u32],
    partner: &'a [u32],
) -> impl Iterator<Item = (u32, u32, usize)> + 'a {
    row_off.windows(2).enumerate().flat_map(move |(g, w)| {
        (w[0] as usize..w[1] as usize).map(move |i| (g as u32, partner[i], i))
    })
}

/// The records whose counts do not fit a shape word, laid out like a
/// plain count arena: with `(a_end, b_end) = ends[i]` and `start` the
/// previous record's `b_end`, side A is `counts[start..a_end]` and side B
/// `counts[a_end..b_end]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct WideRecords {
    counts: Vec<(u32, u32)>,
    ends: Vec<(u32, u32)>,
    totals: Vec<u32>,
}

impl WideRecords {
    /// Appends a record and returns its shape word.
    fn push(&mut self, per_a: &PathCounts, per_b: &PathCounts, total: usize) -> u32 {
        let i = self.totals.len() as u32;
        debug_assert!(i < WIDE, "wide record indexes overflow 31 bits");
        self.counts.extend_from_slice(per_a);
        let a_end = self.counts.len() as u32;
        self.counts.extend_from_slice(per_b);
        self.ends.push((a_end, self.counts.len() as u32));
        self.totals.push(total as u32);
        WIDE | i
    }

    /// Wide record `i`: its side-A counts start where record `i − 1`'s
    /// side B ended.
    #[inline]
    fn view(&self, i: usize) -> PairCross<'_> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p].1 as usize);
        let (a_end, b_end) = (self.ends[i].0 as usize, self.ends[i].1 as usize);
        PairCross {
            per_path_a: &self.counts[start..a_end],
            per_path_b: &self.counts[a_end..b_end],
            total: self.totals[i] as usize,
        }
    }

    fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.totals.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.counts.capacity() + self.ends.capacity()) * size_of::<(u32, u32)>()
            + self.totals.capacity() * size_of::<u32>()
    }
}

/// Record arenas under construction, appended in ascending pair order —
/// the assembly target of the reference build and the delta merge (the
/// funnel writes the same arenas through its range windows). Until
/// [`finish`](Self::finish), `row_off[g + 1]` counts row `g`'s records;
/// after it, `row_off` holds the row offsets.
struct Records {
    row_off: Vec<u32>,
    partner: Vec<u32>,
    shape: Vec<u32>,
    wide: WideRecords,
}

impl Records {
    /// Rows for `n_cands` candidates, with room for `pairs` records.
    fn new(n_cands: usize, pairs: usize) -> Self {
        Self {
            row_off: vec![0; n_cands + 1],
            partner: Vec::with_capacity(pairs),
            shape: Vec::with_capacity(pairs),
            wide: WideRecords::default(),
        }
    }

    /// Appends the record of `(ga, gb)` with shape word `word`.
    #[inline]
    fn push_word(&mut self, ga: u32, gb: u32, word: u32) {
        debug_assert!(ga < gb, "side A must be the lower id");
        self.row_off[ga as usize + 1] += 1;
        self.partner.push(gb);
        self.shape.push(word);
    }

    /// Appends a whole record.
    fn push(&mut self, ga: u32, gb: u32, per_a: &PathCounts, per_b: &PathCounts, total: usize) {
        let word =
            inline_word(per_a, per_b, total).unwrap_or_else(|| self.wide.push(per_a, per_b, total));
        self.push_word(ga, gb, word);
    }

    /// Appends a run of another arena's records to row `ga`: side-B ids
    /// `partner`, each moved by `shift` (wrapping), with shape words
    /// `shape` over wide records `wide`. Without wide records the run is
    /// two bulk copies.
    fn copy_run(
        &mut self,
        ga: u32,
        partner: &[u32],
        shape: &[u32],
        wide: &WideRecords,
        shift: u32,
    ) {
        debug_assert!(partner.iter().all(|&gb| ga < gb.wrapping_add(shift)));
        self.row_off[ga as usize + 1] += partner.len() as u32;
        if shift == 0 {
            self.partner.extend_from_slice(partner);
        } else {
            self.partner
                .extend(partner.iter().map(|&gb| gb.wrapping_add(shift)));
        }
        if wide.totals.is_empty() {
            self.shape.extend_from_slice(shape);
            return;
        }
        for &word in shape {
            let word = if word & WIDE == 0 {
                word
            } else {
                let pc = wide.view((word & !WIDE) as usize);
                self.wide.push(pc.per_path_a, pc.per_path_b, pc.total)
            };
            self.shape.push(word);
        }
    }

    /// Turns the row counts into offsets.
    fn finish(mut self) -> Self {
        for g in 1..self.row_off.len() {
            self.row_off[g] += self.row_off[g - 1];
        }
        self
    }
}

/// Dense global candidate ids in `(net, cand)` order: net `n`'s
/// candidates are ids `base[n]..base[n + 1]`, and `net_of` maps an id
/// back to its net. Two ids compare like their `(net, cand)` pairs.
#[derive(Clone, Debug, Default)]
struct CandIds {
    base: Vec<u32>,
    net_of: Vec<u32>,
}

impl CandIds {
    fn new(nets: &[NetCandidates]) -> Self {
        let mut base = Vec::with_capacity(nets.len() + 1);
        base.push(0u32);
        let total: usize = nets.iter().map(|nc| nc.candidates.len()).sum();
        let mut net_of = Vec::with_capacity(total);
        for (i, nc) in nets.iter().enumerate() {
            net_of.resize(net_of.len() + nc.candidates.len(), i as u32);
            base.push(net_of.len() as u32);
        }
        Self { base, net_of }
    }

    /// Number of candidates.
    #[inline]
    fn len(&self) -> usize {
        self.net_of.len()
    }

    /// Net `net`'s candidate count, if the net is known.
    fn count(&self, net: usize) -> Option<usize> {
        let next = *self.base.get(net.checked_add(1)?)?;
        Some((next - self.base[net]) as usize)
    }

    /// The global id of `(net, cand)`, if both are in range.
    #[inline]
    fn id(&self, net: usize, cand: usize) -> Option<u32> {
        (cand < self.count(net)?).then(|| self.base[net] + cand as u32)
    }

    /// The `(net, cand)` of global candidate id `id`.
    #[inline]
    fn split(&self, id: u32) -> (u32, u32) {
        let net = self.net_of[id as usize];
        (net, id - self.base[net as usize])
    }

    fn heap_bytes(&self) -> usize {
        (self.base.capacity() + self.net_of.capacity()) * std::mem::size_of::<u32>()
    }
}

/// A spatial-build crossing in packed form: the flat segment index (see
/// [`SegPaths`]) of side B in the high 32 bits, side A's in the low. Flat
/// indexes run in `(candidate, segment)` order, so within one side-A
/// bucket integer order is `(candidate B, segments)` order, and sorting
/// and deduplicating plain `u64`s groups each pair's hits into one run.
type Hit = u64;

/// Side B's flat segment index of a hit.
#[inline]
fn hit_b(hit: Hit) -> u32 {
    (hit >> 32) as u32
}

/// Side A's flat segment index of a hit.
#[inline]
fn hit_a(hit: Hit) -> u32 {
    hit as u32
}

/// Grid-bucketed crossing pairs over the distinct segments: the one
/// crossing kernel, shared by the full build and
/// [`CrossingIndex::rebuild_delta`]. Only the first `queries` entries
/// are queried: each is tested against every entry after it in its
/// cells, so a full build passes `segs.len()` and a delta the length of
/// its changed prefix. Each crossing of two entries leaves as the cross
/// product of their owners. Returns one buffer of `(side A, side B)`
/// owner ids per run of cells, side A on the lower net, whether the pair
/// tests ran on the executor's workers, and the pass's [`GridWork`].
///
/// Each crossing is reported once, by the cell that owns its crossing
/// point; only [`SegmentGrid::owns_crossing`]'s overflow fallback (far
/// beyond die-scale coordinates) can repeat a pair, so the funnel keeps
/// its dedup as the safety net.
fn grid_pairs(
    distinct: &DistinctSegs,
    queries: usize,
    dims: Option<(usize, usize)>,
    exec: &Executor,
) -> (Vec<Vec<(u32, u32)>>, bool, GridWork) {
    let segs = &distinct.segs;
    let mut work = GridWork {
        segments: distinct.own_off.get(queries).map_or(0, |&o| u64::from(o)),
        distinct_segments: queries as u64,
        ..GridWork::default()
    };
    if segs.len() < 2 || queries == 0 {
        return (Vec::new(), false, work);
    }
    let mut extent = BoundingBox::new(segs[0].s.a, segs[0].s.b);
    for sr in &segs[1..] {
        extent = extent.union(&BoundingBox::new(sr.s.a, sr.s.b));
    }
    let mut grid = match dims {
        Some((cols, rows)) => SegmentGrid::new(extent, cols, rows),
        None => SegmentGrid::sized(extent, queries),
    };
    for (id, sr) in segs.iter().enumerate() {
        grid.insert(id as u32, sr.s);
    }
    let cells: Vec<usize> = grid
        .nonempty_cells()
        .into_iter()
        .filter(|&c| grid.cell_items(c).len() >= 2)
        .collect();
    // A cell lists its ids in insertion order, ascending, so its queried
    // segments are a prefix of the list.
    let queried = |items: &[u32]| items.partition_point(|&id| (id as usize) < queries);

    // Every properly-crossing segment pair co-occupies the cell of its
    // crossing point (the grid's coverage invariant), and only that cell
    // reports it. A cell of `n` ids, `k` of them queried, tests
    // `Σ_{x<k} (n − 1 − x)` pairs: `n(n − 1)/2` when all are queried.
    work.pair_tests = cells
        .iter()
        .map(|&c| {
            let items = grid.cell_items(c);
            let (n, k) = (items.len() as u64, queried(items) as u64);
            k * n - k * (k + 1) / 2
        })
        .sum();
    // A crossing of two entries is a crossing of every owner of one with
    // every owner of the other: it leaves as their cross product, so the
    // funnel sees one pair per `(candidate, segment)` crossing. Returns
    // the cell's crossings between entries.
    let test_cell = |cell: usize, out: &mut Vec<(u32, u32)>| {
        let ids = grid.cell_items(cell);
        let mut crossings = 0;
        for (x, &ia) in ids[..queried(ids)].iter().enumerate() {
            let a = &segs[ia as usize];
            for &ib in &ids[x + 1..] {
                let b = &segs[ib as usize];
                if a.net != b.net && a.s.crosses(&b.s) && grid.owns_crossing(cell, &a.s, &b.s) {
                    crossings += 1;
                    let (da, db) = if a.net < b.net { (ia, ib) } else { (ib, ia) };
                    for oa in distinct.owner_ids(da) {
                        out.extend(distinct.owner_ids(db).map(|ob| (oa, ob)));
                    }
                }
            }
        }
        crossings
    };
    // Small builds run as one inline task: the executor's fan-out
    // overhead exceeds the pair-test work. Larger ones split the cells
    // into a few contiguous runs per worker, each with one pair buffer;
    // thousands of per-cell buffers left worker heaps holding ~20 MiB
    // more on I5. The funnel's per-candidate sort makes every split
    // byte-identical.
    let parallel = work.pair_tests >= GRID_PARALLEL_MIN_PAIR_TESTS;
    let tasks = grid_tasks(parallel, exec);
    // Each run's buffer is allocated here, on the calling thread, and a
    // worker grows it by `realloc`, which stays in the heap that owns the
    // block: no worker heap keeps pair memory after the build. (Any
    // nonzero capacity does; an empty `Vec` would first allocate in the
    // worker.)
    let runs: Vec<_> = cells
        .chunks(cells.len().div_ceil(tasks).max(1))
        .map(|run| (run, Mutex::new(Vec::with_capacity(1024))))
        .collect();
    let crossings = exec.par_map_coarse(&runs, |(run, out)| {
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        run.iter()
            .map(|&cell| test_cell(cell, &mut out))
            .sum::<u64>()
    });
    work.distinct_hits = crossings.iter().sum();
    let pairs = runs
        .into_iter()
        .map(|(_, out)| out.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    (pairs, parallel, work)
}

/// The crossing funnel: turns the grid's pair buffers into records in
/// pair order.
///
/// Its input is one `(side A, side B)` pair of owner ids per crossing,
/// each an index into `owners`, the `(candidate, segment)` entries of
/// the [`DistinctSegs`] the grid tested: [`grid_pairs`] has already
/// expanded each crossing of two distinct segments into their owners'
/// cross product, so the funnel sees exactly the pairs a grid over every
/// candidate's copy would have reported. A counting sort buckets the
/// hits by candidate A, scattering straight from the 8-byte pair buffers
/// (each freed once scattered) into one 8-byte hit buffer. The candidate
/// ids are then cut into `ranges` contiguous ranges of about equal hit
/// count, which run on the executor twice: once to sort and deduplicate
/// their buckets and size their rows and wide records, once to assemble
/// the records. Pair order is
/// (candidate A, candidate B), so the ranges' records, laid end to end,
/// are the canonical arenas for any range count and thread count.
///
/// Every buffer the ranges fill is allocated here, on the calling
/// thread, so no worker heap keeps output memory: the record arenas are
/// sized exactly from the first pass, and each range writes its own
/// window of them in the second.
fn funnel(
    nets: &[NetCandidates],
    ids: &CandIds,
    owners: Vec<(u32, u32)>,
    pairs: Vec<Vec<(u32, u32)>>,
    ranges: usize,
    exec: &Executor,
) -> Records {
    let n_cands = ids.len();
    // Bucket offsets by candidate A; candidate B only needs marking for
    // the path index.
    let mut off = vec![0u32; n_cands + 1];
    let mut used = vec![false; n_cands];
    for &(ia, ib) in pairs.iter().flatten() {
        off[owners[ia as usize].0 as usize + 1] += 1;
        used[owners[ib as usize].0 as usize] = true;
    }
    for c in 0..n_cands {
        used[c] |= off[c + 1] > 0;
        off[c + 1] += off[c];
    }
    let paths = SegPaths::new(nets, ids, &used);
    drop(used);
    let mut cursor = off.clone();
    let mut hits: Vec<Hit> = vec![0; off[n_cands] as usize];
    for buf in pairs {
        for (ia, ib) in buf {
            let ((ca, sa), (cb, sb)) = (owners[ia as usize], owners[ib as usize]);
            let slot = &mut cursor[ca as usize];
            hits[*slot as usize] =
                u64::from(paths.flat(cb, sb)) << 32 | u64::from(paths.flat(ca, sa));
            *slot += 1;
        }
    }
    drop((cursor, owners));

    // Candidate ranges of about equal hit count: range `r` starts at the
    // first candidate whose bucket starts at or past `r/ranges` of the
    // hits.
    let ranges = ranges.max(1);
    let total = hits.len();
    let mut starts: Vec<usize> = (0..ranges)
        .map(|r| off.partition_point(|&o| (o as usize) < r * total / ranges))
        .collect();
    starts.push(n_cands);
    starts.dedup();
    // Each range's mutex hands its windows (hits, and row lengths in
    // `row_off[start + 1..end + 1]`) to the one task that locks it; a
    // panicking task fails the whole map, so no caller ever sees a
    // poisoned one.
    let mut row_off = vec![0u32; n_cands + 1];
    let mut windows: Vec<(std::ops::Range<usize>, Mutex<RangeIn>)> = Vec::new();
    let (mut rest, mut rows) = (hits.as_mut_slice(), &mut row_off[1..]);
    for w in starts.windows(2) {
        let (head, tail) = rest.split_at_mut((off[w[1]] - off[w[0]]) as usize);
        let (row_head, row_tail) = rows.split_at_mut(w[1] - w[0]);
        windows.push((
            w[0]..w[1],
            Mutex::new(RangeIn {
                hits: head,
                rows: row_head,
            }),
        ));
        (rest, rows) = (tail, row_tail);
    }

    // Per range: sort each bucket, drop repeated hits (compacting the
    // range's window), count each row's records, and size the wide ones.
    let sized: Vec<RangeSize> = exec.par_map_coarse(&windows, |(cands, window)| {
        let mut window = window.lock().unwrap_or_else(PoisonError::into_inner);
        let RangeIn { hits: window, rows } = &mut *window;
        let base = off[cands.start] as usize;
        let mut hits = 0;
        for c in cands.clone() {
            let (lo, hi) = (off[c] as usize - base, off[c + 1] as usize - base);
            window[lo..hi].sort_unstable();
            let first = hits;
            for i in lo..hi {
                if hits == first || window[i] != window[hits - 1] {
                    window[hits] = window[i];
                    hits += 1;
                }
            }
            rows[c - cands.start] = window[first..hits]
                .chunk_by(|x, y| paths.owner[hit_b(*x) as usize] == paths.owner[hit_b(*y) as usize])
                .count() as u32;
        }
        let mut asm = Assembler::new(&paths);
        let (mut pairs, mut wide, mut wide_counts) = (0, 0, 0);
        for run in window[..hits].chunk_by(|x, y| paths.same_pair(*x, *y)) {
            pairs += 1;
            let (per_a, per_b) = asm.record(run);
            if inline_word(per_a, per_b, run.len()).is_none() {
                wide += 1;
                wide_counts += per_a.len() + per_b.len();
            }
        }
        debug_assert_eq!(pairs, rows.iter().sum::<u32>() as usize);
        RangeSize {
            hits,
            pairs,
            wide,
            wide_counts,
        }
    });

    // The record arenas, exact, cut into one window per range.
    let n_pairs: usize = sized.iter().map(|r| r.pairs).sum();
    let n_wide: usize = sized.iter().map(|r| r.wide).sum();
    let n_wide_counts: usize = sized.iter().map(|r| r.wide_counts).sum();
    let mut partner = vec![0u32; n_pairs];
    let mut shape = vec![0u32; n_pairs];
    let mut wide = WideRecords {
        counts: vec![(0, 0); n_wide_counts],
        ends: vec![(0, 0); n_wide],
        totals: vec![0; n_wide],
    };
    let mut outs = Vec::with_capacity(windows.len());
    let (mut p, mut s) = (&mut partner[..], &mut shape[..]);
    let (mut wc, mut we, mut wt) = (
        &mut wide.counts[..],
        &mut wide.ends[..],
        &mut wide.totals[..],
    );
    let (mut wide_base, mut count_base) = (0, 0);
    for ((_, window), size) in windows.into_iter().zip(&sized) {
        let window = window.into_inner().unwrap_or_else(PoisonError::into_inner);
        let (pr, pt) = p.split_at_mut(size.pairs);
        let (sr, st) = s.split_at_mut(size.pairs);
        let (wcr, wct) = wc.split_at_mut(size.wide_counts);
        let (wer, wet) = we.split_at_mut(size.wide);
        let (wtr, wtt) = wt.split_at_mut(size.wide);
        (p, s, wc, we, wt) = (pt, st, wct, wet, wtt);
        outs.push(Mutex::new(RangeOut {
            hits: &window.hits[..size.hits],
            partner: pr,
            shape: sr,
            wide_base,
            count_base,
            wide_counts: wcr,
            wide_ends: wer,
            wide_totals: wtr,
        }));
        wide_base += size.wide;
        count_base += size.wide_counts;
    }
    exec.par_map_coarse(&outs, |out| {
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        let RangeOut {
            hits,
            partner,
            shape,
            wide_base,
            count_base,
            wide_counts,
            wide_ends,
            wide_totals,
        } = &mut *out;
        let mut asm = Assembler::new(&paths);
        let (mut w, mut pos) = (0, 0);
        for (i, run) in hits.chunk_by(|x, y| paths.same_pair(*x, *y)).enumerate() {
            partner[i] = paths.owner[hit_b(run[0]) as usize];
            let (per_a, per_b) = asm.record(run);
            shape[i] = inline_word(per_a, per_b, run.len()).unwrap_or_else(|| {
                wide_counts[pos..pos + per_a.len()].copy_from_slice(per_a);
                pos += per_a.len();
                let a_end = *count_base + pos;
                wide_counts[pos..pos + per_b.len()].copy_from_slice(per_b);
                pos += per_b.len();
                wide_ends[w] = (a_end as u32, (*count_base + pos) as u32);
                wide_totals[w] = run.len() as u32;
                w += 1;
                WIDE | (*wide_base + w - 1) as u32
            });
        }
    });
    Records {
        row_off,
        partner,
        shape,
        wide,
    }
    .finish()
}

/// One funnel range's hit window and its window of row lengths.
struct RangeIn<'a> {
    hits: &'a mut [Hit],
    rows: &'a mut [u32],
}

/// What one funnel range holds after its sort + dedup.
struct RangeSize {
    /// Distinct hits.
    hits: usize,
    /// Crossing pairs, one record each.
    pairs: usize,
    /// Records whose counts do not fit a shape word.
    wide: usize,
    /// Path-count entries over its wide records.
    wide_counts: usize,
}

/// One funnel range's input hits and its windows of the record arenas;
/// `wide_base` and `count_base` are where its wide windows start in the
/// whole wide arenas.
struct RangeOut<'a> {
    hits: &'a [Hit],
    partner: &'a mut [u32],
    shape: &'a mut [u32],
    wide_base: usize,
    count_base: usize,
    wide_counts: &'a mut [(u32, u32)],
    wide_ends: &'a mut [(u32, u32)],
    wide_totals: &'a mut [u32],
}

/// Union bbox of each net's optical candidates (the net-level prefilter).
fn net_bboxes(nets: &[NetCandidates]) -> Vec<Option<BoundingBox>> {
    nets.iter()
        .map(|nc| {
            nc.candidates
                .iter()
                .filter_map(|c| c.optical_bbox)
                .reduce(|a, b| a.union(&b))
        })
        .collect()
}

/// One record outside the arenas: side A counts, side B counts, total.
type OwnedRecord = (Vec<(u32, u32)>, Vec<(u32, u32)>, usize);

/// Counts proper crossings between two candidates and attributes them to
/// detector paths on both sides, or `None` when they do not cross.
fn count_pair(a: &CandidateRoute, b: &CandidateRoute) -> Option<OwnedRecord> {
    // Crossings per segment of each candidate.
    let mut seg_a = vec![0usize; a.optical_segments.len()];
    let mut seg_b = vec![0usize; b.optical_segments.len()];
    let mut total = 0usize;
    for (i, sa) in a.optical_segments.iter().enumerate() {
        for (j, sb) in b.optical_segments.iter().enumerate() {
            if sa.crosses(sb) {
                seg_a[i] += 1;
                seg_b[j] += 1;
                total += 1;
            }
        }
    }
    (total > 0).then(|| {
        (
            attribute(&a.paths, &seg_a),
            attribute(&b.paths, &seg_b),
            total,
        )
    })
}

/// Inverted path index of the candidates a funnel assembles: for each
/// optical segment, the detector paths that traverse it (CSR, with
/// multiplicity). The transpose of `PathLoss::segments`, so hit
/// attribution touches only the segments that actually cross instead of
/// every path × segment. Flat over every candidate the hits name, built
/// once on the calling thread and shared read-only by the ranges.
///
/// The segments of the indexed candidates get flat indexes in
/// `(candidate, segment)` order; hits name segments by them.
struct SegPaths {
    /// Per global candidate id, the flat index of its segment 0
    /// (unused candidates: 0).
    first: Vec<u32>,
    /// Flat segment `f` lists `paths[off[f]..off[f + 1]]`.
    off: Vec<u32>,
    paths: Vec<u32>,
    /// Per flat segment, its candidate's global id.
    owner: Vec<u32>,
    /// The most detector paths of any indexed candidate.
    max_paths: usize,
}

impl SegPaths {
    /// The index over the candidates `used` flags.
    fn new(nets: &[NetCandidates], ids: &CandIds, used: &[bool]) -> Self {
        let cand = |g: usize| {
            let (net, c) = ids.split(g as u32);
            &nets[net as usize].candidates[c as usize]
        };
        let mut first = vec![0u32; used.len()];
        let mut owner = Vec::new();
        let mut max_paths = 0;
        for g in (0..used.len()).filter(|&g| used[g]) {
            first[g] = owner.len() as u32;
            owner.resize(owner.len() + cand(g).optical_segments.len(), g as u32);
            max_paths = max_paths.max(cand(g).paths.len());
        }
        let n_segs = owner.len();
        // Degrees per segment, prefix sums, then one fill pass in path
        // order, so every segment's list is ascending.
        let mut off = vec![0u32; n_segs + 1];
        for g in (0..used.len()).filter(|&g| used[g]) {
            for p in &cand(g).paths {
                for &s in &p.segments {
                    off[first[g] as usize + s + 1] += 1;
                }
            }
        }
        for i in 0..n_segs {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut paths = vec![0u32; off[n_segs] as usize];
        for g in (0..used.len()).filter(|&g| used[g]) {
            for (pi, p) in cand(g).paths.iter().enumerate() {
                for &s in &p.segments {
                    let slot = &mut cursor[first[g] as usize + s];
                    paths[*slot as usize] = pi as u32;
                    *slot += 1;
                }
            }
        }
        Self {
            first,
            off,
            paths,
            owner,
            max_paths,
        }
    }

    /// The flat index of segment `seg` of candidate `cand`.
    #[inline]
    fn flat(&self, cand: u32, seg: u32) -> u32 {
        self.first[cand as usize] + seg
    }

    /// The paths through flat segment `flat`.
    #[inline]
    fn of(&self, flat: u32) -> &[u32] {
        &self.paths[self.off[flat as usize] as usize..self.off[flat as usize + 1] as usize]
    }

    /// Whether two hits belong to the same candidate pair.
    #[inline]
    fn same_pair(&self, x: Hit, y: Hit) -> bool {
        self.owner[hit_b(x) as usize] == self.owner[hit_b(y) as usize]
            && self.owner[hit_a(x) as usize] == self.owner[hit_a(y) as usize]
    }
}

/// Record assembly for one range: the shared path index plus a
/// path-count accumulator, zeroed between uses via the touched list,
/// and the last record's two sides.
struct Assembler<'a> {
    paths: &'a SegPaths,
    acc: Vec<u32>,
    touched: Vec<u32>,
    per_a: Vec<(u32, u32)>,
    per_b: Vec<(u32, u32)>,
}

impl<'a> Assembler<'a> {
    fn new(paths: &'a SegPaths) -> Self {
        Self {
            paths,
            acc: vec![0; paths.max_paths],
            touched: Vec::new(),
            per_a: Vec::new(),
            per_b: Vec::new(),
        }
    }

    /// One pair's per-path counts, side A then side B, from its
    /// deduplicated hits. Every record is assembled here, whatever arena
    /// it lands in.
    fn record(&mut self, run: &[Hit]) -> (&PathCounts, &PathCounts) {
        let mut per_a = std::mem::take(&mut self.per_a);
        let mut per_b = std::mem::take(&mut self.per_b);
        self.side(run.iter().map(|&h| hit_a(h)), &mut per_a);
        self.side(run.iter().map(|&h| hit_b(h)), &mut per_b);
        (self.per_a, self.per_b) = (per_a, per_b);
        (&self.per_a, &self.per_b)
    }

    /// Path attribution for one side of a pair, from the flat segments
    /// of its deduplicated hits: ascending `(path index, count)` over
    /// paths with at least one crossing — byte-identical to [`attribute`]
    /// over per-segment counts.
    fn side(&mut self, segs: impl Iterator<Item = u32>, out: &mut Vec<(u32, u32)>) {
        self.touched.clear();
        for seg in segs {
            for &p in self.paths.of(seg) {
                if self.acc[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.acc[p as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        out.clear();
        for &p in &self.touched {
            out.push((p, self.acc[p as usize]));
            self.acc[p as usize] = 0;
        }
    }
}

/// Sums per-segment crossing counts along each detector path, keeping
/// `(path index, count)` for paths that suffer at least one crossing.
fn attribute(paths: &[PathLoss], seg: &[usize]) -> Vec<(u32, u32)> {
    paths
        .iter()
        .enumerate()
        .filter_map(|(pi, p)| {
            let n: usize = p.segments.iter().map(|&s| seg[s]).sum();
            (n > 0).then_some((pi as u32, n as u32))
        })
        .collect::<Vec<_>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
    use operon_geom::Point;
    use operon_optics::{ElectricalParams, OpticalLib};
    use operon_steiner::{NodeKind, RouteTree};
    use proptest::prelude::*;

    /// A single optical edge from `a` to `b` as a one-candidate net.
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
            electrical_idx: 0, // not actually electrical; fine for tests
            fanout_power_mw: 0.0,
        }
    }

    /// A net whose candidates are optical chains through each point list.
    fn chain_net(net_index: usize, chains: &[Vec<Point>]) -> NetCandidates {
        let candidates = chains
            .iter()
            .map(|pts| {
                let mut tree = RouteTree::new(pts[0]);
                let mut prev = tree.root();
                for (i, &p) in pts.iter().enumerate().skip(1) {
                    let kind = if i + 1 == pts.len() {
                        NodeKind::Terminal
                    } else {
                        NodeKind::Steiner
                    };
                    prev = tree.add_child(prev, p, kind);
                }
                analyze_assignment(
                    &tree,
                    &vec![EdgeMedium::Optical; pts.len() - 1],
                    1,
                    &OpticalLib::paper_defaults(),
                    &ElectricalParams::paper_defaults(),
                )
            })
            .collect();
        NetCandidates {
            net_index,
            bits: 1,
            candidates,
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    /// Full structural equality: semantic value (pair map) plus every
    /// arena — candidate ids, rows, shape words, wide records and the
    /// derived neighbor CSR — so a builder that corrupted an arena cannot
    /// hide behind the `PartialEq` impl.
    fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pair count");
        assert!(a == b, "{label}: pair maps");
        assert_eq!(a.ids.base, b.ids.base, "{label}: candidate ids");
        assert_eq!(a.ids.net_of, b.ids.net_of, "{label}: candidate nets");
        assert_eq!(a.row_off, b.row_off, "{label}: row offsets");
        assert_eq!(a.partner, b.partner, "{label}: partners");
        assert_eq!(a.shape, b.shape, "{label}: shape words");
        assert_eq!(a.wide, b.wide, "{label}: wide records");
        assert_eq!(a.adj_off, b.adj_off, "{label}: neighbor offsets");
        assert_eq!(a.adj, b.adj, "{label}: neighbor arena");
    }

    #[test]
    fn crossing_pair_detected_and_attributed() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert_eq!(idx.len(), 1);
        let pc = idx.pair(0, 0, 1, 0).expect("pair crosses");
        assert_eq!(pc.total, 1);
        assert_eq!(pc.per_path_a, [(0, 1)]);
        assert_eq!(pc.per_path_b, [(0, 1)]);
        // Query in both net orders.
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 1);
        assert_eq!(idx.crossings_on_path(1, 0, 0, 0, 0), 1);
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 0)),
            optical_net(1, Point::new(0, 10), Point::new(100, 10)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(idx.is_empty());
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 0);
    }

    #[test]
    fn disjoint_bboxes_prefiltered() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(10, 10)),
            optical_net(1, Point::new(1000, 1000), Point::new(1010, 1010)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(idx.is_empty());
    }

    #[test]
    fn shared_endpoint_is_not_a_proper_crossing() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(100, 100), Point::new(200, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(idx.is_empty());
    }

    #[test]
    fn multi_segment_crossings_accumulate() {
        // Net 1's single long segment crosses both arms of net 0's vee.
        let mut tree = RouteTree::new(Point::new(0, 0));
        let s = tree.add_child(tree.root(), Point::new(50, 100), NodeKind::Steiner);
        tree.add_child(s, Point::new(0, 200), NodeKind::Terminal);
        tree.add_child(s, Point::new(100, 200), NodeKind::Terminal);
        let vee = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical; 3],
            1,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        let nets = vec![
            NetCandidates {
                net_index: 0,
                bits: 1,
                candidates: vec![vee],
                electrical_idx: 0,
                fanout_power_mw: 0.0,
            },
            optical_net(1, Point::new(-50, 150), Point::new(150, 150)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        let pc = idx.pair(0, 0, 1, 0).expect("crossing");
        assert_eq!(pc.total, 2);
        // Both of net 0's sink paths suffer one crossing (on their own
        // arm); net 1's single path suffers both.
        assert_eq!(pc.per_path_a.len(), 2);
        assert!(pc.per_path_a.iter().all(|&(_, n)| n == 1));
        assert_eq!(pc.per_path_b, [(0, 2)]);
    }

    #[test]
    fn same_net_candidates_never_compared() {
        // Two candidates within one net cross each other geometrically,
        // but only one will be selected — no index entry.
        let a = optical_net(0, Point::new(0, 0), Point::new(100, 100));
        let b = optical_net(0, Point::new(0, 100), Point::new(100, 0));
        let merged = NetCandidates {
            net_index: 0,
            bits: 1,
            candidates: vec![a.candidates[0].clone(), b.candidates[0].clone()],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        };
        let idx = CrossingIndex::build_with(&[merged], &Executor::sequential());
        assert!(idx.is_empty());
    }

    #[test]
    fn neighbors_mirror_pairs() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
            optical_net(2, Point::new(50, 0), Point::new(50, 100)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        // Every pair entry appears in both endpoints' neighbor lists, and
        // every neighbor entry resolves to the same record via the cached
        // handle and the binary-search lookup.
        let key = |n: &Neighbor| idx.neighbor_key(n);
        for ((na, ca, nb, cb), pc) in idx.iter() {
            assert!(idx.neighbors(na, ca).iter().any(|n| key(n) == (nb, cb)));
            assert!(idx.neighbors(nb, cb).iter().any(|n| key(n) == (na, ca)));
            assert_eq!(idx.pair(na, ca, nb, cb), Some(pc));
        }
        for net in 0..nets.len() {
            for nb in idx.neighbors(net, 0) {
                let (m, c) = key(nb);
                let via_map = idx.pair(net, 0, m, c).expect("pair exists");
                assert_eq!(idx.record(nb), via_map);
                let (own, other) = idx.per_path(nb);
                if net < m {
                    assert_eq!(own, via_map.per_path_a);
                    assert_eq!(other, via_map.per_path_b);
                } else {
                    assert_eq!(own, via_map.per_path_b);
                    assert_eq!(other, via_map.per_path_a);
                }
            }
        }
        // The vertical net crosses both diagonals.
        assert_eq!(idx.neighbors(2, 0).len(), 2);
    }

    #[test]
    fn grid_build_matches_reference_on_spanning_diagonals() {
        // 24 die-spanning diagonals: the worst case for any bbox-based
        // pruning (every bbox overlaps every other) and the fixture that
        // forces the grid rasterizer to stay sparse.
        let nets: Vec<NetCandidates> = (0..24)
            .map(|k| {
                let y0 = (k as i64) * 700;
                optical_net(k, Point::new(0, y0), Point::new(20_000, 18_000 - y0))
            })
            .collect();
        let reference = CrossingIndex::build_reference(&nets);
        assert!(!reference.is_empty());
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            let grid = CrossingIndex::build_with(&nets, &exec);
            assert_index_eq(&grid, &reference, &format!("threads={threads}"));
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let nets: Vec<NetCandidates> = (0..24)
            .map(|k| {
                let y0 = (k as i64) * 700;
                optical_net(k, Point::new(0, y0), Point::new(20_000, 18_000 - y0))
            })
            .collect();
        let seq = CrossingIndex::build_with(&nets, &Executor::sequential());
        for threads in [2, 4, 8] {
            let par = CrossingIndex::build_with(&nets, &Executor::new(threads));
            assert_index_eq(&par, &seq, &format!("threads={threads}"));
        }
    }

    #[test]
    fn small_grid_build_runs_inline() {
        // Two crossing diagonals are far below the parallel threshold:
        // the build must take the sequential path and say so.
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::new(8));
        assert!(!idx.built_parallel());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn candidates_sharing_a_segment_get_a_record_each_from_one_test() {
        // Net 0's k candidates share their first segment, which net 1
        // crosses, and fan out to distinct tails that cross nothing. On
        // a one-cell grid every entry meets every other: the shared
        // segment is one entry, so the pass runs C(k + 2, 2) tests
        // rather than C(2k + 1, 2), finds one crossing, and its k owners
        // still give k records.
        let k = 5;
        let chains: Vec<Vec<Point>> = (0..k)
            .map(|j| {
                let tail = Point::new(200 + 10 * j as i64, 150);
                vec![Point::new(0, 0), Point::new(100, 100), tail]
            })
            .collect();
        let nets = vec![
            chain_net(0, &chains),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with_grid_dims(&nets, &Executor::sequential(), Some((1, 1)));
        assert_index_eq(&idx, &CrossingIndex::build_reference(&nets), "shared");
        assert_eq!(idx.len(), k);
        for j in 0..k {
            assert_eq!(idx.pair(0, j, 1, 0).expect("crosses").total, 1, "cand {j}");
        }
        let distinct = k as u64 + 2;
        assert_eq!(
            idx.grid_work(),
            GridWork {
                segments: 2 * k as u64 + 1,
                distinct_segments: distinct,
                pair_tests: distinct * (distinct - 1) / 2,
                distinct_hits: 1,
            }
        );
    }

    /// Short stubs crossed by three long trunks, translated so every
    /// coordinate sits near `offset`.
    fn dispersed_nets_at(offset: i64) -> Vec<NetCandidates> {
        let mut nets: Vec<NetCandidates> = (0..12)
            .map(|k| {
                let x = offset + 10 + (k as i64) * 40;
                optical_net(k, Point::new(x, offset), Point::new(x + 8, offset + 9))
            })
            .collect();
        for t in 0..3 {
            nets.push(optical_net(
                12 + t,
                Point::new(offset, offset + 2 + t as i64),
                Point::new(offset + 1000, offset + 7 - t as i64),
            ));
        }
        nets
    }

    #[test]
    fn grid_build_matches_reference_beyond_2_pow_40() {
        // The grid's exact i128 rasterization handles any i64
        // coordinate; far from the origin it must still match the
        // brute-force reference exactly.
        let nets = dispersed_nets_at(1 << 41);
        for threads in [1, 8] {
            let idx = CrossingIndex::build_with(&nets, &Executor::new(threads));
            assert_index_eq(
                &idx,
                &CrossingIndex::build_reference(&nets),
                "grid beyond 2^40",
            );
        }
    }

    #[test]
    fn rebuild_delta_equals_full_build_beyond_2_pow_40() {
        let offset = 1i64 << 41;
        let mut nets = dispersed_nets_at(offset);
        let before = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(!before.is_empty());
        // Move one stub onto a trunk's path and retire one trunk.
        nets[4] = optical_net(
            4,
            Point::new(offset + 500, offset),
            Point::new(offset + 510, offset + 9),
        );
        nets[13] = optical_net(
            13,
            Point::new(offset + 5000, offset + 5000),
            Point::new(offset + 6000, offset + 6000),
        );
        let delta = before.rebuild_delta(&nets, &[4, 13]);
        assert_index_eq(
            &delta,
            &CrossingIndex::build_with(&nets, &Executor::sequential()),
            "delta beyond 2^40",
        );
    }

    /// One net per segment, laid out for a `cols × rows` grid over
    /// `[0, 240]²` so crossings land exactly on cell edges and corners:
    /// a small X centered on every interior cell corner and on the
    /// midpoint of every interior cell edge, full-height verticals and
    /// full-width horizontals along the interior edges, and both die
    /// diagonals.
    fn edge_and_corner_nets(cols: i64, rows: i64) -> Vec<NetCandidates> {
        let size = 240i64;
        // `SegmentGrid::new`'s cell size over the extent the frame
        // segments span.
        let (w, h) = (size / cols + 1, size / rows + 1);
        let mut shapes: Vec<(Point, Point)> = vec![
            (Point::new(0, 0), Point::new(size, size)),
            (Point::new(0, size), Point::new(size, 0)),
            (Point::new(0, 0), Point::new(size, 0)),
            (Point::new(0, 0), Point::new(0, size)),
        ];
        let mut x_at = |x: i64, y: i64| {
            shapes.push((Point::new(x - 4, y - 4), Point::new(x + 4, y + 4)));
            shapes.push((Point::new(x - 4, y + 4), Point::new(x + 4, y - 4)));
        };
        for c in 1..cols {
            for r in 0..rows {
                x_at(c * w, r * h + h / 2);
            }
        }
        for r in 1..rows {
            for c in 0..cols {
                x_at(c * w + w / 2, r * h);
            }
            for c in 1..cols {
                x_at(c * w, r * h);
            }
        }
        for c in 1..cols {
            shapes.push((Point::new(c * w, 0), Point::new(c * w, size)));
        }
        for r in 1..rows {
            shapes.push((Point::new(0, r * h), Point::new(size, r * h)));
        }
        shapes
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| optical_net(i, a, b))
            .collect()
    }

    #[test]
    fn grid_hits_report_each_crossing_once_on_cell_edges_and_corners() {
        for (cols, rows) in [(1, 1), (2, 2), (3, 2), (4, 4), (5, 7), (8, 8)] {
            let nets = edge_and_corner_nets(cols as i64, rows as i64);
            let mut segs = DistinctSegs::default();
            segs.push_nets(&nets, &CandIds::new(&nets), |_| true);
            let exec = Executor::sequential();
            let (pairs, _, _) = grid_pairs(&segs, segs.len(), Some((cols, rows)), &exec);
            let hits: Vec<(u32, u32)> = pairs.into_iter().flatten().collect();
            let mut unique = hits.clone();
            unique.sort_unstable();
            unique.dedup();
            let label = format!("{cols}x{rows}");
            assert_eq!(hits.len(), unique.len(), "{label}: duplicate hits");
            let reference = CrossingIndex::build_reference(&nets);
            let crossings: usize = reference.iter().map(|(_, pc)| pc.total).sum();
            assert!(crossings > 0, "{label}: fixture has no crossing");
            assert_eq!(hits.len(), crossings, "{label}: one hit per crossing");
            let sized = CrossingIndex::build_with_grid_dims(&nets, &exec, Some((cols, rows)));
            assert_index_eq(&sized, &reference, &label);
        }
    }

    #[test]
    fn delta_grid_emits_a_changed_pair_once_on_cell_edges_and_corners() {
        // Each small X's two segments cross on a cell edge or corner. With
        // them as the changed prefix, the delta's grid pass must report
        // their crossing once, and every other crossing of a changed
        // segment once, testing no pair without a changed side.
        for (cols, rows) in [(2, 2), (3, 2), (4, 4), (5, 7)] {
            let nets = edge_and_corner_nets(cols as i64, rows as i64);
            let ids = CandIds::new(&nets);
            let reference = CrossingIndex::build_reference(&nets);
            let exec = Executor::sequential();
            // The frame's 4 nets come first, then each X as 2 nets: one
            // on every interior edge midpoint and corner.
            let xs = (cols - 1) * rows + (rows - 1) * (2 * cols - 1);
            for a in (4..4 + 2 * xs).step_by(2) {
                let changed = [a, a + 1];
                let mut segs = DistinctSegs::default();
                segs.push_nets(&nets, &ids, |i| changed.contains(&i));
                let queries = segs.len();
                assert_eq!(queries, 2);
                segs.push_nets(&nets, &ids, |i| !changed.contains(&i));
                let (pairs, _, tests) = grid_pairs(&segs, queries, Some((cols, rows)), &exec);
                let hits: Vec<(u32, u32)> = pairs.into_iter().flatten().collect();
                let label = format!("{cols}x{rows}, X at nets {a}/{}", a + 1);
                assert!(
                    hits.iter().all(|&(p, q)| p < 2 || q < 2),
                    "{label}: unchanged pair"
                );
                let own = hits.iter().filter(|&&(p, q)| p.max(q) < 2).count();
                assert_eq!(own, 1, "{label}: the X's own crossing");
                let expected: usize = reference
                    .iter()
                    .filter(|((na, _, nb, _), _)| changed.contains(na) || changed.contains(nb))
                    .map(|(_, pc)| pc.total)
                    .sum();
                assert_eq!(hits.len(), expected, "{label}: one hit per crossing");
                let mut unique = hits.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), hits.len(), "{label}: duplicate hits");
                assert!(tests.pair_tests < (segs.len() * (segs.len() - 1) / 2) as u64);
            }
        }
    }

    /// 24 die-spanning diagonals with every coordinate times `scale`,
    /// plus two-sink forks across them, so sides list several paths.
    fn diagonals_and_forks(scale: i64) -> Vec<NetCandidates> {
        let p = |x: i64, y: i64| Point::new(x * scale, y * scale);
        let mut nets: Vec<NetCandidates> = (0..24)
            .map(|k| {
                let y0 = (k as i64) * 700;
                optical_net(k, p(0, y0), p(20_000, 18_000 - y0))
            })
            .collect();
        for f in 0..6 {
            let x = 1_500 + 3_000 * f as i64;
            let mut tree = RouteTree::new(p(x, 0));
            let s = tree.add_child(tree.root(), p(x, 9_000), NodeKind::Steiner);
            tree.add_child(s, p(x - 1_000, 18_000), NodeKind::Terminal);
            tree.add_child(s, p(x + 1_000, 18_000), NodeKind::Terminal);
            let fork = analyze_assignment(
                &tree,
                &[EdgeMedium::Optical; 3],
                1,
                &OpticalLib::paper_defaults(),
                &ElectricalParams::paper_defaults(),
            );
            nets.push(NetCandidates {
                net_index: nets.len(),
                bits: 1,
                candidates: vec![fork],
                electrical_idx: 0,
                fanout_power_mw: 0.0,
            });
        }
        nets
    }

    #[test]
    fn multi_range_funnel_matches_one_range_and_reference() {
        // Past 2^40 the ownership test overflows, so the grid reports a
        // crossing in every cell the pair shares: the funnel's dedup
        // must drop the repeats, in whichever range they land.
        let far = diagonals_and_forks(1 << 30);
        let mut segs = DistinctSegs::default();
        segs.push_nets(&far, &CandIds::new(&far), |_| true);
        let raw: usize = grid_pairs(&segs, segs.len(), None, &Executor::sequential())
            .0
            .iter()
            .map(Vec::len)
            .sum();
        let crossings = CrossingIndex::build_reference(&far).segment_crossings();
        assert!(raw as u64 > crossings, "the fixture must repeat hits");
        for (label, nets) in [("die scale", diagonals_and_forks(1)), ("past 2^40", far)] {
            let reference = CrossingIndex::build_reference(&nets);
            assert!(reference.iter().any(|(_, pc)| pc.per_path_b.len() > 1));
            let one = CrossingIndex::build_with_funnel_ranges(&nets, &Executor::sequential(), 1);
            assert_index_eq(&one, &reference, &format!("{label}: one range"));
            for threads in [1, 2, 8] {
                let exec = Executor::new(threads);
                for ranges in [3, 5, 64] {
                    let multi = CrossingIndex::build_with_funnel_ranges(&nets, &exec, ranges);
                    let case = format!("{label}: {ranges} ranges, threads={threads}");
                    assert_index_eq(&multi, &one, &case);
                }
            }
        }
    }

    #[test]
    fn rebuild_delta_equals_full_build() {
        let mut nets: Vec<NetCandidates> = (0..10)
            .map(|k| {
                let y0 = (k as i64) * 90;
                optical_net(k, Point::new(0, y0), Point::new(1000, 900 - y0))
            })
            .collect();
        let before = CrossingIndex::build_with(&nets, &Executor::sequential());
        // Replace two nets' geometry (one reroute, one that stops
        // crossing anything) and patch the index.
        nets[3] = optical_net(3, Point::new(0, 500), Point::new(1000, 70));
        nets[7] = optical_net(7, Point::new(5000, 5000), Point::new(6000, 6000));
        let delta = before.rebuild_delta(&nets, &[3, 7]);
        let full = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert_index_eq(&delta, &full, "delta vs full");
        // No-op delta reproduces the index too.
        let noop = before.rebuild_delta(
            &(0..10)
                .map(|k| {
                    let y0 = (k as i64) * 90;
                    optical_net(k, Point::new(0, y0), Point::new(1000, 900 - y0))
                })
                .collect::<Vec<_>>(),
            &[],
        );
        assert_index_eq(&noop, &before, "noop delta");
        // Nets the index does not know, or whose candidate count moved,
        // are recounted even when the caller does not list them.
        let empty = CrossingIndex::default().rebuild_delta(&nets, &[]);
        assert_index_eq(&empty, &full, "delta from an empty index");
        let mut widened = nets.clone();
        widened[3] = chain_net(
            3,
            &[
                vec![Point::new(0, 500), Point::new(1000, 70)],
                vec![Point::new(0, 880), Point::new(1000, 20)],
            ],
        );
        let unlisted = delta.rebuild_delta(&widened, &[]);
        let widened_full = CrossingIndex::build_with(&widened, &Executor::sequential());
        assert_index_eq(&unlisted, &widened_full, "unlisted count change");
    }

    #[test]
    fn neighbors_of_unknown_candidate_is_empty() {
        let nets = vec![optical_net(0, Point::new(0, 0), Point::new(100, 100))];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(idx.neighbors(0, 0).is_empty());
        assert!(idx.neighbors(5, 9).is_empty());
    }

    #[test]
    fn ids_beyond_u32_never_alias_a_pair() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert!(idx.pair(0, 0, 1, 0).is_some());
        // Each id truncates to the crossing pair's own id in 32 bits.
        let wrap = 1usize << 32;
        for (na, ca, nb, cb) in [
            (0, 0, 1, wrap),
            (0, wrap, 1, 0),
            (0, 0, wrap + 1, 0),
            (wrap, 0, 1, 0),
            (1, wrap, 0, wrap),
            (0, usize::MAX, 1, 0),
        ] {
            assert_eq!(idx.pair(na, ca, nb, cb), None, "({na}, {ca}, {nb}, {cb})");
            assert_eq!(idx.crossings_on_path(na, ca, 0, nb, cb), 0);
        }
        assert!(idx.neighbors(0, wrap).is_empty());
        assert!(idx.neighbors(wrap + 1, 0).is_empty());
        assert!(idx.neighbors(usize::MAX, usize::MAX).is_empty());
    }

    #[test]
    fn arena_entries_stay_compact() {
        assert_eq!(std::mem::size_of::<Neighbor>(), 8);
        assert_eq!(std::mem::size_of::<Hit>(), 8);
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert_eq!(idx.segment_crossings(), 1);
        assert!(idx.heap_bytes() > 0);
        assert_eq!(CrossingIndex::default().heap_bytes(), 0);
    }

    #[test]
    fn inline_side_codes_round_trip() {
        assert_eq!(side_code(&[]), Some(0));
        assert_eq!(inline_side(0), &[] as &PathCounts);
        let mut codes = Vec::new();
        for p in 0..INLINE_PATHS {
            for c in 1..=INLINE_COUNT {
                codes.push((vec![(p, c)], side_code(&[(p, c)])));
                for q in p + 1..INLINE_PATHS {
                    for d in 1..=INLINE_COUNT {
                        let side = [(p, c), (q, d)];
                        codes.push((side.to_vec(), side_code(&side)));
                    }
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for (side, code) in codes {
            let code = code.expect("inline side");
            assert!(code < 1 << SIDE_BITS && seen.insert(code), "{side:?}");
            assert_eq!(inline_side(code), side.as_slice());
        }
        assert_eq!(seen.len() as u32, SINGLES + DOUBLES);
        // Anything else goes wide.
        for side in [
            &[(INLINE_PATHS, 1)][..],
            &[(0, INLINE_COUNT + 1)],
            &[(0, 0)],
            &[(1, 1), (0, 1)],
            &[(0, 1), (1, 1), (2, 1)],
        ] {
            assert_eq!(side_code(side), None, "{side:?}");
        }
        let total = INLINE_TOTAL_MAX as usize;
        assert!(inline_word(&[(0, 1)], &[(1, 2)], total).is_some());
        assert_eq!(inline_word(&[(0, 1)], &[(1, 2)], total + 1), None);
    }

    /// A star net: one candidate whose `sinks` detector paths each run
    /// straight down from the source at (0, 200) to y = 0.
    fn star_net(net_index: usize, sinks: i64) -> NetCandidates {
        let mut tree = RouteTree::new(Point::new(0, 200));
        for s in 0..sinks {
            tree.add_child(tree.root(), Point::new(10 + 40 * s, 0), NodeKind::Terminal);
        }
        let cand = analyze_assignment(
            &tree,
            &vec![EdgeMedium::Optical; sinks as usize],
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

    #[test]
    fn wide_records_match_reference_and_direct_counts() {
        // A five-sink star (sides of five paths), a zigzag crossing one
        // horizontal line 12 times (a count and total past the inline
        // range), and small diagonals that stay inline, so the index
        // mixes inline and wide records.
        let zigzag: Vec<Point> = (0..=12)
            .map(|k| Point::new(10 * k, 90 + 20 * (k % 2)))
            .collect();
        let nets = vec![
            star_net(0, 5),
            chain_net(1, &[zigzag]),
            optical_net(2, Point::new(-20, 100), Point::new(200, 100)),
            optical_net(3, Point::new(-20, 150), Point::new(300, 20)),
            optical_net(4, Point::new(5, 40), Point::new(25, 60)),
        ];
        assert!(nets[0].candidates[0].paths.len() > 2);
        let reference = CrossingIndex::build_reference(&nets);
        assert!(
            reference.wide.totals.len() >= 2,
            "the fixture must hold wide records"
        );
        assert!(
            reference.wide.totals.len() < reference.len(),
            "and inline ones"
        );
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            assert_index_eq(&CrossingIndex::build_with(&nets, &exec), &reference, "grid");
            for ranges in [2, 5] {
                let ranged = CrossingIndex::build_with_funnel_ranges(&nets, &exec, ranges);
                assert_index_eq(&ranged, &reference, &format!("{ranges} ranges"));
            }
        }
        // Every record, wide or inline, against a direct count.
        let mut wide_count_seen = false;
        for ((na, ca, nb, cb), pc) in reference.iter() {
            let (per_a, per_b, total) =
                count_pair(&nets[na].candidates[ca], &nets[nb].candidates[cb]).expect("crosses");
            assert_eq!(pc.per_path_a, per_a.as_slice());
            assert_eq!(pc.per_path_b, per_b.as_slice());
            assert_eq!(pc.total, total);
            assert_eq!(reference.pair(nb, cb, na, ca), Some(pc));
            wide_count_seen |= pc.per_path_b.iter().any(|&(_, n)| n > INLINE_COUNT);
        }
        assert!(wide_count_seen, "a count past the inline range");
        assert_eq!(
            reference
                .pair(0, 0, 1, 0)
                .expect("star x zigzag")
                .per_path_a
                .len(),
            5
        );
        assert_eq!(reference.pair(1, 0, 2, 0).expect("zigzag x line").total, 12);
        assert_csr_matches_records(&reference, &nets, "wide");
        // A delta that moves the line keeps the wide records exact.
        let mut moved = nets.clone();
        moved[2] = optical_net(2, Point::new(-20, 101), Point::new(200, 99));
        let delta = reference.rebuild_delta(&moved, &[2]);
        assert_index_eq(
            &delta,
            &CrossingIndex::build_reference(&moved),
            "wide delta",
        );
    }

    /// Checks the neighbor arena against lists derived naively from
    /// `iter()`, for every `(net, cand)` of `nets` plus
    /// out-of-range ids: each record appears in both owners' lists, in
    /// record order, with the owner's side and the record's counts.
    fn assert_csr_matches_records(idx: &CrossingIndex, nets: &[NetCandidates], label: &str) {
        // (other net, other cand, record, owner is side A) per entry.
        type Entry = (usize, usize, usize, bool);
        let mut lists: Vec<Vec<Vec<Entry>>> = nets
            .iter()
            .map(|nc| vec![Vec::new(); nc.candidates.len()])
            .collect();
        for (r, ((na, ca, nb, cb), _)) in idx.iter().enumerate() {
            lists[na][ca].push((nb, cb, r, true));
            lists[nb][cb].push((na, ca, r, false));
        }
        let widest = nets.iter().map(|nc| nc.candidates.len()).max().unwrap_or(0);
        for net in 0..nets.len() + 2 {
            for cand in 0..widest + 2 {
                let got = idx.neighbors(net, cand);
                let want = lists
                    .get(net)
                    .and_then(|l| l.get(cand))
                    .map_or(&[][..], Vec::as_slice);
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{label}: ({net}, {cand}) list length"
                );
                for (nb, &(onet, ocand, r, owner_is_a)) in got.iter().zip(want) {
                    assert_eq!(
                        idx.neighbor_key(nb),
                        (onet, ocand),
                        "{label}: ({net}, {cand})"
                    );
                    assert_eq!(nb.record(), r, "{label}: ({net}, {cand}) record");
                    let pc = idx.record(nb);
                    let expect = if owner_is_a {
                        (pc.per_path_a, pc.per_path_b)
                    } else {
                        (pc.per_path_b, pc.per_path_a)
                    };
                    assert_eq!(idx.per_path(nb), expect, "{label}: ({net}, {cand}) side");
                }
            }
        }
        for (net, cand) in [(usize::MAX, 0), (0, usize::MAX), (1 << 32, 0), (0, 1 << 32)] {
            assert!(
                idx.neighbors(net, cand).is_empty(),
                "{label}: ({net}, {cand})"
            );
        }
    }

    fn random_nets(raw: &[Vec<Vec<(i64, i64)>>]) -> Vec<NetCandidates> {
        raw.iter()
            .enumerate()
            .map(|(i, chains)| {
                let pts: Vec<Vec<Point>> = chains
                    .iter()
                    .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                    .collect();
                chain_net(i, &pts)
            })
            .collect()
    }

    /// Nets in the co-design shape: each net's candidates are media
    /// assignments over one shared baseline tree, so they repeat each
    /// other's optical segments bit for bit. Per net, `raw` holds the
    /// tree's points (node `i > 0` hangs off node `parents[i - 1] % i`)
    /// and one edge mask per candidate (bit `e` set: edge `e` optical).
    fn shared_tree_nets(raw: &[SharedTree]) -> Vec<NetCandidates> {
        raw.iter()
            .enumerate()
            .map(|(i, (pts, parents, masks))| {
                let mut tree = RouteTree::new(Point::new(pts[0].0, pts[0].1));
                let mut nodes = vec![tree.root()];
                for (n, &(x, y)) in pts.iter().enumerate().skip(1) {
                    let parent = nodes[parents[n - 1] % n];
                    nodes.push(tree.add_child(parent, Point::new(x, y), NodeKind::Terminal));
                }
                let candidates = masks
                    .iter()
                    .map(|mask| {
                        let media: Vec<EdgeMedium> = (0..tree.edge_count())
                            .map(|e| {
                                if mask >> e & 1 == 1 {
                                    EdgeMedium::Optical
                                } else {
                                    EdgeMedium::Electrical
                                }
                            })
                            .collect();
                        analyze_assignment(
                            &tree,
                            &media,
                            1,
                            &OpticalLib::paper_defaults(),
                            &ElectricalParams::paper_defaults(),
                        )
                    })
                    .collect();
                NetCandidates {
                    net_index: i,
                    bits: 1,
                    candidates,
                    electrical_idx: 0,
                    fanout_power_mw: 0.0,
                }
            })
            .collect()
    }

    /// One net of [`shared_tree_nets`]: points, parent picks, edge masks.
    type SharedTree = (Vec<(i64, i64)>, Vec<usize>, Vec<u32>);

    fn shared_tree() -> impl Strategy<Value = SharedTree> {
        (
            proptest::collection::vec((0i64..40, 0i64..40), 2..7),
            proptest::collection::vec(0usize..8, 6),
            proptest::collection::vec(0u32..64, 1..6),
        )
    }

    proptest! {
        /// The codesign shape: every net's candidates share one tree, so
        /// the grid bins one entry per distinct segment. The build must
        /// still equal the reference byte for byte at every thread count,
        /// cell size and funnel range count, and so must a delta after a
        /// net is replaced; the grid's entries must be exactly each net's
        /// distinct non-degenerate segments.
        #[test]
        fn shared_tree_candidates_match_reference_and_delta(
            raw in proptest::collection::vec(shared_tree(), 2..7),
            replacement in shared_tree(),
            which in 0usize..8,
            cols in 1usize..12,
            rows in 1usize..12,
        ) {
            let mut nets = shared_tree_nets(&raw);
            let reference = CrossingIndex::build_reference(&nets);
            let (mut segments, mut distinct) = (0, 0);
            for nc in &nets {
                let mut keys = std::collections::BTreeSet::new();
                for s in nc.candidates.iter().flat_map(|c| &c.optical_segments) {
                    if !s.is_degenerate() {
                        segments += 1;
                        keys.insert((s.a, s.b));
                    }
                }
                distinct += keys.len() as u64;
            }
            let work = CrossingIndex::build_with(&nets, &Executor::sequential()).grid_work();
            prop_assert_eq!((work.segments, work.distinct_segments), (segments, distinct));
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                let label = format!("threads={threads}");
                assert_index_eq(&CrossingIndex::build_with(&nets, &exec), &reference, &label);
                let sized = CrossingIndex::build_with_grid_dims(&nets, &exec, Some((cols, rows)));
                assert_index_eq(&sized, &reference, &format!("{cols}x{rows}, {label}"));
                let ranged = CrossingIndex::build_with_funnel_ranges(&nets, &exec, cols);
                assert_index_eq(&ranged, &reference, &format!("{cols} ranges, {label}"));
            }

            let before = CrossingIndex::build_with(&nets, &Executor::sequential());
            let target = which % nets.len();
            nets[target] = shared_tree_nets(&[replacement]).remove(0);
            nets[target].net_index = target;
            let delta = before.rebuild_delta(&nets, &[target]);
            assert_index_eq(&delta, &CrossingIndex::build_reference(&nets), "delta vs reference");
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                let full = CrossingIndex::build_with(&nets, &exec);
                assert_index_eq(&delta, &full, &format!("delta, threads={threads}"));
                let sized = CrossingIndex::build_with_grid_dims(&nets, &exec, Some((cols, rows)));
                let label = format!("delta, {cols}x{rows} grid, threads={threads}");
                assert_index_eq(&delta, &sized, &label);
            }
        }

        /// The equivalence contract: for random multi-candidate,
        /// multi-segment nets — including collinear overlaps, shared
        /// endpoints, verticals and zero-length segments, which the
        /// cramped `0..24` set packs densely — the grid build equals the
        /// brute-force reference byte for byte, for every cell size and
        /// thread count.
        #[test]
        fn grid_build_equals_reference_on_random_candidate_sets(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..64, 0i64..64), 2..5),
                    1..3,
                ),
                2..7,
            ),
            cramped in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..24, 0i64..24), 2..6),
                    1..3,
                ),
                2..8,
            ),
            cols in 1usize..20,
            rows in 1usize..20,
        ) {
            for (set, raw) in [("wide", &raw), ("cramped", &cramped)] {
                let nets = random_nets(raw);
                let reference = CrossingIndex::build_reference(&nets);
                for threads in [1usize, 2, 8] {
                    let exec = Executor::new(threads);
                    let grid = CrossingIndex::build_with(&nets, &exec);
                    assert_index_eq(&grid, &reference, &format!("{set}, threads={threads}"));
                    let sized = CrossingIndex::build_with_grid_dims(
                        &nets,
                        &exec,
                        Some((cols, rows)),
                    );
                    assert_index_eq(
                        &sized,
                        &reference,
                        &format!("{set}, {cols}x{rows} grid, threads={threads}"),
                    );
                    let ranged = CrossingIndex::build_with_funnel_ranges(&nets, &exec, cols);
                    assert_index_eq(
                        &ranged,
                        &reference,
                        &format!("{set}, {cols} funnel ranges, threads={threads}"),
                    );
                }
            }
        }

        /// The neighbor arena of every builder, against
        /// lists derived from the records alone: the builders share one
        /// CSR builder, so comparing them with each other cannot catch a
        /// bug in it.
        #[test]
        fn neighbor_csr_matches_records_on_random_candidate_sets(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                    1..4,
                ),
                2..8,
            ),
            replacement in proptest::collection::vec(
                proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                1..4,
            ),
            which in 0usize..8,
        ) {
            let mut nets = random_nets(&raw);
            let grid = CrossingIndex::build_with(&nets, &Executor::sequential());
            assert_csr_matches_records(&grid, &nets, "grid");
            assert_csr_matches_records(&CrossingIndex::build_reference(&nets), &nets, "reference");
            // A replacement with a different candidate count shifts every
            // later net's global candidate ids.
            let target = which % nets.len();
            let pts: Vec<Vec<Point>> = replacement
                .iter()
                .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .collect();
            nets[target] = chain_net(target, &pts);
            let delta = grid.rebuild_delta(&nets, &[target]);
            assert_csr_matches_records(&delta, &nets, "delta");
        }

        /// `rebuild_delta` (localized grid pass) against a full rebuild
        /// after replacing 1–3 random nets. Each replacement keeps its
        /// net's random chains and adds a diagonal through (24, 24), so
        /// the replacements cross each other, all at one point. The first
        /// one also gains horizontals until it has more candidates than
        /// before, as a bus that gains bits does, which shifts the global
        /// ids of every later net.
        #[test]
        fn rebuild_delta_equals_full_rebuild_on_random_changes(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                    1..3,
                ),
                3..8,
            ),
            replacements in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                    1..3,
                ),
                1..4,
            ),
            which in proptest::collection::vec(0usize..8, 3),
        ) {
            let mut nets = random_nets(&raw);
            let before = CrossingIndex::build_with(&nets, &Executor::sequential());
            // Each changed net with the candidate index of its diagonal.
            let mut targets: Vec<(usize, usize)> = Vec::new();
            for (r, (chains, &w)) in replacements.iter().zip(&which).enumerate() {
                let target = w % nets.len();
                if targets.iter().any(|&(t, _)| t == target) {
                    continue;
                }
                targets.push((target, chains.len()));
                let mut pts: Vec<Vec<Point>> = chains
                    .iter()
                    .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                    .collect();
                let y0 = 8 * r as i64;
                pts.push(vec![Point::new(0, y0), Point::new(48, 48 - y0)]);
                while r == 0 && pts.len() <= nets[target].candidates.len() {
                    let y = 30 + pts.len() as i64;
                    pts.push(vec![Point::new(0, y), Point::new(48, y)]);
                }
                nets[target] = chain_net(target, &pts);
            }
            let changed: Vec<usize> = targets.iter().map(|&(t, _)| t).collect();
            let delta = before.rebuild_delta(&nets, &changed);
            let full = CrossingIndex::build_with(&nets, &Executor::sequential());
            assert_index_eq(&delta, &full, "random delta vs full");
            let reference = CrossingIndex::build_reference(&nets);
            assert_index_eq(&delta, &reference, "random delta vs reference");
            let grown = changed[0];
            prop_assert!(
                nets[grown].candidates.len() > before.ids.count(grown).unwrap(),
                "the first replacement must grow"
            );
            for (x, &a) in targets.iter().enumerate() {
                for &b in &targets[x + 1..] {
                    let ((na, ca), (nb, cb)) = (a.min(b), a.max(b));
                    prop_assert!(
                        delta.pair(na, ca, nb, cb).is_some(),
                        "the replacements {} and {} must cross each other", na, nb
                    );
                }
            }
        }
    }
}
