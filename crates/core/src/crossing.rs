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
//! * **Grid** ([`CrossingIndex::build_with`]) — buckets every candidate
//!   segment into a uniform [`SegmentGrid`] and tests only pairs that
//!   co-occupy a cell. A cell reports a crossing only if it owns the
//!   exact crossing point ([`SegmentGrid::owns_crossing`]), so each
//!   crossing is found once however many cells the two segments share.
//!   Below a deterministic work threshold the per-cell tests run inline
//!   instead of on the executor, because the fan-out/merge overhead
//!   exceeds the work at small sizes.
//! * **Brute force** ([`CrossingIndex::build_reference`]) — all candidate
//!   pairs behind net- and candidate-level bounding-box prefilters (the
//!   paper's "non-overlapped bounding boxes" variable reduction).
//!   Retained as the equivalence oracle for tests and benchmarks.
//!
//! Both funnel their crossings through the same packed-hit global sort +
//! dedup + assembly (see `Hit`), so the index is a pure function of the
//! candidate set — independent of builder, cell count, iteration order,
//! and thread count.
//!
//! # Arena layout
//!
//! The index stores sorted flat vectors only — no tree maps on any hot
//! path. `keys`/`records` are parallel arrays in sorted [`PairKey`]
//! order; `pair()` is a binary search. Neighbor lists live in one CSR
//! arena (`adj_keys`/`adj_off`/`adj`), and the net-level coupling graph
//! incremental LR pricing walks every iteration is a second CSR
//! (`net_neighbors`), precomputed once per build. Record handles are
//! stable `u32` indexes; [`CrossingIndex::rebuild_delta`] re-derives the
//! arena from retained rows plus a grid pass over the dirty
//! neighborhood, so handles stay valid across ECOs exactly when the rows
//! they name are unchanged.

use crate::codesign::NetCandidates;
use operon_exec::Executor;
use operon_geom::{BoundingBox, Segment, SegmentGrid};

/// Crossing counts between one ordered pair of candidates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairCross {
    /// `(path index in candidate A, crossings on that path)`.
    pub per_path_a: Vec<(usize, usize)>,
    /// `(path index in candidate B, crossings on that path)`.
    pub per_path_b: Vec<(usize, usize)>,
    /// Total segment crossings between the two candidates.
    pub total: usize,
}

/// Key: `(net_a, cand_a, net_b, cand_b)` with `net_a < net_b`.
pub(crate) type PairKey = (usize, usize, usize, usize);

/// One side's `(path index, crossings)` counts of a crossing record.
pub type PathCounts = [(usize, usize)];

/// One entry of a candidate's neighbor list: a candidate of another net
/// that it crosses, plus a direct handle to the shared crossing record so
/// hot pricing loops read per-path counts without any map walk per query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// The crossing net.
    pub net: usize,
    /// The crossing net's candidate index.
    pub cand: usize,
    /// Index into `CrossingIndex::records`.
    record: u32,
    /// Whether the list owner is side A of the record.
    owner_is_a: bool,
}

impl Neighbor {
    /// The `(net, cand)` pair of this neighbor.
    #[inline]
    pub fn key(&self) -> (usize, usize) {
        (self.net, self.cand)
    }
}

/// How an index was actually constructed — recorded for run reports.
/// Not part of the index's semantic value: equality ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChosenBuild {
    /// All-pairs reference scan.
    BruteForce,
    /// Uniform-grid cell bucketing.
    #[default]
    Grid,
    /// Incremental [`CrossingIndex::rebuild_delta`] patch.
    Delta,
    /// Tile-sharded build: per-tile hit discovery merged in tile order
    /// (see [`crate::shard`]).
    Sharded,
}

/// Provenance of the last build: which builder ran and whether the pair
/// tests used the executor's workers or the sequential small-input path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildInfo {
    /// The builder that ran.
    pub strategy: ChosenBuild,
    /// Whether pair tests were spread over the executor's workers.
    /// `false` for delta patches and for grid builds under the parallel
    /// work threshold.
    pub parallel: bool,
}

/// Estimated grid pair tests below which the build runs inline.
///
/// `grid_by_threads` in `BENCH_crossing.json` showed threads 2 and 8
/// consistently *slower* than 1 up to and including the dense_core
/// fixture (~1M cell pair tests): the executor's fan-out/merge overhead
/// dominates until roughly this much work. The estimate — Σ per cell of
/// `|cell|·(|cell|−1)/2` — is a pure function of the candidate set and
/// grid dims, so the chosen path is deterministic; either path yields
/// the identical index because of the global sort + dedup.
const GRID_PARALLEL_MIN_PAIR_TESTS: u64 = 4_000_000;

/// Cell runs per worker on the parallel path: enough for work stealing
/// to even out dense and sparse runs, few enough that each run's pair
/// buffer is large.
const GRID_TASKS_PER_WORKER: usize = 4;

/// One flattened candidate segment: the unit all builders work on.
struct SegRef {
    net: u32,
    cand: u32,
    seg: u32,
    s: Segment,
}

/// All pairwise crossing counts over a candidate set.
///
/// Flat sorted arenas throughout (see the module docs): parallel
/// `keys`/`records` arrays, one CSR neighbor arena, and a CSR net-level
/// coupling graph. Iteration order is the sorted key order, so runs are
/// bit-reproducible without any tree map.
#[derive(Clone, Debug, Default)]
pub struct CrossingIndex {
    /// Sorted pair keys; `records[i]` belongs to `keys[i]`.
    keys: Vec<PairKey>,
    /// Crossing records in sorted key order.
    records: Vec<PairCross>,
    /// Sorted distinct `(net, cand)` owners of neighbor lists.
    adj_keys: Vec<(usize, usize)>,
    /// CSR offsets into `adj`; `adj_keys.len() + 1` entries.
    adj_off: Vec<u32>,
    /// Neighbor arena: owner `adj_keys[i]`'s list is
    /// `adj[adj_off[i]..adj_off[i + 1]]`.
    adj: Vec<Neighbor>,
    /// CSR offsets into `net_adj`, one row per net id up to the highest
    /// net with a crossing.
    net_adj_off: Vec<u32>,
    /// Sorted, deduplicated coupled-net ids per row.
    net_adj: Vec<u32>,
    /// Provenance of the last build (excluded from equality).
    info: BuildInfo,
}

impl PartialEq for CrossingIndex {
    fn eq(&self, other: &Self) -> bool {
        // The CSR arenas are pure functions of `keys`, and `info` is
        // provenance, not content: two indexes are equal iff their pair
        // maps are.
        self.keys == other.keys && self.records == other.records
    }
}

impl CrossingIndex {
    /// Builds the index over every candidate pair from different hyper
    /// nets whose optical segments properly cross.
    pub fn build(nets: &[NetCandidates]) -> Self {
        Self::build_with(nets, &Executor::sequential())
    }

    /// [`build`](Self::build) on the grid, with the pair tests spread
    /// over `exec`'s workers when the estimated work clears the parallel
    /// threshold. Identical output for every thread count.
    pub fn build_with(nets: &[NetCandidates], exec: &Executor) -> Self {
        Self::build_grid(nets, exec, None)
    }

    /// Provenance of the build that produced this index.
    #[inline]
    pub fn build_info(&self) -> BuildInfo {
        self.info
    }

    /// Grid build (auto-sized cells unless `dims` is given; the explicit
    /// dims are the escape hatch the equivalence proptests use).
    fn build_grid(nets: &[NetCandidates], exec: &Executor, dims: Option<(usize, usize)>) -> Self {
        let (mut hits, parallel) = grid_hits(&collect_segments(nets, |_| true), dims, exec);
        hits.sort_unstable();
        hits.dedup();
        Self::from_pair_list(
            assemble_runs(nets, &hits),
            BuildInfo {
                strategy: ChosenBuild::Grid,
                parallel,
            },
        )
    }

    #[cfg(test)]
    fn build_with_grid_dims(
        nets: &[NetCandidates],
        exec: &Executor,
        dims: Option<(usize, usize)>,
    ) -> Self {
        Self::build_grid(nets, exec, dims)
    }

    /// The pre-grid all-pairs build: scans every net pair with a
    /// bounding-box prefilter, then every candidate pair with overlapping
    /// optical boxes. Retained as the equivalence oracle — the grid build
    /// must produce a byte-identical index.
    pub fn build_reference(nets: &[NetCandidates]) -> Self {
        Self::build_reference_with(nets, &Executor::sequential())
    }

    /// [`build_reference`](Self::build_reference) with net `a`'s row (its
    /// pairs against all `b > a`) spread over `exec`'s workers; rows are
    /// merged in net order afterwards, so the index is identical for
    /// every thread count.
    pub fn build_reference_with(nets: &[NetCandidates], exec: &Executor) -> Self {
        // Net-level prefilter: union bbox of all optical candidates.
        let net_bbox = net_bboxes(nets);

        let rows: Vec<Vec<(PairKey, PairCross)>> = exec.par_map_indexed(&net_bbox, |a, bb_a| {
            let mut row = Vec::new();
            let Some(bb_a) = bb_a else { return row };
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
                        let cross = count_pair(ca, cb);
                        if cross.total > 0 {
                            row.push(((a, ai, b, bi), cross));
                        }
                    }
                }
            }
            row
        });

        Self::from_pair_list(
            rows.into_iter().flatten().collect(),
            BuildInfo {
                strategy: ChosenBuild::BruteForce,
                parallel: true,
            },
        )
    }

    /// Rebuilds the index after the candidates of `changed` nets were
    /// replaced, reusing every record that involves no changed net.
    /// Equivalent to a full [`build`](Self::build) of the new candidate
    /// set, at the cost of the changed rows only.
    ///
    /// Implementation: retained rows are copied across; the dirty
    /// neighborhood — changed nets plus every net whose bounding box
    /// overlaps a changed net's — gets its own grid pass. Pairs between
    /// two unchanged nets found by that pass are discarded (their
    /// retained rows are already exact), so the merge is conflict-free.
    pub fn rebuild_delta(&self, nets: &[NetCandidates], changed: &[usize]) -> Self {
        let mut is_changed = vec![false; nets.len()];
        for &i in changed {
            if i < nets.len() {
                is_changed[i] = true;
            }
        }
        // Retained rows: both nets unchanged. Record contents are cloned
        // into the new arena; their new handles follow the sorted order.
        let mut list: Vec<(PairKey, PairCross)> = Vec::with_capacity(self.keys.len());
        for (key, rec) in self.keys.iter().zip(&self.records) {
            if key.0 < nets.len() && key.2 < nets.len() && !is_changed[key.0] && !is_changed[key.2]
            {
                list.push((*key, rec.clone()));
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
        let involved_segs = collect_segments(nets, |i| involved[i]);
        let (mut hits, _) = grid_hits(&involved_segs, None, &Executor::sequential());
        hits.retain(|&(key, _)| {
            is_changed[(key >> 96) as usize] || is_changed[(key >> 32) as u32 as usize]
        });
        hits.sort_unstable();
        hits.dedup();

        let mut runs = assemble_runs(nets, &hits);
        list.append(&mut runs);
        Self::from_pair_list(
            list,
            BuildInfo {
                strategy: ChosenBuild::Delta,
                parallel: false,
            },
        )
    }

    /// Assembles the dense record vector, the CSR neighbor arena, and
    /// the net-level coupling CSR from a `(key, record)` list. The list
    /// need not be sorted; keys must be unique. `pub(crate)` so the
    /// tile-sharded build can drop its per-tile hit lists *before* the
    /// arena is built — the peak-memory edge over the monolithic path,
    /// which must keep its hit buffer alive through this call.
    pub(crate) fn from_pair_list(mut list: Vec<(PairKey, PairCross)>, info: BuildInfo) -> Self {
        // Keys are unique, so an unstable sort is exact; spatial builds
        // hand the list over already sorted and pay only the scan.
        list.sort_unstable_by_key(|x| x.0);
        let n = list.len();
        let mut keys = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        // Both directions of every record, keyed by owner and ordered by
        // (owner, record handle). The a-side entries inherit that order
        // from the sorted key list (a record's a-owner is its key
        // prefix), so only the b-side is sorted, then a linear two-way
        // merge assembles the CSR without an intermediate 2n-entry sort.
        let mut b_side: Vec<(u128, Neighbor)> = Vec::with_capacity(n);
        for (idx, (key, pc)) in list.into_iter().enumerate() {
            let (na, ca, nb, cb) = key;
            keys.push(key);
            records.push(pc);
            b_side.push((
                pack_owner(nb, cb),
                Neighbor {
                    net: na,
                    cand: ca,
                    record: idx as u32,
                    owner_is_a: false,
                },
            ));
        }
        b_side.sort_unstable_by_key(|&(owner, nb)| (owner, nb.record));

        let mut adj_keys: Vec<(usize, usize)> = Vec::new();
        let mut adj_off: Vec<u32> = Vec::new();
        let mut adj: Vec<Neighbor> = Vec::with_capacity(2 * n);
        let (mut i, mut j) = (0usize, 0usize);
        while i < n || j < b_side.len() {
            let take_a = if i == n {
                false
            } else if j == b_side.len() {
                true
            } else {
                let (na, ca, _, _) = keys[i];
                (pack_owner(na, ca), i as u32) <= (b_side[j].0, b_side[j].1.record)
            };
            let (owner, nb) = if take_a {
                let (na, ca, onet, ocand) = keys[i];
                let nb = Neighbor {
                    net: onet,
                    cand: ocand,
                    record: i as u32,
                    owner_is_a: true,
                };
                i += 1;
                ((na, ca), nb)
            } else {
                let (packed, nb) = b_side[j];
                j += 1;
                (unpack_owner(packed), nb)
            };
            if adj_keys.last() != Some(&owner) {
                adj_keys.push(owner);
                adj_off.push(adj.len() as u32);
            }
            adj.push(nb);
        }
        adj_off.push(adj.len() as u32);

        // Net-level coupling CSR: sorted deduplicated rows, one per net
        // id up to the highest net that crosses anything. Pairs are
        // packed into u64s so the sort runs on plain integers.
        let net_hi = keys.iter().map(|k| k.2 + 1).max().unwrap_or(0);
        let mut pairs_nn: Vec<u64> = Vec::with_capacity(2 * keys.len());
        for &(a, _, b, _) in &keys {
            pairs_nn.push(((a as u64) << 32) | b as u64);
            pairs_nn.push(((b as u64) << 32) | a as u64);
        }
        pairs_nn.sort_unstable();
        pairs_nn.dedup();
        let mut net_adj_off = vec![0u32; net_hi + 1];
        let mut net_adj = Vec::with_capacity(pairs_nn.len());
        for packed in pairs_nn {
            let (n, o) = ((packed >> 32) as usize, packed as u32);
            net_adj.push(o);
            net_adj_off[n + 1] = net_adj.len() as u32;
        }
        for i in 0..net_hi {
            if net_adj_off[i + 1] < net_adj_off[i] {
                net_adj_off[i + 1] = net_adj_off[i];
            }
        }

        Self {
            keys,
            records,
            adj_keys,
            adj_off,
            adj,
            net_adj_off,
            net_adj,
            info,
        }
    }

    /// The crossing record of a candidate pair, if they cross. The nets
    /// may be given in either order.
    pub fn pair(
        &self,
        net_a: usize,
        cand_a: usize,
        net_b: usize,
        cand_b: usize,
    ) -> Option<&PairCross> {
        let key = if net_a < net_b {
            (net_a, cand_a, net_b, cand_b)
        } else {
            (net_b, cand_b, net_a, cand_a)
        };
        self.keys.binary_search(&key).ok().map(|i| &self.records[i])
    }

    /// The crossing record behind a neighbor-list entry — no map walk.
    #[inline]
    pub fn record(&self, nb: &Neighbor) -> &PairCross {
        &self.records[nb.record as usize]
    }

    /// Per-path crossing counts of a neighbor-list entry, as
    /// `(owner's side, neighbor's side)` — the cached equivalent of a
    /// `pair()` lookup plus the `net < other` side selection.
    #[inline]
    pub fn per_path(&self, nb: &Neighbor) -> (&PathCounts, &PathCounts) {
        let pc = &self.records[nb.record as usize];
        if nb.owner_is_a {
            (&pc.per_path_a, &pc.per_path_b)
        } else {
            (&pc.per_path_b, &pc.per_path_a)
        }
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
            &pc.per_path_a
        } else {
            &pc.per_path_b
        };
        per_path
            .iter()
            .find(|&&(p, _)| p == path)
            .map_or(0, |&(_, n)| n)
    }

    /// Iterates over all crossing pairs as
    /// `((net_a, cand_a, net_b, cand_b), record)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, &PairCross)> {
        self.keys.iter().copied().zip(self.records.iter())
    }

    /// The candidates of other nets that cross `(net, cand)`.
    pub fn neighbors(&self, net: usize, cand: usize) -> &[Neighbor] {
        match self.adj_keys.binary_search(&(net, cand)) {
            Ok(i) => &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// The nets coupled to `net` through at least one crossing candidate
    /// pair, sorted ascending — a borrowed CSR row, precomputed at build
    /// time so pricing loops pay no per-call assembly.
    #[inline]
    pub fn net_neighbors(&self, net: usize) -> &[u32] {
        if net + 1 >= self.net_adj_off.len() {
            return &[];
        }
        &self.net_adj[self.net_adj_off[net] as usize..self.net_adj_off[net + 1] as usize]
    }

    /// Net-level adjacency over `net_count` nets: `adj[i]` lists, sorted
    /// ascending, the nets sharing at least one crossing candidate pair
    /// with net `i`. Materialized from the CSR rows; hot paths should
    /// use [`net_neighbors`](Self::net_neighbors) directly.
    pub fn net_adjacency(&self, net_count: usize) -> Vec<Vec<usize>> {
        (0..net_count)
            .map(|i| {
                self.net_neighbors(i)
                    .iter()
                    .map(|&n| n as usize)
                    .filter(|&n| n < net_count)
                    .collect()
            })
            .collect()
    }

    /// Number of crossing candidate pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no candidate pair crosses.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A spatial-build crossing tuple in packed form: the candidate-pair
/// key folded into a `u128` whose integer order equals [`PairKey`]
/// order (all handles are `u32`), and the crossing segment indexes
/// folded into a `u64`. Sorting and deduplicating millions of these is
/// a fraction of the cost of the 40-byte tuple they replace.
pub(crate) type Hit = (u128, u64);

#[inline]
fn pack_hit(p: &SegRef, q: &SegRef) -> Hit {
    (
        ((p.net as u128) << 96)
            | ((p.cand as u128) << 64)
            | ((q.net as u128) << 32)
            | q.cand as u128,
        ((p.seg as u64) << 32) | q.seg as u64,
    )
}

#[inline]
fn hit_key(packed: u128) -> PairKey {
    (
        (packed >> 96) as usize,
        (packed >> 64) as u32 as usize,
        (packed >> 32) as u32 as usize,
        packed as u32 as usize,
    )
}

/// The `(net_a, net_b)` pair of a packed hit key (`net_a < net_b`) —
/// the tile-sharded build's retain filters classify hits by net id.
#[inline]
pub(crate) fn hit_nets(packed: u128) -> (usize, usize) {
    ((packed >> 96) as usize, (packed >> 32) as u32 as usize)
}

/// `(net, cand)` packed so that integer order equals tuple order.
#[inline]
fn pack_owner(net: usize, cand: usize) -> u128 {
    ((net as u128) << 64) | cand as u128
}

#[inline]
fn unpack_owner(packed: u128) -> (usize, usize) {
    ((packed >> 64) as usize, packed as u64 as usize)
}

/// Flattens every non-degenerate optical segment of the nets `keep`
/// accepts, in (net, cand, seg) order; degenerate segments can never
/// properly cross anything.
fn collect_segments(nets: &[NetCandidates], keep: impl Fn(usize) -> bool) -> Vec<SegRef> {
    let mut segs: Vec<SegRef> = Vec::new();
    for (i, nc) in nets.iter().enumerate() {
        if !keep(i) {
            continue;
        }
        for (j, c) in nc.candidates.iter().enumerate() {
            for (k, s) in c.optical_segments.iter().enumerate() {
                if s.is_degenerate() {
                    continue;
                }
                segs.push(SegRef {
                    net: i as u32,
                    cand: j as u32,
                    seg: k as u32,
                    s: *s,
                });
            }
        }
    }
    segs
}

/// Grid-bucketed packed hits over the flattened segments: the one
/// crossing kernel, shared by the full build, [`CrossingIndex::rebuild_delta`]
/// and [`subset_hits`]. Returns the unsorted hits and whether the pair
/// tests ran on the executor's workers.
///
/// Each crossing is reported once, by the cell that owns its crossing
/// point; only [`SegmentGrid::owns_crossing`]'s overflow fallback (far
/// beyond die-scale coordinates) can repeat a hit, so callers keep their
/// dedup as the safety net.
fn grid_hits(segs: &[SegRef], dims: Option<(usize, usize)>, exec: &Executor) -> (Vec<Hit>, bool) {
    if segs.len() < 2 {
        return (Vec::new(), false);
    }
    let (pairs, parallel) = {
        let mut extent = BoundingBox::new(segs[0].s.a, segs[0].s.b);
        for sr in &segs[1..] {
            extent = extent.union(&BoundingBox::new(sr.s.a, sr.s.b));
        }
        let mut grid = match dims {
            Some((cols, rows)) => SegmentGrid::new(extent, cols, rows),
            None => SegmentGrid::sized(extent, segs.len()),
        };
        for (id, sr) in segs.iter().enumerate() {
            grid.insert(id as u32, sr.s);
        }
        let cells: Vec<usize> = grid
            .nonempty_cells()
            .into_iter()
            .filter(|&c| grid.cell_items(c).len() >= 2)
            .collect();

        // Every properly-crossing segment pair co-occupies the cell of
        // its crossing point (the grid's coverage invariant), and only
        // that cell reports it.
        let pair_tests: u64 = cells
            .iter()
            .map(|&c| {
                let n = grid.cell_items(c).len() as u64;
                n * (n - 1) / 2
            })
            .sum();
        let test_cell = |cell: usize, out: &mut Vec<(u32, u32)>| {
            let ids = grid.cell_items(cell);
            for (x, &ia) in ids.iter().enumerate() {
                let a = &segs[ia as usize];
                for &ib in &ids[x + 1..] {
                    let b = &segs[ib as usize];
                    if a.net != b.net && a.s.crosses(&b.s) && grid.owns_crossing(cell, &a.s, &b.s) {
                        out.push((ia, ib));
                    }
                }
            }
        };
        // Small builds run as one inline task: the executor's fan-out
        // overhead exceeds the pair-test work. Larger ones split the
        // cells into a few contiguous runs per worker, each with one
        // pair buffer; thousands of per-cell buffers left worker heaps
        // holding ~20 MiB more on I5. The caller's global sort makes
        // every split byte-identical.
        let parallel = pair_tests >= GRID_PARALLEL_MIN_PAIR_TESTS;
        let tasks = if parallel {
            GRID_TASKS_PER_WORKER * exec.threads()
        } else {
            1
        };
        let runs: Vec<&[usize]> = cells.chunks(cells.len().div_ceil(tasks).max(1)).collect();
        let pairs: Vec<Vec<(u32, u32)>> = exec.par_map_coarse(&runs, |run| {
            let mut out = Vec::new();
            for &cell in *run {
                test_cell(cell, &mut out);
            }
            out
        });
        (pairs, parallel)
    };

    // The 8-byte id pairs grow while the cells are tested; the 32-byte
    // hits are packed once, into a buffer of exact size.
    let mut hits: Vec<Hit> = Vec::with_capacity(pairs.iter().map(Vec::len).sum());
    for &(ia, ib) in pairs.iter().flatten() {
        let (a, b) = (&segs[ia as usize], &segs[ib as usize]);
        let (p, q) = if a.net < b.net { (a, b) } else { (b, a) };
        hits.push(pack_hit(p, q));
    }
    (hits, parallel)
}

/// Packed hits among the nets flagged in `involved`, from a grid pass
/// over the subset's segments. Unsorted; the caller owns the sort +
/// dedup (the tile-sharded build filters, merges, and deduplicates tile
/// outputs before assembly).
pub(crate) fn subset_hits(nets: &[NetCandidates], involved: &[bool], exec: &Executor) -> Vec<Hit> {
    grid_hits(&collect_segments(nets, |i| involved[i]), None, exec).0
}

/// Groups sorted hit tuples into per-key runs and assembles one record
/// per run, reproducing `count_pair`'s attribution exactly. Attribution
/// runs over a lazily-built per-candidate inverted path index plus
/// reusable accumulator scratch, so a candidate's path structure is
/// walked once no matter how many pairs it participates in.
fn assemble_runs(nets: &[NetCandidates], hits: &[Hit]) -> Vec<(PairKey, PairCross)> {
    let mut out: Vec<(PairKey, PairCross)> = Vec::with_capacity(hits.len());
    let mut scratch = AssembleScratch::new(nets);
    let mut i = 0;
    while i < hits.len() {
        let packed = hits[i].0;
        let mut j = i + 1;
        while j < hits.len() && hits[j].0 == packed {
            j += 1;
        }
        let key = hit_key(packed);
        out.push((key, scratch.assemble_pair(nets, key, &hits[i..j])));
        i = j;
    }
    out
}

/// Assembles crossing records from several sorted, deduplicated,
/// **key-disjoint** hit runs via a k-way merge — the tile-sharded
/// build's funnel. Equivalent to concatenating the runs, sorting,
/// deduplicating, and calling [`assemble_runs`], but without ever
/// materializing the merged hit buffer: the peak is one record list
/// instead of two hit copies.
///
/// Disjointness (no key occurs in two runs) is what the shard retain
/// rule guarantees; every hit of a key therefore sits contiguously in
/// exactly one run, so each group can be assembled straight from its
/// run slice.
pub(crate) fn assemble_sorted_runs(
    nets: &[NetCandidates],
    runs: &[&[Hit]],
) -> Vec<(PairKey, PairCross)> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out: Vec<(PairKey, PairCross)> = Vec::with_capacity(total);
    let mut scratch = AssembleScratch::new(nets);
    let mut pos = vec![0usize; runs.len()];
    loop {
        // The run holding the smallest unconsumed key.
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if pos[r] < run.len() && best.is_none_or(|b: usize| run[pos[r]].0 < runs[b][pos[b]].0) {
                best = Some(r);
            }
        }
        let Some(r) = best else { break };
        let run = runs[r];
        let i = pos[r];
        let packed = run[i].0;
        let mut j = i + 1;
        while j < run.len() && run[j].0 == packed {
            j += 1;
        }
        let key = hit_key(packed);
        out.push((key, scratch.assemble_pair(nets, key, &run[i..j])));
        pos[r] = j;
    }
    debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "runs not disjoint");
    out
}

/// Union bbox of each net's optical candidates (the net-level prefilter;
/// also the tile-sharded build's interior/boundary classifier).
pub(crate) fn net_bboxes(nets: &[NetCandidates]) -> Vec<Option<BoundingBox>> {
    nets.iter()
        .map(|nc| {
            nc.candidates
                .iter()
                .filter_map(|c| c.optical_bbox)
                .reduce(|a, b| a.union(&b))
        })
        .collect()
}

/// Counts proper crossings between two candidates and attributes them to
/// detector paths on both sides.
fn count_pair(
    a: &crate::codesign::CandidateRoute,
    b: &crate::codesign::CandidateRoute,
) -> PairCross {
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
    if total == 0 {
        return PairCross::default();
    }
    PairCross {
        per_path_a: attribute(&a.paths, &seg_a),
        per_path_b: attribute(&b.paths, &seg_b),
        total,
    }
}

/// Per-candidate inverted path index: for each optical segment, the
/// detector paths that traverse it (CSR, with multiplicity). The
/// transpose of `PathLoss::segments`, so hit attribution touches only
/// the segments that actually cross instead of every path × segment.
struct SegPathIndex {
    off: Vec<u32>,
    paths: Vec<u32>,
    n_paths: usize,
}

fn seg_path_index(c: &crate::codesign::CandidateRoute) -> SegPathIndex {
    let nsegs = c.optical_segments.len();
    let mut off = vec![0u32; nsegs + 1];
    for p in &c.paths {
        for &s in &p.segments {
            off[s + 1] += 1;
        }
    }
    for i in 0..nsegs {
        off[i + 1] += off[i];
    }
    let mut cursor = off.clone();
    let mut paths = vec![0u32; off[nsegs] as usize];
    for (pi, p) in c.paths.iter().enumerate() {
        for &s in &p.segments {
            paths[cursor[s] as usize] = pi as u32;
            cursor[s] += 1;
        }
    }
    SegPathIndex {
        off,
        paths,
        n_paths: c.paths.len(),
    }
}

/// Reusable state for [`assemble_runs`]: lazily-built inverted indexes
/// (one slot per candidate, filled the first time the candidate appears
/// in a hit) and the path-count accumulator, zeroed between uses via the
/// touched list.
struct AssembleScratch {
    cand_off: Vec<usize>,
    inv: Vec<Option<SegPathIndex>>,
    acc: Vec<usize>,
    touched: Vec<u32>,
}

impl AssembleScratch {
    fn new(nets: &[NetCandidates]) -> Self {
        let mut cand_off = Vec::with_capacity(nets.len() + 1);
        cand_off.push(0usize);
        for nc in nets {
            let prev = *cand_off.last().unwrap_or(&0);
            cand_off.push(prev + nc.candidates.len());
        }
        let total = *cand_off.last().unwrap_or(&0);
        let mut inv: Vec<Option<SegPathIndex>> = Vec::new();
        inv.resize_with(total, || None);
        Self {
            cand_off,
            inv,
            acc: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Builds one pair record from the deduplicated packed hits a
    /// spatial build found for `key`.
    fn assemble_pair(&mut self, nets: &[NetCandidates], key: PairKey, hits: &[Hit]) -> PairCross {
        let (na, ca, nb, cb) = key;
        PairCross {
            per_path_a: self.per_path_side(nets, na, ca, hits, true),
            per_path_b: self.per_path_side(nets, nb, cb, hits, false),
            total: hits.len(),
        }
    }

    /// Path attribution for one side of a pair: ascending
    /// `(path index, count)` over paths with at least one crossing —
    /// byte-identical to [`attribute`] over per-segment counts.
    fn per_path_side(
        &mut self,
        nets: &[NetCandidates],
        net: usize,
        cand: usize,
        hits: &[Hit],
        side_a: bool,
    ) -> Vec<(usize, usize)> {
        let slot = self.cand_off[net] + cand;
        if self.inv[slot].is_none() {
            self.inv[slot] = Some(seg_path_index(&nets[net].candidates[cand]));
        }
        let Some(idx) = self.inv[slot].as_ref() else {
            return Vec::new();
        };
        if self.acc.len() < idx.n_paths {
            self.acc.resize(idx.n_paths, 0);
        }
        self.touched.clear();
        for &(_, segs) in hits {
            let s = if side_a {
                segs >> 32
            } else {
                segs as u32 as u64
            } as usize;
            for &p in &idx.paths[idx.off[s] as usize..idx.off[s + 1] as usize] {
                if self.acc[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.acc[p as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        let out: Vec<(usize, usize)> = self
            .touched
            .iter()
            .map(|&p| (p as usize, self.acc[p as usize]))
            .collect();
        for &p in &self.touched {
            self.acc[p as usize] = 0;
        }
        out
    }
}

/// Sums per-segment crossing counts along each detector path, keeping
/// `(path index, count)` for paths that suffer at least one crossing.
fn attribute(paths: &[crate::codesign::PathLoss], seg: &[usize]) -> Vec<(usize, usize)> {
    paths
        .iter()
        .enumerate()
        .filter_map(|(pi, p)| {
            let n: usize = p.segments.iter().map(|&s| seg[s]).sum();
            (n > 0).then_some((pi, n))
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

    /// Full structural equality: semantic value (keys + records) plus the
    /// derived CSR arenas, so a builder that corrupted neighbor lists or
    /// the net coupling graph cannot hide behind the `PartialEq` impl.
    fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pair count");
        assert_eq!(a.keys, b.keys, "{label}: keys");
        assert_eq!(a.records, b.records, "{label}: records");
        assert_eq!(a.adj_keys, b.adj_keys, "{label}: neighbor owners");
        assert_eq!(a.adj_off, b.adj_off, "{label}: neighbor offsets");
        assert_eq!(a.adj, b.adj, "{label}: neighbor arena");
        assert_eq!(a.net_adj_off, b.net_adj_off, "{label}: net CSR offsets");
        assert_eq!(a.net_adj, b.net_adj, "{label}: net CSR");
    }

    #[test]
    fn crossing_pair_detected_and_attributed() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert_eq!(idx.len(), 1);
        let pc = idx.pair(0, 0, 1, 0).expect("pair crosses");
        assert_eq!(pc.total, 1);
        assert_eq!(pc.per_path_a, vec![(0, 1)]);
        assert_eq!(pc.per_path_b, vec![(0, 1)]);
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
        let idx = CrossingIndex::build(&nets);
        assert!(idx.is_empty());
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 0);
    }

    #[test]
    fn disjoint_bboxes_prefiltered() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(10, 10)),
            optical_net(1, Point::new(1000, 1000), Point::new(1010, 1010)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.is_empty());
    }

    #[test]
    fn shared_endpoint_is_not_a_proper_crossing() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(100, 100), Point::new(200, 0)),
        ];
        let idx = CrossingIndex::build(&nets);
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
        let idx = CrossingIndex::build(&nets);
        let pc = idx.pair(0, 0, 1, 0).expect("crossing");
        assert_eq!(pc.total, 2);
        // Both of net 0's sink paths suffer one crossing (on their own
        // arm); net 1's single path suffers both.
        assert_eq!(pc.per_path_a.len(), 2);
        assert!(pc.per_path_a.iter().all(|&(_, n)| n == 1));
        assert_eq!(pc.per_path_b, vec![(0, 2)]);
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
        let idx = CrossingIndex::build(&[merged]);
        assert!(idx.is_empty());
    }

    #[test]
    fn neighbors_mirror_pairs() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
            optical_net(2, Point::new(50, 0), Point::new(50, 100)),
        ];
        let idx = CrossingIndex::build(&nets);
        // Every pair entry appears in both endpoints' neighbor lists, and
        // every neighbor entry resolves to the same record via the cached
        // handle and the binary-search lookup.
        for ((na, ca, nb, cb), pc) in idx.iter() {
            assert!(idx.neighbors(na, ca).iter().any(|n| n.key() == (nb, cb)));
            assert!(idx.neighbors(nb, cb).iter().any(|n| n.key() == (na, ca)));
            assert_eq!(idx.pair(na, ca, nb, cb), Some(pc));
        }
        for net in 0..nets.len() {
            for nb in idx.neighbors(net, 0) {
                let via_map = idx.pair(net, 0, nb.net, nb.cand).expect("pair exists");
                assert_eq!(idx.record(nb), via_map);
                let (own, other) = idx.per_path(nb);
                if net < nb.net {
                    assert_eq!(own, via_map.per_path_a.as_slice());
                    assert_eq!(other, via_map.per_path_b.as_slice());
                } else {
                    assert_eq!(own, via_map.per_path_b.as_slice());
                    assert_eq!(other, via_map.per_path_a.as_slice());
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
        let seq = CrossingIndex::build(&nets);
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
        assert_eq!(idx.build_info().strategy, ChosenBuild::Grid);
        assert!(!idx.build_info().parallel);
        assert_eq!(idx.len(), 1);
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
            assert_eq!(idx.build_info().strategy, ChosenBuild::Grid);
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
        let before = CrossingIndex::build(&nets);
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
        assert_index_eq(&delta, &CrossingIndex::build(&nets), "delta beyond 2^40");
        assert_eq!(delta.build_info().strategy, ChosenBuild::Delta);
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
            let segs = collect_segments(&nets, |_| true);
            let exec = Executor::sequential();
            let (hits, _) = grid_hits(&segs, Some((cols, rows)), &exec);
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
    fn rebuild_delta_equals_full_build() {
        let mut nets: Vec<NetCandidates> = (0..10)
            .map(|k| {
                let y0 = (k as i64) * 90;
                optical_net(k, Point::new(0, y0), Point::new(1000, 900 - y0))
            })
            .collect();
        let before = CrossingIndex::build(&nets);
        // Replace two nets' geometry (one reroute, one that stops
        // crossing anything) and patch the index.
        nets[3] = optical_net(3, Point::new(0, 500), Point::new(1000, 70));
        nets[7] = optical_net(7, Point::new(5000, 5000), Point::new(6000, 6000));
        let delta = before.rebuild_delta(&nets, &[3, 7]);
        let full = CrossingIndex::build(&nets);
        assert_index_eq(&delta, &full, "delta vs full");
        assert_eq!(delta.build_info().strategy, ChosenBuild::Delta);
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
    }

    #[test]
    fn net_adjacency_lists_coupled_nets() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
            optical_net(2, Point::new(2000, 0), Point::new(2000, 100)),
        ];
        let idx = CrossingIndex::build(&nets);
        let adj = idx.net_adjacency(3);
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0]);
        assert!(adj[2].is_empty());
        // The CSR rows agree with the materialized lists.
        assert_eq!(idx.net_neighbors(0), &[1]);
        assert_eq!(idx.net_neighbors(1), &[0]);
        assert!(idx.net_neighbors(2).is_empty());
        assert!(idx.net_neighbors(99).is_empty());
    }

    #[test]
    fn neighbors_of_unknown_candidate_is_empty() {
        let nets = vec![optical_net(0, Point::new(0, 0), Point::new(100, 100))];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.neighbors(0, 0).is_empty());
        assert!(idx.neighbors(5, 9).is_empty());
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

    proptest! {
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
                }
            }
        }

        /// `rebuild_delta` (localized grid pass) against a full rebuild
        /// after replacing a random subset of nets.
        #[test]
        fn rebuild_delta_equals_full_rebuild_on_random_changes(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                    1..3,
                ),
                3..8,
            ),
            replacement in proptest::collection::vec(
                proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                1..3,
            ),
            which in 0usize..8,
        ) {
            let mut nets = random_nets(&raw);
            let before = CrossingIndex::build(&nets);
            let target = which % nets.len();
            let pts: Vec<Vec<Point>> = replacement
                .iter()
                .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .collect();
            nets[target] = chain_net(target, &pts);
            let delta = before.rebuild_delta(&nets, &[target]);
            let full = CrossingIndex::build(&nets);
            assert_index_eq(&delta, &full, "random delta vs full");
        }
    }
}
