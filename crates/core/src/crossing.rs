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
//!   Below a deterministic work threshold the per-cell tests and the
//!   funnel run inline instead of on the executor, because the
//!   fan-out/merge overhead exceeds the work at small sizes.
//! * **Brute force** ([`CrossingIndex::build_reference`]) — all candidate
//!   pairs behind net- and candidate-level bounding-box prefilters (the
//!   paper's "non-overlapped bounding boxes" variable reduction).
//!   Retained as the equivalence oracle for tests and benchmarks.
//!
//! The spatial builds pass their crossings through one funnel (see
//! `funnel`): a counting sort buckets the packed hits (see `Hit`) by
//! candidate A, and contiguous candidate ranges then sort, deduplicate
//! and assemble their buckets on the executor's workers, each into its
//! own window of the arenas. Every build fills the same arenas in
//! ascending key order, so the index is a pure function of the candidate
//! set — independent of builder, cell count, range count, iteration
//! order, and thread count.
//!
//! # Arena layout
//!
//! No record owns a heap allocation: the index is a handful of flat
//! vectors, so building, cloning and dropping it touch a few large
//! buffers, and no tree map sits on any hot path.
//!
//! * **Records.** `keys` holds the packed pair keys in ascending order
//!   (integer order is `(net_a, cand_a, net_b, cand_b)` order); record
//!   `i` belongs to `keys[i]`. All per-path counts share one `counts`
//!   arena of `(path, crossings)` entries: with `(a_end, b_end) =
//!   ends[i]` and `start` the previous record's `b_end`, side A is
//!   `counts[start..a_end]` and side B `counts[a_end..b_end]`.
//!   `totals[i]` is the pair's segment-crossing count. [`PairCross`] is a
//!   `Copy` view of one record; `pair()` is a binary search over `keys`.
//! * **Neighbor lists.** Candidates get dense global ids in `(net, cand)`
//!   order — net `n`'s candidates are ids `cand_base[n]..cand_base[n +
//!   1]` — and candidate `g`'s list is `adj[adj_off[g]..adj_off[g + 1]]`,
//!   an O(1) slice. A 12-byte [`Neighbor`] names the other candidate and
//!   the record, with the list owner's side in the handle's top bit. The
//!   lists are filled by a counting sort in record order, so each one is
//!   ascending by record.
//! * **Net coupling.** The rows LR pricing walks every iteration
//!   ([`CrossingIndex::net_neighbors`]) are a second CSR
//!   (`net_adj_off`/`net_adj`): per net, the sorted distinct nets its
//!   candidates' neighbor lists name.
//!
//! Builds write records straight from the sorted hits: the grid build
//! through the funnel, [`CrossingIndex::rebuild_delta`] by merging its
//! retained rows with the funnel's recounted records. The neighbor and
//! net arenas are derived last, after the hit buffer is freed. Record
//! handles are positions in key order, re-derived by every build.

use crate::codesign::{CandidateRoute, NetCandidates, PathLoss};
use operon_exec::Executor;
use operon_geom::{BoundingBox, Segment, SegmentGrid};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    net: u32,
    cand: u32,
    /// Record index, with [`OWNER_IS_A`] set when the list owner is
    /// side A of the record.
    handle: u32,
}

impl Neighbor {
    /// The crossing net.
    #[inline]
    pub fn net(&self) -> usize {
        self.net as usize
    }

    /// The crossing net's candidate index.
    #[inline]
    pub fn cand(&self) -> usize {
        self.cand as usize
    }

    /// The `(net, cand)` pair of this neighbor.
    #[inline]
    pub fn key(&self) -> (usize, usize) {
        (self.net(), self.cand())
    }

    #[inline]
    fn record(&self) -> usize {
        (self.handle & !OWNER_IS_A) as usize
    }
}

/// Estimated grid pair tests below which the build runs inline.
///
/// With the die-scale ownership test and the parallel funnel, 2
/// workers on 2 vCPUs beat the inline build from ~40k pair tests up
/// (prefixes of the Table 1 I2 candidate set: 284k tests in 13 vs
/// 17 ms, 1.03M in 42 vs 63 ms). Oversubscribed executors (8 workers on
/// 2 vCPUs) lose below ~500k and break even near 1M, so the bar sits
/// between the two; `dense_core` and `paper_i2` in `BENCH_crossing.json`
/// run above it. The estimate — Σ per cell of `|cell|·(|cell|−1)/2` —
/// is a pure function of the candidate set and grid dims, so the chosen
/// path is deterministic; either path yields the identical index
/// because the funnel sorts within each candidate's bucket.
const GRID_PARALLEL_MIN_PAIR_TESTS: u64 = 250_000;

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

/// One flattened candidate segment: the unit all builders work on.
struct SegRef {
    net: u32,
    /// Global candidate id (see [`CandIds`]).
    cand: u32,
    seg: u32,
    s: Segment,
}

/// All pairwise crossing counts over a candidate set.
///
/// Flat arenas throughout (see the module docs): sorted packed keys with
/// one shared path-count arena, a CSR neighbor arena indexed by global
/// candidate id, and a CSR net-level coupling graph. Iteration order is
/// the sorted key order, so runs are bit-reproducible without any tree
/// map.
#[derive(Clone, Debug, Default)]
pub struct CrossingIndex {
    /// Sorted packed pair keys ([`pack_key`]); record `i` is `keys[i]`.
    keys: Vec<u128>,
    /// Per-path count arena, record by record, side A before side B.
    counts: Vec<(u32, u32)>,
    /// Per record, the end offsets of its side-A and side-B counts.
    ends: Vec<(u32, u32)>,
    /// Per record, the total segment crossings.
    totals: Vec<u32>,
    /// Global candidate id prefix over nets, `nets + 1` entries.
    cand_base: Vec<u32>,
    /// CSR offsets into `adj`, one row per global candidate id.
    adj_off: Vec<u32>,
    /// Neighbor arena: candidate `g`'s list is
    /// `adj[adj_off[g]..adj_off[g + 1]]`.
    adj: Vec<Neighbor>,
    /// CSR offsets into `net_adj`, one row per net.
    net_adj_off: Vec<u32>,
    /// Sorted, deduplicated coupled-net ids per row.
    net_adj: Vec<u32>,
    /// Whether the last build's pair tests and funnel took the parallel
    /// path (excluded from equality).
    parallel: bool,
}

impl PartialEq for CrossingIndex {
    fn eq(&self, other: &Self) -> bool {
        // The record arenas are laid out canonically (key order, side A
        // first), the neighbor and net arenas are pure functions of the
        // keys, and `parallel` is provenance, not content: two indexes are
        // equal iff their pair maps are.
        self.keys == other.keys
            && self.totals == other.totals
            && self.ends == other.ends
            && self.counts == other.counts
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
        let segs = collect_segments(nets, &ids, |_| true);
        let (pairs, parallel) = grid_pairs(&segs, dims, exec);
        let ranges = ranges.unwrap_or(grid_tasks(parallel, exec));
        let records = funnel(nets, &ids, segs, pairs, |_, _| true, ranges, exec);
        Self::from_records(records, ids.base, parallel)
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
        // Net-level prefilter: union bbox of all optical candidates.
        let net_bbox = net_bboxes(nets);

        let mut rows: Vec<(u128, OwnedRecord)> = Vec::new();
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
                            let key = pack_key(a as u32, ai as u32, b as u32, bi as u32);
                            rows.push((key, record));
                        }
                    }
                }
            }
        }

        rows.sort_unstable_by_key(|row| row.0);
        let mut records = Records::with_capacity(rows.len());
        for (key, (per_a, per_b, total)) in &rows {
            records.push(*key, per_a, per_b, *total);
        }
        Self::from_records(records, CandIds::new(nets).base, false)
    }

    /// Rebuilds the index after the candidates of `changed` nets were
    /// replaced, reusing every record that involves no changed net.
    /// Equivalent to a full [`build_with`](Self::build_with) of the new
    /// candidate set, at the cost of the changed rows only.
    ///
    /// Implementation: the dirty neighborhood — changed nets plus every
    /// net whose bounding box overlaps a changed net's — gets its own
    /// grid pass, whose hits are kept only when they involve a changed
    /// net. Every retained row involves no changed net, so the two key
    /// sets are disjoint and one linear merge appends both in key order.
    pub fn rebuild_delta(&self, nets: &[NetCandidates], changed: &[usize]) -> Self {
        let mut is_changed = vec![false; nets.len()];
        for &i in changed {
            if i < nets.len() {
                is_changed[i] = true;
            }
        }

        // Dirty neighborhood: changed nets and bbox-overlapping others.
        // A pair crossing a changed net must overlap its bbox, so the
        // local grid pass sees every pair that needs recounting.
        let ids = CandIds::new(nets);
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
        let involved_segs = collect_segments(nets, &ids, |i| involved[i]);
        let (pairs, _) = grid_pairs(&involved_segs, None, &Executor::sequential());
        let changed_pair =
            |p: &SegRef, q: &SegRef| is_changed[p.net as usize] || is_changed[q.net as usize];
        let recount = funnel(
            nets,
            &ids,
            involved_segs,
            pairs,
            changed_pair,
            1,
            &Executor::sequential(),
        );

        // Retained rows (both nets unchanged) interleaved with the
        // recounted records, in key order.
        let mut records = Records::with_capacity(self.len() + recount.keys.len());
        let mut fresh = (0..recount.keys.len()).peekable();
        for (i, &key) in self.keys.iter().enumerate() {
            let (na, nb) = key_nets(key);
            if na >= nets.len() || nb >= nets.len() || is_changed[na] || is_changed[nb] {
                continue;
            }
            while let Some(j) = fresh.next_if(|&j| recount.keys[j] < key) {
                records.push_record(&recount, j);
            }
            let pc = self.view(i);
            records.push(key, pc.per_path_a, pc.per_path_b, pc.total);
        }
        for j in fresh {
            records.push_record(&recount, j);
        }
        Self::from_records(records, ids.base, false)
    }

    /// Completes an index from its record arenas: derives the neighbor
    /// CSR and the net-level coupling CSR. `cand_base` is the global
    /// candidate id prefix over the nets the records were built from.
    fn from_records(records: Records, cand_base: Vec<u32>, parallel: bool) -> Self {
        let Records {
            mut keys,
            mut counts,
            mut ends,
            mut totals,
        } = records;
        // Capacities were estimates (the count arena doubles when sides
        // list several paths); the index keeps exactly what it holds.
        keys.shrink_to_fit();
        counts.shrink_to_fit();
        ends.shrink_to_fit();
        totals.shrink_to_fit();
        let n_cands = cand_base.last().map_or(0, |&n| n as usize);
        let id = |net: u32, cand: u32| cand_base[net as usize] as usize + cand as usize;

        // Neighbor CSR by counting sort: degrees, prefix sums, then one
        // pass in record order, so every list is ascending by record.
        let mut adj_off = vec![0u32; n_cands + 1];
        for &key in &keys {
            let (na, ca, nb, cb) = split_key(key);
            adj_off[id(na, ca) + 1] += 1;
            adj_off[id(nb, cb) + 1] += 1;
        }
        for g in 0..n_cands {
            adj_off[g + 1] += adj_off[g];
        }
        let mut cursor = adj_off.clone();
        let placeholder = Neighbor {
            net: 0,
            cand: 0,
            handle: 0,
        };
        let mut adj = vec![placeholder; 2 * keys.len()];
        debug_assert!(
            keys.len() <= OWNER_IS_A as usize,
            "record handles overflow 31 bits"
        );
        for (i, &key) in keys.iter().enumerate() {
            let (na, ca, nb, cb) = split_key(key);
            let (ga, gb) = (id(na, ca), id(nb, cb));
            adj[cursor[ga] as usize] = Neighbor {
                net: nb,
                cand: cb,
                handle: i as u32 | OWNER_IS_A,
            };
            cursor[ga] += 1;
            adj[cursor[gb] as usize] = Neighbor {
                net: na,
                cand: ca,
                handle: i as u32,
            };
            cursor[gb] += 1;
        }

        // Net-level coupling CSR: per net, the distinct nets its
        // candidates' lists name, sorted.
        let n_nets = cand_base.len().saturating_sub(1);
        let mut net_adj_off = Vec::with_capacity(n_nets + 1);
        net_adj_off.push(0u32);
        let mut net_adj: Vec<u32> = Vec::new();
        let mut seen = vec![u32::MAX; n_nets];
        for n in 0..n_nets {
            let row = net_adj.len();
            let lo = adj_off[cand_base[n] as usize] as usize;
            let hi = adj_off[cand_base[n + 1] as usize] as usize;
            for nb in &adj[lo..hi] {
                if seen[nb.net as usize] != n as u32 {
                    seen[nb.net as usize] = n as u32;
                    net_adj.push(nb.net);
                }
            }
            net_adj[row..].sort_unstable();
            net_adj_off.push(net_adj.len() as u32);
        }
        net_adj.shrink_to_fit();

        Self {
            keys,
            counts,
            ends,
            totals,
            cand_base,
            adj_off,
            adj,
            net_adj_off,
            net_adj,
            parallel,
        }
    }

    /// Record `i` as a view into the arenas.
    #[inline]
    fn view(&self, i: usize) -> PairCross<'_> {
        record_view(&self.counts, &self.ends, &self.totals, i)
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
        // Keys pack `u32` ids: a larger id names no record and must not
        // alias one by truncation.
        let id = |v: usize| u32::try_from(v).ok();
        let key = pack_key(id(a.0)?, id(a.1)?, id(b.0)?, id(b.1)?);
        self.keys.binary_search(&key).ok().map(|i| self.view(i))
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
    /// `((net_a, cand_a, net_b, cand_b), record)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, PairCross<'_>)> {
        self.keys.iter().enumerate().map(|(i, &key)| {
            let (na, ca, nb, cb) = split_key(key);
            (
                (na as usize, ca as usize, nb as usize, cb as usize),
                self.view(i),
            )
        })
    }

    /// The candidates of other nets that cross `(net, cand)`, ascending
    /// by record — an O(1) slice of the neighbor arena.
    pub fn neighbors(&self, net: usize, cand: usize) -> &[Neighbor] {
        if net >= self.cand_base.len().saturating_sub(1) {
            return &[];
        }
        let (base, next) = (
            self.cand_base[net] as usize,
            self.cand_base[net + 1] as usize,
        );
        if cand >= next - base {
            return &[];
        }
        let g = base + cand;
        &self.adj[self.adj_off[g] as usize..self.adj_off[g + 1] as usize]
    }

    /// The nets coupled to `net` through at least one crossing candidate
    /// pair, sorted ascending — a borrowed CSR row, precomputed at build
    /// time so pricing loops pay no per-call assembly.
    #[inline]
    pub fn net_neighbors(&self, net: usize) -> &[u32] {
        if net >= self.net_adj_off.len().saturating_sub(1) {
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

    /// Proper segment crossings summed over all pairs: the number of
    /// distinct hits the spatial builds found.
    pub fn segment_crossings(&self) -> u64 {
        self.totals.iter().map(|&t| u64::from(t)).sum()
    }

    /// Heap bytes the index holds: the capacity of every arena.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<u128>()
            + self.counts.capacity() * size_of::<(u32, u32)>()
            + self.ends.capacity() * size_of::<(u32, u32)>()
            + (self.totals.capacity()
                + self.cand_base.capacity()
                + self.adj_off.capacity()
                + self.net_adj_off.capacity()
                + self.net_adj.capacity())
                * size_of::<u32>()
            + self.adj.capacity() * size_of::<Neighbor>()
    }
}

/// Record arenas under construction, appended in ascending key order —
/// the one assembly target every builder fills.
struct Records {
    keys: Vec<u128>,
    counts: Vec<(u32, u32)>,
    ends: Vec<(u32, u32)>,
    totals: Vec<u32>,
}

impl Records {
    /// Room for `pairs` records; almost every side has one path entry.
    fn with_capacity(pairs: usize) -> Self {
        Self {
            keys: Vec::with_capacity(pairs),
            counts: Vec::with_capacity(2 * pairs),
            ends: Vec::with_capacity(pairs),
            totals: Vec::with_capacity(pairs),
        }
    }

    /// Closes the record of `key` whose side-A counts end at `a_end` and
    /// whose side-B counts run to the end of the arena.
    #[inline]
    fn close(&mut self, key: u128, a_end: usize, total: usize) {
        debug_assert!(
            self.keys.last().is_none_or(|&k| k < key),
            "records out of key order"
        );
        self.keys.push(key);
        self.ends.push((a_end as u32, self.counts.len() as u32));
        self.totals.push(total as u32);
    }

    /// Appends a whole record.
    fn push(&mut self, key: u128, per_a: &PathCounts, per_b: &PathCounts, total: usize) {
        self.counts.extend_from_slice(per_a);
        let a_end = self.counts.len();
        self.counts.extend_from_slice(per_b);
        self.close(key, a_end, total);
    }

    /// Appends record `i` of `from`.
    fn push_record(&mut self, from: &Records, i: usize) {
        let pc = record_view(&from.counts, &from.ends, &from.totals, i);
        self.push(from.keys[i], pc.per_path_a, pc.per_path_b, pc.total);
    }
}

/// Record `i` of a set of record arenas: its side-A counts start where
/// record `i − 1`'s side B ended.
#[inline]
fn record_view<'a>(
    counts: &'a [(u32, u32)],
    ends: &[(u32, u32)],
    totals: &[u32],
    i: usize,
) -> PairCross<'a> {
    let start = i.checked_sub(1).map_or(0, |p| ends[p].1 as usize);
    let (a_end, b_end) = (ends[i].0 as usize, ends[i].1 as usize);
    PairCross {
        per_path_a: &counts[start..a_end],
        per_path_b: &counts[a_end..b_end],
        total: totals[i] as usize,
    }
}

/// Dense global candidate ids in `(net, cand)` order: net `n`'s
/// candidates are ids `base[n]..base[n + 1]`, and `net_of` maps an id
/// back to its net. Hits name candidates by id, so two ids compare like
/// their `(net, cand)` pairs.
#[derive(Debug)]
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

    /// The `(net, cand)` of global candidate id `id`.
    #[inline]
    fn split(&self, id: u32) -> (u32, u32) {
        let net = self.net_of[id as usize];
        (net, id - self.base[net as usize])
    }

    /// The packed pair key of a hit.
    #[inline]
    fn hit_key(&self, hit: Hit) -> u128 {
        let (a, b) = hit_cands(hit);
        let ((na, ca), (nb, cb)) = (self.split(a), self.split(b));
        pack_key(na, ca, nb, cb)
    }
}

/// A spatial-build crossing in packed form: global candidate ids of
/// sides A and B (A's net is the lower), then the crossing segment
/// indexes of A and B, 32 bits each from the top. Integer order is
/// `(pair key, segments)` order, so sorting and deduplicating plain
/// `u128`s groups each pair's hits into one run.
type Hit = u128;

#[inline]
fn pack_hit(p: &SegRef, q: &SegRef) -> Hit {
    (u128::from(p.cand) << 96)
        | (u128::from(q.cand) << 64)
        | (u128::from(p.seg) << 32)
        | u128::from(q.seg)
}

/// The `(cand_a, cand_b)` global ids of a hit.
#[inline]
fn hit_cands(hit: Hit) -> (u32, u32) {
    ((hit >> 96) as u32, (hit >> 64) as u32)
}

/// Whether two hits belong to the same candidate pair.
#[inline]
fn same_pair(x: &Hit, y: &Hit) -> bool {
    x >> 64 == y >> 64
}

/// `(net_a, cand_a, net_b, cand_b)` packed so that integer order equals
/// tuple order.
#[inline]
fn pack_key(na: u32, ca: u32, nb: u32, cb: u32) -> u128 {
    (u128::from(na) << 96) | (u128::from(ca) << 64) | (u128::from(nb) << 32) | u128::from(cb)
}

#[inline]
fn split_key(key: u128) -> (u32, u32, u32, u32) {
    (
        (key >> 96) as u32,
        (key >> 64) as u32,
        (key >> 32) as u32,
        key as u32,
    )
}

/// The `(net_a, net_b)` pair of a packed key.
#[inline]
fn key_nets(key: u128) -> (usize, usize) {
    ((key >> 96) as usize, (key >> 32) as u32 as usize)
}

/// Flattens every non-degenerate optical segment of the nets `keep`
/// accepts, in (net, cand, seg) order; degenerate segments can never
/// properly cross anything.
fn collect_segments(
    nets: &[NetCandidates],
    ids: &CandIds,
    keep: impl Fn(usize) -> bool,
) -> Vec<SegRef> {
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
                    cand: ids.base[i] + j as u32,
                    seg: k as u32,
                    s: *s,
                });
            }
        }
    }
    segs
}

/// Grid-bucketed crossing pairs over the flattened segments: the one
/// crossing kernel, shared by the full build and
/// [`CrossingIndex::rebuild_delta`]. Returns one buffer of `(side A,
/// side B)` segment indexes per run of cells, side A on the lower net,
/// and whether the pair tests ran on the executor's workers.
///
/// Each crossing is reported once, by the cell that owns its crossing
/// point; only [`SegmentGrid::owns_crossing`]'s overflow fallback (far
/// beyond die-scale coordinates) can repeat a pair, so the funnel keeps
/// its dedup as the safety net.
fn grid_pairs(
    segs: &[SegRef],
    dims: Option<(usize, usize)>,
    exec: &Executor,
) -> (Vec<Vec<(u32, u32)>>, bool) {
    if segs.len() < 2 {
        return (Vec::new(), false);
    }
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

    // Every properly-crossing segment pair co-occupies the cell of its
    // crossing point (the grid's coverage invariant), and only that cell
    // reports it.
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
                    out.push(if a.net < b.net { (ia, ib) } else { (ib, ia) });
                }
            }
        }
    };
    // Small builds run as one inline task: the executor's fan-out
    // overhead exceeds the pair-test work. Larger ones split the cells
    // into a few contiguous runs per worker, each with one pair buffer;
    // thousands of per-cell buffers left worker heaps holding ~20 MiB
    // more on I5. The funnel's per-candidate sort makes every split
    // byte-identical.
    let parallel = pair_tests >= GRID_PARALLEL_MIN_PAIR_TESTS;
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
    exec.par_map_coarse(&runs, |(run, out)| {
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        for &cell in *run {
            test_cell(cell, &mut out);
        }
    });
    let pairs = runs
        .into_iter()
        .map(|(_, out)| out.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    (pairs, parallel)
}

/// The crossing funnel: turns the grid's pair buffers into records in
/// key order, keeping only the pairs `keep` accepts.
///
/// A counting sort buckets the hits by candidate A, scattering straight
/// from the 8-byte pair buffers into one 16-byte hit buffer. The
/// candidate ids are then cut into `ranges` contiguous ranges of about
/// equal hit count, which run on the executor twice: once to sort and
/// deduplicate their buckets and size their records, once to assemble
/// the records. Key order is (candidate A, candidate B, segments), so the
/// ranges' records, laid end to end, are the canonical arenas for any
/// range count and thread count.
///
/// Every buffer the ranges fill is allocated here, on the calling
/// thread, so no worker heap keeps output memory: the record arenas are
/// sized exactly from the first pass, and each range writes its own
/// window of them in the second.
fn funnel(
    nets: &[NetCandidates],
    ids: &CandIds,
    segs: Vec<SegRef>,
    pairs: Vec<Vec<(u32, u32)>>,
    keep: impl Fn(&SegRef, &SegRef) -> bool,
    ranges: usize,
    exec: &Executor,
) -> Records {
    let n_cands = ids.net_of.len();
    // Bucket offsets by candidate A; candidate B only needs marking for
    // the path index.
    let mut off = vec![0u32; n_cands + 1];
    let mut used = vec![false; n_cands];
    for &(ia, ib) in pairs.iter().flatten() {
        let (p, q) = (&segs[ia as usize], &segs[ib as usize]);
        if keep(p, q) {
            off[p.cand as usize + 1] += 1;
            used[q.cand as usize] = true;
        }
    }
    for c in 0..n_cands {
        used[c] |= off[c + 1] > 0;
        off[c + 1] += off[c];
    }
    let mut cursor = off.clone();
    let mut hits: Vec<Hit> = vec![0; off[n_cands] as usize];
    for buf in pairs {
        for (ia, ib) in buf {
            let (p, q) = (&segs[ia as usize], &segs[ib as usize]);
            if keep(p, q) {
                let slot = &mut cursor[p.cand as usize];
                hits[*slot as usize] = pack_hit(p, q);
                *slot += 1;
            }
        }
    }
    drop((cursor, segs));
    let paths = SegPaths::new(nets, ids, &used);
    drop(used);

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
    // Each range's mutex hands its window to the one task that locks
    // it; a panicking task fails the whole map, so no caller ever sees
    // a poisoned one.
    let mut windows: Vec<(std::ops::Range<usize>, Mutex<&mut [Hit]>)> = Vec::new();
    let mut rest = hits.as_mut_slice();
    for w in starts.windows(2) {
        let (head, tail) = rest.split_at_mut((off[w[1]] - off[w[0]]) as usize);
        windows.push((w[0]..w[1], Mutex::new(head)));
        rest = tail;
    }

    // Per range: sort each bucket, drop repeated hits (compacting the
    // range's window), and size its records.
    let sized: Vec<RangeSize> = exec.par_map_coarse(&windows, |(cands, window)| {
        let mut window = window.lock().unwrap_or_else(PoisonError::into_inner);
        let base = off[cands.start] as usize;
        let mut hits = 0;
        for c in cands.clone() {
            let (lo, hi) = (off[c] as usize - base, off[c + 1] as usize - base);
            window[lo..hi].sort_unstable();
            for i in lo..hi {
                if hits == 0 || window[i] != window[hits - 1] {
                    window[hits] = window[i];
                    hits += 1;
                }
            }
        }
        let mut asm = Assembler::new(ids, &paths);
        let (mut pairs, mut counts) = (0, 0);
        for run in window[..hits].chunk_by(same_pair) {
            pairs += 1;
            asm.record(run, |_| counts += 1);
        }
        RangeSize {
            hits,
            pairs,
            counts,
        }
    });

    // The record arenas, exact, cut into one window per range.
    let n_pairs: usize = sized.iter().map(|r| r.pairs).sum();
    let n_counts: usize = sized.iter().map(|r| r.counts).sum();
    let mut keys = vec![0u128; n_pairs];
    let mut ends = vec![(0u32, 0u32); n_pairs];
    let mut totals = vec![0u32; n_pairs];
    let mut counts = vec![(0u32, 0u32); n_counts];
    let mut outs = Vec::with_capacity(windows.len());
    let (mut k, mut e, mut t, mut c) = (
        &mut keys[..],
        &mut ends[..],
        &mut totals[..],
        &mut counts[..],
    );
    let mut base = 0;
    for ((_, window), size) in windows.into_iter().zip(&sized) {
        let window = window.into_inner().unwrap_or_else(PoisonError::into_inner);
        let (kr, kt) = k.split_at_mut(size.pairs);
        let (er, et) = e.split_at_mut(size.pairs);
        let (tr, tt) = t.split_at_mut(size.pairs);
        let (cr, ct) = c.split_at_mut(size.counts);
        (k, e, t, c) = (kt, et, tt, ct);
        outs.push(Mutex::new(RangeOut {
            hits: &window[..size.hits],
            base,
            keys: kr,
            ends: er,
            totals: tr,
            counts: cr,
        }));
        base += size.counts;
    }
    exec.par_map_coarse(&outs, |out| {
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        let RangeOut {
            hits,
            base,
            keys,
            ends,
            totals,
            counts,
        } = &mut *out;
        let mut asm = Assembler::new(ids, &paths);
        let mut pos = 0;
        for (i, run) in hits.chunk_by(same_pair).enumerate() {
            let start = *base + pos;
            let (key, a_len) = asm.record(run, |entry| {
                counts[pos] = entry;
                pos += 1;
            });
            keys[i] = key;
            ends[i] = ((start + a_len) as u32, (*base + pos) as u32);
            totals[i] = run.len() as u32;
        }
    });
    Records {
        keys,
        counts,
        ends,
        totals,
    }
}

/// What one funnel range holds after its sort + dedup.
struct RangeSize {
    /// Distinct hits.
    hits: usize,
    /// Crossing pairs, one record each.
    pairs: usize,
    /// Path-count entries over its records.
    counts: usize,
}

/// One funnel range's input hits and its windows of the record arenas;
/// `base` is where its `counts` window starts in the whole arena.
struct RangeOut<'a> {
    hits: &'a [Hit],
    base: usize,
    keys: &'a mut [u128],
    ends: &'a mut [(u32, u32)],
    totals: &'a mut [u32],
    counts: &'a mut [(u32, u32)],
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
struct SegPaths {
    /// Per global candidate id, the index in `off` of its segment 0
    /// (unused candidates: 0).
    first: Vec<u32>,
    /// Candidate `g`'s segment `s` lists
    /// `paths[off[first[g] + s]..off[first[g] + s + 1]]`.
    off: Vec<u32>,
    paths: Vec<u32>,
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
        let mut n_segs = 0usize;
        let mut max_paths = 0;
        for g in (0..used.len()).filter(|&g| used[g]) {
            first[g] = n_segs as u32;
            n_segs += cand(g).optical_segments.len();
            max_paths = max_paths.max(cand(g).paths.len());
        }
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
            max_paths,
        }
    }

    /// The paths through segment `seg` of candidate `cand`.
    #[inline]
    fn of(&self, cand: u32, seg: u32) -> &[u32] {
        let i = (self.first[cand as usize] + seg) as usize;
        &self.paths[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Record assembly for one range: the shared path index plus a
/// path-count accumulator, zeroed between uses via the touched list.
struct Assembler<'a> {
    ids: &'a CandIds,
    paths: &'a SegPaths,
    acc: Vec<u32>,
    touched: Vec<u32>,
}

impl<'a> Assembler<'a> {
    fn new(ids: &'a CandIds, paths: &'a SegPaths) -> Self {
        Self {
            ids,
            paths,
            acc: vec![0; paths.max_paths],
            touched: Vec::new(),
        }
    }

    /// One pair's record from its deduplicated hits: emits side A's
    /// path-count entries, then side B's, and returns the record's key
    /// and how many of the entries belong to side A. Every record is
    /// assembled here, whatever arena it lands in.
    fn record(&mut self, run: &[Hit], mut emit: impl FnMut((u32, u32))) -> (u128, usize) {
        let (a, b) = hit_cands(run[0]);
        let mut a_len = 0;
        self.side(a, run, true, |entry| {
            a_len += 1;
            emit(entry);
        });
        self.side(b, run, false, emit);
        (self.ids.hit_key(run[0]), a_len)
    }

    /// Path attribution for one side of a pair, from its deduplicated
    /// hits: emits ascending `(path index, count)` over paths with at
    /// least one crossing — byte-identical to [`attribute`] over
    /// per-segment counts.
    fn side(&mut self, cand: u32, run: &[Hit], side_a: bool, mut emit: impl FnMut((u32, u32))) {
        self.touched.clear();
        for &hit in run {
            let seg = if side_a {
                (hit >> 32) as u32
            } else {
                hit as u32
            };
            for &p in self.paths.of(cand, seg) {
                if self.acc[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.acc[p as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        for &p in &self.touched {
            emit((p, self.acc[p as usize]));
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

    /// Full structural equality: semantic value (keys + record arenas)
    /// plus the candidate ids and the derived CSR arenas, so a builder that corrupted neighbor lists or
    /// the net coupling graph cannot hide behind the `PartialEq` impl.
    fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pair count");
        assert_eq!(a.keys, b.keys, "{label}: keys");
        assert_eq!(a.counts, b.counts, "{label}: path counts");
        assert_eq!(a.ends, b.ends, "{label}: record ends");
        assert_eq!(a.totals, b.totals, "{label}: totals");
        assert_eq!(a.cand_base, b.cand_base, "{label}: candidate ids");
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
        for ((na, ca, nb, cb), pc) in idx.iter() {
            assert!(idx.neighbors(na, ca).iter().any(|n| n.key() == (nb, cb)));
            assert!(idx.neighbors(nb, cb).iter().any(|n| n.key() == (na, ca)));
            assert_eq!(idx.pair(na, ca, nb, cb), Some(pc));
        }
        for net in 0..nets.len() {
            for nb in idx.neighbors(net, 0) {
                let via_map = idx.pair(net, 0, nb.net(), nb.cand()).expect("pair exists");
                assert_eq!(idx.record(nb), via_map);
                let (own, other) = idx.per_path(nb);
                if net < nb.net() {
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
            let segs = collect_segments(&nets, &CandIds::new(&nets), |_| true);
            let exec = Executor::sequential();
            let (pairs, _) = grid_pairs(&segs, Some((cols, rows)), &exec);
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
        let segs = collect_segments(&far, &CandIds::new(&far), |_| true);
        let raw: usize = grid_pairs(&segs, None, &Executor::sequential())
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
    }

    #[test]
    fn net_adjacency_lists_coupled_nets() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
            optical_net(2, Point::new(2000, 0), Point::new(2000, 100)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
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
        assert!(idx.net_neighbors(wrap + 1).is_empty());
        assert!(idx.net_neighbors(usize::MAX).is_empty());
    }

    #[test]
    fn arena_entries_stay_compact() {
        assert_eq!(std::mem::size_of::<Neighbor>(), 12);
        assert_eq!(std::mem::size_of::<Hit>(), 16);
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build_with(&nets, &Executor::sequential());
        assert_eq!(idx.segment_crossings(), 1);
        assert!(idx.heap_bytes() > 0);
        assert_eq!(CrossingIndex::default().heap_bytes(), 0);
    }

    /// Checks the neighbor arena and the net rows against lists derived
    /// naively from `iter()`, for every `(net, cand)` of `nets` plus
    /// out-of-range ids: each record appears in both owners' lists, in
    /// record order, with the owner's side and the record's counts.
    fn assert_csr_matches_records(idx: &CrossingIndex, nets: &[NetCandidates], label: &str) {
        // (other net, other cand, record, owner is side A) per entry.
        type Entry = (usize, usize, usize, bool);
        let mut lists: Vec<Vec<Vec<Entry>>> = nets
            .iter()
            .map(|nc| vec![Vec::new(); nc.candidates.len()])
            .collect();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); nets.len()];
        for (r, ((na, ca, nb, cb), _)) in idx.iter().enumerate() {
            lists[na][ca].push((nb, cb, r, true));
            lists[nb][cb].push((na, ca, r, false));
            rows[na].push(nb as u32);
            rows[nb].push(na as u32);
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
                    assert_eq!(nb.key(), (onet, ocand), "{label}: ({net}, {cand})");
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
            let mut want = rows.get(net).cloned().unwrap_or_default();
            want.sort_unstable();
            want.dedup();
            assert_eq!(
                idx.net_neighbors(net),
                want.as_slice(),
                "{label}: net {net} row"
            );
        }
        for (net, cand) in [(usize::MAX, 0), (0, usize::MAX), (1 << 32, 0), (0, 1 << 32)] {
            assert!(
                idx.neighbors(net, cand).is_empty(),
                "{label}: ({net}, {cand})"
            );
        }
        assert!(idx.net_neighbors(usize::MAX).is_empty(), "{label}");
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
                    let ranged = CrossingIndex::build_with_funnel_ranges(&nets, &exec, cols);
                    assert_index_eq(
                        &ranged,
                        &reference,
                        &format!("{set}, {cols} funnel ranges, threads={threads}"),
                    );
                }
            }
        }

        /// The neighbor arena and net rows of every builder, against
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
            let before = CrossingIndex::build_with(&nets, &Executor::sequential());
            let target = which % nets.len();
            let pts: Vec<Vec<Point>> = replacement
                .iter()
                .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .collect();
            nets[target] = chain_net(target, &pts);
            let delta = before.rebuild_delta(&nets, &[target]);
            let full = CrossingIndex::build_with(&nets, &Executor::sequential());
            assert_index_eq(&delta, &full, "random delta vs full");
        }
    }
}
