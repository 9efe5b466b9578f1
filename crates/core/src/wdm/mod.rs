//! WDM placement and network-flow assignment (paper §4).
//!
//! Each optical tree edge of a selected candidate is a point-to-point
//! *connection* demanding `bits` channels. Connections are mapped onto
//! physical WDM waveguides in three steps:
//!
//! 1. **Placement** (§4.1): per orientation, a greedy sweep over
//!    track-sorted connections opens a new WDM whenever the current one is
//!    out of capacity or farther than `dis_u`; a legalization pass then
//!    enforces the `dis_l` crosstalk pitch between neighbors.
//! 2. **Assignment** (§4.2): a min-cost max-flow over
//!    `s → connections → nearby WDMs → t` re-distributes channels at
//!    minimum displacement; integrality comes for free from the network's
//!    unimodularity.
//! 3. **Reduction**: idle WDMs are removed outright, and under-filled
//!    WDMs are tentatively deleted (fewest channels first) with a re-solve
//!    to check the remaining capacity still carries all demand — this is
//!    what turns the sweep's sub-optimality into the paper's ~9% saving.

pub mod channels;

use crate::codesign::NetCandidates;
use crate::error::OperonError;
use operon_exec::Executor;
use operon_mcmf::{EdgeId, FlowResult, McmfGraph, McmfStats};
use operon_optics::OpticalLib;

/// Orientation of a connection or WDM track.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrackOrientation {
    /// Runs predominantly along x; the track coordinate is y.
    Horizontal,
    /// Runs predominantly along y; the track coordinate is x.
    Vertical,
}

/// One optical point-to-point connection to be carried by a WDM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    /// The hyper net the connection belongs to.
    pub net_index: usize,
    /// Channel demand.
    pub bits: usize,
    /// Dominant direction.
    pub orientation: TrackOrientation,
    /// Track coordinate (y for horizontal, x for vertical), dbu.
    pub track: i64,
}

/// A placed WDM waveguide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wdm {
    /// Orientation of the track.
    pub orientation: TrackOrientation,
    /// Track coordinate, dbu.
    pub track: i64,
    /// `(connection index, channels)` assignments.
    pub assigned: Vec<(usize, usize)>,
}

impl Wdm {
    /// Channels in use.
    pub fn used(&self) -> usize {
        self.assigned.iter().map(|&(_, b)| b).sum()
    }
}

/// Work counters for the WDM assignment and reduction stage.
///
/// The reduction runs its tentative deletions one at a time, in rank
/// order, so the counters depend only on the planner's inputs — never
/// on the executor's thread count.
///
/// A waveguide whose tentative deletion failed is never trialed again.
/// Every later active set is a subset of the one the trial saw, so the
/// later reduced network is a subgraph of the failed one and its max-flow
/// value can only be lower: the deletion stays infeasible. The plan
/// still equals the all-cold reference, which re-trials every waveguide
/// each round.
///
/// An orientation reused from the previous plan (see [`plan`]) runs no
/// solve, so it adds only to `orientations_reused`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WdmStats {
    /// Cold MCMF solves: the initial assignment plus one re-solve per
    /// committed deletion.
    pub cold_solves: u64,
    /// Warm-started tentative-deletion feasibility trials.
    pub warm_trials: u64,
    /// Orientations whose inputs equalled the previous plan's, so their
    /// waveguides and committed network were taken over unsolved.
    pub orientations_reused: u64,
    /// Aggregated network-solver counters across those solves.
    pub mcmf: McmfStats,
}

impl WdmStats {
    /// Adds every counter of `other` into `self`.
    pub fn accumulate(&mut self, other: &WdmStats) {
        self.cold_solves += other.cold_solves;
        self.warm_trials += other.warm_trials;
        self.orientations_reused += other.orientations_reused;
        self.mcmf.accumulate(&other.mcmf);
    }
}

/// The full WDM stage outcome — the data behind the paper's Fig. 8.
#[derive(Clone, Debug)]
pub struct WdmPlan {
    /// The optical connections extracted from the selection.
    pub connections: Vec<Connection>,
    /// WDM count right after the greedy placement.
    pub initial_count: usize,
    /// WDMs after flow-based re-assignment and reduction.
    pub wdms: Vec<Wdm>,
    /// Solver work counters accumulated over both orientations.
    pub stats: WdmStats,
}

impl WdmPlan {
    /// WDM count after assignment.
    pub fn final_count(&self) -> usize {
        self.wdms.len()
    }
}

/// Extracts the optical connections of a selection.
pub fn extract_connections(nets: &[NetCandidates], choice: &[usize]) -> Vec<Connection> {
    let mut out = Vec::new();
    for (nc, &j) in nets.iter().zip(choice) {
        let cand = &nc.candidates[j];
        for seg in &cand.optical_segments {
            let dx = (seg.a.x - seg.b.x).abs();
            let dy = (seg.a.y - seg.b.y).abs();
            let (orientation, track) = if dx >= dy {
                (TrackOrientation::Horizontal, (seg.a.y + seg.b.y) / 2)
            } else {
                (TrackOrientation::Vertical, (seg.a.x + seg.b.x) / 2)
            };
            out.push(Connection {
                net_index: nc.net_index,
                bits: nc.bits,
                orientation,
                track,
            });
        }
    }
    out
}

/// Greedy sweep placement (§4.1) over one orientation's connections,
/// given as `(track, bits)` in extraction order. Returns WDMs with their
/// sweep assignments, which refer to connections by their position in
/// `conns`.
///
/// # Errors
///
/// [`OperonError::WdmInfeasible`] if a connection demands more than the
/// WDM capacity.
fn place_orientation(
    conns: &[(i64, usize)],
    orientation: TrackOrientation,
    lib: &OpticalLib,
) -> Result<Vec<Wdm>, OperonError> {
    let mut order: Vec<usize> = (0..conns.len()).collect();
    order.sort_by_key(|&pos| conns[pos].0);

    let mut wdms: Vec<Wdm> = Vec::new();
    for pos in order {
        let (track, bits) = conns[pos];
        if bits > lib.wdm_capacity {
            // operon-lint: allow(P002, reason = "error path: formats once for an infeasible connection, then returns")
            return Err(OperonError::WdmInfeasible(format!(
                "connection demands {} channels, capacity is {}",
                bits, lib.wdm_capacity
            )));
        }
        match wdms.last_mut() {
            Some(w)
                if w.used() + bits <= lib.wdm_capacity
                    && (track - w.track).abs() <= lib.wdm_max_displacement =>
            {
                w.assigned.push((pos, bits));
            }
            _ => wdms.push(Wdm {
                orientation,
                track,
                // operon-lint: allow(P002, reason = "constructs the new WDM's assignment list; sweep placement runs once per connection, not per solver iteration")
                assigned: vec![(pos, bits)],
            }),
        }
    }
    legalize(&mut wdms, lib.wdm_min_pitch);
    Ok(wdms)
}

/// Pushes WDMs apart so neighboring tracks are at least `min_pitch` dbu
/// apart (one-by-one, in track order — the paper's legalization).
fn legalize(wdms: &mut [Wdm], min_pitch: i64) {
    wdms.sort_by_key(|w| w.track);
    for i in 1..wdms.len() {
        if wdms[i].track - wdms[i - 1].track < min_pitch {
            wdms[i].track = wdms[i - 1].track + min_pitch;
        }
    }
}

/// Sweep WDM of each connection: the WDM the placement assigned it to,
/// which keeps an assignment edge in every network so the sweep itself
/// witnesses feasibility.
fn sweep_wdms(n_conn: usize, placed: &[Wdm]) -> Vec<usize> {
    let mut sweep_wdm = vec![usize::MAX; n_conn];
    for (wi, w) in placed.iter().enumerate() {
        for &(conn_pos, _) in &w.assigned {
            sweep_wdm[conn_pos] = wi;
        }
    }
    sweep_wdm
}

/// One reduced orientation: its final waveguides (connections by local
/// position), the reduction's work counters, the committed network, and
/// the network wdm index of each final waveguide.
type Reduced = (Vec<Wdm>, WdmStats, AssignmentNetwork, Vec<usize>);

/// Min-cost max-flow re-assignment (§4.2) of one orientation, followed by
/// under-fill reduction. `conns` are the orientation's `(track, bits)`
/// connections and `placed` their track-sorted sweep placement.
/// Connections keep a guaranteed edge to their sweep-assigned WDM so the
/// network always carries the full demand.
///
/// The reduction ranks the active waveguides by fill each round and
/// tries to delete them in that order, one at a time, committing the
/// first success. A waveguide whose deletion failed once is never
/// trialed again (see [`WdmStats`]).
///
/// Trials are *warm-started and transactional* ([`warm_trial`]): each
/// one opens a [`checkout`](McmfGraph::checkout) on the committed solved
/// network, withdraws the deleted WDM's sink-edge flow, re-routes just
/// the displaced units to the sink along successive shortest paths, and
/// rolls back — the undo log restores the committed network bitwise, so
/// no trial ever copies the network. Feasibility is decided by the
/// max-flow *value*, which is unique, so warm and cold trials always
/// agree; the committed assignment after a successful trial is re-solved
/// cold on the reduced network, keeping the final plan bit-identical to
/// the all-cold reference ([`assign_orientation_reference`]).
fn assign_orientation(
    conns: &[(i64, usize)],
    placed: Vec<Wdm>,
    lib: &OpticalLib,
) -> Result<Reduced, OperonError> {
    let sweep_wdm = sweep_wdms(conns.len(), &placed);

    let mut stats = WdmStats::default();
    let mut active: Vec<bool> = vec![true; placed.len()];
    // WDMs whose deletion already failed on a superset of the current
    // active set (see `WdmStats`): never trialed again.
    let mut undeletable: Vec<bool> = vec![false; placed.len()];
    let mut committed = build_network(conns, &placed, &active, &sweep_wdm, lib);
    let first = {
        let (s, t) = (committed.g.node(0), committed.g.node(1));
        committed.g.min_cost_max_flow(s, t)
    };
    stats.cold_solves += 1;
    stats.mcmf.accumulate(&committed.g.stats());
    // The sweep assignment itself is a witness of feasibility, so this
    // only fails if the guaranteed feasibility edges were broken upstream.
    if first.flow < committed.idx.total_demand {
        return Err(OperonError::WdmInfeasible(format!(
            "flow network cannot carry {} connections over {} sweep WDMs",
            conns.len(),
            placed.len()
        )));
    }
    let mut best = extract_assignment(&committed.g, &committed.idx, &placed);

    // Reduction: try deleting WDMs, emptiest first. Idle WDMs go outright;
    // the loaded candidates need a tentative-deletion trial each.
    let mut prior: Vec<i64> = Vec::new();
    // Ranking buffer, refilled in place each reduction round.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    loop {
        candidates.clear();
        candidates.extend(
            best.iter()
                .enumerate()
                .filter(|&(wi, _)| active[wi])
                .map(|(wi, w)| (w.used(), wi)),
        );
        candidates.sort_unstable();
        let mut removed_any = false;
        for &(used, wi) in &candidates {
            if used == 0 {
                // Idle WDMs sort first; dropping them needs no re-solve.
                // Zeroing their sink edge keeps the committed network in
                // step with the active set (they carry no flow, so
                // nothing to withdraw).
                active[wi] = false;
                if let Some(e) = committed.idx.wdm_edges[wi] {
                    committed.g.set_edge_capacity(e, 0);
                }
                removed_any = true;
                continue;
            }
            if undeletable[wi] {
                continue;
            }
            let (displaced, reroute, trial_stats) =
                warm_trial(&mut committed.g, &committed.idx, &mut prior, wi);
            stats.warm_trials += 1;
            stats.mcmf.accumulate(&trial_stats);
            if reroute.flow != displaced {
                undeletable[wi] = true;
                continue;
            }
            // Commit with a cold solve of the reduced network so the
            // assignment is bit-identical to the all-cold reduction path.
            active[wi] = false;
            let mut net = build_network(conns, &placed, &active, &sweep_wdm, lib);
            let (s, t) = (net.g.node(0), net.g.node(1));
            let r = net.g.min_cost_max_flow(s, t);
            stats.cold_solves += 1;
            stats.mcmf.accumulate(&net.g.stats());
            if r.flow == net.idx.total_demand {
                best = extract_assignment(&net.g, &net.idx, &placed);
                committed = net;
                removed_any = true;
                break; // re-rank by the new fill levels
            }
            // The warm trial certified feasibility, so the cold solve of
            // the same reduced network cannot disagree; reactivate
            // defensively if it ever does.
            active[wi] = true;
        }
        if !removed_any {
            break;
        }
    }

    // Emit the surviving waveguides (ascending `wi`, the plan order) and
    // record each one's network index so the resident state can replay
    // per-waveguide deletion probes against the committed network later.
    let mut finals = Vec::new();
    let wdms: Vec<Wdm> = best
        .into_iter()
        .enumerate()
        .filter(|(wi, w)| active[*wi] && w.used() > 0)
        .map(|(wi, w)| {
            finals.push(wi);
            w
        })
        .collect();
    Ok((wdms, stats, committed, finals))
}

/// The pre-warm-start reduction loop: every tentative deletion is a full
/// cold re-solve, and every loaded waveguide is re-trialed each round.
/// Retained as the identity reference for [`assign_orientation`] — the
/// two must produce the same WDM set. Also returns the number of cold
/// solves it ran (the initial one plus one per tentative deletion).
fn assign_orientation_reference(
    conns: &[(i64, usize)],
    placed: Vec<Wdm>,
    lib: &OpticalLib,
) -> Result<(Vec<Wdm>, u64), OperonError> {
    if conns.is_empty() {
        return Ok((Vec::new(), 0));
    }
    let sweep_wdm = sweep_wdms(conns.len(), &placed);

    let mut active: Vec<bool> = vec![true; placed.len()];
    let mut solves = 1u64;
    let mut best = solve_assignment(conns, &placed, &active, &sweep_wdm, lib).ok_or_else(|| {
        OperonError::WdmInfeasible(format!(
            "flow network cannot carry {} connections over {} sweep WDMs",
            conns.len(),
            placed.len()
        ))
    })?;

    loop {
        let mut candidates: Vec<(usize, usize)> = best
            .iter()
            .enumerate()
            .filter(|&(wi, _)| active[wi])
            .map(|(wi, w)| (w.used(), wi))
            // operon-lint: allow(P002, reason = "cold reference path kept allocation-simple as the identity oracle for assign_orientation")
            .collect();
        candidates.sort_unstable();
        let mut removed_any = false;
        let loaded: Vec<usize> = candidates
            .iter()
            .filter_map(|&(used, wi)| {
                if used == 0 {
                    active[wi] = false;
                    removed_any = true;
                    None
                } else {
                    Some(wi)
                }
            })
            // operon-lint: allow(P002, reason = "cold reference path kept allocation-simple as the identity oracle for assign_orientation")
            .collect();
        for wi in loaded {
            // Tentatively deactivate, reverting when the reduced network
            // cannot carry the demand (same decisions as a cloned trial
            // set, without the per-trial allocation).
            active[wi] = false;
            solves += 1;
            if let Some(assignment) = solve_assignment(conns, &placed, &active, &sweep_wdm, lib) {
                best = assignment;
                removed_any = true;
                break;
            }
            active[wi] = true;
        }
        if !removed_any {
            break;
        }
    }

    let wdms = best
        .into_iter()
        .enumerate()
        .filter(|&(wi, _)| active[wi])
        .map(|(_, w)| w)
        .filter(|w| w.used() > 0)
        .collect();
    Ok((wdms, solves))
}

/// One warm tentative-deletion trial, run *in place* on the committed
/// network `g`: open a transaction, withdraw the flow on WDM `wi`'s sink
/// edge and zero its capacity — pure residual-arc removals, which keep
/// the committed potentials feasible — then
/// [`min_cost_reroute`](McmfGraph::min_cost_reroute) the displaced units
/// from `wi`'s node to the sink along successive shortest paths, and
/// roll back — the undo log restores `g` bitwise, so the next trial
/// starts from the committed state without any copy. The reduced network
/// carries the full demand exactly when every displaced unit re-routes,
/// so the trial decides feasibility without touching the rest of the
/// committed flow (no path withdrawals, no potential repair, no cycle
/// canceling). `prior` is a reusable buffer for the warm-start
/// potentials. Returns the displaced units, the reroute's result (the
/// deletion is feasible when its flow equals the displaced units) and
/// the solver counters the trial added.
fn warm_trial(
    g: &mut McmfGraph,
    idx: &NetIndex,
    prior: &mut Vec<i64>,
    wi: usize,
) -> (i64, FlowResult, McmfStats) {
    let before = g.stats();
    prior.clear();
    prior.extend_from_slice(g.potentials());
    let t = g.node(1);
    let wdm_node = g.node(2 + idx.conn_edges.len() + wi);
    let mut txn = g.checkout();
    let mut displaced = 0;
    if let Some(sink) = idx.wdm_edges[wi] {
        displaced = txn.flow(sink);
        if displaced > 0 {
            txn.withdraw_edge_flow(sink, displaced);
        }
        txn.set_edge_capacity(sink, 0);
    }
    let r = txn.min_cost_reroute(wdm_node, t, displaced, prior);
    txn.rollback();
    (displaced, r, g.stats().delta_since(&before))
}

/// The assignment flow network of one orientation: the residual network
/// plus the edge handles ([`NetIndex`]) needed to replay tentative
/// deletions warm. Split so trials can mutably borrow the network while
/// reading the immutable handle lists.
struct AssignmentNetwork {
    g: McmfGraph,
    idx: NetIndex,
}

/// The outcome of tentatively deleting one final waveguide from the
/// committed assignment (see [`ResidentAssignment::probe_deletions`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WdmProbe {
    /// Track orientation of the probed waveguide.
    pub orientation: TrackOrientation,
    /// Track coordinate of the probed waveguide.
    pub track: i64,
    /// Channels currently assigned to it.
    pub used: usize,
    /// Whether the remaining waveguides could absorb its channels.
    pub deletable: bool,
    /// Flow units the deletion displaces (its sink-edge flow).
    pub displaced: i64,
    /// Cost of re-routing the displaced units (0 when infeasible or
    /// nothing was displaced).
    pub reroute_cost: i64,
}

/// Everything an orientation's placement, assignment and reduction
/// read: its connections' `(track, bits)` in extraction order and the
/// three WDM knobs `(wdm_capacity, wdm_max_displacement,
/// wdm_min_pitch)`. Equal inputs give a bitwise-equal plan and committed
/// network, which is what lets [`plan`] reuse them.
#[derive(PartialEq, Eq)]
struct OrientationInputs {
    conns: Vec<(i64, usize)>,
    knobs: (usize, i64, i64),
}

impl OrientationInputs {
    fn new(connections: &[Connection], orientation: TrackOrientation, lib: &OpticalLib) -> Self {
        Self {
            conns: connections
                .iter()
                .filter(|c| c.orientation == orientation)
                .map(|c| (c.track, c.bits))
                .collect(),
            knobs: (
                lib.wdm_capacity,
                lib.wdm_max_displacement,
                lib.wdm_min_pitch,
            ),
        }
    }
}

/// One orientation's share of a [`ResidentAssignment`]: the inputs it
/// was planned from, its plan, and the committed solved network.
struct OrientationResident {
    orientation: TrackOrientation,
    inputs: OrientationInputs,
    /// WDM count right after the sweep placement.
    initial: usize,
    /// The final waveguides, their connections given by position in
    /// `inputs.conns`.
    wdms: Vec<Wdm>,
    committed: AssignmentNetwork,
    /// Network wdm index of each entry of `wdms`.
    finals: Vec<usize>,
}

/// The committed assignment networks of a finished WDM plan, kept
/// resident so a session can answer what-if questions warm — no network
/// is ever rebuilt or cloned; every probe is a transactional
/// checkout/reroute/rollback on the committed state, exactly the
/// machinery the reduction loop used — and hand an unchanged
/// orientation over to the next plan.
///
/// Returned by [`plan`]; dropped (cheaply) by callers that only want the
/// plan.
#[derive(Default)]
pub struct ResidentAssignment {
    parts: Vec<OrientationResident>,
}

impl ResidentAssignment {
    /// Probes, for every final waveguide in plan order (horizontal
    /// orientation first), whether deleting it would still leave a
    /// feasible assignment, and at what re-route cost. Each probe is the
    /// reduction's warm tentative-deletion trial, rolled back before the
    /// next one starts, so the
    /// committed networks are bitwise unchanged afterwards
    /// ([`fingerprint`](ResidentAssignment::fingerprint) is invariant)
    /// and `networks_cloned` stays zero. Returns the probes plus the
    /// solver counters the probes added.
    pub fn probe_deletions(&mut self) -> (Vec<WdmProbe>, McmfStats) {
        let mut probes = Vec::new();
        let mut stats = McmfStats::default();
        let mut prior = Vec::new();
        for part in &mut self.parts {
            let AssignmentNetwork { g, idx } = &mut part.committed;
            for (w, &wi) in part.wdms.iter().zip(&part.finals) {
                let (displaced, r, trial_stats) = warm_trial(g, idx, &mut prior, wi);
                stats.accumulate(&trial_stats);
                let deletable = r.flow == displaced;
                probes.push(WdmProbe {
                    orientation: part.orientation,
                    track: w.track,
                    used: w.used(),
                    deletable,
                    displaced,
                    reroute_cost: if deletable { r.cost } else { 0 },
                });
            }
        }
        (probes, stats)
    }

    /// Number of resident final waveguides across both orientations.
    pub fn waveguides(&self) -> usize {
        self.parts.iter().map(|p| p.finals.len()).sum()
    }

    /// FNV-1a digest over the committed networks
    /// ([`McmfGraph::fingerprint`]) and the final waveguide identities.
    /// Stable across rolled-back probes; thread-count invariant because
    /// every solve that produced the committed state is.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(PRIME)
        }
        let mut h = eat(0xcbf2_9ce4_8422_2325, self.parts.len() as u64);
        for part in &self.parts {
            h = eat(h, part.orientation as u64);
            h = eat(h, part.committed.g.fingerprint());
            for (w, &wi) in part.wdms.iter().zip(&part.finals) {
                h = eat(h, wi as u64);
                h = eat(h, w.track as u64);
                h = eat(h, w.used() as u64);
            }
        }
        h
    }
}

/// Edge handles of an assignment network, immutable once built.
///
/// Node indexing is `0 = s`, `1 = t`, `2 + i` for connection `i` and
/// `2 + n_conn + w` for WDM `w`, for *every* placed WDM whether active or
/// not — so potentials from one active set are dimension-compatible with
/// any other, which is what makes the committed potentials a valid warm
/// start for the trial networks.
struct NetIndex {
    /// `s → connection` edge per connection.
    conn_edges: Vec<EdgeId>,
    /// `(connection, wdm, edge)` for every reachable active pair, in
    /// deterministic build order.
    assign_edges: Vec<(usize, usize, EdgeId)>,
    /// `wdm → t` edge per placed WDM (`None` when inactive at build
    /// time).
    wdm_edges: Vec<Option<EdgeId>>,
    /// Total channel demand of all connections.
    total_demand: i64,
}

/// Builds the (unsolved) assignment network over the active WDMs,
/// recording every edge handle. `placed` must be track-sorted, as
/// [`legalize`] leaves it: each connection then reaches the contiguous
/// window of WDMs within `wdm_max_displacement` of its track, plus its
/// sweep WDM wherever legalization pushed that one. Arcs go in per
/// connection, in ascending WDM order — the order of a scan over every
/// connection × WDM pair — so solving the network cold reproduces the
/// same flow byte-for-byte.
fn build_network(
    conns: &[(i64, usize)],
    placed: &[Wdm],
    active: &[bool],
    sweep_wdm: &[usize],
    lib: &OpticalLib,
) -> AssignmentNetwork {
    debug_assert!(placed.windows(2).all(|p| p[0].track <= p[1].track));
    let n_conn = conns.len();
    let n_wdm = placed.len();
    let mut g = McmfGraph::new(2 + n_conn + n_wdm);
    let s = g.node(0);
    let t = g.node(1);
    let conn_node = |i: usize| 2 + i;
    let wdm_node = |w: usize| 2 + n_conn + w;

    let total_demand: i64 = conns.iter().map(|&(_, bits)| bits as i64).sum();
    let mut conn_edges = Vec::with_capacity(n_conn);
    for (i, &(_, bits)) in conns.iter().enumerate() {
        conn_edges.push(g.add_edge(s, g.node(conn_node(i)), bits as i64, 0));
    }
    // Displacement costs normalized so WDM usage (handled by the
    // reduction loop) dominates; scaled to integers.
    let reach = lib.wdm_max_displacement;
    let mut assign_edges = Vec::new();
    for (i, &(track, bits)) in conns.iter().enumerate() {
        let lo = placed.partition_point(|w| w.track < track.saturating_sub(reach));
        let hi = placed
            .partition_point(|w| w.track <= track.saturating_add(reach))
            .max(lo);
        let sweep = sweep_wdm[i];
        let (before, after) = if sweep < lo {
            (Some(sweep), None)
        } else if sweep >= hi && sweep < n_wdm {
            (None, Some(sweep))
        } else {
            (None, None)
        };
        for wi in before.into_iter().chain(lo..hi).chain(after) {
            if !active[wi] {
                continue;
            }
            let dist = (track - placed[wi].track).abs();
            let cost = if reach > 0 { (dist * 100) / reach } else { 0 };
            let e = g.add_edge(
                g.node(conn_node(i)),
                g.node(wdm_node(wi)),
                bits as i64,
                cost,
            );
            assign_edges.push((i, wi, e));
        }
    }
    let mut wdm_edges = vec![None; n_wdm];
    for wi in 0..n_wdm {
        if active[wi] {
            wdm_edges[wi] = Some(g.add_edge(g.node(wdm_node(wi)), t, lib.wdm_capacity as i64, 1));
        }
    }

    AssignmentNetwork {
        g,
        idx: NetIndex {
            conn_edges,
            assign_edges,
            wdm_edges,
            total_demand,
        },
    }
}

/// Reads the per-WDM assignment off a solved network's edge flows.
fn extract_assignment(g: &McmfGraph, idx: &NetIndex, placed: &[Wdm]) -> Vec<Wdm> {
    let mut out: Vec<Wdm> = placed
        .iter()
        .map(|w| Wdm {
            orientation: w.orientation,
            track: w.track,
            assigned: Vec::new(),
        })
        .collect();
    for &(i, wi, e) in &idx.assign_edges {
        let f = g.flow(e);
        if f > 0 {
            out[wi].assigned.push((i, f as usize));
        }
    }
    out
}

/// Builds and solves the assignment network over the active WDMs.
/// Returns `None` when the active set cannot carry the full demand.
fn solve_assignment(
    conns: &[(i64, usize)],
    placed: &[Wdm],
    active: &[bool],
    sweep_wdm: &[usize],
    lib: &OpticalLib,
) -> Option<Vec<Wdm>> {
    let mut net = build_network(conns, placed, active, sweep_wdm, lib);
    let (s, t) = (net.g.node(0), net.g.node(1));
    let result = net.g.min_cost_max_flow(s, t);
    if result.flow < net.idx.total_demand {
        return None;
    }
    Some(extract_assignment(&net.g, &net.idx, placed))
}

/// Restates `wdms`' local connection positions as indices into
/// `connections`, whose `orientation` entries the positions count.
fn to_global<'a>(
    wdms: &'a [Wdm],
    connections: &[Connection],
    orientation: TrackOrientation,
) -> impl Iterator<Item = Wdm> + 'a {
    let global: Vec<usize> = connections
        .iter()
        .enumerate()
        .filter(|(_, c)| c.orientation == orientation)
        .map(|(i, _)| i)
        .collect();
    wdms.iter().map(move |w| Wdm {
        orientation: w.orientation,
        track: w.track,
        assigned: w
            .assigned
            .iter()
            .map(|&(pos, bits)| (global[pos], bits))
            .collect(),
    })
}

/// Runs placement and assignment over a full selection, with the two
/// orientations planned on `exec`'s workers, and returns the plan with
/// its [`ResidentAssignment`] — the committed per-orientation flow
/// networks — so a session can keep them warm across requests and answer
/// deletion what-ifs without re-planning. One-shot callers pass `prev =
/// None` and drop the resident state.
///
/// Horizontal and vertical tracks share nothing — separate connections,
/// separate WDMs, separate flow networks — so each orientation's
/// placement + assignment (including its MCMF reduction loop) runs as one
/// coarse parallel task. Results are concatenated in the fixed
/// horizontal-then-vertical order, identical for every thread count.
///
/// `prev` is the previous plan's resident state, if any. An orientation
/// whose inputs — its connections' `(track, bits)` in extraction order
/// and the `wdm_capacity`, `wdm_max_displacement` and `wdm_min_pitch`
/// knobs — equal those it was planned from is not planned again: its
/// waveguides and committed network are taken over, its connection
/// positions restated through the new global indices, and it counts in
/// `stats.orientations_reused` instead of the solver counters. Every
/// other orientation plans from scratch, after its stale part is
/// dropped. Either way the plan and the resident state equal those of
/// `prev = None` on the same inputs.
///
/// # Errors
///
/// [`OperonError::WdmInfeasible`] when a connection demands more channels
/// than one WDM carries, or the assignment network cannot route the full
/// demand.
pub fn plan(
    nets: &[NetCandidates],
    choice: &[usize],
    lib: &OpticalLib,
    prev: Option<ResidentAssignment>,
    exec: &Executor,
) -> Result<(WdmPlan, ResidentAssignment), OperonError> {
    let connections = extract_connections(nets, choice);
    let mut prev_parts = prev.map(|p| p.parts).unwrap_or_default();
    let mut reused = Vec::new();
    let mut slots = Vec::new();
    for orientation in [TrackOrientation::Horizontal, TrackOrientation::Vertical] {
        let inputs = OrientationInputs::new(&connections, orientation, lib);
        let old = prev_parts
            .iter()
            .position(|p| p.orientation == orientation)
            .map(|i| prev_parts.swap_remove(i));
        // A stale part drops here, before the new plan is built.
        let reuse = old.filter(|part| part.inputs == inputs);
        let replan = reuse.is_none() && !inputs.conns.is_empty();
        reused.push(reuse);
        slots.push((orientation, inputs, replan));
    }
    // One coarse task per orientation, reused or not, so the schedule
    // does not depend on what was reused.
    let planned = exec.par_map_coarse(&slots, |(orientation, inputs, replan)| {
        replan.then(|| {
            let placed = place_orientation(&inputs.conns, *orientation, lib)?;
            let initial = placed.len();
            assign_orientation(&inputs.conns, placed, lib).map(|reduced| (initial, reduced))
        })
    });

    let mut stats = WdmStats::default();
    let mut wdms = Vec::new();
    let mut parts = Vec::new();
    for (((orientation, inputs, _), planned), reused) in slots.into_iter().zip(planned).zip(reused)
    {
        let part = match (reused, planned) {
            (Some(part), _) => {
                stats.orientations_reused += 1;
                part
            }
            (None, Some(result)) => {
                let (initial, (wdms, orientation_stats, committed, finals)) = result?;
                stats.accumulate(&orientation_stats);
                OrientationResident {
                    orientation,
                    inputs,
                    initial,
                    wdms,
                    committed,
                    finals,
                }
            }
            (None, None) => continue,
        };
        wdms.extend(to_global(&part.wdms, &connections, orientation));
        parts.push(part);
    }
    Ok((
        WdmPlan {
            initial_count: parts.iter().map(|p| p.initial).sum(),
            connections,
            wdms,
            stats,
        },
        ResidentAssignment { parts },
    ))
}

/// The all-cold reference planner: identical placement, assignment and
/// reduction decisions to [`plan`], but every tentative deletion pays a
/// full cold re-solve and every loaded waveguide is re-trialed each
/// round. Of the work counters only `stats.cold_solves` is recorded.
/// Retained to pin the warm-started reduction — `plan(...)` and
/// `plan_cold_reference(...)` must agree on the final WDM set exactly.
///
/// # Errors
///
/// Same failure modes as [`plan`].
pub fn plan_cold_reference(
    nets: &[NetCandidates],
    choice: &[usize],
    lib: &OpticalLib,
) -> Result<WdmPlan, OperonError> {
    let connections = extract_connections(nets, choice);
    let mut wdms = Vec::new();
    let mut initial_count = 0usize;
    let mut stats = WdmStats::default();
    for orientation in [TrackOrientation::Horizontal, TrackOrientation::Vertical] {
        let inputs = OrientationInputs::new(&connections, orientation, lib);
        if inputs.conns.is_empty() {
            continue;
        }
        let placed = place_orientation(&inputs.conns, orientation, lib)?;
        initial_count += placed.len();
        let (assigned, solves) = assign_orientation_reference(&inputs.conns, placed, lib)?;
        stats.cold_solves += solves;
        wdms.extend(to_global(&assigned, &connections, orientation));
    }
    Ok(WdmPlan {
        connections,
        initial_count,
        wdms,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> OpticalLib {
        OpticalLib::paper_defaults()
    }

    /// A plan from scratch on `exec`, without its resident state.
    fn plan_on(
        nets: &[NetCandidates],
        choice: &[usize],
        exec: &Executor,
    ) -> Result<WdmPlan, OperonError> {
        plan(nets, choice, &lib(), None, exec).map(|(plan, _)| plan)
    }

    fn conn(track: i64, bits: usize) -> Connection {
        Connection {
            net_index: 0,
            bits,
            orientation: TrackOrientation::Horizontal,
            track,
        }
    }

    fn local(conns: &[Connection]) -> Vec<(i64, usize)> {
        conns.iter().map(|c| (c.track, c.bits)).collect()
    }

    #[test]
    fn fig6_three_connections_share_two_wdms() {
        // Paper Fig. 6: three 20-bit connections, capacity 32 -> the sweep
        // needs 3 WDMs (20+20 > 32) but re-assignment packs them into 2
        // by splitting one connection's channels... with integral
        // channels: 20+12 / 8+20 fits in 2 WDMs.
        let l = lib();
        let conns = vec![conn(0, 20), conn(100, 20), conn(200, 20)];
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(placed.len(), 3, "sweep cannot pack 20+20 into one WDM");
        let (final_wdms, stats, ..) = assign_orientation(&lc, placed, &l).expect("feasible");
        assert_eq!(final_wdms.len(), 2, "flow assignment saves one WDM");
        assert!(stats.cold_solves >= 2, "initial solve + committed deletion");
        assert!(stats.warm_trials >= 1, "reduction ran warm trials");
        let total: usize = final_wdms.iter().map(Wdm::used).sum();
        assert_eq!(total, 60, "every channel assigned");
        for w in &final_wdms {
            assert!(w.used() <= l.wdm_capacity);
        }
    }

    #[test]
    fn sweep_respects_capacity_and_distance() {
        let l = lib();
        // Two far-apart connections cannot share despite spare capacity.
        let conns = vec![conn(0, 4), conn(100_000, 4)];
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(placed.len(), 2);
    }

    #[test]
    fn sweep_packs_nearby_small_connections() {
        let l = lib();
        let conns: Vec<Connection> = (0..4).map(|i| conn(i * 10, 8)).collect();
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(placed.len(), 1, "4 x 8 = 32 fits one WDM");
        assert_eq!(placed[0].used(), 32);
    }

    #[test]
    fn oversized_connection_rejected() {
        let l = lib();
        let conns = vec![conn(0, 64)];
        let lc = local(&conns);
        let err = place_orientation(&lc, TrackOrientation::Horizontal, &l)
            .expect_err("64 > capacity must fail");
        assert!(matches!(err, OperonError::WdmInfeasible(_)));
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn legalization_enforces_min_pitch() {
        let l = lib();
        // Many full WDMs forced at nearly the same track.
        let conns: Vec<Connection> = (0..5).map(|i| conn(i, 32)).collect();
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(placed.len(), 5);
        for pair in placed.windows(2) {
            assert!(pair[1].track - pair[0].track >= l.wdm_min_pitch);
        }
    }

    #[test]
    fn assignment_never_exceeds_capacity() {
        let l = lib();
        let conns: Vec<Connection> = (0..10).map(|i| conn(i * 50, 7)).collect();
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        let (final_wdms, ..) = assign_orientation(&lc, placed, &l).expect("feasible");
        let total: usize = final_wdms.iter().map(Wdm::used).sum();
        assert_eq!(total, 70);
        for w in &final_wdms {
            assert!(w.used() <= l.wdm_capacity, "overfull WDM: {}", w.used());
        }
    }

    #[test]
    fn assignment_count_never_exceeds_placement_count() {
        let l = lib();
        let conns: Vec<Connection> = (0..12)
            .map(|i| conn((i * i * 37) % 3_000, (5 + (i % 9)) as usize))
            .collect();
        let lc = local(&conns);
        let placed = place_orientation(&lc, TrackOrientation::Horizontal, &l).expect("feasible");
        let initial = placed.len();
        let (final_wdms, ..) = assign_orientation(&lc, placed, &l).expect("feasible");
        assert!(final_wdms.len() <= initial);
        // Lower bound: ceil(total bits / capacity).
        let total: usize = conns.iter().map(|c| c.bits).sum();
        assert!(final_wdms.len() >= total.div_ceil(l.wdm_capacity));
    }

    #[test]
    fn empty_connection_list_yields_empty_plan() {
        let plan = plan_on(&[], &[], &Executor::sequential()).expect("empty plan is feasible");
        assert_eq!(plan.connections.len(), 0);
        assert_eq!(plan.initial_count, 0);
        assert_eq!(plan.final_count(), 0);
    }

    #[test]
    fn orientation_classification() {
        use crate::codesign::{analyze_assignment, EdgeMedium};
        use operon_geom::Point;
        use operon_optics::ElectricalParams;
        use operon_steiner::{NodeKind, RouteTree};

        let mut tree = RouteTree::new(Point::new(0, 0));
        tree.add_child(tree.root(), Point::new(10_000, 100), NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical],
            3,
            &lib(),
            &ElectricalParams::paper_defaults(),
        );
        let nets = vec![NetCandidates {
            net_index: 7,
            bits: 3,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }];
        let conns = extract_connections(&nets, &[0]);
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].orientation, TrackOrientation::Horizontal);
        assert_eq!(conns[0].track, 50);
        assert_eq!(conns[0].bits, 3);
        assert_eq!(conns[0].net_index, 7);
    }

    /// Builds a one-candidate optical net with a single segment.
    fn seg_net(
        net_index: usize,
        a: operon_geom::Point,
        b: operon_geom::Point,
        bits: usize,
    ) -> NetCandidates {
        use crate::codesign::{analyze_assignment, EdgeMedium};
        use operon_optics::ElectricalParams;
        use operon_steiner::{NodeKind, RouteTree};
        let mut tree = RouteTree::new(a);
        tree.add_child(tree.root(), b, NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical],
            bits,
            &lib(),
            &ElectricalParams::paper_defaults(),
        );
        NetCandidates {
            net_index,
            bits,
            candidates: vec![cand],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    #[test]
    fn mixed_orientations_plan_independently() {
        use operon_geom::Point;
        // Two horizontal connections near each other and one vertical.
        let nets = vec![
            seg_net(0, Point::new(0, 0), Point::new(10_000, 50), 8),
            seg_net(1, Point::new(0, 200), Point::new(10_000, 260), 8),
            seg_net(2, Point::new(5_000, 0), Point::new(5_100, 10_000), 8),
        ];
        let plan = plan_on(&nets, &[0, 0, 0], &Executor::sequential()).expect("feasible");
        assert_eq!(plan.connections.len(), 3);
        let horizontal = plan
            .wdms
            .iter()
            .filter(|w| w.orientation == TrackOrientation::Horizontal)
            .count();
        let vertical = plan.wdms.len() - horizontal;
        assert_eq!(horizontal, 1, "two nearby horizontal connections share");
        assert_eq!(vertical, 1);
        // Global connection indices survived the per-orientation remap.
        let mut carried = vec![0usize; 3];
        for w in &plan.wdms {
            for &(c, b) in &w.assigned {
                carried[c] += b;
            }
        }
        assert_eq!(carried, vec![8, 8, 8]);
    }

    #[test]
    fn warm_reduction_matches_cold_reference() {
        // Mixed track geometries that force multi-round reductions: the
        // warm-trial plan must equal the all-cold reference exactly (same
        // tracks, same per-connection channel splits), for every thread
        // count, while the warm path saves Dijkstra passes.
        use operon_geom::Point;
        for (spread, bits) in [(40i64, 20usize), (700, 7), (90, 13)] {
            let nets: Vec<NetCandidates> = (0..9)
                .map(|k| {
                    let y = (k as i64) * spread;
                    seg_net(k, Point::new(0, y), Point::new(12_000, y + 40), bits)
                })
                .collect();
            let choice = vec![0usize; nets.len()];
            let reference = plan_cold_reference(&nets, &choice, &lib()).expect("feasible");
            for threads in [1, 2, 8] {
                let warm = plan_on(&nets, &choice, &Executor::new(threads)).expect("feasible");
                assert_eq!(
                    warm.wdms, reference.wdms,
                    "spread={spread} threads={threads}"
                );
                assert_eq!(warm.initial_count, reference.initial_count);
                assert_eq!(
                    warm.stats.mcmf.warm_fallbacks, 0,
                    "spread={spread}: warm trials should repair, not fall back"
                );
                assert_eq!(
                    warm.stats.mcmf.networks_cloned, 0,
                    "spread={spread}: trials must roll back, never copy the network"
                );
                assert_eq!(
                    warm.stats.mcmf.rollbacks, warm.stats.warm_trials,
                    "spread={spread}: every warm trial ends in exactly one rollback"
                );
                if warm.stats.warm_trials > 0 {
                    assert!(
                        warm.stats.mcmf.undo_entries > 0,
                        "spread={spread}: trials must write through the undo log"
                    );
                }
            }
        }
    }

    #[test]
    fn wdm_stats_are_thread_count_invariant() {
        use operon_geom::Point;
        let nets: Vec<NetCandidates> = (0..8)
            .map(|k| {
                let y = (k as i64) * 55;
                seg_net(k, Point::new(0, y), Point::new(9_000, y + 30), 11)
            })
            .collect();
        let choice = vec![0usize; nets.len()];
        let base = plan_on(&nets, &choice, &Executor::sequential())
            .expect("feasible")
            .stats;
        assert!(base.warm_trials > 0, "reduction should run trials");
        for threads in [2, 8] {
            let stats = plan_on(&nets, &choice, &Executor::new(threads))
                .expect("feasible")
                .stats;
            assert_eq!(stats, base, "threads={threads}");
        }
    }

    #[test]
    fn failed_deletions_are_never_retrialed() {
        // Three 20-bit connections pack into two of their three sweep
        // waveguides; a lone 2-bit connection beyond `dis_u` of them sits
        // on the emptiest waveguide, whose deletion can never succeed.
        // Round 1 trials it (fails) before committing a 20-bit deletion;
        // round 2 would trial it again, and now skips it. The plan still
        // equals the all-cold reference (which re-trials everything each
        // round) at every thread count, with strictly fewer trials.
        use operon_geom::Point;
        let tracks = [(0i64, 20usize), (100, 20), (200, 20), (50_000, 2)];
        let nets: Vec<NetCandidates> = tracks
            .iter()
            .enumerate()
            .map(|(k, &(y, bits))| seg_net(k, Point::new(0, y), Point::new(12_000, y), bits))
            .collect();
        let choice = vec![0usize; nets.len()];
        let reference = plan_cold_reference(&nets, &choice, &lib()).expect("feasible");
        // One orientation: the reference's first solve, then one cold
        // solve per tentative deletion.
        let reference_trials = reference.stats.cold_solves - 1;
        for threads in [1, 2, 8] {
            let warm = plan_on(&nets, &choice, &Executor::new(threads)).expect("feasible");
            assert_eq!(warm.wdms, reference.wdms, "threads={threads}");
            assert_eq!((warm.initial_count, warm.final_count()), (4, 3));
            // Each waveguide fails at most one trial.
            let commits = warm.stats.cold_solves - 1;
            let failures = warm.stats.warm_trials - commits;
            assert!(
                failures <= warm.initial_count as u64,
                "{failures} failed trials over {} waveguides",
                warm.initial_count
            );
            assert!(
                warm.stats.warm_trials < reference_trials,
                "threads={threads}: {} warm trials vs {reference_trials} reference trials",
                warm.stats.warm_trials
            );
        }
    }

    #[test]
    fn unchanged_orientation_is_reused_with_shifted_indices() {
        // Dropping the first vertical net re-plans the vertical
        // orientation and shifts the last horizontal connection's global
        // index from 3 to 2; the horizontal orientation is reused and
        // must still equal a plan from scratch, field by field.
        use operon_geom::Point;
        let h = |k, y: i64| seg_net(k, Point::new(0, y), Point::new(10_000, y + 40), 12);
        let v = |k, x: i64| seg_net(k, Point::new(x, 0), Point::new(x + 20, 9_000), 9);
        let before = vec![h(0, 0), v(1, 3_000), v(2, 3_090), h(3, 120)];
        let after = vec![h(0, 0), v(2, 3_090), h(3, 120)];
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let (_, prev) = super::plan(&before, &[0; 4], &lib(), None, &exec).expect("feasible");
            let (warm, warm_resident) =
                super::plan(&after, &[0; 3], &lib(), Some(prev), &exec).expect("feasible");
            let (cold, cold_resident) =
                super::plan(&after, &[0; 3], &lib(), None, &exec).expect("feasible");
            assert_eq!(warm.connections, cold.connections);
            assert_eq!(warm.initial_count, cold.initial_count);
            assert_eq!(warm.wdms, cold.wdms, "threads={threads}");
            assert!(warm
                .wdms
                .iter()
                .any(|w| w.assigned.iter().any(|&(c, _)| c == 2)));
            assert_eq!(warm_resident.fingerprint(), cold_resident.fingerprint());
            assert_eq!(warm.stats.orientations_reused, 1);
            assert_eq!(cold.stats.orientations_reused, 0);
            // Only the vertical orientation solved anything.
            assert!(warm.stats.cold_solves >= 1);
            assert!(warm.stats.cold_solves < cold.stats.cold_solves);
        }
    }

    /// The all-pairs scan the windowed [`build_network`] replaced: every
    /// connection tested against every placed WDM.
    fn build_network_all_pairs(
        conns: &[(i64, usize)],
        placed: &[Wdm],
        active: &[bool],
        sweep_wdm: &[usize],
        lib: &OpticalLib,
    ) -> AssignmentNetwork {
        let n_conn = conns.len();
        let mut g = McmfGraph::new(2 + n_conn + placed.len());
        let (s, t) = (g.node(0), g.node(1));
        let mut conn_edges = Vec::new();
        for (i, &(_, bits)) in conns.iter().enumerate() {
            conn_edges.push(g.add_edge(s, g.node(2 + i), bits as i64, 0));
        }
        let reach = lib.wdm_max_displacement;
        let mut assign_edges = Vec::new();
        for (i, &(track, bits)) in conns.iter().enumerate() {
            for (wi, w) in placed.iter().enumerate() {
                let dist = (track - w.track).abs();
                if active[wi] && (dist <= reach || sweep_wdm[i] == wi) {
                    let cost = if reach > 0 { (dist * 100) / reach } else { 0 };
                    let (from, to) = (g.node(2 + i), g.node(2 + n_conn + wi));
                    assign_edges.push((i, wi, g.add_edge(from, to, bits as i64, cost)));
                }
            }
        }
        let mut wdm_edges = vec![None; placed.len()];
        for (wi, edge) in wdm_edges.iter_mut().enumerate() {
            if active[wi] {
                let from = g.node(2 + n_conn + wi);
                *edge = Some(g.add_edge(from, t, lib.wdm_capacity as i64, 1));
            }
        }
        AssignmentNetwork {
            g,
            idx: NetIndex {
                conn_edges,
                assign_edges,
                wdm_edges,
                total_demand: conns.iter().map(|&(_, b)| b as i64).sum(),
            },
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Over random tracks, demands, pitches and reaches — pitches
        /// wide enough that legalization pushes sweep WDMs above their
        /// connections' windows, negative reaches that leave them below
        /// empty ones — and random active sets, the windowed
        /// network has the all-pairs scan's arcs in the same order and
        /// solves to the same bitwise state.
        #[test]
        fn windowed_network_equals_all_pairs_scan(
            conns in proptest::collection::vec((0i64..4_000, 1usize..33), 1..40),
            pitch in -50i64..400,
            reach in -50i64..600,
            capacity in 32usize..65,
            mask in proptest::collection::vec(0u8..4, 40),
        ) {
            let mut l = lib();
            l.wdm_min_pitch = pitch;
            l.wdm_max_displacement = reach;
            l.wdm_capacity = capacity;
            let placed = place_orientation(&conns, TrackOrientation::Horizontal, &l)
                .expect("demands fit the capacity");
            let sweep = sweep_wdms(conns.len(), &placed);
            let active: Vec<bool> = (0..placed.len()).map(|wi| mask[wi % 40] != 0).collect();
            let mut windowed = build_network(&conns, &placed, &active, &sweep, &l);
            let mut all_pairs = build_network_all_pairs(&conns, &placed, &active, &sweep, &l);
            prop_assert_eq!(&windowed.idx.assign_edges, &all_pairs.idx.assign_edges);
            prop_assert_eq!(&windowed.idx.wdm_edges, &all_pairs.idx.wdm_edges);
            for net in [&mut windowed, &mut all_pairs] {
                let (s, t) = (net.g.node(0), net.g.node(1));
                net.g.min_cost_max_flow(s, t);
            }
            prop_assert_eq!(windowed.g.fingerprint(), all_pairs.g.fingerprint());
        }
    }

    #[test]
    fn vertical_sweep_respects_capacity() {
        use operon_geom::Point;
        let nets: Vec<NetCandidates> = (0..5)
            .map(|k| {
                seg_net(
                    k,
                    Point::new(k as i64 * 30, 0),
                    Point::new(k as i64 * 30 + 10, 9_000),
                    12,
                )
            })
            .collect();
        let choice = vec![0usize; nets.len()];
        let plan = plan_on(&nets, &choice, &Executor::sequential()).expect("feasible");
        assert!(plan
            .wdms
            .iter()
            .all(|w| w.orientation == TrackOrientation::Vertical));
        for w in &plan.wdms {
            assert!(w.used() <= lib().wdm_capacity);
        }
        let total: usize = plan.wdms.iter().map(Wdm::used).sum();
        assert_eq!(total, 60);
        // 60 channels at capacity 32 need at least 2 waveguides.
        assert!(plan.final_count() >= 2);
    }
}
