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
//! 2. **Assignment** (§4.2), per component: a connection reaches only the
//!    WDMs within `dis_u` of its track, plus its sweep WDM, so each
//!    orientation's `s → connections → nearby WDMs → t` network falls
//!    apart into independent components that share no arc. A min-cost
//!    max-flow over each component re-distributes channels at minimum
//!    displacement; integrality comes for free from the network's
//!    unimodularity.
//! 3. **Reduction**, per component: idle WDMs are removed outright, and
//!    under-filled WDMs are tentatively deleted (fewest channels first)
//!    with a re-solve to check the remaining capacity still carries all
//!    demand — this is what turns the sweep's sub-optimality into the
//!    paper's ~9% saving.
//!
//! Because components share no arc, the max-flow value, the min cost and
//! every deletion's feasibility decompose exactly over them; a committed
//! deletion re-solves only its own component, and the components of both
//! orientations run as one coarse parallel map.

pub mod channels;

use crate::codesign::NetCandidates;
use crate::error::OperonError;
use crate::formulation::Dsu;
use operon_exec::Executor;
use operon_mcmf::{EdgeId, McmfGraph, McmfStats};
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
/// Each component's reduction runs its tentative deletions one at a
/// time, in rank order, and the components' counters are summed in a
/// fixed order, so the counters depend only on the planner's inputs —
/// never on the executor's thread count.
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
    /// Independent assignment components planned, one coarse task each.
    pub components: u64,
    /// Cold MCMF solves: one initial assignment per component plus one
    /// re-solve of its component per committed deletion.
    pub cold_solves: u64,
    /// Warm-started tentative-deletion feasibility trials.
    pub warm_trials: u64,
    /// Orientations whose inputs equalled the previous plan's, so their
    /// waveguides were taken over unsolved.
    pub orientations_reused: u64,
    /// Aggregated network-solver counters across those solves.
    pub mcmf: McmfStats,
}

impl WdmStats {
    /// Adds every counter of `other` into `self`.
    pub fn accumulate(&mut self, other: &WdmStats) {
        self.components += other.components;
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

    /// One [`WdmProbe`] per final waveguide, in plan order, read off the
    /// reduction's fixpoint without running a solver.
    pub(crate) fn probes(&self) -> Vec<WdmProbe> {
        self.wdms
            .iter()
            .map(|w| {
                let used = w.used();
                WdmProbe {
                    orientation: w.orientation,
                    track: w.track,
                    used,
                    deletable: false,
                    displaced: used as i64,
                    reroute_cost: 0,
                }
            })
            .collect()
    }

    /// FNV-1a digest, byte by byte over little-endian `u64`s, of
    /// everything the plan decides: the initial waveguide count, then
    /// each final waveguide's orientation (0 horizontal, 1 vertical),
    /// track and `(connection, channels)` list. Equal plans share it;
    /// any other plan moves it, barring an FNV collision. The solver
    /// counters in `stats` are not part of it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.initial_count as u64);
        eat(self.wdms.len() as u64);
        for w in &self.wdms {
            eat(match w.orientation {
                TrackOrientation::Horizontal => 0,
                TrackOrientation::Vertical => 1,
            });
            eat(w.track as u64);
            eat(w.assigned.len() as u64);
            for &(conn, channels) in &w.assigned {
                eat(conn as u64);
                eat(channels as u64);
            }
        }
        h
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

/// The placed WDMs a connection on `track` whose sweep WDM is `sweep`
/// can reach, in ascending order: the contiguous window of the
/// track-sorted `placed` within `reach` of the track, plus the sweep WDM
/// wherever legalization pushed it. This is the one definition of an
/// assignment arc, shared by [`split_components`] and [`build_network`]
/// so the split and the networks cannot disagree.
fn reachable(track: i64, sweep: usize, placed: &[Wdm], reach: i64) -> impl Iterator<Item = usize> {
    let lo = placed.partition_point(|w| w.track < track.saturating_sub(reach));
    let hi = placed
        .partition_point(|w| w.track <= track.saturating_add(reach))
        .max(lo);
    let (before, after) = if sweep < lo {
        (Some(sweep), None)
    } else if sweep >= hi && sweep < placed.len() {
        (None, Some(sweep))
    } else {
        (None, None)
    };
    before.into_iter().chain(lo..hi).chain(after)
}

/// One connected component of an orientation's assignment graph (the
/// connection → WDM arcs of [`reachable`]). It is an assignment problem
/// of its own: its network is the orientation network's induced
/// subgraph, numbered with relative order kept — `s`, `t`, its
/// connections in ascending position, its WDMs in ascending index — and
/// [`build_network`] adds its arcs in the whole network's order.
#[derive(Default)]
struct Component {
    /// Orientation positions of its connections, ascending.
    conn_pos: Vec<usize>,
    /// Orientation indices of its placed WDMs, ascending.
    wdm_idx: Vec<usize>,
    /// Its connections' `(track, bits)`, in `conn_pos` order.
    conns: Vec<(i64, usize)>,
    /// Its placed WDMs in `wdm_idx` order, so still track-sorted, with
    /// sweep assignments given by position in `conns`.
    placed: Vec<Wdm>,
}

/// Splits one orientation's track-sorted sweep placement into the
/// connected components of its assignment graph, ordered by their first
/// WDM. Every connection reaches its sweep WDM, so each component holds
/// at least one connection and one WDM.
fn split_components(conns: &[(i64, usize)], placed: &[Wdm], lib: &OpticalLib) -> Vec<Component> {
    let sweep_wdm = sweep_wdms(conns.len(), placed);
    let mut dsu = Dsu::new(placed.len());
    for (&(track, _), &sweep) in conns.iter().zip(&sweep_wdm) {
        for wi in reachable(track, sweep, placed, lib.wdm_max_displacement) {
            dsu.union(wi, sweep);
        }
    }
    // `(component, index within it)` of every placed WDM.
    let mut slot = Vec::with_capacity(placed.len());
    let mut component_of_root = vec![usize::MAX; placed.len()];
    let mut components: Vec<Component> = Vec::new();
    for (wi, w) in placed.iter().enumerate() {
        let root = dsu.find(wi);
        if component_of_root[root] == usize::MAX {
            component_of_root[root] = components.len();
            components.push(Component::default());
        }
        let c = component_of_root[root];
        let part = &mut components[c];
        slot.push((c, part.placed.len()));
        part.wdm_idx.push(wi);
        part.placed.push(Wdm {
            orientation: w.orientation,
            track: w.track,
            // operon-lint: allow(P002, reason = "an empty list, filled below with the WDM's sweep connections; the split runs once per plan, not per solver iteration")
            assigned: Vec::new(),
        });
    }
    for (pos, (&conn, &sweep)) in conns.iter().zip(&sweep_wdm).enumerate() {
        let (c, local_wdm) = slot[sweep];
        let part = &mut components[c];
        part.placed[local_wdm]
            .assigned
            .push((part.conns.len(), conn.1));
        part.conn_pos.push(pos);
        part.conns.push(conn);
    }
    components
}

/// Places one orientation (§4.1) and splits the placement into its
/// assignment components. Returns the WDM count after placement and the
/// components.
///
/// # Errors
///
/// Same as [`place_orientation`].
fn place_and_split(
    conns: &[(i64, usize)],
    orientation: TrackOrientation,
    lib: &OpticalLib,
) -> Result<(usize, Vec<Component>), OperonError> {
    let placed = place_orientation(conns, orientation, lib)?;
    Ok((placed.len(), split_components(conns, &placed, lib)))
}

/// Merges each component's final waveguides — `(local WDM index,
/// waveguide with local connection positions)`, one list per component
/// in component order — back into plan order: ascending placed index,
/// with connection positions restated in orientation terms.
fn merge_components(components: &[Component], finals: Vec<Vec<(usize, Wdm)>>) -> Vec<Wdm> {
    let mut keyed: Vec<(usize, Wdm)> = Vec::new();
    for (part, survivors) in components.iter().zip(finals) {
        for (wi, mut w) in survivors {
            for (conn, _) in &mut w.assigned {
                *conn = part.conn_pos[*conn];
            }
            keyed.push((part.wdm_idx[wi], w));
        }
    }
    keyed.sort_unstable_by_key(|&(index, _)| index);
    keyed.into_iter().map(|(_, w)| w).collect()
}

/// One reduced component: its final waveguides as `(local WDM index,
/// waveguide)` with connections by local position, and the reduction's
/// work counters.
type Reduced = (Vec<(usize, Wdm)>, WdmStats);

/// Min-cost max-flow re-assignment (§4.2) of one component, followed by
/// under-fill reduction. `conns` are the component's `(track, bits)`
/// connections and `placed` their track-sorted sweep placement.
/// Connections keep a guaranteed edge to their sweep-assigned WDM so the
/// network always carries the full demand.
///
/// The reduction ranks the active waveguides by fill each round and
/// tries to delete them in that order, one at a time, committing the
/// first success. A waveguide whose deletion failed once is never
/// trialed again (see [`WdmStats`]). The loop ends at its fixpoint:
/// every surviving waveguide has failed a trial, and the committed
/// network is dropped with the loop — the plan is the whole answer.
///
/// Trials are *warm* ([`warm_trial`]): each one asks the committed solved
/// network whether the deleted WDM's sink-edge flow can move to the other
/// active WDMs, a plain max-flow check that leaves the network bitwise
/// as it found it, so no trial ever copies the network. Feasibility is
/// the max-flow *value*, which is unique, so warm and cold trials always
/// agree; the committed assignment after a successful trial is re-solved
/// cold on the reduced network, keeping the final plan bit-identical to
/// the all-cold reference ([`assign_component_reference`]).
fn assign_component(
    conns: &[(i64, usize)],
    placed: &[Wdm],
    lib: &OpticalLib,
) -> Result<Reduced, OperonError> {
    let sweep_wdm = sweep_wdms(conns.len(), placed);

    let mut stats = WdmStats {
        components: 1,
        ..WdmStats::default()
    };
    let mut active: Vec<bool> = vec![true; placed.len()];
    // WDMs whose deletion already failed on a superset of the current
    // active set (see `WdmStats`): never trialed again.
    let mut undeletable: Vec<bool> = vec![false; placed.len()];
    let mut committed = build_network(conns, placed, &active, &sweep_wdm, lib);
    let first = {
        let (s, t) = (committed.g.node(0), committed.g.node(1));
        committed.g.min_cost_max_flow(s, t)
    };
    stats.cold_solves += 1;
    stats.mcmf.accumulate(&committed.g.stats());
    // The sweep assignment itself is a witness of feasibility, so this
    // only fails if the guaranteed feasibility edges were broken upstream.
    if first.flow < committed.idx.total_demand {
        return Err(infeasible(conns.len(), placed.len()));
    }
    let mut best = extract_assignment(&committed.g, &committed.idx, placed);

    // Reduction: try deleting WDMs, emptiest first. Idle WDMs go outright;
    // the loaded candidates need a tentative-deletion trial each.
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
            let (feasible, trial_stats) = warm_trial(&mut committed.g, &committed.idx, wi);
            stats.warm_trials += 1;
            stats.mcmf.accumulate(&trial_stats);
            if !feasible {
                undeletable[wi] = true;
                continue;
            }
            // Commit with a cold solve of the reduced network so the
            // assignment is bit-identical to the all-cold reduction path.
            active[wi] = false;
            let mut net = build_network(conns, placed, &active, &sweep_wdm, lib);
            let (s, t) = (net.g.node(0), net.g.node(1));
            let r = net.g.min_cost_max_flow(s, t);
            stats.cold_solves += 1;
            stats.mcmf.accumulate(&net.g.stats());
            if r.flow == net.idx.total_demand {
                best = extract_assignment(&net.g, &net.idx, placed);
                committed = net;
                removed_any = true;
                break; // re-rank by the new fill levels
            }
            // The warm trial certified feasibility, so the cold solve of
            // the same reduced network cannot disagree, and no fixture
            // reaches this branch. Should it ever run, reactivate and
            // mark the waveguide undeletable, so every survivor still
            // failed a trial or a cold solve and the fixpoint holds.
            active[wi] = true;
            undeletable[wi] = true;
        }
        if !removed_any {
            break;
        }
    }

    // The surviving waveguides with their local indices, which the
    // merge maps back to plan order.
    let survivors = best
        .into_iter()
        .enumerate()
        .filter(|(wi, w)| active[*wi] && w.used() > 0)
        .collect();
    Ok((survivors, stats))
}

/// The error for an assignment network that cannot carry its demand.
fn infeasible(n_conn: usize, n_wdm: usize) -> OperonError {
    OperonError::WdmInfeasible(format!(
        "flow network cannot carry {n_conn} connections over {n_wdm} sweep WDMs"
    ))
}

/// The pre-warm-start reduction loop: every tentative deletion is a full
/// cold re-solve, and every loaded waveguide is re-trialed each round.
/// Retained as the identity reference for [`assign_component`] — the
/// two must produce the same survivors. Also returns the number of cold
/// solves it ran (the initial one plus one per tentative deletion).
fn assign_component_reference(
    conns: &[(i64, usize)],
    placed: &[Wdm],
    lib: &OpticalLib,
) -> Result<(Vec<(usize, Wdm)>, u64), OperonError> {
    let sweep_wdm = sweep_wdms(conns.len(), placed);

    let mut active: Vec<bool> = vec![true; placed.len()];
    let mut solves = 1u64;
    let mut best = solve_assignment(conns, placed, &active, &sweep_wdm, lib)
        .ok_or_else(|| infeasible(conns.len(), placed.len()))?;

    loop {
        let mut candidates: Vec<(usize, usize)> = best
            .iter()
            .enumerate()
            .filter(|&(wi, _)| active[wi])
            .map(|(wi, w)| (w.used(), wi))
            // operon-lint: allow(P002, reason = "cold reference path kept allocation-simple as the identity oracle for assign_component")
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
            // operon-lint: allow(P002, reason = "cold reference path kept allocation-simple as the identity oracle for assign_component")
            .collect();
        for wi in loaded {
            // Tentatively deactivate, reverting when the reduced network
            // cannot carry the demand (same decisions as a cloned trial
            // set, without the per-trial allocation).
            active[wi] = false;
            solves += 1;
            if let Some(assignment) = solve_assignment(conns, placed, &active, &sweep_wdm, lib) {
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

    let survivors = best
        .into_iter()
        .enumerate()
        .filter(|(wi, w)| active[*wi] && w.used() > 0)
        .collect();
    Ok((survivors, solves))
}

/// One warm tentative-deletion trial, run *in place* on the committed
/// network `g`: [`can_divert`](McmfGraph::can_divert) on WDM `wi`'s sink
/// edge asks whether BFS augmenting paths move its flow from `wi`'s node
/// to the sink once the edge is closed. The reduced network carries the
/// full demand exactly when they do, and the check restores `g` bitwise,
/// so the next trial starts from the committed state without any copy.
/// A WDM with no sink edge carries nothing, so deleting it is feasible.
/// Returns whether the deletion is feasible and the solver counters the
/// trial added.
fn warm_trial(g: &mut McmfGraph, idx: &NetIndex, wi: usize) -> (bool, McmfStats) {
    let before = g.stats();
    let feasible = idx.wdm_edges[wi].is_none_or(|sink| g.can_divert(sink));
    (feasible, g.stats().delta_since(&before))
}

/// The assignment flow network of one component while its reduction
/// runs: the residual network plus the edge handles ([`NetIndex`])
/// needed to replay tentative deletions warm. Split so trials can
/// mutably borrow the network while reading the immutable handle lists.
struct AssignmentNetwork {
    g: McmfGraph,
    idx: NetIndex,
}

/// The outcome of deleting one final waveguide from a finished plan.
///
/// The reduction runs to its fixpoint: every final waveguide failed a
/// tentative deletion on a superset of the final active set, and a
/// failed deletion stays infeasible on every subset of that set (see
/// [`WdmStats`]). So deleting a final waveguide always strands some of
/// its channels: `deletable` is `false`, `displaced` is the channels it
/// carries and `reroute_cost` is 0. These are facts about the plan, read
/// off it without running a solver.
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
/// wdm_min_pitch)`. Equal inputs give a bitwise-equal plan, which is
/// what lets [`plan`] reuse it.
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
/// was planned from and the plan they gave.
struct OrientationResident {
    orientation: TrackOrientation,
    inputs: OrientationInputs,
    /// WDM count right after the sweep placement.
    initial: usize,
    /// The final waveguides in plan order, their connections given by
    /// position in `inputs.conns`.
    wdms: Vec<Wdm>,
}

/// The orientation-reuse record of a finished WDM plan: per orientation,
/// the inputs it was planned from, its initial count and its final
/// waveguides, so the next [`plan`] can take an unchanged orientation
/// over unsolved. It keeps no flow network; every network is dropped
/// when its component's reduction ends.
///
/// Returned by [`plan`]; dropped (cheaply) by callers that only want the
/// plan.
#[derive(Default)]
pub struct ResidentAssignment {
    parts: Vec<OrientationResident>,
}

/// Edge handles of an assignment network, immutable once built.
///
/// Node indexing is `0 = s`, `1 = t`, `2 + i` for connection `i` and
/// `2 + n_conn + w` for WDM `w`, for *every* placed WDM whether active or
/// not, so every active set numbers its nodes alike.
struct NetIndex {
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
/// [`legalize`] leaves it: each connection then reaches the WDMs
/// [`reachable`] lists. Arcs go in per connection, in ascending WDM
/// order — the order of a scan over every connection × WDM pair — so
/// solving the network cold reproduces the same flow byte-for-byte.
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
    for (i, &(_, bits)) in conns.iter().enumerate() {
        g.add_edge(s, g.node(conn_node(i)), bits as i64, 0);
    }
    // Displacement costs normalized so WDM usage (handled by the
    // reduction loop) dominates; scaled to integers.
    let reach = lib.wdm_max_displacement;
    let mut assign_edges = Vec::new();
    for (i, &(track, bits)) in conns.iter().enumerate() {
        for wi in reachable(track, sweep_wdm[i], placed, reach) {
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

/// Runs placement and assignment over a full selection, with every
/// assignment component of both orientations planned on `exec`'s
/// workers, and returns the plan with its [`ResidentAssignment`] — the
/// record that lets the next plan reuse an unchanged orientation. A
/// session keeps it across requests; one-shot callers pass `prev = None`
/// and drop it.
///
/// Horizontal and vertical tracks share nothing, and within an
/// orientation a connection reaches only the WDMs within
/// `wdm_max_displacement` of its track plus its sweep WDM, so each
/// orientation's assignment network falls apart into components that
/// share no arc. Every component's assignment and reduction loop runs as
/// one coarse parallel task, and a committed deletion re-solves only its
/// own component. The results are merged in the fixed plan order —
/// horizontal then vertical, ascending placed WDM index — identical for
/// every thread count.
///
/// `prev` is the previous plan's resident state, if any. An orientation
/// whose inputs — its connections' `(track, bits)` in extraction order
/// and the `wdm_capacity`, `wdm_max_displacement` and `wdm_min_pitch`
/// knobs — equal those it was planned from is not planned again: its
/// waveguides are taken over, their connection positions restated
/// through the new global indices, and it counts in
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
    let mut slots = Vec::new();
    for orientation in [TrackOrientation::Horizontal, TrackOrientation::Vertical] {
        let inputs = OrientationInputs::new(&connections, orientation, lib);
        let old = prev_parts
            .iter()
            .position(|p| p.orientation == orientation)
            .map(|i| prev_parts.swap_remove(i));
        // A stale part drops here, before the new plan is built.
        let reused = old.filter(|part| part.inputs == inputs);
        let split = match reused {
            None if !inputs.conns.is_empty() => {
                Some(place_and_split(&inputs.conns, orientation, lib)?)
            }
            _ => None,
        };
        slots.push((orientation, inputs, reused, split));
    }
    // One coarse task per component of every re-planned orientation.
    let tasks: Vec<&Component> = slots
        .iter()
        .flat_map(|(.., split)| split.iter().flat_map(|(_, components)| components))
        .collect();
    let mut solved = exec
        .par_map_coarse(&tasks, |c| assign_component(&c.conns, &c.placed, lib))
        .into_iter();

    let mut stats = WdmStats::default();
    let mut wdms = Vec::new();
    let mut parts = Vec::new();
    for (orientation, inputs, reused, split) in slots {
        let part = match (reused, split) {
            (Some(part), _) => {
                stats.orientations_reused += 1;
                part
            }
            (None, Some((initial, components))) => {
                let mut survivors = Vec::with_capacity(components.len());
                for result in solved.by_ref().take(components.len()) {
                    let (finals, component_stats) = result?;
                    stats.accumulate(&component_stats);
                    survivors.push(finals);
                }
                OrientationResident {
                    orientation,
                    inputs,
                    initial,
                    wdms: merge_components(&components, survivors),
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

/// The all-cold reference planner: identical placement, component split,
/// assignment and reduction decisions to [`plan`], but every tentative
/// deletion pays a full cold re-solve of its component and every loaded
/// waveguide is re-trialed each round. Of the work counters only
/// `stats.components` and `stats.cold_solves` are recorded. Retained to
/// pin the warm-started reduction — `plan(...)` and
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
        let (initial, components) = place_and_split(&inputs.conns, orientation, lib)?;
        initial_count += initial;
        let mut survivors = Vec::with_capacity(components.len());
        for c in &components {
            let (finals, solves) = assign_component_reference(&c.conns, &c.placed, lib)?;
            stats.components += 1;
            stats.cold_solves += solves;
            survivors.push(finals);
        }
        let assigned = merge_components(&components, survivors);
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

    /// Places one horizontal orientation, then assigns and reduces each
    /// component as [`plan`] does: the final waveguides in plan order
    /// and the summed counters.
    fn assign_split(conns: &[(i64, usize)], l: &OpticalLib) -> (Vec<Wdm>, WdmStats) {
        let (_, components) =
            place_and_split(conns, TrackOrientation::Horizontal, l).expect("feasible");
        let mut stats = WdmStats::default();
        let mut survivors = Vec::new();
        for c in &components {
            let (finals, component_stats) =
                assign_component(&c.conns, &c.placed, l).expect("feasible");
            stats.accumulate(&component_stats);
            survivors.push(finals);
        }
        (merge_components(&components, survivors), stats)
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
        let (final_wdms, stats) = assign_split(&lc, &l);
        assert_eq!(stats.components, 1);
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
        let (final_wdms, _) = assign_split(&lc, &l);
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
        let (final_wdms, _) = assign_split(&lc, &l);
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
        // count, with no network copied.
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
                    warm.stats.mcmf.networks_cloned, 0,
                    "spread={spread}: trials run in place, never on a copy"
                );
            }
        }
    }

    /// Five assignment components: three horizontal — the six-connection
    /// component of `failed_deletions_are_never_retrialed`, four nearby
    /// 13-bit connections 20k dbu away and a lone 5-bit connection — and
    /// two vertical — five 12-bit connections 90 dbu apart and a lone
    /// one.
    fn multi_component_nets() -> Vec<NetCandidates> {
        use operon_geom::Point;
        let mut horizontal = vec![
            (0i64, 20usize),
            (100, 20),
            (200, 20),
            (500, 2),
            (850, 31),
            (1_400, 2),
        ];
        horizontal.extend((0..4).map(|k| (20_000 + k * 40, 13)));
        horizontal.push((40_000, 5));
        let mut vertical: Vec<(i64, usize)> = (0..5).map(|k| (3_000 + k * 90, 12)).collect();
        vertical.push((30_000, 9));
        let mut nets: Vec<NetCandidates> = horizontal
            .iter()
            .map(|&(y, bits)| (Point::new(0, y), Point::new(12_000, y), bits))
            .chain(
                vertical
                    .iter()
                    .map(|&(x, bits)| (Point::new(x, 0), Point::new(x + 20, 9_000), bits)),
            )
            .enumerate()
            .map(|(k, (a, b, bits))| seg_net(k, a, b, bits))
            .collect();
        // Interleave the orientations in extraction order.
        nets.swap(1, 12);
        nets
    }

    #[test]
    fn multi_component_plan_matches_cold_reference() {
        let nets = multi_component_nets();
        let choice = vec![0usize; nets.len()];
        let reference = plan_cold_reference(&nets, &choice, &lib()).expect("feasible");
        assert_eq!(reference.stats.components, 5);
        let base = plan_on(&nets, &choice, &Executor::sequential()).expect("feasible");
        for threads in [1, 2, 8] {
            let warm = plan_on(&nets, &choice, &Executor::new(threads)).expect("feasible");
            assert_eq!(warm.wdms, reference.wdms, "threads={threads}");
            assert_eq!(warm.initial_count, reference.initial_count);
            assert_eq!(warm.stats, base.stats, "threads={threads}");
            assert_eq!(warm.stats.components, 5);
            assert_eq!(warm.stats.mcmf.networks_cloned, 0);
        }
    }

    /// Whether the orientation's whole assignment network over `active`
    /// carries the full demand, by a cold solve that shares nothing with
    /// the reduction that produced the plan.
    fn whole_network_feasible(
        conns: &[(i64, usize)],
        placed: &[Wdm],
        active: &[bool],
        l: &OpticalLib,
    ) -> bool {
        let sweep = sweep_wdms(conns.len(), placed);
        let mut net = build_network(conns, placed, active, &sweep, l);
        let (s, t) = (net.g.node(0), net.g.node(1));
        net.g.min_cost_max_flow(s, t).flow == net.idx.total_demand
    }

    /// One orientation of a finished plan, rebuilt from the plan alone:
    /// its `(track, bits)` inputs, their placement, and the placed
    /// index of each final waveguide in plan order.
    struct FinalActiveSet {
        conns: Vec<(i64, usize)>,
        placed: Vec<Wdm>,
        finals: Vec<usize>,
    }

    /// For each orientation of `plan`, re-places its connections (read
    /// off `plan.connections`) and maps every final waveguide to its
    /// placed index by track. Reads nothing but the plan itself.
    fn final_active_sets(plan: &WdmPlan, l: &OpticalLib) -> Vec<FinalActiveSet> {
        let mut out = Vec::new();
        for orientation in [TrackOrientation::Horizontal, TrackOrientation::Vertical] {
            let conns = OrientationInputs::new(&plan.connections, orientation, l).conns;
            if conns.is_empty() {
                continue;
            }
            let placed = place_orientation(&conns, orientation, l).expect("feasible");
            let finals: Vec<usize> = plan
                .wdms
                .iter()
                .filter(|w| w.orientation == orientation)
                .map(|w| {
                    let at = placed.partition_point(|p| p.track < w.track);
                    assert_eq!(placed[at].track, w.track, "a final waveguide is placed");
                    at
                })
                .collect();
            assert!(finals.windows(2).all(|p| p[0] < p[1]), "plan order");
            out.push(FinalActiveSet {
                conns,
                placed,
                finals,
            });
        }
        out
    }

    /// Whether deleting each final waveguide, in plan order, leaves the
    /// orientation's whole network able to carry its demand.
    fn deletions_feasible(plan: &WdmPlan, l: &OpticalLib) -> Vec<bool> {
        let mut out = Vec::new();
        for FinalActiveSet {
            conns,
            placed,
            finals,
        } in final_active_sets(plan, l)
        {
            for &gone in &finals {
                let active: Vec<bool> = (0..placed.len())
                    .map(|wi| wi != gone && finals.contains(&wi))
                    .collect();
                out.push(whole_network_feasible(&conns, &placed, &active, l));
            }
        }
        out
    }

    #[test]
    fn probe_flags_equal_whole_network_feasibility() {
        // The probes answer a constant; this pins that the constant is
        // what a whole-orientation cold solve says about each deletion.
        let l = lib();
        let nets = multi_component_nets();
        let choice = vec![0usize; nets.len()];
        let mut expected_probes = None;
        for threads in [1, 2, 8] {
            let plan = plan_on(&nets, &choice, &Executor::new(threads)).expect("feasible");
            let probes = plan.probes();
            assert_eq!(probes.len(), plan.final_count());
            let feasible = deletions_feasible(&plan, &l);
            assert_eq!(feasible.len(), probes.len());
            for ((probe, w), deletable) in probes.iter().zip(&plan.wdms).zip(feasible) {
                assert_eq!((probe.orientation, probe.track), (w.orientation, w.track));
                assert_eq!(
                    probe.deletable, deletable,
                    "threads={threads}: waveguide at {}",
                    probe.track
                );
                assert_eq!(probe.displaced, w.used() as i64);
                assert!(probe.displaced > 0);
                assert_eq!(probe.reroute_cost, 0);
            }
            match &expected_probes {
                None => expected_probes = Some(probes),
                Some(expected) => assert_eq!(&probes, expected, "threads={threads}"),
            }
        }
    }

    #[test]
    fn split_follows_sweep_arcs_outside_the_window() {
        // Full 32-bit connections at tracks 0, 1 and 2 each open a
        // waveguide; legalization at pitch 400 pushes them to 0, 400 and
        // 800, beyond the 300-dbu reach of every connection but the
        // first. Only the sweep arcs link the last two waveguides in.
        let mut l = lib();
        l.wdm_min_pitch = 400;
        l.wdm_max_displacement = 300;
        let conns = [(0i64, 32usize), (1, 32), (2, 32)];
        let (initial, components) =
            place_and_split(&conns, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(initial, 3);
        assert_eq!(components.len(), 1);
        assert_eq!(components[0].wdm_idx, vec![0, 1, 2]);
        assert_eq!(components[0].conn_pos, vec![0, 1, 2]);
        // Without the sweep arcs the connections at 1 and 2 would reach
        // only the waveguide at 0, and the other two none at all.
        l.wdm_max_displacement = 0;
        let (_, components) =
            place_and_split(&conns, TrackOrientation::Horizontal, &l).expect("feasible");
        assert_eq!(components.len(), 3, "each connection keeps its sweep arc");
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
        // One component: three 20-bit connections (0, 100, 200) pack
        // into two of their three sweep waveguides, and a 2-bit
        // connection at 500 joins the waveguide at 200 and reaches the
        // one at 850, which links them to a 31-bit connection at 850 and
        // a 2-bit one at 1400. Those two reach only the waveguides at 850
        // and 1400, so the emptiest waveguide (1400, 2 channels) can
        // never go: 33 channels do not fit one. Round 1 trials it (fails)
        // before committing a 20-bit deletion; round 2 would trial it
        // again, and now skips it. The plan still equals the all-cold
        // reference (which re-trials everything each round) at every
        // thread count, with strictly fewer trials.
        use operon_geom::Point;
        let tracks = [
            (0i64, 20usize),
            (100, 20),
            (200, 20),
            (500, 2),
            (850, 31),
            (1_400, 2),
        ];
        let nets: Vec<NetCandidates> = tracks
            .iter()
            .enumerate()
            .map(|(k, &(y, bits))| seg_net(k, Point::new(0, y), Point::new(12_000, y), bits))
            .collect();
        let choice = vec![0usize; nets.len()];
        let reference = plan_cold_reference(&nets, &choice, &lib()).expect("feasible");
        assert_eq!(reference.stats.components, 1);
        // One component: the reference's first solve, then one cold
        // solve per tentative deletion.
        let reference_trials = reference.stats.cold_solves - 1;
        for threads in [1, 2, 8] {
            let warm = plan_on(&nets, &choice, &Executor::new(threads)).expect("feasible");
            assert_eq!(warm.wdms, reference.wdms, "threads={threads}");
            assert_eq!((warm.initial_count, warm.final_count()), (5, 4));
            assert!(warm.wdms.iter().any(|w| w.track == 1_400));
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
            let (warm, _) =
                super::plan(&after, &[0; 3], &lib(), Some(prev), &exec).expect("feasible");
            let (cold, _) = super::plan(&after, &[0; 3], &lib(), None, &exec).expect("feasible");
            assert_eq!(warm.connections, cold.connections);
            assert_eq!(warm.initial_count, cold.initial_count);
            assert_eq!(warm.wdms, cold.wdms, "threads={threads}");
            assert!(warm
                .wdms
                .iter()
                .any(|w| w.assigned.iter().any(|&(c, _)| c == 2)));
            assert_eq!(warm.fingerprint(), cold.fingerprint());
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
        for (i, &(_, bits)) in conns.iter().enumerate() {
            g.add_edge(s, g.node(2 + i), bits as i64, 0);
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

        /// The component split equals connectivity under a naive
        /// all-pairs arc test — within reach, or the sweep WDM wherever
        /// legalization pushed it — and each component is the induced
        /// subproblem, numbered with relative order kept.
        #[test]
        fn split_equals_all_pairs_connectivity(
            conns in proptest::collection::vec((0i64..4_000, 1usize..33), 1..40),
            pitch in -50i64..400,
            reach in -50i64..600,
            capacity in 32usize..65,
        ) {
            let mut l = lib();
            l.wdm_min_pitch = pitch;
            l.wdm_max_displacement = reach;
            l.wdm_capacity = capacity;
            let placed = place_orientation(&conns, TrackOrientation::Horizontal, &l)
                .expect("demands fit the capacity");
            let sweep = sweep_wdms(conns.len(), &placed);
            let components = split_components(&conns, &placed, &l);

            // Oracle: min-label propagation over every connection × WDM
            // pair until nothing changes. Labels `0..n_wdm` are WDMs.
            let arcs: Vec<(usize, usize)> = (0..conns.len())
                .flat_map(|i| (0..placed.len()).map(move |wi| (i, wi)))
                .filter(|&(i, wi)| {
                    (conns[i].0 - placed[wi].track).abs() <= reach || sweep[i] == wi
                })
                .collect();
            let mut label: Vec<usize> = (0..placed.len()).collect();
            let mut conn_label = vec![usize::MAX; conns.len()];
            let mut changed = true;
            while changed {
                changed = false;
                for &(i, wi) in &arcs {
                    let low = label[wi].min(conn_label[i]);
                    if label[wi] != low || conn_label[i] != low {
                        label[wi] = low;
                        conn_label[i] = low;
                        changed = true;
                    }
                }
            }

            let mut wdm_component = vec![usize::MAX; placed.len()];
            let mut conn_component = vec![usize::MAX; conns.len()];
            let mut first_wdms = Vec::new();
            for (c, part) in components.iter().enumerate() {
                prop_assert!(!part.wdm_idx.is_empty() && !part.conn_pos.is_empty());
                prop_assert!(part.wdm_idx.windows(2).all(|p| p[0] < p[1]));
                prop_assert!(part.conn_pos.windows(2).all(|p| p[0] < p[1]));
                first_wdms.push(part.wdm_idx[0]);
                for (k, &wi) in part.wdm_idx.iter().enumerate() {
                    prop_assert_eq!(wdm_component[wi], usize::MAX);
                    wdm_component[wi] = c;
                    prop_assert_eq!(part.placed[k].track, placed[wi].track);
                }
                for (k, &pos) in part.conn_pos.iter().enumerate() {
                    prop_assert_eq!(conn_component[pos], usize::MAX);
                    conn_component[pos] = c;
                    prop_assert_eq!(part.conns[k], conns[pos]);
                }
                // Local sweep assignments name the same WDMs.
                let local_sweep = sweep_wdms(part.conns.len(), &part.placed);
                for (k, &pos) in part.conn_pos.iter().enumerate() {
                    prop_assert_eq!(part.wdm_idx[local_sweep[k]], sweep[pos]);
                }
            }
            prop_assert!(first_wdms.windows(2).all(|p| p[0] < p[1]), "ordered by first WDM");
            prop_assert!(wdm_component.iter().all(|&c| c != usize::MAX));
            prop_assert!(conn_component.iter().all(|&c| c != usize::MAX));
            for a in 0..placed.len() {
                for b in 0..placed.len() {
                    prop_assert_eq!(
                        wdm_component[a] == wdm_component[b],
                        label[a] == label[b],
                        "WDMs {} and {}", a, b
                    );
                }
            }
            for i in 0..conns.len() {
                prop_assert_eq!(conn_component[i], wdm_component[sweep[i]]);
                prop_assert_eq!(conn_label[i], label[sweep[i]]);
            }
        }

        /// Each orientation's initial assignment, solved per component,
        /// matches a cold solve of the whole network: equal total cost,
        /// the full demand carried, every waveguide within capacity and
        /// every arc within reach or to the connection's sweep WDM.
        #[test]
        fn component_solves_match_whole_network(
            conns in proptest::collection::vec((0i64..6_000, 1usize..33), 1..40),
            pitch in 0i64..400,
            reach in 0i64..900,
            capacity in 32usize..65,
        ) {
            let mut l = lib();
            l.wdm_min_pitch = pitch;
            l.wdm_max_displacement = reach;
            l.wdm_capacity = capacity;
            let placed = place_orientation(&conns, TrackOrientation::Horizontal, &l)
                .expect("demands fit the capacity");
            let sweep = sweep_wdms(conns.len(), &placed);
            let all = vec![true; placed.len()];
            let mut whole = build_network(&conns, &placed, &all, &sweep, &l);
            let (s, t) = (whole.g.node(0), whole.g.node(1));
            let whole_flow = whole.g.min_cost_max_flow(s, t);
            prop_assert_eq!(whole_flow.flow, whole.idx.total_demand);

            let (mut flow, mut cost) = (0, 0);
            for part in split_components(&conns, &placed, &l) {
                let local_sweep = sweep_wdms(part.conns.len(), &part.placed);
                let active = vec![true; part.placed.len()];
                let mut net = build_network(&part.conns, &part.placed, &active, &local_sweep, &l);
                let (s, t) = (net.g.node(0), net.g.node(1));
                let r = net.g.min_cost_max_flow(s, t);
                prop_assert_eq!(r.flow, net.idx.total_demand);
                flow += r.flow;
                cost += r.cost;
                for (wi, w) in extract_assignment(&net.g, &net.idx, &part.placed)
                    .iter()
                    .enumerate()
                {
                    prop_assert!(w.used() <= capacity);
                    for &(k, _) in &w.assigned {
                        let (track, _) = part.conns[k];
                        let within = (track - w.track).abs() <= reach;
                        prop_assert!(within || local_sweep[k] == wi);
                    }
                }
            }
            prop_assert_eq!(flow, whole_flow.flow);
            prop_assert_eq!(cost, whole_flow.cost);
        }

        /// The reduction reaches its fixpoint: over random one-orientation
        /// fixtures of several clusters, `plan` is equal at threads
        /// {1, 2, 8} and to the all-cold reference, and removing any
        /// final waveguide from the final active set leaves a cold solve
        /// of the whole orientation network short of its demand. This is
        /// what lets a probe answer `deletable: false` without a solve.
        #[test]
        fn every_final_waveguide_is_a_failed_deletion(
            clusters in proptest::collection::vec(
                proptest::collection::vec((0i64..1_500, 1usize..33), 1..9),
                2..5,
            ),
            capacity in 32usize..49,
            reach in 0i64..900,
        ) {
            use operon_geom::Point;
            let mut l = lib();
            l.wdm_capacity = capacity;
            l.wdm_max_displacement = reach;
            let nets: Vec<NetCandidates> = clusters
                .iter()
                .enumerate()
                .flat_map(|(k, conns)| {
                    conns.iter().map(move |&(dy, bits)| (k as i64 * 10_000 + dy, bits))
                })
                .enumerate()
                .map(|(n, (y, bits))| seg_net(n, Point::new(0, y), Point::new(12_000, y), bits))
                .collect();
            let choice = vec![0usize; nets.len()];
            let reference = plan_cold_reference(&nets, &choice, &l).expect("feasible");
            let (base, _) = super::plan(&nets, &choice, &l, None, &Executor::sequential())
                .expect("feasible");
            prop_assert!(base.stats.components >= 2, "{:?}", base.stats);
            prop_assert_eq!(&base.wdms, &reference.wdms);
            for threads in [1, 2, 8] {
                let (warm, _) = super::plan(&nets, &choice, &l, None, &Executor::new(threads))
                    .expect("feasible");
                prop_assert_eq!(&warm.wdms, &base.wdms, "threads={}", threads);
                prop_assert_eq!(warm.initial_count, base.initial_count);
                prop_assert_eq!(warm.stats, base.stats, "threads={}", threads);
            }
            let feasible = deletions_feasible(&base, &l);
            prop_assert_eq!(feasible.len(), base.final_count());
            prop_assert!(feasible.iter().all(|&f| !f), "a final waveguide is deletable");
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
