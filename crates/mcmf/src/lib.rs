//! Min-cost max-flow, the network solver behind OPERON's WDM assignment.
//!
//! The original implementation used the LEMON graph library; this crate is
//! a self-contained replacement implementing the *successive shortest
//! paths* algorithm with node potentials (Bellman-Ford initialization for
//! graphs with negative edge costs, Dijkstra with reduced costs for the
//! augmentation loop). All capacities and costs are integers, so on
//! assignment-shaped networks the returned flow is integral — the
//! "uni-modular property" the paper relies on to read the WDM assignment
//! directly off the flow without rounding.
//!
//! # Sink-bounded search
//!
//! Each augmentation needs only the shortest path to the sink `t`, so
//! the Dijkstra search returns as soon as `t` is popped: its distance
//! `d_t` and the parent arcs along its path are final at that point,
//! while nodes farther than `t` are never settled. The potentials are
//! then updated with the capped rule `p[v] += min(dist[v], d_t)`, where
//! a node the search never reached counts as `dist[v] = ∞`. Every node
//! left unsettled has a true reduced distance of at least `d_t`, so the
//! update equals `p[v] += min(δ(v), d_t)` for the true distances `δ`.
//! The map `x ↦ min(x, d_t)` is monotone and 1-Lipschitz, and
//! `δ(v) ≤ δ(u) + c̄(u, v)` holds on every residual arc, so
//! `min(δ(v), d_t) ≤ min(δ(u), d_t) + c̄(u, v)`: every reduced cost stays
//! non-negative. The arcs of the augmenting path have reduced cost 0
//! under the new potentials (both ends were settled), so their reverse
//! twins enter the residual network feasible too. Flow value and cost
//! are those of a search that settles the whole network; only the
//! potentials of nodes beyond `t` differ.
//!
//! The search buffers (distances, parent arcs, the heap) and a spare
//! potential buffer live on the graph and are reused by every pass.
//! They are scratch only: [`fingerprint`](McmfGraph::fingerprint)
//! ignores them.
//!
//! # Cached source layer
//!
//! Assignment networks (`s → connections → waveguides → t`, the shape of
//! the WDM reduction) spend nearly every search re-settling the
//! connections: each unsaturated connection sits at reduced distance 0
//! and offers the same arcs as in the pass before. A cold solve
//! ([`min_cost_flow_bounded`](McmfGraph::min_cost_flow_bounded) and
//! [`min_cost_max_flow`](McmfGraph::min_cost_max_flow)) therefore caches
//! that layer when the graph has this shape, checked once per solve in
//! O(m):
//!
//! - every arc out of `s` is a forward arc, and their heads are distinct
//!   and are neither `s` nor `t` — these heads form the layer `L`;
//! - no layer node has an in-edge other than its `s → u`;
//! - every other edge out of a layer node leads to a node that is
//!   neither `s` nor `t` and whose id is above every layer id.
//!
//! For each node `w` above the layer the cache keeps its best *eligible*
//! arc `u → w` (both `s → u` and `u → w` have residual capacity) under
//! the key `(c(s, u) + c(u, w), u, arc index)`, which does not depend on
//! the potentials. A pass then seeds the search instead of starting from
//! `s` alone: `s` and every unsaturated `u` at distance 0 with parent
//! `s → u`, every cached `w` at `c(u, w) + p[u] − p[w]` with its cached
//! arc as parent, all in one heapified queue. The same settle loop as in
//! a plain pass runs from there. After an augmentation only the nodes
//! whose arc from a layer node the path used or reversed are refreshed,
//! plus every neighbour of a connection whose `s → u` arc saturated: no
//! other arc changed its eligibility.
//!
//! **Why the flow is byte-identical.** Suppose every unsaturated `u` has
//! reduced cost 0 on `s → u` (checked per pass in O(|L|); a pass that
//! fails the check seeds from `s` as before). The plain search pops `s`,
//! which reaches exactly the unsaturated layer at distance 0. It then
//! pops all of them before anything else, in id order: every other node
//! it can push while doing so is a waveguide, whose id is above every
//! layer id, or `s` again, which keeps distance 0. Relaxing `u`'s arcs
//! gives `w` the tentative distance `c(u, w) + p[u] − p[w] = c(s, u) +
//! c(u, w) + p[s] − p[w]`. The relaxation is strict, connections come in
//! id order and each one's arcs in arc-index order. So after this phase
//! every `w` holds the minimum over its eligible arcs, with the first
//! minimal arc in `(u, arc index)` order as its parent, and that is
//! exactly the cached arc. The heap entries still valid at that point
//! are the same in both searches: the seeded queue holds one per cached
//! `w`, and the plain one holds those plus stale entries it will skip.
//! The loop pops by `(distance, id)`, a total order, so from there both
//! searches settle the same nodes with the same distances and parents.
//! The path, the push and the capped potentials `p += min(dist, d_t)`
//! are equal, and so is every flow and
//! [`fingerprint`](McmfGraph::fingerprint). From zero flow the check
//! holds in every pass when the potentials start at Bellman-Ford
//! distances, where `p[u] = c(s, u)` because `s → u` is `u`'s only in-arc
//! with capacity, or at 0 with every `c(s, u) = 0`, as in the WDM
//! reduction. The capped update then adds 0 to `s` and to every
//! unsaturated `u`, and a saturated `s → u` never regains capacity,
//! because no augmenting path re-enters `s`.
//!
//! Graphs without this shape seed every search from the source alone.
//!
//! # Storage layout
//!
//! Arcs live in a flat struct-of-arrays arena: residual twins are paired
//! at indices `2i` / `2i ^ 1`, so the reverse of arc `a` is always
//! `a ^ 1` and the forward arc of user edge `e` is `2e` — no per-arc
//! `rev` pointer, no per-node `Vec` chains. Adjacency is a CSR index
//! (`adj_start` offsets into `adj_arcs`) rebuilt lazily after edge
//! insertion, so the Dijkstra/Bellman-Ford hot loops walk contiguous
//! memory.
//!
//! # Diversion checks
//!
//! A tentative arc deletion asks a max-flow *value* question: can the
//! flow on an edge move to other residual paths once the edge is
//! closed? [`can_divert`](McmfGraph::can_divert) answers it on the solved
//! network in place. It zeroes both arcs of the edge, runs BFS
//! augmenting paths from the edge's tail to its head until the edge's
//! flow has moved or a search fails, and then writes back every arc it
//! touched from a list of pre-images. Costs and potentials play no part,
//! and the network comes back bitwise, so the WDM reduction runs every
//! trial on its one committed network and never copies it. `McmfGraph`
//! does not implement `Clone` at all.
//!
//! # Examples
//!
//! ```
//! use operon_mcmf::McmfGraph;
//!
//! // Two units of flow, cheap path has capacity 1, so one unit takes the
//! // expensive path.
//! let mut g = McmfGraph::new(2);
//! let (s, t) = (g.node(0), g.node(1));
//! g.add_edge(s, t, 1, 3);
//! g.add_edge(s, t, 1, 5);
//! let result = g.min_cost_max_flow(s, t);
//! assert_eq!(result.flow, 2);
//! assert_eq!(result.cost, 8);
//! ```

#![forbid(unsafe_code)]

use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A node handle in a [`McmfGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An edge handle returned by [`McmfGraph::add_edge`].
///
/// Use it with [`McmfGraph::flow`] to read how much flow the solver routed
/// through this particular edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

/// Result of a min-cost max-flow computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowResult {
    /// Total flow pushed from source to sink.
    pub flow: i64,
    /// Total cost of that flow (Σ flow(e) · cost(e)).
    pub cost: i64,
}

/// Work counters accumulated across solves of one graph.
///
/// Read with [`McmfGraph::stats`], clear with
/// [`McmfGraph::reset_stats`]. The counters measure *work*, never
/// influence *results*: a [`can_divert`](McmfGraph::can_divert) check
/// adds to them but leaves the network as it found it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McmfStats {
    /// Dijkstra shortest-path computations (one per augmentation
    /// attempt, including the final failed search that proves
    /// maximality).
    pub dijkstra_passes: u64,
    /// Bellman-Ford relaxation rounds spent initializing potentials
    /// for graphs with negative-cost residual arcs.
    pub bellman_ford_rounds: u64,
    /// Full residual-network copies. Always 0: `McmfGraph` does not
    /// implement `Clone`, so no caller can copy a network per trial.
    /// The field stays because the serve `report` (`wdm_networks_cloned`)
    /// and the end-to-end benchmark's serve check read it.
    ///
    /// ```compile_fail
    /// let g = operon_mcmf::McmfGraph::new(2);
    /// let copy = g.clone(); // no `Clone`: a network is never copied
    /// ```
    pub networks_cloned: u64,
    /// Residual arcs the searches examined, in total: the out-degree of
    /// every node a shortest-path search settled before reaching the
    /// sink or a [`can_divert`](McmfGraph::can_divert) search expanded,
    /// plus every arc the cached source layer (see the crate docs) read
    /// when it was built and on each refresh. The sink-bounded search
    /// saves the arcs of the nodes it leaves unsettled, and the layer
    /// cache those of the connections it does not re-settle.
    pub arcs_scanned: u64,
}

impl McmfStats {
    /// Adds every counter of `other` into `self`.
    pub fn accumulate(&mut self, other: &McmfStats) {
        self.dijkstra_passes += other.dijkstra_passes;
        self.bellman_ford_rounds += other.bellman_ford_rounds;
        self.networks_cloned += other.networks_cloned;
        self.arcs_scanned += other.arcs_scanned;
    }

    /// The per-counter difference `self - before`, for reading the work
    /// one operation performed on a graph whose counters accumulate
    /// (snapshot before, subtract after). Saturates at zero so a
    /// mismatched snapshot can never underflow.
    pub fn delta_since(&self, before: &McmfStats) -> McmfStats {
        McmfStats {
            dijkstra_passes: self.dijkstra_passes.saturating_sub(before.dijkstra_passes),
            bellman_ford_rounds: self
                .bellman_ford_rounds
                .saturating_sub(before.bellman_ford_rounds),
            networks_cloned: self.networks_cloned.saturating_sub(before.networks_cloned),
            arcs_scanned: self.arcs_scanned.saturating_sub(before.arcs_scanned),
        }
    }
}

/// A directed flow network with integer capacities and costs.
///
/// Arcs are stored with their residual twins in a flat arena (see the
/// crate docs for the layout), so after solving, residual capacities
/// encode the flow ([`flow`](McmfGraph::flow)).
#[derive(Debug, Default)]
pub struct McmfGraph {
    n_nodes: usize,
    /// Head (target node) of each arc; the tail is `arc_to[a ^ 1]`.
    arc_to: Vec<u32>,
    /// Per-unit cost of each arc (`-cost` on residual twins).
    arc_cost: Vec<i64>,
    /// Residual capacity of each arc.
    arc_cap: Vec<i64>,
    /// Stored capacity of each user edge (forward arc of edge `e` is
    /// `2e`), to recover flow values and reset cleanly.
    edge_cap: Vec<i64>,
    /// CSR adjacency: arcs leaving node `u` are
    /// `adj_arcs[adj_start[u]..adj_start[u + 1]]`, in insertion order.
    adj_start: Vec<u32>,
    adj_arcs: Vec<u32>,
    csr_valid: bool,
    /// Number of arcs with `cap > 0 && cost < 0`, maintained on every
    /// capacity write so [`needs_bellman_ford`](McmfGraph::needs_bellman_ford)
    /// is O(1) instead of an O(m) rescan.
    neg_arcs: usize,
    /// Node potentials left behind by the most recent solve (empty
    /// before any solve); part of the [`fingerprint`](McmfGraph::fingerprint).
    potential: Vec<i64>,
    stats: McmfStats,
    // --- search scratch (never fingerprinted) ---
    search: SearchScratch,
}

/// Buffers reused by every search on one graph. Their contents are
/// meaningless between passes: each search's seeding resets what it
/// reads.
#[derive(Debug, Default)]
struct SearchScratch {
    /// Reduced distance from the source (`i64::MAX` = not reached).
    dist: Vec<i64>,
    /// Arc through which each reached node was last relaxed.
    parent: Vec<u32>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// The FIFO of a [`can_divert`](McmfGraph::can_divert) search.
    queue: Vec<u32>,
    /// `(arc, capacity before the write)` of every arc write a
    /// [`can_divert`](McmfGraph::can_divert) check made, in write order.
    touched: Vec<(u32, i64)>,
    /// A spare potential vector: solve entry points fill it instead of
    /// allocating, and the potentials a solve replaces land back here.
    spare_potential: Vec<i64>,
    /// The cached source layer of the current cold solve.
    layer: LayerCache,
}

/// The cached source layer of a cold solve (see the crate docs): the
/// layer `L` of heads of the source's arcs and, for every node above
/// `L`, its best eligible in-arc from `L`. Valid only between
/// [`McmfGraph::build_layer_cache`] and the end of that solve.
#[derive(Debug, Default)]
struct LayerCache {
    /// Per node: the arc `s → u` when `u` is in the layer, else `NONE`.
    src_arc: Vec<u32>,
    /// The layer nodes, in id order.
    nodes: Vec<u32>,
    /// Nodes below this id are `s`, `t` or in the layer, or have no
    /// in-arc from the layer.
    first_head: usize,
    /// Per node from `first_head` on: its best eligible arc `u → w`
    /// under the key `(c(s, u) + c(u, w), u, arc)`, or `NONE`.
    best: Vec<u32>,
}

/// The "no arc" sentinel of the search scratch.
const NONE: u32 = u32::MAX;

impl McmfGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            n_nodes: n,
            ..Self::default()
        }
    }

    /// Returns a handle for node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn node(&self, index: usize) -> NodeId {
        assert!(index < self.n_nodes, "node index {index} out of bounds");
        NodeId(index)
    }

    /// Adds a node, returning its handle.
    pub fn add_node(&mut self) -> NodeId {
        self.n_nodes += 1;
        self.csr_valid = false;
        NodeId(self.n_nodes - 1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of user edges (residual twins not counted).
    pub fn edge_count(&self) -> usize {
        self.edge_cap.len()
    }

    /// Adds a directed edge with capacity `cap` and per-unit cost `cost`.
    ///
    /// Negative costs are allowed (the solver runs a Bellman-Ford pass to
    /// initialize potentials); negative *cycles* are not supported and
    /// cause a panic during solving.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: i64, cost: i64) -> EdgeId {
        assert!(cap >= 0, "edge capacity must be non-negative, got {cap}");
        assert!(
            self.arc_to.len() + 2 <= u32::MAX as usize,
            "arc arena exceeds u32 indexing"
        );
        self.arc_to.push(to.0 as u32);
        self.arc_cost.push(cost);
        self.arc_cap.push(cap);
        self.arc_to.push(from.0 as u32);
        self.arc_cost.push(-cost);
        self.arc_cap.push(0);
        if cap > 0 && cost < 0 {
            self.neg_arcs += 1;
        }
        self.edge_cap.push(cap);
        self.csr_valid = false;
        EdgeId(self.edge_cap.len() - 1)
    }

    /// Flow currently routed through a user edge (0 before solving).
    pub fn flow(&self, edge: EdgeId) -> i64 {
        self.edge_cap[edge.0] - self.arc_cap[2 * edge.0]
    }

    /// Work counters accumulated since construction (or the last
    /// [`reset_stats`](McmfGraph::reset_stats)).
    pub fn stats(&self) -> McmfStats {
        self.stats
    }

    /// Clears the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = McmfStats::default();
    }

    /// A 64-bit FNV-1a digest of the network's structure and committed
    /// state: node count, arc heads, arc costs, residual capacities,
    /// stored edge capacities, and potentials.
    ///
    /// Work counters and the search scratch are deliberately excluded,
    /// so the fingerprint is exactly the state a
    /// [`can_divert`](McmfGraph::can_divert) check promises to leave as
    /// it found it.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(PRIME)
        }
        let mut h = eat(OFFSET, self.n_nodes as u64);
        for &a in &self.arc_to {
            h = eat(h, u64::from(a));
        }
        for &c in &self.arc_cost {
            h = eat(h, c as u64);
        }
        for &c in &self.arc_cap {
            h = eat(h, c as u64);
        }
        for &c in &self.edge_cap {
            h = eat(h, c as u64);
        }
        for &p in &self.potential {
            h = eat(h, p as u64);
        }
        h
    }

    /// Writes `value` into arc slot `a`, maintaining the negative-arc
    /// counter.
    #[inline]
    fn write_cap(&mut self, a: usize, value: i64) {
        let old = self.arc_cap[a];
        if old == value {
            return;
        }
        if self.arc_cost[a] < 0 {
            if old > 0 && value <= 0 {
                self.neg_arcs -= 1;
            } else if old <= 0 && value > 0 {
                self.neg_arcs += 1;
            }
        }
        self.arc_cap[a] = value;
    }

    /// The spare potential buffer, zeroed to one entry per node.
    fn take_potential(&mut self) -> Vec<i64> {
        let mut p = std::mem::take(&mut self.search.spare_potential);
        p.clear();
        p.resize(self.n_nodes, 0);
        p
    }

    /// Rebuilds the CSR adjacency index if edges or nodes were added
    /// since the last build. Stable counting sort by arc tail, so each
    /// node's arc list keeps insertion order — iteration order (and
    /// therefore every tie-break downstream) is identical to the
    /// per-node `Vec` layout this arena replaced.
    fn ensure_csr(&mut self) {
        if self.csr_valid {
            return;
        }
        let n = self.n_nodes;
        let m = self.arc_to.len();
        self.adj_start.clear();
        self.adj_start.resize(n + 1, 0);
        for a in 0..m {
            let tail = self.arc_to[a ^ 1] as usize;
            self.adj_start[tail + 1] += 1;
        }
        for u in 0..n {
            self.adj_start[u + 1] += self.adj_start[u];
        }
        self.adj_arcs.clear();
        self.adj_arcs.resize(m, 0);
        let mut cursor: Vec<u32> = self.adj_start[..n].to_vec();
        for a in 0..m {
            let tail = self.arc_to[a ^ 1] as usize;
            self.adj_arcs[cursor[tail] as usize] = a as u32;
            cursor[tail] += 1;
        }
        self.csr_valid = true;
    }

    /// Arcs leaving node `u`, in insertion order. The CSR index must be
    /// current (every solve entry point calls
    /// [`ensure_csr`](McmfGraph::ensure_csr) first).
    #[inline]
    fn out_arcs(&self, u: usize) -> &[u32] {
        debug_assert!(self.csr_valid, "CSR index is stale");
        &self.adj_arcs[self.adj_start[u] as usize..self.adj_start[u + 1] as usize]
    }

    /// Replaces a user edge's capacity, clearing any flow routed on it.
    ///
    /// The stored capacity is updated too, so subsequent
    /// [`flow`](McmfGraph::flow) reads respect the new value. Clearing
    /// the flow of an edge that carries some breaks conservation at its
    /// endpoints, so the flow left elsewhere is no longer a valid flow;
    /// the WDM reduction only closes edges that carry none.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative.
    pub fn set_edge_capacity(&mut self, edge: EdgeId, cap: i64) {
        assert!(cap >= 0, "edge capacity must be non-negative, got {cap}");
        self.write_cap(2 * edge.0, cap);
        self.write_cap(2 * edge.0 + 1, 0);
        self.edge_cap[edge.0] = cap;
    }

    /// Whether any residual arc with spare capacity has a negative
    /// cost, i.e. whether zero potentials are unusable and a
    /// Bellman-Ford initialization is required before Dijkstra.
    ///
    /// O(1): a counter of `cap > 0 && cost < 0` arcs is maintained on
    /// every capacity write instead of rescanning all arcs per call. Semantics are unchanged: a
    /// saturated negative edge no longer forces the Bellman-Ford pass,
    /// while the negative reverse arcs of a routed solution do.
    pub fn needs_bellman_ford(&self) -> bool {
        self.neg_arcs > 0
    }

    /// Whether the flow routed on `edge` could move to other residual
    /// paths from the edge's tail to its head if the edge were closed.
    ///
    /// On a solved network carrying a maximum flow of value `F`, this
    /// is exactly whether the network with `edge` at capacity 0 still
    /// carries `F`: closing the edge strands its flow at the tail, and
    /// the reduced network carries `F` precisely when that much more
    /// can travel from the tail to the head through the residual arcs.
    /// The answer is a max-flow *value*, so costs and potentials play no
    /// part. The check zeroes both arcs of the edge and runs BFS
    /// augmenting paths (arcs in CSR order) until the edge's flow has
    /// moved or a search fails. Then it writes back every arc it touched:
    /// arc capacities, stored edge capacities, potentials and
    /// [`fingerprint`](McmfGraph::fingerprint) are bitwise what they
    /// were. Its writes bypass the negative-arc counter, which is exact
    /// again once every arc is back. Only [`stats`](McmfGraph::stats)
    /// moves, by the arcs the searches scanned. An edge that carries no
    /// flow is trivially divertible.
    ///
    /// ```
    /// use operon_mcmf::McmfGraph;
    ///
    /// let mut g = McmfGraph::new(3);
    /// let (s, a, t) = (g.node(0), g.node(1), g.node(2));
    /// let direct = g.add_edge(s, t, 2, 1);
    /// g.add_edge(s, a, 1, 5);
    /// g.add_edge(a, t, 1, 5);
    /// g.min_cost_flow_bounded(s, t, 1);
    /// assert!(g.can_divert(direct)); // its one unit fits through a
    /// g.min_cost_max_flow(s, t);
    /// assert!(!g.can_divert(direct)); // now the detour is full
    /// assert_eq!(g.flow(direct), 2);
    /// ```
    pub fn can_divert(&mut self, edge: EdgeId) -> bool {
        let (fwd, rev) = (2 * edge.0, 2 * edge.0 + 1);
        let mut left = self.arc_cap[rev];
        if left == 0 {
            return true;
        }
        self.ensure_csr();
        let (from, to) = (self.arc_to[rev] as usize, self.arc_to[fwd] as usize);
        let mut touched = std::mem::take(&mut self.search.touched);
        touched.clear();
        for a in [fwd, rev] {
            touched.push((a as u32, self.arc_cap[a]));
            self.arc_cap[a] = 0;
        }
        while left > 0 && self.bfs_path(from, to) {
            let parent = &self.search.parent;
            let mut push = left;
            let mut v = to;
            while v != from {
                let arc = parent[v] as usize;
                push = push.min(self.arc_cap[arc]);
                v = self.arc_to[arc ^ 1] as usize;
            }
            let mut v = to;
            while v != from {
                let arc = parent[v] as usize;
                touched.push((arc as u32, self.arc_cap[arc]));
                touched.push((arc as u32 ^ 1, self.arc_cap[arc ^ 1]));
                self.arc_cap[arc] -= push;
                self.arc_cap[arc ^ 1] += push;
                v = self.arc_to[arc ^ 1] as usize;
            }
            left -= push;
        }
        // Reverse write order leaves each arc at its first pre-image.
        for &(a, cap) in touched.iter().rev() {
            self.arc_cap[a as usize] = cap;
        }
        self.search.touched = touched;
        left == 0
    }

    /// Computes a maximum flow of minimum cost from `s` to `t`.
    ///
    /// Runs successive shortest augmenting paths; each augmentation uses
    /// Dijkstra on reduced costs, which stay non-negative thanks to the
    /// Johnson potentials maintained across iterations.
    ///
    /// Solving mutates residual capacities; call
    /// [`flow`](McmfGraph::flow) afterwards to read per-edge flows.
    /// Solving an already-solved graph is a no-op (the residual network
    /// admits no further augmenting path) and returns zero additional
    /// flow.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or if the graph contains a negative-cost cycle
    /// reachable from `s`.
    pub fn min_cost_max_flow(&mut self, s: NodeId, t: NodeId) -> FlowResult {
        self.min_cost_flow_bounded(s, t, i64::MAX)
    }

    /// Like [`min_cost_max_flow`](McmfGraph::min_cost_max_flow) but stops
    /// once `max_flow` units have been pushed.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, `max_flow` is negative, or a negative cycle is
    /// detected.
    pub fn min_cost_flow_bounded(&mut self, s: NodeId, t: NodeId, max_flow: i64) -> FlowResult {
        self.cold_solve(s, t, max_flow, true)
    }

    /// The cold solve behind [`min_cost_flow_bounded`](Self::min_cost_flow_bounded):
    /// zero (or Bellman-Ford) potentials, then successive shortest
    /// paths, seeded from the cached source layer when `layered` and the
    /// graph has the layer shape (see the crate docs).
    fn cold_solve(&mut self, s: NodeId, t: NodeId, max_flow: i64, layered: bool) -> FlowResult {
        assert!(s != t, "source and sink must differ");
        assert!(max_flow >= 0, "max_flow must be non-negative");
        self.ensure_csr();
        let mut potential = self.take_potential();
        if self.needs_bellman_ford() {
            let rounds = self.bellman_ford_potentials(s.0, &mut potential);
            self.stats.bellman_ford_rounds += rounds;
        }
        let layered = layered && self.build_layer_cache(s.0, t.0);
        self.run_ssp(s, t, max_flow, potential, layered)
    }

    /// The successive-shortest-paths augmentation loop of a cold solve.
    /// `potential` must give non-negative reduced costs on every residual
    /// arc; the capped update (see the crate docs) keeps it so after
    /// every sink-bounded search. With `layered` (the layer cache is
    /// built) each search is seeded from the cached source layer
    /// whenever the pass's potentials allow it, and the cache is
    /// refreshed after every augmentation. Stores the final potentials
    /// and returns the flow *pushed by this call* (not any flow already
    /// routed).
    fn run_ssp(
        &mut self,
        s: NodeId,
        t: NodeId,
        max_flow: i64,
        mut potential: Vec<i64>,
        layered: bool,
    ) -> FlowResult {
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        while total_flow < max_flow {
            self.stats.dijkstra_passes += 1;
            if !(layered && self.seed_from_layer(s.0, &potential)) {
                self.seed_from_source(s.0);
            }
            let Some(dist_t) = self.settle(t.0, &potential) else {
                break; // sink unreachable in residual graph
            };
            for (p, &d) in potential.iter_mut().zip(&self.search.dist) {
                *p += d.min(dist_t);
            }
            // Bottleneck along the path.
            let mut push = max_flow - total_flow;
            let mut v = t.0;
            while v != s.0 {
                let arc = self.search.parent[v] as usize;
                push = push.min(self.arc_cap[arc]);
                v = self.arc_to[arc ^ 1] as usize;
            }
            // Apply.
            let mut v = t.0;
            while v != s.0 {
                let arc = self.search.parent[v] as usize;
                self.write_cap(arc, self.arc_cap[arc] - push);
                self.write_cap(arc ^ 1, self.arc_cap[arc ^ 1] + push);
                total_cost += push * self.arc_cost[arc];
                v = self.arc_to[arc ^ 1] as usize;
            }
            if layered {
                self.refresh_layer_along_path(s.0, t.0);
            }
            total_flow += push;
        }
        self.search.spare_potential = std::mem::replace(&mut self.potential, potential);
        FlowResult {
            flow: total_flow,
            cost: total_cost,
        }
    }

    /// Bellman-Ford from `s` into `potential` (one entry per node) to
    /// initialize potentials when negative edge costs exist. Unreachable
    /// nodes get potential 0 (they can never be on an augmenting path
    /// from `s` anyway). Returns the number of relaxation rounds
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics on a negative cycle reachable from `s`.
    fn bellman_ford_potentials(&self, s: usize, dist: &mut [i64]) -> u64 {
        let n = self.n_nodes;
        dist.fill(i64::MAX);
        let mut rounds = 0u64;
        dist[s] = 0;
        for round in 0..n {
            rounds += 1;
            let mut changed = false;
            for u in 0..n {
                if dist[u] == i64::MAX {
                    continue;
                }
                for &ai in self.out_arcs(u) {
                    let ai = ai as usize;
                    let to = self.arc_to[ai] as usize;
                    if self.arc_cap[ai] > 0 && dist[u] + self.arc_cost[ai] < dist[to] {
                        dist[to] = dist[u] + self.arc_cost[ai];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            assert!(
                round + 1 < n,
                "negative-cost cycle detected; min-cost flow is unbounded"
            );
        }
        for d in dist.iter_mut().filter(|d| **d == i64::MAX) {
            *d = 0;
        }
        rounds
    }

    /// Plain seeding of a search: only `s` is reached, at distance 0.
    fn seed_from_source(&mut self, s: usize) {
        let n = self.n_nodes;
        let SearchScratch {
            dist, parent, heap, ..
        } = &mut self.search;
        dist.clear();
        dist.resize(n, i64::MAX);
        // Only entries written this pass are ever read back.
        parent.resize(n, NONE);
        heap.clear();
        dist[s] = 0;
        heap.push(Reverse((0i64, s as u32)));
    }

    /// Layer seeding of a search (see the crate docs): `s` and every
    /// unsaturated layer node settled at distance 0, and every node with
    /// a cached best arc reached through it, in a heapified queue — the
    /// state the plain search reaches once it has popped the layer.
    /// Returns `false`, with the scratch unspecified, when an
    /// unsaturated `s → u` arc has a non-zero reduced cost under
    /// `potential`; the pass must then seed from the source.
    fn seed_from_layer(&mut self, s: usize, potential: &[i64]) -> bool {
        let n = self.n_nodes;
        let SearchScratch {
            dist,
            parent,
            heap,
            layer,
            ..
        } = &mut self.search;
        dist.clear();
        dist.resize(n, i64::MAX);
        parent.resize(n, NONE);
        dist[s] = 0;
        for &u in &layer.nodes {
            let u = u as usize;
            let a = layer.src_arc[u] as usize;
            if self.arc_cap[a] <= 0 {
                continue;
            }
            if self.arc_cost[a] + potential[s] - potential[u] != 0 {
                return false;
            }
            dist[u] = 0;
            parent[u] = a as u32;
        }
        let mut queue = std::mem::take(heap).into_vec();
        queue.clear();
        for w in layer.first_head..n {
            let a = layer.best[w];
            if a == NONE {
                continue;
            }
            let u = self.arc_to[a as usize ^ 1] as usize;
            let d = self.arc_cost[a as usize] + potential[u] - potential[w];
            dist[w] = d;
            parent[w] = a;
            queue.push(Reverse((d, w as u32)));
        }
        *heap = BinaryHeap::from(queue);
        true
    }

    /// Builds the layer cache for a cold solve from `s` to `t` when the
    /// graph has the layer shape (see the crate docs), in O(m). Returns
    /// whether it does; the cache is then current for the residual
    /// network as it stands.
    fn build_layer_cache(&mut self, s: usize, t: usize) -> bool {
        let n = self.n_nodes;
        let layer = &mut self.search.layer;
        layer.src_arc.clear();
        layer.src_arc.resize(n, NONE);
        layer.nodes.clear();
        let out_s = &self.adj_arcs[self.adj_start[s] as usize..self.adj_start[s + 1] as usize];
        for &a in out_s {
            let u = self.arc_to[a as usize] as usize;
            if a & 1 == 1 || u == s || u == t || layer.src_arc[u] != NONE {
                return false;
            }
            layer.src_arc[u] = a;
            layer.nodes.push(u as u32);
        }
        layer.nodes.sort_unstable();
        let Some(&top) = layer.nodes.last() else {
            return false;
        };
        for f in (0..self.arc_to.len()).step_by(2) {
            let head = self.arc_to[f] as usize;
            if layer.src_arc[head] != NONE && layer.src_arc[head] as usize != f {
                return false; // a layer node with a second in-edge
            }
            let tail = self.arc_to[f ^ 1] as usize;
            if layer.src_arc[tail] != NONE && (head == s || head == t || head <= top as usize) {
                return false; // a layer arc that does not lead above the layer
            }
        }
        layer.first_head = top as usize + 1;
        layer.best.clear();
        layer.best.resize(n, NONE);
        for w in layer.first_head..n {
            self.refresh_best_arc(w);
        }
        true
    }

    /// Recomputes node `w`'s cached best eligible arc from the layer by
    /// scanning `w`'s residual arcs: under the layer shape every arc
    /// from `w` to a layer node `u` is the twin of a user edge `u → w`,
    /// which is eligible while it and `s → u` both have capacity.
    fn refresh_best_arc(&mut self, w: usize) {
        let layer = &mut self.search.layer;
        let arcs = &self.adj_arcs[self.adj_start[w] as usize..self.adj_start[w + 1] as usize];
        self.stats.arcs_scanned += arcs.len() as u64;
        let mut best = NONE;
        let mut best_key = (i128::MAX, u32::MAX, u32::MAX);
        for &r in arcs {
            let u = self.arc_to[r as usize];
            let src = layer.src_arc[u as usize];
            let a = r ^ 1;
            if src == NONE || self.arc_cap[src as usize] <= 0 || self.arc_cap[a as usize] <= 0 {
                continue;
            }
            let cost =
                i128::from(self.arc_cost[src as usize]) + i128::from(self.arc_cost[a as usize]);
            let key = (cost, u, a);
            if key < best_key {
                best_key = key;
                best = a;
            }
        }
        layer.best[w] = best;
    }

    /// Refreshes the layer cache after an augmentation along the
    /// current search path: the nodes whose arc from a layer node the
    /// path used or reversed, and every neighbour of the path's first
    /// layer node when its `s → u` arc saturated. No other arc's
    /// eligibility changed.
    fn refresh_layer_along_path(&mut self, s: usize, t: usize) {
        let mut v = t;
        while v != s {
            let arc = self.search.parent[v] as usize;
            let x = self.arc_to[arc ^ 1] as usize;
            let src_arc = &self.search.layer.src_arc;
            if x == s {
                if self.arc_cap[arc] <= 0 {
                    let (lo, hi) = (self.adj_start[v] as usize, self.adj_start[v + 1] as usize);
                    self.stats.arcs_scanned += (hi - lo) as u64;
                    for i in lo..hi {
                        let a = self.adj_arcs[i] as usize;
                        if a & 1 == 0 {
                            self.refresh_best_arc(self.arc_to[a] as usize);
                        }
                    }
                }
            } else if src_arc[x] != NONE {
                self.refresh_best_arc(v);
            } else if src_arc[v] != NONE {
                self.refresh_best_arc(x);
            }
            v = x;
        }
    }

    /// The settle loop of the sink-bounded Dijkstra on reduced costs,
    /// run on the queue a seeding left in the search scratch: returns
    /// `t`'s distance as soon as `t` is popped, or `None` when `t` is
    /// unreachable. Afterwards `search.dist` holds a final distance for
    /// every settled node, a tentative distance (never below `t`'s) for
    /// reached but unsettled ones and `i64::MAX` for the rest, and
    /// `search.parent` the shortest-path tree arc of every node on the
    /// path to `t`.
    fn settle(&mut self, t: usize, potential: &[i64]) -> Option<i64> {
        debug_assert!(self.csr_valid, "CSR index is stale");
        let SearchScratch {
            dist, parent, heap, ..
        } = &mut self.search;
        let mut scanned = 0u64;
        let mut reached = None;
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = u as usize;
            if d > dist[u] {
                continue;
            }
            if u == t {
                reached = Some(d);
                break;
            }
            let arcs = &self.adj_arcs[self.adj_start[u] as usize..self.adj_start[u + 1] as usize];
            scanned += arcs.len() as u64;
            for &ai in arcs {
                let a = ai as usize;
                if self.arc_cap[a] <= 0 {
                    continue;
                }
                let to = self.arc_to[a] as usize;
                let reduced = self.arc_cost[a] + potential[u] - potential[to];
                debug_assert!(
                    reduced >= 0,
                    "reduced cost must be non-negative (got {reduced})"
                );
                let nd = d + reduced;
                if nd < dist[to] {
                    dist[to] = nd;
                    parent[to] = ai;
                    heap.push(Reverse((nd, to as u32)));
                }
            }
        }
        self.stats.arcs_scanned += scanned;
        reached
    }

    /// Breadth-first search for a residual path from `from` to `to`,
    /// each node's arcs in CSR order, returning as soon as `to` is
    /// reached. Afterwards `search.parent` holds the path's arcs.
    fn bfs_path(&mut self, from: usize, to: usize) -> bool {
        let SearchScratch { parent, queue, .. } = &mut self.search;
        parent.clear();
        parent.resize(self.n_nodes, NONE);
        queue.clear();
        queue.push(from as u32);
        let mut scanned = 0u64;
        let mut head = 0;
        let mut reached = false;
        while !reached && head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let arcs = &self.adj_arcs[self.adj_start[u] as usize..self.adj_start[u + 1] as usize];
            scanned += arcs.len() as u64;
            for &a in arcs {
                let v = self.arc_to[a as usize] as usize;
                if self.arc_cap[a as usize] <= 0 || v == from || parent[v] != NONE {
                    continue;
                }
                parent[v] = a;
                if v == to {
                    reached = true;
                    break;
                }
                queue.push(v as u32);
            }
        }
        self.stats.arcs_scanned += scanned;
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph_has_zero_flow() {
        let mut g = McmfGraph::new(2);
        let r = g.min_cost_max_flow(g.node(0), g.node(1));
        assert_eq!(r, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_and_sink_rejected() {
        let mut g = McmfGraph::new(1);
        let _ = g.min_cost_max_flow(g.node(0), g.node(0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let mut g = McmfGraph::new(2);
        let (a, b) = (g.node(0), g.node(1));
        let _ = g.add_edge(a, b, -1, 0);
    }

    #[test]
    fn fingerprint_tracks_committed_state_not_probes() {
        let mut g = McmfGraph::new(3);
        let (s, a, t) = (g.node(0), g.node(1), g.node(2));
        let e = g.add_edge(s, a, 4, 1);
        g.add_edge(s, a, 4, 3);
        g.add_edge(a, t, 4, 1);
        let empty = g.fingerprint();
        g.min_cost_max_flow(s, t);
        let committed = g.fingerprint();
        assert_ne!(empty, committed, "a solve must change the fingerprint");

        // A diversion check moves `e`'s flow onto the parallel edge and
        // back: the fingerprint is unchanged although work was done.
        let stats_before = g.stats();
        assert!(g.can_divert(e));
        assert_eq!(g.fingerprint(), committed);
        assert!(g.stats().delta_since(&stats_before).arcs_scanned > 0);

        // A capacity write does change it.
        g.set_edge_capacity(e, 1);
        assert_ne!(g.fingerprint(), committed);
    }

    #[test]
    fn single_edge_saturates() {
        let mut g = McmfGraph::new(2);
        let (s, t) = (g.node(0), g.node(1));
        let e = g.add_edge(s, t, 7, 2);
        let r = g.min_cost_max_flow(s, t);
        assert_eq!(r, FlowResult { flow: 7, cost: 14 });
        assert_eq!(g.flow(e), 7);
    }

    #[test]
    fn prefers_cheap_path_first() {
        // s -> a -> t (cost 1+1), s -> b -> t (cost 5+5), caps 1 each.
        let mut g = McmfGraph::new(4);
        let (s, a, b, t) = (g.node(0), g.node(1), g.node(2), g.node(3));
        let sa = g.add_edge(s, a, 1, 1);
        g.add_edge(a, t, 1, 1);
        let sb = g.add_edge(s, b, 1, 5);
        g.add_edge(b, t, 1, 5);
        let r = g.min_cost_flow_bounded(s, t, 1);
        assert_eq!(r, FlowResult { flow: 1, cost: 2 });
        assert_eq!(g.flow(sa), 1);
        assert_eq!(g.flow(sb), 0);
    }

    #[test]
    fn classic_diamond_with_rerouting() {
        // The textbook case where max-flow uses the cross edge.
        let mut g = McmfGraph::new(4);
        let (s, a, b, t) = (g.node(0), g.node(1), g.node(2), g.node(3));
        g.add_edge(s, a, 1, 0);
        g.add_edge(s, b, 1, 0);
        g.add_edge(a, b, 1, 0);
        g.add_edge(a, t, 1, 0);
        g.add_edge(b, t, 1, 0);
        let r = g.min_cost_max_flow(s, t);
        assert_eq!(r.flow, 2);
    }

    #[test]
    fn negative_edge_costs_supported() {
        let mut g = McmfGraph::new(3);
        let (s, a, t) = (g.node(0), g.node(1), g.node(2));
        g.add_edge(s, a, 2, -3);
        g.add_edge(a, t, 2, 1);
        let r = g.min_cost_max_flow(s, t);
        assert_eq!(r, FlowResult { flow: 2, cost: -4 });
    }

    #[test]
    #[should_panic(expected = "negative-cost cycle")]
    fn negative_cycle_detected() {
        let mut g = McmfGraph::new(3);
        let (s, a, t) = (g.node(0), g.node(1), g.node(2));
        g.add_edge(s, a, 1, -5);
        g.add_edge(a, s, 1, -5);
        g.add_edge(a, t, 1, 1);
        let _ = g.min_cost_max_flow(s, t);
    }

    #[test]
    fn bounded_flow_stops_early() {
        let mut g = McmfGraph::new(2);
        let (s, t) = (g.node(0), g.node(1));
        g.add_edge(s, t, 10, 1);
        let r = g.min_cost_flow_bounded(s, t, 4);
        assert_eq!(r, FlowResult { flow: 4, cost: 4 });
    }

    #[test]
    fn resolving_is_a_no_op() {
        let mut g = McmfGraph::new(2);
        let (s, t) = (g.node(0), g.node(1));
        g.add_edge(s, t, 5, 1);
        let first = g.min_cost_max_flow(s, t);
        assert_eq!(first.flow, 5);
        let second = g.min_cost_max_flow(s, t);
        assert_eq!(second, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    fn negativity_scan_branches_agree() {
        // Two equivalent networks: one whose only negative-cost edge has
        // zero capacity (counter says Dijkstra-only), one where the
        // negative edge has spare capacity but hangs off an unreachable
        // node (counter forces the Bellman-Ford branch). Results must
        // agree.
        let build = |dead_cap: i64| {
            let mut g = McmfGraph::new(5);
            let (s, a, t) = (g.node(0), g.node(1), g.node(2));
            g.add_edge(s, a, 3, 2);
            g.add_edge(a, t, 3, 1);
            g.add_edge(s, t, 1, 7);
            // Dead appendage between nodes 3 and 4, disconnected from s.
            g.add_edge(g.node(3), g.node(4), dead_cap, -9);
            g
        };
        let mut fast = build(0);
        let mut slow = build(1);
        assert!(!fast.needs_bellman_ford());
        assert!(slow.needs_bellman_ford());
        let rf = fast.min_cost_max_flow(fast.node(0), fast.node(2));
        let rs = slow.min_cost_max_flow(slow.node(0), slow.node(2));
        assert_eq!(rf, rs);
        assert_eq!(fast.stats().bellman_ford_rounds, 0);
        assert!(slow.stats().bellman_ford_rounds > 0);
    }

    /// Recomputes the negative-arc predicate by brute force, the oracle
    /// for the incrementally maintained counter.
    fn scan_needs_bellman_ford(g: &McmfGraph) -> bool {
        (0..g.arc_cap.len()).any(|a| g.arc_cap[a] > 0 && g.arc_cost[a] < 0)
    }

    #[test]
    fn negative_arc_counter_tracks_writes() {
        let mut g = McmfGraph::new(3);
        let (s, a, t) = (g.node(0), g.node(1), g.node(2));
        let e = g.add_edge(s, a, 2, -3);
        let at = g.add_edge(a, t, 2, 1);
        assert!(g.needs_bellman_ford());
        assert_eq!(g.needs_bellman_ford(), scan_needs_bellman_ford(&g));
        // Solving saturates the negative edge; its residual twin has
        // cost +3, the a->t twin has cost -1 with flow on it.
        g.min_cost_max_flow(s, t);
        assert_eq!(g.needs_bellman_ford(), scan_needs_bellman_ford(&g));
        // Zeroing the negative edge entirely and clearing the flow on
        // a->t leaves no negative residual arc.
        g.set_edge_capacity(e, 0);
        g.set_edge_capacity(at, 2);
        assert_eq!(g.needs_bellman_ford(), scan_needs_bellman_ford(&g));
        assert!(!g.needs_bellman_ford());
        // Restoring the capacity brings it back.
        g.set_edge_capacity(e, 2);
        assert!(g.needs_bellman_ford());
        assert_eq!(g.needs_bellman_ford(), scan_needs_bellman_ford(&g));
    }

    #[test]
    fn set_edge_capacity_reshapes_the_network() {
        let mut g = McmfGraph::new(2);
        let (s, t) = (g.node(0), g.node(1));
        let e = g.add_edge(s, t, 5, 1);
        let r = g.min_cost_max_flow(s, t);
        assert_eq!(r.flow, 5);
        // Shrink the edge: flow clears, re-solves respect the new capacity.
        g.set_edge_capacity(e, 2);
        assert_eq!(g.flow(e), 0);
        let r2 = g.min_cost_max_flow(s, t);
        assert_eq!(r2, FlowResult { flow: 2, cost: 2 });
        assert_eq!(g.flow(e), 2);
        g.set_edge_capacity(e, 2);
        assert_eq!(g.flow(e), 0);
        let r3 = g.min_cost_max_flow(s, t);
        assert_eq!(r3, FlowResult { flow: 2, cost: 2 });
    }

    /// Everything a diversion check promises to leave unchanged, cloned
    /// out for a before/after bitwise comparison (work counters excluded
    /// by design: they measure the work the check did).
    type Fingerprint = (
        usize,
        Vec<u32>,
        Vec<i64>,
        Vec<i64>,
        Vec<i64>,
        Vec<i64>,
        usize,
    );

    fn fingerprint(g: &McmfGraph) -> Fingerprint {
        (
            g.n_nodes,
            g.arc_to.clone(),
            g.arc_cost.clone(),
            g.arc_cap.clone(),
            g.edge_cap.clone(),
            g.potential.clone(),
            g.neg_arcs,
        )
    }

    #[test]
    fn assignment_instance_is_integral_and_optimal() {
        // 3 connections x 2 WDMs, 20 bits each, capacity 32 — the shape of
        // the paper's Fig. 6/7 example. The solver must assign all 60 bits
        // and match the brute-force optimum.
        let mut g = McmfGraph::new(7);
        let s = g.node(0);
        let c: Vec<NodeId> = (1..4).map(|i| g.node(i)).collect();
        let w: Vec<NodeId> = (4..6).map(|i| g.node(i)).collect();
        let t = g.node(6);
        for &ci in &c {
            g.add_edge(s, ci, 20, 0);
        }
        let mut assign_edges = Vec::new();
        for (i, &ci) in c.iter().enumerate() {
            for (j, &wj) in w.iter().enumerate() {
                let cost = (i as i64 - j as i64).abs();
                assign_edges.push(((i, j), g.add_edge(ci, wj, 20, cost)));
            }
        }
        for &wj in &w {
            g.add_edge(wj, t, 32, 10);
        }
        let r = g.min_cost_max_flow(s, t);
        assert_eq!(r.flow, 60, "all 60 bits must be assigned");
        // Brute-force the optimal displacement over integral splits
        // (a_i = bits of connection i on WDM 0, the rest on WDM 1).
        let mut best = i64::MAX;
        for a0 in 0..=20i64 {
            for a1 in 0..=20i64 {
                for a2 in 0..=20i64 {
                    if a0 + a1 + a2 <= 32 && (60 - a0 - a1 - a2) <= 32 {
                        let disp = (20 - a0) + a1 + a2 * 2 + (20 - a2);
                        best = best.min(disp);
                    }
                }
            }
        }
        assert_eq!(r.cost, 600 + best);
        // Per-connection totals are exactly 20 (integral assignment).
        for i in 0..3 {
            let total: i64 = assign_edges
                .iter()
                .filter(|((ci, _), _)| *ci == i)
                .map(|(_, e)| g.flow(*e))
                .sum();
            assert_eq!(total, 20);
        }
    }

    /// Whether every residual arc with spare capacity has a non-negative
    /// reduced cost under the stored potentials — the invariant every
    /// Dijkstra pass relies on.
    fn potentials_feasible(g: &McmfGraph) -> bool {
        let p = &g.potential;
        (0..g.arc_cap.len()).all(|a| {
            let (u, v) = (g.arc_to[a ^ 1] as usize, g.arc_to[a] as usize);
            g.arc_cap[a] <= 0 || g.arc_cost[a] + p[u] - p[v] >= 0
        })
    }

    #[test]
    fn search_stops_at_the_sink_before_a_costly_branch() {
        // s -> t costs 1; the side branch s -> a -> b -> t costs 5 per
        // arc. The first search settles only s, then pops t at distance
        // 1: a (distance 5) and b are never settled, so only s's arcs
        // are scanned. The second search must route through the branch.
        let edges = [(0, 1, 1, 1), (0, 2, 1, 5), (2, 3, 1, 5), (3, 1, 1, 5)];
        let mut g = McmfGraph::new(4);
        for &(u, v, cap, cost) in &edges {
            g.add_edge(g.node(u), g.node(v), cap, cost);
        }
        let (s, t) = (g.node(0), g.node(1));
        let first = g.min_cost_flow_bounded(s, t, 1);
        assert_eq!(first, FlowResult { flow: 1, cost: 1 });
        assert_eq!(g.stats().dijkstra_passes, 1);
        assert_eq!(g.stats().arcs_scanned, 2, "only s was settled");
        // Capped update: settled s gets 0, t gets d_t = 1, and the
        // unsettled a (tentative 5) and unreached b are capped at 1.
        assert_eq!(g.potential, [0, 1, 1, 1]);
        assert!(potentials_feasible(&g));
        let rest = g.min_cost_max_flow(s, t);
        assert_eq!(
            FlowResult {
                flow: first.flow + rest.flow,
                cost: first.cost + rest.cost,
            },
            ssp_bellman_oracle(4, &edges, 0, 1)
        );
        assert!(potentials_feasible(&g));
    }

    /// A cold solve seeded from the source on every pass: the search
    /// the cached source layer must reproduce exactly.
    fn plain_cold_solve(g: &mut McmfGraph, s: NodeId, t: NodeId, max_flow: i64) -> FlowResult {
        g.cold_solve(s, t, max_flow, false)
    }

    #[test]
    fn layer_cache_counts_every_arc_it_examines() {
        // s = 0, t = 1, connections 2 and 3, waveguides 4 and 5. Edges
        // e0..e6 own arcs 2e (forward) and 2e + 1 (reverse); out-arcs:
        //   s: 0 2 | t: 11 13 | u2: 1 4 6 | u3: 3 8 | w4: 5 9 10 | w5: 7 12
        // Build: refresh w4 (3 arcs) and w5 (2): 5. best[w4] = arc 8
        // (u3, key 0 beats u2's 1), best[w5] = arc 6.
        // Pass 1: seeded heap {(0, w4), (0, w5)}; pops w4 (3 arcs, t at
        // 1), w5 (2), then t: 5. Path s → u3 → w4 → t; refresh w4 (3),
        // then s → u3 saturated: u3's arcs (2) and w4 again (3): 8.
        // Pass 2: heap {(1, w4), (0, w5)}; pops w5 (2 arcs, t at 0),
        // then t: 2. Path s → u2 → w5 → t; refresh w5 (2), then s → u2
        // saturated: u2's arcs (3), w4 (3) and w5 (2): 10.
        // Pass 3: both connections saturated, nothing cached: 0.
        // Total 5 + 5 + 8 + 2 + 10 = 30. The plain search scans 21
        // (passes of 12, 7 and 2): on a network this small the cache
        // costs more than it saves.
        let edges = [
            (0, 2, 1, 0),
            (0, 3, 1, 0),
            (2, 4, 1, 1),
            (2, 5, 1, 0),
            (3, 4, 1, 0),
            (4, 1, 1, 1),
            (5, 1, 1, 1),
        ];
        let build = || {
            let mut g = McmfGraph::new(6);
            for &(u, v, cap, cost) in &edges {
                g.add_edge(g.node(u), g.node(v), cap, cost);
            }
            g
        };
        let (mut cached, mut plain) = (build(), build());
        let (s, t) = (NodeId(0), NodeId(1));
        let r = cached.min_cost_max_flow(s, t);
        assert_eq!(r, FlowResult { flow: 2, cost: 2 });
        assert_eq!(r, plain_cold_solve(&mut plain, s, t, i64::MAX));
        assert_eq!(cached.fingerprint(), plain.fingerprint());
        assert_eq!(cached.stats().dijkstra_passes, 3);
        assert_eq!(cached.stats().arcs_scanned, 30);
        assert_eq!(plain.stats().arcs_scanned, 21);
    }

    /// Builds an assignment-shaped network: `s → u` per connection,
    /// `u → w` assignment arcs (parallel and zero-capacity ones
    /// included) and `w → t` per waveguide, inserted in one of three
    /// orders, with the sink either below or above every other node.
    /// Returns the graph, its edges as `(u, v, cap, cost)` in insertion
    /// order, and `(s, t)`.
    #[allow(clippy::type_complexity)]
    fn assignment_network(
        conns: &[(i64, i64)],
        assign: &[(usize, usize, i64, i64)],
        sinks: &[(i64, i64)],
        order: u8,
        sink_last: bool,
    ) -> (McmfGraph, Vec<(usize, usize, i64, i64)>, NodeId, NodeId) {
        let (n_conn, n_w) = (conns.len(), sinks.len());
        let n = 2 + n_conn + n_w;
        let base = if sink_last { 1 } else { 2 };
        let (s, t) = (0, if sink_last { n - 1 } else { 1 });
        let conn = |i: usize| base + i;
        let wg = |w: usize| base + n_conn + w;
        let src: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(i, &(cap, cost))| (s, conn(i), cap, cost))
            .collect();
        let mid: Vec<_> = assign
            .iter()
            .map(|&(i, w, cap, cost)| (conn(i % n_conn), wg(w % n_w), cap, cost))
            .collect();
        let snk: Vec<_> = sinks
            .iter()
            .enumerate()
            .map(|(w, &(cap, cost))| (wg(w), t, cap, cost))
            .collect();
        let edges: Vec<_> = match order {
            0 => [src, mid, snk].concat(),
            1 => {
                let rev = |v: Vec<_>| v.into_iter().rev().collect::<Vec<_>>();
                [snk, rev(mid), rev(src)].concat()
            }
            _ => [mid, src, snk].concat(),
        };
        let mut g = McmfGraph::new(n);
        for &(u, v, cap, cost) in &edges {
            g.add_edge(NodeId(u), NodeId(v), cap, cost);
        }
        (g, edges, NodeId(s), NodeId(t))
    }

    /// Per-edge flows of a solved graph.
    fn edge_flows(g: &McmfGraph) -> Vec<i64> {
        (0..g.edge_count()).map(|e| g.flow(EdgeId(e))).collect()
    }

    /// Oracle: plain Bellman-Ford successive shortest paths (no
    /// potentials). Slower but independent of the Dijkstra machinery.
    fn ssp_bellman_oracle(
        n: usize,
        edges: &[(usize, usize, i64, i64)],
        s: usize,
        t: usize,
    ) -> FlowResult {
        #[derive(Clone)]
        struct A {
            to: usize,
            cap: i64,
            cost: i64,
            rev: usize,
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut arcs: Vec<A> = Vec::new();
        for &(u, v, cap, cost) in edges {
            let f = arcs.len();
            arcs.push(A {
                to: v,
                cap,
                cost,
                rev: f + 1,
            });
            arcs.push(A {
                to: u,
                cap: 0,
                cost: -cost,
                rev: f,
            });
            adj[u].push(f);
            adj[v].push(f + 1);
        }
        let (mut flow, mut cost) = (0i64, 0i64);
        loop {
            let mut dist = vec![i64::MAX; n];
            let mut parent = vec![usize::MAX; n];
            dist[s] = 0;
            for _ in 0..n {
                let mut changed = false;
                for u in 0..n {
                    if dist[u] == i64::MAX {
                        continue;
                    }
                    for &ai in &adj[u] {
                        let a = &arcs[ai];
                        if a.cap > 0 && dist[u] + a.cost < dist[a.to] {
                            dist[a.to] = dist[u] + a.cost;
                            parent[a.to] = ai;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            if dist[t] == i64::MAX {
                break;
            }
            let mut push = i64::MAX;
            let mut v = t;
            while v != s {
                let ai = parent[v];
                push = push.min(arcs[ai].cap);
                v = arcs[arcs[ai].rev].to;
            }
            let mut v = t;
            while v != s {
                let ai = parent[v];
                arcs[ai].cap -= push;
                let rev = arcs[ai].rev;
                arcs[rev].cap += push;
                cost += push * arcs[ai].cost;
                v = arcs[rev].to;
            }
            flow += push;
        }
        FlowResult { flow, cost }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]
        /// The cached source layer reproduces the plain seeding
        /// exactly on assignment-shaped networks: flow, cost, every
        /// edge's flow and the fingerprint (potentials included), for a
        /// bounded first solve and for a second cold solve that starts
        /// from the flow the first one left. Negative costs force the
        /// Bellman-Ford init; duplicate tracks and small cost ranges
        /// force ties; zero capacities and parallel arcs appear.
        #[test]
        fn cached_layer_matches_plain_seeding(
            conns in proptest::collection::vec((0i64..5, 0u8..8), 1..7),
            assign in proptest::collection::vec(
                (0usize..7, 0usize..5, 0i64..4, -1i64..3), 0..24),
            sinks in proptest::collection::vec((0i64..6, 0i64..3), 1..6),
            order in 0u8..3,
            sink_last in any::<bool>(),
            bound in 0i64..12,
            bounded in any::<bool>(),
        ) {
            let conns: Vec<_> = conns
                .into_iter()
                .map(|(cap, c)| (cap, [0, 0, 0, 0, 0, -2, 1, 3][c as usize]))
                .collect();
            let (mut cached, edges, s, t) =
                assignment_network(&conns, &assign, &sinks, order, sink_last);
            let (mut plain, _, _, _) =
                assignment_network(&conns, &assign, &sinks, order, sink_last);
            let max_flow = if bounded { bound } else { i64::MAX };
            let first = cached.min_cost_flow_bounded(s, t, max_flow);
            prop_assert_eq!(first, plain_cold_solve(&mut plain, s, t, max_flow));
            prop_assert_eq!(edge_flows(&cached), edge_flows(&plain));
            prop_assert_eq!(cached.fingerprint(), plain.fingerprint());
            let rest = cached.min_cost_max_flow(s, t);
            prop_assert_eq!(rest, plain_cold_solve(&mut plain, s, t, i64::MAX));
            prop_assert_eq!(edge_flows(&cached), edge_flows(&plain));
            prop_assert_eq!(cached.fingerprint(), plain.fingerprint());
            let n = cached.node_count();
            prop_assert_eq!(
                FlowResult { flow: first.flow + rest.flow, cost: first.cost + rest.cost },
                ssp_bellman_oracle(n, &edges, s.0, t.0)
            );
        }

        /// On general graphs the shape check mostly fails and the solve
        /// seeds from the source; either way it matches the plain
        /// seeding and the Bellman-Ford oracle.
        #[test]
        fn cold_solve_matches_plain_seeding_on_general_graphs(
            n in 3usize..8,
            raw_edges in proptest::collection::vec(
                (0usize..8, 0usize..8, 0i64..6, 0i64..6), 0..20),
        ) {
            let edges: Vec<_> = raw_edges
                .into_iter()
                .map(|(u, v, cap, cost)| (u % n, v % n, cap, cost))
                .filter(|&(u, v, _, _)| u != v)
                .collect();
            let build = || {
                let mut g = McmfGraph::new(n);
                for &(u, v, cap, cost) in &edges {
                    g.add_edge(NodeId(u), NodeId(v), cap, cost);
                }
                g
            };
            let (mut cached, mut plain) = (build(), build());
            let (s, t) = (NodeId(0), NodeId(n - 1));
            let got = cached.min_cost_max_flow(s, t);
            prop_assert_eq!(got, plain_cold_solve(&mut plain, s, t, i64::MAX));
            prop_assert_eq!(cached.fingerprint(), plain.fingerprint());
            prop_assert_eq!(got, ssp_bellman_oracle(n, &edges, 0, n - 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn matches_bellman_ford_oracle(
            n in 2usize..7,
            raw_edges in proptest::collection::vec(
                (0usize..7, 0usize..7, 0i64..10, 0i64..20), 0..18),
        ) {
            let edges: Vec<_> = raw_edges
                .into_iter()
                .map(|(u, v, cap, cost)| (u % n, v % n, cap, cost))
                .filter(|&(u, v, _, _)| u != v)
                .collect();
            let mut g = McmfGraph::new(n);
            for &(u, v, cap, cost) in &edges {
                g.add_edge(g.node(u), g.node(v), cap, cost);
            }
            let got = g.min_cost_max_flow(g.node(0), g.node(1));
            let want = ssp_bellman_oracle(n, &edges, 0, 1);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn flow_conservation_holds(
            n in 3usize..7,
            raw_edges in proptest::collection::vec(
                (0usize..7, 0usize..7, 1i64..8, 0i64..10), 1..15),
        ) {
            let edges: Vec<_> = raw_edges
                .into_iter()
                .map(|(u, v, cap, cost)| (u % n, v % n, cap, cost))
                .filter(|&(u, v, _, _)| u != v)
                .collect();
            let mut g = McmfGraph::new(n);
            let handles: Vec<_> = edges
                .iter()
                .map(|&(u, v, cap, cost)| g.add_edge(g.node(u), g.node(v), cap, cost))
                .collect();
            let r = g.min_cost_max_flow(g.node(0), g.node(n - 1));
            let mut net = vec![0i64; n];
            for (&(u, v, cap, _), &h) in edges.iter().zip(&handles) {
                let f = g.flow(h);
                prop_assert!(f >= 0 && f <= cap);
                net[u] += f;
                net[v] -= f;
            }
            prop_assert_eq!(net[0], r.flow);
            prop_assert_eq!(net[n - 1], -r.flow);
            for &imbalance in &net[1..n - 1] {
                prop_assert_eq!(imbalance, 0);
            }
        }

        /// The sink-bounded search's capped potential update keeps every
        /// residual reduced cost non-negative after a cold solve. Edge
        /// costs are non-negative, so the zero potentials the cold solve
        /// starts from are feasible on every arc, reachable or not.
        #[test]
        fn potentials_stay_feasible(
            n in 2usize..8,
            raw_edges in proptest::collection::vec(
                (0usize..8, 0usize..8, 0i64..10, 0i64..20), 1..24),
        ) {
            let edges: Vec<_> = raw_edges
                .into_iter()
                .map(|(u, v, cap, cost)| (u % n, v % n, cap, cost))
                .filter(|&(u, v, _, _)| u != v)
                .collect();
            if edges.is_empty() {
                return Ok(());
            }
            let mut g = McmfGraph::new(n);
            for &(u, v, cap, cost) in &edges {
                g.add_edge(g.node(u), g.node(v), cap, cost);
            }
            let (s, t) = (g.node(0), g.node(1));
            let cold = g.min_cost_max_flow(s, t);
            prop_assert!(potentials_feasible(&g), "after min_cost_max_flow");
            prop_assert_eq!(cold, ssp_bellman_oracle(n, &edges, 0, 1));
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        /// `can_divert` answers a tentative deletion's max-flow question
        /// exactly and leaves the network bitwise as it found it. Each
        /// assignment-shaped network is solved, then some of its idle
        /// sink edges are closed, as the WDM reduction closes idle
        /// waveguides. Every edge, sink edges included, is then checked
        /// against a cold solve of the network with that edge at
        /// capacity 0, which must carry the solved flow for the check to
        /// say yes. Small capacities leave some waveguides unused and
        /// others saturated; repeated `(connection, waveguide)` pairs
        /// give parallel arcs; negative costs keep the negative-arc
        /// counter busy.
        #[test]
        fn can_divert_matches_cold_solve_and_restores_bitwise(
            conns in proptest::collection::vec((0i64..6, 0u8..8), 1..7),
            assign in proptest::collection::vec(
                (0usize..7, 0usize..5, 0i64..5, -1i64..3), 0..24),
            sinks in proptest::collection::vec((0i64..8, 0i64..3), 1..6),
            close_idle in proptest::collection::vec(any::<bool>(), 6),
            order in 0u8..3,
            sink_last in any::<bool>(),
        ) {
            let conns: Vec<_> = conns
                .into_iter()
                .map(|(cap, c)| (cap, [0, 0, 0, 0, 0, -2, 1, 3][c as usize]))
                .collect();
            let (mut g, mut edges, s, t) =
                assignment_network(&conns, &assign, &sinks, order, sink_last);
            let full = g.min_cost_max_flow(s, t).flow;
            let mut sink_edges = 0;
            for (e, edge) in edges.iter_mut().enumerate() {
                if edge.1 != t.0 {
                    continue;
                }
                if g.flow(EdgeId(e)) == 0 && close_idle[sink_edges] {
                    g.set_edge_capacity(EdgeId(e), 0);
                    edge.2 = 0;
                }
                sink_edges += 1;
            }
            let committed = fingerprint(&g);
            for e in 0..edges.len() {
                let mut reduced = edges.clone();
                reduced[e].2 = 0;
                let mut cold = McmfGraph::new(g.node_count());
                for &(u, v, cap, cost) in &reduced {
                    cold.add_edge(NodeId(u), NodeId(v), cap, cost);
                }
                let carries_full = cold.min_cost_max_flow(s, t).flow == full;
                prop_assert_eq!(g.can_divert(EdgeId(e)), carries_full, "edge {}", e);
                prop_assert_eq!(fingerprint(&g), committed.clone(), "edge {}", e);
                prop_assert_eq!(g.needs_bellman_ford(), scan_needs_bellman_ford(&g));
            }
        }
    }
}
