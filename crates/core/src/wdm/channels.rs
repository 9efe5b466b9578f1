//! Wavelength-channel assignment within WDM waveguides.
//!
//! The flow assignment (§4.2) decides *how many* channels of each
//! waveguide a connection uses; this module decides *which* wavelengths.
//! Connections sharing a waveguide must occupy disjoint channel sets, and
//! contiguous blocks are preferred — adjacent rings of one bus can share a
//! thermal tuning island, and the modulator bank stays physically compact.
//!
//! First-fit over a per-waveguide occupancy mask is optimal here (demands
//! are known to fit by construction: the flow respects the capacity), so
//! no search is needed.

use crate::wdm::{Wdm, WdmPlan};

/// The channel block a connection occupies on one waveguide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelBlock {
    /// Index of the connection (into [`WdmPlan::connections`]).
    pub connection: usize,
    /// First wavelength channel (0-based).
    pub first: usize,
    /// Number of consecutive channels.
    pub count: usize,
}

impl ChannelBlock {
    /// The half-open channel range `[first, first + count)`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.count
    }
}

/// Channel assignments of one waveguide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveguideChannels {
    /// Blocks in ascending channel order.
    pub blocks: Vec<ChannelBlock>,
}

impl WaveguideChannels {
    /// Channels in use.
    pub fn used(&self) -> usize {
        self.blocks.iter().map(|b| b.count).sum()
    }

    /// Whether no two blocks overlap.
    pub fn is_conflict_free(&self) -> bool {
        let mut sorted: Vec<&ChannelBlock> = self.blocks.iter().collect();
        sorted.sort_by_key(|b| b.first);
        sorted
            .windows(2)
            .all(|w| w[0].first + w[0].count <= w[1].first)
    }
}

/// Assigns contiguous wavelength blocks to every waveguide of a plan.
///
/// Returns one [`WaveguideChannels`] per WDM, in plan order.
///
/// # Panics
///
/// Panics if any waveguide's demand exceeds `capacity` — cannot happen
/// for plans produced by [`crate::wdm::plan`] with the same library.
///
/// # Examples
///
/// ```
/// use operon::wdm::channels::assign_channels;
/// use operon::wdm::{TrackOrientation, Wdm, WdmPlan, WdmStats};
///
/// let plan = WdmPlan {
///     connections: vec![],
///     initial_count: 1,
///     wdms: vec![Wdm {
///         orientation: TrackOrientation::Horizontal,
///         track: 0,
///         assigned: vec![(0, 20), (1, 12)],
///     }],
///     stats: WdmStats::default(),
/// };
/// let channels = assign_channels(&plan, 32);
/// assert_eq!(channels[0].blocks.len(), 2);
/// assert!(channels[0].is_conflict_free());
/// ```
pub fn assign_channels(plan: &WdmPlan, capacity: usize) -> Vec<WaveguideChannels> {
    plan.wdms
        .iter()
        .map(|w| assign_waveguide(w, capacity))
        .collect()
}

fn assign_waveguide(wdm: &Wdm, capacity: usize) -> WaveguideChannels {
    assert!(
        wdm.used() <= capacity,
        "waveguide demand {} exceeds capacity {capacity}",
        wdm.used()
    );
    // Deterministic order: largest blocks first (ties by connection id)
    // keeps big buses at low channel indices.
    let mut demands: Vec<(usize, usize)> = wdm.assigned.clone();
    demands.sort_by_key(|&(conn, bits)| (std::cmp::Reverse(bits), conn));
    let mut next = 0usize;
    let mut blocks = Vec::with_capacity(demands.len());
    for (connection, count) in demands {
        blocks.push(ChannelBlock {
            connection,
            first: next,
            count,
        });
        next += count;
    }
    WaveguideChannels { blocks }
}

/// Checks a full channel assignment against its plan: every waveguide
/// conflict-free and within capacity, and every connection's channel
/// total equal to its bit demand.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_channels(
    plan: &WdmPlan,
    channels: &[WaveguideChannels],
    capacity: usize,
) -> Result<(), String> {
    if channels.len() != plan.wdms.len() {
        return Err(format!(
            "{} channel sets for {} waveguides",
            channels.len(),
            plan.wdms.len()
        ));
    }
    let mut per_connection = vec![0usize; plan.connections.len()];
    for (wi, (wdm, wc)) in plan.wdms.iter().zip(channels).enumerate() {
        if !wc.is_conflict_free() {
            // operon-lint: allow(P002, reason = "error path: formats once for the first violation, then returns")
            return Err(format!("waveguide {wi} has overlapping channel blocks"));
        }
        if let Some(b) = wc.blocks.iter().find(|b| b.first + b.count > capacity) {
            // operon-lint: allow(P002, reason = "error path: formats once for the first violation, then returns")
            return Err(format!(
                "waveguide {wi}: block {:?} exceeds capacity {capacity}",
                b.range()
            ));
        }
        let assigned_bits: usize = wdm.assigned.iter().map(|&(_, b)| b).sum();
        if wc.used() != assigned_bits {
            // operon-lint: allow(P002, reason = "error path: formats once for the first violation, then returns")
            return Err(format!(
                "waveguide {wi}: {} channels for {assigned_bits} assigned bits",
                wc.used()
            ));
        }
        for b in &wc.blocks {
            per_connection[b.connection] += b.count;
        }
    }
    for (c, conn) in plan.connections.iter().enumerate() {
        if per_connection[c] != conn.bits {
            // operon-lint: allow(P002, reason = "error path: formats once for the first violation, then returns")
            return Err(format!(
                "connection {c}: {} channels for {} bits",
                per_connection[c], conn.bits
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdm::{Connection, TrackOrientation};
    use operon_exec::Executor;

    fn plan_of(wdms: Vec<Wdm>, connections: Vec<Connection>) -> WdmPlan {
        WdmPlan {
            connections,
            initial_count: wdms.len(),
            wdms,
            stats: crate::wdm::WdmStats::default(),
        }
    }

    fn conn(bits: usize) -> Connection {
        Connection {
            net_index: 0,
            bits,
            orientation: TrackOrientation::Horizontal,
            track: 0,
        }
    }

    fn wdm(assigned: Vec<(usize, usize)>) -> Wdm {
        Wdm {
            orientation: TrackOrientation::Horizontal,
            track: 0,
            assigned,
        }
    }

    #[test]
    fn single_connection_starts_at_zero() {
        let plan = plan_of(vec![wdm(vec![(0, 20)])], vec![conn(20)]);
        let ch = assign_channels(&plan, 32);
        assert_eq!(
            ch[0].blocks,
            vec![ChannelBlock {
                connection: 0,
                first: 0,
                count: 20
            }]
        );
        assert!(validate_channels(&plan, &ch, 32).is_ok());
    }

    #[test]
    fn blocks_are_contiguous_and_disjoint() {
        let plan = plan_of(vec![wdm(vec![(0, 20), (1, 12)])], vec![conn(20), conn(12)]);
        let ch = assign_channels(&plan, 32);
        assert!(ch[0].is_conflict_free());
        assert_eq!(ch[0].used(), 32);
        // Largest block first.
        assert_eq!(ch[0].blocks[0].connection, 0);
        assert_eq!(ch[0].blocks[0].range(), 0..20);
        assert_eq!(ch[0].blocks[1].range(), 20..32);
        assert!(validate_channels(&plan, &ch, 32).is_ok());
    }

    #[test]
    fn split_connection_gets_channels_on_both_waveguides() {
        // Connection 1 split 12 + 8 across two waveguides (the Fig. 6
        // outcome).
        let plan = plan_of(
            vec![wdm(vec![(0, 20), (1, 12)]), wdm(vec![(1, 8), (2, 20)])],
            vec![conn(20), conn(20), conn(20)],
        );
        let ch = assign_channels(&plan, 32);
        assert!(validate_channels(&plan, &ch, 32).is_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn overfull_waveguide_rejected() {
        let plan = plan_of(vec![wdm(vec![(0, 40)])], vec![conn(40)]);
        let _ = assign_channels(&plan, 32);
    }

    #[test]
    fn validation_catches_conflicts() {
        let plan = plan_of(vec![wdm(vec![(0, 4), (1, 4)])], vec![conn(4), conn(4)]);
        let mut ch = assign_channels(&plan, 32);
        ch[0].blocks[1].first = 2; // force an overlap
        let err = validate_channels(&plan, &ch, 32).expect_err("overlap");
        assert!(err.contains("overlapping"));
    }

    #[test]
    fn validation_catches_short_connections() {
        let plan = plan_of(vec![wdm(vec![(0, 4)])], vec![conn(6)]);
        let ch = assign_channels(&plan, 32);
        let err = validate_channels(&plan, &ch, 32).expect_err("short");
        assert!(err.contains("connection 0"));
    }

    #[test]
    fn end_to_end_plan_channels_validate() {
        use crate::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
        use operon_geom::Point;
        use operon_optics::{ElectricalParams, OpticalLib};
        use operon_steiner::{NodeKind, RouteTree};

        let lib = OpticalLib::paper_defaults();
        let nets: Vec<NetCandidates> = (0..5)
            .map(|k| {
                let mut tree = RouteTree::new(Point::new(0, k as i64 * 100));
                tree.add_child(
                    tree.root(),
                    Point::new(15_000, k as i64 * 100),
                    NodeKind::Terminal,
                );
                let cand = analyze_assignment(
                    &tree,
                    &[EdgeMedium::Optical],
                    13,
                    &lib,
                    &ElectricalParams::paper_defaults(),
                );
                NetCandidates {
                    net_index: k,
                    bits: 13,
                    candidates: vec![cand],
                    electrical_idx: 0,
                    fanout_power_mw: 0.0,
                }
            })
            .collect();
        let choice = vec![0usize; nets.len()];
        let (plan, _) = crate::wdm::plan(&nets, &choice, &lib, None, &Executor::sequential())
            .expect("feasible");
        let ch = assign_channels(&plan, lib.wdm_capacity);
        assert!(validate_channels(&plan, &ch, lib.wdm_capacity).is_ok());
    }
}
