//! Hyper nets and hyper pins.

use crate::agglomerate::agglomerate;
use crate::kmeans::{cluster_capacitated, KmeansParams};
use core::fmt;
use operon_geom::{BoundingBox, FPoint, Point};
use operon_netlist::{BitId, Design, GroupId};

/// Identifier of a [`HyperNet`] within a design's hyper-net list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HyperNetId(u32);

impl HyperNetId {
    /// Creates a hyper-net id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The dense index backing this id.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HyperNetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// The role an electrical pin plays in its bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinRole {
    /// The driving pin of the bit.
    Source,
    /// The `k`-th sink pin of the bit.
    Sink(usize),
}

/// An electrical pin, qualified by the bit it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectricalPin {
    /// The bit (within the hyper net's signal group) owning this pin.
    pub bit: BitId,
    /// Source or k-th sink.
    pub role: PinRole,
    /// Pin location.
    pub location: Point,
}

/// A hyper pin: the gravity center of a cluster of neighboring electrical
/// pins (paper §3.1.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperPin {
    location: Point,
    members: Vec<ElectricalPin>,
}

impl HyperPin {
    /// Creates a hyper pin from its member pins, placing it at their
    /// gravity center.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<ElectricalPin>) -> Self {
        let location = FPoint::centroid(members.iter().map(|m| m.location.to_fpoint()))
            .expect("hyper pin must have member pins")
            .round();
        Self { location, members }
    }

    /// The gravity center representing this hyper pin.
    #[inline]
    pub fn location(&self) -> Point {
        self.location
    }

    /// The electrical pins represented by this hyper pin.
    #[inline]
    pub fn members(&self) -> &[ElectricalPin] {
        &self.members
    }

    /// Number of source pins among the members.
    pub fn source_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.role == PinRole::Source)
            .count()
    }

    /// Number of sink pins among the members.
    pub fn sink_count(&self) -> usize {
        self.members.len() - self.source_count()
    }
}

/// A hyper net: a cluster of signal bits routed with one shared topology
/// (paper §3.1).
///
/// `pins()[0]` is always the *root* hyper pin — the one holding the most
/// source pins; the remaining hyper pins are the targets the topology must
/// reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperNet {
    id: HyperNetId,
    group: GroupId,
    bits: Vec<BitId>,
    pins: Vec<HyperPin>,
}

impl HyperNet {
    /// Assembles a hyper net, moving the hyper pin with the most source
    /// members to the front.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `pins` is empty, or if no pin contains a source.
    pub fn new(id: HyperNetId, group: GroupId, bits: Vec<BitId>, mut pins: Vec<HyperPin>) -> Self {
        assert!(!bits.is_empty(), "hyper net {id} must contain bits");
        assert!(!pins.is_empty(), "hyper net {id} must contain pins");
        let root = pins
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.source_count())
            .map(|(i, _)| i)
            .unwrap_or(0);
        assert!(
            pins[root].source_count() > 0,
            "hyper net {id} has no source pin"
        );
        pins.swap(0, root);
        Self {
            id,
            group,
            bits,
            pins,
        }
    }

    /// This hyper net under a new id and owning group, pins untouched —
    /// how an incremental (ECO) flow re-files a reused net after earlier
    /// groups changed size or moved.
    #[must_use]
    pub fn renumbered(mut self, id: HyperNetId, group: GroupId) -> Self {
        self.id = id;
        self.group = group;
        self
    }

    /// The id of this hyper net.
    #[inline]
    pub fn id(&self) -> HyperNetId {
        self.id
    }

    /// The signal group the member bits come from.
    #[inline]
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The member bits.
    #[inline]
    pub fn bits(&self) -> &[BitId] {
        &self.bits
    }

    /// Number of member bits — the channel demand of every connection of
    /// this hyper net (bounded by the WDM capacity by construction).
    #[inline]
    pub fn bit_count(&self) -> usize {
        self.bits.len()
    }

    /// The hyper pins; index 0 is the root (source side).
    #[inline]
    pub fn pins(&self) -> &[HyperPin] {
        &self.pins
    }

    /// The root (source) hyper pin.
    #[inline]
    pub fn root_pin(&self) -> &HyperPin {
        &self.pins[0]
    }

    /// Locations of all hyper pins, root first.
    pub fn pin_locations(&self) -> Vec<Point> {
        self.pins.iter().map(HyperPin::location).collect()
    }

    /// The tightest box around the hyper-pin locations.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::from_points(self.pins.iter().map(HyperPin::location))
            // operon-lint: allow(R003, reason = "new() asserts pins is non-empty, so from_points always sees a point")
            .expect("hyper net always has pins")
    }
}

/// Parameters of hyper-net construction.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// WDM capacity: the maximum bits per hyper net.
    pub capacity: usize,
    /// Agglomeration threshold for hyper-pin merging, dbu.
    pub merge_threshold: f64,
    /// K-Means iteration cap.
    pub kmeans_max_iters: usize,
    /// K-Means variance-improvement stop tolerance.
    pub kmeans_tolerance: f64,
    /// Seed for K-Means initialization.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            capacity: 32,
            merge_threshold: 400.0,
            kmeans_max_iters: 50,
            kmeans_tolerance: 1e-3,
            seed: 2018,
        }
    }
}

/// Runs the full signal-processing stage over a design: top-down
/// capacity-constrained K-Means per group, then bottom-up hyper-pin
/// agglomeration per cluster.
///
/// Hyper nets are returned in `(group, cluster)` order with dense ids.
///
/// # Panics
///
/// Panics if `config.capacity` is zero.
///
/// # Examples
///
/// ```
/// use operon_cluster::{build_hyper_nets, ClusterConfig};
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 3);
/// let nets = build_hyper_nets(&design, &ClusterConfig::default());
/// let total_bits: usize = nets.iter().map(|n| n.bit_count()).sum();
/// assert_eq!(total_bits, design.bit_count());
/// ```
pub fn build_hyper_nets(design: &Design, config: &ClusterConfig) -> Vec<HyperNet> {
    let mut nets = Vec::new();
    for group in design.groups() {
        for (bits, hyper_pins) in group_clusters(group, config) {
            let id = HyperNetId::new(nets.len() as u32);
            nets.push(HyperNet::new(id, group.id(), bits, hyper_pins));
        }
    }
    nets
}

/// Runs the signal-processing stage on a single group, returning the
/// `(member bits, hyper pins)` of each cluster — the per-group kernel of
/// [`build_hyper_nets`], exposed so incremental (ECO) flows can re-cluster
/// only the groups that changed.
///
/// # Panics
///
/// Panics if `config.capacity` is zero.
pub fn group_clusters(
    group: &operon_netlist::SignalGroup,
    config: &ClusterConfig,
) -> Vec<(Vec<BitId>, Vec<HyperPin>)> {
    assert!(config.capacity > 0, "capacity must be positive");
    let params = KmeansParams {
        capacity: config.capacity,
        max_iters: config.kmeans_max_iters,
        tolerance: config.kmeans_tolerance,
        seed: config.seed,
    };

    let clusters = if group.bit_count() > config.capacity {
        // Represent each bit by the centroid of its pins for clustering.
        let bit_centroids: Vec<Point> = group
            .bits()
            .iter()
            .map(|bit| {
                FPoint::centroid(bit.pins().map(Point::to_fpoint))
                    .expect("a bit has a source pin")
                    .round()
            })
            .collect();
        cluster_capacitated(&bit_centroids, &params)
    } else {
        vec![(0..group.bit_count()).collect()]
    };

    clusters
        .into_iter()
        .map(|member_bits| {
            // Collect the electrical pins of the cluster's bits.
            let mut epins = Vec::new();
            for &bi in &member_bits {
                let bit = &group.bits()[bi];
                epins.push(ElectricalPin {
                    bit: bit.id(),
                    role: PinRole::Source,
                    location: bit.source(),
                });
                for (k, &sink) in bit.sinks().iter().enumerate() {
                    epins.push(ElectricalPin {
                        bit: bit.id(),
                        role: PinRole::Sink(k),
                        location: sink,
                    });
                }
            }
            // Bottom-up hyper-pin agglomeration.
            let locations: Vec<Point> = epins.iter().map(|p| p.location).collect();
            let pin_clusters = agglomerate(&locations, config.merge_threshold);
            let hyper_pins: Vec<HyperPin> = pin_clusters
                .into_iter()
                .map(|members| HyperPin::new(members.into_iter().map(|i| epins[i]).collect()))
                .collect();
            let bits: Vec<BitId> = member_bits
                .into_iter()
                .map(|bi| group.bits()[bi].id())
                .collect();
            (bits, hyper_pins)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use operon_netlist::synth::{generate, SynthConfig};
    use operon_netlist::{Bit, SignalGroup};

    fn epin(bit: u32, role: PinRole, x: i64, y: i64) -> ElectricalPin {
        ElectricalPin {
            bit: BitId::new(bit),
            role,
            location: Point::new(x, y),
        }
    }

    #[test]
    fn hyper_pin_sits_at_gravity_center() {
        let hp = HyperPin::new(vec![
            epin(0, PinRole::Source, 0, 0),
            epin(1, PinRole::Source, 4, 0),
        ]);
        assert_eq!(hp.location(), Point::new(2, 0));
        assert_eq!(hp.source_count(), 2);
        assert_eq!(hp.sink_count(), 0);
    }

    #[test]
    #[should_panic(expected = "member pins")]
    fn empty_hyper_pin_rejected() {
        let _ = HyperPin::new(vec![]);
    }

    #[test]
    fn hyper_net_roots_the_sourceful_pin() {
        let sinks = HyperPin::new(vec![
            epin(0, PinRole::Sink(0), 100, 100),
            epin(1, PinRole::Sink(0), 104, 100),
        ]);
        let sources = HyperPin::new(vec![
            epin(0, PinRole::Source, 0, 0),
            epin(1, PinRole::Source, 4, 0),
        ]);
        let net = HyperNet::new(
            HyperNetId::new(0),
            GroupId::new(0),
            vec![BitId::new(0), BitId::new(1)],
            vec![sinks, sources.clone()],
        );
        assert_eq!(net.root_pin(), &sources);
        assert_eq!(net.bit_count(), 2);
    }

    #[test]
    #[should_panic(expected = "no source pin")]
    fn sourceless_hyper_net_rejected() {
        let sinks = HyperPin::new(vec![epin(0, PinRole::Sink(0), 1, 1)]);
        let _ = HyperNet::new(
            HyperNetId::new(0),
            GroupId::new(0),
            vec![BitId::new(0)],
            vec![sinks],
        );
    }

    #[test]
    fn build_covers_all_bits_within_capacity() {
        let design = generate(&SynthConfig::medium(), 5);
        let config = ClusterConfig::default();
        let nets = build_hyper_nets(&design, &config);
        let total: usize = nets.iter().map(HyperNet::bit_count).sum();
        assert_eq!(total, design.bit_count());
        assert!(nets.iter().all(|n| n.bit_count() <= config.capacity));
        // Dense ids in order.
        for (i, n) in nets.iter().enumerate() {
            assert_eq!(n.id().index(), i);
        }
    }

    #[test]
    fn wide_group_splits_into_multiple_hyper_nets() {
        // One 80-bit bus with capacity 32 must split into >= 3 hyper nets.
        let die = BoundingBox::new(Point::new(0, 0), Point::new(10_000, 10_000));
        let mut design = Design::new("wide", die);
        let bits: Vec<Bit> = (0..80)
            .map(|i| {
                Bit::new(
                    BitId::new(i),
                    Point::new(100 + i as i64 * 5, 100),
                    vec![Point::new(9_000 + i as i64 * 5, 9_000)],
                )
            })
            .collect();
        design.push_group(SignalGroup::new(GroupId::new(0), "wide_bus", bits));
        let nets = build_hyper_nets(&design, &ClusterConfig::default());
        assert!(nets.len() >= 3, "got {} hyper nets", nets.len());
        let total: usize = nets.iter().map(HyperNet::bit_count).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn bus_pins_agglomerate_to_few_hyper_pins() {
        // 8 bits, sources in one corner, sinks in the other: 2 hyper pins.
        let die = BoundingBox::new(Point::new(0, 0), Point::new(10_000, 10_000));
        let mut design = Design::new("bus", die);
        let bits: Vec<Bit> = (0..8)
            .map(|i| {
                Bit::new(
                    BitId::new(i),
                    Point::new(100 + i as i64 * 10, 100),
                    vec![Point::new(9_000 + i as i64 * 10, 9_000)],
                )
            })
            .collect();
        design.push_group(SignalGroup::new(GroupId::new(0), "bus", bits));
        let nets = build_hyper_nets(&design, &ClusterConfig::default());
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].pins().len(), 2);
        assert_eq!(nets[0].root_pin().source_count(), 8);
    }

    #[test]
    fn bounding_box_covers_pin_locations() {
        let design = generate(&SynthConfig::small(), 8);
        for net in build_hyper_nets(&design, &ClusterConfig::default()) {
            let bb = net.bounding_box();
            for p in net.pin_locations() {
                assert!(bb.contains(p));
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let design = generate(&SynthConfig::medium(), 13);
        let a = build_hyper_nets(&design, &ClusterConfig::default());
        let b = build_hyper_nets(&design, &ClusterConfig::default());
        assert_eq!(a, b);
    }
}
