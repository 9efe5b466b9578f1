//! Deterministic synthetic benchmark generation.
//!
//! The OPERON evaluation used five proprietary industrial benchmarks
//! (I1–I5), up-scaled to centimeter dimensions. This module generates
//! substitutes with the same *statistical shape*: total signal-bit count
//! (the "#Net" column of Table 1), bus-size distribution, multi-pin fanout,
//! and the hub-to-hub communication pattern (logic clusters talking to
//! memory interfaces) that the paper's introduction motivates.
//!
//! All generation is seeded; the same `(config, seed)` pair always yields
//! the identical [`Design`].
//!
//! # Examples
//!
//! ```
//! use operon_netlist::synth::{generate, SynthConfig};
//!
//! let a = generate(&SynthConfig::small(), 7);
//! let b = generate(&SynthConfig::small(), 7);
//! assert_eq!(a, b); // deterministic
//! ```

use crate::{Bit, BitId, Design, GroupId, SignalGroup};
use operon_geom::{cm_to_dbu, BoundingBox, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How communication hubs are laid out on the die.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HubLayout {
    /// Hubs uniformly at random; traffic criss-crosses the die in every
    /// direction (worst case for waveguide crossings).
    Random,
    /// Memory-interface hubs sit in bands along the west and east die
    /// edges; logic hubs occupy the interior. Buses flow logic →
    /// interface, largely in parallel — the structured traffic pattern of
    /// industrial designs that the paper's introduction motivates.
    EdgeInterfaces,
}

/// Parameters of the synthetic benchmark generator.
///
/// Use [`SynthConfig::small`] for fast tests or [`paper_suite`] for the
/// I1–I5 substitutes.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthConfig {
    /// Benchmark name.
    pub name: String,
    /// Side length of the (square) die in centimeters.
    pub die_cm: f64,
    /// Total number of signal bits to generate (Table 1's "#Net").
    pub target_bits: usize,
    /// Inclusive range of bits per signal group (bus width).
    pub bits_per_group: (usize, usize),
    /// Inclusive range of sinks per bit (fanout).
    pub sinks_per_bit: (usize, usize),
    /// Number of communication hubs (logic clusters / memory interfaces).
    pub hub_count: usize,
    /// Pin scatter radius around a hub, in dbu.
    pub hub_radius: i64,
    /// Pitch between adjacent bits of the same bus, in dbu.
    pub bit_pitch: i64,
    /// Probability that a sink is drawn from a *far* hub (at least half a
    /// die away from the source hub); high values favor optical routes.
    pub distant_sink_prob: f64,
    /// Spatial organization of the hubs.
    pub hub_layout: HubLayout,
}

impl SynthConfig {
    /// A small configuration for unit and integration tests: a 0.5 cm die
    /// with a few dozen bits.
    pub fn small() -> Self {
        Self {
            name: "small".to_owned(),
            die_cm: 0.5,
            target_bits: 48,
            bits_per_group: (2, 8),
            sinks_per_bit: (1, 3),
            hub_count: 5,
            hub_radius: 120,
            bit_pitch: 12,
            distant_sink_prob: 0.7,
            hub_layout: HubLayout::Random,
        }
    }

    /// A medium configuration (a few hundred bits) for integration tests
    /// that exercise the full flow without paper-scale runtime.
    pub fn medium() -> Self {
        Self {
            name: "medium".to_owned(),
            die_cm: 2.0,
            target_bits: 400,
            bits_per_group: (2, 16),
            sinks_per_bit: (1, 3),
            hub_count: 8,
            hub_radius: 300,
            bit_pitch: 12,
            distant_sink_prob: 0.8,
            hub_layout: HubLayout::EdgeInterfaces,
        }
    }

    /// A die-scale configuration: `target_bits` total bits (benches use
    /// 10k–100k+) on a large PIC-class die, as wide buses between
    /// clustered hub regions. Hub count grows with the design so traffic
    /// stays *regionally* clustered — buses flow between nearby hub
    /// clusters and the edge interface bands instead of criss-crossing
    /// the whole die.
    pub fn die_scale(target_bits: usize) -> Self {
        Self {
            name: format!("die{}k", target_bits.div_ceil(1000)),
            die_cm: 5.0,
            target_bits,
            bits_per_group: (16, 32),
            sinks_per_bit: (1, 2),
            hub_count: (target_bits / 2000).clamp(16, 128),
            hub_radius: 600,
            bit_pitch: 8,
            distant_sink_prob: 0.6,
            hub_layout: HubLayout::EdgeInterfaces,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.die_cm <= 0.0 {
            return Err(format!("die_cm must be positive, got {}", self.die_cm));
        }
        if self.target_bits == 0 {
            return Err("target_bits must be positive".to_owned());
        }
        let (lo, hi) = self.bits_per_group;
        if lo == 0 || lo > hi {
            return Err(format!("bits_per_group range ({lo}, {hi}) invalid"));
        }
        let (slo, shi) = self.sinks_per_bit;
        if slo == 0 || slo > shi {
            return Err(format!("sinks_per_bit range ({slo}, {shi}) invalid"));
        }
        if self.hub_count < 2 {
            return Err("hub_count must be at least 2".to_owned());
        }
        if !(0.0..=1.0).contains(&self.distant_sink_prob) {
            return Err("distant_sink_prob must be in [0, 1]".to_owned());
        }
        Ok(())
    }
}

/// The I1–I5 substitutes, configured to match the published statistics of
/// the paper's Table 1 (see `DESIGN.md`, substitution 1).
///
/// | Bench | #Net (paper) | bus width | fanout |
/// |-------|--------------|-----------|--------|
/// | I1    | 2660         | 4–11      | 2–3    |
/// | I2    | 1782         | 1–3       | 1–2    |
/// | I3    | 5072         | 28–36     | 1      |
/// | I4    | 3224         | 5–11      | 2–3    |
/// | I5    | 1994         | 1–3       | 1–2    |
pub fn paper_suite() -> Vec<SynthConfig> {
    vec![
        SynthConfig {
            name: "I1".to_owned(),
            die_cm: 2.0,
            target_bits: 2660,
            bits_per_group: (4, 11),
            sinks_per_bit: (2, 3),
            hub_count: 24,
            hub_radius: 400,
            bit_pitch: 10,
            distant_sink_prob: 0.75,
            hub_layout: HubLayout::EdgeInterfaces,
        },
        SynthConfig {
            name: "I2".to_owned(),
            die_cm: 2.5,
            target_bits: 1782,
            bits_per_group: (1, 3),
            sinks_per_bit: (1, 2),
            hub_count: 40,
            hub_radius: 350,
            bit_pitch: 10,
            distant_sink_prob: 0.8,
            hub_layout: HubLayout::EdgeInterfaces,
        },
        SynthConfig {
            name: "I3".to_owned(),
            die_cm: 2.0,
            target_bits: 5072,
            bits_per_group: (28, 32),
            sinks_per_bit: (1, 1),
            hub_count: 16,
            hub_radius: 300,
            bit_pitch: 8,
            distant_sink_prob: 0.7,
            hub_layout: HubLayout::EdgeInterfaces,
        },
        SynthConfig {
            name: "I4".to_owned(),
            die_cm: 2.0,
            target_bits: 3224,
            bits_per_group: (5, 11),
            sinks_per_bit: (2, 3),
            hub_count: 24,
            hub_radius: 400,
            bit_pitch: 10,
            distant_sink_prob: 0.75,
            hub_layout: HubLayout::EdgeInterfaces,
        },
        SynthConfig {
            name: "I5".to_owned(),
            die_cm: 3.0,
            target_bits: 1994,
            bits_per_group: (1, 3),
            sinks_per_bit: (1, 2),
            hub_count: 40,
            hub_radius: 350,
            bit_pitch: 10,
            distant_sink_prob: 0.85,
            hub_layout: HubLayout::EdgeInterfaces,
        },
    ]
}

/// Looks up one paper benchmark substitute by name (`"I1"`…`"I5"`,
/// case-insensitive).
pub fn paper_benchmark(name: &str) -> Option<SynthConfig> {
    paper_suite()
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
}

/// Generates a design from `config` with the given `seed`.
///
/// Generation is deterministic in `(config, seed)`.
///
/// # Panics
///
/// Panics if `config` fails [`SynthConfig::validate`].
pub fn generate(config: &SynthConfig, seed: u64) -> Design {
    if let Err(msg) = config.validate() {
        panic!("invalid synthesis config: {msg}");
    }
    let side = cm_to_dbu(config.die_cm) as i64;
    let die = BoundingBox::new(Point::new(0, 0), Point::new(side, side));
    let mut design = Design::new(config.name.clone(), die);
    let mut rng = StdRng::seed_from_u64(seed);

    let hubs = place_hubs(
        &mut rng,
        side,
        config.hub_count,
        config.hub_radius,
        config.hub_layout,
    );

    let mut remaining = config.target_bits;
    let mut group_idx = 0u32;
    while remaining > 0 {
        let (lo, hi) = config.bits_per_group;
        let width = rng.gen_range(lo..=hi).min(remaining);
        let group = generate_group(
            &mut rng,
            GroupId::new(group_idx),
            width,
            config,
            &hubs,
            side,
        );
        design.push_group(group);
        remaining -= width;
        group_idx += 1;
    }
    design
}

/// The hub population of a design: where buses originate (logic) and
/// where they terminate (interfaces).
struct Hubs {
    logic: Vec<Point>,
    interface: Vec<Point>,
}

/// Places hub centers, keeping the scatter radius inside the die.
fn place_hubs(rng: &mut StdRng, side: i64, count: usize, radius: i64, layout: HubLayout) -> Hubs {
    let margin = radius + 1;
    match layout {
        HubLayout::Random => {
            let hubs: Vec<Point> = (0..count)
                .map(|_| {
                    Point::new(
                        rng.gen_range(margin..=side - margin),
                        rng.gen_range(margin..=side - margin),
                    )
                })
                .collect();
            Hubs {
                logic: hubs.clone(),
                interface: hubs,
            }
        }
        HubLayout::EdgeInterfaces => {
            // A third of the hubs (at least two) are interfaces, split
            // between west and east edge bands; the rest are interior
            // logic clusters.
            let n_if = (count / 3).max(2).min(count - 1);
            let band = (2 * radius).min(side / 8).max(1);
            let interface: Vec<Point> = (0..n_if)
                .map(|k| {
                    let x = if k % 2 == 0 {
                        rng.gen_range(margin..=margin + band)
                    } else {
                        rng.gen_range(side - margin - band..=side - margin)
                    };
                    Point::new(x, rng.gen_range(margin..=side - margin))
                })
                .collect();
            let (lo_x, hi_x) = (side / 4, 3 * side / 4);
            let logic: Vec<Point> = (0..count - n_if)
                .map(|_| {
                    Point::new(
                        rng.gen_range(lo_x.max(margin)..=hi_x.min(side - margin)),
                        rng.gen_range(margin..=side - margin),
                    )
                })
                .collect();
            Hubs { logic, interface }
        }
    }
}

/// Generates one bus: bits laid out at a fixed pitch near a source hub,
/// with sinks near one or two sink hubs.
fn generate_group(
    rng: &mut StdRng,
    id: GroupId,
    width: usize,
    config: &SynthConfig,
    hubs: &Hubs,
    side: i64,
) -> SignalGroup {
    let src_hub = hubs.logic[rng.gen_range(0..hubs.logic.len())];
    let src_anchor = jitter(rng, src_hub, config.hub_radius, side);

    // A bit's sinks come from a per-group palette of sink hubs so that the
    // bus as a whole talks to a small number of destinations.
    let sink_pool = &hubs.interface;
    let palette_len = rng.gen_range(1..=2.min(sink_pool.len().saturating_sub(1)).max(1));
    let palette: Vec<Point> = (0..palette_len)
        .map(|_| pick_sink_hub(rng, sink_pool, src_hub, side, config.distant_sink_prob))
        .collect();
    let sink_anchors: Vec<Point> = palette
        .iter()
        .map(|&h| jitter(rng, h, config.hub_radius, side))
        .collect();

    let (slo, shi) = config.sinks_per_bit;
    let bits = (0..width)
        .map(|i| {
            let offset = (i as i64) * config.bit_pitch;
            let source = clamp_to_die(
                Point::new(src_anchor.x + offset % 320, src_anchor.y + offset / 320 * 8),
                side,
            );
            let fanout = rng.gen_range(slo..=shi);
            let sinks = (0..fanout)
                .map(|s| {
                    let anchor = sink_anchors[s % sink_anchors.len()];
                    clamp_to_die(
                        Point::new(anchor.x + offset % 320, anchor.y + offset / 320 * 8),
                        side,
                    )
                })
                .collect();
            Bit::new(BitId::new(i as u32), source, sinks)
        })
        .collect();
    SignalGroup::new(id, format!("{}_bus{}", config.name, id.index()), bits)
}

/// Picks a sink hub, preferring hubs at least half a die away from the
/// source with probability `distant_prob`.
fn pick_sink_hub(
    rng: &mut StdRng,
    hubs: &[Point],
    src: Point,
    side: i64,
    distant_prob: f64,
) -> Point {
    let want_distant = rng.gen_bool(distant_prob);
    let threshold = (side / 2) as f64;
    let candidates: Vec<Point> = hubs
        .iter()
        .copied()
        .filter(|&h| h != src && (h.euclidean(src) >= threshold) == want_distant)
        .collect();
    if candidates.is_empty() {
        // Fall back to any hub other than the source.
        let others: Vec<Point> = hubs.iter().copied().filter(|&h| h != src).collect();
        others[rng.gen_range(0..others.len())]
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    }
}

fn jitter(rng: &mut StdRng, center: Point, radius: i64, side: i64) -> Point {
    let p = Point::new(
        center.x + rng.gen_range(-radius..=radius),
        center.y + rng.gen_range(-radius..=radius),
    );
    clamp_to_die(p, side)
}

fn clamp_to_die(p: Point, side: i64) -> Point {
    Point::new(p.x.clamp(0, side), p.y.clamp(0, side))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::small();
        assert_eq!(generate(&cfg, 1), generate(&cfg, 1));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SynthConfig::small();
        assert_ne!(generate(&cfg, 1), generate(&cfg, 2));
    }

    #[test]
    fn bit_count_matches_target_exactly() {
        for cfg in [SynthConfig::small(), SynthConfig::medium()] {
            let d = generate(&cfg, 3);
            assert_eq!(d.bit_count(), cfg.target_bits);
        }
    }

    #[test]
    fn group_sizes_respect_range() {
        let cfg = SynthConfig::medium();
        let d = generate(&cfg, 9);
        let (lo, hi) = cfg.bits_per_group;
        for g in d.groups() {
            assert!(g.bit_count() <= hi, "group too wide: {}", g.bit_count());
            // The final group may be truncated below `lo` to hit the target.
            let _ = lo;
        }
    }

    #[test]
    fn fanout_respects_range() {
        let cfg = SynthConfig::medium();
        let d = generate(&cfg, 4);
        let (slo, shi) = cfg.sinks_per_bit;
        for g in d.groups() {
            for b in g.bits() {
                assert!((slo..=shi).contains(&b.sinks().len()));
            }
        }
    }

    #[test]
    fn all_pins_inside_die() {
        // push_group asserts this; the test documents the invariant from
        // the outside as well.
        let d = generate(&SynthConfig::medium(), 11);
        for g in d.groups() {
            for b in g.bits() {
                for p in b.pins() {
                    assert!(d.die().contains(p));
                }
            }
        }
    }

    #[test]
    fn paper_suite_matches_published_bit_counts() {
        let expected = [
            ("I1", 2660),
            ("I2", 1782),
            ("I3", 5072),
            ("I4", 3224),
            ("I5", 1994),
        ];
        let suite = paper_suite();
        assert_eq!(suite.len(), expected.len());
        for (cfg, (name, bits)) in suite.iter().zip(expected) {
            assert_eq!(cfg.name, name);
            assert_eq!(cfg.target_bits, bits);
            let d = generate(cfg, 2018);
            assert_eq!(d.bit_count(), bits, "{name}");
        }
    }

    #[test]
    fn die_scale_is_deterministic_and_exact() {
        let cfg = SynthConfig::die_scale(10_000);
        assert!(cfg.validate().is_ok());
        let a = generate(&cfg, 2018);
        let b = generate(&cfg, 2018);
        assert_eq!(a, b);
        assert_eq!(a.bit_count(), 10_000);
        // Group count stays in the thousands even at 100k bits, so the
        // downstream flow sees wide buses, not a hyper-net explosion.
        assert!(a.group_count() * 16 <= 10_000 + 32);
    }

    #[test]
    fn die_scale_hub_count_scales_with_size() {
        assert!(
            SynthConfig::die_scale(10_000).hub_count < SynthConfig::die_scale(100_000).hub_count
        );
        assert!(SynthConfig::die_scale(1_000_000).hub_count <= 128);
        assert!(SynthConfig::die_scale(100).validate().is_ok());
    }

    #[test]
    fn paper_benchmark_lookup_is_case_insensitive() {
        assert!(paper_benchmark("i3").is_some());
        assert!(paper_benchmark("I3").is_some());
        assert!(paper_benchmark("I9").is_none());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SynthConfig::small();
        cfg.die_cm = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SynthConfig::small();
        cfg.target_bits = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SynthConfig::small();
        cfg.bits_per_group = (5, 3);
        assert!(cfg.validate().is_err());

        let mut cfg = SynthConfig::small();
        cfg.sinks_per_bit = (0, 2);
        assert!(cfg.validate().is_err());

        let mut cfg = SynthConfig::small();
        cfg.hub_count = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SynthConfig::small();
        cfg.distant_sink_prob = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid synthesis config")]
    fn generate_panics_on_invalid_config() {
        let mut cfg = SynthConfig::small();
        cfg.hub_count = 0;
        let _ = generate(&cfg, 0);
    }

    #[test]
    fn edge_interface_layout_puts_sinks_in_edge_bands() {
        let mut cfg = SynthConfig::medium();
        cfg.hub_layout = HubLayout::EdgeInterfaces;
        cfg.sinks_per_bit = (1, 1);
        let design = generate(&cfg, 17);
        let side = operon_geom::cm_to_dbu(cfg.die_cm) as i64;
        // Sinks cluster near the west/east edges (within a band plus the
        // hub scatter radius); sources sit in the interior.
        let band = side / 8 + cfg.hub_radius * 2;
        let mut edge_sinks = 0usize;
        let mut total_sinks = 0usize;
        for g in design.groups() {
            for b in g.bits() {
                for s in b.sinks() {
                    total_sinks += 1;
                    if s.x <= band || s.x >= side - band {
                        edge_sinks += 1;
                    }
                }
            }
        }
        assert!(
            edge_sinks * 10 >= total_sinks * 9,
            "only {edge_sinks}/{total_sinks} sinks near the interface bands"
        );
    }

    #[test]
    fn edge_interface_layout_reduces_crossing_chords() {
        // Structured flows cross each other less than random chords: count
        // pairwise source->sink segment crossings under both layouts.
        let count_crossings = |layout: HubLayout| -> usize {
            let mut cfg = SynthConfig::medium();
            cfg.hub_layout = layout;
            cfg.target_bits = 120;
            cfg.sinks_per_bit = (1, 1);
            let design = generate(&cfg, 23);
            let segs: Vec<operon_geom::Segment> = design
                .groups()
                .iter()
                .flat_map(|g| g.bits().iter())
                .map(|b| operon_geom::Segment::new(b.source(), b.sinks()[0]))
                .collect();
            let mut n = 0;
            for i in 0..segs.len() {
                for j in i + 1..segs.len() {
                    if segs[i].crosses(&segs[j]) {
                        n += 1;
                    }
                }
            }
            n
        };
        let random = count_crossings(HubLayout::Random);
        let structured = count_crossings(HubLayout::EdgeInterfaces);
        assert!(
            structured < random,
            "structured {structured} should cross less than random {random}"
        );
    }

    #[test]
    fn small_hub_counts_still_generate() {
        let mut cfg = SynthConfig::small();
        cfg.hub_count = 2;
        for layout in [HubLayout::Random, HubLayout::EdgeInterfaces] {
            cfg.hub_layout = layout;
            let d = generate(&cfg, 3);
            assert_eq!(d.bit_count(), cfg.target_bits);
        }
    }
}
