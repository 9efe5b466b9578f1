//! Tile-sharded flow identity: `OperonFlow::with_tiles(..).run` must
//! reproduce `OperonFlow::run` bit for bit on every design, for every
//! tile grid, at every thread count.
//!
//! The sharded flow re-schedules crossing discovery (per-tile passes +
//! boundary reconciliation merged through the canonical sort/dedup
//! funnel), which must not change a single output byte. These
//! tests pin that contract on synthesized fixtures and on random bus
//! soups whose geometry exercises interior, boundary, and excluded nets
//! in every tile class.

use operon::config::OperonConfig;
use operon::flow::{FlowResult, OperonFlow};
use operon_geom::{BoundingBox, Point};
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
use proptest::prelude::*;

const TILE_DIMS: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];
const THREADS: [usize; 3] = [1, 2, 8];

/// Byte-level identity of everything a plan exposes: per-net candidate
/// choices, power bits, WDM connections and assignments, hyper nets,
/// and the thread-invariant solver stats.
fn assert_plan_identical(a: &FlowResult, b: &FlowResult, label: &str) {
    assert_eq!(a.selection.choice, b.selection.choice, "{label}: choices");
    assert_eq!(
        a.total_power_mw().to_bits(),
        b.total_power_mw().to_bits(),
        "{label}: power bits ({} vs {})",
        a.total_power_mw(),
        b.total_power_mw()
    );
    assert_eq!(
        a.selection.power_mw.to_bits(),
        b.selection.power_mw.to_bits(),
        "{label}: selection power"
    );
    assert_eq!(
        a.selection.lr_stats, b.selection.lr_stats,
        "{label}: LR stats"
    );
    assert_eq!(a.wdm.connections, b.wdm.connections, "{label}: connections");
    assert_eq!(a.wdm.wdms, b.wdm.wdms, "{label}: wdm assignments");
    assert_eq!(
        a.wdm.initial_count, b.wdm.initial_count,
        "{label}: initial wdms"
    );
    assert_eq!(
        a.wdm.final_count(),
        b.wdm.final_count(),
        "{label}: final wdms"
    );
    assert_eq!(a.hyper_nets, b.hyper_nets, "{label}: hyper nets");
}

#[test]
fn sharded_flow_matches_unsharded_on_synth_fixtures() {
    for (cfg, seed) in [
        (SynthConfig::small(), 21u64),
        (SynthConfig::small(), 1718),
        (SynthConfig::medium(), 5),
    ] {
        let design = generate(&cfg, seed);
        let reference = OperonFlow::new(OperonConfig::default())
            .with_threads(1)
            .run(&design)
            .expect("reference run");
        for tiles in TILE_DIMS {
            for threads in THREADS {
                let sharded = OperonFlow::new(OperonConfig::default())
                    .with_threads(threads)
                    .with_tiles(tiles.0, tiles.1)
                    .run(&design)
                    .expect("sharded run");
                assert_plan_identical(
                    &reference,
                    &sharded,
                    &format!("{} seed {seed} tiles {tiles:?} threads {threads}", cfg.name),
                );
            }
        }
    }
}

/// A random soup of buses on a 2 cm die: a mix of long (optical-capable)
/// and short (electrical-only) runs at arbitrary positions, so tile
/// partitions see interior, boundary, and excluded nets.
fn arb_design() -> impl Strategy<Value = Design> {
    let bus = (
        0i64..12_000,
        0i64..12_000,
        proptest::collection::vec((-7_900i64..7_900, -7_900i64..7_900), 1..3),
        1usize..5,
    );
    proptest::collection::vec(bus, 2..10).prop_map(|buses| {
        let die = BoundingBox::new(Point::new(0, 0), Point::new(19_999, 19_999));
        let mut d = Design::new("soup", die);
        for (g, (x, y, sinks, bits)) in buses.into_iter().enumerate() {
            let clamp = |v: i64| v.clamp(0, 19_950);
            let group_bits = (0..bits)
                .map(|i| {
                    let off = 10 * i as i64;
                    Bit::new(
                        BitId::new(i as u32),
                        Point::new(clamp(x), clamp(y + off)),
                        sinks
                            .iter()
                            .map(|&(dx, dy)| Point::new(clamp(x + dx), clamp(y + dy + off)))
                            .collect(),
                    )
                })
                .collect();
            d.push_group(SignalGroup::new(
                GroupId::new(g as u32),
                format!("b{g}"),
                group_bits,
            ));
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_flow_matches_unsharded_on_random_designs(design in arb_design()) {
        let reference = OperonFlow::new(OperonConfig::default())
            .with_threads(1)
            .run(&design)
            .expect("reference run");
        for tiles in TILE_DIMS {
            for threads in THREADS {
                let sharded = OperonFlow::new(OperonConfig::default())
                    .with_threads(threads)
                    .with_tiles(tiles.0, tiles.1)
                    .run(&design)
                    .expect("sharded run");
                assert_plan_identical(
                    &reference,
                    &sharded,
                    &format!("random tiles {tiles:?} threads {threads}"),
                );
            }
        }
    }
}
