//! Seeded inputs.
//!
//! Every workload routes fixed benchmark circuits: `SynthConfig`s
//! synthesized from [`CIRCUIT_SEED`]. For the one-shot and explore
//! workloads, the run's `--seed` then moves each signal group of a
//! circuit by its own random offset of up to [`JITTER_SHARE`] of the die
//! side, so every seed routes a different placement of the same circuit
//! (`serve_eco` seeds its request trace instead). Synthesizing a fresh
//! circuit per seed relocates every hub and changes the problem itself:
//! across ten seeds that moved route time by up to 3×, far more than any
//! bound a regression gate could use.

use operon_geom::Point;
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::{Bit, Design, SignalGroup};

/// Synthesis seed of the circuits: the harness seed behind the
/// repository's Table 1 numbers.
pub const CIRCUIT_SEED: u64 = 2018;
/// Largest per-group offset, as a share of the die side.
const JITTER_SHARE: f64 = 0.003;

/// splitmix64, the workspace's seed mixer.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The circuit `cfg` as synthesized.
pub fn circuit(cfg: &SynthConfig) -> Design {
    generate(cfg, CIRCUIT_SEED)
}

/// The circuit `cfg` placed for run seed `seed`.
pub fn design(cfg: &SynthConfig, seed: u64) -> Design {
    let base = circuit(cfg);
    let die = base.die();
    let reach = (die.width() as f64 * JITTER_SHARE) as i64;
    let mut rng = seed ^ 0x0b5e_55ed;
    let mut offset = || (splitmix(&mut rng) % (2 * reach as u64 + 1)) as i64 - reach;
    let mut out = Design::new(base.name(), die);
    for group in base.groups() {
        let (dx, dy) = (offset(), offset());
        let pins = group.bits().iter().flat_map(|b| b.pins());
        let (mut lo, mut hi) = (die.hi(), die.lo());
        for p in pins {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        // Clamped so every pin stays on the die.
        let dx = dx.clamp(die.lo().x - lo.x, die.hi().x - hi.x);
        let dy = dy.clamp(die.lo().y - lo.y, die.hi().y - hi.y);
        out.push_group(shifted(group, dx, dy));
    }
    out
}

/// `group` with every pin moved by `(dx, dy)`.
pub fn shifted(group: &SignalGroup, dx: i64, dy: i64) -> SignalGroup {
    let shift = |p: Point| Point::new(p.x + dx, p.y + dy);
    let bits = group
        .bits()
        .iter()
        .map(|b| {
            Bit::new(
                b.id(),
                shift(b.source()),
                b.sinks().iter().map(|&s| shift(s)).collect(),
            )
        })
        .collect();
    SignalGroup::new(group.id(), group.name(), bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_move_groups_but_keep_the_circuit() {
        let cfg = SynthConfig::small();
        let (a, b) = (design(&cfg, 1), design(&cfg, 2));
        assert_eq!(a, design(&cfg, 1), "same seed, same input");
        assert_ne!(a, b);
        assert_eq!(a.group_count(), b.group_count());
        assert_eq!(a.bit_count(), b.bit_count());
        let reach = (a.die().width() as f64 * JITTER_SHARE) as i64;
        let base = generate(&cfg, CIRCUIT_SEED);
        for (g, moved) in base.groups().iter().zip(a.groups()) {
            let (p, q) = (g.bits()[0].source(), moved.bits()[0].source());
            assert!((p.x - q.x).abs() <= reach && (p.y - q.y).abs() <= reach);
            for bit in moved.bits() {
                assert!(bit.pins().all(|p| a.die().contains(p)));
            }
        }
    }
}
