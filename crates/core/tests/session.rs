//! Session-lifecycle integration tests: a [`WarmSession`] must produce
//! exactly the result of a fresh [`OperonFlow::run`] after any ECO
//! sequence, at any thread count, without ever cloning a flow network.

use operon::config::OperonConfig;
use operon::flow::OperonFlow;
use operon::session::WarmSession;
use operon::wdm::TrackOrientation;
use operon::OperonError;
use operon_exec::{Executor, StageRecord};
use operon_geom::{BoundingBox, Point};
use operon_netlist::synth::{generate, SynthConfig};
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};

/// The same pin translation `move_pins` applies, rebuilt standalone so
/// the fresh-run reference routes an identical design.
fn shifted(design: &Design, group: usize, dx: i64, dy: i64) -> Design {
    let mut next = Design::new(design.name(), design.die());
    for g in design.groups() {
        if g.id().index() == group {
            let bits = g
                .bits()
                .iter()
                .map(|b| {
                    Bit::new(
                        b.id(),
                        Point::new(b.source().x + dx, b.source().y + dy),
                        b.sinks()
                            .iter()
                            .map(|&s| Point::new(s.x + dx, s.y + dy))
                            .collect(),
                    )
                })
                .collect();
            next.push_group(SignalGroup::new(g.id(), g.name(), bits));
        } else {
            next.push_group(g.clone());
        }
    }
    next
}

#[test]
fn session_lifecycle_matches_fresh_runs_and_never_clones_networks() {
    let design = generate(&SynthConfig::small(), 42);
    for threads in [1usize, 4] {
        let exec = Executor::new(threads);
        let mut session =
            WarmSession::open(design.clone(), OperonConfig::default(), exec).expect("open");

        // Cold route == fresh flow run.
        let cold = session.route().expect("cold route");
        assert!(!cold.warm);
        let fresh = OperonFlow::new(OperonConfig::default())
            .run(&design)
            .expect("fresh run");
        assert_eq!(cold.power_mw.to_bits(), fresh.total_power_mw().to_bits());
        assert_eq!(cold.hyper_nets, fresh.hyper_nets.len());
        assert_eq!(cold.optical, fresh.optical_net_count());
        assert_eq!(cold.wdm_final, fresh.wdm.final_count());
        assert_eq!(
            session.selection().expect("routed").choice,
            fresh.selection.choice
        );

        // Second route is answered from the resident result.
        let cached = session.route().expect("cached route");
        assert!(cached.warm);
        assert_eq!(cached.power_mw.to_bits(), cold.power_mw.to_bits());

        // Warm ECO re-routes == fresh runs on the mutated design.
        let mut mutated = design.clone();
        for (group, dx, dy) in [(0usize, 24i64, 0i64), (1, 0, -24), (0, -24, 0)] {
            let eco = session.move_pins(group, dx, dy).expect("eco");
            assert!(eco.warm, "ECO re-route must take the warm path");
            mutated = shifted(&mutated, group, dx, dy);
            let reference = OperonFlow::new(OperonConfig::default())
                .run(&mutated)
                .expect("fresh run");
            assert_eq!(
                eco.power_mw.to_bits(),
                reference.total_power_mw().to_bits(),
                "warm ECO diverged from a fresh run at {threads} threads"
            );
            assert_eq!(
                session.selection().expect("routed").choice,
                reference.selection.choice
            );
            assert_eq!(eco.wdm_final, reference.wdm.final_count());
        }

        // Appending a bus keeps every reused net's index: the crossing
        // index must have been delta-patched at least once by now, and
        // the appended route still matches a fresh run.
        let die = design.die();
        let eco = session
            .add_bus(
                "tail_bus",
                4,
                Point::new(die.lo().x + 40, die.lo().y + 40),
                Point::new(die.hi().x - 40, die.lo().y + 40),
                12,
            )
            .expect("add_bus");
        assert!(eco.warm);
        let reference = OperonFlow::new(OperonConfig::default())
            .run(session.design())
            .expect("fresh run");
        assert_eq!(eco.power_mw.to_bits(), reference.total_power_mw().to_bits());

        // Deletion probes run transactionally on the resident networks:
        // the state digest is untouched.
        let fingerprint = session.fingerprint();
        let probes = session.probe_wdm().expect("probe");
        assert_eq!(
            probes.len(),
            reference.wdm.final_count(),
            "one probe per final waveguide"
        );
        assert_eq!(session.fingerprint(), fingerprint);

        let stats = session.close();
        assert_eq!(stats.routes, 6);
        assert_eq!(stats.cold_routes, 1);
        assert_eq!(stats.warm_routes, 4);
        assert_eq!(stats.cached_routes, 1);
        assert!(stats.crossing_delta_rebuilds >= 1, "{stats:?}");
        assert!(stats.nets_reused > 0, "{stats:?}");
        assert_eq!(
            stats.wdm.mcmf.networks_cloned, 0,
            "a session must never clone a flow network: {stats:?}"
        );
    }
}

#[test]
fn session_stats_are_thread_invariant() {
    let design = generate(&SynthConfig::small(), 7);
    let crossbar = crossbar_design();
    let run = |threads: usize| {
        let mut session = WarmSession::open(
            design.clone(),
            OperonConfig::default(),
            Executor::new(threads),
        )
        .expect("open");
        session.route().expect("route");
        session.move_pins(0, 24, 0).expect("eco");
        session.probe_wdm().expect("probe");
        // An ECO that reuses one WDM orientation.
        let mut reusing = WarmSession::open(
            crossbar.clone(),
            OperonConfig::default(),
            Executor::new(threads),
        )
        .expect("open");
        reusing.route().expect("route");
        reusing.probe_wdm().expect("probe");
        reusing
            .apply_design(without_first_group(&crossbar))
            .expect("eco");
        reusing.probe_wdm().expect("probe");
        (
            [session.fingerprint(), reusing.fingerprint()],
            [session.close(), reusing.close()],
        )
    };
    let (fp1, stats1) = run(1);
    assert_eq!(stats1[1].wdm.orientations_reused, 1, "{:?}", stats1[1]);
    for threads in [2usize, 8] {
        let (fp, stats) = run(threads);
        assert_eq!(fp, fp1, "fingerprint diverged at {threads} threads");
        assert_eq!(stats, stats1, "stats diverged at {threads} threads");
    }
}

/// A 2 cm die with three long, pin-aligned 4-bit buses: a vertical one
/// (`vert_a`), a horizontal one (`horiz`) and a second vertical one
/// (`vert_b`), in that group order. Each bus is one straight optical
/// connection, so the vertical buses feed only the vertical orientation
/// and `horiz` only the horizontal one.
fn crossbar_design() -> Design {
    let die = BoundingBox::new(Point::new(0, 0), Point::new(19_999, 19_999));
    let mut d = Design::new("crossbar", die);
    let bus = |name: &str, g: u32, vertical: bool, at: i64| {
        let bits = (0..4)
            .map(|i| {
                let off = at + 12 * i as i64;
                let (a, b) = if vertical {
                    (Point::new(off, 1_000), Point::new(off, 18_000))
                } else {
                    (Point::new(1_000, off), Point::new(18_000, off))
                };
                Bit::new(BitId::new(i), a, vec![b])
            })
            .collect();
        SignalGroup::new(GroupId::new(g), name, bits)
    };
    d.push_group(bus("vert_a", 0, true, 3_000));
    d.push_group(bus("horiz", 1, false, 6_000));
    d.push_group(bus("vert_b", 2, true, 15_000));
    d
}

/// `design` without its first group: every later connection's global
/// index shifts down.
fn without_first_group(design: &Design) -> Design {
    let mut next = Design::new(design.name(), design.die());
    for g in design.groups().iter().skip(1) {
        let id = GroupId::new(next.group_count() as u32);
        next.push_group(SignalGroup::new(id, g.name(), g.bits().to_vec()));
    }
    next
}

/// Asserts that `warm`'s resident result equals a fresh session's cold
/// route of the same design under the same configuration: the WDM plan
/// field by field, the resident networks' digest, and the deletion
/// probes answered from them.
fn assert_matches_cold(warm: &mut WarmSession, label: &str) {
    let mut cold = WarmSession::open(
        warm.design().clone(),
        warm.config().clone(),
        Executor::sequential(),
    )
    .expect("open");
    cold.route().expect("cold route");
    let (w, c) = (
        warm.wdm_plan().expect("routed"),
        cold.wdm_plan().expect("routed"),
    );
    assert_eq!(w.connections, c.connections, "{label}: connections");
    assert_eq!(w.initial_count, c.initial_count, "{label}: initial count");
    assert_eq!(w.wdms, c.wdms, "{label}: wdms");
    assert_eq!(
        warm.fingerprint(),
        cold.fingerprint(),
        "{label}: fingerprint"
    );
    assert_eq!(
        warm.probe_wdm().expect("probe"),
        cold.probe_wdm().expect("probe"),
        "{label}: probes"
    );
}

#[test]
fn eco_reuses_the_unchanged_orientation_and_matches_cold() {
    let design = crossbar_design();
    let trimmed = without_first_group(&design);
    for threads in [1usize, 2, 8] {
        let mut s = WarmSession::open(
            design.clone(),
            OperonConfig::default(),
            Executor::new(threads),
        )
        .expect("open");
        s.route().expect("route");
        let plan = s.wdm_plan().expect("routed");
        let horizontal = |p: &operon::wdm::WdmPlan| {
            p.wdms
                .iter()
                .filter(|w| w.orientation == TrackOrientation::Horizontal)
                .flat_map(|w| w.assigned.iter().map(|&(c, _)| c))
                .collect::<Vec<_>>()
        };
        let before = horizontal(plan);
        assert!(
            !before.is_empty(),
            "the horizontal bus must route optically"
        );
        let reused = s.stats().wdm.orientations_reused;

        // Dropping `vert_a` re-plans the vertical orientation and moves
        // every horizontal connection to a lower global index.
        let eco = s.apply_design(trimmed.clone()).expect("eco");
        assert!(eco.warm);
        assert_eq!(
            s.stats().wdm.orientations_reused - reused,
            1,
            "threads={threads}: the horizontal orientation is reused"
        );
        let after = horizontal(s.wdm_plan().expect("routed"));
        assert_ne!(before, after, "the reused orientation's indices shift");
        assert_matches_cold(&mut s, &format!("eco threads={threads}"));
    }
}

#[test]
fn wdm_knob_change_replans_both_orientations() {
    let design = crossbar_design();
    let mut s = WarmSession::open(design, OperonConfig::default(), Executor::new(2)).expect("open");
    s.route().expect("route");
    let mut config = OperonConfig::default();
    config.optical.wdm_max_displacement += 40;
    s.set_config(config).expect("valid config");
    let reused = s.stats().wdm.orientations_reused;
    let partial = s.route().expect("partial route");
    assert!(partial.warm);
    assert_eq!(
        s.stats().wdm.orientations_reused,
        reused,
        "a WDM knob change reuses no orientation"
    );
    assert_matches_cold(&mut s, "wdm_max_displacement");
}

#[test]
fn eco_after_probe_matches_cold() {
    let design = crossbar_design();
    let mut s =
        WarmSession::open(design.clone(), OperonConfig::default(), Executor::new(2)).expect("open");
    s.route().expect("route");
    let fingerprint = s.fingerprint();
    assert!(!s.probe_wdm().expect("probe").is_empty());
    assert_eq!(s.fingerprint(), fingerprint);
    s.apply_design(without_first_group(&design)).expect("eco");
    assert!(s.stats().wdm.orientations_reused > 0);
    assert_matches_cold(&mut s, "eco after probe");
}

/// A 2 cm die split into four quadrants, one long optical-capable
/// bus interior to each, plus one die-spanning diagonal bus.
/// Hand-placed so an ECO can touch one quadrant while the others
/// stay put.
fn quadrant_design() -> Design {
    let die = BoundingBox::new(Point::new(0, 0), Point::new(19_999, 19_999));
    let mut d = Design::new("quad", die);
    let quads = [
        (500i64, 500i64),
        (10_500, 500),
        (500, 10_500),
        (10_500, 10_500),
    ];
    for (g, (qx, qy)) in quads.iter().enumerate() {
        let bits = (0..4)
            .map(|i| {
                Bit::new(
                    BitId::new(i as u32),
                    Point::new(*qx, qy + 12 * i as i64),
                    vec![Point::new(qx + 8300, qy + 8300 + 12 * i as i64)],
                )
            })
            .collect();
        d.push_group(SignalGroup::new(
            GroupId::new(g as u32),
            format!("quad{g}"),
            bits,
        ));
    }
    let bits = (0..4)
        .map(|i| {
            Bit::new(
                BitId::new(i as u32),
                Point::new(700, 700 + 12 * i as i64),
                vec![Point::new(19_000, 19_000 + 12 * i as i64)],
            )
        })
        .collect();
    d.push_group(SignalGroup::new(GroupId::new(4), "diag", bits));
    d
}

/// Asserts the session's resident result equals a fresh one-shot
/// run of its current design at `threads` workers.
fn assert_matches_fresh(s: &WarmSession, threads: usize) {
    let fresh = OperonFlow::new(OperonConfig::default())
        .with_threads(threads)
        .run(s.design())
        .unwrap();
    assert_eq!(s.selection().unwrap().choice, fresh.selection.choice);
    assert_eq!(
        s.selection().unwrap().power_mw.to_bits(),
        fresh.total_power_mw().to_bits()
    );
    assert_eq!(s.wdm_plan().unwrap().wdms, fresh.wdm.wdms);
    assert_eq!(s.hyper_nets().unwrap(), fresh.hyper_nets.as_slice());
}

/// ECOs that keep every prior net's dense index (an appended bus, a
/// pin move) patch the crossing index instead of rebuilding it, and
/// the patched session still matches a fresh run.
#[test]
fn index_keeping_ecos_take_the_delta_path() {
    let design = quadrant_design();
    for threads in [1, 2, 8] {
        let mut s = WarmSession::open(
            design.clone(),
            OperonConfig::default(),
            Executor::new(threads),
        )
        .unwrap();
        s.route().unwrap();
        assert_eq!(s.stats().crossing_full_builds, 1);

        let p = Point::new(600, 600);
        let q = Point::new(8_800, 8_800);
        assert!(s.add_bus("eco", 4, p, q, 12).unwrap().warm);
        assert_matches_fresh(&s, threads);
        assert!(s.move_pins(3, 15, -9).unwrap().warm);
        assert_matches_fresh(&s, threads);

        let stats = s.stats();
        assert_eq!(
            (stats.crossing_full_builds, stats.crossing_delta_rebuilds),
            (1, 2),
            "index-keeping ECOs must patch the index ({stats:?})"
        );
    }
}

/// Removing a non-last group shifts the dense index of every later
/// group's nets, so the session cannot patch the crossing index: it
/// builds it from scratch and still matches a fresh run.
#[test]
fn eco_that_shifts_indices_rebuilds_the_crossing_index() {
    let design = quadrant_design();
    let mut trimmed = Design::new(design.name(), design.die());
    for g in design.groups().iter().filter(|g| g.id().index() != 1) {
        let id = GroupId::new(trimmed.group_count() as u32);
        trimmed.push_group(SignalGroup::new(id, g.name(), g.bits().to_vec()));
    }
    for threads in [1, 2, 8] {
        let mut s = WarmSession::open(
            design.clone(),
            OperonConfig::default(),
            Executor::new(threads),
        )
        .unwrap();
        s.route().unwrap();
        let before = s.stats();
        let eco = s.apply_design(trimmed.clone()).unwrap();
        let after = s.stats();
        assert!(eco.warm);
        assert_eq!(after.groups_reused, before.groups_reused + 4);
        assert_eq!(after.groups_reclustered, before.groups_reclustered);
        assert_eq!(
            after.crossing_full_builds,
            before.crossing_full_builds + 1,
            "shifted indices must force a full crossing build ({after:?})"
        );
        assert_eq!(
            after.crossing_delta_rebuilds,
            before.crossing_delta_rebuilds
        );
        assert_eq!(s.design(), &trimmed);
        assert_matches_fresh(&s, threads);

        // A design without groups is rejected and changes nothing.
        let fp = s.fingerprint();
        let empty = Design::new("empty", design.die());
        assert_eq!(s.apply_design(empty), Err(OperonError::EmptyDesign));
        assert!(s.is_routed());
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.stats(), after);
        assert_eq!(s.design(), &trimmed);
    }
}

/// Each crossing stage record names the build that ran: a cold route's
/// full grid build records `crossing_build_grid`, an index-keeping ECO's
/// patch `crossing_build_delta`, and no record names a brute-force build.
#[test]
fn crossing_records_name_the_build_that_ran() {
    let counter =
        |r: &StageRecord, key: &str| r.counters.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
    for threads in [1usize, 2, 8] {
        let exec = Executor::new(threads);
        let mut s = WarmSession::open(quadrant_design(), OperonConfig::default(), exec.clone())
            .expect("open");
        s.route().expect("cold route");
        assert!(s.move_pins(3, 15, -9).expect("eco").warm);

        let stages = exec.report().stages;
        let builds: Vec<_> = stages
            .iter()
            .filter(|r| r.name == "crossing")
            .map(|r| {
                (
                    counter(r, "crossing_build_grid"),
                    counter(r, "crossing_build_delta"),
                )
            })
            .collect();
        assert_eq!(
            builds,
            [(Some(1), None), (None, Some(1))],
            "threads={threads}: cold grid build, then a delta patch"
        );
        assert!(
            stages
                .iter()
                .all(|r| counter(r, "crossing_build_brute").is_none()),
            "threads={threads}"
        );
    }
}
