//! Benches of the algorithmic substrates built for this reproduction:
//! BI1S RSMT construction, the min-cost max-flow solver, the
//! capacity-constrained K-Means, and the bounded-variable simplex behind
//! the ILP's LP relaxations.

use criterion::{criterion_group, criterion_main, Criterion};
use operon_cluster::kmeans::{cluster_capacitated, KmeansParams};
use operon_geom::Point;
use operon_ilp::bounded::{solve_lp_bounded, LpRow};
use operon_ilp::Cmp;
use operon_mcmf::McmfGraph;
use operon_steiner::{euclidean, rsmt_bi1s, rsmt_exact};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0..20_000), rng.gen_range(0..20_000)))
        .collect()
}

fn bench_steiner(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner");
    for n in [4usize, 6, 8] {
        let pts = random_points(n, 11);
        group.bench_function(format!("rsmt_bi1s_{n}pins"), |b| b.iter(|| rsmt_bi1s(&pts)));
        group.bench_function(format!("euclid_steiner_{n}pins"), |b| {
            b.iter(|| euclidean::steiner_tree(&pts, 1.0))
        });
        group.bench_function(format!("rsmt_exact_{n}pins"), |b| {
            b.iter(|| rsmt_exact(&pts).expect("within terminal limit"))
        });
    }
    group.finish();
}

fn bench_mcmf(c: &mut Criterion) {
    // The WDM assignment network shape: connections x WDMs bipartite.
    let build = |n_conn: usize, n_wdm: usize| {
        let mut g = McmfGraph::new(2 + n_conn + n_wdm);
        let (s, t) = (g.node(0), g.node(1));
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..n_conn {
            let demand = rng.gen_range(1..=20);
            g.add_edge(s, g.node(2 + i), demand, 0);
            for w in 0..n_wdm {
                if rng.gen_bool(0.2) {
                    g.add_edge(
                        g.node(2 + i),
                        g.node(2 + n_conn + w),
                        demand,
                        rng.gen_range(0..100),
                    );
                }
            }
        }
        for w in 0..n_wdm {
            g.add_edge(g.node(2 + n_conn + w), t, 32, 1);
        }
        g
    };
    let mut group = c.benchmark_group("mcmf");
    for (nc, nw) in [(50usize, 20usize), (200, 80)] {
        group.bench_function(format!("assignment_{nc}x{nw}"), |b| {
            b.iter_batched(
                || build(nc, nw),
                |mut g| g.min_cost_max_flow(g.node(0), g.node(1)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let pts = random_points(512, 17);
    let params = KmeansParams {
        capacity: 32,
        ..KmeansParams::default()
    };
    c.bench_function("kmeans_512pts_cap32", |b| {
        b.iter(|| cluster_capacitated(&pts, &params))
    });
}

fn bench_bounded_lp(c: &mut Criterion) {
    // A random dense LP of the size a mid-size B&B node solves, with the
    // relaxed binaries' `x <= 1` bounds native rather than as rows.
    let (n, m) = (60usize, 40usize);
    let mut rng = StdRng::seed_from_u64(23);
    let cost: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let rows: Vec<LpRow> = (0..m)
        .map(|_| {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
            LpRow::new(coeffs, Cmp::Le, rng.gen_range(5.0..20.0))
        })
        .collect();
    let upper = [1.0; 60];
    c.bench_function("bounded_lp_60vars_40rows", |b| {
        b.iter(|| solve_lp_bounded(&cost, &rows, &upper, None))
    });
}

criterion_group!(
    benches,
    bench_steiner,
    bench_mcmf,
    bench_kmeans,
    bench_bounded_lp
);
criterion_main!(benches);
