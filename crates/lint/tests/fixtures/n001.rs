//! N001 fixture: order-sensitive accumulation inside parallel closures.

/// Sequential accumulation over a parallel map's result — fine.
pub fn total_ok(exec: &Executor, nets: &[f64]) -> f64 {
    let parts = exec.par_map(nets, |n| n * 2.0);
    let mut total = 0.0;
    for p in &parts {
        total += p;
    }
    total
}

/// Compound-assignment onto a captured accumulator inside the parallel
/// closure — flagged: the reduction order depends on scheduling.
pub fn total_racy(exec: &Executor, nets: &[f64]) -> f64 {
    let mut total = 0.0;
    exec.par_map(nets, |n| {
        total += n;
        0.0
    });
    total
}

/// Mutator call (`push`) onto a captured collection — flagged.
pub fn collect_racy(exec: &Executor, nets: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    exec.par_map(nets, |n| {
        out.push(n * 2.0);
        0.0
    });
    out
}

/// Closure-local accumulator — fine: each item owns its own state.
pub fn local_ok(exec: &Executor, rows: &[f64]) -> Vec<f64> {
    exec.par_map_coarse(rows, |row| {
        let mut s = 0.0;
        s += row;
        s
    })
}
