//! What one workload pass returns: metrics plus the operation tally.

use operon_exec::json::Value;

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operations. An operation fails when it returns
/// an error, when its response lacks `"ok":true`, or when a correctness
/// check on its output fails.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(msg);
            }
        }
    }
}

/// Everything one pass (one workload, traced or not) measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// One `{"workload","metric","value","unit"}` line.
pub fn metric_line(workload: &str, metric: &str, value: f64, unit: &str) -> String {
    Value::object(vec![
        ("workload", Value::from(workload)),
        ("metric", Value::from(metric)),
        ("value", Value::from(value)),
        ("unit", Value::from(unit)),
    ])
    .compact()
}

/// The result line: `{"correct","attempted","failed","metrics"}` with
/// exactly the `declared` metrics, in declared order.
///
/// # Errors
///
/// Names the first declared metric the pass did not produce, or one
/// whose value is not finite.
pub fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() || m.unit != unit {
            return Err(format!(
                "metric {name} = {} {} is malformed",
                m.value, m.unit
            ));
        }
        metrics.push((
            name,
            Value::object(vec![
                ("value", Value::from(m.value)),
                ("unit", Value::from(unit)),
            ]),
        ));
    }
    let t = &outcome.tally;
    Ok(Value::object(vec![
        ("correct", Value::Bool(t.failed == 0)),
        ("attempted", Value::from(t.attempted)),
        ("failed", Value::from(t.failed)),
        ("metrics", Value::object(metrics)),
    ])
    .compact())
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    operon_exec::peak_rss_kib() as f64 / 1024.0
}
