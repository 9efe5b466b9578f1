//! Config-lattice declaration: named knobs, axes, and mixed-radix
//! point enumeration.
//!
//! A [`Lattice`] is the cross product of a base configuration (itself a
//! list of knob assignments over [`OperonConfig::default`]) and one or
//! more [`Axis`] declarations. Every lattice point is a fully validated
//! [`OperonConfig`]. Knobs are set through
//! [`OperonConfig::set_knob`], the one setter `operon_serve`'s
//! `set_config` request also applies, so the knob names double as the
//! `set_config` protocol fields and any lattice can also be emitted as a
//! replayable request trace (see [`crate::sweep::sweep_trace`]).

pub use operon::config::KnobValue;
use operon::config::{OperonConfig, KNOBS};
use operon_exec::json::{self, Value};

/// One lattice axis: a knob name and the values it sweeps over.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Knob name (see [`KNOBS`]).
    pub knob: String,
    /// The swept values, in declaration order.
    pub values: Vec<KnobValue>,
}

impl Axis {
    /// Parses a CLI axis spec `name=v1,v2,...`.
    ///
    /// # Errors
    ///
    /// Malformed specs (no `=`, empty name or value list).
    pub fn parse(spec: &str) -> Result<Axis, String> {
        let (name, list) = spec
            .split_once('=')
            .ok_or_else(|| format!("axis spec {spec:?} is not name=v1,v2,..."))?;
        if name.is_empty() {
            return Err(format!("axis spec {spec:?} has an empty knob name"));
        }
        let values: Vec<KnobValue> = list
            .split(',')
            .filter(|t| !t.is_empty())
            .map(KnobValue::parse)
            .collect();
        if values.is_empty() {
            return Err(format!("axis spec {spec:?} lists no values"));
        }
        Ok(Axis {
            knob: name.to_owned(),
            values,
        })
    }
}

/// One fully resolved lattice point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Dense lattice index (row-major over the axes, last axis fastest).
    pub index: usize,
    /// The axis knob assignments of this point, in axis order.
    pub knobs: Vec<(String, KnobValue)>,
    /// The validated configuration.
    pub config: OperonConfig,
}

/// A declared design-space lattice: base knob assignments plus the
/// cross product of the axes.
///
/// # Examples
///
/// ```
/// use operon_explore::lattice::{Axis, KnobValue, Lattice};
///
/// let lattice = Lattice::new(
///     vec![("capacity".to_owned(), KnobValue::Int(32))],
///     vec![
///         Axis::parse("max_loss=22,25")?,
///         Axis::parse("lr_iters=6,10")?,
///     ],
/// )?;
/// assert_eq!(lattice.len(), 4);
/// let p = lattice.point(3)?;
/// assert_eq!(p.config.optical.max_loss_db, 25.0);
/// assert_eq!(p.config.lr_max_iters, 10);
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug)]
pub struct Lattice {
    base: OperonConfig,
    base_knobs: Vec<(String, KnobValue)>,
    axes: Vec<Axis>,
}

impl Lattice {
    /// Declares a lattice. Knob names are checked eagerly; the combined
    /// per-point configurations are validated lazily by
    /// [`Lattice::point`].
    ///
    /// # Errors
    ///
    /// Unknown knobs, duplicate axis knobs, empty axes, or a base
    /// assignment that fails to apply.
    pub fn new(base_knobs: Vec<(String, KnobValue)>, axes: Vec<Axis>) -> Result<Lattice, String> {
        if axes.is_empty() {
            return Err("a lattice needs at least one axis".to_owned());
        }
        let mut base = OperonConfig::default();
        for (name, value) in &base_knobs {
            base.set_knob(name, value).map_err(|e| e.to_string())?;
        }
        for (i, axis) in axes.iter().enumerate() {
            if !KNOBS.contains(&axis.knob.as_str()) {
                return Err(format!(
                    "unknown axis knob {:?} (known: {})",
                    axis.knob,
                    KNOBS.join(", ")
                ));
            }
            if axis.values.is_empty() {
                return Err(format!("axis {:?} lists no values", axis.knob));
            }
            if axes[..i].iter().any(|a| a.knob == axis.knob) {
                return Err(format!("axis knob {:?} is declared twice", axis.knob));
            }
        }
        Ok(Lattice {
            base,
            base_knobs,
            axes,
        })
    }

    /// Total number of lattice points (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the lattice is empty (it never is — construction requires
    /// at least one axis with at least one value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The declared axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The base knob assignments (applied over the default config).
    pub fn base_knobs(&self) -> &[(String, KnobValue)] {
        &self.base_knobs
    }

    /// Resolves lattice point `index` (row-major, last axis fastest) to
    /// its knob assignments and validated configuration.
    ///
    /// # Errors
    ///
    /// Out-of-range indices, knob type mismatches, and configurations
    /// that fail [`OperonConfig::validate`] (the message names the point
    /// so lattice errors are actionable).
    pub fn point(&self, index: usize) -> Result<SweepPoint, String> {
        let n = self.len();
        if index >= n {
            return Err(format!("lattice point {index} out of range (len {n})"));
        }
        let mut digits = vec![0usize; self.axes.len()];
        let mut rest = index;
        for (d, axis) in digits.iter_mut().zip(&self.axes).rev() {
            *d = rest % axis.values.len();
            rest /= axis.values.len();
        }
        let mut config = self.base.clone();
        let mut knobs = Vec::with_capacity(self.axes.len());
        for (axis, &d) in self.axes.iter().zip(&digits) {
            let value = &axis.values[d];
            config
                .set_knob(&axis.knob, value)
                .map_err(|e| format!("lattice point {index}: {e}"))?;
            knobs.push((axis.knob.clone(), value.clone()));
        }
        config
            .validate()
            .map_err(|e| format!("lattice point {index} ({knobs:?}) is invalid: {e}"))?;
        Ok(SweepPoint {
            index,
            knobs,
            config,
        })
    }
}

/// Parses a JSON lattice spec:
///
/// ```json
/// {
///   "base": {"capacity": 32},
///   "axes": [
///     {"knob": "max_loss", "values": [22, 25, 26]},
///     {"knob": "lr_iters", "values": [6, 10]}
///   ]
/// }
/// ```
///
/// # Errors
///
/// Parse errors and the declaration errors of [`Lattice::new`].
pub fn parse_spec(text: &str) -> Result<Lattice, String> {
    let root = json::parse(text).map_err(|e| format!("lattice spec: {e}"))?;
    let mut base_knobs = Vec::new();
    if let Some(base) = root.get("base") {
        let Value::Object(pairs) = base else {
            return Err("lattice spec: \"base\" must be an object".to_owned());
        };
        for (name, value) in pairs {
            let value = KnobValue::from_json(name, value).map_err(|e| e.to_string())?;
            base_knobs.push((name.clone(), value));
        }
    }
    let axes_value = root
        .get("axes")
        .and_then(Value::as_array)
        .ok_or_else(|| "lattice spec: missing \"axes\" array".to_owned())?;
    let mut axes = Vec::with_capacity(axes_value.len());
    for entry in axes_value {
        let knob = entry
            .get("knob")
            .and_then(Value::as_str)
            .ok_or_else(|| "lattice spec: axis entry misses \"knob\"".to_owned())?;
        let values = entry
            .get("values")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("lattice spec: axis {knob:?} misses \"values\""))?;
        let values = values
            .iter()
            .map(|v| KnobValue::from_json(knob, v))
            .collect::<Result<Vec<KnobValue>, _>>()
            .map_err(|e| e.to_string())?;
        axes.push(Axis {
            knob: knob.to_owned(),
            values,
        });
    }
    Lattice::new(base_knobs, axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use operon::config::Selector;

    #[test]
    fn mixed_radix_enumeration_covers_the_cross_product() {
        let lattice = Lattice::new(
            vec![],
            vec![
                Axis::parse("max_loss=20,25").unwrap(),
                Axis::parse("lr_iters=6,8,10").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(lattice.len(), 6);
        let mut seen = Vec::new();
        for i in 0..lattice.len() {
            let p = lattice.point(i).unwrap();
            assert_eq!(p.index, i);
            seen.push((p.config.optical.max_loss_db, p.config.lr_max_iters));
        }
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        seen.dedup();
        assert_eq!(seen.len(), 6, "points must be pairwise distinct");
        // Last axis fastest: point 1 differs from point 0 in lr_iters.
        let (a, b) = (lattice.point(0).unwrap(), lattice.point(1).unwrap());
        assert_eq!(a.config.optical.max_loss_db, b.config.optical.max_loss_db);
        assert_ne!(a.config.lr_max_iters, b.config.lr_max_iters);
    }

    #[test]
    fn declaration_errors_are_caught_eagerly() {
        assert!(Lattice::new(vec![], vec![]).is_err());
        assert!(Lattice::new(vec![], vec![Axis::parse("no_such_knob=1,2").unwrap()]).is_err());
        let dup = Axis::parse("lr_iters=4,8").unwrap();
        assert!(Lattice::new(vec![], vec![dup.clone(), dup]).is_err());
        assert!(Axis::parse("max_loss").is_err());
        assert!(Axis::parse("max_loss=").is_err());
        // Type mismatch surfaces when the base is applied...
        assert!(Lattice::new(
            vec![("capacity".to_owned(), KnobValue::Float(1.5))],
            vec![Axis::parse("lr_iters=4").unwrap()],
        )
        .is_err());
        // ...and per-point validation catches invalid combinations.
        let lattice = Lattice::new(
            vec![],
            vec![
                Axis::parse("wdm_pitch=700").unwrap(), // exceeds displacement 600
            ],
        )
        .unwrap();
        assert!(lattice.point(0).is_err());
    }

    #[test]
    fn selector_knob_round_trips() {
        let lattice =
            Lattice::new(vec![], vec![Axis::parse("selector=lr,ilp:5").unwrap()]).unwrap();
        assert_eq!(
            lattice.point(0).unwrap().config.selector,
            Selector::LagrangianRelaxation
        );
        assert_eq!(
            lattice.point(1).unwrap().config.selector,
            Selector::Ilp { time_limit_secs: 5 }
        );
        let bare = Lattice::new(vec![], vec![Axis::parse("selector=ilp").unwrap()]).unwrap();
        assert!(bare.point(0).is_err());
    }

    #[test]
    fn spec_parsing_matches_programmatic_declaration() {
        let spec = r#"{
            "base": {"capacity": 16, "max_delay": 1500.0},
            "axes": [
                {"knob": "max_loss", "values": [22, 25.5]},
                {"knob": "wdm_pitch", "values": [20, 40]}
            ]
        }"#;
        let lattice = parse_spec(spec).unwrap();
        assert_eq!(lattice.len(), 4);
        assert_eq!(lattice.base_knobs().len(), 2);
        let p = lattice.point(3).unwrap();
        assert_eq!(p.config.optical.wdm_capacity, 16);
        assert_eq!(p.config.max_delay_ps, Some(1500.0));
        assert_eq!(p.config.optical.max_loss_db, 25.5);
        assert_eq!(p.config.optical.wdm_min_pitch, 40);

        assert!(parse_spec("{\"axes\": 3}").is_err());
        assert!(parse_spec("not json").is_err());
    }
}
