//! Warm-artifact Pareto design-space exploration for the OPERON flow.
//!
//! A device-library decision — detection budget, WDM capacity, selector
//! effort — is rarely a single run; it is a sweep over a knob lattice
//! with a Pareto front at the end. Run naively, an N-point lattice
//! costs N cold pipelines. This crate exploits the staged structure of
//! the flow instead: lattice points whose configurations share the
//! clustering + co-design prefix ([`operon::config::OperonConfig::shared_prefix_key`])
//! are walked on one resident [`operon::WarmSession`], so only the
//! first point of each group pays for the full pipeline and every
//! other point re-runs the dirty suffix (selection + WDM, or WDM
//! alone). The partial re-runs are bit-identical to cold runs by the
//! session contract, which makes the speed-up *observable but not
//! measurable in the results*: objective vectors and the Pareto front
//! are byte-equal to the cold-per-point evaluation at any thread count
//! and any schedule seed.
//!
//! Modules:
//!
//! * [`lattice`] — knob table, axis declarations, mixed-radix point
//!   enumeration, JSON spec parsing;
//! * [`sweep`](mod@sweep) — the grouped warm driver, objective measurement, and
//!   the serve-protocol trace emitter;
//! * [`pareto`] — incremental dominance filtering with a quadratic
//!   reference oracle;
//! * [`render`] — SVG projection of the objective space.
//!
//! # Examples
//!
//! ```
//! use operon_exec::Executor;
//! use operon_explore::lattice::{Axis, Lattice};
//! use operon_explore::sweep::{sweep, SweepOptions};
//! use operon_netlist::synth::{generate, SynthConfig};
//!
//! let design = generate(&SynthConfig::small(), 7);
//! let lattice = Lattice::new(
//!     vec![],
//!     vec![Axis::parse("max_loss=20,25")?, Axis::parse("lr_iters=6,10")?],
//! )?;
//! let result = sweep(&design, &lattice, &Executor::sequential(), &SweepOptions::default())
//!     .map_err(|e| e.to_string())?;
//! assert_eq!(result.points.len(), 4);
//! assert!(!result.front.is_empty());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]

pub mod lattice;
pub mod pareto;
pub mod render;
pub mod sweep;

pub use lattice::{apply_knob, parse_spec, Axis, KnobValue, Lattice, SweepPoint, KNOBS};
pub use pareto::{dominates, pareto_reference, ParetoFront};
pub use render::render_front_svg;
pub use sweep::{
    sweep, sweep_trace, Objectives, PointRecord, SweepOptions, SweepResult, OBJECTIVE_NAMES,
};
