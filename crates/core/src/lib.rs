//! OPERON: optical-electrical power-efficient route synthesis for on-chip
//! signals — a from-scratch reproduction of the DAC'18 paper.
//!
//! The flow (paper Fig. 2):
//!
//! 1. **Signal processing** — signal groups are clustered into hyper nets
//!    and hyper pins (`operon-cluster`).
//! 2. **Optical-electrical co-design** — per hyper net, baseline
//!    topologies ([`topology`]) are enumerated and a bottom-up dynamic
//!    program ([`codesign`]) derives Pareto-efficient optical/electrical
//!    edge assignments with their power and loss.
//! 3. **Solution determination** — formulation (3a)–(3d) selects one
//!    candidate per hyper net minimizing total power under detection
//!    constraints, either exactly via ILP ([`formulation`]) or by the
//!    Lagrangian-relaxation speed-up ([`lr`]).
//! 4. **WDM assignment** — optical connections are packed onto shared
//!    waveguides: sweep placement plus min-cost max-flow re-assignment
//!    ([`wdm`]).
//!
//! [`session::WarmSession`] drives all four stages, keeping their outputs
//! resident across ECOs and configuration changes; [`flow::OperonFlow`]
//! is its one-shot facade. [`baselines`] provides the
//! pure-electrical (Streak-like) and optical-only (GLOW-like) comparison
//! points of the paper's Table 1.
//!
//! # Examples
//!
//! ```
//! use operon::config::OperonConfig;
//! use operon::flow::OperonFlow;
//! use operon_netlist::synth::{generate, SynthConfig};
//!
//! let design = generate(&SynthConfig::small(), 1);
//! let result = OperonFlow::new(OperonConfig::default()).run(&design)?;
//! assert!(result.total_power_mw() > 0.0);
//! # Ok::<(), operon::OperonError>(())
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod codesign;
pub mod config;
mod crossing;
mod error;
pub mod flow;
pub mod formulation;
pub mod lr;
pub mod render;
pub mod report;
pub mod session;
pub mod timing;
pub mod topology;
pub mod wdm;

pub use codesign::{CandidateRoute, EdgeMedium, NetCandidates, PathLoss};
pub use config::{DirtyStage, OperonConfig};
pub use crossing::{CrossingIndex, GridWork};
pub use error::OperonError;
pub use flow::{FlowResult, OperonFlow};
pub use session::{RouteSummary, SessionStats, WarmSession};
