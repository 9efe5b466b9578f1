//! A 0/1 integer linear programming solver.
//!
//! OPERON's reference flow solves formulation (3a)–(3d) with Gurobi; no
//! mature Rust bindings exist for offline use, so this crate provides a
//! self-contained replacement sized for the paper's problem class:
//! minimize a linear objective over *binary* variables subject to linear
//! constraints, with quadratic (product) terms linearized via
//! [`Model::add_product`].
//!
//! Architecture:
//!
//! * [`Model`] — variables, linear expressions, constraints.
//! * Dense two-phase bounded-variable primal simplex for the LP
//!   relaxation ([`bounded`]): the 0/1 bounds stay out of the tableau.
//!   A plain dense tableau with explicit bound rows is kept test-only, as
//!   its oracle.
//! * Best-first branch and bound with LP bounding, fractional branching,
//!   rounding heuristics, warm starts, and a wall-clock time limit
//!   ([`Model::solve`]).
//!
//! Like any exact solver on an NP-hard problem, runtime explodes on large
//! instances; the time limit turns those runs into the ">3000 s" rows of
//! the paper's Table 1 while still returning the best incumbent found.
//!
//! # Examples
//!
//! ```
//! use operon_ilp::{Model, SolveOptions};
//!
//! // Knapsack: max 3a + 4b + 5c  s.t. 2a + 3b + 4c <= 6  (as minimization)
//! let mut m = Model::new();
//! let a = m.add_binary("a");
//! let b = m.add_binary("b");
//! let c = m.add_binary("c");
//! m.add_le([(2.0, a), (3.0, b), (4.0, c)], 6.0);
//! m.set_objective([(-3.0, a), (-4.0, b), (-5.0, c)]);
//! let sol = m.solve(&SolveOptions::default());
//! assert!(sol.is_optimal());
//! assert_eq!(sol.objective().round(), -8.0); // a + c... or b + c? 3+5=8 wins
//! ```

#![forbid(unsafe_code)]

pub mod bounded;
mod model;
#[cfg(test)]
mod simplex;
mod solver;

pub use model::{Cmp, LinExpr, Model, VarId};
pub use solver::{Solution, SolveOptions, SolveStats, SolveStatus};
