//! Minimum-cost flow and difference-constraint solvers.
//!
//! This crate is the mathematical substrate for minimum-area retiming
//! (Leiserson & Saxe, *Retiming Synchronous Circuitry*, Algorithmica 1991):
//! the linear program
//!
//! ```text
//! minimise   Σ_v a_v · r_v
//! subject to r_u − r_v ≤ b_uv          for every constraint (u, v, b)
//! ```
//!
//! is the LP dual of a transshipment (min-cost flow) problem.
//! [`DualSolver`] is the engine the retimers use: a primal–dual
//! min-cost-flow solver on a compressed sparse row (CSR) residual network
//! that keeps its flow and potentials between solves, so a family of
//! programs sharing one constraint set (the rounds of LAC-retiming) is
//! re-solved warm, and that certifies each solution by complementary
//! slackness in debug builds. Its routing loop skips the Dijkstra before
//! a blocking-flow sweep while the last one found `d_t = 0`, until a
//! sweep finds no path, and walks per-node lists of zero-reduced-cost
//! arcs kept while the potentials stand still. The schedule cannot change
//! the returned dual: a Dijkstra with `d_t = 0` moves no potential and a
//! sweep that finds no path moves no flow, so adding or skipping either
//! makes the same augmentations at the same potentials. It is the
//! crate's only min-cost-flow engine.
//! [`DifferenceConstraints`] solves pure feasibility (no objective) with
//! Bellman–Ford, as used by min-period retiming.
//!
//! All quantities are integers (`i64`); callers quantise real-valued data.

mod difference;
mod dual;

pub use difference::DifferenceConstraints;
pub use dual::DualSolver;

use std::fmt;

/// A single difference constraint `r[u] − r[v] ≤ bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Index of the variable on the positive side.
    pub u: usize,
    /// Index of the variable on the negative side.
    pub v: usize,
    /// Upper bound on `r[u] − r[v]`.
    pub bound: i64,
}

impl Constraint {
    /// Creates a constraint `r[u] − r[v] ≤ bound`.
    pub fn new(u: usize, v: usize, bound: i64) -> Self {
        Self { u, v, bound }
    }
}

/// Error returned by [`DualSolver::new`] and [`DualSolver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DualError {
    /// The constraint system itself is infeasible (negative cycle).
    Infeasible,
    /// The objective is unbounded below (the dual flow problem is
    /// infeasible: some imbalance cannot be routed).
    Unbounded,
    /// A variable index in a constraint or cost vector was out of range.
    VariableOutOfRange(usize),
}

impl fmt::Display for DualError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualError::Infeasible => write!(f, "constraint system is infeasible"),
            DualError::Unbounded => write!(f, "objective is unbounded below"),
            DualError::VariableOutOfRange(i) => {
                write!(f, "variable index {i} out of range")
            }
        }
    }
}

impl std::error::Error for DualError {}
