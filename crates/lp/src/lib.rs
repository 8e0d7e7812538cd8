// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! A linear-programming solver — the optimization substrate behind the
//! paper's global skew-variation LP (Eqs. (4)–(11)).
//!
//! [`Problem`] models `min cᵀx` subject to sparse linear rows
//! (`≤`, `=`, `≥`) and per-variable bounds (± infinity allowed). [`solve`]
//! runs a **bounded-variable revised primal simplex** with an explicit
//! basis inverse, two-phase start (artificial variables), Dantzig
//! pricing and a Bland anti-cycling fallback.
//!
//! The inverse is stored as a dense column-major m×m buffer, but each
//! pivot touches only what can change: `ftran` adds one contiguous B⁻¹
//! column per entry of the entering column, the eta update visits only
//! the columns whose pivot-row entry is nonzero (and in them only the
//! rows the entering column reaches), and the duals are recomputed only
//! for the columns the last pivot changed. On the flow's 2751-row LP
//! (128 sinks) B⁻¹ stays under 9% nonzero, so per-pivot work follows its
//! fill rather than m², and pages of the buffer that stay zero are never
//! written. Memory
//! is still O(m²) address space, which keeps practical problems to a
//! few thousand rows — this workspace's scaled testcases (the paper
//! offloads its LP to a commercial solver; see DESIGN.md §4).
//!
//! # Examples
//!
//! ```
//! use clk_lp::{Problem, RowKind};
//!
//! // max x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, f64::INFINITY, -1.0)?;
//! let y = p.add_var(0.0, f64::INFINITY, -1.0)?;
//! p.add_row(RowKind::Le, 4.0, &[(x, 1.0), (y, 2.0)])?;
//! p.add_row(RowKind::Le, 6.0, &[(x, 3.0), (y, 1.0)])?;
//! let sol = clk_lp::solve(&p)?;
//! assert!((sol.objective - (-2.8)).abs() < 1e-6); // x = 1.6, y = 1.2
//! # Ok::<(), clk_lp::LpError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod simplex;

pub use simplex::{
    solve, solve_certified, solve_certified_with_deadline, solve_with_deadline, Certificate,
    Certified, FarkasRay, LpError, Problem, RowKind, Solution, VarId, VarStatus, REDUNDANT_ROW,
};
