// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]
#![warn(missing_docs)]

//! `clk-skewopt` — the paper's contribution: a global-local optimization
//! framework for simultaneous multi-mode multi-corner clock skew variation
//! reduction (Han, Kahng, Lee, Li, Nath — DAC 2015).
//!
//! Given a routed, buffered clock tree signed off at several PVT corners,
//! the framework minimizes the **sum over sequentially adjacent sink pairs
//! of the worst normalized skew variation across corner pairs**
//! (Eqs. (1)–(3) of the paper):
//!
//! * [`lut`] characterizes stage-delay lookup tables for inverter pairs
//!   (LUT_uniform / LUT_detail, §4.1) once per technology, and fits the
//!   cross-corner delay-ratio feasibility bounds of Fig. 2;
//! * [`global`] builds the LP of Eqs. (4)–(11) over per-arc delay changes,
//!   sweeps the variation bound, and realizes the chosen delay targets
//!   with the LP-guided ECO of Algorithm 1 (buffer removal / re-insertion
//!   / U-shaped routing detours);
//! * [`moves`] enumerates the Table-2 local moves (buffer sizing ±
//!   displacement, child sizing, tree surgery);
//! * [`predictor`] trains the per-corner machine-learning delta-latency
//!   models (ANN, SVM-RBF, HSM) on artificial testcases and exposes the
//!   analytical estimators they refine;
//! * [`local`] runs the iterative local optimization of Algorithm 2 with
//!   the predictor ranking moves and the golden timer arbitrating;
//! * [`flow`] stitches the `global`, `local` and `global-local` flows of
//!   Table 5 together and reports variation / skew / cells / power / area.
//!
//! # Examples
//!
//! ```no_run
//! use clk_cts::{Testcase, TestcaseKind};
//! use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, FlowConfig, StageLuts};
//!
//! let tc = Testcase::generate(TestcaseKind::Cls1v1, 200, 1);
//! let cfg = FlowConfig::default();
//! // per-technology artifacts, reusable across designs
//! let luts = StageLuts::characterize(&tc.lib);
//! let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
//! let report = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))?;
//! println!("variation: {:.1} -> {:.1} ps", report.variation_before, report.variation_after);
//! # Ok::<(), clk_skewopt::FlowError>(())
//! ```
//!
//! Each phase also runs on its own through [`global_optimize`] and
//! [`local_optimize`] under a [`FaultCtx`] (`FaultCtx::passive()` for no
//! fault injection and no deadline).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod baseline;
pub mod fault;
pub mod flow;
pub mod global;
pub mod local;
pub mod lut;
pub mod moves;
pub mod predictor;
pub mod replay;

pub use baseline::{worst_skew_optimize, WorstSkewReport};
pub use fault::{
    emit_fault, CancelToken, Checkpoint, Deadline, FaultCtx, FaultKind, FaultLog, FaultPlan,
    FaultRecord, FaultSite, FlowBudget, FlowError, PhaseBudget, PhaseProgress, RecoveryAction,
    TreeTxn,
};
pub use flow::{check_lint_gate, try_optimize_with, Flow, FlowConfig, OptReport};
pub use global::{
    global_optimize, round_problem, u_sweep, GlobalConfig, GlobalReport, LpObjective, USweepPoint,
};
pub use local::{
    local_optimize, predict_move_gain, CandidateRejects, LocalConfig, LocalReport, Ranker, ScoreCtx,
};
pub use lut::{RatioBounds, StageLuts};
pub use moves::{apply_move, enumerate_moves, touched_drivers, Move, MoveConfig, Resize};
pub use predictor::{DeltaLatencyModel, ModelKind, MoveEstimator, TrainConfig};
pub use replay::{replay_ledger, ReplayError};
