//! End-to-end flows (`global`, `local`, `global-local`) and the Table-5
//! report, on top of the fault-tolerant runtime of [`crate::fault`]:
//! every phase runs on a copy of the committed tree under its own
//! budget, phase failures and lint-gate rejections keep the pre-phase
//! tree instead of propagating, and everything the flow absorbed is
//! listed on [`OptReport::faults`].

use std::time::Instant;

use clk_lint::{DesignCtx, LintLevel, LintRunner};
use clk_netlist::{ClockTree, Floorplan, TreeStats};
use clk_obs::{kv, Ledger, LedgerRecord, Level, Obs, SpanGuard};
use clk_sta::{
    alpha_factors, clock_power, local_skew_ps, try_pair_skews, variation_report, Timer, TimingError,
};

use clk_cts::Testcase;

use crate::fault::{
    emit_fault, CancelToken, Checkpoint, Deadline, FaultCtx, FaultKind, FaultLog, FaultPlan,
    FlowBudget, FlowError, PhaseBudget, PhaseProgress, RecoveryAction,
};
use crate::global::{global_optimize, GlobalConfig, GlobalReport};
use crate::local::{local_optimize, LocalConfig, LocalReport, Ranker};
use crate::lut::StageLuts;
use crate::predictor::{DeltaLatencyModel, ModelKind, TrainConfig};

/// Which optimization flow to run (the three rows per testcase of
/// Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// LP-guided global optimization only.
    Global,
    /// ML-guided local iterative optimization only.
    Local,
    /// Global, then local on the global result (the paper's headline
    /// flow).
    GlobalLocal,
}

impl std::fmt::Display for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Flow::Global => "global",
            Flow::Local => "local",
            Flow::GlobalLocal => "global-local",
        })
    }
}

/// Flow-level configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Global-phase knobs.
    pub global: GlobalConfig,
    /// Local-phase knobs.
    pub local: LocalConfig,
    /// Predictor training (used by local flows).
    pub train: TrainConfig,
    /// Which learner the local phase uses.
    pub model_kind: ModelKind,
    /// Clock frequency for the power report, GHz.
    pub freq_ghz: f64,
    /// Design-rule audit level at phase boundaries (input, post-global,
    /// post-local). Defaults to `ErrorsOnly` in debug builds and `Off` in
    /// release, where the gates cost nothing.
    pub lint_level: LintLevel,
    /// Per-phase wall-clock budgets (unbounded by default).
    pub budget: FlowBudget,
    /// Deterministic fault-injection plan, armed by the chaos harness.
    /// `None` (the default) injects nothing.
    pub fault_plan: Option<std::sync::Arc<FaultPlan>>,
    /// Cooperative cancellation handle. Clone it before starting the
    /// flow and call [`CancelToken::cancel`] from any thread (or arm
    /// [`CancelToken::trip_after_polls`] for a deterministic cut): the
    /// flow stops at the next safe point, rolls back uncommitted work,
    /// and returns the best-so-far result with
    /// [`OptReport::partial`] set. The default token never fires.
    pub cancel: CancelToken,
    /// Observability pipeline: spans, metrics, event sinks, and the
    /// flight recorder. Disabled by default (one branch per
    /// instrumentation point); see `clk_obs::Obs::from_env` for the
    /// `CLOCKVAR_OBS` / `CLOCKVAR_OBS_JSONL` environment hookup.
    pub obs: Obs,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            global: GlobalConfig::default(),
            local: LocalConfig::default(),
            train: TrainConfig::default(),
            model_kind: ModelKind::Hsm,
            freq_ghz: 1.0,
            lint_level: LintLevel::default(),
            budget: FlowBudget::default(),
            fault_plan: None,
            cancel: CancelToken::new(),
            obs: Obs::disabled(),
        }
    }
}

/// Runs the full `clk-lint` suite on `tree` and returns a typed
/// [`FlowError::LintGate`] (carrying the stage and the rendered report)
/// when `level` considers it a failure. A no-op at [`LintLevel::Off`],
/// so release flows pay nothing.
///
/// # Errors
///
/// [`FlowError::LintGate`] when the audit fails at the configured level.
pub fn check_lint_gate(
    stage: &str,
    level: LintLevel,
    tree: &ClockTree,
    lib: &clk_liberty::Library,
    fp: &Floorplan,
) -> Result<(), FlowError> {
    if !level.enabled() {
        return Ok(());
    }
    let report = LintRunner::with_default_passes().run(&DesignCtx::with_floorplan(tree, lib, fp));
    if level.fails(&report) {
        return Err(FlowError::LintGate {
            stage: stage.to_string(),
            report: report.to_text(),
        });
    }
    Ok(())
}

/// The committed checkpoint the current phase last wrote to the ledger
/// (the adopted round's / committed move's variation under the flow's
/// init-time alphas), or `fallback` when the phase committed nothing.
fn last_phase_checkpoint(ledger: &Ledger, fallback: f64) -> f64 {
    for rec in ledger.records().iter().rev() {
        match rec {
            LedgerRecord::PhaseStart { .. } | LedgerRecord::PhaseEnd { .. } => break,
            LedgerRecord::RoundEnd { var, .. } => return *var,
            LedgerRecord::LocalCommit {
                committed: true,
                var: Some(v),
                ..
            } => return *v,
            _ => {}
        }
    }
    fallback
}

/// The Table-5 row: metric deltas of one flow on one testcase.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Flow that produced this report.
    pub flow: Flow,
    /// Σ variation before, ps (normalized column of Table 5).
    pub variation_before: f64,
    /// Σ variation after, ps.
    pub variation_after: f64,
    /// Local skew per corner before, ps.
    pub local_skew_before: Vec<f64>,
    /// Local skew per corner after, ps.
    pub local_skew_after: Vec<f64>,
    /// Clock cells before.
    pub cells_before: usize,
    /// Clock cells after.
    pub cells_after: usize,
    /// Clock-tree power before (corner 0), mW.
    pub power_before_mw: f64,
    /// Clock-tree power after, mW.
    pub power_after_mw: f64,
    /// Clock-cell area before, µm².
    pub area_before_um2: f64,
    /// Clock-cell area after, µm².
    pub area_after_um2: f64,
    /// The optimized tree.
    pub tree: ClockTree,
    /// Global-phase details when the flow ran it.
    pub global_report: Option<GlobalReport>,
    /// Local-phase details when the flow ran it.
    pub local_report: Option<LocalReport>,
    /// Every fault the runtime absorbed (injected or organic), with the
    /// recovery action taken. Empty on a clean run.
    pub faults: FaultLog,
    /// Whether the flow was cut (deadline expiry or cancellation) and
    /// this report carries a best-so-far result rather than the full
    /// optimization. The tree is still valid, lint-clean at the
    /// configured level, and fully re-timed.
    pub partial: bool,
    /// Per-phase progress markers: how far each phase got and, when cut,
    /// what stopped it.
    pub progress: Vec<PhaseProgress>,
}

impl OptReport {
    /// `after / before` of the variation sum (the `[norm]` column).
    pub fn variation_ratio(&self) -> f64 {
        if self.variation_before <= 0.0 {
            1.0
        } else {
            self.variation_after / self.variation_before
        }
    }
}

/// The flow state phases run against: the committed tree plus what every
/// phase bracket accumulates.
struct PhaseRunner<'a> {
    cfg: &'a FlowConfig,
    tc: &'a Testcase,
    flow_start: Instant,
    tree: ClockTree,
    faults: FaultLog,
    progress: Vec<PhaseProgress>,
    /// The ledger's committed variation checkpoint.
    ledger_ckpt: f64,
}

impl PhaseRunner<'_> {
    /// Runs one phase inside its bracket: the `phase.{phase}` span, the
    /// ledger's `PhaseStart`/`PhaseEnd`, a [`FaultCtx`] under `budget` and
    /// the flow's cancel token, the post-phase lint gate, the progress
    /// marker, and fault absorption. `optimize` maps the committed tree to
    /// the phase's tree, which is committed only when the phase succeeds
    /// and passes the gate; otherwise the pre-phase tree stays and the
    /// failure is logged as a rollback. `summarize` records a committed
    /// report on the phase span. Returns the committed phase's report.
    fn run<R>(
        &mut self,
        phase: &'static str,
        budget: &PhaseBudget,
        optimize: impl FnOnce(&ClockTree, &mut FaultCtx<'_>) -> Result<(ClockTree, R), FlowError>,
        summarize: impl FnOnce(&R, &mut SpanGuard),
    ) -> Option<R> {
        let obs = &self.cfg.obs;
        let ledger = obs.ledger();
        let phase_start = clk_obs::wall_now();
        let mut span = obs.span_at(
            Level::Info,
            &format!("phase.{phase}"),
            vec![kv(
                "budget_ms",
                budget.wall_clock.map_or(-1.0, |d| d.as_secs_f64() * 1e3),
            )],
        );
        if ledger.is_enabled() {
            obs.ledger_append(LedgerRecord::PhaseStart {
                phase: phase.to_string(),
            });
        }
        let mut ctx = FaultCtx::new(
            self.cfg.fault_plan.as_deref(),
            budget.deadline(phase_start, Some(&self.cfg.cancel)),
        )
        .with_obs(obs.clone())
        .with_origin(self.flow_start)
        .with_seq_base(self.faults.next_seq());
        let (lib, fp) = (&self.tc.lib, &self.tc.floorplan);
        let report = match optimize(&self.tree, &mut ctx) {
            Ok((tree, rep)) => {
                let stage = format!("{phase} optimization");
                match check_lint_gate(&stage, self.cfg.lint_level, &tree, lib, fp) {
                    Ok(()) => {
                        summarize(&rep, &mut span);
                        self.tree = tree;
                        Some(rep)
                    }
                    Err(e) => {
                        ctx.record(
                            "flow",
                            FaultKind::LintGateFailed,
                            RecoveryAction::Rollback,
                            format!("{e}; keeping the pre-phase tree"),
                        );
                        None
                    }
                }
            }
            Err(e) => {
                let kind = if e.is_interrupt() {
                    ctx.interrupt_kind()
                } else {
                    FaultKind::PhaseError
                };
                ctx.record(
                    "flow",
                    kind,
                    RecoveryAction::Rollback,
                    format!("{phase} phase failed ({e}); keeping the pre-phase tree"),
                );
                None
            }
        };
        if let Some(p) = ctx.progress.take() {
            span.record("progress", p.to_string());
            self.progress.push(p);
        }
        span.record("faults", ctx.log.len());
        self.faults.absorb(ctx.log);
        drop(span);
        if ledger.is_enabled() {
            if report.is_some() {
                self.ledger_ckpt = last_phase_checkpoint(&ledger, self.ledger_ckpt);
            }
            obs.ledger_append(LedgerRecord::PhaseEnd {
                phase: phase.to_string(),
                committed: report.is_some(),
                var: self.ledger_ckpt,
            });
        }
        report
    }
}

/// Runs `flow` on the testcase with pre-characterized LUTs
/// ([`StageLuts::characterize`]) and a pre-trained model
/// ([`DeltaLatencyModel::train`]) — per-technology artifacts the paper
/// reuses across designs; pass `None` for the one a flow does not use.
///
/// Fails hard only on problems that make the run meaningless (untimeable
/// input, failed input lint gate, missing per-technology artifact);
/// everything downstream — LP failures, ECO
/// panics, worker panics, phase errors, post-phase lint rejections,
/// exhausted budgets — is absorbed, rolled back to the last good tree,
/// and listed on [`OptReport::faults`].
///
/// # Errors
///
/// * [`FlowError::Timing`] — the *input* tree cannot be timed;
/// * [`FlowError::LintGate`] — the input tree fails the input gate;
/// * [`FlowError::MissingArtifact`] — the flow needs LUTs / a model that
///   were not provided;
/// * [`FlowError::Ctree`] — a best-so-far checkpoint failed to restore
///   (never for a valid input tree).
pub fn try_optimize_with(
    tc: &Testcase,
    flow: Flow,
    cfg: &FlowConfig,
    luts: Option<&StageLuts>,
    model: Option<&DeltaLatencyModel>,
) -> Result<OptReport, FlowError> {
    let lib = &tc.lib;
    let obs = &cfg.obs;
    let flow_start = clk_obs::wall_now();
    let mut flow_span = obs.span_at(
        Level::Info,
        "flow",
        vec![
            kv("flow", flow.to_string()),
            kv("sinks", tc.tree.sinks().count()),
        ],
    );

    let init_span = obs.span("phase.init");
    // structural validity is a precondition, not a lint: even at
    // LintLevel::Off a corrupt database (dangling links, mismatched
    // route endpoints) is rejected with a typed error rather than
    // optimized into a corrupt result
    tc.tree.validate().map_err(FlowError::Tree)?;
    check_lint_gate(
        "CTS (flow input)",
        cfg.lint_level,
        &tc.tree,
        lib,
        &tc.floorplan,
    )?;
    // the baseline STA polls the cancel token (no wall budget: wall
    // clocks are per-phase); a cut here happens before any result
    // exists, so it is the one place the flow surfaces a typed
    // `Interrupted` error instead of a partial report
    let init_timer = Timer::golden()
        .with_obs(obs.clone())
        .with_deadline(Deadline::new(None, Some(cfg.cancel.clone())));
    let analyses0 = match init_timer.try_analyze_all(&tc.tree, lib) {
        Ok(a) => a,
        Err(TimingError::Interrupted) => return Err(FlowError::Interrupted { phase: "init" }),
        Err(e) => return Err(e.into()),
    };
    // final scoring runs deadline-free: once a best-so-far tree exists,
    // even a cancelled flow re-times it fully so the report is complete
    let timer = Timer::golden().with_obs(obs.clone());
    let skews0: Vec<Vec<f64>> = analyses0
        .iter()
        .map(|t| try_pair_skews(t, tc.tree.sink_pairs()))
        .collect::<Result<_, _>>()?;
    let alphas = alpha_factors(&skews0);
    let variation_before = variation_report(&skews0, &alphas, None).sum;
    // the decision ledger checkpoints every accepted decision under
    // these init-time alphas so deltas telescope to the end-to-end
    // variation delta (the waterfall reconciliation gate)
    let ledger = obs.ledger();
    if ledger.is_enabled() {
        ledger.set_alphas(alphas.clone());
        obs.ledger_append(LedgerRecord::FlowInit {
            flow: flow.to_string(),
            sinks: tc.tree.sinks().count() as u64,
            corners: skews0.len() as u64,
            var: variation_before,
        });
    }
    let local_skew_before: Vec<f64> = skews0.iter().map(|s| local_skew_ps(s)).collect();
    let stats0 = TreeStats::compute(&tc.tree, lib);
    let power_before = clock_power(&tc.tree, lib, &analyses0[0], cfg.freq_ghz);
    // the deepest rollback target: the input tree is known timeable and
    // gate-clean, so a flow can always fall back to "did nothing"
    let input_ckpt = Checkpoint::capture(&tc.tree, lib);
    drop(init_span);

    let mut runner = PhaseRunner {
        cfg,
        tc,
        flow_start,
        tree: tc.tree.clone(),
        faults: FaultLog::new().with_origin(flow_start),
        progress: Vec::new(),
        ledger_ckpt: variation_before,
    };
    let guard = Some(local_skew_before.as_slice());
    let mut global_report = None;
    let mut local_report = None;
    if matches!(flow, Flow::Global | Flow::GlobalLocal) {
        let luts = luts.ok_or(FlowError::MissingArtifact(
            "characterized stage LUTs (global phase)",
        ))?;
        global_report = runner.run(
            "global",
            &cfg.budget.global,
            |tree, ctx| global_optimize(tree, lib, &tc.floorplan, luts, &cfg.global, guard, ctx),
            |rep: &GlobalReport, span| {
                span.record("lp_iterations", rep.lp_iterations);
                span.record("arcs_changed", rep.arcs_changed);
            },
        );
    }
    if matches!(flow, Flow::Local | Flow::GlobalLocal) {
        let model = model.ok_or(FlowError::MissingArtifact(
            "trained delta-latency predictor (local phase)",
        ))?;
        local_report = runner.run(
            "local",
            &cfg.budget.local,
            |tree, ctx| {
                let mut tree = tree.clone();
                let ranker = Ranker::Ml(model);
                let rep = local_optimize(
                    &mut tree,
                    lib,
                    &tc.floorplan,
                    ranker,
                    &cfg.local,
                    guard,
                    ctx,
                )?;
                Ok((tree, rep))
            },
            |rep: &LocalReport, span| {
                span.record("accepted_moves", rep.iterations.len());
                span.record("golden_evals", rep.golden_evals);
            },
        );
    }
    let PhaseRunner {
        tree,
        mut faults,
        progress,
        ..
    } = runner;

    let scoring_span = obs.span("phase.scoring");
    // final scoring; a tree that passed its gates but cannot be re-timed
    // (possible at LintLevel::Off) falls back to the input checkpoint
    let (tree, analyses1) = match timer.try_analyze_all(&tree, lib) {
        Ok(a) => (tree, a),
        Err(e) => {
            let seq = faults.record(
                "flow",
                FaultKind::PhaseError,
                RecoveryAction::Rollback,
                format!("optimized tree failed final timing ({e}); restoring the input checkpoint"),
            );
            emit_fault(
                obs,
                seq,
                "flow",
                FaultKind::PhaseError,
                RecoveryAction::Rollback,
                "optimized tree failed final timing; restoring the input checkpoint",
            );
            global_report = None;
            local_report = None;
            let t = input_ckpt.restore(lib)?;
            let a = timer.try_analyze_all(&t, lib)?;
            (t, a)
        }
    };
    let skews1: Vec<Vec<f64>> = analyses1
        .iter()
        .map(|t| try_pair_skews(t, tree.sink_pairs()))
        .collect::<Result<_, _>>()?;
    let variation_after = variation_report(&skews1, &alphas, None).sum;
    if ledger.is_enabled() {
        obs.ledger_append(LedgerRecord::FlowEnd {
            var: variation_after,
        });
    }
    let local_skew_after: Vec<f64> = skews1.iter().map(|s| local_skew_ps(s)).collect();
    let stats1 = TreeStats::compute(&tree, lib);
    let power_after = clock_power(&tree, lib, &analyses1[0], cfg.freq_ghz);
    drop(scoring_span);

    let partial = progress.iter().any(|p| p.interrupted);
    flow_span.record("variation_before", variation_before);
    flow_span.record("variation_after", variation_after);
    flow_span.record("faults", faults.len());
    flow_span.record("partial", partial);
    drop(flow_span);
    obs.flush();

    Ok(OptReport {
        flow,
        variation_before,
        variation_after,
        local_skew_before,
        local_skew_after,
        cells_before: stats0.n_buffers,
        cells_after: stats1.n_buffers,
        power_before_mw: power_before.total_mw(),
        power_after_mw: power_after.total_mw(),
        area_before_um2: stats0.buffer_area_um2,
        area_after_um2: stats1.buffer_area_um2,
        tree,
        global_report,
        local_report,
        faults,
        partial,
        progress,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::FaultSite;
    use clk_cts::TestcaseKind;
    use clk_ml::MlpConfig;

    pub(crate) fn quick_cfg() -> FlowConfig {
        FlowConfig {
            global: GlobalConfig {
                max_pairs: 30,
                lambdas: vec![0.05, 0.3],
                rounds: 1,
                ..GlobalConfig::default()
            },
            local: LocalConfig {
                max_iterations: 2,
                max_batches: 1,
                ..LocalConfig::default()
            },
            train: TrainConfig {
                n_cases: 5,
                moves_per_case: 8,
                mlp: MlpConfig {
                    epochs: 30,
                    ..MlpConfig::default()
                },
                ..TrainConfig::default()
            },
            ..FlowConfig::default()
        }
    }

    /// Runs `flow` with the per-technology artifacts it needs built
    /// fresh from the testcase's library.
    pub(crate) fn run(tc: &Testcase, flow: Flow, cfg: &FlowConfig) -> OptReport {
        let luts = (flow != Flow::Local).then(|| StageLuts::characterize(&tc.lib));
        let model = (flow != Flow::Global)
            .then(|| DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train));
        try_optimize_with(tc, flow, cfg, luts.as_ref(), model.as_ref()).expect("flow completes")
    }

    #[test]
    fn global_local_flow_improves_and_reports() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 40, 31);
        let report = run(&tc, Flow::GlobalLocal, &quick_cfg());
        report.tree.validate().unwrap();
        assert!(report.variation_ratio() <= 1.0);
        assert!(report.global_report.is_some());
        assert!(report.local_report.is_some());
        assert_eq!(report.local_skew_before.len(), 3);
        assert!(report.power_before_mw > 0.0);
        assert!(report.cells_before > 0);
        assert!(report.faults.is_empty(), "{}", report.faults.to_text());
        // cell-count overhead stays small (paper: ~1-2%)
        assert!(
            (report.cells_after as f64) < 1.35 * report.cells_before as f64,
            "cells {} -> {}",
            report.cells_before,
            report.cells_after
        );
    }

    #[test]
    // bit-exact checkpoint equality is the property under test
    #[allow(clippy::float_cmp)]
    fn ledger_reconciles_and_round_trips() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 40, 34);
        let mut cfg = quick_cfg();
        cfg.obs = Obs::new(clk_obs::ObsConfig {
            ledger: true,
            ..clk_obs::ObsConfig::default()
        });
        let report = run(&tc, Flow::GlobalLocal, &cfg);
        let ledger = cfg.obs.ledger();
        let records = ledger.records();

        // the ledger brackets the run
        let Some(LedgerRecord::FlowInit { var: init_var, .. }) = records.first() else {
            panic!("ledger starts with flow_init: {records:?}");
        };
        let Some(LedgerRecord::FlowEnd { var: end_var }) = records.last() else {
            panic!("ledger ends with flow_end: {records:?}");
        };
        assert_eq!(*init_var, report.variation_before);
        assert_eq!(*end_var, report.variation_after);
        assert!(records
            .iter()
            .any(|r| matches!(r, LedgerRecord::Lambda { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r, LedgerRecord::LocalCand { .. })));

        // JSONL round-trip is byte-identical
        let text = ledger.to_jsonl();
        let parsed = clk_obs::ledger::parse_jsonl(&text).expect("ledger parses");
        assert_eq!(parsed.len(), records.len());
        assert_eq!(clk_obs::ledger::encode_jsonl(&parsed), text);

        // reconciliation: committed checkpoints telescope bit-exactly to
        // the end-to-end variation delta
        let mut ckpt = *init_var;
        let mut phase_ckpt = ckpt;
        for rec in &records {
            match rec {
                LedgerRecord::PhaseStart { .. } => phase_ckpt = ckpt,
                LedgerRecord::RoundEnd { var, .. } => phase_ckpt = *var,
                LedgerRecord::LocalCommit {
                    committed: true,
                    var: Some(v),
                    ..
                } => phase_ckpt = *v,
                LedgerRecord::PhaseEnd { committed, var, .. } => {
                    if *committed {
                        ckpt = phase_ckpt;
                    }
                    assert_eq!(*var, ckpt, "phase_end checkpoint mismatch");
                }
                _ => {}
            }
        }
        assert!(
            (ckpt - end_var).abs() <= 1e-6,
            "ledger checkpoint {ckpt} vs end-to-end {end_var}"
        );
    }

    #[test]
    fn flow_names_are_stable() {
        assert_eq!(Flow::Global.to_string(), "global");
        assert_eq!(Flow::Local.to_string(), "local");
        assert_eq!(Flow::GlobalLocal.to_string(), "global-local");
    }

    #[test]
    fn pure_global_flow_needs_no_model() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 24, 33);
        let luts = crate::lut::StageLuts::characterize(&tc.lib);
        let report = try_optimize_with(&tc, Flow::Global, &quick_cfg(), Some(&luts), None)
            .expect("global flow completes");
        assert!(report.local_report.is_none());
        assert!(report.variation_ratio() <= 1.0 + 1e-9);
        assert!(report.variation_ratio() > 0.0);
    }

    #[test]
    fn pure_local_flow_runs() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 32, 32);
        let report = run(&tc, Flow::Local, &quick_cfg());
        assert!(report.global_report.is_none());
        assert!(report.variation_ratio() <= 1.0);
    }

    #[test]
    fn missing_artifacts_are_typed_errors() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 24, 35);
        let e = try_optimize_with(&tc, Flow::Global, &quick_cfg(), None, None).unwrap_err();
        assert!(matches!(e, FlowError::MissingArtifact(_)), "{e}");
        let e = try_optimize_with(&tc, Flow::Local, &quick_cfg(), None, None).unwrap_err();
        assert!(matches!(e, FlowError::MissingArtifact(_)), "{e}");
    }

    #[test]
    fn cancelled_flow_returns_partial_best_so_far() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 24, 37);
        let luts = crate::lut::StageLuts::characterize(&tc.lib);
        let model = DeltaLatencyModel::train(&tc.lib, quick_cfg().model_kind, &quick_cfg().train);

        // calibrate: count the flow's total deadline polls
        let calib = CancelToken::new();
        let mut cfg = quick_cfg();
        cfg.cancel = calib.clone();
        let full = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
            .expect("uncancelled run completes");
        assert!(!full.partial);
        assert!(full.progress.iter().all(|p| !p.interrupted));
        let total = calib.polls();
        assert!(total > 0, "flow never polled its deadline");

        // cut mid-flow: the report is partial, the tree still valid
        let token = CancelToken::new();
        token.trip_after_polls(total / 2);
        let mut cfg = quick_cfg();
        cfg.cancel = token;
        let rep = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
            .expect("mid-flow cut yields best-so-far");
        assert!(rep.partial, "cut at {}/{total} was not partial", total / 2);
        assert!(rep.progress.iter().any(|p| p.interrupted));
        rep.tree.validate().unwrap();

        // cut before anything exists: a typed interrupt error
        let token = CancelToken::new();
        token.trip_after_polls(1);
        let mut cfg = quick_cfg();
        cfg.cancel = token;
        let e = try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model))
            .expect_err("cut during init has no best-so-far");
        assert!(e.is_interrupt(), "{e}");
    }

    #[test]
    fn seeded_fault_plan_is_absorbed_and_logged() {
        let tc = clk_cts::Testcase::generate(TestcaseKind::Cls1v1, 40, 36);
        let plan = std::sync::Arc::new(FaultPlan::seeded(7));
        let mut cfg = quick_cfg();
        cfg.fault_plan = Some(plan.clone());
        let report = run(&tc, Flow::GlobalLocal, &cfg);
        report.tree.validate().unwrap();
        assert!(report.variation_ratio() <= 1.0 + 1e-9);
        let injected = plan.injected();
        assert!(!injected.is_empty(), "the plan never got to fire");
        for site in injected {
            let kind = match site {
                FaultSite::NanArcDelay => FaultKind::NanArcDelay,
                FaultSite::CorruptLutRow => FaultKind::CorruptDelayModel,
                FaultSite::InfeasibleLp => FaultKind::LpFailure,
                FaultSite::WorkerPanic => FaultKind::WorkerPanic,
            };
            assert!(
                report.faults.of_kind(kind).count() >= 1,
                "injected {site} has no {kind} record:\n{}",
                report.faults.to_text()
            );
        }
    }
}
