//! Local iterative optimization (paper §4.2, Algorithm 2): enumerate the
//! Table-2 moves, rank them with the delta-latency predictor, realize the
//! top `R` in parallel worker threads, accept what the golden timer
//! confirms, repeat until the predictor sees no improving move.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use clk_liberty::{CornerId, Library};
use clk_netlist::{ClockTree, Floorplan, NodeId, SinkIndex, SinkPair, TreeError};
use clk_obs::{kv, LedgerRecord, Level, Profiler};
use clk_sta::{
    alpha_factors, local_skew_ps, try_pair_skews, variation_report, CornerTiming, Timer,
    TimingError,
};

use crate::fault::{
    FaultCtx, FaultKind, FaultPlan, FaultSite, FlowError, PhaseProgress, RecoveryAction, TreeTxn,
};
use crate::moves::{apply_move, enumerate_moves, touched_drivers, Move, MoveConfig};
use crate::predictor::{analytic_feature, DeltaLatencyModel, MoveEstimator, Scratch, Topo};
use clk_delay::WireModel;

/// How candidate moves are ranked before golden verification — the ML
/// predictor in the paper's flow, with the analytical and random rankers
/// kept as the Fig. 6 / Fig. 8 baselines.
#[derive(Debug, Clone, Copy)]
pub enum Ranker<'a> {
    /// The trained per-corner ML model (the paper's flow).
    Ml(&'a DeltaLatencyModel),
    /// A single analytical estimate (Fig. 6 baselines).
    Analytic(Topo, WireModel),
    /// Uniform-random ranking (the Fig. 8 "random moves" dots).
    Random(u64),
}

/// Local-optimization knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalConfig {
    /// Moves realized per verification round (paper: R = 5 threads).
    pub moves_per_round: usize,
    /// Hard cap on accepted iterations.
    pub max_iterations: usize,
    /// Move-menu parameters (Table 2).
    pub move_cfg: MoveConfig,
    /// Candidates predicted to gain less than this are not tried, ps.
    pub min_predicted_gain_ps: f64,
    /// At most this many candidate batches per accepted iteration.
    pub max_batches: usize,
    /// Local-skew acceptance guard (factor, absolute ps) as in the global
    /// flow.
    pub skew_guard_factor: f64,
    /// Absolute allowance of the skew guard, ps.
    pub skew_guard_ps: f64,
    /// Budget of golden-timer evaluations (fair-comparison knob for the
    /// Fig. 8 baselines; effectively unlimited by default).
    pub max_golden_evals: usize,
    /// Worker threads scoring moves and evaluating candidates; `0` = one
    /// per available core. QoR is byte-identical for every value: workers
    /// only read the committed tree and score private clones, results
    /// are scattered back by move / candidate index, and the ranking and
    /// commit decisions are taken sequentially in that order.
    pub workers: usize,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            moves_per_round: 5,
            max_iterations: 25,
            move_cfg: MoveConfig::default(),
            min_predicted_gain_ps: 0.05,
            max_batches: 8,
            skew_guard_factor: 1.02,
            skew_guard_ps: 2.0,
            max_golden_evals: usize::MAX,
            workers: 0,
        }
    }
}

/// One accepted move of the trace (the Fig. 8 series).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Paper move type (1, 2 or 3) of the accepted move.
    pub move_type: u8,
    /// Sum of variation after accepting it, ps.
    pub variation_sum: f64,
}

/// Why a realized candidate was not committed — every worker outcome is
/// accounted for here instead of being silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateRejects {
    /// The move could not be applied to the trial tree (typed
    /// [`TreeError`] from the move engine).
    pub apply_failed: usize,
    /// The golden timer could not time the trial tree.
    pub timing_failed: usize,
    /// The trial would have created new DRC violations.
    pub drc: usize,
    /// The worker thread panicked; the candidate was isolated and
    /// skipped.
    pub panicked: usize,
    /// Timed clean but worse (or guard-violating) than the incumbent.
    pub not_improving: usize,
}

impl CandidateRejects {
    /// Total candidates rejected for any reason.
    pub fn total(&self) -> usize {
        self.apply_failed + self.timing_failed + self.drc + self.panicked + self.not_improving
    }
}

/// Outcome of the local optimization.
#[derive(Debug, Clone)]
pub struct LocalReport {
    /// Sum of normalized skew variation before, ps.
    pub variation_before: f64,
    /// Sum after the last accepted move, ps.
    pub variation_after: f64,
    /// Accepted-move trace (one entry per accepted iteration).
    pub iterations: Vec<IterationRecord>,
    /// Golden-timer evaluations spent.
    pub golden_evals: usize,
    /// Typed accounting of every rejected candidate.
    pub rejects: CandidateRejects,
}

/// A worker's typed failure.
#[derive(Debug, Clone)]
enum CandidateFailure {
    Apply(TreeError),
    Timing(TimingError),
    Drc { violations: usize, baseline: usize },
}

/// A verified candidate: variation sum under the phase alphas, per-corner
/// local skews, the sum under the ledger's α* (ledger runs only), and the
/// trial tree when the candidate could win (improves within the guard).
type CandidateResult = Result<(f64, Vec<f64>, Option<f64>, Option<ClockTree>), CandidateFailure>;

/// Moves scored between two deadline polls: the coordinator acknowledges
/// a cut within one stride.
const SCORE_STRIDE: usize = 64;

/// One slot's work for [`striped`]; each worker threads its own
/// `Scratch` through its slots. A trait, not a closure, so that
/// clk-analyze's name-based call graph reaches every job's body from the
/// pool's one spawn site.
trait SlotJob: Sync {
    type Out: Send;
    type Scratch: Default;
    fn run_slot(&self, scratch: &mut Self::Scratch, i: usize) -> Self::Out;
}

/// Runs `job` on every slot `0..n` over `workers` threads: the calling
/// thread is worker 0 and spawns the others. Worker `w` owns slots w,
/// w+W, w+2W, ... — a fixed assignment, so which thread handles a slot
/// never depends on scheduling — and results come back in slot order
/// ([`in_slot_order`]). The caller polls `stop` once per multiple of
/// `mark` below `n`, on its own thread and before its own first slot past
/// that multiple, so the polls fall at the same slot counts for every
/// worker count; once `stop` answers true every worker halts before its
/// next slot and the pool returns `Err(mark multiple)`. A spawned worker
/// that dies outside the job's own guard leaves its lane `None`.
fn striped<J: SlotJob>(
    n: usize,
    workers: usize,
    job: &J,
    mark: usize,
    mut stop: impl FnMut() -> bool,
) -> Result<Vec<Option<Vec<J::Out>>>, usize> {
    let width = workers.min(n).max(1);
    let halt = AtomicBool::new(false);
    let halt = &halt;
    let (own, cut, mut lanes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..width)
            .map(|w| {
                // clk-analyze: allow(A101) PROF_STACK is thread_local: each worker roots its own attribution subtree, no cross-thread sharing
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n.div_ceil(width));
                    let mut scratch = J::Scratch::default();
                    for i in (w..n).step_by(width) {
                        if halt.load(Ordering::SeqCst) {
                            break;
                        }
                        out.push(job.run_slot(&mut scratch, i));
                    }
                    out
                })
            })
            .collect();
        let mut own = Vec::with_capacity(n.div_ceil(width));
        let mut scratch = J::Scratch::default();
        let mut next = mark;
        let mut cut = None;
        let mut poll_to = |end: usize, next: &mut usize| {
            while cut.is_none() && *next < end {
                if stop() {
                    cut = Some(*next);
                    halt.store(true, Ordering::SeqCst);
                }
                *next = next.saturating_add(mark);
            }
            cut.is_none()
        };
        for i in (0..n).step_by(width) {
            if !poll_to(i + 1, &mut next) {
                break;
            }
            own.push(job.run_slot(&mut scratch, i));
        }
        poll_to(n, &mut next);
        let lanes: Vec<_> = handles.into_iter().map(|h| h.join().ok()).collect();
        (own, cut, lanes)
    });
    match cut {
        Some(m) => Err(m),
        None => {
            lanes.insert(0, Some(own));
            Ok(lanes)
        }
    }
}

/// [`striped`]'s per-worker lanes as one result per slot, in slot order
/// (`None` for a dead worker's slots).
fn in_slot_order<T>(lanes: Vec<Option<Vec<T>>>, n: usize) -> impl Iterator<Item = Option<T>> {
    let width = lanes.len().max(1);
    let mut lanes: Vec<_> = lanes.into_iter().map(|l| l.map(Vec::into_iter)).collect();
    (0..n).map(move |i| lanes.get_mut(i % width)?.as_mut()?.next())
}

/// Predicted gains of a pass of moves; a random ranker's ranks are drawn
/// up front.
struct ScoreJob<'a, 's> {
    ctx: &'s ScoreCtx<'a>,
    moves: &'s [Move],
    ranker: Ranker<'s>,
    drawn: Vec<f64>,
}

impl SlotJob for ScoreJob<'_, '_> {
    type Out = f64;
    type Scratch = ScoreScratch;
    fn run_slot(&self, scratch: &mut ScoreScratch, i: usize) -> f64 {
        match self.ranker {
            Ranker::Random(_) => self.drawn[i],
            _ => gain_in(self.ctx, &self.moves[i], self.ranker, scratch),
        }
    }
}

/// Golden verification of one batch of candidates. Each candidate is
/// realized on a private clone of the committed tree and timed by
/// cone-limited incremental re-propagation from the committed tree's
/// per-corner analyses — bit-identical to a full golden re-analysis,
/// just skipping the untouched cone.
struct EvalJob<'a> {
    tree: &'a ClockTree,
    lib: &'a Library,
    fp: &'a Floorplan,
    mcfg: &'a MoveConfig,
    batch: &'a [(f64, Move)],
    timings: &'a [CornerTiming],
    pairs: &'a [SinkPair],
    alphas: &'a [f64],
    star: Option<&'a [f64]>,
    drc_baseline: usize,
    /// The committed sum and the skew guard a winner must beat.
    current_sum: f64,
    guard: &'a [f64],
    plan: Option<&'a FaultPlan>,
    prof: Profiler,
}

impl SlotJob for EvalJob<'_> {
    type Out = Option<CandidateResult>;
    type Scratch = ();
    /// Per-candidate isolation: a typed failure or a panic poisons this
    /// slot only (`None` = panicked), and the committed tree is untouched
    /// either way.
    fn run_slot(&self, (): &mut (), i: usize) -> Self::Out {
        let (prof, mv) = (&self.prof, &self.batch[i].1);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> CandidateResult {
            // workers root their own attribution subtree (thread-scoped
            // nesting)
            let _eval_prof = prof.scope("local.eval");
            if self.plan.is_some_and(|p| p.fire(FaultSite::WorkerPanic)) {
                // clk-analyze: allow(A005) deliberate chaos-injection panic, absorbed by the phase transaction
                panic!("chaos: injected worker panic");
            }
            let dirty = touched_drivers(self.tree, mv);
            let mut trial = self.tree.clone();
            {
                let _g = prof.scope("apply");
                apply_move(&mut trial, self.lib, self.fp, self.mcfg, mv)
                    .map_err(CandidateFailure::Apply)?;
            }
            let sta_prof = prof.scope("golden_sta");
            let analyses = Timer::golden()
                .try_analyze_all_incremental(&trial, self.lib, self.timings, &dirty)
                .map_err(CandidateFailure::Timing)?;
            drop(sta_prof);
            let _score_prof = prof.scope("score");
            let drc: usize = analyses.iter().map(|t| t.violations().len()).sum();
            if drc > self.drc_baseline {
                return Err(CandidateFailure::Drc {
                    violations: drc,
                    baseline: self.drc_baseline,
                });
            }
            let skews = analyses
                .iter()
                .map(|t| try_pair_skews(t, self.pairs))
                .collect::<Result<Vec<_>, _>>()
                .map_err(CandidateFailure::Timing)?;
            let sum = variation_report(&skews, self.alphas, None).sum;
            let locals: Vec<f64> = skews.iter().map(|s| local_skew_ps(s)).collect();
            let sum_star = self.star.map(|sa| variation_report(&skews, sa, None).sum);
            // only a possible winner keeps its trial tree
            let wins = sum < self.current_sum && locals.iter().zip(self.guard).all(|(l, g)| l <= g);
            Ok((sum, locals, sum_star, wins.then_some(trial)))
        }))
        .ok()
    }
}

/// Runs Algorithm 2 on `tree` in place under a fault context (injection
/// plan, fault log, deadline; [`FaultCtx::passive`] for none), returning
/// typed errors instead of panicking.
///
/// `guard_baseline` is the local-skew guard baseline, ps per corner;
/// `None` derives it from the incoming tree. Flows pass the original
/// tree's skews so per-phase guards do not compound.
///
/// Worker-thread failures (typed or panics) are isolated per candidate:
/// a poisoned candidate is counted in [`LocalReport::rejects`] (panics
/// are also recorded in the fault log) and can never corrupt the
/// committed tree, which only ever advances through a verified
/// [`TreeTxn`] commit.
///
/// # Errors
///
/// [`FlowError::Timing`] when the *incoming* tree cannot be timed —
/// everything after that baseline is absorbed and degraded. A deadline
/// cut during that baseline STA also leaves an interrupted
/// [`PhaseProgress`] marker on `ctx`.
pub fn local_optimize(
    tree: &mut ClockTree,
    lib: &Library,
    fp: &Floorplan,
    ranker: Ranker<'_>,
    cfg: &LocalConfig,
    guard_baseline: Option<&[f64]>,
    ctx: &mut FaultCtx<'_>,
) -> Result<LocalReport, FlowError> {
    // the coordinator's timer observes the phase deadline; candidate
    // workers deliberately do NOT (a shared deadline observed from
    // racing threads would make the accepted-move sequence depend on
    // scheduling). Cancellation is acknowledged at coordinator safe
    // points: iteration top, candidate-scoring stride, batch boundary.
    let timer = Timer::golden().with_deadline(ctx.deadline.clone());
    let pairs: Vec<SinkPair> = tree.sink_pairs().to_vec();
    // alphas are an input parameter fixed on the incoming tree
    let analyses0 = timer.try_analyze_all(tree, lib).inspect_err(|e| {
        // cut before the baseline exists: nothing to keep, one marker
        if matches!(e, TimingError::Interrupted) {
            ctx.progress = Some(PhaseProgress::interrupted(
                "local",
                0,
                cfg.max_iterations,
                ctx.deadline.trigger(),
            ));
        }
    })?;
    let skews0 = analyses0
        .iter()
        .map(|t| try_pair_skews(t, &pairs))
        .collect::<Result<Vec<_>, _>>()?;
    let alphas = alpha_factors(&skews0);
    let variation_before = variation_report(&skews0, &alphas, None).sum;
    let guard: Vec<f64> = match guard_baseline {
        Some(b) => b
            .iter()
            .map(|s| s * cfg.skew_guard_factor + cfg.skew_guard_ps)
            .collect(),
        None => skews0
            .iter()
            .map(|s| local_skew_ps(s) * cfg.skew_guard_factor + cfg.skew_guard_ps)
            .collect(),
    };

    let mut rng_state = match ranker {
        Ranker::Random(seed) => seed | 1,
        _ => 1,
    };
    let mut xorshift = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let mut report = LocalReport {
        variation_before,
        variation_after: variation_before,
        iterations: Vec::new(),
        golden_evals: 0,
        rejects: CandidateRejects::default(),
    };
    let mut current_sum = variation_before;
    let obs = ctx.obs.clone();
    // decision-ledger checkpoints are priced under the flow-level α*
    // (published at flow init); the accept decisions below keep using the
    // phase-local alphas, so QoR behavior is unchanged by ledgering
    let ledger = obs.ledger();
    let star_owned = ledger.alphas();
    let star: Option<&[f64]> = ledger
        .is_enabled()
        .then(|| star_owned.as_deref().unwrap_or(&alphas));
    // the paper's guarantee: no new max-cap / max-transition violations
    let drc_baseline: usize = analyses0.iter().map(|t| t.violations().len()).sum();

    // resolved once per phase: the stripe width of every batch
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.workers
    };
    obs.gauge_set("local.workers", workers as i64);

    let mut interrupted = false;
    'outer: for iter in 0..cfg.max_iterations {
        let mut iter_span = obs.span_at(Level::Debug, "local.iter", vec![kv("iter", iter as u64)]);
        if ctx.out_of_time() {
            ctx.record_interrupt(
                "local",
                RecoveryAction::Degrade,
                format!(
                    "deadline cut after {} accepted moves; returning best-so-far",
                    report.iterations.len()
                ),
            );
            iter_span.record("outcome", "interrupted");
            interrupted = true;
            break;
        }
        if report.golden_evals >= cfg.max_golden_evals {
            break;
        }
        // the committed tree is always re-timeable, so an interrupt here
        // is the deadline cutting the walk, not a broken tree
        let timings: Vec<CornerTiming> = match timer.try_analyze_all(tree, lib) {
            Ok(t) => t,
            Err(TimingError::Interrupted) => {
                ctx.record_interrupt(
                    "local",
                    RecoveryAction::Degrade,
                    format!(
                        "deadline cut re-timing at iteration {iter}; returning best-so-far ({} accepted moves)",
                        report.iterations.len()
                    ),
                );
                iter_span.record("outcome", "interrupted");
                interrupted = true;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        // golden per-corner local skews of the committed tree: the
        // baseline for per-candidate ledger deltas (ledger runs only)
        let cur_locals: Option<Vec<f64>> = star.and_then(|_| {
            timings
                .iter()
                .map(|t| try_pair_skews(t, &pairs).map(|s| local_skew_ps(&s)))
                .collect::<Result<Vec<_>, _>>()
                .ok()
        });
        let moves = enumerate_moves(tree, lib, &cfg.move_cfg, None);
        if moves.is_empty() {
            break;
        }
        // ---- rank all candidates by predicted variation reduction ----
        // striped over the worker pool; the coordinator polls the
        // deadline every SCORE_STRIDE moves, at the same move counts for
        // every worker count; random ranks are drawn here, in move order
        let predict_prof = obs.prof_scope("local.predict");
        let sc = ScoreCtx::new(tree, lib, &timings, &pairs, &alphas, &cfg.move_cfg, &moves)
            .with_profiler(obs.profiler());
        let job = ScoreJob {
            ctx: &sc,
            moves: &moves,
            ranker,
            drawn: match ranker {
                Ranker::Random(_) => moves.iter().map(|_| (xorshift() % 1_000) as f64).collect(),
                _ => Vec::new(),
            },
        };
        let gains = striped(moves.len(), workers, &job, SCORE_STRIDE, || {
            ctx.out_of_time()
        });
        drop(job);
        drop(sc);
        let gains = match gains {
            Ok(g) => g,
            Err(cut) => {
                ctx.record_interrupt(
                    "local",
                    RecoveryAction::Degrade,
                    format!(
                        "deadline cut scoring candidate {cut} at iteration {iter}; returning best-so-far"
                    ),
                );
                iter_span.record("outcome", "interrupted");
                interrupted = true;
                break 'outer;
            }
        };
        let mut scored: Vec<(f64, Move)> = Vec::new();
        let mut unranked = 0;
        for (g, mv) in in_slot_order(gains, moves.len()).zip(moves) {
            match g {
                Some(g) if g > cfg.min_predicted_gain_ps => scored.push((g, mv)),
                Some(_) => {}
                None => unranked += 1,
            }
        }
        if unranked > 0 {
            ctx.record(
                "local",
                FaultKind::WorkerPanic,
                RecoveryAction::Skip,
                format!("{unranked} moves left unranked by a dead scoring worker"),
            );
        }
        drop(predict_prof);
        iter_span.record("predicted_positive", scored.len() as u64);
        obs.count("local.predicted_positive", scored.len() as u64);
        if scored.is_empty() {
            obs.event(Level::Debug, "local.no_candidates", Vec::new());
            iter_span.record("outcome", "no_candidates");
            break;
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        if obs.at(Level::Trace) {
            let top: Vec<String> = scored
                .iter()
                .take(5)
                .map(|(g, m)| format!("{m} (+{g:.2})"))
                .collect();
            obs.event(
                Level::Trace,
                "local.candidates",
                vec![kv("count", scored.len() as u64), kv("top", top.join(" | "))],
            );
        }

        // ---- realize batches of R moves until one verifies ----
        for (batch_no, batch) in scored
            .chunks(cfg.moves_per_round.max(1))
            .take(cfg.max_batches)
            .enumerate()
        {
            // batch boundary: the last committed tree is the result, so a
            // cut here costs at most one in-flight batch of evaluations
            if ctx.out_of_time() {
                ctx.record_interrupt(
                    "local",
                    RecoveryAction::Degrade,
                    format!(
                        "deadline cut before batch {batch_no} at iteration {iter}; returning best-so-far ({} accepted moves)",
                        report.iterations.len()
                    ),
                );
                iter_span.record("outcome", "interrupted");
                interrupted = true;
                break 'outer;
            }
            let mut batch_span = obs.span_at(
                Level::Debug,
                "local.batch",
                vec![
                    kv("batch", batch_no as u64),
                    kv("candidates", batch.len() as u64),
                ],
            );
            let _batch_prof = obs.prof_scope("local.batch");
            // golden verification on the striped pool (the paper uses R
            // threads; one worker degrades to sequential evaluation)
            let job = EvalJob {
                tree,
                lib,
                fp,
                mcfg: &cfg.move_cfg,
                batch,
                timings: &timings,
                pairs: &pairs,
                alphas: &alphas,
                star,
                drc_baseline,
                current_sum,
                guard: &guard,
                plan: ctx.plan,
                prof: obs.profiler(),
            };
            // a dead worker's slots (None) count as panicked; no polls
            // inside a batch
            let lanes = striped(batch.len(), workers, &job, usize::MAX, || false);
            let results: Vec<Option<CandidateResult>> =
                in_slot_order(lanes.unwrap_or_default(), batch.len())
                    .map(Option::flatten)
                    .collect();
            report.golden_evals += batch.len();
            obs.count("local.golden_evals", batch.len() as u64);

            let mut best: Option<(usize, f64)> = None;
            let slot_base = (batch_no * cfg.moves_per_round.max(1)) as u64;
            for (i, r) in results.iter().enumerate() {
                let (outcome, measured) = match r {
                    None => {
                        report.rejects.panicked += 1;
                        obs.count("local.reject.panicked", 1);
                        ctx.record(
                            "local",
                            FaultKind::WorkerPanic,
                            RecoveryAction::Skip,
                            format!("candidate {} ({}) isolated", i, batch[i].1),
                        );
                        ("panicked", None)
                    }
                    Some(Err(CandidateFailure::Apply(e))) => {
                        report.rejects.apply_failed += 1;
                        obs.count("local.reject.apply_failed", 1);
                        let _ = e;
                        ("apply_failed", None)
                    }
                    Some(Err(CandidateFailure::Timing(e))) => {
                        report.rejects.timing_failed += 1;
                        obs.count("local.reject.timing_failed", 1);
                        let _ = e;
                        ("timing_failed", None)
                    }
                    Some(Err(CandidateFailure::Drc { .. })) => {
                        report.rejects.drc += 1;
                        obs.count("local.reject.drc", 1);
                        ("drc", None)
                    }
                    Some(Ok((sum, locals, _, _))) => {
                        let ok = locals.iter().zip(&guard).all(|(l, g)| l <= g);
                        if ok && *sum < current_sum && best.is_none_or(|(_, b)| *sum < b) {
                            best = Some((i, *sum));
                        } else {
                            report.rejects.not_improving += 1;
                            obs.count("local.reject.not_improving", 1);
                        }
                        // how far the ranker's promise missed the golden
                        // measurement, per candidate (+ = over-promised)
                        obs.observe("local.predict.err_ps", batch[i].0 - (current_sum - sum));
                        let improving = ok && *sum < current_sum;
                        (
                            if improving {
                                "improving"
                            } else {
                                "not_improving"
                            },
                            Some(current_sum - sum),
                        )
                    }
                };
                if obs.ledgering() {
                    let deltas = match r {
                        Some(Ok((_, locals, _, _))) => cur_locals
                            .as_ref()
                            .map(|cur| locals.iter().zip(cur).map(|(l, c)| l - c).collect()),
                        _ => None,
                    };
                    obs.ledger_append(LedgerRecord::LocalCand {
                        iter: iter as u64,
                        slot: slot_base + i as u64,
                        mv: batch[i].1.to_ledger_rec(),
                        predicted: batch[i].0,
                        measured,
                        deltas,
                        outcome: outcome.to_string(),
                    });
                }
            }
            if obs.at(Level::Trace) {
                let outs: Vec<String> = results
                    .iter()
                    .map(|r| match r {
                        Some(Ok((s, _, _, _))) => format!("{s:.1}"),
                        Some(Err(CandidateFailure::Drc {
                            violations,
                            baseline,
                        })) => format!("drc:{violations}>{baseline}"),
                        Some(Err(CandidateFailure::Apply(_))) => "apply!".to_string(),
                        Some(Err(CandidateFailure::Timing(_))) => "time!".to_string(),
                        None => "panic!".to_string(),
                    })
                    .collect();
                obs.event(
                    Level::Trace,
                    "local.batch_sums",
                    vec![kv("current", current_sum), kv("sums", outs.join(" "))],
                );
            }
            if let Some((i, sum)) = best {
                let Some(Some(Ok((_, _, win_star, Some(trial))))) = results.into_iter().nth(i)
                else {
                    // clk-analyze: allow(A005) unreachable by construction: best index points at an Ok result, which kept its trial
                    unreachable!("best index points at an Ok result with its trial");
                };
                // transactional commit: the verified trial replaces the
                // tree only if it holds up structurally; otherwise the
                // exact pre-batch tree is restored
                let txn = TreeTxn::begin(tree);
                *tree = trial;
                if let Err(e) = tree.validate() {
                    txn.rollback(tree);
                    ctx.record(
                        "local",
                        FaultKind::PhaseError,
                        RecoveryAction::Rollback,
                        format!("verified candidate failed validation: {e}"),
                    );
                    batch_span.record("outcome", "rollback");
                    obs.count("local.rollback", 1);
                    if obs.ledgering() {
                        obs.ledger_append(LedgerRecord::LocalCommit {
                            iter: iter as u64,
                            mv: batch[i].1.to_ledger_rec(),
                            gain: current_sum - sum,
                            committed: false,
                            var: None,
                        });
                    }
                    continue;
                }
                #[cfg(debug_assertions)]
                {
                    let report = clk_lint::LintRunner::structural()
                        .run(&clk_lint::DesignCtx::with_floorplan(tree, lib, fp));
                    if report.has_errors() {
                        txn.rollback(tree);
                        ctx.record(
                            "local",
                            FaultKind::PhaseError,
                            RecoveryAction::Rollback,
                            format!("post-commit structural lint failed:\n{}", report.to_text()),
                        );
                        batch_span.record("outcome", "rollback");
                        obs.count("local.rollback", 1);
                        if obs.ledgering() {
                            obs.ledger_append(LedgerRecord::LocalCommit {
                                iter: iter as u64,
                                mv: batch[i].1.to_ledger_rec(),
                                gain: current_sum - sum,
                                committed: false,
                                var: None,
                            });
                        }
                        continue;
                    }
                }
                txn.commit();
                if obs.ledgering() {
                    obs.ledger_append(LedgerRecord::LocalCommit {
                        iter: iter as u64,
                        mv: batch[i].1.to_ledger_rec(),
                        gain: current_sum - sum,
                        committed: true,
                        var: win_star,
                    });
                }
                current_sum = sum;
                report.variation_after = sum;
                report.iterations.push(IterationRecord {
                    move_type: batch[i].1.move_type(),
                    variation_sum: sum,
                });
                batch_span.record("outcome", "accepted");
                batch_span.record("variation_sum", sum);
                obs.count("local.accepted", 1);
                iter_span.record("outcome", "accepted");
                continue 'outer;
            }
            batch_span.record("outcome", "no_winner");
        }
        // every batch failed golden verification: terminate
        iter_span.record("outcome", "exhausted");
        break;
    }
    ctx.progress = Some(if interrupted {
        PhaseProgress::interrupted(
            "local",
            report.iterations.len(),
            cfg.max_iterations,
            ctx.deadline.trigger(),
        )
    } else {
        PhaseProgress::complete("local", report.iterations.len(), cfg.max_iterations)
    });
    if obs.enabled() {
        let accepted = report.iterations.len();
        obs.event(
            Level::Debug,
            "local.summary",
            vec![
                kv("accepted", accepted as u64),
                kv("golden_evals", report.golden_evals as u64),
                kv("rejected", report.rejects.total() as u64),
                kv(
                    "predictor_precision",
                    if report.golden_evals > 0 {
                        accepted as f64 / report.golden_evals as f64
                    } else {
                        0.0
                    },
                ),
            ],
        );
    }
    Ok(report)
}

/// Everything one iteration's move scoring shares, built once from the
/// committed tree and its timings and dropped with the iteration: the
/// estimator's net tables and the Euler-tour sink intervals with the
/// sink→pair index.
#[derive(Debug)]
pub struct ScoreCtx<'a> {
    est: MoveEstimator<'a>,
    timings: &'a [CornerTiming],
    pairs: &'a [SinkPair],
    alphas: &'a [f64],
    sinks: SinkIndex,
    prof: Profiler,
}

impl<'a> ScoreCtx<'a> {
    /// The context for scoring `moves` on `tree`, with its per-corner
    /// `timings` and the `pairs` (and their `alphas`) to re-score.
    pub fn new(
        tree: &'a ClockTree,
        lib: &'a Library,
        timings: &'a [CornerTiming],
        pairs: &'a [SinkPair],
        alphas: &'a [f64],
        mcfg: &'a MoveConfig,
        moves: &[Move],
    ) -> Self {
        let corners = timings
            .iter()
            .enumerate()
            .map(|(k, t)| (CornerId(k), t))
            .collect();
        ScoreCtx {
            est: MoveEstimator::new(tree, lib, mcfg, corners).with_tables(moves),
            timings,
            pairs,
            alphas,
            sinks: SinkIndex::new(tree, pairs),
            prof: Profiler::disabled(),
        }
    }

    /// The predicted gain of every move in `moves` under `ranker`, in
    /// order, on the calling thread: [`predict_move_gain`] with one set
    /// of reusable buffers.
    pub fn gains(&self, moves: &[Move], ranker: Ranker<'_>) -> Vec<f64> {
        let mut sc = ScoreScratch::default();
        moves
            .iter()
            .map(|mv| gain_in(self, mv, ranker, &mut sc))
            .collect()
    }

    /// Times scoring under `prof`'s `local.predict.{features,model,rescore}`
    /// scopes.
    #[must_use]
    pub fn with_profiler(mut self, prof: Profiler) -> Self {
        self.prof = prof;
        self
    }

    /// Applies per-corner `(subtree root, delta ps)` impacts to the sinks
    /// below each root and returns the summed variation reduction of the
    /// pairs they touch.
    fn rescore(&self, impacts: &[Vec<(NodeId, f64)>], sc: &mut ScoreScratch) -> f64 {
        let nk = impacts.len();
        let ScoreScratch {
            delta,
            touched,
            runs,
            ..
        } = sc;
        delta.resize(self.sinks.sink_count() * nk, 0.0);
        touched.clear();
        touched.resize(self.pairs.len().div_ceil(64), 0);
        // each nonzero impact added to the sinks of its Euler run, in
        // impact order per sink and corner
        runs.clear();
        for (k, imp) in impacts.iter().enumerate() {
            for &(root, d) in imp.iter().filter(|&&(_, d)| d != 0.0) {
                let run = self.sinks.subtree(root);
                for s in run.clone() {
                    delta[s * nk + k] += d;
                }
                runs.push(run);
            }
        }
        // the pairs touching any impacted sink, as a bitmap over pair
        // index (corners share roots: each run is walked once)
        runs.sort_unstable_by_key(|r| (r.start, r.end));
        runs.dedup();
        for s in runs.iter().flat_map(Clone::clone) {
            for &pi in self.sinks.pairs_of(s) {
                touched[pi as usize / 64] |= 1 << (pi % 64);
            }
        }
        let d = |s: NodeId, k: usize| self.sinks.position(s).map_or(0.0, |s| delta[s * nk + k]);
        // ascending pair order: the float sum of a scan over every pair
        let mut gain = 0.0;
        for (w, &word) in touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pi = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (p, t, a) = (&self.pairs[pi], self.timings, self.alphas);
                let (mut v_before, mut v_after): (f64, f64) = (0.0, 0.0);
                for k in 0..nk {
                    for k2 in (k + 1)..nk {
                        let s_k = t[k].arrival_ps(p.a) - t[k].arrival_ps(p.b);
                        let s_k2 = t[k2].arrival_ps(p.a) - t[k2].arrival_ps(p.b);
                        v_before = v_before.max((a[k] * s_k - a[k2] * s_k2).abs());
                        let ns_k = s_k + d(p.a, k) - d(p.b, k);
                        let ns_k2 = s_k2 + d(p.a, k2) - d(p.b, k2);
                        v_after = v_after.max((a[k] * ns_k - a[k2] * ns_k2).abs());
                    }
                }
                gain += v_before - v_after;
            }
        }
        // leave the delta table zeroed for the next move
        for s in runs.iter().flat_map(Clone::clone) {
            delta[s * nk..(s + 1) * nk].fill(0.0);
        }
        gain
    }
}

/// Predicted reduction of the variation sum for one move: apply the
/// predicted per-subtree latency deltas to the affected sinks and re-score
/// the affected pairs. Public so experiments (Fig. 6) can rank moves with
/// any [`Ranker`] outside the full Algorithm-2 loop. [`Ranker::Random`]
/// predicts nothing and returns 0.0; its ranks are drawn by the caller.
pub fn predict_move_gain(ctx: &ScoreCtx<'_>, mv: &Move, ranker: Ranker<'_>) -> f64 {
    gain_in(ctx, mv, ranker, &mut ScoreScratch::default())
}

/// A scoring worker's reusable buffers.
#[derive(Debug, Default)]
struct ScoreScratch {
    est: Scratch,
    /// Per-sink, per-corner latency deltas of one move, by Euler position
    /// (all zero between moves).
    delta: Vec<f64>,
    /// The Euler runs of one move's nonzero impacts.
    runs: Vec<Range<usize>>,
    /// Bitmap of the pairs one move touches, by pair index.
    touched: Vec<u64>,
}

/// [`predict_move_gain`] with this thread's reusable buffers.
fn gain_in(ctx: &ScoreCtx<'_>, mv: &Move, ranker: Ranker<'_>, sc: &mut ScoreScratch) -> f64 {
    let per_corner = {
        let _g = ctx.prof.scope("local.predict.features");
        ctx.est.estimate_in(mv, &mut sc.est)
    };
    // per-corner impact sets: (subtree root, delta ps)
    let model_prof = ctx.prof.scope("local.predict.model");
    let mut impacts: Vec<Vec<(NodeId, f64)>> = Vec::with_capacity(per_corner.len());
    for (k, (features, detail)) in per_corner.into_iter().enumerate() {
        let primary = match ranker {
            Ranker::Ml(model) => model.predict(CornerId(k), &features),
            Ranker::Analytic(topo, wm) => features[analytic_feature(topo, wm)],
            Ranker::Random(_) => return 0.0,
        };
        // keep the analytical *differential* structure between the
        // children, shifted so the mean matches the (calibrated) primary
        // prediction
        let correction = primary - detail.primary_delta;
        let mut imp = detail.per_child;
        for (_, d) in &mut imp {
            *d += correction;
        }
        if imp.is_empty() {
            imp.push((mv.primary_node(), primary));
        }
        imp.extend(detail.side_effects);
        impacts.push(imp);
    }
    drop(model_prof);
    let _g = ctx.prof.scope("local.predict.rescore");
    ctx.rescore(&impacts, sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Deadline, FaultPlan};
    use crate::predictor::{DeltaLatencyModel, ModelKind, TrainConfig};
    use clk_cts::{Testcase, TestcaseKind};
    use clk_ml::MlpConfig;

    fn quick_local() -> LocalConfig {
        LocalConfig {
            max_iterations: 4,
            max_batches: 2,
            ..LocalConfig::default()
        }
    }

    #[test]
    fn analytic_ranker_reduces_variation() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 21);
        let mut tree = tc.tree.clone();
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            &quick_local(),
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time");
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
        // accepted moves must strictly decrease the tracked sum
        let mut last = report.variation_before;
        for it in &report.iterations {
            assert!(it.variation_sum < last);
            last = it.variation_sum;
        }
    }

    #[test]
    fn ml_ranker_runs_end_to_end() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 22);
        let train = TrainConfig {
            n_cases: 6,
            moves_per_case: 10,
            mlp: MlpConfig {
                epochs: 40,
                ..MlpConfig::default()
            },
            ..TrainConfig::default()
        };
        let model = DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &train);
        let mut tree = tc.tree.clone();
        let cfg = LocalConfig {
            max_iterations: 2,
            ..quick_local()
        };
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Ml(&model),
            &cfg,
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time");
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
    }

    #[test]
    fn random_ranker_never_degrades_committed_tree() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 23);
        let mut tree = tc.tree.clone();
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Random(99),
            &quick_local(),
            None,
            &mut FaultCtx::passive(),
        )
        .expect("CTS trees time");
        // the golden gate rejects bad random moves
        assert!(report.variation_after <= report.variation_before);
    }

    #[test]
    fn injected_worker_panic_is_isolated_and_logged() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 32, 24);
        let plan = FaultPlan::inert(5);
        plan.arm(FaultSite::WorkerPanic, 0, 2);
        let mut ctx = FaultCtx::new(Some(&plan), Deadline::none());
        let mut tree = tc.tree.clone();
        let report = local_optimize(
            &mut tree,
            &tc.lib,
            &tc.floorplan,
            Ranker::Analytic(Topo::Flute, WireModel::D2m),
            &quick_local(),
            None,
            &mut ctx,
        )
        .expect("flow survives worker panics");
        tree.validate().unwrap();
        assert!(report.variation_after <= report.variation_before);
        assert_eq!(report.rejects.panicked, plan.injected().len());
        assert_eq!(
            ctx.log.of_kind(FaultKind::WorkerPanic).count(),
            plan.injected().len()
        );
        assert!(
            !plan.injected().is_empty(),
            "plan never got an opportunity to fire"
        );
    }

    /// Squares its slot; counts how often it ran.
    struct Square(std::sync::atomic::AtomicUsize);

    impl SlotJob for Square {
        type Out = usize;
        type Scratch = ();
        fn run_slot(&self, (): &mut (), i: usize) -> usize {
            self.0.fetch_add(1, Ordering::SeqCst);
            i * i
        }
    }

    #[test]
    fn striped_pool_polls_at_fixed_slot_counts_for_any_width() {
        let n = 1000;
        for workers in [1, 2, 3, 8] {
            let job = Square(std::sync::atomic::AtomicUsize::new(0));
            let mut polls = 0;
            let lanes = striped(n, workers, &job, SCORE_STRIDE, || {
                polls += 1;
                false
            })
            .expect("never stopped");
            let got: Vec<usize> = in_slot_order(lanes, n).map(Option::unwrap).collect();
            assert_eq!(
                got,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "W={workers}"
            );
            assert_eq!(polls, (n - 1) / SCORE_STRIDE, "W={workers}");
            // a stop on the third poll names the same move for every width
            let mut polls = 0;
            let cut = striped(n, workers, &job, SCORE_STRIDE, || {
                polls += 1;
                polls == 3
            });
            assert_eq!(cut.err(), Some(3 * SCORE_STRIDE), "W={workers}");
            assert_eq!(polls, 3, "W={workers}");
        }
    }
}
