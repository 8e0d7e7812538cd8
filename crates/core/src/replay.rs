//! Deterministic replay of a decision ledger (`clk_obs::ledger`).
//!
//! [`replay_ledger`] re-applies the *accepted* decisions of a recorded
//! run to that run's input tree: per adopted global round, the winner-λ
//! ECO arcs in ledger order (each re-realized from the recorded LP/now
//! delay targets against the re-derived round-baseline timings and arc
//! set), then every committed local move. Each accepted step of the
//! recording operated on exactly this committed-state trajectory —
//! rejected candidates were rolled back to a bit-exact clone — and the
//! golden timer and arc extraction are deterministic, so the replayed
//! tree is bit-identical to the recorded run's output tree. The
//! `waterfall --replay` gate asserts that by comparing the tree-outcome
//! QoR snapshots byte for byte.
//!
//! Replay requires the same [`FlowConfig`] the recording ran with: the
//! ECO realization search reads `GlobalConfig` knobs (detour budget,
//! uncertainty penalty) and local moves read `MoveConfig`.

use clk_liberty::Library;
use clk_netlist::{ArcId, ArcSet, ClockTree, Floorplan, TreeError};
use clk_obs::{LedgerRecord, Obs};
use clk_sta::{CornerTiming, Timer, TimingError};

use crate::flow::FlowConfig;
use crate::global::realize_arc;
use crate::lut::StageLuts;
use crate::moves::{apply_move, Move};

/// Why a ledger could not be replayed onto its input tree.
#[derive(Debug, Clone)]
pub enum ReplayError {
    /// The committed tree at some step could not be golden-timed.
    Timing(TimingError),
    /// An ECO record names an arc id outside the re-derived arc set —
    /// the ledger does not belong to this input tree / config.
    ArcOutOfRange {
        /// Global round of the offending record.
        round: u64,
        /// The out-of-range arc id.
        arc: u64,
        /// Arcs the round-baseline tree actually has.
        have: usize,
    },
    /// An accepted ECO arc failed to realize on replay — the recording
    /// realized it, so the ledger and the input tree / config disagree.
    RealizeFailed {
        /// Global round of the offending record.
        round: u64,
        /// The arc that would not realize.
        arc: u64,
    },
    /// A committed local move record is structurally inconsistent
    /// (unknown type tag, bad direction index, missing operand).
    BadMove {
        /// Local iteration of the offending record.
        iter: u64,
    },
    /// A committed local move failed to apply on replay.
    Apply {
        /// Local iteration of the offending record.
        iter: u64,
        /// The underlying tree-edit error.
        err: TreeError,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Timing(e) => write!(f, "replay: timing failed: {e}"),
            ReplayError::ArcOutOfRange { round, arc, have } => write!(
                f,
                "replay: round {round} names arc {arc} but the tree has {have} arcs \
                 (wrong input tree or config?)"
            ),
            ReplayError::RealizeFailed { round, arc } => write!(
                f,
                "replay: accepted arc {arc} of round {round} failed to realize \
                 (wrong input tree or config?)"
            ),
            ReplayError::BadMove { iter } => {
                write!(f, "replay: malformed move record at local iteration {iter}")
            }
            ReplayError::Apply { iter, err } => {
                write!(f, "replay: move at local iteration {iter} failed: {err}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TimingError> for ReplayError {
    fn from(e: TimingError) -> Self {
        ReplayError::Timing(e)
    }
}

/// Whether the ledger marks `phase` as committed at the flow level.
fn phase_committed(records: &[LedgerRecord], name: &str) -> bool {
    records.iter().any(
        |r| matches!(r, LedgerRecord::PhaseEnd { phase, committed: true, .. } if phase == name),
    )
}

/// Re-applies the accepted decisions of `records` to `tree0` and
/// returns the reconstructed output tree. `cfg` must be the flow
/// configuration the recording ran with (see the module docs).
///
/// # Errors
///
/// Any [`ReplayError`]: the ledger does not match the given input tree
/// and configuration, or the committed trajectory cannot be re-timed.
pub fn replay_ledger(
    tree0: &ClockTree,
    lib: &Library,
    fp: &Floorplan,
    cfg: &FlowConfig,
    records: &[LedgerRecord],
) -> Result<ClockTree, ReplayError> {
    let mut tree = tree0.clone();
    let timer = Timer::golden();

    if phase_committed(records, "global") {
        let luts = StageLuts::characterize(lib);
        // adopted rounds, in ledger (= execution) order
        let adopted: Vec<(u64, f64)> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::RoundEnd {
                    round,
                    winner_lambda: Some(wl),
                    adopted: true,
                    ..
                } => Some((*round, *wl)),
                _ => None,
            })
            .collect();
        for (round, winner) in adopted {
            // the recording derived this round's arc ids and baseline
            // slews from the committed tree at round start; both are
            // deterministic, so re-deriving them here reproduces the
            // exact inputs of every accepted realize call
            let timings: Vec<CornerTiming> = timer.try_analyze_all(&tree, lib)?;
            let arcs = ArcSet::extract(&tree);
            for rec in records {
                let LedgerRecord::EcoArc {
                    round: r,
                    lambda,
                    arc,
                    d_lp,
                    d_now,
                    realized: Some(_),
                    accepted: true,
                    ..
                } = rec
                else {
                    continue;
                };
                if *r != round || lambda.to_bits() != winner.to_bits() {
                    continue;
                }
                let idx = usize::try_from(*arc).unwrap_or(usize::MAX);
                if idx >= arcs.arcs().len() {
                    return Err(ReplayError::ArcOutOfRange {
                        round,
                        arc: *arc,
                        have: arcs.arcs().len(),
                    });
                }
                #[allow(clippy::cast_possible_truncation)]
                let a = arcs.arc(ArcId(idx as u32)).clone();
                if !realize_arc(
                    &mut tree,
                    lib,
                    fp,
                    &luts,
                    &timings,
                    &a,
                    d_lp,
                    d_now,
                    &cfg.global,
                    &Obs::disabled(),
                ) {
                    return Err(ReplayError::RealizeFailed { round, arc: *arc });
                }
            }
        }
    }

    if phase_committed(records, "local") {
        for rec in records {
            let LedgerRecord::LocalCommit {
                iter,
                mv,
                committed: true,
                ..
            } = rec
            else {
                continue;
            };
            let m = Move::from_ledger_rec(mv).ok_or(ReplayError::BadMove { iter: *iter })?;
            apply_move(&mut tree, lib, fp, &cfg.local.move_cfg, &m)
                .map_err(|err| ReplayError::Apply { iter: *iter, err })?;
        }
    }

    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use clk_cts::{Testcase, TestcaseKind};
    use clk_sta::try_pair_skews;

    #[test]
    fn replayed_tree_times_identically() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 40, 36);
        let mut cfg = crate::flow::tests::quick_cfg();
        cfg.obs = Obs::new(clk_obs::ObsConfig {
            ledger: true,
            ..clk_obs::ObsConfig::default()
        });
        let report = crate::flow::tests::run(&tc, Flow::GlobalLocal, &cfg);
        let records = cfg.obs.ledger().records();
        let replayed = replay_ledger(&tc.tree, &tc.lib, &tc.floorplan, &cfg, &records)
            .expect("ledger replays onto its own input");
        replayed.validate().unwrap();

        // bit-identical golden timing: per-corner arrival skews of the
        // replayed tree match the recorded run's output tree exactly
        let timer = Timer::golden();
        let a_rec = timer.try_analyze_all(&report.tree, &tc.lib).unwrap();
        let a_rep = timer.try_analyze_all(&replayed, &tc.lib).unwrap();
        assert_eq!(a_rec.len(), a_rep.len());
        let pairs = report.tree.sink_pairs();
        for (tr, tp) in a_rec.iter().zip(&a_rep) {
            let s_rec = try_pair_skews(tr, pairs).unwrap();
            let s_rep = try_pair_skews(tp, replayed.sink_pairs()).unwrap();
            assert_eq!(s_rec, s_rep);
        }
        assert_eq!(
            report.tree.buffers().count(),
            replayed.buffers().count(),
            "replayed tree has a different buffer count"
        );
    }

    #[test]
    fn foreign_ledger_is_rejected() {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 40, 36);
        let cfg = crate::flow::tests::quick_cfg();
        // a ledger claiming an adopted round with an impossible arc id
        let records = vec![
            LedgerRecord::PhaseEnd {
                phase: "global".to_string(),
                committed: true,
                var: 0.0,
            },
            LedgerRecord::EcoArc {
                round: 0,
                lambda: 0.1,
                arc: 1_000_000,
                d_lp: vec![0.0; 3],
                d_now: vec![0.0; 3],
                realized: Some(vec![0.0; 3]),
                accepted: true,
                var: None,
            },
            LedgerRecord::RoundEnd {
                round: 0,
                winner_lambda: Some(0.1),
                adopted: true,
                var: 0.0,
            },
        ];
        let err = replay_ledger(&tc.tree, &tc.lib, &tc.floorplan, &cfg, &records)
            .expect_err("impossible arc id must be rejected");
        assert!(matches!(err, ReplayError::ArcOutOfRange { .. }), "{err}");
    }
}
