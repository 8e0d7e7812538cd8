//! The benchmark's workloads: which flow runs, on which generated
//! testcases, under which configuration.

use clk_cts::TestcaseKind;
use clk_skewopt::{Flow, FlowConfig, GlobalConfig, LocalConfig};

/// Local-phase worker threads, pinned so every run loads the machine
/// the same way (QoR is byte-identical for any worker count).
pub const LOCAL_WORKERS: usize = 2;

/// Generator seed of the timed testcases. Designs drawn from different
/// seeds differ in flow time by up to 5x per case, far more than the
/// run-to-run noise a regression bound can tolerate, so the timed
/// corpus is fixed and `--seed` drives the canary instead.
pub const CORPUS_SEED: u64 = 2015;

/// Sink count of the canary design.
pub const CANARY_SINKS: usize = 16;

/// One testcase of a workload: generator kind and generator seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub kind: TestcaseKind,
    pub seed: u64,
}

/// A named workload: one flow run on each of its testcases in turn by a
/// single client (a closed loop), plus one untimed run of the same flow
/// on a small canary design generated from the run's seed, checked like
/// the others.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub flow: Flow,
    pub sinks: usize,
    pub cases: Vec<Case>,
    pub cfg: FlowConfig,
    pub canary: Case,
    pub canary_cfg: FlowConfig,
}

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["quick48", "lp128", "local96"];

/// The workload `name` with its canary drawn from `seed`, or `None` for
/// an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let quick = clockvar_workbench::quick_flow_config();
    let case = |kind, offset| Case {
        kind,
        seed: CORPUS_SEED + offset,
    };
    let (flow, sinks, cases, mut cfg) = match name {
        // the paper's headline flow on the CI QoR suite (`qor --quick`)
        "quick48" => (
            Flow::GlobalLocal,
            48,
            vec![
                case(TestcaseKind::Cls1v1, 0),
                case(TestcaseKind::Cls1v2, 1),
                case(TestcaseKind::Cls2v1, 2),
            ],
            quick.clone(),
        ),
        // the LP layer alone, at a representative 2.7k-row size
        "lp128" => (
            Flow::Global,
            128,
            vec![case(TestcaseKind::Cls1v1, 0)],
            FlowConfig {
                global: GlobalConfig {
                    lambdas: vec![0.02, 0.1],
                    rounds: 1,
                    ..GlobalConfig::default()
                },
                ..FlowConfig::default()
            },
        ),
        // the local layer alone: a chain of committed moves, each
        // mutating the tree between scorings
        "local96" => (
            Flow::Local,
            96,
            vec![case(TestcaseKind::Cls1v1, 0)],
            FlowConfig {
                local: LocalConfig {
                    max_iterations: 12,
                    ..LocalConfig::default()
                },
                train: quick.train.clone(),
                ..FlowConfig::default()
            },
        ),
        _ => return None,
    };
    cfg.local.workers = LOCAL_WORKERS;
    // same kind as the first case, so it shares that case's artifacts;
    // a two-move local phase keeps it cheap
    let canary = Case {
        kind: cases[0].kind,
        seed,
    };
    let mut canary_cfg = quick;
    canary_cfg.local.max_iterations = 2;
    canary_cfg.local.workers = LOCAL_WORKERS;
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        flow,
        sinks,
        cases,
        cfg,
        canary,
        canary_cfg,
    })
}

impl Workload {
    /// Whether the flow runs the global phase (and so needs stage LUTs).
    pub fn needs_luts(&self) -> bool {
        matches!(self.flow, Flow::Global | Flow::GlobalLocal)
    }

    /// Whether the flow runs the local phase (and so needs a predictor).
    pub fn needs_model(&self) -> bool {
        matches!(self.flow, Flow::Local | Flow::GlobalLocal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_unknown_names_do_not() {
        for name in NAMES {
            assert_eq!(workload(name, 1).expect("known").name, name);
        }
        assert!(workload("nope", 1).is_none());
    }

    #[test]
    fn quick48_is_the_qor_quick_suite() {
        let w = workload("quick48", 9).expect("known");
        assert_eq!(w.flow, Flow::GlobalLocal);
        assert_eq!(w.sinks, 48);
        let kinds: Vec<_> = w.cases.iter().map(|c| (c.kind, c.seed)).collect();
        assert_eq!(
            kinds,
            [
                (TestcaseKind::Cls1v1, 2015),
                (TestcaseKind::Cls1v2, 2016),
                (TestcaseKind::Cls2v1, 2017)
            ]
        );
        assert_eq!(w.cfg.global.max_pairs, 60);
        assert_eq!(w.cfg.global.lambdas, [0.05, 0.3]);
        assert_eq!(w.cfg.global.rounds, 2);
        assert_eq!(w.cfg.local.max_iterations, 6);
        assert_eq!(w.cfg.local.max_batches, 2);
        assert_eq!(w.cfg.train.n_cases, 10);
        assert_eq!(w.cfg.train.moves_per_case, 16);
        assert!(w.needs_luts() && w.needs_model());
    }

    #[test]
    fn lp128_runs_one_global_round_of_two_lambdas() {
        let w = workload("lp128", 7).expect("known");
        assert_eq!(w.flow, Flow::Global);
        assert_eq!(w.sinks, 128);
        let kinds: Vec<_> = w.cases.iter().map(|c| (c.kind, c.seed)).collect();
        assert_eq!(kinds, [(TestcaseKind::Cls1v1, 2015)]);
        assert_eq!(w.cfg.global.max_pairs, 120);
        assert_eq!(w.cfg.global.lambdas, [0.02, 0.1]);
        assert_eq!(w.cfg.global.rounds, 1);
        assert!(w.needs_luts() && !w.needs_model());
    }

    #[test]
    fn local96_runs_a_twelve_move_local_phase_with_quick_training() {
        let w = workload("local96", 7).expect("known");
        assert_eq!(w.flow, Flow::Local);
        assert_eq!(w.sinks, 96);
        let kinds: Vec<_> = w.cases.iter().map(|c| (c.kind, c.seed)).collect();
        assert_eq!(kinds, [(TestcaseKind::Cls1v1, 2015)]);
        assert_eq!(w.cfg.local.max_iterations, 12);
        assert_eq!(w.cfg.local.max_batches, 8);
        assert_eq!(w.cfg.train.n_cases, 10);
        assert_eq!(w.cfg.train.moves_per_case, 16);
        assert!(!w.needs_luts() && w.needs_model());
    }

    #[test]
    fn only_the_canary_follows_the_seed() {
        for name in NAMES {
            let (a, b) = (
                workload(name, 1).expect("known"),
                workload(name, 2).expect("known"),
            );
            assert_eq!(a.cases, b.cases);
            assert_eq!((a.canary.kind, a.canary.seed), (a.cases[0].kind, 1));
            assert_eq!(b.canary.seed, 2);
            assert_eq!(a.canary_cfg.local.max_iterations, 2);
            if a.needs_model() {
                // the canary reuses the first case's trained model
                assert_eq!(a.canary_cfg.train.n_cases, a.cfg.train.n_cases);
                assert_eq!(a.canary_cfg.train.seed, a.cfg.train.seed);
            }
        }
    }

    #[test]
    fn local_workers_are_pinned_everywhere() {
        for name in NAMES {
            let w = workload(name, 1).expect("known");
            assert_eq!(w.cfg.local.workers, LOCAL_WORKERS);
            assert_eq!(w.canary_cfg.local.workers, LOCAL_WORKERS);
        }
    }
}
