//! Bit-exact pins of the flow's real LP.
//!
//! The first global round of each quick-suite case (CLS1v1, CLS1v2 and
//! CLS2v1 at 48 sinks, seeds 2015–2017, quick global configuration) is
//! built at both swept λ values with [`round_problem`] and solved. An
//! FNV-1a hash over the pivot count, the objective, `x` and the
//! certificate's duals, reduced costs, basis and statuses is compared
//! with the value the dense row-major solver produced before B⁻¹ moved
//! to column-major, changed-column updates, and every certificate must
//! verify in exact arithmetic.

use clk_cts::{Testcase, TestcaseKind};
use clk_lp::Certified;
use clk_skewopt::{round_problem, GlobalConfig, LpObjective, StageLuts};

#[path = "../../lp/tests/support/outcome_hash.rs"]
mod outcome_hash;
use outcome_hash::outcome_hash;

/// The quick suite's global configuration.
fn quick_global() -> GlobalConfig {
    GlobalConfig {
        max_pairs: 60,
        lambdas: vec![0.05, 0.3],
        rounds: 2,
        ..GlobalConfig::default()
    }
}

/// Rows of every round-one LP of the quick suite.
const ROWS: usize = 1302;

/// `(case, seed, hash per swept λ)` recorded from the dense row-major
/// solver.
const PINS: [(TestcaseKind, u64, [u64; 2]); 3] = [
    (
        TestcaseKind::Cls1v1,
        2015,
        [0x97d0_c93e_831b_8b79, 0xc774_8c4b_2c3a_7dba],
    ),
    (
        TestcaseKind::Cls1v2,
        2016,
        [0xe3e2_11ec_fd98_2253, 0x6c94_9642_510f_fae2],
    ),
    (
        TestcaseKind::Cls2v1,
        2017,
        [0x41d1_0dbe_191e_2673, 0xb1e4_44c1_4a86_2b5f],
    ),
];

#[test]
fn quick_suite_round_one_lps_solve_bit_identically() {
    let cfg = quick_global();
    for (kind, seed, hashes) in PINS {
        let tc = Testcase::generate(kind, 48, seed);
        let luts = StageLuts::characterize(&tc.lib);
        for (&lambda, want) in cfg.lambdas.iter().zip(hashes) {
            let case = format!("{kind:?}/{seed} λ={lambda}");
            let p = round_problem(
                &tc.tree,
                &tc.lib,
                &luts,
                &cfg,
                LpObjective::Scalarized(lambda),
            )
            .expect("quick-suite trees time and build");
            assert_eq!(p.num_rows(), ROWS, "{case}: rows");
            let c = clk_lp::solve_certified(&p).expect("round-one LP solves");
            let Certified::Optimal(sol) = &c else {
                panic!("{case}: infeasible");
            };
            let report = clk_cert::check(&p, sol);
            assert!(report.ok(), "{case}: {:?}", report.violations);
            let got = outcome_hash(&c);
            assert_eq!(got, want, "{case}: solver output drifted; got {got:#018x}");
        }
    }
}
