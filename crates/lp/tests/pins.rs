//! Bit-exact pins of the simplex solver's output.
//!
//! Thirty seeded LPs of 100–300 rows mix `≤`, `≥` and `=` rows (so phase
//! 1 runs), boxed, half-bounded, free and fixed variables (so bound flips
//! and degenerate pivots occur), and rows tight at a known feasible point
//! (so ties and degeneracy are common). One case carries a contradictory
//! row pair and must come back with a Farkas ray. For each case an
//! FNV-1a hash over the pivot count, the objective, `x`, the
//! certificate's duals, reduced costs, basis and statuses, or over the
//! ray, is compared with the value the dense row-major solver produced
//! before B⁻¹ moved to column-major, changed-column updates. Any change
//! in floating-point results inside the solver shows up here as a
//! changed hash.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_lp::{solve_certified_with_deadline, Certified, Problem, RowKind, VarId};
use clk_obs::{Deadline, Obs, ObsConfig};

#[path = "support/outcome_hash.rs"]
mod outcome_hash;
use outcome_hash::outcome_hash;

const INF: f64 = f64::INFINITY;

/// Index of the case that is made infeasible on purpose.
const INFEASIBLE_CASE: usize = 17;

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Case `case`: a feasible, bounded LP built around a random point `x0`
/// inside the variable bounds. Every row's right-hand side is set from
/// its activity at `x0` (tight for a share of rows), and each variable
/// with an infinite bound is capped by a `≤` and a `≥` row, so the LP
/// has an optimum.
fn case_problem(case: usize) -> Problem {
    let mut rng =
        Rng(0x9E37_79B9_7F4A_7C15 ^ (case as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let n_rows = 100 + (case * 37) % 201;
    let n_vars = 40 + rng.below(n_rows / 3);
    let mut p = Problem::new();
    let mut vars: Vec<(VarId, f64)> = Vec::with_capacity(n_vars);
    let mut capped: Vec<VarId> = Vec::new();
    for _ in 0..n_vars {
        let cost = if rng.unit() < 0.2 {
            0.0
        } else {
            (rng.unit() - 0.4) * 4.0
        };
        let kind = rng.unit();
        let (lo, hi, x0) = if kind < 0.55 {
            // boxed
            let lo = (rng.unit() - 0.5) * 4.0;
            let hi = lo + 0.5 + 3.0 * rng.unit();
            (lo, hi, lo + (hi - lo) * rng.unit())
        } else if kind < 0.70 {
            // half-bounded below
            let lo = rng.unit() - 0.5;
            (lo, INF, lo + 2.0 * rng.unit())
        } else if kind < 0.78 {
            // half-bounded above
            let hi = rng.unit() - 0.5;
            (-INF, hi, hi - 2.0 * rng.unit())
        } else if kind < 0.90 {
            // free
            (-INF, INF, (rng.unit() - 0.5) * 3.0)
        } else {
            // fixed
            let v = (rng.unit() - 0.5) * 2.0;
            (v, v, v)
        };
        let v = p.add_var(lo, hi, cost).expect("valid variable");
        if lo.is_infinite() || hi.is_infinite() {
            capped.push(v);
        }
        vars.push((v, x0));
    }
    let cap_rows = 2 * capped.len();
    for i in 0..n_rows.saturating_sub(cap_rows).max(30) {
        let nnz = 2 + rng.below(6);
        let mut terms = Vec::with_capacity(nnz);
        let mut act = 0.0;
        for _ in 0..nnz {
            let (v, x0) = vars[rng.below(vars.len())];
            // a share of unit coefficients makes exact ties common
            let a = if rng.unit() < 0.3 {
                if rng.unit() < 0.5 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                (rng.unit() - 0.5) * 4.0
            };
            terms.push((v, a));
            act += a * x0;
        }
        let tight = rng.unit() < 0.3;
        let slack = if tight { 0.0 } else { 0.1 + 2.0 * rng.unit() };
        let (kind, rhs) = match i % 5 {
            0 | 1 => (RowKind::Le, act + slack),
            2 | 3 => (RowKind::Ge, act - slack),
            _ => (RowKind::Eq, act),
        };
        p.add_row(kind, rhs, &terms).expect("valid row");
    }
    for v in capped {
        let x0 = vars[v.0].1;
        let m = 5.0 + 10.0 * rng.unit();
        p.add_row(RowKind::Le, x0.abs() + m, &[(v, 1.0)])
            .expect("valid cap");
        p.add_row(RowKind::Ge, -x0.abs() - m, &[(v, 1.0)])
            .expect("valid cap");
    }
    if case == INFEASIBLE_CASE {
        // Σ terms ≤ 1 and Σ terms ≥ 2 over the same terms
        let terms: Vec<(VarId, f64)> = vars.iter().take(6).map(|&(v, _)| (v, 1.0)).collect();
        p.add_row(RowKind::Le, 1.0, &terms).expect("valid row");
        p.add_row(RowKind::Ge, 2.0, &terms).expect("valid row");
    }
    p
}

/// Hashes recorded from the dense row-major solver, one per case.
const PINS: [u64; 30] = [
    0xf73f_0180_c547_3009,
    0x7f5a_03e3_d100_5fda,
    0x49f7_a5e5_f60f_0de2,
    0x8a1e_4026_5f05_1f1e,
    0x85d6_ae7f_494d_ba6b,
    0x1bcd_855e_409b_635c,
    0x37e5_5abc_33c3_dbb8,
    0x4a93_22e1_3a09_d4b4,
    0x146c_82d8_40de_5470,
    0x9476_b30a_5e9e_fda6,
    0x2e4e_f1b8_0e81_0422,
    0xee05_da0c_5a46_58cf,
    0xa72b_ba05_8487_e202,
    0x4dc5_c641_dfb7_7756,
    0xfc98_1623_d183_f142,
    0x4231_332d_9590_c967,
    0xc450_8594_31b9_9667,
    0xc5e6_b54e_095d_2b29,
    0x544b_882f_1d5d_1b9f,
    0x23cb_c7da_48c6_f01e,
    0x666b_a214_5a69_f6fb,
    0x6f9e_f993_b680_4315,
    0x9e7f_f67a_b5e1_bb2a,
    0x7d93_7b2a_2207_1649,
    0x6b5c_3e08_9e47_7d40,
    0x966c_e716_2254_a59e,
    0x6374_d14f_fcd8_44d8,
    0xf518_5f34_7eae_c5ea,
    0xcaab_f1ab_e171_7291,
    0x92e4_a1cd_4b9b_7fad,
];

#[test]
fn seeded_lps_cover_every_row_and_bound_kind() {
    for case in 0..PINS.len() {
        let p = case_problem(case);
        assert!(
            (100..=300).contains(&p.num_rows()),
            "case {case}: {} rows",
            p.num_rows()
        );
        let kinds: Vec<RowKind> = (0..p.num_rows())
            .map(|i| p.row(i).expect("row in range").0)
            .collect();
        for k in [RowKind::Le, RowKind::Ge, RowKind::Eq] {
            assert!(kinds.contains(&k), "case {case}: no {k:?} row");
        }
        let bounds: Vec<(f64, f64)> = (0..p.num_vars())
            .map(|j| p.bounds(VarId(j)).expect("var in range"))
            .collect();
        #[allow(clippy::float_cmp)] // fixed bounds are set bit-identically
        let fixed = bounds.iter().any(|&(l, h)| l == h);
        assert!(fixed, "case {case}: no fixed variable");
        assert!(
            bounds
                .iter()
                .any(|&(l, h)| l.is_infinite() && h.is_infinite()),
            "case {case}: no free variable"
        );
    }
}

#[test]
fn solver_output_matches_recorded_hashes() {
    let obs = Obs::new(ObsConfig::default());
    let mut got = Vec::with_capacity(PINS.len());
    for case in 0..PINS.len() {
        let c = solve_certified_with_deadline(&case_problem(case), &obs, &Deadline::none())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        match &c {
            Certified::Optimal(s) => {
                assert_ne!(case, INFEASIBLE_CASE, "case {case} must be infeasible");
                assert!(s.iterations > 0, "case {case}: no pivots");
            }
            Certified::Infeasible { .. } => {
                assert_eq!(case, INFEASIBLE_CASE, "case {case} must be feasible");
            }
        }
        got.push(outcome_hash(&c));
    }
    let counter = |name: &str| obs.counter(name).map_or(0, |c| c.get());
    assert!(counter("lp.bound_flips") > 0, "no bound flip in the suite");
    assert!(
        counter("lp.degenerate_pivots") > 0,
        "no degenerate pivot in the suite"
    );
    let pins: Vec<u64> = PINS.to_vec();
    assert_eq!(got, pins, "solver output drifted; got {got:#018x?}");
}
