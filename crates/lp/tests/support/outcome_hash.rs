//! The hash the bit-exact solver pins compare: FNV-1a over a solver
//! outcome's pivot count, objective, `x`, certificate (duals, reduced
//! costs, basis, statuses) or Farkas ray, every float as its bits.
//! Shared by `crates/lp/tests/pins.rs` and
//! `crates/core/tests/lp_exact.rs`.

use clk_lp::{Certified, VarStatus};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// The hash of one solver outcome.
pub fn outcome_hash(c: &Certified) -> u64 {
    let mut h = Fnv::new();
    match c {
        Certified::Optimal(s) => {
            h.word(1);
            h.word(s.iterations as u64);
            h.word(s.objective.to_bits());
            h.floats(&s.x);
            h.floats(&s.certificate.y);
            h.floats(&s.certificate.reduced);
            h.word(s.certificate.basis.len() as u64);
            for &b in &s.certificate.basis {
                h.word(b as u64);
            }
            h.word(s.certificate.status.len() as u64);
            for st in &s.certificate.status {
                h.word(match st {
                    VarStatus::Basic => 0,
                    VarStatus::AtLower => 1,
                    VarStatus::AtUpper => 2,
                    VarStatus::Free => 3,
                });
            }
        }
        Certified::Infeasible { ray } => {
            h.word(2);
            h.floats(&ray.y);
        }
    }
    h.0
}
