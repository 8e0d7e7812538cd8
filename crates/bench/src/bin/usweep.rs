//! The paper's literal LP formulation (§4.1): minimize `Σ|Δ|` subject to
//! `Σ V ≤ U`, sweeping the bound `U` — the Pareto curve between ECO effort
//! and achievable skew-variation sum that the scalarized flow walks
//! implicitly.

use clk_bench::ExpArgs;
use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{u_sweep, GlobalConfig, StageLuts};

fn main() {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 96 });
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, args.seed);
    let luts = StageLuts::characterize(&tc.lib);
    let cfg = GlobalConfig {
        max_pairs: if args.quick { 40 } else { 100 },
        ..GlobalConfig::default()
    };
    println!(
        "U-sweep on {} ({n} sinks): min sum|delta| s.t. sum V <= U",
        tc.kind.name()
    );
    println!(
        "{:>12} {:>16} {:>10}",
        "U (ps)", "sum|delta| (ps)", "feasible"
    );
    let curve = match u_sweep(&tc.tree, &tc.lib, &luts, &cfg, 8) {
        Ok(curve) => curve,
        Err(e) => {
            eprintln!("usweep: {e}");
            std::process::exit(1);
        }
    };
    for p in curve {
        println!(
            "{:>12.1} {:>16.1} {:>10}",
            p.u,
            p.total_delta,
            if p.feasible { "yes" } else { "no" }
        );
    }
    println!("\npaper: the bound is swept to find the achievable solution with the");
    println!("minimum sum of skew variations; smaller U demands more ECO delay change");
}
