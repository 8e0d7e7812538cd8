//! Related-work comparison (paper §2): LP-based worst-skew optimization
//! in the style of Lung et al. \[VLSI-DAT'10\] vs the paper's
//! sum-of-variation framework, on the same testcase and ECO substrate.
//!
//! The paper argues that minimizing worst skew (or per-corner skew) does
//! not address *cross-corner disagreement*; this experiment makes the
//! two objectives race on both metrics.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_bench::{ExpArgs, Stopwatch};
use clk_cts::{Testcase, TestcaseKind};
use clk_skewopt::{global_optimize, worst_skew_optimize, FaultCtx, GlobalConfig, StageLuts};

fn main() {
    let args = ExpArgs::parse();
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 96 });
    let sw = Stopwatch::start("related_lung");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, args.seed);
    let luts = StageLuts::characterize(&tc.lib);

    let gcfg = GlobalConfig {
        max_pairs: if args.quick { 40 } else { 100 },
        rounds: 2,
        ..GlobalConfig::default()
    };
    let mut ctx = FaultCtx::passive();
    let (_, ours) = global_optimize(
        &tc.tree,
        &tc.lib,
        &tc.floorplan,
        &luts,
        &gcfg,
        None,
        &mut ctx,
    )
    .expect("CTS trees time");
    let (_, lung) = worst_skew_optimize(
        &tc.tree,
        &tc.lib,
        &tc.floorplan,
        &luts,
        gcfg.max_pairs,
        0.05,
    );

    println!("objective comparison on {} ({n} sinks):", tc.kind.name());
    println!(
        "{:<28} {:>18} {:>18}",
        "flow", "sum variation (ps)", "worst skew (ps)"
    );
    println!(
        "{:<28} {:>18.1} {:>18.1}",
        "original", ours.variation_before, lung.worst_before
    );
    println!(
        "{:<28} {:>18.1} {:>18}",
        "this paper (variation LP)", ours.variation_after, "(guarded)"
    );
    println!(
        "{:<28} {:>18.1} {:>18.1}",
        "Lung-style (worst-skew LP)", lung.variation_after, lung.worst_after
    );
    println!(
        "\nvariation reduction: paper objective {:.1}%, worst-skew objective {:.1}%",
        100.0 * (1.0 - ours.variation_after / ours.variation_before),
        100.0 * (1.0 - lung.variation_after / lung.variation_before),
    );
    println!("(the paper's claim: optimizing worst skew leaves most cross-corner");
    println!(" variation on the table — the right column's objective barely moves");
    println!(" the left column's metric)");
    sw.report();
}
