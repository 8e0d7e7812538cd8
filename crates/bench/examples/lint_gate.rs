//! Demonstrates the flow's lint gates: a fresh testcase passes the
//! full audit, while a corrupted tree is rejected at the phase boundary
//! with a typed error carrying the offending diagnostics.
//!
//! Run with `cargo run -p clk-bench --example lint_gate` (the gates are
//! active in debug builds; in release they are off by default).

use clk_cts::{Testcase, TestcaseKind};
use clk_lint::LintLevel;
use clk_skewopt::check_lint_gate;

fn main() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 24, 7);

    check_lint_gate(
        "demo (clean tree)",
        LintLevel::ErrorsOnly,
        &tc.tree,
        &tc.lib,
        &tc.floorplan,
    )
    .expect("a fresh testcase passes the gate");
    println!("clean tree: gate passed");

    // corrupt a parent/child link the way a buggy ECO might
    let mut bad = tc.tree.clone();
    let victim = bad
        .buffers()
        .find(|&b| bad.parent(b).and_then(|p| bad.parent(p)).is_some())
        .expect("multi-level tree");
    let parent = bad.parent(victim).expect("has parent");
    bad.debug_unlink_child(parent, victim);

    match check_lint_gate(
        "demo (corrupted tree)",
        LintLevel::ErrorsOnly,
        &bad,
        &tc.lib,
        &tc.floorplan,
    ) {
        Ok(()) => println!("corrupted tree: gate let it through (BUG)"),
        Err(e) => println!("corrupted tree: gate rejected it\n{e}"),
    }
}
