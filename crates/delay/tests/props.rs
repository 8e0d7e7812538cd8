//! Property tests of the RC/delay substrate.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_delay::{peri_slew, NetTiming, RcTree, WireModel};
use clk_geom::Point;
use clk_liberty::WireRc;
use clk_route::WireTree;
use proptest::prelude::*;

/// Random RC ladders/trees in topological order.
fn arb_rc() -> impl Strategy<Value = RcTree> {
    prop::collection::vec((0.01f64..5.0, 0.01f64..20.0, 0usize..1000), 1..30).prop_map(|spec| {
        let n = spec.len() + 1;
        let mut parent = vec![None];
        let mut res = vec![0.0];
        let mut cap = vec![0.0];
        for (i, &(r, c, p)) in spec.iter().enumerate() {
            parent.push(Some(p % (i + 1)));
            res.push(r);
            cap.push(c);
        }
        let _ = n;
        RcTree::from_raw(parent, res, cap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Elmore dominates D2M everywhere, both are nonnegative, and the
    /// Elmore delay is monotone along every root-to-node path.
    #[test]
    fn delay_metric_orderings(tree in arb_rc()) {
        let t = NetTiming::analyze(&tree);
        for i in 0..tree.node_count() {
            let elm = t.elmore_ps(i);
            let d2m = t.delay_ps(i, WireModel::D2m);
            prop_assert!(elm >= 0.0 && d2m >= 0.0);
            prop_assert!(d2m <= elm + 1e-9, "node {i}: d2m {d2m} > elmore {elm}");
            if let Some(p) = tree.parent(i) {
                prop_assert!(elm >= t.elmore_ps(p) - 1e-12);
            }
            prop_assert!(t.wire_slew_ps(i).is_finite());
            prop_assert!(t.wire_slew_ps(i) >= 0.0);
        }
    }

    /// Uniformly scaling every capacitance scales every Elmore delay by
    /// the same factor (linearity).
    #[test]
    fn elmore_linear_in_cap(tree in arb_rc(), k in 0.5f64..4.0) {
        let scaled = {
            let n = tree.node_count();
            let parent: Vec<Option<usize>> = (0..n).map(|i| tree.parent(i)).collect();
            let res: Vec<f64> = (0..n).map(|i| tree.res_kohm(i)).collect();
            let cap: Vec<f64> = (0..n).map(|i| tree.cap_ff(i) * k).collect();
            RcTree::from_raw(parent, res, cap)
        };
        let a = NetTiming::analyze(&tree);
        let b = NetTiming::analyze(&scaled);
        for i in 0..tree.node_count() {
            prop_assert!((b.elmore_ps(i) - k * a.elmore_ps(i)).abs() < 1e-6 * (1.0 + a.elmore_ps(i)));
        }
    }

    /// Refining the extraction pitch never changes total cap and always
    /// reduces (or preserves) the far-end Elmore delay of a single wire.
    #[test]
    fn segmentation_refines_monotonically(len_um in 10.0f64..800.0, pitch in 1.0f64..50.0) {
        let mut wt = WireTree::new(Point::new(0, 0));
        let far = wt.add_child(WireTree::ROOT, Point::from_um(len_um, 0.0));
        let rc = WireRc { r_per_um: 2.0e-3, c_per_um: 0.2 };
        let coarse = RcTree::extract(&wt, rc, &[(far, 2.0)], 1e9);
        let fine = RcTree::extract(&wt, rc, &[(far, 2.0)], pitch);
        prop_assert!((coarse.total_cap_ff() - fine.total_cap_ff()).abs() < 1e-9);
        let dc = NetTiming::analyze(&coarse).elmore_ps(coarse.rc_node_of_wire_node(far));
        let df = NetTiming::analyze(&fine).elmore_ps(fine.rc_node_of_wire_node(far));
        // π-lumping of a bare line is exact; with a far-end load the
        // lumped model cannot be more optimistic than the refined one
        prop_assert!(df <= dc + 1e-9, "fine {df} > coarse {dc}");
    }

    /// The lumped analysis on the wire tree reproduces the single-segment
    /// extraction plus moment analysis bit for bit, at every node.
    #[test]
    fn lumped_analysis_matches_extraction(
        edges in prop::collection::vec((0usize..1000, -200_000i64..200_000, -200_000i64..200_000), 0..30),
        loads in prop::collection::vec((0usize..1000, 0.0f64..30.0), 0..12),
    ) {
        let mut wt = WireTree::new(Point::new(0, 0));
        for &(p, x, y) in &edges {
            wt.add_child(p % wt.node_count(), Point::new(x, y));
        }
        let loads: Vec<(usize, f64)> = loads.iter().map(|&(w, c)| (w % wt.node_count(), c)).collect();
        let rc = WireRc { r_per_um: 2.3e-3, c_per_um: 0.17 };
        let rct = RcTree::extract(&wt, rc, &loads, 1.0e9);
        let full = NetTiming::analyze(&rct);
        let mut lumped = NetTiming::default();
        lumped.reanalyze_lumped(&wt, rc, loads.iter().copied());
        prop_assert_eq!(full.total_cap_ff().to_bits(), lumped.total_cap_ff().to_bits());
        for w in 0..wt.node_count() {
            let r = rct.rc_node_of_wire_node(w);
            prop_assert_eq!(full.elmore_ps(r).to_bits(), lumped.elmore_ps(w).to_bits());
            prop_assert_eq!(full.m2(r).to_bits(), lumped.m2(w).to_bits());
        }
    }

    /// PERI merging is symmetric, monotone and bounded below by max.
    #[test]
    fn peri_properties(a in 0.0f64..500.0, b in 0.0f64..500.0, c in 0.0f64..500.0) {
        prop_assert!((peri_slew(a, b) - peri_slew(b, a)).abs() < 1e-12);
        prop_assert!(peri_slew(a, b) >= a.max(b) - 1e-12);
        prop_assert!(peri_slew(a, b) <= a + b + 1e-12);
        if c >= b {
            prop_assert!(peri_slew(a, c) >= peri_slew(a, b) - 1e-12);
        }
    }

    /// SPEF output stays parseable in shape: resistor count = n-1 and the
    /// header carries the exact total cap.
    #[test]
    fn spef_shape(tree in arb_rc()) {
        let s = clk_delay::spef::write_spef("n", &tree);
        let res_lines = s
            .lines()
            .skip_while(|l| !l.starts_with("*RES"))
            .skip(1)
            .take_while(|l| !l.starts_with('*'))
            .count();
        prop_assert_eq!(res_lines, tree.node_count() - 1);
    }
}
