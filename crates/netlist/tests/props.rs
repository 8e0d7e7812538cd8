//! Property tests of the clock-tree database: random CTS-like builds,
//! arc-extraction invariants, `.ctree` round trips.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use clk_geom::Point;
use clk_liberty::{CellId, Library, StdCorners};
use clk_netlist::{io, ArcSet, ClockTree, NodeId, NodeKind, SinkIndex, SinkPair, TreeStats};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (0i64..200_000, 0i64..200_000).prop_map(|(x, y)| Point::new(x, y))
}

/// Builds a random tree: each new node attaches to a random live buffer.
fn build_tree(ops: &[(u8, usize, Point)]) -> ClockTree {
    let cell = CellId(2);
    let mut tree = ClockTree::new(Point::new(0, 0), cell);
    let b0 = tree.add_node(NodeKind::Buffer(cell), Point::new(1_000, 0), tree.root());
    let _ = tree.add_node(NodeKind::Sink, Point::new(2_000, 0), b0);
    for &(kind, pick, loc) in ops {
        let buffers: Vec<NodeId> = tree.buffers().collect();
        let parent = buffers[pick % buffers.len()];
        match kind % 3 {
            0 => {
                tree.add_node(NodeKind::Buffer(CellId(kind as usize % 5)), loc, parent);
            }
            1 => {
                tree.add_node(NodeKind::Sink, loc, parent);
            }
            _ => {
                // chain: buffer + sink below it
                let b = tree.add_node(NodeKind::Buffer(cell), loc, parent);
                tree.add_node(NodeKind::Sink, loc.offset(3_000, 1_000), b);
            }
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arc extraction covers every edge exactly once: the arc lengths sum
    /// to the total wirelength, and every sink's path ends at the root.
    #[test]
    fn arcs_partition_the_tree(ops in prop::collection::vec((0u8..255, 0usize..32, arb_point()), 1..40)) {
        let tree = build_tree(&ops);
        tree.validate().expect("generated trees are valid");
        let arcs = ArcSet::extract(&tree);
        let arc_total: f64 = arcs.arcs().iter().map(|a| a.length_um(&tree)).sum();
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let stats = TreeStats::compute(&tree, &lib);
        prop_assert!((arc_total - stats.wirelength_um).abs() < 1e-6,
            "arcs {arc_total} vs wire {}", stats.wirelength_um);
        // every interior node appears in exactly one arc
        let mut seen = std::collections::HashSet::new();
        for a in arcs.arcs() {
            for &n in &a.interior {
                prop_assert!(seen.insert(n), "node {n} in two arcs");
            }
        }
        for s in tree.sinks().collect::<Vec<_>>() {
            let path = arcs.path_arcs(&tree, s);
            prop_assert!(!path.is_empty());
            prop_assert_eq!(arcs.arc(path[0]).from, tree.root());
            prop_assert_eq!(arcs.arc(*path.last().unwrap()).to, s);
            // consecutive arcs chain junction to junction
            for w in path.windows(2) {
                prop_assert_eq!(arcs.arc(w[0]).to, arcs.arc(w[1]).from);
            }
        }
    }

    /// `.ctree` round-trips arbitrary generated trees.
    #[test]
    fn ctree_roundtrip(ops in prop::collection::vec((0u8..255, 0usize..32, arb_point()), 1..25)) {
        let lib = Library::synthetic_28nm(StdCorners::c0_c1_c3());
        let mut tree = build_tree(&ops);
        let sinks: Vec<NodeId> = tree.sinks().collect();
        if sinks.len() >= 2 {
            tree.set_sink_pairs(vec![SinkPair::new(sinks[0], sinks[1])]);
        }
        let text = io::write_ctree(&tree, &lib);
        let back = io::parse_ctree(&text, &lib).expect("own output parses");
        prop_assert_eq!(back.len(), tree.len());
        prop_assert_eq!(back.sinks().count(), tree.sinks().count());
        prop_assert_eq!(back.sink_pairs().len(), tree.sink_pairs().len());
        let wl = |t: &ClockTree| TreeStats::compute(t, &lib).wirelength_um;
        prop_assert!((wl(&tree) - wl(&back)).abs() < 1e-9);
    }

    /// Buffer removal strictly decreases the buffer count and never breaks
    /// validity, regardless of which buffer goes.
    #[test]
    fn removal_sequences_stay_valid(ops in prop::collection::vec((0u8..255, 0usize..32, arb_point()), 5..30),
                                    removals in prop::collection::vec(0usize..64, 1..10)) {
        let mut tree = build_tree(&ops);
        for &r in &removals {
            let buffers: Vec<NodeId> = tree.buffers().collect();
            if buffers.len() <= 1 {
                break;
            }
            let victim = buffers[r % buffers.len()];
            let before = tree.buffers().count();
            tree.remove_buffer(victim).expect("victim is a buffer");
            prop_assert_eq!(tree.buffers().count(), before - 1);
            prop_assert!(tree.validate().is_ok());
        }
    }

    /// Euler-tour subtree intervals list exactly the sinks an ancestor
    /// walk finds, for every live node — also after buffer removals have
    /// left tombstones and re-parented subtrees — and the sink→pair index
    /// lists exactly the pairs touching each sink, in ascending order.
    #[test]
    fn euler_intervals_match_descendant_scan(ops in prop::collection::vec((0u8..255, 0usize..32, arb_point()), 1..40),
                                             removals in prop::collection::vec(0usize..64, 0..6),
                                             picks in prop::collection::vec((0usize..64, 0usize..64), 0..30)) {
        let mut tree = build_tree(&ops);
        for &r in &removals {
            let buffers: Vec<NodeId> = tree.buffers().collect();
            if buffers.len() <= 1 {
                break;
            }
            tree.remove_buffer(buffers[r % buffers.len()]).expect("victim is a buffer");
        }
        let sinks: Vec<NodeId> = tree.sinks().collect();
        let pairs: Vec<SinkPair> = picks
            .iter()
            .map(|&(a, b)| SinkPair::new(sinks[a % sinks.len()], sinks[b % sinks.len()]))
            .collect();
        let idx = SinkIndex::new(&tree, &pairs);
        prop_assert_eq!(idx.sink_count(), sinks.len());
        for n in tree.node_ids() {
            let scan: Vec<NodeId> = tree.sinks().filter(|&s| tree.is_descendant(s, n)).collect();
            let mut euler = idx.subtree_sinks(n).to_vec();
            euler.sort_unstable();
            prop_assert_eq!(euler, scan, "subtree of {}", n);
        }
        for &s in &sinks {
            let p = idx.position(s).expect("live sinks are indexed");
            let scan: Vec<u32> = (0..pairs.len() as u32)
                .filter(|&i| pairs[i as usize].a == s || pairs[i as usize].b == s)
                .collect();
            prop_assert_eq!(idx.pairs_of(p), &scan[..], "pairs of {}", s);
        }
    }
}
