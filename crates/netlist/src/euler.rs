//! Euler-tour sink intervals and a sink→pair index.
//!
//! A depth-first preorder walk lists every sink of a subtree as one
//! contiguous run, so "the sinks below node `n`" is a slice lookup
//! instead of a scan of every sink with an ancestor walk each. The
//! companion sink→pair index lists, per sink, the indices of the sink
//! pairs that touch it, in ascending pair order.

use std::ops::Range;

use crate::pairs::SinkPair;
use crate::tree::{ClockTree, NodeId, NodeKind};

/// Marks node slots that are not sinks (or not live) in [`SinkIndex::pos`].
const NONE: u32 = u32::MAX;

/// Subtree sink intervals of one tree plus the pairs touching each sink.
///
/// Built once for a fixed tree; any edit to the tree's structure makes it
/// stale.
///
/// ```
/// use clk_geom::Point;
/// use clk_liberty::CellId;
/// use clk_netlist::{ClockTree, NodeKind, SinkIndex, SinkPair};
///
/// let mut t = ClockTree::new(Point::new(0, 0), CellId(0));
/// let b = t.add_node(NodeKind::Buffer(CellId(0)), Point::new(10, 0), t.root());
/// let s1 = t.add_node(NodeKind::Sink, Point::new(20, 0), b);
/// let s2 = t.add_node(NodeKind::Sink, Point::new(0, 20), t.root());
/// let idx = SinkIndex::new(&t, &[SinkPair::new(s1, s2)]);
/// assert_eq!(idx.subtree_sinks(b), &[s1]);
/// assert_eq!(idx.subtree_sinks(t.root()).len(), 2);
/// let p = idx.position(s2).expect("a sink");
/// assert_eq!(idx.pairs_of(p), &[0]);
/// ```
#[derive(Debug, Clone)]
pub struct SinkIndex {
    /// Live sinks in depth-first preorder.
    order: Vec<NodeId>,
    /// Per node slot: the `[lo, hi)` run of its subtree's sinks in `order`.
    span: Vec<(u32, u32)>,
    /// Per node slot: the sink's position in `order`, or [`NONE`].
    pos: Vec<u32>,
    /// CSR offsets into `pair_ids`, one run per sink position.
    pair_off: Vec<u32>,
    /// Pair indices touching each sink, ascending within a run.
    pair_ids: Vec<u32>,
}

impl SinkIndex {
    /// Indexes the live sinks of `tree` and the `pairs` touching them.
    pub fn new(tree: &ClockTree, pairs: &[SinkPair]) -> Self {
        let slots = tree.slot_count();
        let mut order = Vec::new();
        let mut span = vec![(0, 0); slots];
        let mut pos = vec![NONE; slots];
        // iterative preorder; a node's run closes when its exit marker pops
        let mut stack = vec![(tree.root(), false)];
        while let Some((n, exit)) = stack.pop() {
            let slot = n.0 as usize;
            if exit {
                span[slot].1 = order.len() as u32;
                continue;
            }
            span[slot].0 = order.len() as u32;
            if tree.node(n).kind == NodeKind::Sink {
                pos[slot] = order.len() as u32;
                order.push(n);
            }
            stack.push((n, true));
            stack.extend(tree.children(n).iter().rev().map(|&c| (c, false)));
        }
        // counting sort of (sink, pair) incidences by sink position; pairs
        // are visited in ascending order, so every run comes out sorted
        let at = |n: NodeId| pos.get(n.0 as usize).copied().unwrap_or(NONE);
        let mut pair_off = vec![0u32; order.len() + 1];
        // a pair counts once per distinct indexed end
        let ends = |p: &SinkPair| {
            let (a, b) = (at(p.a), at(p.b));
            [a, if b == a { NONE } else { b }]
                .into_iter()
                .filter(|&s| s != NONE)
        };
        for p in pairs {
            for s in ends(p) {
                pair_off[s as usize + 1] += 1;
            }
        }
        for i in 1..pair_off.len() {
            pair_off[i] += pair_off[i - 1];
        }
        let mut fill = pair_off.clone();
        let mut pair_ids = vec![0u32; pair_off[order.len()] as usize];
        for (pi, p) in pairs.iter().enumerate() {
            for s in ends(p) {
                pair_ids[fill[s as usize] as usize] = pi as u32;
                fill[s as usize] += 1;
            }
        }
        SinkIndex {
            order,
            span,
            pos,
            pair_off,
            pair_ids,
        }
    }

    /// Number of indexed (live, reachable) sinks.
    pub fn sink_count(&self) -> usize {
        self.order.len()
    }

    /// Positions (into the preorder sink list) of the sinks in the subtree
    /// rooted at `root`, `root` included when it is a sink. Empty for
    /// unknown nodes.
    pub fn subtree(&self, root: NodeId) -> Range<usize> {
        let (lo, hi) = self.span.get(root.0 as usize).copied().unwrap_or((0, 0));
        lo as usize..hi as usize
    }

    /// The sinks in the subtree rooted at `root`, in preorder.
    pub fn subtree_sinks(&self, root: NodeId) -> &[NodeId] {
        &self.order[self.subtree(root)]
    }

    /// The preorder position of sink `s`, if it is an indexed sink.
    pub fn position(&self, s: NodeId) -> Option<usize> {
        self.pos
            .get(s.0 as usize)
            .filter(|&&p| p != NONE)
            .map(|&p| p as usize)
    }

    /// Indices of the pairs touching the sink at position `p`, ascending.
    pub fn pairs_of(&self, p: usize) -> &[u32] {
        &self.pair_ids[self.pair_off[p] as usize..self.pair_off[p + 1] as usize]
    }
}
