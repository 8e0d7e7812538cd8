//! Steiner-tree topology generators: single-trunk trees and an iterated
//! 1-Steiner RSMT heuristic (the FLUTE stand-in — see crate docs).

use crate::WireTree;
use clk_geom::{Dbu, Point, Rect};

/// Builds a **single-trunk Steiner tree** from `driver` to `pins`.
///
/// The trunk runs along the longer dimension of the pin bounding box at the
/// median of the perpendicular coordinate; each pin attaches by a
/// perpendicular stub, and the driver attaches to the nearest trunk point.
/// This is one of the two routing-pattern estimates used by the paper's
/// delta-latency model.
///
/// Duplicate pins are tolerated. With no pins, the tree is just the driver.
pub fn single_trunk(driver: Point, pins: &[Point]) -> WireTree {
    let mut tree = WireTree::new(driver);
    if pins.is_empty() {
        return tree;
    }
    if pins.len() == 1 {
        tree.add_child(WireTree::ROOT, pins[0]);
        return tree;
    }
    let bbox = Rect::bounding(pins).expect("pins non-empty");
    let horizontal = bbox.width() >= bbox.height();
    // trunk coordinate = median of the perpendicular coordinate
    let mut perp: Vec<Dbu> = pins
        .iter()
        .map(|p| if horizontal { p.y } else { p.x })
        .collect();
    perp.sort_unstable();
    let trunk_c = perp[perp.len() / 2];

    // Feet of the pin stubs on the trunk, plus the driver attachment.
    let foot = |p: Point| -> Point {
        if horizontal {
            Point::new(p.x, trunk_c)
        } else {
            Point::new(trunk_c, p.y)
        }
    };
    let driver_foot = {
        // clamp the driver's along-trunk coordinate into the trunk span
        let (lo, hi) = if horizontal {
            (bbox.lo.x, bbox.hi.x)
        } else {
            (bbox.lo.y, bbox.hi.y)
        };
        if horizontal {
            Point::new(driver.x.clamp(lo, hi), trunk_c)
        } else {
            Point::new(trunk_c, driver.y.clamp(lo, hi))
        }
    };

    // Order attachment feet along the trunk and chain them from the driver
    // foot outward in both directions.
    let along = |p: Point| if horizontal { p.x } else { p.y };
    let mut feet: Vec<(Dbu, usize)> = pins.iter().map(|&p| (along(foot(p)), 0usize)).collect();
    for (i, f) in feet.iter_mut().enumerate() {
        f.1 = i;
    }
    feet.sort_unstable();

    let anchor = tree.add_child(WireTree::ROOT, driver_foot);
    let d_along = along(driver_foot);
    // nodes to the right of (>=) the driver foot, chained left to right
    let mut last = anchor;
    let mut foot_node = vec![usize::MAX; pins.len()];
    for &(c, pin_idx) in feet.iter().filter(|&&(c, _)| c >= d_along) {
        let fp = if horizontal {
            Point::new(c, trunk_c)
        } else {
            Point::new(trunk_c, c)
        };
        let node = if tree.point(last) == fp {
            last
        } else {
            tree.add_child(last, fp)
        };
        foot_node[pin_idx] = node;
        last = node;
    }
    // nodes to the left, chained right to left
    let mut last = anchor;
    for &(c, pin_idx) in feet.iter().rev().filter(|&&(c, _)| c < d_along) {
        let fp = if horizontal {
            Point::new(c, trunk_c)
        } else {
            Point::new(trunk_c, c)
        };
        let node = if tree.point(last) == fp {
            last
        } else {
            tree.add_child(last, fp)
        };
        foot_node[pin_idx] = node;
        last = node;
    }
    // stubs
    for (i, &p) in pins.iter().enumerate() {
        let f = foot_node[i];
        if tree.point(f) == p {
            continue; // pin sits on the trunk
        }
        tree.add_child(f, p);
    }
    tree
}

/// Iterated 1-Steiner is applied only to nets with at most this many
/// terminals (driver + pins); larger nets use the Manhattan MST.
pub const MAX_ONE_STEINER_TERMS: usize = 12;

/// Builds a rectilinear Steiner tree over `driver ∪ pins` with the
/// **iterated 1-Steiner** heuristic: start from the Manhattan MST, then
/// repeatedly add the Hanan-grid point that most reduces the MST length
/// until no candidate helps.
///
/// Exact for ≤ 2 pins; for 3 pins the single Hanan candidate scan finds the
/// optimal median point, so it is exact there too. Above
/// [`MAX_ONE_STEINER_TERMS`] terminals the O(n⁴) Hanan scan is skipped and
/// the plain Manhattan MST is returned: each added Steiner point costs a
/// full Hanan-grid scan of MSTs, and MST wirelength is within a few % of
/// RSMT at clock-net fanouts.
pub fn rsmt(driver: Point, pins: &[Point]) -> WireTree {
    // Deduplicate terminals while remembering every original pin location.
    let mut terms: Vec<Point> = Vec::with_capacity(pins.len() + 1);
    terms.push(driver);
    for &p in pins {
        if !terms.contains(&p) {
            terms.push(p);
        }
    }
    let n_terms = terms.len();
    let mut tree = WireTree::new(driver);
    if n_terms <= 2 {
        // a single edge: no Hanan point shortens a two-terminal MST
        if let Some(&pin) = terms.get(1) {
            tree.add_child(WireTree::ROOT, pin);
        }
        return tree;
    }

    let mut nodes = terms.clone();
    if n_terms <= MAX_ONE_STEINER_TERMS {
        loop {
            let (mut best_gain, mut best_pt) = (0, None);
            let base = mst_length(&nodes);
            // Hanan grid of the *terminals* (adding Steiner-point coords to
            // the grid as well gives tiny gains at much higher cost).
            let mut xs: Vec<Dbu> = terms.iter().map(|p| p.x).collect();
            let mut ys: Vec<Dbu> = terms.iter().map(|p| p.y).collect();
            xs.sort_unstable();
            xs.dedup();
            ys.sort_unstable();
            ys.dedup();
            for &x in &xs {
                for &y in &ys {
                    let h = Point::new(x, y);
                    if nodes.contains(&h) {
                        continue;
                    }
                    nodes.push(h);
                    let len = mst_length_pruned(&nodes, n_terms);
                    nodes.pop();
                    let gain = base - len;
                    if gain > best_gain {
                        best_gain = gain;
                        best_pt = Some(h);
                    }
                }
            }
            match best_pt {
                Some(h) => nodes.push(h),
                None => break,
            }
        }
        // Drop added Steiner points that ended up as MST leaves (they only
        // lengthen the tree).
        loop {
            let (parent_of, _) = mst_edges(&nodes);
            let mut degree = vec![0usize; nodes.len()];
            for (i, p) in parent_of.iter().enumerate() {
                if let Some(p) = p {
                    degree[i] += 1;
                    degree[*p] += 1;
                }
            }
            let dead: Vec<usize> = (n_terms..nodes.len()).filter(|&i| degree[i] <= 1).collect();
            if dead.is_empty() {
                break;
            }
            for &i in dead.iter().rev() {
                nodes.remove(i);
            }
        }
    }

    // Build the final tree rooted at the driver (index 0).
    let (parent_of, _) = mst_edges(&nodes);
    // Re-root the MST at node 0 by BFS over the undirected edge set.
    let mut adj = vec![Vec::new(); nodes.len()];
    for (i, p) in parent_of.iter().enumerate() {
        if let Some(p) = p {
            adj[i].push(*p);
            adj[*p].push(i);
        }
    }
    let mut tree_idx = vec![usize::MAX; nodes.len()];
    tree_idx[0] = WireTree::ROOT;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let mut visited = vec![false; nodes.len()];
    visited[0] = true;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                tree_idx[v] = tree.add_child(tree_idx[u], nodes[v]);
                queue.push_back(v);
            }
        }
    }
    tree
}

/// Prim MST: returns per-node parent (node 0 is the root) and total length.
fn mst_edges(pts: &[Point]) -> (Vec<Option<usize>>, Dbu) {
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut best = vec![Dbu::MAX; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    best[0] = 0;
    let mut total = 0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&i| !in_tree[i])
            .min_by_key(|&i| best[i])
            .expect("node remains");
        in_tree[u] = true;
        total += if best[u] == Dbu::MAX { 0 } else { best[u] };
        for v in 0..n {
            if !in_tree[v] {
                let d = pts[u].manhattan(pts[v]);
                if d < best[v] {
                    best[v] = d;
                    parent[v] = Some(u);
                }
            }
        }
    }
    (parent, total)
}

/// MST length over `pts`.
fn mst_length(pts: &[Point]) -> Dbu {
    mst_edges(pts).1
}

/// MST length where Steiner points (index ≥ `n_terms`) that are leaves are
/// not charged — a cheap proxy for "length after pruning useless Steiner
/// points", used during candidate scoring.
fn mst_length_pruned(pts: &[Point], n_terms: usize) -> Dbu {
    let (parent, total) = mst_edges(pts);
    let mut degree = vec![0usize; pts.len()];
    let mut edge_to_parent = vec![0; pts.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            degree[i] += 1;
            degree[*p] += 1;
            edge_to_parent[i] = pts[i].manhattan(pts[*p]);
        }
    }
    let mut len = total;
    for i in n_terms..pts.len() {
        if degree[i] == 1 {
            len -= edge_to_parent[i];
        }
    }
    len
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn hpwl(driver: Point, pins: &[Point]) -> Dbu {
        let mut all = vec![driver];
        all.extend_from_slice(pins);
        let r = Rect::bounding(&all).unwrap();
        r.width() + r.height()
    }

    #[test]
    fn rsmt_two_pins_is_manhattan() {
        let d = Point::new(0, 0);
        let p = Point::new(7_000, -3_000);
        let t = rsmt(d, &[p]);
        assert_eq!(t.wirelength_um(), clk_geom::dbu_to_um(d.manhattan(p)));
    }

    #[test]
    fn rsmt_three_pins_uses_median_point() {
        // classic: three corners of an L; optimal = HPWL via median point
        let d = Point::new(0, 0);
        let pins = [Point::new(10_000, 0), Point::new(0, 10_000)];
        let t = rsmt(d, &pins);
        assert_eq!(t.wirelength_um(), 20.0);
        // A T configuration where the Steiner point saves wire vs MST:
        let d = Point::new(0, 0);
        let pins = [Point::new(20_000, 0), Point::new(10_000, 10_000)];
        let t = rsmt(d, &pins);
        assert!(
            (t.wirelength_um() - 30.0).abs() < 1e-9,
            "{}",
            t.wirelength_um()
        );
    }

    #[test]
    fn rsmt_cross_saves_over_mst() {
        // 4 pins in a plus sign around an empty centre: Steiner point at the
        // centre gives 4 spokes; MST must be longer.
        let d = Point::new(0, 10_000);
        let pins = [
            Point::new(20_000, 10_000),
            Point::new(10_000, 0),
            Point::new(10_000, 20_000),
        ];
        let t = rsmt(d, &pins);
        assert!(
            (t.wirelength_um() - 40.0).abs() < 1e-9,
            "{}",
            t.wirelength_um()
        );
    }

    #[test]
    fn rsmt_bounded_by_hpwl_and_mst() {
        // deterministic pseudo-random pins
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 50_000) as Dbu
        };
        for case in 0..10 {
            let driver = Point::new(next(), next());
            let pins: Vec<Point> = (0..(3 + case % 8))
                .map(|_| Point::new(next(), next()))
                .collect();
            let t = rsmt(driver, &pins);
            let mut all = vec![driver];
            all.extend_from_slice(&pins);
            let mst = mst_length(&all);
            let len = clk_geom::um_to_dbu(t.wirelength_um());
            assert!(len <= mst, "case {case}: rsmt {len} > mst {mst}");
            assert!(len >= hpwl(driver, &pins) / 2, "absurdly short tree");
            // every pin must be present in the tree
            for &p in &pins {
                assert!(t.index_of(p).is_some(), "pin {p} missing");
            }
        }
    }

    #[test]
    fn single_trunk_connects_everything() {
        let d = Point::new(0, 0);
        let pins = [
            Point::new(10_000, 5_000),
            Point::new(20_000, -2_000),
            Point::new(15_000, 8_000),
            Point::new(5_000, 1_000),
        ];
        let t = single_trunk(d, &pins);
        for &p in &pins {
            assert!(t.index_of(p).is_some(), "pin {p} missing");
        }
        // trunk trees are at least HPWL-ish long and at most star length
        let star: Dbu = pins.iter().map(|&p| d.manhattan(p)).sum();
        assert!(clk_geom::um_to_dbu(t.wirelength_um()) <= star);
    }

    #[test]
    fn single_trunk_vertical_box() {
        // taller than wide -> vertical trunk
        let d = Point::new(0, 0);
        let pins = [Point::new(1_000, 10_000), Point::new(-1_000, 30_000)];
        let t = single_trunk(d, &pins);
        for &p in &pins {
            assert!(t.index_of(p).is_some());
        }
    }

    #[test]
    fn degenerate_nets() {
        let d = Point::new(3, 3);
        assert_eq!(single_trunk(d, &[]).node_count(), 1);
        assert_eq!(rsmt(d, &[]).node_count(), 1);
        // all pins coincident with driver
        let t = rsmt(d, &[d, d]);
        assert_eq!(t.wirelength_um(), 0.0);
        let t = single_trunk(d, &[Point::new(3, 3)]);
        assert_eq!(t.wirelength_um(), 0.0);
    }

    #[test]
    fn duplicate_pins_tolerated() {
        let d = Point::new(0, 0);
        let p = Point::new(5_000, 5_000);
        let t = rsmt(d, &[p, p, p]);
        assert_eq!(t.wirelength_um(), 10.0);
    }
}
