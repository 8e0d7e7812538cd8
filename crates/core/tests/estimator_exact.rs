//! Exactness pin of the move estimator and the move scorer.
//!
//! The oracle below is the estimator as it used to be written: one
//! `net_estimate` call (route, extraction, moments, gate lookup) per
//! topology × wire model × corner × net, and a re-scorer that finds a
//! subtree's sinks by scanning every sink with an ancestor walk and
//! re-scores by scanning every pair. The library's estimator routes each
//! net once per topology, tables the nets sibling moves share, indexes
//! subtree sinks by Euler intervals and pairs by sink. Every feature,
//! every [`MoveEstimate`] and every predicted gain must agree with the
//! oracle bit for bit, for every enumerated move of the quick suite's
//! three 48-sink trees and the 96-sink CLS1v1 tree, at every corner,
//! under the ML ranker and all four analytic rankers.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::collections::BTreeMap;

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::WireModel;
use clk_liberty::CornerId;
use clk_ml::MlpConfig;
use clk_netlist::SinkPair;
use clk_skewopt::local::{predict_move_gain, Ranker, ScoreCtx};
use clk_skewopt::predictor::{move_features, MoveEstimate, MoveEstimator, Topo};
use clk_skewopt::{enumerate_moves, DeltaLatencyModel, ModelKind, MoveConfig, TrainConfig};
use clk_sta::{alpha_factors, pair_skews, CornerTiming, Timer};

/// The per-call estimator and scorer the library replaced.
mod oracle {
    use std::collections::BTreeMap;

    use clk_delay::{peri_slew, NetTiming, RcTree, WireModel};
    use clk_geom::{um_to_dbu, Point, Rect};
    use clk_liberty::{CellId, CornerId, Library};
    use clk_netlist::{ClockTree, NodeId, NodeKind, SinkPair};
    use clk_route::{rsmt, single_trunk};
    use clk_skewopt::predictor::{MoveEstimate, Topo};
    use clk_skewopt::{Move, MoveConfig, Resize};
    use clk_sta::CornerTiming;

    struct NetEst {
        pin_delay: Vec<f64>,
        pin_slew: Vec<f64>,
    }

    #[allow(clippy::too_many_arguments)]
    fn net_estimate(
        lib: &Library,
        corner: CornerId,
        drv_cell: CellId,
        slew_in: f64,
        drv_loc: Point,
        pins: &[(Point, f64)],
        topo: Topo,
        model: WireModel,
    ) -> NetEst {
        let pts: Vec<Point> = pins.iter().map(|&(p, _)| p).collect();
        let wt = match topo {
            Topo::Flute => rsmt(drv_loc, &pts),
            Topo::SingleTrunk => single_trunk(drv_loc, &pts),
        };
        let loads: Vec<(usize, f64)> = pins
            .iter()
            .map(|&(p, c)| (wt.index_of(p).expect("pin in tree"), c))
            .collect();
        let rct = RcTree::extract(&wt, lib.wire_rc(corner), &loads, 1.0e9);
        let nt = NetTiming::analyze(&rct);
        let load = nt.total_cap_ff();
        let gate = lib.gate_delay(drv_cell, corner, slew_in, load);
        let gslew = lib.gate_output_slew(drv_cell, corner, slew_in, load);
        let mut pin_delay = Vec::with_capacity(pins.len());
        let mut pin_slew = Vec::with_capacity(pins.len());
        for &(p, _) in pins {
            let rc_node = rct.rc_node_of_wire_node(wt.index_of(p).expect("pin in tree"));
            pin_delay.push(gate + nt.delay_ps(rc_node, model));
            pin_slew.push(peri_slew(gslew, nt.wire_slew_ps(rc_node)));
        }
        NetEst {
            pin_delay,
            pin_slew,
        }
    }

    fn pin_cap(tree: &ClockTree, lib: &Library, node: NodeId) -> f64 {
        match tree.node(node).kind {
            NodeKind::Buffer(c) => lib.cell(c).input_cap_ff,
            NodeKind::Sink => lib.sink_cap_ff(),
            NodeKind::Source => 0.0,
        }
    }

    fn resized(lib: &Library, cell: CellId, r: Resize) -> CellId {
        match r {
            Resize::None => cell,
            Resize::Up => lib.size_up(cell).unwrap_or(cell),
            Resize::Down => lib.size_down(cell).unwrap_or(cell),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn analytic_move_estimate(
        tree: &ClockTree,
        lib: &Library,
        corner: CornerId,
        timing: &CornerTiming,
        mv: &Move,
        cfg: &MoveConfig,
        topo: Topo,
        model: WireModel,
    ) -> MoveEstimate {
        let step = um_to_dbu(cfg.displace_um);
        match *mv {
            Move::SizeDisplace { node, dir, resize } => {
                let new_loc = match dir {
                    Some(d) => tree.loc(node).step(d, step),
                    None => tree.loc(node),
                };
                let old_cell = tree.cell(node).expect("buffer");
                let new_cell = resized(lib, old_cell, resize);
                estimate_driver_change(
                    tree,
                    lib,
                    corner,
                    timing,
                    node,
                    new_loc,
                    new_cell,
                    &[],
                    topo,
                    model,
                )
            }
            Move::ChildSize {
                node,
                dir,
                child,
                child_resize,
            } => {
                let new_loc = tree.loc(node).step(dir, step);
                let cell = tree.cell(node).expect("buffer");
                let child_cell = tree.cell(child).expect("buffer child");
                let new_child_cell = resized(lib, child_cell, child_resize);
                estimate_driver_change(
                    tree,
                    lib,
                    corner,
                    timing,
                    node,
                    new_loc,
                    cell,
                    &[(child, new_child_cell)],
                    topo,
                    model,
                )
            }
            Move::Reassign { node, new_parent } => {
                let p = tree.parent(node).expect("non-root");
                let old_pins: Vec<(Point, f64)> = tree
                    .children(p)
                    .iter()
                    .map(|&c| (tree.loc(c), pin_cap(tree, lib, c)))
                    .collect();
                let p_cell = tree.cell(p).expect("driver");
                let est_old = net_estimate(
                    lib,
                    corner,
                    p_cell,
                    timing.slew_ps(p),
                    tree.loc(p),
                    &old_pins,
                    topo,
                    model,
                );
                let idx = tree
                    .children(p)
                    .iter()
                    .position(|&c| c == node)
                    .expect("node is a child of p");
                let mut new_pins: Vec<(Point, f64)> = tree
                    .children(new_parent)
                    .iter()
                    .map(|&c| (tree.loc(c), pin_cap(tree, lib, c)))
                    .collect();
                new_pins.push((tree.loc(node), pin_cap(tree, lib, node)));
                let np_cell = tree.cell(new_parent).expect("driver");
                let est_new = net_estimate(
                    lib,
                    corner,
                    np_cell,
                    timing.slew_ps(new_parent),
                    tree.loc(new_parent),
                    &new_pins,
                    topo,
                    model,
                );
                let primary_delta = (timing.arrival_ps(new_parent) - timing.arrival_ps(p))
                    + (est_new.pin_delay[new_pins.len() - 1] - est_old.pin_delay[idx]);
                let mut side = Vec::new();
                if old_pins.len() > 1 {
                    let remaining: Vec<(Point, f64)> = old_pins
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != idx)
                        .map(|(_, &p)| p)
                        .collect();
                    let est_rem = net_estimate(
                        lib,
                        corner,
                        p_cell,
                        timing.slew_ps(p),
                        tree.loc(p),
                        &remaining,
                        topo,
                        model,
                    );
                    let mut k = 0;
                    for (i, &c) in tree.children(p).iter().enumerate() {
                        if i == idx {
                            continue;
                        }
                        side.push((c, est_rem.pin_delay[k] - est_old.pin_delay[i]));
                        k += 1;
                    }
                }
                if new_pins.len() > 1 {
                    let prior: Vec<(Point, f64)> = new_pins[..new_pins.len() - 1].to_vec();
                    let est_prior = net_estimate(
                        lib,
                        corner,
                        np_cell,
                        timing.slew_ps(new_parent),
                        tree.loc(new_parent),
                        &prior,
                        topo,
                        model,
                    );
                    for (i, &c) in tree.children(new_parent).iter().enumerate() {
                        side.push((c, est_new.pin_delay[i] - est_prior.pin_delay[i]));
                    }
                }
                MoveEstimate {
                    primary_delta,
                    per_child: vec![(node, primary_delta)],
                    side_effects: side,
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate_driver_change(
        tree: &ClockTree,
        lib: &Library,
        corner: CornerId,
        timing: &CornerTiming,
        node: NodeId,
        new_loc: Point,
        new_cell: CellId,
        child_changes: &[(NodeId, CellId)],
        topo: Topo,
        model: WireModel,
    ) -> MoveEstimate {
        let old_cell = tree.cell(node).expect("buffer");
        let (d1, slew_shift, parent_side) = match tree.parent(node) {
            None => (0.0, 0.0, Vec::new()),
            Some(p) => {
                let p_cell = tree.cell(p).expect("driver");
                let p_slew = timing.slew_ps(p);
                let before: Vec<(Point, f64)> = tree
                    .children(p)
                    .iter()
                    .map(|&c| (tree.loc(c), pin_cap(tree, lib, c)))
                    .collect();
                let mut after = before.clone();
                let idx = tree
                    .children(p)
                    .iter()
                    .position(|&c| c == node)
                    .expect("node under p");
                after[idx] = (new_loc, lib.cell(new_cell).input_cap_ff);
                let eb = net_estimate(
                    lib,
                    corner,
                    p_cell,
                    p_slew,
                    tree.loc(p),
                    &before,
                    topo,
                    model,
                );
                let ea = net_estimate(
                    lib,
                    corner,
                    p_cell,
                    p_slew,
                    tree.loc(p),
                    &after,
                    topo,
                    model,
                );
                let mut side = Vec::new();
                for (i, &c) in tree.children(p).iter().enumerate() {
                    if i != idx {
                        side.push((c, ea.pin_delay[i] - eb.pin_delay[i]));
                    }
                }
                (
                    ea.pin_delay[idx] - eb.pin_delay[idx],
                    ea.pin_slew[idx] - eb.pin_slew[idx],
                    side,
                )
            }
        };
        let children = tree.children(node);
        if children.is_empty() {
            return MoveEstimate {
                primary_delta: d1,
                per_child: vec![(node, d1)],
                side_effects: parent_side,
            };
        }
        let new_child_cell = |c: NodeId| -> f64 {
            child_changes.iter().find(|&&(cc, _)| cc == c).map_or_else(
                || pin_cap(tree, lib, c),
                |&(_, cell)| lib.cell(cell).input_cap_ff,
            )
        };
        let before: Vec<(Point, f64)> = children
            .iter()
            .map(|&c| (tree.loc(c), pin_cap(tree, lib, c)))
            .collect();
        let after: Vec<(Point, f64)> = children
            .iter()
            .map(|&c| (tree.loc(c), new_child_cell(c)))
            .collect();
        let s_live = timing.slew_ps(node);
        let eb = net_estimate(
            lib,
            corner,
            old_cell,
            s_live,
            tree.loc(node),
            &before,
            topo,
            model,
        );
        let ea = net_estimate(
            lib,
            corner,
            new_cell,
            (s_live + slew_shift).max(1.0),
            new_loc,
            &after,
            topo,
            model,
        );
        let mut per_child = Vec::with_capacity(children.len());
        for (i, &c) in children.iter().enumerate() {
            let d2_i = ea.pin_delay[i] - eb.pin_delay[i];
            let d3_i = if let NodeKind::Buffer(c_cell) = tree.node(c).kind {
                let load = timing.load_ff(c);
                let new_cell_c = child_changes
                    .iter()
                    .find(|&&(cc, _)| cc == c)
                    .map_or(c_cell, |&(_, cell)| cell);
                let g_b = lib.gate_delay(c_cell, corner, eb.pin_slew[i], load);
                let g_a = lib.gate_delay(new_cell_c, corner, ea.pin_slew[i], load);
                g_a - g_b
            } else {
                0.0
            };
            per_child.push((c, d1 + d2_i + d3_i));
        }
        let primary_delta = per_child.iter().map(|&(_, d)| d).sum::<f64>() / children.len() as f64;
        MoveEstimate {
            primary_delta,
            per_child,
            side_effects: parent_side,
        }
    }

    /// Features and the FLUTE×D2M estimate of one move at one corner.
    pub fn move_features_with_sides(
        tree: &ClockTree,
        lib: &Library,
        corner: CornerId,
        timing: &CornerTiming,
        mv: &Move,
        cfg: &MoveConfig,
    ) -> (Vec<f64>, MoveEstimate) {
        let combos = [
            (Topo::Flute, WireModel::Elmore),
            (Topo::Flute, WireModel::D2m),
            (Topo::SingleTrunk, WireModel::Elmore),
            (Topo::SingleTrunk, WireModel::D2m),
        ];
        let mut detail = None;
        let mut f = Vec::new();
        for (topo, model) in combos {
            let est = analytic_move_estimate(tree, lib, corner, timing, mv, cfg, topo, model);
            f.push(est.primary_delta);
            if topo == Topo::Flute && model == WireModel::D2m {
                detail = Some(est);
            }
        }
        let detail = detail.expect("FLUTE x D2M combo always runs");
        let node = mv.primary_node();
        let children = tree.children(node);
        f.push(children.len() as f64);
        let mut pts: Vec<Point> = children.iter().map(|&c| tree.loc(c)).collect();
        pts.push(tree.loc(node));
        let bbox = Rect::bounding(&pts).expect("non-empty");
        f.push(bbox.area_um2() / 1_000.0);
        f.push(bbox.aspect_ratio());
        let (ddrive, dist, dcap) = match *mv {
            Move::SizeDisplace { node, dir, resize } => {
                let c = tree.cell(node).expect("buffer");
                let nc = resized(lib, c, resize);
                (
                    lib.cell(nc).drive - lib.cell(c).drive,
                    if dir.is_some() { cfg.displace_um } else { 0.0 },
                    lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
                )
            }
            Move::ChildSize {
                child,
                child_resize,
                ..
            } => {
                let c = tree.cell(child).expect("buffer");
                let nc = resized(lib, c, child_resize);
                (
                    lib.cell(nc).drive - lib.cell(c).drive,
                    cfg.displace_um,
                    lib.cell(nc).input_cap_ff - lib.cell(c).input_cap_ff,
                )
            }
            Move::Reassign { node, new_parent } => {
                let p = tree.parent(node).expect("non-root");
                (0.0, tree.loc(new_parent).manhattan_um(tree.loc(p)), 0.0)
            }
        };
        f.push(ddrive);
        f.push(dist);
        f.push(dcap);
        (f, detail)
    }

    /// The old re-scorer, given each corner's calibrated primary
    /// prediction and FLUTE×D2M detail: subtree sinks by ancestor scan,
    /// every pair visited.
    pub fn rescore(
        tree: &ClockTree,
        timings: &[CornerTiming],
        pairs: &[SinkPair],
        alphas: &[f64],
        primary_node: NodeId,
        per_corner: &[(f64, MoveEstimate)],
        subtree_cache: &mut BTreeMap<NodeId, Vec<NodeId>>,
    ) -> f64 {
        let n_corners = timings.len();
        let mut impacts: Vec<Vec<(NodeId, f64)>> = Vec::with_capacity(n_corners);
        for (primary, detail) in per_corner {
            let correction = primary - detail.primary_delta;
            let mut imp: Vec<(NodeId, f64)> = detail
                .per_child
                .iter()
                .map(|&(c, d)| (c, d + correction))
                .collect();
            if imp.is_empty() {
                imp.push((primary_node, *primary));
            }
            imp.extend(detail.side_effects.iter().copied());
            impacts.push(imp);
        }
        let mut sink_delta: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for (k, imp) in impacts.iter().enumerate() {
            for &(root, delta) in imp {
                if delta == 0.0 {
                    continue;
                }
                let sinks = subtree_cache.entry(root).or_insert_with(|| {
                    tree.sinks()
                        .filter(|&s| tree.is_descendant(s, root))
                        .collect()
                });
                for &s in sinks.iter() {
                    sink_delta.entry(s).or_insert_with(|| vec![0.0; n_corners])[k] += delta;
                }
            }
        }
        if sink_delta.is_empty() {
            return 0.0;
        }
        let mut gain = 0.0;
        for p in pairs {
            let da = sink_delta.get(&p.a);
            let db = sink_delta.get(&p.b);
            if da.is_none() && db.is_none() {
                continue;
            }
            let mut v_before: f64 = 0.0;
            let mut v_after: f64 = 0.0;
            for k in 0..n_corners {
                for k2 in (k + 1)..n_corners {
                    let s_k = timings[k].arrival_ps(p.a) - timings[k].arrival_ps(p.b);
                    let s_k2 = timings[k2].arrival_ps(p.a) - timings[k2].arrival_ps(p.b);
                    v_before = v_before.max((alphas[k] * s_k - alphas[k2] * s_k2).abs());
                    let d = |m: Option<&Vec<f64>>, kk: usize| m.map_or(0.0, |v| v[kk]);
                    let ns_k = s_k + d(da, k) - d(db, k);
                    let ns_k2 = s_k2 + d(da, k2) - d(db, k2);
                    v_after = v_after.max((alphas[k] * ns_k - alphas[k2] * ns_k2).abs());
                }
            }
            gain += v_before - v_after;
        }
        gain
    }
}

type EstimateBits = (u64, Vec<(u32, u64)>, Vec<(u32, u64)>);

fn bits(e: &MoveEstimate) -> EstimateBits {
    let list =
        |v: &[(clk_netlist::NodeId, f64)]| v.iter().map(|&(n, d)| (n.0, d.to_bits())).collect();
    (
        e.primary_delta.to_bits(),
        list(&e.per_child),
        list(&e.side_effects),
    )
}

fn feature_bits(f: &[f64]) -> Vec<u64> {
    f.iter().map(|v| v.to_bits()).collect()
}

fn model(tc: &Testcase) -> DeltaLatencyModel {
    let cfg = TrainConfig {
        n_cases: 6,
        moves_per_case: 12,
        mlp: MlpConfig {
            epochs: 30,
            ..MlpConfig::default()
        },
        ..TrainConfig::default()
    };
    DeltaLatencyModel::train(&tc.lib, ModelKind::Hsm, &cfg)
}

/// Checks every enumerated move of `tc` against the oracle; returns the
/// number of moves checked.
fn assert_exact(tc: &Testcase, model: &DeltaLatencyModel) -> usize {
    let (tree, lib) = (&tc.tree, &tc.lib);
    let mcfg = MoveConfig::default();
    let timings: Vec<CornerTiming> = Timer::golden().analyze_all(tree, lib);
    let pairs: Vec<SinkPair> = tree.sink_pairs().to_vec();
    let skews: Vec<Vec<f64>> = timings.iter().map(|t| pair_skews(t, &pairs)).collect();
    let alphas = alpha_factors(&skews);
    let moves = enumerate_moves(tree, lib, &mcfg, None);
    assert!(!moves.is_empty());
    let corners = timings
        .iter()
        .enumerate()
        .map(|(k, t)| (CornerId(k), t))
        .collect();
    let est = MoveEstimator::new(tree, lib, &mcfg, corners).with_tables(&moves);
    let ctx = ScoreCtx::new(tree, lib, &timings, &pairs, &alphas, &mcfg, &moves);
    let rankers = [
        Ranker::Ml(model),
        Ranker::Analytic(Topo::Flute, WireModel::Elmore),
        Ranker::Analytic(Topo::Flute, WireModel::D2m),
        Ranker::Analytic(Topo::SingleTrunk, WireModel::Elmore),
        Ranker::Analytic(Topo::SingleTrunk, WireModel::D2m),
    ];
    let mut cache = BTreeMap::new();
    // the batch scorer reuses its buffers across moves
    let batch: Vec<Vec<f64>> = rankers.iter().map(|&r| ctx.gains(&moves, r)).collect();
    // buffers reused across all moves, as a scoring worker keeps them,
    // and across every other move, as one worker of a pair sees them
    let all = est.estimate_all(&moves);
    let odd_moves: Vec<_> = moves.iter().copied().skip(1).step_by(2).collect();
    let odd = est.estimate_all(&odd_moves);
    for (i, mv) in moves.iter().enumerate() {
        let new = &all[i];
        let fresh = est.estimate(mv);
        let strided = (i % 2 == 1).then(|| &odd[i / 2]);
        for other in std::iter::once(&fresh).chain(strided) {
            for ((fa, ea), (fb, eb)) in new.iter().zip(other) {
                assert_eq!(
                    feature_bits(fa),
                    feature_bits(fb),
                    "{mv} features, buffer reuse"
                );
                assert_eq!(bits(ea), bits(eb), "{mv} estimate, buffer reuse");
            }
        }
        assert_eq!(new.len(), timings.len());
        let old: Vec<(Vec<f64>, MoveEstimate)> = timings
            .iter()
            .enumerate()
            .map(|(k, t)| oracle::move_features_with_sides(tree, lib, CornerId(k), t, mv, &mcfg))
            .collect();
        for (k, ((fo, eo), (fn_, en))) in old.iter().zip(new).enumerate() {
            assert_eq!(
                feature_bits(fo),
                feature_bits(&fn_[..]),
                "{mv} features at corner {k}"
            );
            assert_eq!(bits(eo), bits(en), "{mv} estimate at corner {k}");
            let wrapped = move_features(tree, lib, CornerId(k), &timings[k], mv, &mcfg);
            assert_eq!(
                feature_bits(fo),
                feature_bits(&wrapped),
                "{mv} move_features at {k}"
            );
        }
        for (r, ranker) in rankers.into_iter().enumerate() {
            let per_corner: Vec<(f64, MoveEstimate)> = old
                .iter()
                .enumerate()
                .map(|(k, (f, e))| {
                    let primary = match ranker {
                        Ranker::Ml(m) => m.predict(CornerId(k), f),
                        Ranker::Analytic(topo, wm) => {
                            let t = usize::from(topo == Topo::SingleTrunk);
                            f[2 * t + usize::from(wm == WireModel::D2m)]
                        }
                        Ranker::Random(_) => unreachable!("not a predicting ranker"),
                    };
                    (primary, e.clone())
                })
                .collect();
            let want = oracle::rescore(
                tree,
                &timings,
                &pairs,
                &alphas,
                mv.primary_node(),
                &per_corner,
                &mut cache,
            );
            let got = predict_move_gain(&ctx, mv, ranker);
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{mv} gain under {ranker:?}: {want} vs {got}"
            );
            assert_eq!(
                want.to_bits(),
                batch[r][i].to_bits(),
                "{mv} batch gain under {ranker:?}"
            );
        }
        assert_eq!(predict_move_gain(&ctx, mv, Ranker::Random(7)).to_bits(), 0);
    }
    moves.len()
}

#[test]
fn estimator_matches_per_call_oracle_on_quick_suite() {
    let kinds = [
        TestcaseKind::Cls1v1,
        TestcaseKind::Cls1v2,
        TestcaseKind::Cls2v1,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let tc = Testcase::generate(kind, 48, 2015 + i as u64);
        let n = assert_exact(&tc, &model(&tc));
        assert!(n > 100, "{kind:?}: only {n} moves");
    }
}

#[test]
fn estimator_matches_per_call_oracle_at_96_sinks() {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 96, 2015);
    let n = assert_exact(&tc, &model(&tc));
    assert!(n > 100, "only {n} moves");
}
