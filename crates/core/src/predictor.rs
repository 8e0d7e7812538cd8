//! Delta-latency prediction (paper §4.2): analytical estimators over
//! {FLUTE, single-trunk Steiner} × {Elmore, D2M}, and machine-learning
//! models (ANN / SVM-RBF / HSM) trained per corner on artificial
//! testcases to close the gap to the golden timer.

use std::borrow::Cow;

use clk_delay::{peri_slew, NetTiming, WireModel};
use clk_geom::{um_to_dbu, Direction, Point, Rect};
use clk_liberty::{CellId, CornerId, Library};
use clk_ml::{Hsm, LsSvm, Mlp, MlpConfig, Regressor, StandardScaler};
use clk_netlist::{ClockTree, Floorplan, NodeId, NodeKind};
use clk_route::{rsmt, single_trunk, WireTree};
use clk_sta::{CornerTiming, Timer};

use crate::moves::{apply_move, enumerate_moves, Move, MoveConfig, Resize};

/// Routing-pattern estimate used by the analytical models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topo {
    /// FLUTE-class rectilinear Steiner minimal tree.
    Flute,
    /// Single-trunk Steiner tree.
    SingleTrunk,
}

/// Index of the `(topo, model)` analytic estimate among the first four
/// [`move_features`]: FLUTE×Elmore, FLUTE×D2M, trunk×Elmore, trunk×D2M.
pub(crate) fn analytic_feature(topo: Topo, model: WireModel) -> usize {
    2 * usize::from(topo == Topo::SingleTrunk) + usize::from(model == WireModel::D2m)
}

/// The routing patterns in feature order; `TOPOS[0]` is FLUTE.
const TOPOS: [Topo; 2] = [Topo::Flute, Topo::SingleTrunk];
/// Per-pin fields of a net estimate: gate + Elmore delay, gate + D2M
/// delay, PERI slew.
const FIELDS: usize = 3;
const SLEW: usize = 2;
/// Feature index of the FLUTE×D2M estimate, the one whose per-child and
/// side-effect detail the local optimizer re-scores with.
const DETAIL: usize = 1;

/// One net's fast estimates, flat: `[topo][corner][field][pin]`, ps.
#[derive(Clone, Copy)]
struct NetView<'a> {
    v: &'a [f64],
    pins: usize,
    corners: usize,
}

impl NetView<'_> {
    fn at(&self, t: usize, k: usize, field: usize, pin: usize) -> f64 {
        self.v[((t * self.corners + k) * FIELDS + field) * self.pins + pin]
    }
}

/// One net routed under one topology: the wire tree and each pin's wire
/// node. Routes depend on pin locations only, never on caps.
#[derive(Debug)]
struct Routed {
    wt: WireTree,
    nodes: Vec<usize>,
}

impl Routed {
    fn new(topo: Topo, loc: Point, pts: &[Point]) -> Self {
        let wt = match topo {
            Topo::Flute => rsmt(loc, pts),
            Topo::SingleTrunk => single_trunk(loc, pts),
        };
        let nodes = pts
            .iter()
            .map(|&p| wt.index_of(p).expect("pin in tree"))
            .collect();
        Routed { wt, nodes }
    }
}

/// Net estimates indexed by node id: `span[node]` is the `(offset, len)`
/// run of the node's entry in `vals`; `len == 0` means not tabled.
#[derive(Debug, Default)]
struct NetTable {
    span: Vec<(usize, usize)>,
    vals: Vec<f64>,
}

impl NetTable {
    fn get(&self, n: NodeId) -> Option<&[f64]> {
        match self.span.get(n.0 as usize) {
            Some(&(at, len)) if len > 0 => Some(&self.vals[at..at + len]),
            _ => None,
        }
    }

    fn insert(&mut self, n: NodeId, v: &[f64]) {
        let slot = n.0 as usize;
        if self.span.len() <= slot {
            self.span.resize(slot + 1, (0, 0));
        }
        self.span[slot] = (self.vals.len(), v.len());
        self.vals.extend_from_slice(v);
    }
}

/// The routes, per topology, of one driver displaced one way: its
/// parent's net and its own net after the displacement (empty when the
/// driver has no parent / no children).
#[derive(Debug)]
struct Displaced {
    node: NodeId,
    dir: Option<Direction>,
    parent: Vec<Routed>,
    own: Vec<Routed>,
}

/// Reusable buffers of one thread estimating moves of one
/// [`MoveEstimator`]: the moment analysis, the after-move pin estimates,
/// and the displaced routes of the driver last estimated. Moves are
/// enumerated driver by driver, so a driver's moves that share a
/// displacement route it once.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    nt: NetTiming,
    ea_p: Vec<f64>,
    ea: Vec<f64>,
    d3: Vec<f64>,
    displaced: Vec<Displaced>,
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

/// The analytical estimate of one move's impact at one corner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MoveEstimate {
    /// Estimated mean latency change of the sinks below the move's
    /// primary node, ps.
    pub primary_delta: f64,
    /// Differential breakdown per child subtree of the primary node (the
    /// resized child of a type-II move shifts relative to its siblings —
    /// a mean-field delta would hide exactly the skew the move creates).
    pub per_child: Vec<(NodeId, f64)>,
    /// Estimated latency changes of *sibling* subtrees perturbed through
    /// shared nets, as `(subtree root, delta ps)`.
    pub side_effects: Vec<(NodeId, f64)>,
}

/// The analytic move estimator (the pre-ML estimator of the paper and
/// the "analytical model" baseline of Fig. 6) over one tree state and a
/// set of corners. It sees neither legalization nor the actual ECO route.
///
/// Each net a move touches is routed once per topology, and analyzed once
/// per corner; both wire models and the pin slews are read off that one
/// analysis. [`MoveEstimator::with_tables`] also estimates, once, the
/// nets that sibling moves share — every driver's fanout net as it
/// stands, and the old driver's net without each reassigned node — into
/// flat tables indexed by node id. Tables only skip repeated work: every
/// lookup falls back to estimating the net on the spot, with
/// bit-identical results.
#[derive(Debug)]
pub struct MoveEstimator<'a> {
    tree: &'a ClockTree,
    lib: &'a Library,
    cfg: &'a MoveConfig,
    corners: Vec<(CornerId, &'a CornerTiming)>,
    before: NetTable,
    without: NetTable,
}

impl<'a> MoveEstimator<'a> {
    /// An estimator of moves on `tree` at `corners` (each corner with the
    /// tree's timing there), without tables.
    pub fn new(
        tree: &'a ClockTree,
        lib: &'a Library,
        cfg: &'a MoveConfig,
        corners: Vec<(CornerId, &'a CornerTiming)>,
    ) -> Self {
        MoveEstimator {
            tree,
            lib,
            cfg,
            corners,
            before: NetTable::default(),
            without: NetTable::default(),
        }
    }

    /// Tables every driver's fanout net, and the old driver's net without
    /// the node of every type-III move in `moves`.
    #[must_use]
    pub fn with_tables(mut self, moves: &[Move]) -> Self {
        let pins: usize = self
            .tree
            .node_ids()
            .map(|d| self.tree.children(d).len())
            .sum();
        let len = TOPOS.len() * self.corners.len() * FIELDS * pins;
        self.before.vals.reserve_exact(len);
        for d in self.tree.node_ids() {
            if !self.tree.children(d).is_empty() {
                let v = self.before(d).into_owned();
                self.before.insert(d, &v);
            }
        }
        for mv in moves {
            if let Move::Reassign { node, .. } = *mv {
                if self.without.get(node).is_none() {
                    if let Some(v) = self.without(node).map(Cow::into_owned) {
                        self.without.insert(node, &v);
                    }
                }
            }
        }
        self
    }

    /// The [`move_features`] and the FLUTE×D2M [`MoveEstimate`] of `mv`
    /// at every corner of the estimator, in corner order.
    pub fn estimate(&self, mv: &Move) -> Vec<(Features, MoveEstimate)> {
        self.estimate_in(mv, &mut Scratch::default())
    }

    /// [`MoveEstimator::estimate`] of every move in `moves`, in order,
    /// with one set of reusable buffers.
    pub fn estimate_all(&self, moves: &[Move]) -> Vec<Vec<(Features, MoveEstimate)>> {
        let mut sc = Scratch::default();
        moves
            .iter()
            .map(|mv| self.estimate_in(mv, &mut sc))
            .collect()
    }

    /// [`MoveEstimator::estimate`] with this thread's buffers, which only
    /// ever serve this estimator.
    pub(crate) fn estimate_in(&self, mv: &Move, sc: &mut Scratch) -> Vec<(Features, MoveEstimate)> {
        let (tree, lib) = (self.tree, self.lib);
        // the four analytic estimates; geometry fills the rest
        let mut per_corner = match *mv {
            Move::SizeDisplace { node, dir, resize } => {
                let new_cell = resized(lib, tree.cell(node).expect("buffer"), resize);
                self.driver_change(sc, node, dir, new_cell, None)
            }
            Move::ChildSize {
                node,
                dir,
                child,
                child_resize,
            } => {
                let child_cell = tree.cell(child).expect("buffer child");
                let change = (child, resized(lib, child_cell, child_resize));
                let cell = tree.cell(node).expect("buffer");
                self.driver_change(sc, node, Some(dir), cell, Some(change))
            }
            Move::Reassign { node, new_parent } => self.reassign(sc, node, new_parent),
        };
        let geometry = self.geometry(mv);
        for (f, _) in &mut per_corner {
            f[4..].copy_from_slice(&geometry);
        }
        per_corner
    }

    fn locs(&self, nodes: &[NodeId]) -> Vec<Point> {
        nodes.iter().map(|&c| self.tree.loc(c)).collect()
    }

    fn cap(&self, n: NodeId) -> f64 {
        pin_cap(self.tree, self.lib, n)
    }

    fn slew(&self, k: usize, n: NodeId) -> f64 {
        self.corners[k].1.slew_ps(n)
    }

    fn view<'v>(&self, v: &'v [f64], pins: usize) -> NetView<'v> {
        NetView {
            v,
            pins,
            corners: self.corners.len(),
        }
    }

    /// Appends the gate + wire delay under both wire models and the PERI
    /// slew at every pin of `r` (pin `i` loaded by `cap(i)`) at corner slot
    /// `k` to `out`, as `[field][pin]`: one lumped moment analysis (the
    /// *fast* estimate, not golden) of a net driven by `(cell, input slew)`.
    fn net_at(
        &self,
        nt: &mut NetTiming,
        r: &Routed,
        cap: impl Fn(usize) -> f64,
        k: usize,
        (cell, slew_in): (CellId, f64),
        out: &mut Vec<f64>,
    ) {
        let (lib, corner) = (self.lib, self.corners[k].0);
        let loads = r.nodes.iter().enumerate().map(|(i, &w)| (w, cap(i)));
        nt.reanalyze_lumped(&r.wt, lib.wire_rc(corner), loads);
        let load = nt.total_cap_ff();
        let gate = lib.gate_delay(cell, corner, slew_in, load);
        let gslew = lib.gate_output_slew(cell, corner, slew_in, load);
        for model in [WireModel::Elmore, WireModel::D2m] {
            out.extend(r.nodes.iter().map(|&w| gate + nt.delay_ps(w, model)));
        }
        out.extend(
            r.nodes
                .iter()
                .map(|&w| peri_slew(gslew, nt.wire_slew_ps(w))),
        );
    }

    /// Driver `d`'s net over `fanout` as it stands, under the first
    /// `topos` of [`TOPOS`] at every corner, in the [`NetView`] layout.
    fn estimate_net(&self, topos: usize, d: NodeId, fanout: &[NodeId]) -> Vec<f64> {
        let (cell, loc, pts) = (
            self.tree.cell(d).expect("driver"),
            self.tree.loc(d),
            self.locs(fanout),
        );
        let mut nt = NetTiming::default();
        let mut out = Vec::with_capacity(topos * self.corners.len() * FIELDS * fanout.len());
        for &topo in TOPOS.iter().take(topos) {
            let r = Routed::new(topo, loc, &pts);
            for k in 0..self.corners.len() {
                let drive = (cell, self.slew(k, d));
                self.net_at(&mut nt, &r, |i| self.cap(fanout[i]), k, drive, &mut out);
            }
        }
        out
    }

    /// `d`'s fanout net as it stands, from the table when it is built.
    fn before(&self, d: NodeId) -> Cow<'_, [f64]> {
        self.before.get(d).map_or_else(
            || Cow::Owned(self.estimate_net(TOPOS.len(), d, self.tree.children(d))),
            Cow::Borrowed,
        )
    }

    /// `c`'s driver net without `c`, from the table when it is built; FLUTE
    /// only (only the FLUTE×D2M side effects read it), `None` when `c` is
    /// an only child.
    fn without(&self, c: NodeId) -> Option<Cow<'_, [f64]>> {
        if let Some(v) = self.without.get(c) {
            return Some(Cow::Borrowed(v));
        }
        let p = self.tree.parent(c)?;
        let rest: Vec<NodeId> = self
            .tree
            .children(p)
            .iter()
            .copied()
            .filter(|&s| s != c)
            .collect();
        (!rest.is_empty()).then(|| Cow::Owned(self.estimate_net(1, p, &rest)))
    }

    fn moved(&self, node: NodeId, dir: Option<Direction>) -> Point {
        let loc = self.tree.loc(node);
        dir.map_or(loc, |d| loc.step(d, um_to_dbu(self.cfg.displace_um)))
    }

    /// The routes of `node` displaced by `dir`, from `memo` when this
    /// driver's moves routed them already.
    fn displaced<'m>(
        &self,
        memo: &'m mut Vec<Displaced>,
        node: NodeId,
        dir: Option<Direction>,
    ) -> &'m Displaced {
        if memo.first().is_some_and(|d| d.node != node) {
            memo.clear();
        }
        let at = match memo.iter().position(|d| d.dir == dir) {
            Some(at) => at,
            None => {
                let (tree, new_loc) = (self.tree, self.moved(node, dir));
                let route_all = |loc: Point, pts: &[Point]| -> Vec<Routed> {
                    TOPOS.iter().map(|&t| Routed::new(t, loc, pts)).collect()
                };
                let parent = tree.parent(node).map_or_else(Vec::new, |p| {
                    let pts: Vec<Point> = tree
                        .children(p)
                        .iter()
                        .map(|&c| if c == node { new_loc } else { tree.loc(c) })
                        .collect();
                    route_all(tree.loc(p), &pts)
                });
                let children = tree.children(node);
                let own = if children.is_empty() {
                    Vec::new()
                } else {
                    route_all(new_loc, &self.locs(children))
                };
                memo.push(Displaced {
                    node,
                    dir,
                    parent,
                    own,
                });
                memo.len() - 1
            }
        };
        &memo[at]
    }

    /// Type I/II: driver `node` moves by `dir` and becomes `new_cell`;
    /// `child_change` is a resized child.
    fn driver_change(
        &self,
        sc: &mut Scratch,
        node: NodeId,
        dir: Option<Direction>,
        new_cell: CellId,
        child_change: Option<(NodeId, CellId)>,
    ) -> Vec<(Features, MoveEstimate)> {
        let (tree, lib) = (self.tree, self.lib);
        let Scratch {
            nt,
            ea_p,
            ea,
            d3,
            displaced,
        } = sc;
        let routes = self.displaced(displaced, node, dir);
        let mut out = vec![(Features::default(), MoveEstimate::default()); self.corners.len()];
        // stage 0: the parent's net sees node's pin move / recap
        let new_cap = lib.cell(new_cell).input_cap_ff;
        let parent = tree.parent(node).map(|p| {
            let sibs = tree.children(p);
            let idx = sibs.iter().position(|&c| c == node).expect("node under p");
            (p, sibs, idx, self.before(p))
        });
        // stage 1: node's own net
        let children = tree.children(node);
        let changed = |c: NodeId| {
            child_change
                .filter(|&(cc, _)| cc == c)
                .map(|(_, cell)| cell)
        };
        let own_cap = |i: usize| {
            changed(children[i])
                .map_or_else(|| self.cap(children[i]), |cell| lib.cell(cell).input_cap_ff)
        };
        let own_before = (!children.is_empty()).then(|| self.before(node));
        let n = children.len();
        for t in 0..TOPOS.len() {
            for (k, (primary, detail)) in out.iter_mut().enumerate() {
                let (corner, timing) = self.corners[k];
                // d1 per wire model and the slew shift at node's input
                let (mut d1, mut slew_shift) = ([0.0; 2], 0.0);
                if let Some((p, sibs, idx, eb)) = &parent {
                    let eb = self.view(eb, sibs.len());
                    let cap = |i: usize| {
                        if i == *idx {
                            new_cap
                        } else {
                            self.cap(sibs[i])
                        }
                    };
                    let drive = (tree.cell(*p).expect("driver"), self.slew(k, *p));
                    ea_p.clear();
                    self.net_at(nt, &routes.parent[t], cap, k, drive, ea_p);
                    let at = |f: usize, i: usize| ea_p[f * sibs.len() + i] - eb.at(t, k, f, i);
                    d1 = [at(0, *idx), at(1, *idx)];
                    slew_shift = at(SLEW, *idx);
                    if t == 0 {
                        detail.side_effects = (0..sibs.len())
                            .filter(|&i| i != *idx)
                            .map(|i| (sibs[i], at(DETAIL, i)))
                            .collect();
                    }
                }
                let Some(eb) = &own_before else {
                    primary[2 * t..2 * t + 2].copy_from_slice(&d1);
                    if t == 0 {
                        detail.per_child = vec![(node, d1[DETAIL])];
                    }
                    continue;
                };
                let eb = self.view(eb, n);
                let drive = (new_cell, (self.slew(k, node) + slew_shift).max(1.0));
                ea.clear();
                self.net_at(nt, &routes.own[t], own_cap, k, drive, ea);
                // stage-2 gate-delay change of each buffer child (wire-model
                // independent: it reads the pin slews)
                d3.clear();
                d3.extend(
                    children
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| match tree.node(c).kind {
                            NodeKind::Buffer(c_cell) => {
                                let load = timing.load_ff(c);
                                let g_b =
                                    lib.gate_delay(c_cell, corner, eb.at(t, k, SLEW, i), load);
                                let new_c = changed(c).unwrap_or(c_cell);
                                let g_a = lib.gate_delay(new_c, corner, ea[SLEW * n + i], load);
                                g_a - g_b
                            }
                            _ => 0.0,
                        }),
                );
                for m in 0..2 {
                    // shift at the driver input (d1) + this child's own
                    // net-delay change + its stage-2 gate-delay change
                    let delta = |i: usize| d1[m] + (ea[m * n + i] - eb.at(t, k, m, i)) + d3[i];
                    primary[2 * t + m] = (0..n).map(delta).sum::<f64>() / n as f64;
                    if 2 * t + m == DETAIL {
                        detail.per_child = children
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| (c, delta(i)))
                            .collect();
                    }
                }
            }
        }
        for (primary, detail) in &mut out {
            detail.primary_delta = primary[DETAIL];
        }
        out
    }

    /// Type III: `node` leaves its driver for `new_parent`.
    fn reassign(
        &self,
        sc: &mut Scratch,
        node: NodeId,
        new_parent: NodeId,
    ) -> Vec<(Features, MoveEstimate)> {
        let tree = self.tree;
        let p = tree.parent(node).expect("non-root");
        let sibs = tree.children(p);
        let idx = sibs
            .iter()
            .position(|&c| c == node)
            .expect("node is a child of p");
        // new driver's net with `node` appended
        let new_sibs = tree.children(new_parent);
        let last = new_sibs.len();
        let mut pts = self.locs(new_sibs);
        pts.push(tree.loc(node));
        let cap = |i: usize| self.cap(if i == last { node } else { new_sibs[i] });
        let np_cell = tree.cell(new_parent).expect("driver");
        let eo = self.before(p);
        let eo = self.view(&eo, sibs.len());
        // side effects: old siblings speed up, new siblings slow down
        let rem = self.without(node);
        let rem = rem.as_deref().map(|v| self.view(v, sibs.len() - 1));
        let prior = (last > 0).then(|| self.before(new_parent));
        let prior = prior.as_deref().map(|v| self.view(v, last));
        let mut out = vec![(Features::default(), MoveEstimate::default()); self.corners.len()];
        for (t, &topo) in TOPOS.iter().enumerate() {
            let r = Routed::new(topo, tree.loc(new_parent), &pts);
            for (k, (primary, detail)) in out.iter_mut().enumerate() {
                let timing = self.corners[k].1;
                sc.ea.clear();
                self.net_at(
                    &mut sc.nt,
                    &r,
                    cap,
                    k,
                    (np_cell, self.slew(k, new_parent)),
                    &mut sc.ea,
                );
                let en = |f: usize, i: usize| sc.ea[f * (last + 1) + i];
                let shift = timing.arrival_ps(new_parent) - timing.arrival_ps(p);
                for m in 0..2 {
                    primary[2 * t + m] = shift + (en(m, last) - eo.at(t, k, m, idx));
                }
                if t > 0 {
                    continue;
                }
                let mut side = Vec::new();
                if let Some(rem) = rem {
                    let old = (0..sibs.len()).filter(|&i| i != idx);
                    for (j, i) in old.enumerate() {
                        side.push((sibs[i], rem.at(0, k, DETAIL, j) - eo.at(0, k, DETAIL, i)));
                    }
                }
                if let Some(prior) = prior {
                    for (i, &c) in new_sibs.iter().enumerate() {
                        side.push((c, en(DETAIL, i) - prior.at(0, k, DETAIL, i)));
                    }
                }
                detail.side_effects = side;
            }
        }
        for (primary, detail) in &mut out {
            detail.primary_delta = primary[DETAIL];
            detail.per_child = vec![(node, primary[DETAIL])];
        }
        out
    }

    /// Corner-independent features: net geometry (fanout, bounding-box
    /// area, aspect ratio) and the move descriptors (drive delta,
    /// displacement, child-cap delta).
    fn geometry(&self, mv: &Move) -> [f64; N_FEATURES - 4] {
        let (tree, lib, cfg) = (self.tree, self.lib, self.cfg);
        let node = mv.primary_node();
        let children = tree.children(node);
        let mut bbox = Rect::new(tree.loc(node), tree.loc(node));
        for &c in children {
            bbox.expand(tree.loc(c));
        }
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
        [
            children.len() as f64,
            bbox.area_um2() / 1_000.0,
            bbox.aspect_ratio(),
            ddrive,
            dist,
            dcap,
        ]
    }
}

/// Number of features produced by [`move_features`].
pub const N_FEATURES: usize = 10;

/// One move's model input at one corner (see [`move_features`]).
pub type Features = [f64; N_FEATURES];

/// The model input of the paper at one corner: the four analytical delta
/// estimates (FLUTE×Elmore, FLUTE×D2M, trunk×Elmore, trunk×D2M) plus net geometry
/// (fanout, bounding-box area, aspect ratio) and move descriptors. Scoring
/// many moves or corners at once is cheaper through [`MoveEstimator`].
pub fn move_features(
    tree: &ClockTree,
    lib: &Library,
    corner: CornerId,
    timing: &CornerTiming,
    mv: &Move,
    cfg: &MoveConfig,
) -> Vec<f64> {
    let est = MoveEstimator::new(tree, lib, cfg, vec![(corner, timing)]);
    est.estimate(mv).swap_remove(0).0.to_vec()
}

/// Which learner backs a [`DeltaLatencyModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Artificial neural network only.
    Ann,
    /// LS-SVM with RBF kernel only.
    Svm,
    /// HSM blend of ANN + SVM (the flow default).
    Hsm,
}

/// Training configuration for the delta-latency models.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of artificial testcases (the paper uses 150).
    pub n_cases: usize,
    /// Every `last_stage_every`-th case is a last-stage net (fanout
    /// 20–40).
    pub last_stage_every: usize,
    /// Cap on moves sampled per case (the paper averages ~450).
    pub moves_per_case: usize,
    /// RNG seed for case generation.
    pub seed: u64,
    /// ANN hyper-parameters.
    pub mlp: MlpConfig,
    /// RBF kernel width.
    pub svm_gamma: f64,
    /// LS-SVM regularization.
    pub svm_c: f64,
    /// Subsample cap for the O(n³) LS-SVM solve.
    pub svm_max_samples: usize,
    /// Fraction held out to pick HSM blend weights.
    pub val_frac: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            n_cases: 60,
            last_stage_every: 3,
            moves_per_case: 80,
            seed: 11,
            mlp: MlpConfig {
                epochs: 120,
                ..MlpConfig::default()
            },
            svm_gamma: 0.08,
            svm_c: 50.0,
            svm_max_samples: 600,
            val_frac: 0.2,
        }
    }
}

/// The labelled training data of one corner.
#[derive(Debug, Clone, Default)]
pub struct CornerData {
    /// Feature vectors.
    pub x: Vec<Vec<f64>>,
    /// Golden-timer delta-latency targets, ps.
    pub y: Vec<f64>,
    /// Baseline (pre-move) mean latency of the affected sinks, ps — the
    /// paper reports model error on latencies reconstructed as
    /// `latency + predicted delta` (Fig. 5), so the baseline is kept with
    /// every sample.
    pub lat: Vec<f64>,
}

/// Per-corner training data built from artificial testcases.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Indexed by corner.
    pub per_corner: Vec<CornerData>,
}

/// Generates the training set: artificial nets, candidate moves, golden
/// before/after timing (paper §4.2's data-generation loop).
pub fn build_dataset(lib: &Library, cfg: &TrainConfig) -> Dataset {
    let fp = Floorplan::utilized(Rect::from_um(0.0, 0.0, 1_000.0, 1_000.0), vec![]);
    let timer = Timer::golden();
    let mcfg = MoveConfig::default();
    let mut per_corner = vec![CornerData::default(); lib.corner_count()];
    for case_i in 0..cfg.n_cases {
        let case = clk_cts::artificial(
            lib,
            cfg.seed.wrapping_add(case_i as u64),
            cfg.last_stage_every > 0 && case_i % cfg.last_stage_every == 0,
        );
        let before: Vec<CornerTiming> = timer.analyze_all(&case.tree, lib);
        // every node is a training target so the model sees all three
        // Table-2 move types (including sink reassignments)
        let all_moves = enumerate_moves(&case.tree, lib, &mcfg, None);
        if all_moves.is_empty() {
            continue;
        }
        // deterministic stride sampling for diversity under the cap
        let stride = all_moves.len().div_ceil(cfg.moves_per_case.max(1)).max(1);
        let sampled: Vec<Move> = all_moves.into_iter().step_by(stride).collect();
        let corners = lib.corner_ids().zip(&before).collect();
        let est = MoveEstimator::new(&case.tree, lib, &mcfg, corners).with_tables(&sampled);
        for (mv, estimate) in sampled.iter().zip(est.estimate_all(&sampled)) {
            let primary = mv.primary_node();
            let sinks: Vec<NodeId> = case
                .tree
                .sinks()
                .filter(|&s| case.tree.is_descendant(s, primary))
                .collect();
            if sinks.is_empty() {
                continue;
            }
            let mut trial = case.tree.clone();
            if apply_move(&mut trial, lib, &fp, &mcfg, mv).is_err() {
                continue;
            }
            for (k, (feats, _)) in lib.corner_ids().zip(estimate) {
                let after = timer.analyze(&trial, lib, k);
                let baseline: f64 = sinks
                    .iter()
                    .map(|&s| before[k.0].arrival_ps(s))
                    .sum::<f64>()
                    / sinks.len() as f64;
                let target: f64 = sinks
                    .iter()
                    .map(|&s| after.arrival_ps(s) - before[k.0].arrival_ps(s))
                    .sum::<f64>()
                    / sinks.len() as f64;
                per_corner[k.0].x.push(feats.to_vec());
                per_corner[k.0].y.push(target);
                per_corner[k.0].lat.push(baseline);
            }
        }
    }
    Dataset { per_corner }
}

/// One corner's trained predictor.
enum CornerModel {
    Ann(Mlp),
    Svm(LsSvm),
    Hsm(Hsm<Box<dyn Regressor>>),
}

impl CornerModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            CornerModel::Ann(m) => m.predict(x),
            CornerModel::Svm(m) => m.predict(x),
            CornerModel::Hsm(m) => m.predict(x),
        }
    }
}

/// Per-corner machine-learning delta-latency predictor.
///
/// One model per corner is trained once per technology on artificial
/// testcases and reused for every design (paper §4.2).
pub struct DeltaLatencyModel {
    kind: ModelKind,
    scalers: Vec<StandardScaler>,
    /// Per-corner target normalization `(mean, std)` — reassignment moves
    /// produce deltas two orders of magnitude above sizing moves, so the
    /// learners train on standardized targets.
    y_norm: Vec<(f64, f64)>,
    models: Vec<CornerModel>,
}

impl std::fmt::Debug for DeltaLatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaLatencyModel")
            .field("kind", &self.kind)
            .field("corners", &self.models.len())
            .finish()
    }
}

impl DeltaLatencyModel {
    /// Trains the chosen model kind on `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if a corner has no samples.
    pub fn fit(dataset: &Dataset, kind: ModelKind, cfg: &TrainConfig) -> Self {
        let mut scalers = Vec::with_capacity(dataset.per_corner.len());
        let mut y_norm = Vec::with_capacity(dataset.per_corner.len());
        let mut models = Vec::with_capacity(dataset.per_corner.len());
        for data in &dataset.per_corner {
            assert!(!data.x.is_empty(), "no training data for a corner");
            let scaler = StandardScaler::fit(&data.x);
            let xs = scaler.transform_batch(&data.x);
            let n = data.y.len() as f64;
            let mean = data.y.iter().sum::<f64>() / n;
            let std = (data.y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
                .sqrt()
                .max(1e-9);
            let ys: Vec<f64> = data.y.iter().map(|v| (v - mean) / std).collect();
            let model = match kind {
                ModelKind::Ann => CornerModel::Ann(Mlp::train(&xs, &ys, &cfg.mlp)),
                ModelKind::Svm => CornerModel::Svm(train_svm(&xs, &ys, cfg)),
                ModelKind::Hsm => {
                    let (tr, va) = clk_ml::train_val_split(xs.len(), cfg.val_frac, cfg.seed);
                    let take = |idx: &[usize]| -> (Vec<Vec<f64>>, Vec<f64>) {
                        (
                            idx.iter().map(|&i| xs[i].clone()).collect(),
                            idx.iter().map(|&i| ys[i]).collect(),
                        )
                    };
                    let (xt, yt) = take(&tr);
                    let (xv, yv) = take(&va);
                    let ann = Mlp::train(&xt, &yt, &cfg.mlp);
                    let svm = train_svm(&xt, &yt, cfg);
                    let base: Vec<Box<dyn Regressor>> = vec![Box::new(ann), Box::new(svm)];
                    CornerModel::Hsm(Hsm::blend(base, &xv, &yv, 0.1))
                }
            };
            scalers.push(scaler);
            y_norm.push((mean, std));
            models.push(model);
        }
        DeltaLatencyModel {
            kind,
            scalers,
            y_norm,
            models,
        }
    }

    /// Convenience: build the dataset and fit in one step.
    pub fn train(lib: &Library, kind: ModelKind, cfg: &TrainConfig) -> Self {
        let ds = build_dataset(lib, cfg);
        Self::fit(&ds, kind, cfg)
    }

    /// Which learner backs this model.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predicted delta latency, ps, for raw (unscaled) features at
    /// `corner`.
    ///
    /// # Panics
    ///
    /// Panics if `corner` is out of range.
    pub fn predict(&self, corner: CornerId, features: &[f64]) -> f64 {
        let scaler = &self.scalers[corner.0];
        let (mean, std) = self.y_norm[corner.0];
        let z = if features.len() <= N_FEATURES {
            // the scoring hot path: standardized on the stack
            let mut z = [0.0; N_FEATURES];
            scaler.transform_into(features, &mut z);
            self.models[corner.0].predict(&z[..features.len().min(scaler.width())])
        } else {
            self.models[corner.0].predict(&scaler.transform(features))
        };
        z * std + mean
    }
}

fn train_svm(xs: &[Vec<f64>], ys: &[f64], cfg: &TrainConfig) -> LsSvm {
    if xs.len() <= cfg.svm_max_samples {
        return LsSvm::train(xs, ys, cfg.svm_gamma, cfg.svm_c);
    }
    // deterministic stride subsample
    let stride = xs.len().div_ceil(cfg.svm_max_samples);
    let xi: Vec<Vec<f64>> = xs.iter().step_by(stride).cloned().collect();
    let yi: Vec<f64> = ys.iter().step_by(stride).copied().collect();
    LsSvm::train(&xi, &yi, cfg.svm_gamma, cfg.svm_c)
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use clk_liberty::StdCorners;
    use clk_ml::{mape, mse};

    fn lib() -> Library {
        Library::synthetic_28nm(StdCorners::c0_c1_c3())
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            n_cases: 8,
            moves_per_case: 14,
            mlp: MlpConfig {
                epochs: 60,
                ..MlpConfig::default()
            },
            ..TrainConfig::default()
        }
    }

    #[test]
    fn dataset_has_consistent_shapes() {
        let lib = lib();
        let ds = build_dataset(&lib, &tiny_cfg());
        assert_eq!(ds.per_corner.len(), 3);
        for cd in &ds.per_corner {
            assert!(!cd.x.is_empty());
            assert_eq!(cd.x.len(), cd.y.len());
            assert!(cd.x.iter().all(|f| f.len() == N_FEATURES));
            assert!(cd.x.iter().flatten().all(|v| v.is_finite()));
            assert!(cd.y.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn analytic_estimates_correlate_with_golden() {
        let lib = lib();
        let ds = build_dataset(&lib, &tiny_cfg());
        // feature 0 is the FLUTE×Elmore estimate: it should correlate
        // positively with the golden target
        let cd = &ds.per_corner[0];
        let est: Vec<f64> = cd.x.iter().map(|f| f[0]).collect();
        let n = est.len() as f64;
        let me = est.iter().sum::<f64>() / n;
        let my = cd.y.iter().sum::<f64>() / n;
        let cov: f64 = est
            .iter()
            .zip(&cd.y)
            .map(|(a, b)| (a - me) * (b - my))
            .sum();
        let va: f64 = est.iter().map(|a| (a - me) * (a - me)).sum();
        let vb: f64 = cd.y.iter().map(|b| (b - my) * (b - my)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt() + 1e-12);
        assert!(corr > 0.5, "corr = {corr}");
    }

    #[test]
    fn trained_model_beats_raw_analytical() {
        let lib = lib();
        let cfg = tiny_cfg();
        let ds = build_dataset(&lib, &cfg);
        // train/test split per corner 0
        let cd = &ds.per_corner[0];
        let n = cd.x.len();
        let cut = n * 4 / 5;
        let train = Dataset {
            per_corner: vec![CornerData {
                x: cd.x[..cut].to_vec(),
                y: cd.y[..cut].to_vec(),
                lat: cd.lat[..cut].to_vec(),
            }],
        };
        let model = DeltaLatencyModel::fit(&train, ModelKind::Hsm, &cfg);
        let pred: Vec<f64> = cd.x[cut..]
            .iter()
            .map(|f| model.predict(CornerId(0), f))
            .collect();
        let analytic: Vec<f64> = cd.x[cut..].iter().map(|f| f[0]).collect();
        let truth = &cd.y[cut..];
        let m_model = mse(&pred, truth);
        let m_analytic = mse(&analytic, truth);
        assert!(
            m_model < m_analytic * 1.5,
            "model mse {m_model} vs analytic {m_analytic}"
        );
        // Fig. 5's metric: error relative to the reconstructed latency
        // (latency + delta), which is what the paper's 2.8% refers to
        let lat = &cd.lat[cut..];
        let rel: f64 = pred
            .iter()
            .zip(truth)
            .zip(lat)
            .map(|((p, t), l)| ((p - t) / (l + t)).abs())
            .sum::<f64>()
            / pred.len() as f64;
        assert!(rel < 0.25, "latency-relative error {:.1}%", 100.0 * rel);
        // raw-delta MAPE is noisy (near-zero deltas blow up the ratio
        // even under the 1 ps floor) but should stay bounded
        let e = mape(&pred, truth, 1.0);
        assert!(e < 600.0, "mape {e}%");
    }

    #[test]
    fn predict_is_deterministic() {
        let lib = lib();
        let cfg = tiny_cfg();
        let ds = build_dataset(&lib, &cfg);
        let m1 = DeltaLatencyModel::fit(&ds, ModelKind::Ann, &cfg);
        let m2 = DeltaLatencyModel::fit(&ds, ModelKind::Ann, &cfg);
        let x = &ds.per_corner[1].x[0];
        assert_eq!(m1.predict(CornerId(1), x), m2.predict(CornerId(1), x));
    }
}
