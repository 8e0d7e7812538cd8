//! Criterion performance benchmarks of the kernels behind the paper's
//! runtime claims: move evaluation (§4.2 quotes 160K move evaluations in
//! 17 min on 15 threads), golden timing (40 min per full STA), LP solving
//! and the routing/delay estimators.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use clk_cts::{Testcase, TestcaseKind};
use clk_delay::{NetTiming, RcTree, WireModel};
use clk_geom::{Point, Rect};
use clk_liberty::{CornerId, Library, StdCorners, WireRc};
use clk_lp::Problem;
use clk_netlist::Floorplan;
use clk_obs::{Deadline, Level, Obs, ObsConfig};
use clk_route::{rsmt, single_trunk, WireTree};
use clk_skewopt::local::{Ranker, ScoreCtx};
use clk_skewopt::predictor::{move_features, Topo};
use clk_skewopt::{enumerate_moves, round_problem, LpObjective, MoveConfig, StageLuts};
use clk_sta::{alpha_factors, pair_skews, Timer};

fn pins(n: usize) -> (Point, Vec<Point>) {
    let mut seed = 42u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) % 80_000) as i64
    };
    let driver = Point::new(next(), next());
    let pts = (0..n).map(|_| Point::new(next(), next())).collect();
    (driver, pts)
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    let (d, p9) = pins(9);
    g.bench_function("rsmt_9pins", |b| b.iter(|| rsmt(d, &p9)));
    let (d, p30) = pins(30);
    g.bench_function("rsmt_30pins_mst_mode", |b| b.iter(|| rsmt(d, &p30)));
    g.bench_function("single_trunk_30pins", |b| b.iter(|| single_trunk(d, &p30)));
    g.finish();
}

fn bench_delay(c: &mut Criterion) {
    let mut g = c.benchmark_group("delay");
    g.sample_size(20);
    let mut wt = WireTree::new(Point::new(0, 0));
    let mut prev = WireTree::ROOT;
    for i in 1..=40 {
        prev = wt.add_child(prev, Point::new(i * 10_000, (i % 7) * 3_000));
    }
    let rc = WireRc {
        r_per_um: 2.0e-3,
        c_per_um: 0.2,
    };
    g.bench_function("extract_golden_5um", |b| {
        b.iter(|| RcTree::extract(&wt, rc, &[(prev, 3.0)], 5.0));
    });
    let fine = RcTree::extract(&wt, rc, &[(prev, 3.0)], 5.0);
    g.bench_function("moments_d2m", |b| b.iter(|| NetTiming::analyze(&fine)));
    g.finish();
}

fn bench_timer(c: &mut Criterion) {
    let mut g = c.benchmark_group("golden_timer");
    g.sample_size(10);
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 64, 1);
    let timer = Timer::golden();
    g.bench_function("analyze_64sinks_1corner", |b| {
        b.iter(|| timer.analyze(&tc.tree, &tc.lib, CornerId(0)));
    });
    g.bench_function("analyze_64sinks_3corners", |b| {
        b.iter(|| timer.analyze_all(&tc.tree, &tc.lib));
    });
    g.finish();
}

/// The flow's real LP: the first global round of the quick suite's
/// 48-sink CLS1v1 design (seed 2015) at the sweep's first λ, ~1.3k rows.
fn round_one_lp() -> Problem {
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 2015);
    let luts = StageLuts::characterize(&tc.lib);
    let cfg = clockvar_workbench::quick_flow_config().global;
    let lambda = cfg.lambdas[0];
    round_problem(
        &tc.tree,
        &tc.lib,
        &luts,
        &cfg,
        LpObjective::Scalarized(lambda),
    )
    .expect("the quick-suite tree times and builds")
}

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp");
    g.sample_size(10);
    let p = round_one_lp();
    // one solve per sample: a solve takes ~0.1 s, far above the timer's
    // resolution, so batching would only multiply the bench's runtime
    g.bench_function("simplex_cls1v1_48_round1", |b| {
        b.iter_batched(|| p.clone(), |p| clk_lp::solve(&p), BatchSize::PerIteration);
    });
    g.finish();
}

/// Instrumentation overhead: the disabled pipeline must be free (a single
/// `Option` branch on the hot paths — the <2% budget of DESIGN.md §8), and
/// an enabled sink-less pipeline must stay cheap enough for Debug-level
/// flow tracing.
fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(30);
    let disabled = Obs::disabled();
    g.bench_function("span_disabled", |b| {
        b.iter(|| disabled.span("bench.span"));
    });
    g.bench_function("count_disabled", |b| {
        b.iter(|| disabled.count("bench.ctr", 1));
    });
    // decision-ledger gate: every flow decision site asks `ledgering()`
    // before building a record, so the off path must be the same single
    // `Option` branch as the rest of the disabled pipeline — both on a
    // disabled Obs and on an enabled Obs with the ledger off (default)
    g.bench_function("ledger_gate_disabled", |b| {
        b.iter(|| disabled.ledgering());
    });
    let no_ledger = Obs::new(ObsConfig::default());
    g.bench_function("ledger_gate_off_enabled_obs", |b| {
        b.iter(|| no_ledger.ledgering());
    });
    let quiet = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    g.bench_function("span_enabled_no_sinks", |b| {
        b.iter(|| quiet.span("bench.span"));
    });
    g.bench_function("histogram_observe", |b| {
        b.iter(|| quiet.observe("bench.hist", 3.25));
    });
    // head-to-head on the LP kernel: the instrumented entry point with a
    // disabled pipeline must track `simplex_cls1v1_48_round1` within noise
    let p = round_one_lp();
    g.bench_function("simplex_cls1v1_48_round1_obs_disabled", |b| {
        b.iter_batched(
            || p.clone(),
            |p| clk_lp::solve_with_deadline(&p, &disabled, &Deadline::none()),
            BatchSize::PerIteration,
        );
    });
    g.bench_function("simplex_cls1v1_48_round1_obs_quiet", |b| {
        b.iter_batched(
            || p.clone(),
            |p| clk_lp::solve_with_deadline(&p, &quiet, &Deadline::none()),
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictor");
    g.sample_size(10);
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 48, 2);
    let timing = Timer::golden().analyze(&tc.tree, &tc.lib, CornerId(0));
    let mcfg = MoveConfig::default();
    let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
    let mv = moves[moves.len() / 2];
    g.bench_function("move_features_one_corner", |b| {
        b.iter(|| move_features(&tc.tree, &tc.lib, CornerId(0), &timing, &mv, &mcfg));
    });
    // one full local-phase scoring pass on a representative input: every
    // enumerated move of the 96-sink CLS1v1 tree, all corners, with the
    // per-iteration net tables built
    let tc = Testcase::generate(TestcaseKind::Cls1v1, 96, 2015);
    let timings = Timer::golden().analyze_all(&tc.tree, &tc.lib);
    let pairs = tc.tree.sink_pairs().to_vec();
    let skews: Vec<Vec<f64>> = timings.iter().map(|t| pair_skews(t, &pairs)).collect();
    let alphas = alpha_factors(&skews);
    let moves = enumerate_moves(&tc.tree, &tc.lib, &mcfg, None);
    let ranker = Ranker::Analytic(Topo::Flute, WireModel::D2m);
    g.bench_function("score_all_moves_96", |b| {
        b.iter(|| {
            let ctx = ScoreCtx::new(&tc.tree, &tc.lib, &timings, &pairs, &alphas, &mcfg, &moves);
            ctx.gains(&moves, ranker)
        });
    });
    g.finish();
}

fn bench_infra(c: &mut Criterion) {
    let mut g = c.benchmark_group("infra");
    g.sample_size(30);
    let lib = Library::synthetic_28nm(StdCorners::all());
    g.bench_function("library_characterize", |b| {
        b.iter(|| Library::synthetic_28nm(StdCorners::all()));
    });
    let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
    g.bench_function("nldm_lookup", |b| {
        b.iter(|| lib.gate_delay(x4, CornerId(1), 23.0, 9.5));
    });
    let fp = Floorplan::utilized(Rect::from_um(0.0, 0.0, 1820.0, 1820.0), vec![]);
    g.bench_function("legalize", |b| {
        b.iter(|| fp.legalize(Point::new(123_456, 777_777)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_routing,
    bench_delay,
    bench_timer,
    bench_lp,
    bench_predictor,
    bench_infra,
    bench_obs
);
criterion_main!(benches);
