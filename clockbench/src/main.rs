//! The clockvar benchmark: runs one workload of the flow end to end,
//! checks every output, and prints its metrics by name and unit.
//!
//! ```sh
//! cargo run --release --manifest-path clockbench/Cargo.toml -- \
//!     --workload quick48 --seed 2015 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last stdout line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1` (a
//! separate, traced pass). See `clockbench/README.md`.

// float arithmetic is the domain here
#![allow(clippy::float_arithmetic)]

mod check;
mod layers;
mod metrics;
mod provenance;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use clk_cts::Testcase;
use clk_obs::{Obs, ObsConfig};
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, FlowConfig, OptReport, StageLuts};

use crate::layers::{Probe, Trace};
use crate::workload::{Workload, CANARY_SINKS, LOCAL_WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2015,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One testcase with the per-technology artifacts its flow needs.
struct Prepared {
    tc: Testcase,
    luts: Option<StageLuts>,
    model: Option<DeltaLatencyModel>,
}

/// Seconds spent in each set-up layer over all of a workload's cases.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    generate: f64,
    characterize: f64,
    train: f64,
}

impl SetupTimes {
    fn total(self) -> f64 {
        self.generate + self.characterize + self.train
    }
}

fn prepare(w: &Workload) -> (Vec<Prepared>, SetupTimes) {
    let mut t = SetupTimes::default();
    let prepared = w
        .cases
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            let tc = Testcase::generate(c.kind, w.sinks, c.seed);
            t.generate += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let luts = w.needs_luts().then(|| StageLuts::characterize(&tc.lib));
            t.characterize += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let model = w
                .needs_model()
                .then(|| DeltaLatencyModel::train(&tc.lib, w.cfg.model_kind, &w.cfg.train));
            t.train += t0.elapsed().as_secs_f64();
            Prepared { tc, luts, model }
        })
        .collect();
    (prepared, t)
}

/// One flow run: its report (or error) and wall time.
struct Run {
    report: Result<OptReport, String>,
    secs: f64,
    problems: Vec<String>,
}

/// Runs the workload's flow on one testcase and checks its output.
fn run_flow(w: &Workload, cfg: &FlowConfig, tc: &Testcase, art: &Prepared) -> Run {
    let t0 = Instant::now();
    let out = try_optimize_with(tc, w.flow, cfg, art.luts.as_ref(), art.model.as_ref());
    let secs = t0.elapsed().as_secs_f64();
    match out {
        Ok(rep) => Run {
            problems: check::check_report(tc, w.flow, cfg, &rep),
            report: Ok(rep),
            secs,
        },
        Err(e) => Run {
            problems: vec![format!("flow failed: {e}")],
            report: Err(e.to_string()),
            secs,
        },
    }
}

/// Runs the workload's flow on every case in turn.
fn pass(w: &Workload, cfg: &FlowConfig, cases: &[Prepared]) -> Vec<Run> {
    cases.iter().map(|p| run_flow(w, cfg, &p.tc, p)).collect()
}

fn pass_secs(runs: &[Run]) -> f64 {
    runs.iter().map(|r| r.secs).sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// The QoR end-to-end metrics of one pass's reports.
fn qor_metrics(reports: &[&OptReport]) -> Vec<(&'static str, f64)> {
    let worst_skew = reports
        .iter()
        .flat_map(|r| {
            r.local_skew_after
                .iter()
                .zip(&r.local_skew_before)
                .map(|(a, b)| layers::ratio(*a, *b))
        })
        .fold(0.0, f64::max);
    let cells = |f: fn(&OptReport) -> usize| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    vec![
        (
            "variation_ratio",
            geomean(reports.iter().map(|r| r.variation_ratio())),
        ),
        ("max_local_skew_ratio", worst_skew),
        (
            "power_ratio",
            geomean(
                reports
                    .iter()
                    .map(|r| layers::ratio(r.power_after_mw, r.power_before_mw)),
            ),
        ),
        (
            "cells_ratio",
            layers::ratio(cells(|r| r.cells_after), cells(|r| r.cells_before)),
        ),
    ]
}

/// The process's high-water resident set, MB (0 where `/proc` lacks it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One testcase's row: QoR before and after, flow time, check outcome.
fn case_row(name: &str, seed: u64, run: &Run) -> String {
    match &run.report {
        Ok(r) => format!(
            "  {name:<16} seed {seed:<6} var {:>7.1} -> {:>7.1} ps [{:.3}]  local skew {:?} -> {:?} ps  \
             cells {} -> {}  power {:.4} -> {:.4} mW  faults {}  {:.2} s{}",
            r.variation_before,
            r.variation_after,
            r.variation_ratio(),
            r.local_skew_before.iter().map(|s| (s * 10.0).round() / 10.0).collect::<Vec<_>>(),
            r.local_skew_after.iter().map(|s| (s * 10.0).round() / 10.0).collect::<Vec<_>>(),
            r.cells_before,
            r.cells_after,
            r.power_before_mw,
            r.power_after_mw,
            r.faults.len(),
            run.secs,
            if run.problems.is_empty() { String::new() } else { format!("  FAILED: {}", run.problems.join("; ")) },
        ),
        Err(e) => format!("  {name:<16} seed {seed:<6} FAILED: {e}"),
    }
}

/// Pins glibc's allocator tunables so the high-water RSS repeats. By
/// default each thread may get its own arena and the mmap threshold
/// grows with the largest block freed so far; both make the heap's
/// layout depend on how the local workers interleave, and the peak RSS
/// of `quick48` came out as 20 or 33 MB from run to run. One arena and a
/// fixed threshold (blocks of 128 KiB and up are mapped, and unmapped
/// when freed) keep the peak close to the live data.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_tunables() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets allocator tunables and is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_tunables() {}

fn main() -> ExitCode {
    pin_malloc_tunables();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clockbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload, args.seed) else {
        eprintln!(
            "clockbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let stamp = provenance::stamp(w.name, args.seed, LOCAL_WORKERS);
    println!("provenance {}", stamp.to_json());

    // set-up, several times; the last set of artifacts is kept
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let (c, t) = prepare(&w);
        setups.push(t);
        cases = c;
    }
    let setup_med = |f: fn(SetupTimes) -> f64| median(setups.iter().map(|&t| f(t)).collect());

    // untraced passes until the measuring window closes (at least one)
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed() < window {
        passes.push(pass(&w, &w.cfg, &cases));
    }
    let flow_s = median(passes.iter().map(|p| pass_secs(p)).collect());

    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for runs in &passes {
        attempted += runs.len();
        failed += runs.iter().filter(|r| !r.problems.is_empty()).count();
    }
    // every pass must reproduce the first one exactly
    let fingerprints = |runs: &[Run]| -> Vec<String> {
        runs.iter()
            .map(|r| {
                r.report
                    .as_ref()
                    .map_or_else(Clone::clone, check::qor_fingerprint)
            })
            .collect()
    };
    let first = fingerprints(&passes[0]);
    if passes.iter().any(|p| fingerprints(p) != first) {
        problems.push("untraced passes disagree on QoR".to_string());
    }

    println!(
        "workload {} ({} flow, {} sinks, {} cases), seed {}, {} pass(es)",
        w.name,
        w.flow,
        w.sinks,
        w.cases.len(),
        args.seed,
        passes.len()
    );
    for (c, run) in w.cases.iter().zip(&passes[0]) {
        println!("{}", case_row(c.kind.name(), c.seed, run));
    }

    // the canary: a fresh design from the run's seed, checked, not timed
    let canary_tc = Testcase::generate(w.canary.kind, CANARY_SINKS, w.canary.seed);
    // the high-water mark of the timed work, before the canary adds its own
    let peak_rss = peak_rss_mb();
    let canary = run_flow(&w, &w.canary_cfg, &canary_tc, &cases[0]);
    let label = format!("canary {}/{CANARY_SINKS}", w.canary.kind.name());
    println!("{}", case_row(&label, w.canary.seed, &canary));
    attempted += 1;
    failed += usize::from(!canary.problems.is_empty());

    let mut out: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        let obs = Obs::new(ObsConfig {
            profile: true,
            ..ObsConfig::default()
        });
        let cfg = FlowConfig {
            obs: obs.clone(),
            ..w.cfg.clone()
        };
        let traced = pass(&w, &cfg, &cases);
        attempted += traced.len();
        failed += traced.iter().filter(|r| !r.problems.is_empty()).count();
        if fingerprints(&traced) != first {
            problems.push("tracing changed a QoR field".to_string());
        }
        let snap = obs.metrics_snapshot().unwrap_or_default();
        let prof = obs.profiler().tree();
        let trace = Trace {
            snap: &snap,
            prof: &prof,
        };
        problems.extend(trace.certificate_problems());
        if trace.phase_coverage() < 0.95 {
            problems.push(format!(
                "phase spans cover only {:.3} of flow time",
                trace.phase_coverage()
            ));
        }
        let mut probe = Probe::default();
        for p in &cases {
            probe.add(&p.tc, &w.cfg.local.move_cfg, p.model.as_ref());
        }
        let faults: usize = traced
            .iter()
            .filter_map(|r| r.report.as_ref().ok())
            .map(|r| r.faults.len())
            .sum();
        out.extend([
            ("cts.generate_s", setup_med(|t| t.generate)),
            ("lut.characterize_s", setup_med(|t| t.characterize)),
            ("predictor.train_s", setup_med(|t| t.train)),
        ]);
        out.extend(probe.metrics());
        out.extend(trace.metrics());
        out.extend([
            ("flow.faults_absorbed", faults as f64),
            ("trace.overhead_s", pass_secs(&traced) - flow_s),
        ]);
    } else {
        let reports: Vec<&OptReport> = passes[0]
            .iter()
            .filter_map(|r| r.report.as_ref().ok())
            .collect();
        out.extend([
            ("flow_s", flow_s),
            ("setup_s", setup_med(SetupTimes::total)),
            ("peak_rss_mb", peak_rss),
        ]);
        out.extend(qor_metrics(&reports));
    }

    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    // the catalogue fixes the order; every metric in it must be measured
    let catalogue: Vec<(&str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let rows: Vec<(&str, &str, f64)> = catalogue
        .into_iter()
        .map(|(n, u)| {
            let v = out.iter().find(|(m, _)| *m == n).map(|&(_, v)| v);
            (n, u, v.expect("every catalogue metric is measured"))
        })
        .collect();
    for (n, u, v) in &rows {
        println!("  {n:<26} {v:>14.6} {u}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &rows)
    );
    ExitCode::SUCCESS
}
