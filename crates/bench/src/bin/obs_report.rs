//! Instrumented smoke flow: runs the global-local flow with the `clk-obs`
//! pipeline at Debug verbosity into an in-memory JSONL buffer, then parses
//! the stream back and renders a per-phase / per-round summary table.
//!
//! ```sh
//! cargo run --release -p clk-bench --bin obs-report -- --quick --seed 2015 \
//!     [--out trace.jsonl] [--trace-out trace.json] [--tile-tol PCT]
//! ```
//!
//! Exit code 0 only when the trace is structurally complete: every line
//! parses, every flow phase / global round / local batch has a span, the
//! per-phase wall-clock totals tile the flow span within `--tile-tol`
//! percent (default 5; CI passes a looser value since a loaded machine
//! can stall between spans), and every absorbed fault in
//! `OptReport::faults` has a matching JSONL fault event. `--trace-out`
//! additionally exports the stream as Chrome trace-event JSON for
//! `about://tracing` / Perfetto.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic)]

use std::collections::HashMap;
use std::process::ExitCode;

use clk_bench::{ExpArgs, Stopwatch};
use clk_cts::{Testcase, TestcaseKind};
use clk_obs::{json, Level, Obs, ObsConfig, SharedBuf, Value};
use clk_skewopt::{try_optimize_with, DeltaLatencyModel, Flow, StageLuts};

/// One parsed JSONL record, keyed by the fields obs-report joins on.
struct Rec {
    kind: String,
    name: String,
    span: Option<u64>,
    parent: Option<u64>,
    elapsed_ms: Option<f64>,
    value: Value,
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    v.get("fields")
        .and_then(|f| f.get(key))
        .and_then(Value::as_f64)
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get("fields")
        .and_then(|f| f.get(key))
        .and_then(Value::as_str)
}

fn main() -> ExitCode {
    let args = ExpArgs::parse();
    let argv: Vec<String> = std::env::args().collect();
    let flag_val = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let out_path = flag_val("--out");
    let trace_out = flag_val("--trace-out");
    // phase-tiling tolerance, percent; a hard-coded 5% flakes on loaded
    // CI machines, so the workflow passes a looser bound
    let tile_tol = flag_val("--tile-tol")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0)
        / 100.0;
    let n = args.sinks.unwrap_or(if args.quick { 40 } else { 120 });
    let seed = args.seed;

    let obs = Obs::new(ObsConfig {
        verbosity: Level::Debug,
        ..ObsConfig::default()
    });
    let buf = SharedBuf::new();
    obs.add_jsonl_buffer(&buf);

    let mut cfg = clockvar_workbench::quick_flow_config();
    cfg.obs = obs.clone();

    println!("obs-report: seed {seed}, {n} sinks, flow global-local, verbosity debug");
    let tc = Testcase::generate(TestcaseKind::Cls1v1, n, seed);
    let sw = Stopwatch::start("obs-report");
    let luts = StageLuts::characterize(&tc.lib);
    let model = DeltaLatencyModel::train(&tc.lib, cfg.model_kind, &cfg.train);
    let report = match try_optimize_with(&tc, Flow::GlobalLocal, &cfg, Some(&luts), Some(&model)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: instrumented flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    sw.report();
    obs.emit_metrics();
    obs.flush();

    let text = buf.contents();
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("FAIL: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace written to {path}");
    }
    if let Some(path) = &trace_out {
        match clk_obs::chrome::chrome_trace_from_jsonl(&text) {
            Ok(doc) => {
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("FAIL: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("chrome trace written to {path} (load at ui.perfetto.dev)");
            }
            Err(e) => {
                eprintln!("FAIL: chrome trace conversion: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // ---- parse the stream back through the same JSON module ----
    let mut recs: Vec<Rec> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL: line {} does not parse: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        recs.push(Rec {
            kind: v.get("t").and_then(Value::as_str).unwrap_or("").to_string(),
            name: v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            span: v.get("span").and_then(Value::as_u64),
            parent: v.get("parent").and_then(Value::as_u64),
            elapsed_ms: v.get("elapsed_ms").and_then(Value::as_f64),
            value: v,
        });
    }
    println!("parsed {} JSONL records", recs.len());

    // span_start fields by span id (round index, lambda, batch index live
    // on the start record; durations and outcomes on the end record)
    let starts: HashMap<u64, &Rec> = recs
        .iter()
        .filter(|r| r.kind == "span_start")
        .filter_map(|r| r.span.map(|id| (id, r)))
        .collect();
    let ends: Vec<&Rec> = recs.iter().filter(|r| r.kind == "span_end").collect();
    let end_of = |name: &str| -> Vec<&&Rec> { ends.iter().filter(|r| r.name == name).collect() };

    let flow_ms = end_of("flow")
        .first()
        .and_then(|r| r.elapsed_ms)
        .unwrap_or(0.0);

    // ---- per-phase table ----
    println!("\nper-phase wall clock:");
    println!("{:<16} {:>10} {:>7}", "phase", "ms", "%flow");
    let mut phase_sum = 0.0;
    let mut phases_seen = 0usize;
    for phase in ["phase.init", "phase.global", "phase.local", "phase.scoring"] {
        let ms: f64 = end_of(phase).iter().filter_map(|r| r.elapsed_ms).sum();
        if !end_of(phase).is_empty() {
            phases_seen += 1;
        }
        phase_sum += ms;
        println!(
            "{:<16} {:>10.1} {:>6.1}%",
            phase,
            ms,
            if flow_ms > 0.0 {
                100.0 * ms / flow_ms
            } else {
                0.0
            }
        );
    }
    println!(
        "{:<16} {:>10.1} {:>6.1}%   (flow {flow_ms:.1} ms)",
        "(sum)",
        phase_sum,
        if flow_ms > 0.0 {
            100.0 * phase_sum / flow_ms
        } else {
            0.0
        }
    );

    // ---- per-round table ----
    println!("\nglobal rounds:");
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>6} {:>9} {:>8}",
        "round", "ms", "var_before", "var_after", "arcs", "lp_iters", "lambdas"
    );
    let round_ends = end_of("global.round");
    for r in &round_ends {
        let idx = r
            .span
            .and_then(|id| starts.get(&id))
            .and_then(|s| field_f64(&s.value, "round"))
            .unwrap_or(-1.0);
        let lambdas = ends
            .iter()
            .filter(|e| e.name == "global.lambda" && e.parent == r.span)
            .count();
        println!(
            "{:>5} {:>10.1} {:>12.1} {:>12.1} {:>6} {:>9} {:>8}",
            idx as i64,
            r.elapsed_ms.unwrap_or(0.0),
            field_f64(&r.value, "variation_before").unwrap_or(f64::NAN),
            field_f64(&r.value, "variation_after").unwrap_or(f64::NAN),
            field_f64(&r.value, "arcs_changed").unwrap_or(0.0) as u64,
            field_f64(&r.value, "lp_iterations").unwrap_or(0.0) as u64,
            lambdas,
        );
    }

    // ---- local batches ----
    let batch_ends = end_of("local.batch");
    let iter_ends = end_of("local.iter");
    let accepted_batches = batch_ends
        .iter()
        .filter(|r| field_str(&r.value, "outcome") == Some("accepted"))
        .count();
    println!(
        "\nlocal phase: {} iterations, {} batches ({} accepted)",
        iter_ends.len(),
        batch_ends.len(),
        accepted_batches
    );

    // ---- selected metrics ----
    if let Some(m) = recs.iter().find(|r| r.kind == "metrics") {
        println!("\nmetrics:");
        for key in [
            "lp.solves",
            "lp.iters",
            "lp.pivots",
            "sta.analyzes",
            "global.rounds",
            "global.eco_accepted",
            "global.eco_rollback",
            "local.golden_evals",
            "local.accepted",
            "fault.absorbed",
        ] {
            if let Some(v) = m.value.get("fields").and_then(|f| f.get(key)) {
                println!("  {key:<24} {}", v.to_json());
            }
        }
    }

    // ---- predictor precision ----
    let predict_err = recs
        .iter()
        .find(|r| r.kind == "metrics")
        .and_then(|m| m.value.get("fields").cloned())
        .and_then(|f| f.get("local.predict.err_ps").cloned());
    if let Some(h) = &predict_err {
        println!("\npredictor precision (predicted − golden gain, ps):");
        for key in ["count", "mean", "p50", "p95", "min", "max"] {
            if let Some(v) = h.get(key) {
                println!("  {key:<6} {}", v.to_json());
            }
        }
    }

    // ---- structural checks ----
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("ok: {what}");
        } else {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };

    println!();
    check(flow_ms > 0.0, "flow span closed with an elapsed time");
    check(phases_seen == 4, "all four flow phases have spans");
    let tile = (phase_sum - flow_ms).abs() / flow_ms.max(1e-9);
    check(
        tile <= tile_tol,
        &format!(
            "phase wall-clock tiles the flow span ({:.1}% off, tolerance {:.1}%)",
            100.0 * tile,
            100.0 * tile_tol
        ),
    );
    let rounds_reported = report
        .global_report
        .as_ref()
        .map_or(0, |g| g.sweep.len() / cfg.global.lambdas.len().max(1));
    check(
        !round_ends.is_empty() && round_ends.len() >= rounds_reported,
        &format!(
            "every global round has a span ({} spans, >= {} from the sweep)",
            round_ends.len(),
            rounds_reported
        ),
    );
    check(
        round_ends.iter().all(|r| {
            ends.iter()
                .any(|e| e.name == "global.lambda" && e.parent == r.span)
        }),
        "every global round contains lambda spans",
    );
    check(!iter_ends.is_empty(), "local phase has iteration spans");
    check(
        iter_ends.is_empty()
            || predict_err
                .as_ref()
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64)
                .is_some_and(|c| c > 0),
        "predictor error histogram (local.predict.err_ps) is populated",
    );
    let accepted_reported = report
        .local_report
        .as_ref()
        .map_or(0, |l| l.iterations.len());
    check(
        accepted_batches == accepted_reported,
        &format!(
            "accepted batch spans match the local report ({accepted_batches} == {accepted_reported})"
        ),
    );
    let fault_events: Vec<u64> = recs
        .iter()
        .filter(|r| r.kind == "fault")
        .filter_map(|r| field_f64(&r.value, "fault_seq").map(|s| s as u64))
        .collect();
    check(
        report
            .faults
            .records()
            .iter()
            .all(|f| fault_events.contains(&f.seq)),
        &format!(
            "all {} absorbed faults have matching JSONL fault events",
            report.faults.len()
        ),
    );

    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nobs-report: all checks passed");
        ExitCode::SUCCESS
    }
}
