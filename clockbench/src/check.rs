//! Output checks: a flow counts as failed unless its returned tree is
//! structurally valid, a fresh golden re-time reproduces the reported
//! variation, and every corner's local skew respects the skew guard.

use clk_cts::Testcase;
use clk_skewopt::{Flow, FlowConfig, OptReport};
use clk_sta::{alpha_factors, local_skew_ps, try_pair_skews, variation_report, Timer};

/// Largest accepted gap between a reported and a re-timed figure, ps.
pub const RETIME_TOL_PS: f64 = 1e-6;

/// Checks one flow's report against its input testcase. Returns every
/// violated check, empty when the output is correct.
pub fn check_report(tc: &Testcase, flow: Flow, cfg: &FlowConfig, rep: &OptReport) -> Vec<String> {
    let mut bad = Vec::new();
    if rep.partial {
        bad.push("flow came back partial".to_string());
    }
    if let Err(e) = rep.tree.validate() {
        bad.push(format!("returned tree is invalid: {e}"));
        return bad;
    }
    let timer = Timer::golden();
    let skews = |tree: &clk_netlist::ClockTree| -> Result<Vec<Vec<f64>>, String> {
        let timings = timer
            .try_analyze_all(tree, &tc.lib)
            .map_err(|e| e.to_string())?;
        timings
            .iter()
            .map(|t| try_pair_skews(t, tree.sink_pairs()).map_err(|e| e.to_string()))
            .collect()
    };
    let (before, after) = match (skews(&tc.tree), skews(&rep.tree)) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            bad.push(format!("re-time failed: {e}"));
            return bad;
        }
    };
    // the flow scores both trees under the input tree's alphas
    let alphas = alpha_factors(&before);
    let variation = variation_report(&after, &alphas, None).sum;
    if (variation - rep.variation_after).abs() > RETIME_TOL_PS {
        bad.push(format!(
            "re-timed variation {variation} ps != reported {} ps",
            rep.variation_after
        ));
    }
    let (factor, allowance) = skew_guard(flow, cfg);
    for (k, (b, a)) in before.iter().zip(&after).enumerate() {
        let (b, a) = (local_skew_ps(b), local_skew_ps(a));
        if !rep
            .local_skew_after
            .get(k)
            .is_some_and(|r| (r - a).abs() <= RETIME_TOL_PS)
        {
            bad.push(format!(
                "corner {k}: re-timed local skew {a} ps != reported"
            ));
        }
        let bound = b * factor + allowance;
        if a > bound {
            bad.push(format!(
                "corner {k}: local skew {a} ps breaks the guard {bound} ps"
            ));
        }
    }
    bad
}

/// The loosest skew guard `(factor, allowance ps)` of the phases `flow`
/// runs; every phase guards against the input tree's local skews.
fn skew_guard(flow: Flow, cfg: &FlowConfig) -> (f64, f64) {
    let global = (cfg.global.skew_guard_factor, cfg.global.skew_guard_ps);
    let local = (cfg.local.skew_guard_factor, cfg.local.skew_guard_ps);
    match flow {
        Flow::Global => global,
        Flow::Local => local,
        Flow::GlobalLocal => (global.0.max(local.0), global.1.max(local.1)),
    }
}

/// The QoR fields of a report, rendered exactly (shortest round-trip
/// float form), so two runs compare byte for byte.
pub fn qor_fingerprint(rep: &OptReport) -> String {
    let global = rep
        .global_report
        .as_ref()
        .map(|g| (g.lp_iterations, g.arcs_changed));
    let local = rep
        .local_report
        .as_ref()
        .map(|l| (l.iterations.len(), l.golden_evals));
    format!(
        "var {:?}->{:?} skew {:?}->{:?} cells {}->{} power {:?}->{:?} area {:?}->{:?} \
         faults {} global {global:?} local {local:?}",
        rep.variation_before,
        rep.variation_after,
        rep.local_skew_before,
        rep.local_skew_after,
        rep.cells_before,
        rep.cells_after,
        rep.power_before_mw,
        rep.power_after_mw,
        rep.area_before_um2,
        rep.area_after_um2,
        rep.faults.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clk_cts::TestcaseKind;
    use clk_skewopt::{try_optimize_with, GlobalConfig, StageLuts};

    fn small_global_run() -> (Testcase, FlowConfig, OptReport) {
        let tc = Testcase::generate(TestcaseKind::Cls1v1, 16, 3);
        let cfg = FlowConfig {
            global: GlobalConfig {
                max_pairs: 12,
                lambdas: vec![0.1],
                rounds: 1,
                ..GlobalConfig::default()
            },
            ..FlowConfig::default()
        };
        let luts = StageLuts::characterize(&tc.lib);
        let rep = try_optimize_with(&tc, Flow::Global, &cfg, Some(&luts), None).expect("flow");
        (tc, cfg, rep)
    }

    #[test]
    fn untouched_report_passes_and_tampered_reports_fail() {
        let (tc, cfg, rep) = small_global_run();
        assert_eq!(
            check_report(&tc, Flow::Global, &cfg, &rep),
            Vec::<String>::new()
        );

        let mut edited = rep.clone();
        edited.variation_after += 1e-3;
        let bad = check_report(&tc, Flow::Global, &cfg, &edited);
        assert!(
            bad.iter().any(|b| b.contains("re-timed variation")),
            "{bad:?}"
        );

        let mut edited = rep.clone();
        edited.local_skew_after[0] -= 0.5;
        let bad = check_report(&tc, Flow::Global, &cfg, &edited);
        assert!(
            bad.iter().any(|b| b.contains("re-timed local skew")),
            "{bad:?}"
        );

        let mut edited = rep.clone();
        edited.partial = true;
        assert!(!check_report(&tc, Flow::Global, &cfg, &edited).is_empty());

        // a guard tighter than what the flow achieved must trip
        let mut strict = cfg.clone();
        strict.global.skew_guard_factor = 0.0;
        strict.global.skew_guard_ps = 0.0;
        let bad = check_report(&tc, Flow::Global, &strict, &rep);
        assert!(
            bad.iter().any(|b| b.contains("breaks the guard")),
            "{bad:?}"
        );
    }

    #[test]
    fn fingerprint_sees_every_qor_edit() {
        let (_, _, rep) = small_global_run();
        let base = qor_fingerprint(&rep);
        assert_eq!(base, qor_fingerprint(&rep.clone()));
        let mut edited = rep.clone();
        edited.power_after_mw = f64::from_bits(edited.power_after_mw.to_bits() + 1);
        assert_ne!(base, qor_fingerprint(&edited));
        let mut edited = rep;
        edited.cells_after += 1;
        assert_ne!(base, qor_fingerprint(&edited));
    }

    #[test]
    fn guard_of_a_two_phase_flow_is_the_looser_one() {
        let mut cfg = FlowConfig::default();
        cfg.global.skew_guard_ps = 1.0;
        cfg.local.skew_guard_factor = 1.5;
        assert_eq!(skew_guard(Flow::Global, &cfg), (1.02, 1.0));
        assert_eq!(skew_guard(Flow::Local, &cfg), (1.5, 2.0));
        assert_eq!(skew_guard(Flow::GlobalLocal, &cfg), (1.5, 2.0));
    }
}
