//! Deterministic KPI tolerance gates.
//!
//! A gate run compares each fresh registry row against the *latest*
//! baseline row with the same key (`plan_hash`, seed, params) and checks
//! every KPI the plan declares a [`Gate`](super::plan::Gate) for. The
//! verdict maps to the workspace's usual exit-code scheme (fluxlint v2):
//!
//! * `0` — every gated KPI within tolerance;
//! * `1` — at least one regression, or no fresh row matched any
//!   baseline row (a gate that compared nothing has proven nothing);
//! * `2` — usage error (bad flags; decided by the binary);
//! * `3` — internal error (unreadable registry, malformed rows).
//!
//! Comparisons are pure arithmetic on recorded values — gating a pair of
//! row files is bit-reproducible anywhere, which is what lets CI gate a
//! fresh smoke run against the committed baseline registry.

use super::plan::Plan;
use super::registry::Row;

/// The overall outcome of a gate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All gated KPIs within tolerance.
    Pass,
    /// At least one gated KPI regressed beyond tolerance.
    Regression,
    /// No fresh row had a baseline to compare against.
    NoBaseline,
}

impl Verdict {
    /// The process exit code for this verdict.
    pub fn exit_code(self) -> u8 {
        match self {
            Verdict::Pass => 0,
            Verdict::Regression | Verdict::NoBaseline => 1,
        }
    }
}

/// One KPI comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The row's baseline-matching key (for report grouping).
    pub key: String,
    /// Seed of the compared rows.
    pub seed: u64,
    /// KPI name.
    pub kpi: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Allowed worse-direction drift (`abs + rel·|baseline|`).
    pub tolerance: f64,
    /// Actual worse-direction drift (negative = improved).
    pub worse_by: f64,
    /// Whether the check passed (exactly-at-tolerance passes).
    pub pass: bool,
}

/// The full gate report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Every KPI comparison performed.
    pub checks: Vec<Check>,
    /// Current rows that found a baseline row.
    pub matched: usize,
    /// Current rows with no matching baseline row (informational).
    pub unmatched: Vec<String>,
    /// Gated KPIs absent from the matched *baseline* row (informational:
    /// a KPI added after the baseline was recorded cannot regress).
    pub baseline_missing: Vec<String>,
    /// Gated KPIs absent or non-finite in a *current* row (always a
    /// failure: the runner stopped producing a number the plan gates on).
    pub current_missing: Vec<String>,
}

impl GateReport {
    /// The overall verdict: a regression wins, then a run that matched
    /// no baseline at all, else a pass.
    pub fn verdict(&self) -> Verdict {
        if !self.current_missing.is_empty() || self.checks.iter().any(|c| !c.pass) {
            Verdict::Regression
        } else if self.matched == 0 {
            Verdict::NoBaseline
        } else {
            Verdict::Pass
        }
    }

    /// Renders the report as human-readable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for check in &self.checks {
            let status = if check.pass { "ok  " } else { "FAIL" };
            out.push_str(&format!(
                "{status} {kpi}: baseline {base:.6}, current {cur:.6}, drift {drift:+.6} (tolerance {tol:.6}) [seed {seed}]\n",
                kpi = check.kpi,
                base = check.baseline,
                cur = check.current,
                drift = check.worse_by,
                tol = check.tolerance,
                seed = check.seed,
            ));
        }
        for key in &self.unmatched {
            out.push_str(&format!("note: no baseline yet for {key}\n"));
        }
        for kpi in &self.baseline_missing {
            out.push_str(&format!("note: baseline lacks gated KPI {kpi}\n"));
        }
        for kpi in &self.current_missing {
            out.push_str(&format!("FAIL current run lacks gated KPI {kpi}\n"));
        }
        let (passed, failed) = self.counts();
        out.push_str(&format!(
            "gate: {passed} passed, {failed} failed, {unmatched} without baseline → {verdict}\n",
            unmatched = self.unmatched.len(),
            verdict = match self.verdict() {
                Verdict::Pass => "PASS",
                Verdict::Regression => "REGRESSION",
                Verdict::NoBaseline => "NO BASELINE",
            },
        ));
        out
    }

    fn counts(&self) -> (usize, usize) {
        let passed = self.checks.iter().filter(|c| c.pass).count();
        let failed = self.checks.len() - passed + self.current_missing.len();
        (passed, failed)
    }
}

/// Gates `current` rows against `baseline` rows under the plan's
/// tolerances. Rows not belonging to the plan (different hash) are
/// ignored on both sides; the latest matching baseline row wins.
pub fn evaluate(plan: &Plan, baseline: &[Row], current: &[Row]) -> GateReport {
    let mut report = GateReport::default();
    for row in current.iter().filter(|r| r.plan_hash == plan.hash) {
        let key = row.key();
        let Some(base) = baseline.iter().rev().find(|b| b.key() == key) else {
            report.unmatched.push(key);
            continue;
        };
        report.matched += 1;
        for (kpi, gate) in &plan.gates {
            let Some(&cur) = row.kpis.get(kpi) else {
                report.current_missing.push(format!("{kpi} [{key}]"));
                continue;
            };
            let Some(&base_value) = base.kpis.get(kpi) else {
                report.baseline_missing.push(format!("{kpi} [{key}]"));
                continue;
            };
            if !cur.is_finite() {
                report.current_missing.push(format!("{kpi} [{key}]"));
                continue;
            }
            let tolerance = gate.tolerance(base_value);
            let worse_by = match gate.direction {
                super::plan::Direction::Lower => cur - base_value,
                super::plan::Direction::Higher => base_value - cur,
                super::plan::Direction::Both => (cur - base_value).abs(),
            };
            report.checks.push(Check {
                key: key.clone(),
                seed: row.seed,
                kpi: kpi.clone(),
                baseline: base_value,
                current: cur,
                tolerance,
                worse_by,
                pass: worse_by <= tolerance,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde_json::json;

    use super::super::plan::Plan;
    use super::*;

    fn plan(gates: &str) -> Plan {
        Plan::from_json(&format!(
            "{{\"name\":\"g\",\"fixed\":{{\"rounds\":2}},\"gates\":{gates}}}"
        ))
        .unwrap()
    }

    fn row(plan: &Plan, seed: u64, kpis: &[(&str, f64)]) -> Row {
        Row {
            plan: plan.name.clone(),
            plan_hash: plan.hash.clone(),
            seed,
            commit: None,
            source: "plan".to_string(),
            params: BTreeMap::from([("rounds".to_string(), json!(2))]),
            kpis: kpis.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            run_meta: json!(null),
            telemetry: json!(null),
        }
    }

    #[test]
    fn exactly_at_tolerance_passes_and_epsilon_beyond_fails() {
        let plan = plan(r#"{"e":{"abs":0.5,"rel":0.0,"direction":"lower"}}"#);
        let base = [row(&plan, 0, &[("e", 1.0)])];
        // Drift of exactly +0.5 (the tolerance) passes…
        let at = [row(&plan, 0, &[("e", 1.5)])];
        assert_eq!(evaluate(&plan, &base, &at).verdict(), Verdict::Pass);
        // …one ulp-ish beyond fails.
        let beyond = [row(&plan, 0, &[("e", 1.5 + 1e-12)])];
        let report = evaluate(&plan, &base, &beyond);
        assert_eq!(report.verdict(), Verdict::Regression);
        assert_eq!(report.verdict().exit_code(), 1);
    }

    #[test]
    fn direction_decides_which_drift_regresses() {
        let lower = plan(r#"{"e":{"abs":0.0,"rel":0.1,"direction":"lower"}}"#);
        let base = [row(&lower, 0, &[("e", 10.0)])];
        // Lower-is-better: an improvement of any size passes…
        assert_eq!(
            evaluate(&lower, &base, &[row(&lower, 0, &[("e", 2.0)])]).verdict(),
            Verdict::Pass
        );
        // …a rise within rel·base (10%) passes, beyond fails.
        assert_eq!(
            evaluate(&lower, &base, &[row(&lower, 0, &[("e", 11.0)])]).verdict(),
            Verdict::Pass
        );
        assert_eq!(
            evaluate(&lower, &base, &[row(&lower, 0, &[("e", 11.1)])]).verdict(),
            Verdict::Regression
        );

        let both = plan(r#"{"e":{"abs":0.0,"rel":0.1,"direction":"both"}}"#);
        let base = [row(&both, 0, &[("e", 10.0)])];
        assert_eq!(
            evaluate(&both, &base, &[row(&both, 0, &[("e", 8.0)])]).verdict(),
            Verdict::Regression,
            "two-sided gates also fail on 'improvement'"
        );
    }

    #[test]
    fn twenty_percent_throughput_regression_fails_at_five_percent_rel() {
        let plan = plan(r#"{"rounds_per_s":{"abs":0.0,"rel":0.05,"direction":"higher"}}"#);
        let base = [row(&plan, 0, &[("rounds_per_s", 1000.0)])];
        let regressed = [row(&plan, 0, &[("rounds_per_s", 800.0)])];
        let report = evaluate(&plan, &base, &regressed);
        assert_eq!(report.verdict(), Verdict::Regression);
        assert_eq!(report.verdict().exit_code(), 1);
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].worse_by, 200.0);
        assert_eq!(report.checks[0].tolerance, 50.0);
        // A 3% dip stays within the 5% gate.
        let ok = [row(&plan, 0, &[("rounds_per_s", 970.0)])];
        assert_eq!(evaluate(&plan, &base, &ok).verdict(), Verdict::Pass);
    }

    #[test]
    fn missing_baseline_is_no_pass_missing_current_kpi_fails() {
        let plan = plan(r#"{"e":{"abs":0.1,"rel":0.0,"direction":"lower"}}"#);
        // No baseline at all: the gate compared nothing, so it must not
        // report a pass or exit 0.
        let report = evaluate(&plan, &[], &[row(&plan, 0, &[("e", 1.0)])]);
        assert_eq!(report.verdict(), Verdict::NoBaseline);
        assert_ne!(report.verdict().exit_code(), 0);
        assert_eq!(report.unmatched.len(), 1);
        let text = report.render();
        assert!(!text.contains("PASS"), "{text}");
        assert!(text.contains("→ NO BASELINE"), "{text}");
        // One matched row is enough for a verdict; the other is noted.
        let base = [row(&plan, 0, &[("e", 1.0)])];
        let report = evaluate(
            &plan,
            &base,
            &[row(&plan, 0, &[("e", 1.0)]), row(&plan, 1, &[("e", 1.0)])],
        );
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.unmatched.len(), 1);
        // Baseline exists but the current row dropped the gated KPI.
        let base = [row(&plan, 0, &[("e", 1.0)])];
        let report = evaluate(&plan, &base, &[row(&plan, 0, &[("other", 1.0)])]);
        assert_eq!(report.verdict(), Verdict::Regression);
        assert_eq!(report.current_missing.len(), 1);
        // Baseline lacking the KPI is informational only.
        let old_base = [row(&plan, 0, &[("other", 1.0)])];
        let report = evaluate(&plan, &old_base, &[row(&plan, 0, &[("e", 1.0)])]);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.baseline_missing.len(), 1);
    }

    /// Baseline rows recorded before a factor existed match fresh rows
    /// that carry it at its default, and gate them.
    #[test]
    fn rows_predating_a_factor_gate_at_its_default() {
        let plan = plan(r#"{"e":{"abs":0.0,"rel":0.0,"direction":"lower"}}"#);
        let old = [row(&plan, 0, &[("e", 1.0)])];
        let mut fresh = [row(&plan, 0, &[("e", 1.0)])];
        fresh[0].params.insert("serve".to_string(), json!(0));
        let report = evaluate(&plan, &old, &fresh);
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!((report.matched, report.checks.len()), (1, 1));
        // A nonzero value is a different experiment: no baseline.
        fresh[0].params.insert("serve".to_string(), json!(1));
        let report = evaluate(&plan, &old, &fresh);
        assert_eq!(report.verdict(), Verdict::NoBaseline);
    }

    #[test]
    fn latest_matching_baseline_row_wins() {
        let plan = plan(r#"{"e":{"abs":0.0,"rel":0.0,"direction":"lower"}}"#);
        let base = [row(&plan, 0, &[("e", 5.0)]), row(&plan, 0, &[("e", 1.0)])];
        // Against the older row 2.0 would pass; against the newest it fails.
        let report = evaluate(&plan, &base, &[row(&plan, 0, &[("e", 2.0)])]);
        assert_eq!(report.verdict(), Verdict::Regression);
        assert_eq!(report.checks[0].baseline, 1.0);
    }

    #[test]
    fn render_summarises_pass_and_fail_counts() {
        let plan = plan(r#"{"e":{"abs":0.5,"rel":0.0,"direction":"lower"}}"#);
        let base = [row(&plan, 0, &[("e", 1.0)])];
        let text = evaluate(&plan, &base, &[row(&plan, 0, &[("e", 9.0)])]).render();
        assert!(text.contains("FAIL e:"));
        assert!(text.contains("REGRESSION"));
    }
}
