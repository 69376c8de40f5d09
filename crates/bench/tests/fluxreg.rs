//! End-to-end checks of the fluxreg registry path: plan-hash stability,
//! row round-trips, gate boundaries, and the `repro --plan` binary flow
//! (run → append → gate) exactly as CI drives it.

use std::path::{Path, PathBuf};
use std::process::Command;

use fluxprint_bench::fluxreg::{self, registry, Plan};

fn fixture_plan() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plan_tiny.json")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fluxreg_e2e_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the repro binary with the registry-mode args, pinned to one
/// worker thread so the e2e flow is deterministic everywhere.
fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("FLUXPRINT_THREADS", "1")
        .output()
        .expect("repro runs")
}

#[test]
fn plan_hash_survives_field_reordering_but_not_parameter_changes() {
    let original = std::fs::read_to_string(fixture_plan()).expect("fixture readable");
    let plan = Plan::from_json(&original).expect("fixture parses");

    // The same plan with members and fixed keys in a different order,
    // different whitespace, and a *tighter* gate.
    let reordered = r#"{
      "seeds": [0],
      "gates": { "mean_error": { "direction": "both", "rel": 0.0, "abs": 1e-12 } },
      "fixed": { "shards": 1, "threads": 1, "sniffers": 12, "keep_m": 4,
                 "n_predictions": 16, "users": 1, "rounds": 2, "sessions": 1 },
      "name": "plan-tiny"
    }"#;
    let same = Plan::from_json(reordered).expect("reordered parses");
    assert_eq!(
        plan.hash, same.hash,
        "field order and gates must not move the hash"
    );

    // Any parameter change must move it.
    let changed = original.replace("\"rounds\": 2", "\"rounds\": 3");
    let other = Plan::from_json(&changed).expect("changed parses");
    assert_ne!(plan.hash, other.hash);
}

#[test]
fn registry_rows_round_trip_through_the_ndjson_file() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("reg.ndjson");
    let plan = Plan::from_json(&std::fs::read_to_string(fixture_plan()).expect("fixture readable"))
        .expect("fixture parses");
    let rows = fluxreg::runner::run_plan(&plan, Some("t0")).expect("plan runs");
    registry::append(&path, &rows).expect("append");
    registry::append(&path, &rows).expect("append again");
    let loaded = registry::load(&path).expect("load");
    assert_eq!(loaded.len(), 2 * rows.len());
    assert_eq!(loaded[0], rows[0], "row survives the NDJSON round-trip");
    assert_eq!(loaded[0].key(), loaded[rows.len()].key());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_boundary_is_exact_at_tolerance() {
    let plan = Plan::from_json(
        r#"{"name":"b","fixed":{"rounds":2},
            "gates":{"mean_error":{"abs":0.25,"rel":0.0,"direction":"lower"}}}"#,
    )
    .expect("plan parses");
    let mut base = fluxreg::Row {
        plan: plan.name.clone(),
        plan_hash: plan.hash.clone(),
        seed: 0,
        commit: None,
        source: "plan".to_string(),
        params: Default::default(),
        kpis: [("mean_error".to_string(), 1.0)].into_iter().collect(),
        run_meta: serde_json::Value::Null,
        telemetry: serde_json::Value::Null,
    };
    let mut current = base.clone();
    current.kpis.insert("mean_error".to_string(), 1.25);
    let report = fluxreg::evaluate(&plan, &[base.clone()], &[current.clone()]);
    assert_eq!(
        report.verdict().exit_code(),
        0,
        "exactly at tolerance passes"
    );

    current.kpis.insert("mean_error".to_string(), 1.2500001);
    let report = fluxreg::evaluate(&plan, &[base.clone()], &[current]);
    assert_eq!(report.verdict().exit_code(), 1, "beyond tolerance fails");

    // A synthetic 20% throughput drop under a higher-is-better gate.
    let plan = Plan::from_json(
        r#"{"name":"b","fixed":{"rounds":2},
            "gates":{"rounds_per_s":{"abs":0.0,"rel":0.05,"direction":"higher"}}}"#,
    )
    .expect("plan parses");
    base.plan_hash = plan.hash.clone();
    base.kpis = [("rounds_per_s".to_string(), 1000.0)].into_iter().collect();
    let mut regressed = base.clone();
    regressed.kpis.insert("rounds_per_s".to_string(), 800.0);
    let report = fluxreg::evaluate(&plan, &[base], &[regressed]);
    assert_eq!(report.verdict().exit_code(), 1);
}

#[test]
fn repro_plan_appends_keyed_rows_then_gates_deterministically() {
    let dir = temp_dir("binary");
    let reg = dir.join("reg.ndjson");
    let reg_str = reg.to_str().expect("utf8 path");
    let plan_path = fixture_plan();
    let plan_str = plan_path.to_str().expect("utf8 path");
    let plan = Plan::from_json(&std::fs::read_to_string(&plan_path).expect("readable"))
        .expect("fixture parses");

    // First run: appends one row; with no baseline yet the gate has
    // compared nothing, so it neither passes nor exits 0.
    let out = repro(&["--plan", plan_str, "--registry", reg_str, "--gate"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NO BASELINE"), "{stdout}");
    assert!(!stdout.contains("PASS"), "{stdout}");
    let rows = registry::load(&reg).expect("registry loads");
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.plan_hash, plan.hash, "row is keyed by the plan hash");
    assert_eq!(row.seed, 0);
    assert_eq!(row.source, "plan");
    // Provenance and the folded telemetry snapshot ride along.
    assert_eq!(row.run_meta["threads_env_status"].as_str(), Some("applied"));
    assert!(row.run_meta["threads"].as_u64().is_some());
    assert!(row.telemetry["counters"]["engine.rounds"].as_u64().unwrap() >= 2);
    for kpi in ["mean_error", "evals_per_round", "rounds"] {
        assert!(row.kpis.contains_key(kpi), "gated KPI {kpi} recorded");
    }

    // Second run gates against the first and passes deterministically.
    let out = repro(&["--plan", plan_str, "--registry", reg_str, "--gate"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS"), "gate summary printed:\n{stdout}");
    assert_eq!(registry::load(&reg).expect("loads").len(), 2);

    // Perturb the latest baseline row's gated KPI: the next gate run
    // must fail with the regression exit code.
    let text = std::fs::read_to_string(&reg).expect("readable");
    let mut rows = registry::load(&reg).expect("loads");
    let last = rows.last_mut().expect("two rows");
    let error = last.kpis["mean_error"];
    last.kpis.insert("mean_error".to_string(), error + 1.0);
    std::fs::write(&reg, format!("{}{}\n", text, last.to_line())).expect("append tampered");
    let out = repro(&["--plan", plan_str, "--registry", reg_str, "--gate"]);
    assert_eq!(out.status.code(), Some(1), "regression exits 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_report_and_error_exit_codes() {
    let dir = temp_dir("report");
    let reg = dir.join("reg.ndjson");
    let reg_str = reg.to_str().expect("utf8 path");
    let plan_str = fixture_plan();
    let plan_str = plan_str.to_str().expect("utf8 path");

    let out = repro(&["--plan", plan_str, "--registry", reg_str]);
    assert_eq!(out.status.code(), Some(0));

    // --report renders markdown (and .html renders HTML).
    let md = dir.join("traj.md");
    let out = repro(&["--report", md.to_str().unwrap(), "--registry", reg_str]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&md).expect("report written");
    assert!(text.starts_with("# fluxreg trajectory"));
    assert!(text.contains("plan-tiny"));
    let html = dir.join("traj.html");
    let out = repro(&["--report", html.to_str().unwrap(), "--registry", reg_str]);
    assert_eq!(out.status.code(), Some(0));
    assert!(std::fs::read_to_string(&html)
        .expect("html written")
        .starts_with("<!DOCTYPE html>"));

    // Usage errors exit 2; internal errors (unreadable plan) exit 3.
    let out = repro(&["--gate", "--registry", reg_str]);
    assert_eq!(out.status.code(), Some(2), "--gate without --plan is usage");
    let out = repro(&["--plan", dir.join("missing.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "unreadable plan is internal");

    let _ = std::fs::remove_dir_all(&dir);
}
