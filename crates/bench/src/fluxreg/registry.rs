//! The append-only NDJSON registry.
//!
//! One row per executed job, one JSON object per line. A row is
//! self-describing: it names the plan (by name *and* hash), the seed,
//! the commit it ran at, the full parameter assignment, every KPI, the
//! `run_meta` provenance header, and a folded `fluxtrace` snapshot.
//! Rows are only ever appended; the trajectory *is* the file order.
//!
//! Baseline matching uses [`Row::key`]: `(plan_hash, seed, params)`,
//! with every runner parameter a row lacks read as its default — a row
//! recorded before a factor existed ran at that factor's default.
//! Commit is provenance, not identity — the whole point is comparing
//! the same experiment across commits.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde_json::{json, Value};

use super::plan::{canonical_json, KNOWN_PARAMS};

/// The registry row schema version (bump on breaking row changes).
pub const ROW_SCHEMA: u64 = 1;

/// One experiment-registry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Plan name (report grouping; human key).
    pub plan: String,
    /// Stable plan-identity hash (machine key).
    pub plan_hash: String,
    /// RNG seed the job ran with.
    pub seed: u64,
    /// `git describe --always --dirty` at run time (`None` when
    /// unavailable — e.g. imported history without recorded commits).
    pub commit: Option<String>,
    /// Where the row came from: `"plan"` for runner-executed jobs,
    /// `"import:<kind>"` for folded history.
    pub source: String,
    /// The full parameter assignment (numbers for runner rows; imported
    /// history may carry strings, e.g. a figure id).
    pub params: BTreeMap<String, Value>,
    /// KPI values by name.
    pub kpis: BTreeMap<String, f64>,
    /// The `run_meta` provenance header (threads, env override status,
    /// effort, target), or `Null` for imported rows.
    pub run_meta: Value,
    /// Folded telemetry snapshot
    /// (`{"counters":{...},"histograms":{...},"spans":{...}}`), or
    /// `Null` when telemetry was not captured.
    pub telemetry: Value,
}

impl Row {
    /// The baseline-matching key: plan hash, seed, and the canonical
    /// parameter assignment, with each [`KNOWN_PARAMS`] entry the row
    /// lacks filled with its default (so rows recorded before a factor
    /// was added still match rows that carry it at its default).
    pub fn key(&self) -> String {
        let mut params = self.params.clone();
        for &(name, default) in KNOWN_PARAMS {
            params
                .entry(name.to_string())
                .or_insert_with(|| param_json(default));
        }
        let params = Value::Object(params.into_iter().collect());
        format!(
            "{}|{}|{}",
            self.plan_hash,
            self.seed,
            canonical_json(&params)
        )
    }

    /// Serialises the row as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let params = Value::Object(
            self.params
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        );
        let kpis = Value::Object(
            self.kpis
                .iter()
                .map(|(k, v)| (k.clone(), json!(*v)))
                .collect(),
        );
        let commit = self
            .commit
            .as_ref()
            .map_or(Value::Null, |c| Value::String(c.clone()));
        json!({
            "type": "registry_row",
            "schema": ROW_SCHEMA,
            "plan": self.plan,
            "plan_hash": self.plan_hash,
            "seed": self.seed,
            "commit": commit,
            "source": self.source,
            "params": params,
            "kpis": kpis,
            "run_meta": self.run_meta,
            "telemetry": self.telemetry,
        })
        .to_json()
    }

    /// Parses one registry line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a non-`registry_row` record, an unsupported
    /// schema version, or missing/ill-typed required fields.
    pub fn from_line(line: &str) -> Result<Row, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("registry line is not JSON: {e}"))?;
        if value["type"].as_str() != Some("registry_row") {
            return Err(format!("not a registry_row record: type {}", value["type"]));
        }
        let schema = value["schema"]
            .as_u64()
            .ok_or_else(|| "registry row is missing schema".to_string())?;
        if schema != ROW_SCHEMA {
            return Err(format!("unsupported registry row schema {schema}"));
        }
        let field_str = |name: &str| -> Result<String, String> {
            value[name]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("registry row is missing {name}"))
        };
        let params = value["params"]
            .as_object()
            .ok_or_else(|| "registry row is missing params".to_string())?
            .iter()
            .cloned()
            .collect();
        let kpis = value["kpis"]
            .as_object()
            .ok_or_else(|| "registry row is missing kpis".to_string())?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("KPI {k:?} is not a number: {v}"))
            })
            .collect::<Result<BTreeMap<String, f64>, String>>()?;
        Ok(Row {
            plan: field_str("plan")?,
            plan_hash: field_str("plan_hash")?,
            seed: value["seed"]
                .as_u64()
                .ok_or_else(|| "registry row is missing seed".to_string())?,
            commit: value["commit"].as_str().map(str::to_string),
            source: field_str("source")?,
            params,
            kpis,
            run_meta: value["run_meta"].clone(),
            telemetry: value["telemetry"].clone(),
        })
    }
}

/// A parameter value as JSON, integral values as integers (`2`, not
/// `2.0`) so row params canonicalise identically run-to-run.
pub(crate) fn param_json(v: f64) -> Value {
    // fluxlint: allow(float-eq) — fract() == 0.0 is an exact integrality test, not a value comparison
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        json!(v as i64)
    } else {
        json!(v)
    }
}

/// Appends rows to the registry file (created if absent, parent
/// directories included).
///
/// # Errors
///
/// I/O failures, as strings (the repro binary maps them to exit 3).
pub fn append(path: &Path, rows: &[Row]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    for row in rows {
        writeln!(file, "{}", row.to_line())
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Loads every row of a registry file, preserving file order. A missing
/// file is an empty registry (the first run seeds it); blank lines are
/// skipped; a malformed line is an error (the registry is append-only —
/// damage means something went wrong).
///
/// # Errors
///
/// Unreadable file or malformed rows.
pub fn load(path: &Path) -> Result<Vec<Row>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Row::from_line(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_row() -> Row {
        let mut params = BTreeMap::new();
        params.insert("sessions".to_string(), json!(2));
        params.insert("threads".to_string(), json!(1));
        let mut kpis = BTreeMap::new();
        kpis.insert("mean_error".to_string(), 0.53125);
        kpis.insert("rounds_per_s".to_string(), 1000.0);
        Row {
            plan: "smoke".to_string(),
            plan_hash: "00ff00ff00ff00ff".to_string(),
            seed: 7,
            commit: Some("abc1234-dirty".to_string()),
            source: "plan".to_string(),
            params,
            kpis,
            run_meta: json!({"threads": 1, "threads_env": Value::Null}),
            telemetry: json!({"counters": {"engine.rounds": 4}}),
        }
    }

    #[test]
    fn row_round_trips_through_its_line() {
        let row = sample_row();
        let line = row.to_line();
        assert!(!line.contains('\n'));
        let parsed = Row::from_line(&line).unwrap();
        assert_eq!(parsed, row);
        // And a null commit survives too.
        let mut anon = row;
        anon.commit = None;
        assert_eq!(Row::from_line(&anon.to_line()).unwrap(), anon);
    }

    #[test]
    fn key_ignores_commit_but_not_params_or_seed() {
        let row = sample_row();
        let mut other_commit = row.clone();
        other_commit.commit = Some("later".to_string());
        assert_eq!(row.key(), other_commit.key());
        let mut other_seed = row.clone();
        other_seed.seed = 8;
        assert_ne!(row.key(), other_seed.key());
        let mut other_params = row.clone();
        other_params.params.insert("threads".to_string(), json!(4));
        assert_ne!(row.key(), other_params.key());
    }

    /// A row recorded before the `serve` factor existed ran in-process,
    /// i.e. at `serve: 0`: it must key like a row that says so, and
    /// unlike one that served.
    #[test]
    fn absent_factor_keys_as_its_default() {
        let old = sample_row();
        assert!(!old.params.contains_key("serve"));
        let mut explicit = old.clone();
        explicit.params.insert("serve".to_string(), json!(0));
        assert_eq!(old.key(), explicit.key());
        let mut served = old.clone();
        served.params.insert("serve".to_string(), json!(1));
        assert_ne!(old.key(), served.key());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Row::from_line("not json").is_err());
        assert!(Row::from_line("{\"type\":\"run_meta\"}").is_err());
        assert!(Row::from_line("{\"type\":\"registry_row\",\"schema\":99}").is_err());
    }

    #[test]
    fn append_then_load_preserves_order() {
        let dir = std::env::temp_dir().join("fluxreg_registry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("reg.ndjson");
        assert_eq!(load(&path).unwrap(), Vec::new());
        let mut second = sample_row();
        second.seed = 8;
        append(&path, &[sample_row()]).unwrap();
        append(&path, &[second.clone()]).unwrap();
        let rows = load(&path).unwrap();
        assert_eq!(rows, vec![sample_row(), second]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
