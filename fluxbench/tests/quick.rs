//! The benchmark's own checks, on shrunken inputs.

use std::path::PathBuf;

use fluxbench::spec::{Inputs, Plan, Workload};
use fluxbench::{diagnostics_json, result_json, run, Options, END_TO_END, PER_LAYER};

fn quick(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.2,
        trace: false,
        quick: true,
        plant_mismatch: false,
        span_dir: None,
    }
}

#[test]
fn generator_is_deterministic_and_seeded() {
    for workload in Workload::ALL {
        let hash = |seed| {
            Inputs::generate(Plan::new(workload, true), seed)
                .expect("inputs generate")
                .hash()
        };
        assert_eq!(hash(7), hash(7), "{}", workload.name());
        assert_ne!(hash(7), hash(8), "{}", workload.name());
    }
}

// One test drives every run: the program's telemetry is process-wide,
// and a traced run resets it, so runs must not overlap.
#[test]
fn quick_runs_report_every_metric_and_catch_a_planted_mismatch() {
    let span_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fluxbench-spans");
    for workload in Workload::ALL {
        let name = workload.name();
        let first = run(&quick(workload, 3)).expect("untraced run");
        assert!(first.correct, "{name}: {}", result_json(&first));
        assert_eq!(first.failed, 0);
        assert!(first.attempted > 0);
        let reported: Vec<(&str, &str)> = first.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(reported, END_TO_END.to_vec(), "{name}");
        assert!(
            first.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
            "{name}"
        );
        let line = result_json(&first);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        assert!(diagnostics_json(&first).contains("\"inputs_hash\""));

        // Quality repeats exactly for the same seed.
        let again = run(&quick(workload, 3)).expect("repeat run");
        let bits = |o: &fluxbench::Outcome, key: &str| {
            o.metrics
                .iter()
                .chain(&o.ungated)
                .find(|m| m.0 == key)
                .map(|m| m.1.to_bits())
        };
        assert_eq!(
            bits(&first, "mean_error"),
            bits(&again, "mean_error"),
            "{name}"
        );
        assert_eq!(
            bits(&first, "checkpoint_bytes"),
            bits(&again, "checkpoint_bytes"),
            "{name}"
        );

        let traced = run(&Options {
            trace: true,
            span_dir: Some(span_dir.clone()),
            ..quick(workload, 3)
        })
        .expect("traced run");
        assert!(traced.correct, "{name}");
        let reported: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(reported, PER_LAYER.to_vec(), "{name}");
        let spans = std::fs::read_to_string(span_dir.join(format!("{name}-seed3.spans.ndjson")))
            .expect("span file written");
        assert!(spans.contains("\"type\":\"span\""), "{name}");
        assert!(spans.contains("\"path\":\"grid.drain\""), "{name}");

        let planted = run(&Options {
            plant_mismatch: true,
            ..quick(workload, 3)
        })
        .expect("planted run");
        assert!(!planted.correct, "{name}");
        assert_eq!(planted.failed, 1, "{name}");
    }
}
