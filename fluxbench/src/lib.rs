//! fluxbench: closed-loop served workloads against an in-process
//! loopback fluxd, measured from outside.
//!
//! One run generates a workload's inputs from its seed, sets the daemon
//! up (several times, keeping the median), drives every connection's
//! closed loop for the requested seconds, and replays the same steps
//! through an in-process grid to check every served result bit for bit.
//! A traced run (`trace = true`) reports per-layer metrics instead of
//! end-to-end ones: it replays a prefix of the same steps with a span
//! around each public call and folds in the program's own telemetry.
//! See `README.md` beside this crate for the workload → layer → metric
//! map.

pub mod check;
pub mod host;
pub mod replay;
pub mod serve;
pub mod spec;
pub mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fluxprint_engine::GridConfig;
use fluxprint_linalg::{nnls_gram, Matrix};
use fluxprint_telemetry::{self as telemetry, names, Snapshot};

use crate::host::quantile;
use crate::replay::{mismatches, replay};
use crate::spec::{derive_seed, Inputs, Plan, Workload};
use crate::trace::Tracer;

/// The benchmark's error type.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// End-to-end metrics, reported by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("rounds_per_s", "1/s"),
    ("ack_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("checkpoint_ms_p50", "ms"),
    ("checkpoint_bytes", "bytes"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("fluxd.serve_overhead", "ratio"),
    ("fluxd.frames_per_round", "frames/round"),
    ("fluxd.frame_latency_ms_mean", "ms"),
    ("fluxd.query_idle_ms", "ms"),
    ("fluxd.credit_stalls", "count"),
    ("fluxd.open_session_ms", "ms"),
    ("grid.rounds_per_drain", "rounds/drain"),
    ("grid.submit_us", "us"),
    ("grid.drain_ms_per_round", "ms"),
    ("grid.evictions_per_round", "1/round"),
    ("grid.revivals_per_round", "1/round"),
    ("grid.hot_sessions_peak", "count"),
    ("grid.hibernated_bytes_per_session", "bytes"),
    ("engine.ingest_ms_per_round", "ms"),
    ("engine.checkpoint_json_us", "us"),
    ("engine.checkpoint_json_bytes", "bytes"),
    ("engine.checkpoint_compact_us", "us"),
    ("engine.checkpoint_compact_bytes", "bytes"),
    ("engine.restore_compact_us", "us"),
    ("smc.step_ms_per_round", "ms"),
    ("smc.kept_per_predicted", "ratio"),
    ("smc.mean_error", "m"),
    ("solver.objective_evals_per_round", "1/round"),
    ("solver.combo_evals_per_round", "1/round"),
    ("solver.gram_builds_per_round", "1/round"),
    ("solver.nnls_solves_per_round", "1/round"),
    ("solver.us_per_combo_eval", "us"),
    ("linalg.nnls_gram_us", "us"),
    ("fluxpar.tasks_per_round", "1/round"),
    ("fluxpar.cpu_ratio_t2", "ratio"),
    ("fluxpar.wall_ratio_t2", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Daemon set-ups per run: at least `SETUP_MIN` and until a second has
/// passed, at most `SETUP_MAX`; `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 50;
/// Quiescent queries per connection in a traced run.
const IDLE_QUERIES: usize = 50;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Shrunken inputs, for tests.
    pub quick: bool,
    /// Flip one served digest before checking it (tests the checker).
    pub plant_mismatch: bool,
    /// Where a traced run writes its span file.
    pub span_dir: Option<PathBuf>,
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted: opens, submits, queries, checkpoints.
    pub attempted: u64,
    /// Operations that failed, including bit-identity mismatches.
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed with every run but not gated. `mean_error` is exact per
    /// seed yet varies with the seed far beyond any bound; `ack_ms_p99`
    /// follows hypervisor steal on a shared machine.
    pub ungated: Vec<(&'static str, f64, &'static str)>,
    /// Inputs digest, host noise and sample counts, as JSON fields.
    pub diagnostics: Vec<(&'static str, String)>,
}

/// Runs one workload.
///
/// # Errors
///
/// Any failure to generate inputs, set up, serve or replay.
pub fn run(opts: &Options) -> Result<Outcome, Error> {
    let calib_before = host::calibrate_ms();
    let inputs = Inputs::generate(Plan::new(opts.workload, opts.quick), opts.seed)?;
    let plan = &inputs.plan;

    let (min_repeats, max_repeats) = if opts.quick {
        (2, 2)
    } else {
        (SETUP_MIN, SETUP_MAX)
    };
    let mut setup_s = Vec::with_capacity(max_repeats);
    let mut daemon = None;
    let setup_start = Instant::now();
    while setup_s.len() < min_repeats
        || (setup_s.len() < max_repeats && setup_start.elapsed().as_secs_f64() < 1.0)
    {
        if let Some(previous) = daemon.take() {
            serve::Daemon::close(previous)?;
        }
        let start = Instant::now();
        daemon = Some(serve::setup(&inputs)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let open_ms = quantile(&daemon.open_ms, 0.5);

    let epoch = Instant::now();
    let steal_before = host::steal_ms();
    telemetry::reset();
    let mut window = serve::run_window(
        &mut daemon,
        &inputs,
        opts.seconds,
        opts.trace.then_some(epoch),
    )?;
    let peak_rss_mb = host::peak_rss_mb();
    let steal_ms = host::steal_ms() - steal_before;
    let idle_ms = if opts.trace {
        daemon.idle_queries(IDLE_QUERIES)?
    } else {
        Vec::new()
    };
    daemon.close()?;
    let served_snap = telemetry::snapshot();

    let steps: Vec<usize> = window.logs.iter().map(|l| l.steps).collect();
    let mut served: Vec<Vec<u64>> = window.logs.iter().map(|l| l.digests.clone()).collect();
    if opts.plant_mismatch {
        if let Some(first) = served.iter_mut().find_map(|d| d.first_mut()) {
            *first ^= 1;
        }
    }
    // Results never depend on shards, threads or hibernation, so the
    // reference takes the cheapest grid: one shard, no fan-out.
    let reference_grid = GridConfig {
        shards: 1,
        threads: 1,
        hibernate_after: 0,
        ..plan.grid.clone()
    };
    let reference_steps: Vec<usize> = if plan.passes {
        steps.iter().map(|&n| n.min(plan.min_steps)).collect()
    } else {
        steps.clone()
    };
    let reference = replay(&inputs, &reference_grid, &reference_steps, None)?;
    let failed = mismatches(&served, &reference.digests, plan.passes);
    let rounds: u64 = window.logs.iter().map(|l| l.rounds).sum();
    let ops: u64 = window.logs.iter().map(|l| l.ops).sum();
    let attempted = ops + (setup_s.len() * plan.sessions) as u64;

    // Quality of the first `min_steps` steps' estimates: the same on
    // every run of a seed, so it is checked rather than timed.
    let errors: Vec<f64> = window
        .logs
        .iter()
        .flat_map(|l| l.errors.iter().copied())
        .collect();
    let mean_error = mean(&errors);
    let checkpoints = window.logs.iter().map(|l| l.checkpoint_count).sum::<u64>();
    let checkpoint_bytes = window.logs.iter().map(|l| l.checkpoint_bytes).sum::<u64>() as f64
        / checkpoints.max(1) as f64;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ungated = vec![("mean_error", mean_error, "m")];
    let mut diagnostics = vec![
        ("workload", format!("\"{}\"", opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("inputs_hash", format!("\"{:016x}\"", inputs.hash())),
        ("rounds", rounds.to_string()),
        ("steps", format!("{steps:?}")),
        ("wall_s", window.wall_s.to_string()),
        ("reference_wall_s", reference.wall_s.to_string()),
    ];
    if opts.trace {
        let mut tracer = window
            .tracer
            .take()
            .unwrap_or_else(|| Tracer::new(epoch, "served"));
        let layers = per_layer(&inputs, &window, &served_snap, &mut tracer, epoch)?;
        values.extend(layers);
        let frames_out = served_snap.counter(names::FLUXD_FRAMES_OUT) as f64;
        // Responses outside the timed window: this set-up's hellos and
        // opens, the quiescent queries, and the goodbyes.
        let control = (2 * plan.connections + plan.sessions + idle_ms.len()) as f64;
        values.insert(
            "fluxd.frames_per_round",
            (frames_out - control) / rounds.max(1) as f64,
        );
        values.insert("fluxd.query_idle_ms", quantile(&idle_ms, 0.5));
        values.insert("fluxd.open_session_ms", open_ms);
        values.insert("smc.mean_error", mean_error);
        if let Some(dir) = &opts.span_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!(
                "{}-seed{}.spans.ndjson",
                opts.workload.name(),
                opts.seed
            ));
            let traced_snap = telemetry::snapshot();
            std::fs::write(
                &path,
                tracer.to_ndjson(&[("served", &served_snap), ("replay", &traced_snap)]),
            )?;
            diagnostics.push(("span_file", format!("\"{}\"", path.display())));
        }
    } else {
        let slice_rounds = window.slice_rounds();
        let slice_s = window.slice_ns as f64 / 1e9;
        let rates: Vec<f64> = slice_rounds.iter().map(|&r| r as f64 / slice_s).collect();
        let cpu_per_round: Vec<f64> = slice_rounds
            .iter()
            .zip(window.cpu_marks.windows(2))
            .map(|(&r, m)| (m[1] - m[0]) / r.max(1) as f64)
            .collect();
        values.insert("rounds_per_s", quantile(&rates, 0.5));
        values.insert(
            "ack_ms_p50",
            window.median_over_slices(|s| (s.acks.0, s.acks.1)),
        );
        values.insert("query_ms_p50", window.median_over_slices(|s| s.queries));
        values.insert(
            "checkpoint_ms_p50",
            window.median_over_slices(|s| s.checkpoints),
        );
        values.insert("checkpoint_bytes", checkpoint_bytes);
        values.insert("cpu_ms_per_round", quantile(&cpu_per_round, 0.5));
        values.insert("peak_rss_mb", peak_rss_mb);
        values.insert("setup_s", quantile(&setup_s, 0.5));
        ungated.push((
            "ack_ms_p99",
            window.median_over_slices(|s| (s.acks.0, s.acks.2)),
            "ms",
        ));
        diagnostics.push((
            "samples",
            format!(
                "{{\"slices\":{},\"ack\":{},\"query\":{},\"checkpoint\":{},\"setup\":{},\"error\":{}}}",
                serve::SLICES,
                window.samples(|s| (s.acks.0, s.acks.1)),
                window.samples(|s| s.queries),
                window.samples(|s| s.checkpoints),
                setup_s.len(),
                errors.len(),
            ),
        ));
        diagnostics.push(("slice_rounds_per_s", format!("{rates:?}")));
    }
    let names: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((name, value, unit));
    }
    let calib_after = host::calibrate_ms();
    let load = host::load_average();
    diagnostics.push((
        "env",
        format!(
            "{{\"calib_ms\":[{calib_before},{calib_after}],\"steal_ms\":{steal_ms},\"loadavg\":[{},{},{}],\"nproc\":{}}}",
            load[0],
            load[1],
            load[2],
            host::nproc()
        ),
    ));
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        ungated,
        diagnostics,
    })
}

/// Sum of the telemetry spans whose path ends in `name`.
fn span_total(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(name))
        .fold((0, 0), |(count, total), (_, s)| {
            (count + s.count, total + s.total_ns)
        })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The per-layer metrics of a traced run, except the daemon-side ones
/// the caller adds. Replays the prefix steps untraced, traced, and at
/// thread budgets 1 and 2; spans land in `tracer`.
fn per_layer(
    inputs: &Inputs,
    window: &serve::Window,
    served: &Snapshot,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<BTreeMap<&'static str, f64>, Error> {
    let plan = &inputs.plan;
    let mut v = BTreeMap::new();
    let rounds = window.logs.iter().map(|l| l.rounds).sum::<u64>().max(1) as f64;

    // Daemon side, from the program's own telemetry over the window.
    let (drains, drain_ns) = span_total(served, names::SPAN_GRID_DRAIN);
    v.insert(
        "fluxd.frame_latency_ms_mean",
        served
            .histograms
            .get(names::HIST_FLUXD_FRAME_LATENCY)
            .and_then(|h| h.mean())
            .unwrap_or(0.0),
    );
    v.insert(
        "fluxd.credit_stalls",
        window.logs.iter().map(|l| l.credit_stalls).sum::<u64>() as f64,
    );
    v.insert(
        "grid.rounds_per_drain",
        served.counter(names::GRID_ROUNDS_INGESTED) as f64 / drains.max(1) as f64,
    );
    v.insert("grid.drain_ms_per_round", drain_ns as f64 / 1e6 / rounds);
    v.insert(
        "grid.evictions_per_round",
        served.counter(names::GRID_HIBERNATE_EVICTIONS) as f64 / rounds,
    );
    v.insert(
        "grid.revivals_per_round",
        served.counter(names::GRID_HIBERNATE_REVIVALS) as f64 / rounds,
    );

    // In-process prefix replays: untraced, then traced with telemetry.
    let prefix = vec![plan.min_steps; plan.connections];
    let untraced = replay(inputs, &plan.grid, &prefix, None)?;
    telemetry::reset();
    let mut replay_tracer = Tracer::new(epoch, "replay");
    let traced = replay(inputs, &plan.grid, &prefix, Some(&mut replay_tracer))?;
    let snap = telemetry::snapshot();
    if traced
        .digests
        .iter()
        .flatten()
        .ne(untraced.digests.iter().flatten())
    {
        return Err("traced replay diverged from the untraced replay".into());
    }
    let r = traced.rounds.max(1) as f64;
    let submit = replay_tracer
        .self_times()
        .get(&("replay", "grid.submit"))
        .map_or(0.0, |&(count, total, _)| {
            total as f64 / 1e3 / count.max(1) as f64
        });
    tracer.absorb(replay_tracer);
    let (_, ingest_ns) = span_total(&snap, names::SPAN_ENGINE_INGEST);
    let (_, step_ns) = span_total(&snap, names::SPAN_SMC_STEP);
    let combos = snap.counter(names::SOLVER_GRAM_COMBO_EVALS) as f64;
    let per_round = |name: &str| snap.counter(name) as f64 / r;
    v.insert("grid.submit_us", submit);
    v.insert("grid.hot_sessions_peak", traced.hot_peak as f64);
    v.insert(
        "grid.hibernated_bytes_per_session",
        traced.hibernated_bytes_per_session,
    );
    v.insert("engine.ingest_ms_per_round", ingest_ns as f64 / 1e6 / r);
    let p = &traced.probes;
    v.insert("engine.checkpoint_json_us", quantile(&p.json_us, 0.5));
    v.insert("engine.checkpoint_json_bytes", mean(&p.json_bytes));
    v.insert("engine.checkpoint_compact_us", quantile(&p.compact_us, 0.5));
    v.insert("engine.checkpoint_compact_bytes", mean(&p.compact_bytes));
    v.insert("engine.restore_compact_us", quantile(&p.restore_us, 0.5));
    v.insert("smc.step_ms_per_round", step_ns as f64 / 1e6 / r);
    v.insert(
        "smc.kept_per_predicted",
        snap.counter(names::SMC_SAMPLES_KEPT) as f64
            / snap.counter(names::SMC_SAMPLES_PREDICTED).max(1) as f64,
    );
    v.insert(
        "solver.objective_evals_per_round",
        per_round(names::SOLVER_OBJECTIVE_EVALS),
    );
    v.insert(
        "solver.combo_evals_per_round",
        per_round(names::SOLVER_GRAM_COMBO_EVALS),
    );
    v.insert(
        "solver.gram_builds_per_round",
        per_round(names::SOLVER_GRAM_BUILD),
    );
    v.insert(
        "solver.nnls_solves_per_round",
        per_round(names::SOLVER_NNLS_SOLVES),
    );
    v.insert(
        "solver.us_per_combo_eval",
        if combos > 0.0 {
            step_ns as f64 / 1e3 / combos
        } else {
            0.0
        },
    );
    v.insert("fluxpar.tasks_per_round", per_round(names::FLUXPAR_TASKS));
    v.insert("trace.overhead", traced.wall_s / untraced.wall_s.max(1e-12));
    // The same prefix steps served: until the last connection finished them.
    let served_prefix_ns = window.logs.iter().map(|l| l.prefix_ns).max().unwrap_or(0);
    v.insert(
        "fluxd.serve_overhead",
        served_prefix_ns as f64 / 1e9 / untraced.wall_s.max(1e-12),
    );

    // Thread budget 2 against 1 on one shard: the solver's fan-out alone.
    let budget = |threads: usize| GridConfig {
        shards: 1,
        threads,
        ..plan.grid.clone()
    };
    let t1 = replay(inputs, &budget(1), &prefix, None)?;
    let t2 = replay(inputs, &budget(2), &prefix, None)?;
    v.insert("fluxpar.cpu_ratio_t2", t2.cpu_ms / t1.cpu_ms.max(1e-9));
    v.insert("fluxpar.wall_ratio_t2", t2.wall_s / t1.wall_s.max(1e-12));
    v.insert("linalg.nnls_gram_us", nnls_gram_us(inputs.seed)?);
    Ok(v)
}

/// Median microseconds per [`nnls_gram`] call on track-crossing's Gram
/// shape: one column per user of three, over its 90 sniffed readings.
fn nnls_gram_us(seed: u64) -> Result<f64, Error> {
    let (rows, users) = (90, 3);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 7));
    let data: Vec<f64> = (0..rows * users).map(|_| rng.gen_range(0.0..4.0)).collect();
    let a = Matrix::from_vec(rows, users, data)?;
    let b: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..6.0)).collect();
    let gram = a.gram();
    let atb = a.tr_matvec(&b)?;
    let btb: f64 = b.iter().map(|x| x * x).sum();
    let mut per_call = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        for _ in 0..2_000 {
            black_box(nnls_gram(black_box(&gram), black_box(&atb), btb)?);
        }
        per_call.push(start.elapsed().as_secs_f64() * 1e6 / 2_000.0);
    }
    Ok(quantile(&per_call, 0.5))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// The diagnostics line printed before the result.
pub fn diagnostics_json(outcome: &Outcome) -> String {
    let mut fields: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    fields.push(format!(
        "\"ungated\":{{{}}}",
        metrics_json(&outcome.ungated)
    ));
    format!("{{{}}}", fields.join(","))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// A JSON number with every digit of the `f64`; non-finite as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
