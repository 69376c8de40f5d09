//! `repro --bench-fleet`: bounded-memory fleets of mostly-idle sessions.
//!
//! Simulates a fleet of S tracking sessions of which only `ACTIVE_PCT`
//! percent receive each observation round (sessions rotate through the
//! duty cycle), and drives it twice per cell: always-resident
//! (`hibernate_after = 0`) and hibernating (`hibernate_after = 1`, idle
//! residents evicted to their compact checkpoint form at every drain
//! barrier). Before any number is written, each cell asserts the two
//! runs bit-identical — outcomes round by round, plus a deterministic
//! sample of final session checkpoints — so the bench doubles as the
//! hibernation determinism check the acceptance criteria name.
//!
//! Reported per cell: the peak resident-session count of both runs
//! (sampled after every drain barrier, i.e. the steady-state memory
//! high-water; the mid-submit transient is reported separately),
//! bytes per hibernated session (the compact value's footprint, see
//! `Grid::hibernated_bytes`), and rounds/s. The headline
//! is the S = 4096 cell: hibernation must cut peak residency ≥ 10×.
//!
//! A second section measures the cost of checkpointing a duty-cycled
//! session after every grid round for 512 rounds — the number that
//! matters for durable fleets — as a compact base plus one
//! `DeltaCheckpoint` per round vs a whole checkpoint per round. Results
//! land in `BENCH_9.json`.
//!
//! The sweep tops out at 16384 sessions to keep CI wall time sane; set
//! `FLUXPRINT_FLEET_MAX_S` (e.g. to 102400) to append a larger cell —
//! the duty-cycle pattern and the residency bound are size-independent.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use fluxprint_engine::{
    DeltaBasis, Engine, Grid, GridConfig, SessionConfig, SessionId, StepOutcome, Submit,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};

/// Observation rounds per fleet cell.
const ROUNDS: usize = 6;
/// Fleet-size sweep (S); `FLUXPRINT_FLEET_MAX_S` appends a larger cell.
const SESSION_COUNTS: [usize; 3] = [1024, 4096, 16384];
/// Percent of sessions receiving each round.
const ACTIVE_PCT: usize = 5;
/// The headline cell (fleet size).
const HEADLINE_SESSIONS: usize = 4096;
/// Final-state comparison sample: every `stride`-th session, where
/// `stride = max(1, S / STATE_SAMPLE)`; small fleets compare every one.
const STATE_SAMPLE: usize = 256;
/// Rounds in the compaction/delta-stream section.
const STREAM_ROUNDS: usize = 512;
/// Duty-cycle stride of the streamed session (5% active).
const STREAM_STRIDE: usize = 100 / ACTIVE_PCT;

fn bench_network() -> Network {
    let mut rng = StdRng::seed_from_u64(0x9A1D);
    NetworkBuilder::new()
        .field(Rect::square(30.0).expect("valid field"))
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .expect("valid network")
}

/// Tiny per-session work: the mostly-idle regime is about residency,
/// not solver throughput, so the tracker is kept minimal.
fn fleet_config() -> SessionConfig {
    SessionConfig {
        users: 1,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: 16,
            keep_m: 4,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    }
}

/// The shared trace: one user walking east past a fixed 24-sniffer set.
fn bench_trace(net: &Network, rounds: usize) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(0x51FF);
    let sniffer = Sniffer::random_count(net, 24, &mut rng).expect("valid sniffer");
    (1..=rounds)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(8.0 + 1.5 * t, 15.0), 2.0);
            let flux = net
                .simulate_flux(&[user], &mut rng)
                .expect("flux simulates");
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect()
}

fn session_seed(s: usize) -> u64 {
    1000 + s as u64
}

/// Whether session `s` receives round `i` under the rotating duty cycle.
fn is_active(s: usize, i: usize) -> bool {
    (s + i).is_multiple_of(100 / ACTIVE_PCT)
}

/// One fleet run's observables.
struct FleetRun {
    outcomes: Vec<Vec<StepOutcome>>,
    /// Final checkpoints of the sampled sessions (revived on demand).
    final_states: Vec<String>,
    /// Max hot sessions observed at any drain barrier.
    peak_resident: usize,
    /// Max hot sessions observed anywhere, including mid-submit (the
    /// revive-before-evict transient).
    peak_transient: usize,
    /// Hibernarium bytes (compact-checkpoint footprint) per hibernated
    /// session at end of run (0 when nothing hibernated).
    bytes_per_session: f64,
    wall_ms: f64,
}

fn run_fleet(
    engine: &Engine,
    sessions: usize,
    hibernate_after: u64,
    trace: &[ObservationRound],
) -> FleetRun {
    let grid_config = GridConfig {
        shards: 4,
        queue_capacity: trace.len(),
        threads: 4,
        hibernate_after,
    };
    let mut grid = Grid::open(engine.clone(), &grid_config).expect("grid opens");
    let config = fleet_config();
    let ids: Vec<SessionId> = (0..sessions)
        .map(|s| {
            grid.open_session(&config, session_seed(s))
                .expect("session opens")
        })
        .collect();
    // Park drain: freshly opened sessions are hot; one idle barrier lets
    // the hibernating run evict everyone before the duty cycle starts,
    // which is how a revived 100k-session fleet would arrive too.
    grid.drain().expect("park drain");
    let mut peak_resident = grid.hot_sessions();
    let mut peak_transient = peak_resident;

    let start = Instant::now();
    for (i, round) in trace.iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            if !is_active(s, i) {
                continue;
            }
            match grid.submit(id, round.clone()).expect("submit accepts") {
                Submit::Queued => {}
                Submit::Backpressure(_) => unreachable!("queue sized for the whole trace"),
            }
        }
        peak_transient = peak_transient.max(grid.hot_sessions());
        grid.drain().expect("drain runs");
        peak_resident = peak_resident.max(grid.hot_sessions());
        peak_transient = peak_transient.max(grid.hot_sessions());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let hibernated = grid.hibernated_sessions();
    let bytes_per_session = if hibernated > 0 {
        grid.hibernated_bytes() as f64 / hibernated as f64
    } else {
        0.0
    };
    let outcomes = ids
        .iter()
        .map(|&id| grid.take_outcomes(id).expect("session exists"))
        .collect();
    let stride = (sessions / STATE_SAMPLE).max(1);
    let final_states = ids
        .iter()
        .step_by(stride)
        .map(|&id| {
            grid.session_mut(id)
                .expect("session revives")
                .checkpoint_json()
                .expect("checkpoint encodes")
        })
        .collect();
    FleetRun {
        outcomes,
        final_states,
        peak_resident,
        peak_transient,
        bytes_per_session,
        wall_ms,
    }
}

fn assert_identical(resident: &FleetRun, hibernating: &FleetRun, sessions: usize) {
    assert_eq!(resident.outcomes.len(), hibernating.outcomes.len());
    for (s, (a, b)) in resident
        .outcomes
        .iter()
        .zip(&hibernating.outcomes)
        .enumerate()
    {
        assert_eq!(a.len(), b.len(), "bench fleet: S={sessions} session {s}");
        for (oa, ob) in a.iter().zip(b) {
            assert_eq!(oa.time.to_bits(), ob.time.to_bits());
            assert_eq!(oa.active, ob.active);
            for (ea, eb) in oa.estimates.iter().zip(&ob.estimates) {
                assert_eq!(
                    (ea.x.to_bits(), ea.y.to_bits()),
                    (eb.x.to_bits(), eb.y.to_bits()),
                    "bench fleet: estimates diverged under hibernation (S={sessions})"
                );
            }
            assert_eq!(
                oa.residual.to_bits(),
                ob.residual.to_bits(),
                "bench fleet: residual diverged under hibernation (S={sessions})"
            );
        }
    }
    assert_eq!(
        resident.final_states, hibernating.final_states,
        "bench fleet: final session checkpoints diverged (S={sessions})"
    );
}

/// The 512-round compaction section: the per-round durable-stream cost
/// (a whole checkpoint every round vs base + delta chain) of a
/// 5%-duty-cycled session.
fn run_compaction(engine: &Engine, net: &Network) -> serde_json::Value {
    let trace = bench_trace(net, STREAM_ROUNDS);
    let config = SessionConfig {
        users: 1,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: 64,
            keep_m: 8,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };

    // The same trace duty-cycled at 5%, checkpointed after every round —
    // the fleet-durability write pattern.
    let mut idle = engine.open_session(&config, 7).expect("session opens");
    let mut basis = DeltaBasis::new(&idle.checkpoint()).expect("basis opens");
    let mut full_stream = 0usize;
    let mut delta_stream = idle.checkpoint_json().expect("base encodes").len();
    let mut active_rounds = 0usize;
    for (i, round) in trace.iter().enumerate() {
        if i % STREAM_STRIDE == 0 {
            idle.ingest(round).expect("round ingests");
            active_rounds += 1;
        }
        full_stream += idle.checkpoint_json().expect("checkpoint encodes").len();
        let delta = idle.delta_checkpoint(&mut basis).expect("delta encodes");
        delta_stream += serde_json::to_string(&delta).expect("delta encodes").len();
    }
    let stream_ratio = full_stream as f64 / delta_stream as f64;
    eprintln!(
        "bench-fleet: compaction — {STREAM_ROUNDS}-round stream {full_stream} B -> \
         {delta_stream} B ({stream_ratio:.2}x)",
    );
    json!({
        "rounds": STREAM_ROUNDS,
        "active_rounds": active_rounds,
        "active_pct": ACTIVE_PCT,
        "full_stream_bytes": full_stream,
        "delta_stream_bytes": delta_stream,
        "stream_ratio": stream_ratio,
    })
}

/// Runs the sweep and writes `out_path` (JSON). Returns the written value.
pub fn run_bench_fleet(out_path: &str) -> serde_json::Value {
    let net = bench_network();
    let trace = bench_trace(&net, ROUNDS);
    let engine = Engine::for_network(&net, FluxModel::default()).expect("engine builds");

    let mut session_counts: Vec<usize> = SESSION_COUNTS.to_vec();
    if let Ok(raw) = std::env::var("FLUXPRINT_FLEET_MAX_S") {
        let extra: usize = raw.parse().expect("FLUXPRINT_FLEET_MAX_S is a count");
        if extra > *session_counts.last().expect("non-empty sweep") {
            session_counts.push(extra);
        }
    }

    let mut targets = Vec::new();
    let mut headline = None;
    for &sessions in &session_counts {
        let resident = run_fleet(&engine, sessions, 0, &trace);
        let hibernating = run_fleet(&engine, sessions, 1, &trace);
        assert_identical(&resident, &hibernating, sessions);
        let reduction = resident.peak_resident as f64 / hibernating.peak_resident as f64;
        let transient_reduction =
            resident.peak_transient as f64 / hibernating.peak_transient as f64;
        let rounds = trace
            .iter()
            .enumerate()
            .map(|(i, _)| (0..sessions).filter(|&s| is_active(s, i)).count())
            .sum::<usize>();
        eprintln!(
            "bench-fleet: S={sessions:<6} {active}% active — peak resident {r} -> {h} \
             ({reduction:.1}x, transient {transient_reduction:.1}x), \
             {bytes:.0} B/hibernated session",
            active = ACTIVE_PCT,
            r = resident.peak_resident,
            h = hibernating.peak_resident,
            bytes = hibernating.bytes_per_session,
        );
        if sessions == HEADLINE_SESSIONS {
            headline = Some(reduction);
        }
        targets.push(json!({
            "sessions": sessions,
            "active_pct": ACTIVE_PCT,
            "rounds": rounds,
            "peak_resident_always": resident.peak_resident,
            "peak_resident_hibernating": hibernating.peak_resident,
            "peak_transient_hibernating": hibernating.peak_transient,
            "resident_reduction": reduction,
            "transient_reduction": transient_reduction,
            "bytes_per_session": hibernating.bytes_per_session,
            "resident_rounds_per_s": rounds as f64 / (resident.wall_ms / 1e3),
            "hibernating_rounds_per_s": rounds as f64 / (hibernating.wall_ms / 1e3),
        }));
    }

    let headline = headline.expect("headline cell is part of the sweep");
    let compaction = run_compaction(&engine, &net);

    let value = json!({
        "bench": "fleet_hibernation",
        "rounds_per_trace": ROUNDS,
        "active_pct": ACTIVE_PCT,
        "targets": targets,
        "headline": {
            "sessions": HEADLINE_SESSIONS,
            "active_pct": ACTIVE_PCT,
            "resident_reduction": headline,
            "stream_ratio": compaction["stream_ratio"],
        },
        "compaction": compaction,
    });
    std::fs::write(out_path, format!("{value:#}\n")).expect("write bench output");
    eprintln!(
        "bench-fleet: headline S={HEADLINE_SESSIONS} resident reduction {headline:.1}x; \
         wrote {out_path}"
    );
    value
}
