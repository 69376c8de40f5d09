//! Grid bookkeeping invariants: the running queued-round count behind
//! `Grid::queued_total` matches the per-session queues through every
//! path that moves rounds, and grid checkpoints over a hibernating fleet
//! are byte-stable — the hibernarium keeps compact checkpoint values,
//! and those values survive a JSON round trip exactly, so the emitted
//! checkpoint text is what a JSON-holding hibernarium would emit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{
    CompactCheckpoint, Engine, EngineError, Grid, GridConfig, SessionConfig, SessionId, Submit,
};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::Point2;
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::SmcConfig;

fn network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new()
        .field(fluxprint_geometry::Rect::square(30.0).unwrap())
        .perturbed_grid(12, 12, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .unwrap()
}

fn config(warm: bool) -> SessionConfig {
    SessionConfig {
        users: 1,
        smc: SmcConfig {
            n_predictions: 60,
            keep_m: 6,
            ..Default::default()
        },
        start_time: 0.0,
        warm,
    }
}

/// Simulated rounds over a user walking a diagonal, at fractional
/// observation times so the tracked histories hold non-integer floats.
fn rounds(net: &Network, n: usize, seed: u64) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sniffer = Sniffer::random_count(net, 24, &mut rng).unwrap();
    (1..=n)
        .map(|i| {
            let t = 0.73 * i as f64 + 0.011;
            let user = (Point2::new(7.3 + 1.37 * t, 9.1 + 0.61 * t), 2.0);
            let flux = net.simulate_flux(&[user], &mut rng).unwrap();
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect()
}

/// The per-session queue lengths, summed the slow way.
fn summed_queues(grid: &Grid) -> usize {
    (0..grid.sessions())
        .map(|i| grid.queued(SessionId(i)).unwrap())
        .sum()
}

#[test]
fn queued_total_tracks_every_queue_path() {
    let net = network(61);
    let trace = rounds(&net, 6, 62);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    let grid_config = GridConfig {
        shards: 2,
        queue_capacity: 3,
        threads: 2,
        hibernate_after: 1,
    };
    let mut grid = Grid::open(engine.clone(), &grid_config).unwrap();
    // Shard 0 holds sessions 0 and 2, shard 1 holds 1 and 3.
    let ids: Vec<SessionId> = (0..4)
        .map(|s| grid.open_session(&config(false), 700 + s).unwrap())
        .collect();
    assert_eq!(grid.queued_total(), 0);

    // Submit, up to backpressure on session 0.
    for round in &trace[..3] {
        for &id in &ids {
            assert_eq!(grid.submit(id, round.clone()).unwrap(), Submit::Queued);
            assert_eq!(grid.queued_total(), summed_queues(&grid));
        }
    }
    assert!(matches!(
        grid.submit(ids[0], trace[3].clone()).unwrap(),
        Submit::Backpressure(_)
    ));
    assert_eq!(grid.queued_total(), 12);
    assert_eq!(grid.queued_total(), summed_queues(&grid));

    // A clean drain empties every queue.
    assert_eq!(grid.drain().unwrap(), 12);
    assert_eq!(grid.queued_total(), 0);
    assert_eq!(grid.queued_total(), summed_queues(&grid));

    // A failing drain: session 0's bad round is consumed, its remainder
    // requeued, and shard 0 stops before session 2; shard 1 drains.
    let bad = ObservationRound {
        time: trace[3].time,
        ids: Vec::new(),
        fluxes: Vec::new(),
    };
    grid.submit(ids[0], bad).unwrap();
    for &id in &ids {
        grid.submit(id, trace[3].clone()).unwrap();
        grid.submit(id, trace[4].clone()).unwrap();
    }
    assert_eq!(grid.queued_total(), 9);
    assert!(matches!(
        grid.drain(),
        Err(EngineError::SessionFailed { session: 0, .. })
    ));
    assert_eq!(grid.queued(ids[0]).unwrap(), 2);
    assert_eq!(grid.queued(ids[2]).unwrap(), 2);
    assert_eq!(grid.queued_total(), 4);
    assert_eq!(grid.queued_total(), summed_queues(&grid));
    assert_eq!(grid.drain().unwrap(), 4);
    assert_eq!(grid.queued_total(), 0);

    // Restore with pending rounds, one of them on a cold entry.
    grid.drain().unwrap();
    assert!(grid.is_hibernated(ids[3]).unwrap());
    grid.submit(ids[1], trace[5].clone()).unwrap();
    let mut checkpoint = grid.checkpoint().unwrap();
    assert!(checkpoint.sessions[3].hibernated);
    checkpoint.sessions[3].pending.push(trace[5].clone());
    let mut restored = Grid::restore(engine, &grid_config, &checkpoint).unwrap();
    assert_eq!(restored.queued_total(), 2);
    assert_eq!(restored.queued_total(), summed_queues(&restored));
    assert_eq!(restored.drain().unwrap(), 2);
    assert_eq!(restored.queued_total(), 0);
    assert_eq!(restored.queued_total(), summed_queues(&restored));
}

/// Drives a duty-cycled fleet so that, at checkpoint time, some sessions
/// are cold and some hot, and every cold one carries heading history.
fn hibernating_fleet(engine: &Engine, warm: bool, trace: &[ObservationRound]) -> Grid {
    let mut grid = Grid::open(
        engine.clone(),
        &GridConfig {
            shards: 2,
            queue_capacity: 8,
            threads: 2,
            hibernate_after: 1,
        },
    )
    .unwrap();
    let ids: Vec<SessionId> = (0..6)
        .map(|s| grid.open_session(&config(warm), 900 + s).unwrap())
        .collect();
    for (step, round) in trace.iter().enumerate() {
        for (s, &id) in ids.iter().enumerate() {
            // Sessions 0..3 go quiet for the last two steps.
            if step + 2 < trace.len() || s >= 3 {
                grid.submit(id, round.clone()).unwrap();
            }
        }
        grid.drain().unwrap();
    }
    grid
}

#[test]
fn grid_checkpoints_of_a_hibernating_fleet_are_byte_stable() {
    let net = network(63);
    let trace = rounds(&net, 6, 64);
    let engine = Engine::for_network(&net, FluxModel::default()).unwrap();
    for warm in [false, true] {
        let grid = hibernating_fleet(&engine, warm, &trace);
        let checkpoint = grid.checkpoint().unwrap();
        let cold: Vec<&CompactCheckpoint> = checkpoint
            .sessions
            .iter()
            .filter(|s| s.hibernated)
            .map(|s| &s.session)
            .collect();
        assert_eq!(cold.len(), 3, "warm={warm}: sessions 0..3 are cold");
        assert_eq!(grid.hot_sessions(), 3);
        let fractional_history = cold
            .iter()
            .flat_map(|c| &c.tracker.users)
            .flat_map(|u| &u.history)
            .any(|(t, p)| t.fract() != 0.0 && p.x.fract() != 0.0 && p.y.fract() != 0.0);
        assert!(fractional_history, "warm={warm}: histories are non-trivial");
        for c in &cold {
            assert_eq!(c.warm.is_some(), warm);
            let text = serde_json::to_string(c).unwrap();
            let back: CompactCheckpoint = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, *c, "warm={warm}: a cold entry changed in JSON");
        }

        let json = grid.checkpoint_json().unwrap();
        let grid_config = GridConfig {
            shards: 2,
            queue_capacity: 8,
            threads: 1,
            hibernate_after: 1,
        };
        let restored = Grid::restore_json(engine.clone(), &grid_config, &json).unwrap();
        assert_eq!(restored.hibernated_sessions(), 3);
        assert_eq!(restored.hibernated_bytes(), grid.hibernated_bytes());
        assert_eq!(
            restored.checkpoint_json().unwrap(),
            json,
            "warm={warm}: checkpoint → restore → checkpoint is not a fixed point"
        );
    }
}
