//! Loopback serving correctness: trajectories served over TCP must be
//! bit-identical to the same workload ingested in-process, with four
//! concurrent connections interleaving arbitrarily. Honors
//! `FLUXPRINT_THREADS` for the server grid so CI can pin the worker
//! count (the determinism contract holds at any value).

use std::net::SocketAddr;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{Engine, Grid, GridConfig, SessionConfig, SessionId};
use fluxprint_fluxd::{server, Client, ServerConfig, SessionSpec, WireOutcome};
use fluxprint_fluxmodel::FluxModel;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, ObservationRound, Sniffer};
use fluxprint_smc::StepOutcome;
use fluxprint_telemetry::names;

const CONNECTIONS: usize = 4;
const ROUNDS: usize = 6;
const N_PREDICTIONS: u32 = 16;
const KEEP_M: u32 = 4;

fn test_network() -> Network {
    let mut rng = StdRng::seed_from_u64(0x9A1D);
    NetworkBuilder::new()
        .field(Rect::square(18.0).expect("valid field"))
        .perturbed_grid(6, 6, 0.3)
        .radius(4.0)
        .build(&mut rng)
        .expect("valid network")
}

fn test_trace(net: &Network) -> Vec<ObservationRound> {
    let mut rng = StdRng::seed_from_u64(0x51FF);
    let sniffer = Sniffer::random_count(net, 12, &mut rng).expect("valid sniffer");
    (1..=ROUNDS)
        .map(|i| {
            let t = i as f64;
            let user = (Point2::new(4.0 + 1.2 * t, 9.0), 2.0);
            let flux = net
                .simulate_flux(&[user], &mut rng)
                .expect("flux simulates");
            sniffer.observe_round_smoothed(t, net, &flux, NoiseModel::None, &mut rng)
        })
        .collect()
}

fn session_seed(conn: usize) -> u64 {
    7000 + conn as u64
}

fn spec() -> SessionSpec {
    SessionSpec {
        seed: 0, // overridden per connection
        users: 1,
        n_predictions: N_PREDICTIONS,
        keep_m: KEEP_M,
        warm: false,
        start_time: 0.0,
    }
}

/// The grid worker count under test; mirrors the engine's env knob so
/// CI exercises both single-threaded and parallel serving.
fn threads_from_env() -> usize {
    std::env::var("FLUXPRINT_THREADS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(0)
}

/// In-process reference: the same per-connection workload ingested
/// through solo sessions (the grid is bit-identical to these by the
/// engine's determinism contract).
fn reference_outcomes(net: &Network, trace: &[ObservationRound]) -> Vec<Vec<StepOutcome>> {
    let engine = Engine::for_network(net, FluxModel::default()).expect("valid engine");
    (0..CONNECTIONS)
        .map(|conn| {
            let config = SessionConfig {
                users: 1,
                smc: fluxprint_smc::SmcConfig {
                    n_predictions: N_PREDICTIONS as usize,
                    keep_m: KEEP_M as usize,
                    ..Default::default()
                },
                start_time: 0.0,
                warm: false,
            };
            let mut session = engine
                .open_session(&config, session_seed(conn))
                .expect("session opens");
            trace
                .iter()
                .map(|round| session.ingest(round).expect("round ingests"))
                .collect()
        })
        .collect()
}

fn assert_bit_identical(conn: usize, served: &[WireOutcome], reference: &[StepOutcome]) {
    assert_eq!(served.len(), reference.len(), "conn {conn}: round count");
    for (i, (wire, solo)) in served.iter().zip(reference).enumerate() {
        let at = format!("conn {conn} round {i}");
        assert_eq!(wire.time.to_bits(), solo.time.to_bits(), "{at}: time");
        assert_eq!(
            wire.residual.to_bits(),
            solo.residual.to_bits(),
            "{at}: residual"
        );
        assert_eq!(wire.estimates.len(), solo.estimates.len(), "{at}: users");
        for (user, ((x, y), point)) in wire.estimates.iter().zip(&solo.estimates).enumerate() {
            assert_eq!(x.to_bits(), point.x.to_bits(), "{at} user {user}: x");
            assert_eq!(y.to_bits(), point.y.to_bits(), "{at} user {user}: y");
        }
        assert_eq!(wire.active, solo.active, "{at}: activity");
    }
}

fn spawn_server(
    net: &Network,
    queue_capacity: usize,
    hibernate_after: u64,
) -> fluxprint_fluxd::ServerHandle {
    let engine = Engine::for_network(net, FluxModel::default()).expect("valid engine");
    server::spawn(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: GridConfig {
                shards: 2,
                queue_capacity,
                threads: threads_from_env(),
                hibernate_after,
            },
            credits: 0,
            drain_threshold: 0,
        },
    )
    .expect("server spawns")
}

/// One connection's full conversation: open a session, stream the trace
/// in small batches, and return the served trajectory.
fn drive_connection(
    addr: SocketAddr,
    conn: usize,
    trace: &[ObservationRound],
) -> (Vec<WireOutcome>, u64) {
    let mut client = Client::connect(addr).expect("client connects");
    let session = client
        .open_session(&SessionSpec {
            seed: session_seed(conn),
            ..spec()
        })
        .expect("session opens");
    for batch in trace.chunks(2) {
        client.submit(session, batch).expect("batch submits");
    }
    client.wait_acks().expect("acks arrive");
    let outcomes = client.take_outcomes(session);

    // Cross-check the query path against the served trajectory.
    let (x, y) = client.query(session, 0).expect("query answers");
    let last = outcomes.last().expect("at least one outcome");
    assert_eq!(x.to_bits(), last.estimates[0].0.to_bits(), "query x");
    assert_eq!(y.to_bits(), last.estimates[0].1.to_bits(), "query y");

    let stall_ns = client.stall_ns();
    client.goodbye().expect("orderly goodbye");
    (outcomes, stall_ns)
}

#[test]
fn served_trajectories_are_bit_identical_to_in_process() {
    let net = test_network();
    let trace = test_trace(&net);
    let reference = reference_outcomes(&net, &trace);

    let server = spawn_server(&net, 16, 0);
    let addr = server.addr();

    // Four concurrent connections; the server interleaves their rounds
    // arbitrarily across drains, which must not affect any trajectory.
    let served: Vec<(Vec<WireOutcome>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let trace = &trace;
                scope.spawn(move || drive_connection(addr, conn, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("connection thread"))
            .collect()
    });

    for (conn, (outcomes, _)) in served.iter().enumerate() {
        assert_bit_identical(conn, outcomes, &reference[conn]);
    }

    server.shutdown().expect("clean shutdown");
}

#[test]
fn credit_window_stalls_a_fast_client_without_corrupting_results() {
    let net = test_network();
    let trace = test_trace(&net);
    let reference = reference_outcomes(&net, &trace);

    // A tiny window (2 credits) forces the client to stall on its own
    // acks between batches; the served trajectory must be unaffected.
    let server = spawn_server(&net, 2, 0);
    let mut client = Client::connect(server.addr()).expect("client connects");
    assert_eq!(client.credits(), 2, "window mirrors queue capacity");
    let session = client
        .open_session(&SessionSpec {
            seed: session_seed(0),
            ..spec()
        })
        .expect("session opens");
    for batch in trace.chunks(2) {
        client.submit(session, batch).expect("batch submits");
    }
    client.wait_acks().expect("acks arrive");
    let outcomes = client.take_outcomes(session);
    assert_bit_identical(0, &outcomes, &reference[0]);
    assert_eq!(
        client.latencies_ns().len(),
        trace.chunks(2).count(),
        "one latency sample per acked batch"
    );
    client.goodbye().expect("orderly goodbye");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn served_checkpoint_matches_in_process_checkpoint() {
    let net = test_network();
    let trace = test_trace(&net);

    // In-process reference checkpoint.
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let config = SessionConfig {
        users: 1,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: N_PREDICTIONS as usize,
            keep_m: KEEP_M as usize,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    let mut solo = engine
        .open_session(&config, session_seed(0))
        .expect("session opens");
    for round in &trace {
        solo.ingest(round).expect("round ingests");
    }
    let want = solo.checkpoint_json().expect("checkpoint serializes");

    let server = spawn_server(&net, 16, 0);
    let mut client = Client::connect(server.addr()).expect("client connects");
    let session = client
        .open_session(&SessionSpec {
            seed: session_seed(0),
            ..spec()
        })
        .expect("session opens");
    client.submit(session, &trace).expect("trace submits");
    let got = client.checkpoint(session).expect("checkpoint arrives");
    assert_eq!(got, want, "served checkpoint is byte-identical");

    // Suspend/resume round-trips over the wire too.
    client.suspend(session, 0).expect("suspend applies");
    client.resume(session, 0).expect("resume applies");

    client.goodbye().expect("orderly goodbye");
    server.shutdown().expect("clean shutdown");
}

/// Reads of hibernated sessions over the wire: with `hibernate_after: 1`
/// every `Checkpoint` and `Query` below lands on a cold session, and
/// each answer is bit-identical to an always-resident in-process grid.
/// The reads answer from the stored checkpoint, so no session is ever
/// revived: every write goes to a session that is still hot, and
/// `grid.hibernate.revivals` stays at zero for the server's lifetime.
#[test]
fn cold_reads_over_the_wire_match_a_resident_grid_without_revival() {
    const READERS: usize = 3;
    const USERS: u32 = 2;
    let net = test_network();
    let trace = test_trace(&net);
    let seeds: Vec<u64> = (0..=READERS).map(session_seed).collect();
    let user_spec = |seed| SessionSpec {
        seed,
        users: USERS,
        ..spec()
    };

    // Always-resident reference: the same sessions and rounds.
    let engine = Engine::for_network(&net, FluxModel::default()).expect("valid engine");
    let resident = GridConfig {
        shards: 2,
        queue_capacity: 16,
        threads: 1,
        hibernate_after: 0,
    };
    let mut reference = Grid::open(engine, &resident).expect("grid opens");
    let session_config = SessionConfig {
        users: USERS as usize,
        smc: fluxprint_smc::SmcConfig {
            n_predictions: N_PREDICTIONS as usize,
            keep_m: KEEP_M as usize,
            ..Default::default()
        },
        start_time: 0.0,
        warm: false,
    };
    for &seed in &seeds {
        let id = reference
            .open_session(&session_config, seed)
            .expect("session opens");
        for round in &trace {
            reference.submit(id, round.clone()).expect("round queues");
        }
        reference.drain().expect("rounds ingest");
    }

    // Served: each session is opened and fed its whole trace in one
    // frame once the previous one is acked, so the only drain it is
    // idle through is the next session's. That drain evicts it; the
    // last session exists only to evict the readers before them.
    let server = spawn_server(&net, 16, 1);
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut ids = Vec::new();
    for &seed in &seeds {
        let id = client
            .open_session(&user_spec(seed))
            .expect("session opens");
        client.submit(id, &trace).expect("trace submits");
        client.wait_acks().expect("acks arrive");
        ids.push(id);
    }
    for pass in 0..2 {
        for (s, &id) in ids[..READERS].iter().enumerate() {
            let at = format!("pass {pass} session {s}");
            let want = reference
                .session_checkpoint_json(SessionId(s))
                .expect("checkpoint serializes");
            let got = client.checkpoint(id).expect("checkpoint arrives");
            assert_eq!(got, want, "{at}: served checkpoint bytes");
            for user in 0..USERS {
                let (x, y) = client.query(id, user).expect("query answers");
                let point = reference
                    .session(SessionId(s))
                    .expect("resident")
                    .estimate(user as usize)
                    .expect("user in range");
                assert_eq!(x.to_bits(), point.x.to_bits(), "{at} user {user}: x");
                assert_eq!(y.to_bits(), point.y.to_bits(), "{at} user {user}: y");
            }
        }
    }
    client.goodbye().expect("orderly goodbye");
    server.shutdown().expect("clean shutdown");

    // The core thread's telemetry is merged at shutdown. No other test
    // in this binary hibernates, so these counts are this server's.
    let telemetry = fluxprint_telemetry::snapshot();
    assert!(
        telemetry.counter(names::GRID_HIBERNATE_EVICTIONS) >= READERS as u64,
        "every reader went cold"
    );
    assert_eq!(
        telemetry.counter(names::GRID_HIBERNATE_REVIVALS),
        0,
        "cold reads revived a session"
    );
}
