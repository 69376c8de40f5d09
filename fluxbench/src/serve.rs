//! The served side: a loopback fluxd and the closed-loop clients.
//!
//! Every connection is a closed loop: it sends a step's submits, waits
//! for their acks, then issues the step's `Query` and `Checkpoint`, and
//! only then starts the next step. Each client keeps one digest per
//! operation so the in-process replay can check it bit for bit.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use fluxprint_engine::Engine;
use fluxprint_fluxd::{Client, ServerConfig, ServerHandle};
use fluxprint_fluxmodel::FluxModel;

use crate::check::{checkpoint_digest, combine, matched_error, position_digest, wire_digest};
use crate::host::quantile;
use crate::spec::Inputs;
use crate::trace::{traced, Tracer};
use crate::Error;

/// A running loopback daemon with every session open.
pub struct Daemon {
    server: ServerHandle,
    clients: Vec<Client>,
    /// Wire latency of every `OpenSession`, milliseconds.
    pub open_ms: Vec<f64>,
}

/// Builds the engine, spawns the daemon, connects every client and
/// opens every session. Session `s` is driven by connection
/// `s % connections` and opened in session order, so its daemon id is
/// `s`.
///
/// # Errors
///
/// Propagates engine, bind, connect and open failures.
pub fn setup(inputs: &Inputs) -> Result<Daemon, Error> {
    let plan = &inputs.plan;
    let engine = Engine::for_network(&inputs.network, FluxModel::default())?;
    let server = fluxprint_fluxd::spawn(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            grid: plan.grid.clone(),
            credits: plan.credits,
            drain_threshold: 0,
        },
    )?;
    let mut daemon = Daemon {
        clients: Vec::with_capacity(plan.connections),
        server,
        open_ms: Vec::with_capacity(plan.sessions),
    };
    for _ in 0..plan.connections {
        daemon.clients.push(Client::connect(daemon.server.addr())?);
    }
    for (s, &seed) in inputs.session_seeds.iter().enumerate() {
        let start = Instant::now();
        let id = daemon.clients[s % plan.connections].open_session(&plan.session_spec(seed))?;
        daemon.open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if id as usize != s {
            return Err(format!("session {s} opened as daemon id {id}").into());
        }
    }
    Ok(daemon)
}

impl Daemon {
    /// Says goodbye on every connection and joins the daemon's threads.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and a panicked serving thread.
    pub fn close(self) -> Result<(), Error> {
        for client in self.clients {
            client.goodbye()?;
        }
        self.server.shutdown()?;
        Ok(())
    }

    /// `Query` latencies with nothing queued anywhere, milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn idle_queries(&mut self, per_connection: usize) -> Result<Vec<f64>, Error> {
        let mut out = Vec::new();
        for (conn, client) in self.clients.iter_mut().enumerate() {
            for _ in 0..per_connection {
                let start = Instant::now();
                client.query(conn as u32, 0)?;
                out.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok(out)
    }
}

/// One slice of one connection's timed window, reduced when the slice
/// closes so the benchmark's own memory stays flat however long it runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceStats {
    /// Rounds acked in steps that ended in this slice.
    pub rounds: u64,
    /// Submit → ack latencies: count, median and 99th percentile, ms.
    pub acks: (usize, f64, f64),
    /// `Query` latencies: count and median, ms.
    pub queries: (usize, f64),
    /// `Checkpoint` latencies: count and median, ms.
    pub checkpoints: (usize, f64),
}

/// Samples of the slice still open.
#[derive(Debug, Default)]
struct OpenSlice {
    rounds: u64,
    acks: Vec<f64>,
    queries: Vec<f64>,
    checkpoints: Vec<f64>,
}

impl OpenSlice {
    fn close(&mut self) -> SliceStats {
        let stats = SliceStats {
            rounds: self.rounds,
            acks: (
                self.acks.len(),
                quantile(&self.acks, 0.5),
                quantile(&self.acks, 0.99),
            ),
            queries: (self.queries.len(), quantile(&self.queries, 0.5)),
            checkpoints: (self.checkpoints.len(), quantile(&self.checkpoints, 0.5)),
        };
        *self = OpenSlice::default();
        stats
    }
}

/// What one connection did during the timed window.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Steps completed.
    pub steps: usize,
    /// Rounds submitted (and acked).
    pub rounds: u64,
    /// Operations issued: opens inside the window, submits, queries,
    /// checkpoints.
    pub ops: u64,
    /// One digest per submit, query and checkpoint, in issue order.
    pub digests: Vec<u64>,
    /// Per-slice statistics; steps ending after the window are left out.
    pub slices: Vec<SliceStats>,
    /// Nanoseconds from the loop's launch to the end of step
    /// `min_steps - 1`.
    pub prefix_ns: u64,
    /// Submits that had to wait for credits.
    pub credit_stalls: u64,
    /// Matched error of every outcome of the first `min_steps` steps.
    pub errors: Vec<f64>,
    /// Summed checkpoint bytes over the first `min_steps` steps.
    pub checkpoint_bytes: u64,
    /// Checkpoints in `checkpoint_bytes`.
    pub checkpoint_count: u64,
}

/// Keeps the connections of a duty-cycled fleet in lockstep: every tick
/// starts together, and the tick's `Query` and `Checkpoint` wait until
/// every connection's rounds are acked, so they measure a cold revival
/// and an encoding rather than whichever drain the other connection
/// happened to have in flight. A connection that fails abandons the
/// lockstep, which releases every other waiting connection with an
/// error instead of leaving it blocked.
pub struct Lockstep {
    parties: usize,
    state: Mutex<Gate>,
    turn: Condvar,
}

#[derive(Default)]
struct Gate {
    arrived: usize,
    generation: u64,
    abandoned: bool,
    stop: bool,
}

impl Lockstep {
    /// Lockstep over `parties` driving threads.
    pub fn new(parties: usize) -> Lockstep {
        Lockstep {
            parties,
            state: Mutex::new(Gate::default()),
            turn: Condvar::new(),
        }
    }

    /// Waits for every party; the last to arrive runs `last` on the stop
    /// flag first. Returns whether the parties go on.
    fn wait(&self, last: impl FnOnce(&mut bool)) -> Result<bool, Error> {
        let mut state = self.state.lock().map_err(|_| "lockstep poisoned")?;
        if state.abandoned {
            return Err("another connection failed".into());
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            last(&mut state.stop);
            state.arrived = 0;
            state.generation += 1;
            self.turn.notify_all();
        } else {
            let generation = state.generation;
            while state.generation == generation && !state.abandoned {
                state = self.turn.wait(state).map_err(|_| "lockstep poisoned")?;
            }
            if state.abandoned {
                return Err("another connection failed".into());
            }
        }
        Ok(!state.stop)
    }

    /// Releases every waiting party with an error.
    fn abandon(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.abandoned = true;
            self.turn.notify_all();
        }
    }
}

/// [`drive_loop`], abandoning the lockstep when this connection fails.
///
/// # Errors
///
/// As [`drive_loop`].
pub fn drive(
    client: &mut Client,
    inputs: &Inputs,
    conn: usize,
    clock: (Instant, Instant, u64),
    lockstep: Option<&Lockstep>,
    tracer: Option<&mut Tracer>,
) -> Result<ConnLog, Error> {
    let result = drive_loop(client, inputs, conn, clock, lockstep, tracer);
    if let (Err(_), Some(l)) = (&result, lockstep) {
        l.abandon();
    }
    result
}

/// Runs connection `conn`'s closed loop from `launch` until the last
/// slice after `start` ends, and at least `min_steps` steps. Steps that
/// end before `start` are the untimed warm-up. With `plan.passes`,
/// every `min_steps` steps the connection opens its sessions afresh and
/// walks the same steps again, so every pass repeats the first exactly.
/// Spans are recorded for the first `min_steps` steps when `tracer` is
/// given.
///
/// # Errors
///
/// Propagates transport failures and server refusals.
fn drive_loop(
    client: &mut Client,
    inputs: &Inputs,
    conn: usize,
    (launch, start, slice_ns): (Instant, Instant, u64),
    lockstep: Option<&Lockstep>,
    mut tracer: Option<&mut Tracer>,
) -> Result<ConnLog, Error> {
    let plan = &inputs.plan;
    let sessions = plan.conn_sessions(conn);
    // Daemon id of every session this connection drives.
    let mut ids: Vec<u32> = (0..plan.sessions as u32).collect();
    let mut next_k = vec![0usize; plan.sessions];
    let mut log = ConnLog::default();
    let deadline = start + Duration::from_nanos(slice_ns * SLICES as u64);
    let mut open = OpenSlice::default();
    let mut j = 0usize;
    loop {
        let more = || j < plan.min_steps || Instant::now() < deadline;
        // One party decides for all, so every connection runs the same
        // number of ticks.
        let go_on = match lockstep {
            Some(l) => l.wait(|stop| *stop = !more())?,
            None => more(),
        };
        if !go_on {
            break;
        }
        let pass_step = if plan.passes { j % plan.min_steps } else { j };
        if plan.passes && pass_step == 0 && j > 0 {
            for &s in &sessions {
                ids[s] = client.open_session(&plan.session_spec(inputs.session_seeds[s]))?;
                next_k[s] = 0;
                log.ops += 1;
            }
        }
        let prefix = j < plan.min_steps;
        let mut tr = if prefix { tracer.as_deref_mut() } else { None };
        let request = ((conn as u64) << 32) | j as u64;
        let step = inputs.step(&sessions, pass_step, &mut next_k);
        if let Some(t) = tr.as_deref_mut() {
            t.begin("client.step", request);
        }
        let acked = client.latencies_ns().len();
        let mut step_rounds = 0;
        let mut query_ms = None;
        let mut checkpoint_ms = None;
        for &(s, k, count) in &step.submits {
            let rounds: Vec<_> = (k..k + count).map(|i| inputs.round(s, i)).collect();
            let stalled = client.stall_ns();
            traced(&mut tr, "fluxd.submit", request, || {
                client.submit(ids[s], &rounds)
            })?;
            if client.stall_ns() > stalled {
                log.credit_stalls += 1;
            }
            log.ops += 1;
            step_rounds += count as u64;
        }
        traced(&mut tr, "fluxd.wait_acks", request, || client.wait_acks())?;
        for &(s, k, count) in &step.submits {
            let outcomes = client.take_outcomes(ids[s]);
            log.digests.push(if outcomes.len() == count {
                combine(outcomes.iter().map(wire_digest))
            } else {
                0
            });
            if prefix {
                for (i, o) in outcomes.iter().enumerate() {
                    log.errors
                        .push(matched_error(&o.estimates, inputs.truth(s, k + i)));
                }
            }
        }
        // In lockstep the connections take turns at their reads, each
        // alone on a quiet daemon.
        for turn in 0..lockstep.map_or(1, |_| plan.connections) {
            if let Some(l) = lockstep {
                l.wait(|_| {})?;
            }
            if lockstep.is_some() && turn != conn {
                continue;
            }
            if let Some((s, user)) = step.query {
                let sent = Instant::now();
                let (x, y) = traced(&mut tr, "fluxd.query", request, || {
                    client.query(ids[s], user as u32)
                })?;
                query_ms = Some(sent.elapsed().as_secs_f64() * 1e3);
                log.digests.push(position_digest(x, y));
                log.ops += 1;
            }
            if let Some(s) = step.checkpoint {
                let sent = Instant::now();
                let json = traced(&mut tr, "fluxd.checkpoint", request, || {
                    client.checkpoint(ids[s])
                })?;
                checkpoint_ms = Some(sent.elapsed().as_secs_f64() * 1e3);
                log.digests.push(checkpoint_digest(&json));
                log.ops += 1;
                if prefix {
                    log.checkpoint_bytes += json.len() as u64;
                    log.checkpoint_count += 1;
                }
            }
        }
        if let Some(t) = tr {
            t.end();
        }
        let now = Instant::now();
        log.rounds += step_rounds;
        if j + 1 == plan.min_steps {
            log.prefix_ns = (now - launch).as_nanos() as u64;
        }
        let slice = now.checked_duration_since(start).map_or(usize::MAX, |d| {
            (d.as_nanos() as u64 / slice_ns.max(1)) as usize
        });
        while slice != usize::MAX && log.slices.len() < slice.min(SLICES) {
            log.slices.push(open.close());
        }
        if slice < SLICES {
            open.rounds += step_rounds;
            open.acks.extend(
                client.latencies_ns()[acked..]
                    .iter()
                    .map(|&ns| ns as f64 / 1e6),
            );
            open.queries.extend(query_ms);
            open.checkpoints.extend(checkpoint_ms);
        }
        j += 1;
    }
    while log.slices.len() < SLICES {
        log.slices.push(open.close());
    }
    log.steps = j;
    Ok(log)
}

/// The timed window over every connection at once, cut into
/// [`SLICES`] equal slices of the requested length.
pub struct Window {
    /// Per-connection logs.
    pub logs: Vec<ConnLog>,
    /// Wall seconds from the first step (warm-up included) to the last
    /// connection's end.
    pub wall_s: f64,
    /// Length of one slice, nanoseconds.
    pub slice_ns: u64,
    /// Process CPU milliseconds (clients and daemon) at every slice
    /// boundary, `SLICES + 1` readings.
    pub cpu_marks: Vec<f64>,
    /// Served-side spans (trace runs only).
    pub tracer: Option<Tracer>,
}

/// Slices per timed window. Per-slice rates and quantiles are reduced
/// to their median, so a burst of host noise in one slice cannot move a
/// metric.
pub const SLICES: usize = 20;

/// Untimed serving before the window opens. On the 2-vCPU virtual
/// machine this was tuned on, a CPU-bound loop started after an idle
/// spell ran up to 3× slow for about a second.
const WARMUP: Duration = Duration::from_secs(2);

/// Drives every connection, one thread each, for `seconds`, reading
/// process CPU time at every slice boundary.
///
/// # Errors
///
/// The first connection's failure.
pub fn run_window(
    daemon: &mut Daemon,
    inputs: &Inputs,
    seconds: f64,
    epoch: Option<Instant>,
) -> Result<Window, Error> {
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let slice_ns = slice.as_nanos() as u64;
    let mut cpu_marks = Vec::with_capacity(SLICES + 1);
    let launch = Instant::now();
    let start = launch + WARMUP;
    let lockstep = (inputs.plan.duty_stride > 1).then(|| Lockstep::new(inputs.plan.connections));
    let lockstep = lockstep.as_ref();
    let results: Vec<Result<(ConnLog, Option<Tracer>), Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let mut tracer = epoch.map(|e| Tracer::new(e, "served"));
                    drive(
                        client,
                        inputs,
                        conn,
                        (launch, start, slice_ns),
                        lockstep,
                        tracer.as_mut(),
                    )
                    .map(|log| (log, tracer))
                })
            })
            .collect();
        for i in 0..=SLICES as u32 {
            let boundary = start + slice * i;
            let now = Instant::now();
            if boundary > now {
                std::thread::sleep(boundary - now);
            }
            cpu_marks.push(crate::host::cpu_ms());
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = launch.elapsed().as_secs_f64();
    let mut logs = Vec::new();
    let mut merged: Option<Tracer> = None;
    for result in results {
        let (log, tracer) = result?;
        logs.push(log);
        if let Some(t) = tracer {
            match &mut merged {
                Some(m) => m.absorb(t),
                None => merged = Some(t),
            }
        }
    }
    Ok(Window {
        logs,
        wall_s,
        slice_ns,
        cpu_marks,
        tracer: merged,
    })
}

impl Window {
    /// Rounds acked in every slice, over all connections.
    pub fn slice_rounds(&self) -> Vec<u64> {
        (0..SLICES)
            .map(|i| self.logs.iter().map(|l| l.slices[i].rounds).sum())
            .collect()
    }

    /// The median over every connection's slices of `pick`, skipping
    /// slices without samples.
    pub fn median_over_slices(&self, pick: fn(&SliceStats) -> (usize, f64)) -> f64 {
        let values: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.slices.iter().map(pick))
            .filter(|&(n, _)| n > 0)
            .map(|(_, v)| v)
            .collect();
        quantile(&values, 0.5)
    }

    /// Samples behind `pick` over the whole window.
    pub fn samples(&self, pick: fn(&SliceStats) -> (usize, f64)) -> usize {
        self.logs
            .iter()
            .flat_map(|l| l.slices.iter().map(move |s| pick(s).0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::Lockstep;

    #[test]
    fn last_party_decides_for_every_party() {
        let lockstep = Lockstep::new(2);
        std::thread::scope(|scope| {
            let other = scope.spawn(|| lockstep.wait(|stop| *stop = true));
            let mine = lockstep.wait(|stop| *stop = true).expect("not abandoned");
            let theirs = other.join().expect("party thread").expect("not abandoned");
            assert!(!mine && !theirs);
        });
    }

    #[test]
    fn abandoning_releases_a_waiting_party() {
        let lockstep = Lockstep::new(2);
        std::thread::scope(|scope| {
            // Whether the waiter arrives before or after the abandon, it
            // must come back with an error rather than block.
            let waiter = scope.spawn(|| lockstep.wait(|_| {}));
            lockstep.abandon();
            assert!(waiter.join().expect("party thread").is_err());
        });
    }
}
