//! fluxgrid: the sharded multi-session scheduler.
//!
//! A [`Grid`] owns N shards, each holding a dedicated [`Pool`] slice
//! (see [`Pool::split`]), a reusable solver scratch, and the sessions
//! assigned to it. Rounds are [`submit`](Grid::submit)ted into bounded
//! per-session queues — a full queue hands the round straight back as
//! [`Submit::Backpressure`] instead of blocking — and a
//! [`drain`](Grid::drain) barrier spawns one scoped worker thread per
//! shard to ingest every queued round as a contiguous batch
//! ([`Session::ingest_batch_into`]).
//!
//! Shard workers are plain [`std::thread::scope`] threads, *not* pool
//! workers, so each can still dispatch on its own pool slice; with
//! one-thread slices (the default when `shards == threads`) every solver
//! dispatch takes the sequential fast path and the shard threads
//! themselves are the parallelism — no per-dispatch spawns at all.
//!
//! # Determinism
//!
//! Each session's rounds are processed in submission order by exactly
//! one shard, and every solver construct underneath is bit-identical at
//! any thread count, so grid results are **bit-identical to driving each
//! session alone** with [`Session::ingest`] — for any shard count, any
//! thread budget, and any interleaving of submissions across sessions.
//! The session→shard assignment is the fixed map `id % shards`; it
//! affects only scheduling, never results.
//!
//! # Checkpointing
//!
//! [`Grid::checkpoint`] snapshots every resident session *plus its
//! pending (queued, not yet ingested) rounds*; restoring and draining
//! yields the same outcomes as never having stopped. Every entry is a
//! [`CompactCheckpoint`], the one serialized session form.
//!
//! # Hibernation
//!
//! With [`GridConfig::hibernate_after`] set, a resident that sits
//! through that many consecutive drains without ingesting a round is
//! evicted to its checkpoint — the boxed [`CompactCheckpoint`] value
//! itself, never its JSON text, so eviction and revival never encode or
//! parse — in the shard's in-memory hibernarium; the live [`Session`] —
//! samples, template, scratch references — is dropped. The next
//! [`submit`](Grid::submit) (or a drain of restored pending rounds)
//! revives it transparently. Eviction and revival are bit-transparent:
//! the compact form expands exactly, so a fleet run with any eviction
//! threshold is bit-identical to the always-resident run. Reads never
//! revive: [`Grid::checkpoint`], [`Grid::session_checkpoint_json`] and
//! [`Grid::estimate`] answer from the stored value, so checkpointing a
//! 100k-session fleet touches only the hot few.

use serde::{Deserialize, Serialize};

use fluxprint_fluxpar::Pool;
use fluxprint_geometry::Point2;
use fluxprint_netsim::ObservationRound;
use fluxprint_smc::{weighted_mean, StepOutcome};
use fluxprint_solver::CacheScratch;
use fluxprint_telemetry::{self as telemetry, names};

use crate::checkpoint::from_json;
use crate::{CompactCheckpoint, Engine, EngineError, Session, SessionConfig, CHECKPOINT_VERSION};

/// Configuration for [`Grid::open`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Number of shards (parallel drain workers). Results never depend
    /// on this; only scheduling does.
    pub shards: usize,
    /// Bounded ingest-queue capacity per session; a submit beyond it
    /// reports [`Submit::Backpressure`].
    pub queue_capacity: usize,
    /// Worker-thread budget split across the shards ([`Pool::split`]);
    /// `0` means the process-wide pool's width.
    pub threads: usize,
    /// Hibernation threshold: a resident idle for this many consecutive
    /// drains (no rounds ingested) is evicted to its checkpoint; `0`
    /// (the default) keeps every session resident forever.
    /// Results never depend on this — eviction/revival is
    /// bit-transparent — only peak memory does.
    pub hibernate_after: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            shards: 4,
            queue_capacity: 64,
            threads: 0,
            hibernate_after: 0,
        }
    }
}

impl GridConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::BadConfig { field: "shards" });
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::BadConfig {
                field: "queue_capacity",
            });
        }
        Ok(())
    }
}

/// Identifies a session resident in a [`Grid`]. Ids are dense and
/// assigned in open/restore order, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub usize);

impl SessionId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Outcome of [`Grid::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Submit {
    /// The round was accepted into the session's ingest queue.
    Queued,
    /// The session's queue is full; the round is handed back untouched.
    /// [`drain`](Grid::drain) the grid, then resubmit.
    Backpressure(ObservationRound),
}

/// Where a resident's session state lives right now.
#[derive(Debug)]
enum Residency {
    /// A live session, ready to ingest.
    Hot(Box<Session>),
    /// Evicted to the hibernarium: the session's compact checkpoint is
    /// all that remains in memory.
    Cold(Box<CompactCheckpoint>),
}

/// One resident session: its state (hot or hibernated), its queue of
/// not-yet-ingested rounds, the outcome log its drains append to, and
/// the idle streak the hibernation policy watches.
#[derive(Debug)]
struct Resident {
    id: usize,
    residency: Residency,
    pending: Vec<ObservationRound>,
    outcomes: Vec<StepOutcome>,
    /// Consecutive drains in which this resident ingested nothing.
    /// Scheduling state, not session state: deliberately absent from
    /// checkpoints (a restored resident starts a fresh streak).
    rounds_idle: u64,
}

impl Resident {
    /// Ensures the resident is hot, reviving it from the hibernarium if
    /// needed.
    fn revive(&mut self, engine: &Engine) -> Result<(), EngineError> {
        if let Residency::Cold(compact) = &self.residency {
            let session = engine.restore_compact(compact)?;
            telemetry::counter(names::GRID_HIBERNATE_REVIVALS, 1);
            self.residency = Residency::Hot(Box::new(session));
        }
        Ok(())
    }

    /// Evicts a hot resident to its (lossless) checkpoint; a no-op on an
    /// already-cold one.
    fn hibernate(&mut self) {
        if let Residency::Hot(session) = &self.residency {
            let compact = session.checkpoint();
            telemetry::counter(names::GRID_HIBERNATE_EVICTIONS, 1);
            telemetry::counter(names::GRID_SESSIONS_HIBERNATED, 1);
            telemetry::record(names::HIST_GRID_HIBERNATE_BYTES, compact.footprint() as f64);
            self.residency = Residency::Cold(Box::new(compact));
        }
    }
}

/// One shard: a dedicated pool slice, a reusable solver scratch, and the
/// residents assigned to it (in session-id order).
#[derive(Debug)]
struct Shard {
    pool: Pool,
    scratch: CacheScratch,
    residents: Vec<Resident>,
}

/// The sharded multi-session scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct Grid {
    engine: Engine,
    shards: Vec<Shard>,
    queue_capacity: usize,
    hibernate_after: u64,
    /// `assignments[id] == (shard, slot)` for every resident session.
    assignments: Vec<(usize, usize)>,
    rounds_ingested: u64,
    /// Sum of every resident's `pending.len()`, kept in step by
    /// `submit`, `adopt` and `drain`.
    queued: usize,
}

/// The handle callers drive a grid through. There is no async runtime
/// and no background thread — worker threads exist only inside
/// [`drain`](Grid::drain) — so the handle *is* the scheduler.
pub type GridHandle = Grid;

impl Grid {
    /// Opens an empty grid over `engine`'s scenario knowledge: `shards`
    /// pool slices carved out of the configured thread budget, no
    /// resident sessions yet.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] for a zero shard count or
    /// queue capacity.
    pub fn open(engine: Engine, config: &GridConfig) -> Result<GridHandle, EngineError> {
        config.validate()?;
        let budget = if config.threads == 0 {
            fluxprint_fluxpar::pool().threads()
        } else {
            config.threads
        };
        let shards = Pool::with_threads(budget)
            .split(config.shards)
            .into_iter()
            .map(|pool| Shard {
                pool,
                scratch: CacheScratch::new(),
                residents: Vec::new(),
            })
            .collect();
        Ok(Grid {
            engine,
            shards,
            queue_capacity: config.queue_capacity,
            hibernate_after: config.hibernate_after,
            assignments: Vec::new(),
            rounds_ingested: 0,
            queued: 0,
        })
    }

    /// Opens a new session (see [`Engine::open_session`]) and assigns it
    /// to shard `id % shards`. Returns the session's dense id.
    ///
    /// # Errors
    ///
    /// As [`Engine::open_session`].
    pub fn open_session(
        &mut self,
        config: &SessionConfig,
        seed: u64,
    ) -> Result<SessionId, EngineError> {
        let session = self.engine.open_session(config, seed)?;
        Ok(self.adopt(Residency::Hot(Box::new(session)), Vec::new()))
    }

    /// Inserts a resident (with any pending rounds) under the next id.
    fn adopt(&mut self, residency: Residency, pending: Vec<ObservationRound>) -> SessionId {
        telemetry::counter(names::GRID_SESSIONS_RESIDENT, 1);
        if let Residency::Cold(compact) = &residency {
            telemetry::counter(names::GRID_SESSIONS_HIBERNATED, 1);
            telemetry::record(names::HIST_GRID_HIBERNATE_BYTES, compact.footprint() as f64);
        }
        self.queued += pending.len();
        let id = self.assignments.len();
        let shard = id % self.shards.len();
        let slot = self.shards[shard].residents.len();
        self.shards[shard].residents.push(Resident {
            id,
            residency,
            pending,
            outcomes: Vec::new(),
            rounds_idle: 0,
        });
        self.assignments.push((shard, slot));
        SessionId(id)
    }

    /// Queues one round for a session, reviving it from the hibernarium
    /// first if the idle policy evicted it. Never blocks: a full queue
    /// hands the round back as [`Submit::Backpressure`] (with a
    /// `grid.backpressure.events` count) and the caller decides whether
    /// to [`drain`](Grid::drain) and resubmit or shed load.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an id this grid never
    /// issued and propagates revival errors.
    pub fn submit(
        &mut self,
        id: SessionId,
        round: ObservationRound,
    ) -> Result<Submit, EngineError> {
        let (shard, slot) = self.locate(id)?;
        let engine = &self.engine;
        let resident = &mut self.shards[shard].residents[slot];
        if resident.pending.len() >= self.queue_capacity {
            telemetry::counter(names::GRID_BACKPRESSURE_EVENTS, 1);
            return Ok(Submit::Backpressure(round));
        }
        resident.revive(engine)?;
        resident.rounds_idle = 0;
        resident.pending.push(round);
        self.queued += 1;
        telemetry::counter(names::GRID_ROUNDS_QUEUED, 1);
        Ok(Submit::Queued)
    }

    /// The drain barrier: ingests every queued round, one scoped worker
    /// thread per shard, each session's queue as one contiguous batch
    /// over the shard's pool slice and reused scratch. Returns the number
    /// of rounds ingested by this call.
    ///
    /// On success all queues are empty. On error, the first failure in
    /// (shard, session) order is returned as
    /// [`EngineError::SessionFailed`]; the failing session keeps its
    /// un-attempted rounds queued (the failing round itself is consumed),
    /// other sessions' drains are unaffected, and every outcome produced
    /// anywhere is retained — so a caller that can make progress simply
    /// drains again.
    ///
    /// # Errors
    ///
    /// [`EngineError::SessionFailed`] wrapping the first session error.
    pub fn drain(&mut self) -> Result<u64, EngineError> {
        let _span = telemetry::span(names::SPAN_GRID_DRAIN);
        for shard in &self.shards {
            telemetry::record(names::HIST_GRID_QUEUE_DEPTH, shard_queued(shard) as f64);
        }
        let engine = &self.engine;
        let hibernate_after = self.hibernate_after;
        let results: Vec<(u64, Option<EngineError>)> = if self.shards.len() <= 1 {
            self.shards
                .iter_mut()
                .map(|shard| drain_shard(shard, engine, hibernate_after))
                .collect()
        } else {
            // fluxlint: allow(thread-confinement) — sanctioned drain fan-out
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| {
                        // fluxlint: allow(thread-confinement) — shard-ordered join
                        scope.spawn(move || {
                            let r = drain_shard(shard, engine, hibernate_after);
                            // Scope exit does not wait for TLS destructors;
                            // merge this worker's telemetry first, exactly
                            // as fluxpar workers do.
                            telemetry::flush();
                            r
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(v) => v,
                        // Re-raise a shard worker's panic with its
                        // original payload.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };
        let mut total = 0u64;
        let mut first_error = None;
        for (ingested, error) in results {
            total += ingested;
            if first_error.is_none() {
                first_error = error;
            }
        }
        self.rounds_ingested += total;
        // A clean drain empties every queue; a failing one requeued the
        // failed session's remainder and stopped its shard early.
        self.queued = match first_error {
            Some(_) => self.shards.iter().map(shard_queued).sum(),
            None => 0,
        };
        match first_error {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Drains until every queue is empty and returns the grid's lifetime
    /// ingested-round count — the "everything submitted so far is fully
    /// processed" barrier.
    ///
    /// # Errors
    ///
    /// As [`drain`](Grid::drain).
    pub fn join(&mut self) -> Result<u64, EngineError> {
        self.drain()?;
        Ok(self.rounds_ingested)
    }

    /// Number of resident sessions (hot and hibernated).
    pub fn sessions(&self) -> usize {
        self.assignments.len()
    }

    /// Number of sessions currently hot (live in memory).
    pub fn hot_sessions(&self) -> usize {
        self.sessions() - self.hibernated_sessions()
    }

    /// Number of sessions currently hibernated.
    pub fn hibernated_sessions(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| &s.residents)
            .filter(|r| matches!(r.residency, Residency::Cold(_)))
            .count()
    }

    /// Total bytes held by the hibernarium across all shards: the sum of
    /// every cold resident's compact-checkpoint footprint (its inline
    /// size plus the string, history and vector bytes it owns), computed
    /// without serializing — a memory estimate, not a JSON length.
    pub fn hibernated_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| &s.residents)
            .map(|r| match &r.residency {
                Residency::Cold(compact) => compact.footprint(),
                Residency::Hot(_) => 0,
            })
            .sum()
    }

    /// Whether a session is currently hibernated.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn is_hibernated(&self, id: SessionId) -> Result<bool, EngineError> {
        let (shard, slot) = self.locate(id)?;
        Ok(matches!(
            self.shards[shard].residents[slot].residency,
            Residency::Cold(_)
        ))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-session bounded ingest-queue capacity. A serving layer
    /// sizing per-connection credit windows against this bound can
    /// guarantee that protocol-compliant clients never trip
    /// [`Submit::Backpressure`].
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Total rounds currently queued (submitted, not yet drained) across
    /// every resident session — the backlog a [`drain`](Grid::drain)
    /// barrier would clear. Drain schedulers use this to amortize the
    /// barrier over many connections instead of paying it per submit.
    /// O(1): the grid keeps a running count.
    pub fn queued_total(&self) -> usize {
        self.queued
    }

    /// Rounds ingested over the grid's lifetime.
    pub fn rounds_ingested(&self) -> u64 {
        self.rounds_ingested
    }

    /// The engine whose scenario knowledge this grid serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Read access to a resident session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id and
    /// [`EngineError::SessionHibernated`] for a cold resident (a shared
    /// reference cannot revive; use [`estimate`](Grid::estimate) or
    /// [`session_checkpoint_json`](Grid::session_checkpoint_json), which
    /// read cold residents in place, or [`session_mut`](Grid::session_mut)).
    pub fn session(&self, id: SessionId) -> Result<&Session, EngineError> {
        let (shard, slot) = self.locate(id)?;
        match &self.shards[shard].residents[slot].residency {
            Residency::Hot(session) => Ok(session),
            Residency::Cold(_) => Err(EngineError::SessionHibernated { session: id.0 }),
        }
    }

    /// Mutable access to a resident session, reviving it from the
    /// hibernarium if needed — user lifecycle calls
    /// ([`join`](Session::join), [`suspend`](Session::suspend), …) apply
    /// immediately, so callers interleaving them with queued rounds
    /// should [`drain`](Grid::drain) first to fix the ordering.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id and
    /// propagates revival errors.
    pub fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, EngineError> {
        let (shard, slot) = self.locate(id)?;
        let engine = &self.engine;
        let resident = &mut self.shards[shard].residents[slot];
        resident.revive(engine)?;
        match &mut resident.residency {
            Residency::Hot(session) => Ok(session),
            Residency::Cold(_) => Err(EngineError::SessionHibernated { session: id.0 }),
        }
    }

    /// User `user`'s current point estimate in a session, hot or cold,
    /// without reviving it: a cold resident answers with
    /// [`weighted_mean`] over that user's decoded samples, which is
    /// bit-identical to [`Session::estimate`] on the revived session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id,
    /// [`EngineError::UserOutOfRange`] for a bad user index, and a
    /// decode error for a corrupt cold entry.
    pub fn estimate(&self, id: SessionId, user: usize) -> Result<Point2, EngineError> {
        let (shard, slot) = self.locate(id)?;
        match &self.shards[shard].residents[slot].residency {
            Residency::Hot(session) => session.estimate(user),
            Residency::Cold(compact) => {
                let users = compact.tracker.users.len();
                let track = compact
                    .tracker
                    .users
                    .get(user)
                    .ok_or(EngineError::UserOutOfRange { index: user, users })?;
                Ok(weighted_mean(&track.expand()?.samples))
            }
        }
    }

    /// A session's checkpoint JSON, hot or cold, without reviving it: a
    /// cold resident serializes its stored checkpoint, byte-identical to
    /// [`Session::checkpoint_json`] on the revived session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id and
    /// [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn session_checkpoint_json(&self, id: SessionId) -> Result<String, EngineError> {
        let (shard, slot) = self.locate(id)?;
        match &self.shards[shard].residents[slot].residency {
            Residency::Hot(session) => session.checkpoint_json(),
            Residency::Cold(compact) => compact.to_json(),
        }
    }

    /// Rounds currently queued (submitted, not yet drained) for a session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn queued(&self, id: SessionId) -> Result<usize, EngineError> {
        let (shard, slot) = self.locate(id)?;
        Ok(self.shards[shard].residents[slot].pending.len())
    }

    /// Takes (and clears) the session's accumulated drain outcomes, one
    /// per ingested round in ingestion order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSession`] for an unknown id.
    pub fn take_outcomes(&mut self, id: SessionId) -> Result<Vec<StepOutcome>, EngineError> {
        let (shard, slot) = self.locate(id)?;
        Ok(std::mem::take(
            &mut self.shards[shard].residents[slot].outcomes,
        ))
    }

    /// Snapshots every resident session — including rounds still queued —
    /// into one versioned checkpoint. Hot residents are checkpointed;
    /// hibernated residents contribute their stored checkpoint *without
    /// being revived* (the value is cloned, never expanded into a live
    /// session). Outcome logs are derived data and are not captured;
    /// take them first if you need them.
    ///
    /// # Errors
    ///
    /// None at present: cold entries are cloned, not decoded. The
    /// `Result` keeps the signature stable for callers.
    pub fn checkpoint(&self) -> Result<GridCheckpoint, EngineError> {
        let sessions = self
            .assignments
            .iter()
            .map(|&(shard, slot)| {
                let resident = &self.shards[shard].residents[slot];
                let (session, hibernated) = match &resident.residency {
                    Residency::Hot(session) => (session.checkpoint(), false),
                    Residency::Cold(compact) => (CompactCheckpoint::clone(compact), true),
                };
                GridSessionCheckpoint {
                    session,
                    hibernated,
                    pending: resident.pending.clone(),
                }
            })
            .collect();
        Ok(GridCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: self.shards.len(),
            queue_capacity: self.queue_capacity,
            sessions,
        })
    }

    /// [`checkpoint`](Grid::checkpoint) serialized to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn checkpoint_json(&self) -> Result<String, EngineError> {
        serde_json::to_string(&self.checkpoint()?)
            .map_err(|e| EngineError::CheckpointCodec(e.to_string()))
    }

    /// Revives a grid from a checkpoint: every session is restored under
    /// its original id with its pending rounds re-queued, so
    /// restore-then-drain is bit-identical to never having stopped.
    /// Entries that were hot are restored live (see
    /// [`Engine::restore_compact`]); hibernated entries are validated and
    /// adopted *cold* — straight back into the hibernarium without ever
    /// building a live session, so a restored fleet's memory stays
    /// bounded from the first instant. The config must keep the
    /// checkpoint's shard count (the session→shard map is `id % shards`);
    /// the thread budget, queue capacity, and hibernation threshold are
    /// free to change — none affects results.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] for any format version
    /// but [`CHECKPOINT_VERSION`], [`EngineError::BadCheckpoint`] when
    /// `config.shards` disagrees with the checkpoint, and propagates
    /// per-session restore and validation errors.
    pub fn restore(
        engine: Engine,
        config: &GridConfig,
        checkpoint: &GridCheckpoint,
    ) -> Result<GridHandle, EngineError> {
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: checkpoint.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        if config.shards != checkpoint.shards {
            return Err(EngineError::BadCheckpoint { field: "shards" });
        }
        let mut grid = Grid::open(engine, config)?;
        for entry in &checkpoint.sessions {
            let residency = if entry.hibernated {
                entry.session.validate()?;
                Residency::Cold(Box::new(entry.session.clone()))
            } else {
                Residency::Hot(Box::new(grid.engine.restore_compact(&entry.session)?))
            };
            grid.adopt(residency, entry.pending.clone());
        }
        Ok(grid)
    }

    /// [`restore`](Grid::restore) from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`] for a checkpoint
    /// written under another format version,
    /// [`EngineError::CheckpointCodec`] for other undecodable JSON, else
    /// as [`restore`](Grid::restore).
    pub fn restore_json(
        engine: Engine,
        config: &GridConfig,
        json: &str,
    ) -> Result<GridHandle, EngineError> {
        Grid::restore(engine, config, &from_json(json)?)
    }

    fn locate(&self, id: SessionId) -> Result<(usize, usize), EngineError> {
        self.assignments
            .get(id.0)
            .copied()
            .ok_or(EngineError::UnknownSession {
                index: id.0,
                sessions: self.assignments.len(),
            })
    }
}

/// Rounds queued across one shard's residents.
fn shard_queued(shard: &Shard) -> usize {
    shard.residents.iter().map(|r| r.pending.len()).sum()
}

/// Ingests one shard's queues in session-id order, then applies the
/// hibernation policy: residents that ingested nothing extend their idle
/// streak and are evicted once it reaches `hibernate_after` (0 = never).
/// Returns the rounds ingested and the first failure, if any. Runs on a
/// shard worker thread during parallel drains.
fn drain_shard(
    shard: &mut Shard,
    engine: &Engine,
    hibernate_after: u64,
) -> (u64, Option<EngineError>) {
    let Shard {
        pool,
        scratch,
        residents,
    } = shard;
    let mut ingested = 0u64;
    for resident in residents.iter_mut() {
        if resident.pending.is_empty() {
            // Idle this drain: extend the streak, evict at the
            // threshold. Eviction is bit-transparent, so doing it here
            // (in parallel, per shard) never affects results.
            resident.rounds_idle += 1;
            if hibernate_after > 0 && resident.rounds_idle >= hibernate_after {
                resident.hibernate();
            }
            continue;
        }
        // Pending rounds for a cold resident (a restored checkpoint of
        // a hibernated session with a queued backlog): revive first.
        if let Err(e) = resident.revive(engine) {
            return (ingested, Some(e));
        }
        resident.rounds_idle = 0;
        let Residency::Hot(session) = &mut resident.residency else {
            // revive() just guaranteed hotness.
            continue;
        };
        let batch = std::mem::take(&mut resident.pending);
        telemetry::counter(names::GRID_BATCHES, 1);
        let before = resident.outcomes.len();
        let result = session.ingest_batch_into(&batch, pool, scratch, &mut resident.outcomes);
        let done = resident.outcomes.len() - before;
        ingested += done as u64;
        telemetry::counter(names::GRID_ROUNDS_INGESTED, done as u64);
        if let Err(e) = result {
            // Round `done` failed and was consumed by the attempt (a
            // malformed round would otherwise wedge the queue forever);
            // the un-attempted remainder goes back in order.
            resident.pending = batch.into_iter().skip(done + 1).collect();
            return (
                ingested,
                Some(EngineError::SessionFailed {
                    session: resident.id,
                    round: done,
                    source: Box::new(e),
                }),
            );
        }
    }
    (ingested, None)
}

/// One session's slice of a [`GridCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSessionCheckpoint {
    /// The session's checkpoint.
    pub session: CompactCheckpoint,
    /// Whether the resident was hibernated at checkpoint time (its entry
    /// was captured without reviving it, and restore adopts it cold).
    pub hibernated: bool,
    /// Rounds that were queued but not yet ingested at checkpoint time.
    pub pending: Vec<ObservationRound>,
}

/// A complete serializable grid snapshot: every resident session (in id
/// order) with its pending rounds. Produced by [`Grid::checkpoint`],
/// revived by [`Grid::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Shard count at checkpoint time (restore must keep it: the
    /// session→shard map is `id % shards`).
    pub shards: usize,
    /// Queue capacity at checkpoint time (informational; restore may
    /// change it).
    pub queue_capacity: usize,
    /// Resident sessions in id order.
    pub sessions: Vec<GridSessionCheckpoint>,
}
