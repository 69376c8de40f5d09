//! The in-process side: the same steps through a [`Grid`] in this
//! process, with no transport.
//!
//! It is the bit-identity reference for the served run, the anchor of
//! the serving overhead, and, with a tracer, the traced run that times
//! each call into the engine's public API.

use std::time::Instant;

use fluxprint_engine::{Engine, Grid, GridConfig, SessionId, Submit};
use fluxprint_fluxmodel::FluxModel;

use crate::check::{checkpoint_digest, combine, position_digest, step_digest};
use crate::spec::{Inputs, Step};
use crate::trace::{traced, Tracer};
use crate::Error;

/// Hibernation history cap, as the grid uses for its own evictions.
const COMPACT_HISTORY_CAP: u32 = 2;

/// Engine-layer probes taken at every checkpoint of a traced replay.
#[derive(Debug, Default)]
pub struct Probes {
    /// `Session::checkpoint_json` times, microseconds.
    pub json_us: Vec<f64>,
    /// Full checkpoint JSON sizes.
    pub json_bytes: Vec<f64>,
    /// Compact checkpoint build plus JSON encoding, microseconds.
    pub compact_us: Vec<f64>,
    /// Compact checkpoint JSON sizes.
    pub compact_bytes: Vec<f64>,
    /// `Engine::restore_compact_json` times, microseconds.
    pub restore_us: Vec<f64>,
}

/// What a replay did.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the replayed steps (probes excluded).
    pub wall_s: f64,
    /// Process CPU milliseconds over the same span.
    pub cpu_ms: f64,
    /// Rounds ingested.
    pub rounds: u64,
    /// One digest per operation per connection, as the clients log them.
    pub digests: Vec<Vec<u64>>,
    /// Most sessions hot after any drain once the first duty cycle has
    /// passed.
    pub hot_peak: usize,
    /// Serialized bytes per hibernated session at the end (0 when none).
    pub hibernated_bytes_per_session: f64,
    /// Engine-layer probes (traced replays only).
    pub probes: Probes,
}

/// Replays the first `steps[conn]` steps of every connection through an
/// in-process grid configured as `config`. Connections advance together
/// a step at a time, each step's rounds from every connection drained
/// by one barrier, as the daemon batches them. With a tracer, each call
/// into the grid and session API is wrapped in a span and the
/// checkpoint probes run.
///
/// # Errors
///
/// Propagates engine failures.
pub fn replay(
    inputs: &Inputs,
    config: &GridConfig,
    steps: &[usize],
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, Error> {
    let plan = &inputs.plan;
    let engine = Engine::for_network(&inputs.network, FluxModel::default())?;
    let mut grid = Grid::open(engine, config)?;
    let session_config = plan.session_config();
    for (s, &seed) in inputs.session_seeds.iter().enumerate() {
        let id = grid.open_session(&session_config, seed)?;
        if id.index() != s {
            return Err(format!("session {s} opened as grid id {}", id.index()).into());
        }
    }
    let conn_sessions: Vec<Vec<usize>> = (0..steps.len()).map(|c| plan.conn_sessions(c)).collect();
    let mut next_k = vec![0usize; plan.sessions];
    let mut out = Replay {
        digests: vec![Vec::new(); steps.len()],
        ..Replay::default()
    };
    let mut probe_s = 0.0;
    let cpu0 = crate::host::cpu_ms();
    let start = Instant::now();
    for j in 0..steps.iter().copied().max().unwrap_or(0) {
        let work: Vec<(usize, Step)> = (0..steps.len())
            .filter(|&c| j < steps[c])
            .map(|c| (c, inputs.step(&conn_sessions[c], j, &mut next_k)))
            .collect();
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("replay.step", j as u64);
        }
        for (c, step) in &work {
            let request = ((*c as u64) << 32) | j as u64;
            for &(s, k, count) in &step.submits {
                for i in k..k + count {
                    let round = inputs.round(s, i);
                    let queued = traced(&mut tracer, "grid.submit", request, || {
                        grid.submit(SessionId(s), round)
                    })?;
                    if let Submit::Backpressure(round) = queued {
                        traced(&mut tracer, "grid.drain", request, || grid.drain())?;
                        if let Submit::Backpressure(_) = grid.submit(SessionId(s), round)? {
                            return Err("grid refused a round after a drain".into());
                        }
                    }
                }
                out.rounds += count as u64;
            }
        }
        traced(&mut tracer, "grid.drain", j as u64, || grid.drain())?;
        // Steady state only: every session starts hot until its first
        // idle drains have passed.
        if j >= plan.duty_stride {
            out.hot_peak = out.hot_peak.max(grid.hot_sessions());
        }
        for (c, step) in &work {
            let request = ((*c as u64) << 32) | j as u64;
            for &(s, _, _) in &step.submits {
                let outcomes = traced(&mut tracer, "grid.take_outcomes", request, || {
                    grid.take_outcomes(SessionId(s))
                })?;
                out.digests[*c].push(combine(outcomes.iter().map(step_digest)));
            }
        }
        for (c, step) in &work {
            let request = ((*c as u64) << 32) | j as u64;
            let digests = &mut out.digests[*c];
            if let Some((s, user)) = step.query {
                let point = traced(&mut tracer, "session.estimate", request, || {
                    grid.session_mut(SessionId(s))?.estimate(user)
                })?;
                digests.push(position_digest(point.x, point.y));
            }
            if let Some(s) = step.checkpoint {
                let session = grid.session_mut(SessionId(s))?;
                let t0 = Instant::now();
                let json = traced(&mut tracer, "session.checkpoint_json", request, || {
                    session.checkpoint_json()
                })?;
                let json_us = t0.elapsed().as_secs_f64() * 1e6;
                digests.push(checkpoint_digest(&json));
                if tracer.is_some() {
                    let probe = Instant::now();
                    let compact =
                        serde_json::to_string(&session.checkpoint_compact(COMPACT_HISTORY_CAP))?;
                    let compact_us = probe.elapsed().as_secs_f64() * 1e6;
                    let t0 = Instant::now();
                    let restored = grid.engine().restore_compact_json(&compact)?;
                    let restore_us = t0.elapsed().as_secs_f64() * 1e6;
                    drop(restored);
                    let p = &mut out.probes;
                    p.json_us.push(json_us);
                    p.json_bytes.push(json.len() as f64);
                    p.compact_us.push(compact_us);
                    p.compact_bytes.push(compact.len() as f64);
                    p.restore_us.push(restore_us);
                    probe_s += probe.elapsed().as_secs_f64();
                }
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
    }
    out.wall_s = start.elapsed().as_secs_f64() - probe_s;
    out.cpu_ms = crate::host::cpu_ms() - cpu0;
    let hibernated = grid.hibernated_sessions();
    if hibernated > 0 {
        out.hibernated_bytes_per_session = grid.hibernated_bytes() as f64 / hibernated as f64;
    }
    Ok(out)
}

/// Counts operations whose served digest differs from the reference's;
/// each operation missing on either side counts too. With `passes`, the
/// reference covers one pass and every served pass is held against it.
pub fn mismatches(served: &[Vec<u64>], reference: &[Vec<u64>], passes: bool) -> u64 {
    let mut bad = served.len().abs_diff(reference.len()) as u64;
    for (s, r) in served.iter().zip(reference) {
        if passes && !r.is_empty() {
            bad += s
                .iter()
                .enumerate()
                .filter(|&(i, d)| *d != r[i % r.len()])
                .count() as u64;
        } else {
            bad += s.iter().zip(r).filter(|(a, b)| a != b).count() as u64;
            bad += s.len().abs_diff(r.len()) as u64;
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::mismatches;

    #[test]
    fn mismatches_count_each_differing_or_missing_op() {
        let reference = vec![vec![1, 2, 3]];
        assert_eq!(mismatches(&[vec![1, 2, 3]], &reference, false), 0);
        assert_eq!(mismatches(&[vec![1, 9, 3]], &reference, false), 1);
        assert_eq!(mismatches(&[vec![1, 2]], &reference, false), 1);
        assert_eq!(
            mismatches(&[vec![1, 2, 3, 1, 2, 3, 1]], &reference, true),
            0
        );
        assert_eq!(mismatches(&[vec![1, 2, 3, 1, 5, 3]], &reference, true), 1);
    }
}
