//! The versioned session checkpoint format.
//!
//! A checkpoint is everything a [`Session`](crate::Session) needs to
//! resume bit-identically: the tracker snapshot (samples, weights,
//! heading histories, configuration, model), the session RNG's stream
//! position, the user lifecycle states, and the ingest counter. Derived
//! caches (the sniffer-set objective template) are deliberately excluded
//! — they rebuild on the first round after restore with no effect on
//! outputs.
//!
//! There is one serialized form, [`CompactCheckpoint`]: samples packed
//! into pooled, base64-encoded raw `f64` bits (see
//! [`CompactTrackerState`]). Session JSON, grid snapshots, the grid's
//! hibernarium and fluxd's wire checkpoints all carry it, and
//! [`DeltaCheckpoint`] chains diff it.
//!
//! The RNG state is four 64-bit words encoded as fixed-width hex strings
//! rather than JSON numbers: the workspace's serde stand-in routes
//! integers above `i64::MAX` through `f64`, which would silently corrupt
//! high-entropy RNG words. Hex strings round-trip exactly everywhere.

use serde::{Deserialize, Serialize};

use fluxprint_fluxmodel::FluxModel;
use fluxprint_smc::{CompactTrackerState, CompactUserTrackState, SmcConfig};

use crate::{EngineError, UserState, WarmState};

/// The checkpoint format version this build reads and writes. Restore
/// accepts exactly this version and refuses any other with
/// [`EngineError::UnsupportedVersion`]: version 4 made the compact form
/// the only encoding, so the full-JSON session shape of versions 1–3
/// is no longer read.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The history cap that loses nothing: the live tracker itself never
/// keeps more than two heading-history entries.
pub(crate) const LOSSLESS_HISTORY_CAP: u32 = 2;

/// A complete serializable session snapshot: pooled, base64-packed
/// sample blobs (see [`CompactTrackerState`]) plus the session's RNG
/// position, lifecycle states and warm-start state.
///
/// Produced by [`Session::checkpoint`](crate::Session::checkpoint),
/// revived by [`Engine::restore_compact`](crate::Engine::restore_compact).
/// Every KPI-bearing float survives bit-for-bit. A `history_cap` below
/// 2 drops heading-history entries, which is semantics-preserving only
/// when the configuration's `heading_bias` is zero (the history's only
/// consumer); restore enforces exactly that rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The tracker configuration (kept out of [`CompactTrackerState`]
    /// so fleet stores can share it; carried here so a single compact
    /// checkpoint is still self-contained).
    pub config: SmcConfig,
    /// The flux model the tracker fits against.
    pub model: FluxModel,
    /// The compact tracker snapshot.
    pub tracker: CompactTrackerState,
    /// Session RNG stream position: four 64-bit words as 16-digit hex.
    pub rng: Vec<String>,
    /// Lifecycle state per user, parallel to `tracker.users`.
    pub users: Vec<UserState>,
    /// Observation rounds ingested so far.
    pub rounds_ingested: u64,
    /// Warm-start state — `Some` iff the session runs warm.
    pub warm: Option<WarmState>,
}

impl CompactCheckpoint {
    /// Checks the checkpoint's invariants: the supported version, a
    /// well-formed RNG encoding, lifecycle and warm states parallel to
    /// the tracker's users, and decodable sample blobs (see
    /// [`CompactTrackerState::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedVersion`],
    /// [`EngineError::BadCheckpoint`], or a tracker validation error.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.validate_fields()?;
        self.tracker.validate().map_err(EngineError::Smc)
    }

    /// The engine-level half of [`validate`](Self::validate), leaving
    /// the sample blobs to whoever decodes them next.
    pub(crate) fn validate_fields(&self) -> Result<[u64; 4], EngineError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: self.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let rng = decode_rng_words(&self.rng)?;
        if self.users.len() != self.tracker.users.len() {
            return Err(EngineError::BadCheckpoint { field: "users" });
        }
        if let Some(warm) = &self.warm {
            if warm.hot.len() != self.users.len() {
                return Err(EngineError::BadCheckpoint { field: "warm" });
            }
        }
        Ok(rng)
    }

    /// The checkpoint as JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub(crate) fn to_json(&self) -> Result<String, EngineError> {
        serde_json::to_string(self).map_err(|e| EngineError::CheckpointCodec(e.to_string()))
    }

    /// The checkpoint's snapshot id: a 16-hex-digit FNV-1a 64 hash of
    /// its JSON. Delta chains name their base and predecessor states by
    /// this id.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when encoding fails.
    pub fn snapshot_id(&self) -> Result<String, EngineError> {
        Ok(format!("{:016x}", fnv1a64(self.to_json()?.as_bytes())))
    }

    /// The value's in-memory footprint in bytes, computed without
    /// serializing it: the inline size of the checkpoint and of each
    /// per-user track, plus the bytes its base64 pool strings and sample
    /// blobs, heading histories, RNG words, lifecycle states and warm
    /// flags own. Lengths, not allocator capacities, are counted. This
    /// is what the grid's hibernarium reports per cold session.
    pub(crate) fn footprint(&self) -> usize {
        let users: usize = self
            .tracker
            .users
            .iter()
            .map(|u| {
                std::mem::size_of_val(u)
                    + u.pos_pool.len()
                    + u.w_pool.len()
                    + u.samples.len()
                    + std::mem::size_of_val(u.history.as_slice())
            })
            .sum();
        let rng: usize = self
            .rng
            .iter()
            .map(|w| std::mem::size_of_val(w) + w.len())
            .sum();
        std::mem::size_of_val(self)
            + users
            + rng
            + std::mem::size_of_val(self.users.as_slice())
            + self.warm.as_ref().map_or(0, |w| w.hot.len())
    }
}

/// Parses checkpoint JSON (a session or grid checkpoint). Text that does
/// not parse as the current shape but names a foreign `version` — a
/// checkpoint written before the compact form became the only one — is
/// refused as [`EngineError::UnsupportedVersion`], not as a codec error.
///
/// # Errors
///
/// [`EngineError::UnsupportedVersion`] or [`EngineError::CheckpointCodec`].
pub(crate) fn from_json<T: Deserialize>(json: &str) -> Result<T, EngineError> {
    #[derive(Deserialize)]
    struct VersionProbe {
        version: u32,
    }
    serde_json::from_str(json).map_err(|e| match serde_json::from_str::<VersionProbe>(json) {
        Ok(probe) if probe.version != CHECKPOINT_VERSION => EngineError::UnsupportedVersion {
            found: probe.version,
            supported: CHECKPOINT_VERSION,
        },
        _ => EngineError::CheckpointCodec(e.to_string()),
    })
}

/// One changed user inside a [`DeltaCheckpoint`]: the user's complete
/// new compact track. `index == users.len()` of the predecessor state
/// appends (a [`join`](crate::Session::join)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaUser {
    /// The user's index.
    pub index: u32,
    /// The user's full new track state.
    pub state: CompactUserTrackState,
}

/// A diff between two consecutive session snapshots in a chain rooted
/// at a named base [`CompactCheckpoint`].
///
/// Mostly-idle sessions change little between rounds — a frozen user's
/// samples, `Δt` origin, and history are untouched — so a per-round
/// delta stream is far smaller than per-round full checkpoints. The
/// chain is self-validating: every delta names the chain origin
/// (`base`), its position (`seq`, 1-based and contiguous), and the
/// snapshot id of the exact state it applies to (`prev`), so
/// [`materialize`] rejects missing bases, reordered deltas, and deltas
/// applied to the wrong state with distinct errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Snapshot id of the chain's base checkpoint.
    pub base: String,
    /// Position in the chain, 1-based and contiguous.
    pub seq: u64,
    /// Snapshot id of the predecessor state this delta applies to (the
    /// base itself for `seq == 1`).
    pub prev: String,
    /// Users whose track state changed, sparse and index-ordered.
    pub changed: Vec<DeltaUser>,
    /// Lifecycle states — `Some` iff any changed since the predecessor
    /// (always present when `changed` grew the population).
    pub users: Option<Vec<UserState>>,
    /// Warm-start state — `Some` iff it changed since the predecessor.
    /// A session's warm state never transitions between `Some` and
    /// `None` after open, so "changed" always means a new
    /// [`WarmState`] value.
    pub warm: Option<WarmState>,
    /// Session RNG stream position after this delta — `Some` iff it
    /// moved since the predecessor. The stream only advances on
    /// ingested rounds, so an idle round's delta omits it entirely
    /// (idle deltas are what make the stream cheap).
    pub rng: Option<Vec<String>>,
    /// Observation rounds ingested as of this delta.
    pub rounds_ingested: u64,
    /// Tracker step clock as of this delta.
    pub last_step_time: f64,
}

/// Writer-side state for producing a [`DeltaCheckpoint`] chain: the
/// base snapshot id, the chain position, and content hashes of the
/// predecessor state — bounded memory regardless of session size.
///
/// Created over the chain's base checkpoint and advanced by every
/// [`Session::delta_checkpoint`](crate::Session::delta_checkpoint).
#[derive(Debug, Clone)]
pub struct DeltaBasis {
    pub(crate) base: String,
    pub(crate) seq: u64,
    pub(crate) prev: String,
    pub(crate) history_cap: u32,
    pub(crate) user_hashes: Vec<u64>,
    pub(crate) lifecycle: Vec<UserState>,
    pub(crate) warm: Option<WarmState>,
    pub(crate) rng: Vec<String>,
}

impl DeltaBasis {
    /// Starts a delta chain at `base` (typically the checkpoint just
    /// written to durable storage). Deltas pack users at the base's
    /// history cap.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CheckpointCodec`] when hashing fails.
    pub fn new(base: &CompactCheckpoint) -> Result<Self, EngineError> {
        let id = base.snapshot_id()?;
        Ok(DeltaBasis {
            base: id.clone(),
            seq: 0,
            prev: id,
            history_cap: base.tracker.history_cap,
            user_hashes: base
                .tracker
                .users
                .iter()
                .map(user_hash)
                .collect::<Result<_, _>>()?,
            lifecycle: base.users.clone(),
            warm: base.warm.clone(),
            rng: base.rng.clone(),
        })
    }

    /// Snapshot id of the chain's base checkpoint.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Sequence number of the most recently produced delta (0 before
    /// the first).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Replays a delta chain onto its base snapshot, validating the chain
/// at every link, and returns the materialized checkpoint.
///
/// # Errors
///
/// - [`EngineError::DeltaBaseMissing`] when `base` is `None`.
/// - [`EngineError::DeltaBaseMismatch`] when a delta names a different
///   chain origin than `base`, or its `prev` id disagrees with the
///   state materialized so far (a delta applied to the wrong state).
/// - [`EngineError::DeltaChainBroken`] for a gap or reordering in the
///   sequence numbers.
/// - [`EngineError::BadCheckpoint`] for a structurally invalid delta
///   and the usual validation errors for a bad base.
pub fn materialize(
    base: Option<&CompactCheckpoint>,
    deltas: &[DeltaCheckpoint],
) -> Result<CompactCheckpoint, EngineError> {
    let Some(base) = base else {
        return Err(EngineError::DeltaBaseMissing {
            base: deltas.first().map(|d| d.base.clone()).unwrap_or_default(),
        });
    };
    base.validate()?;
    let origin = base.snapshot_id()?;
    let mut current = base.clone();
    let mut current_id = origin.clone();
    for (i, delta) in deltas.iter().enumerate() {
        if delta.version != CHECKPOINT_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: delta.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        if delta.base != origin {
            return Err(EngineError::DeltaBaseMismatch {
                expected: origin.clone(),
                found: delta.base.clone(),
            });
        }
        let expected_seq = i as u64 + 1;
        if delta.seq != expected_seq {
            return Err(EngineError::DeltaChainBroken {
                expected: expected_seq,
                found: delta.seq,
            });
        }
        if delta.prev != current_id {
            return Err(EngineError::DeltaBaseMismatch {
                expected: current_id.clone(),
                found: delta.prev.clone(),
            });
        }
        for du in &delta.changed {
            let idx = du.index as usize;
            match idx.cmp(&current.tracker.users.len()) {
                std::cmp::Ordering::Less => current.tracker.users[idx] = du.state.clone(),
                std::cmp::Ordering::Equal => current.tracker.users.push(du.state.clone()),
                std::cmp::Ordering::Greater => {
                    return Err(EngineError::BadCheckpoint {
                        field: "delta.changed",
                    })
                }
            }
        }
        if let Some(users) = &delta.users {
            current.users = users.clone();
        }
        if current.users.len() != current.tracker.users.len() {
            // A delta that grew the tracker population must carry the
            // grown lifecycle vector too.
            return Err(EngineError::BadCheckpoint {
                field: "delta.users",
            });
        }
        if let Some(warm) = &delta.warm {
            current.warm = Some(warm.clone());
        }
        if let Some(rng) = &delta.rng {
            current.rng = rng.clone();
        }
        current.rounds_ingested = delta.rounds_ingested;
        current.tracker.last_step_time = delta.last_step_time;
        current.validate()?;
        current_id = current.snapshot_id()?;
    }
    Ok(current)
}

/// Encodes an RNG stream position as fixed-width hex words.
pub(crate) fn encode_rng_words(words: [u64; 4]) -> Vec<String> {
    words.iter().map(|w| format!("{w:016x}")).collect()
}

/// Decodes a hex-encoded RNG stream position.
pub(crate) fn decode_rng_words(rng: &[String]) -> Result<[u64; 4], EngineError> {
    if rng.len() != 4 {
        return Err(EngineError::BadCheckpoint { field: "rng" });
    }
    let mut words = [0u64; 4];
    for (w, s) in words.iter_mut().zip(rng) {
        *w = u64::from_str_radix(s, 16).map_err(|_| EngineError::BadCheckpoint { field: "rng" })?;
    }
    Ok(words)
}

/// Content hash of one user's compact track JSON — what [`DeltaBasis`]
/// keeps instead of the state itself.
pub(crate) fn user_hash(user: &CompactUserTrackState) -> Result<u64, EngineError> {
    let json =
        serde_json::to_string(user).map_err(|e| EngineError::CheckpointCodec(e.to_string()))?;
    Ok(fnv1a64(json.as_bytes()))
}

/// FNV-1a 64 — the same tiny stable hash the experiment registry uses
/// for plan identity; here it names snapshots in delta chains.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxprint_geometry::Point2;
    use fluxprint_smc::{TrackerState, UserTrackState, WeightedSample};

    fn checkpoint() -> CompactCheckpoint {
        let tracker = TrackerState {
            config: SmcConfig::default(),
            model: FluxModel::default(),
            users: vec![UserTrackState {
                samples: vec![WeightedSample {
                    position: Point2::new(1.0, 2.0),
                    weight: 1.0,
                }],
                t_last: 0.0,
                initialized: false,
                history: Vec::new(),
            }],
            last_step_time: 0.0,
        };
        CompactCheckpoint {
            version: CHECKPOINT_VERSION,
            config: tracker.config,
            model: tracker.model,
            tracker: tracker.compact(LOSSLESS_HISTORY_CAP),
            rng: encode_rng_words([1, u64::MAX, 0x0123_4567_89ab_cdef, 42]),
            users: vec![UserState::Active],
            rounds_ingested: 3,
            warm: None,
        }
    }

    #[test]
    fn rng_hex_round_trips_extreme_words() {
        let words = [u64::MAX, 0, 1, 0x8000_0000_0000_0001];
        assert_eq!(decode_rng_words(&encode_rng_words(words)).unwrap(), words);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        checkpoint().validate().unwrap();

        // Any version but the current one is refused: older builds wrote
        // the full-JSON shape this build no longer reads.
        for version in [0, CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1] {
            let mut cp = checkpoint();
            cp.version = version;
            assert!(matches!(
                cp.validate(),
                Err(EngineError::UnsupportedVersion {
                    found,
                    supported: CHECKPOINT_VERSION
                }) if found == version
            ));
        }

        let mut cp = checkpoint();
        cp.warm = Some(WarmState {
            rounds_since_escape: 1,
            hot: vec![true, false],
        });
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "warm" })
        ));

        let mut cp = checkpoint();
        cp.rng.pop();
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "rng" })
        ));

        let mut cp = checkpoint();
        cp.rng[0] = "not hex".into();
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "rng" })
        ));

        let mut cp = checkpoint();
        cp.users.push(UserState::Suspended);
        assert!(matches!(
            cp.validate(),
            Err(EngineError::BadCheckpoint { field: "users" })
        ));

        let mut cp = checkpoint();
        cp.tracker.users[0].n += 1;
        assert!(matches!(
            cp.validate(),
            Err(EngineError::Smc(fluxprint_smc::SmcError::BadConfig {
                field: "compact.samples"
            }))
        ));
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = checkpoint();
        let back: CompactCheckpoint = from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(
            decode_rng_words(&back.rng).unwrap(),
            [1, u64::MAX, 0x0123_4567_89ab_cdef, 42]
        );
    }

    fn delta(seq: u64, base: &str, prev: &str, cp: &CompactCheckpoint) -> DeltaCheckpoint {
        DeltaCheckpoint {
            version: CHECKPOINT_VERSION,
            base: base.into(),
            seq,
            prev: prev.into(),
            changed: Vec::new(),
            users: None,
            warm: None,
            rng: Some(cp.rng.clone()),
            rounds_ingested: cp.rounds_ingested,
            last_step_time: cp.tracker.last_step_time,
        }
    }

    #[test]
    fn materialize_replays_a_chain_and_rejects_abuse() {
        let base = checkpoint();
        let origin = base.snapshot_id().unwrap();

        // An empty chain materializes the base itself.
        assert_eq!(materialize(Some(&base), &[]).unwrap(), base);

        // A two-link chain: first link bumps the round counter, second
        // rewrites a user's track.
        let mut step1 = base.clone();
        step1.rounds_ingested += 1;
        let mut d1 = delta(1, &origin, &origin, &step1);
        let id1 = step1.snapshot_id().unwrap();

        let mut step2 = step1.clone();
        step2.tracker.users[0].t_last = 5.0;
        step2.rounds_ingested += 1;
        let mut d2 = delta(2, &origin, &id1, &step2);
        d2.changed.push(DeltaUser {
            index: 0,
            state: step2.tracker.users[0].clone(),
        });

        let out = materialize(Some(&base), &[d1.clone(), d2.clone()]).unwrap();
        assert_eq!(out, step2);

        // Missing base.
        assert!(matches!(
            materialize(None, &[d1.clone()]),
            Err(EngineError::DeltaBaseMissing { base }) if base == origin
        ));

        // Out-of-order / gapped chain.
        assert!(matches!(
            materialize(Some(&base), &[d2.clone(), d1.clone()]),
            Err(EngineError::DeltaChainBroken {
                expected: 1,
                found: 2
            })
        ));
        assert!(matches!(
            materialize(Some(&base), &[d2.clone()]),
            Err(EngineError::DeltaChainBroken {
                expected: 1,
                found: 2
            })
        ));

        // Wrong chain origin.
        let mut foreign = d1.clone();
        foreign.base = "deadbeefdeadbeef".into();
        assert!(matches!(
            materialize(Some(&base), &[foreign]),
            Err(EngineError::DeltaBaseMismatch { expected, found })
                if expected == origin && found == "deadbeefdeadbeef"
        ));

        // Right origin, wrong predecessor state (a delta applied to a
        // state other than the one it diffed against).
        d1.prev = "deadbeefdeadbeef".into();
        assert!(matches!(
            materialize(Some(&base), &[d1]),
            Err(EngineError::DeltaBaseMismatch { expected, found })
                if expected == origin && found == "deadbeefdeadbeef"
        ));

        // A structurally broken delta: changed index past the
        // population.
        d2.seq = 1;
        d2.prev = origin.clone();
        d2.changed[0].index = 7;
        assert!(matches!(
            materialize(Some(&base), &[d2]),
            Err(EngineError::BadCheckpoint {
                field: "delta.changed"
            })
        ));
    }
}
