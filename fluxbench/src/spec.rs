//! Workload shapes and seeded input generation.
//!
//! Everything a run feeds the program is generated here from the
//! workload seed, before any clock starts: the network the sniffer
//! watches, the sniffed observation rounds of every user path, and the
//! tracker seed of every session. The program only ever receives the
//! generated rounds. [`Inputs::hash`] digests all of it so two runs can
//! be shown to have used the same inputs.
//!
//! A session's `k`-th round is its path's rounds walked back and forth
//! (a ping-pong over the base trace, so motion stays continuous) with
//! the observation time rewritten to keep times strictly increasing.
//! That lets a closed loop run for as long as the clock asks without
//! generating anything inside the timed window.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fluxprint_engine::{GridConfig, ObservationRound, SessionConfig};
use fluxprint_fluxd::SessionSpec;
use fluxprint_geometry::{Point2, Rect};
use fluxprint_mobility::RandomWaypoint;
use fluxprint_netsim::{Network, NetworkBuilder, NoiseModel, Sniffer};
use fluxprint_smc::SmcConfig;

use crate::Error;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale tracking of three crossing users, two sessions at once.
    TrackCrossing,
    /// Many cheap single-user sessions: the serving path dominates.
    ServeSmall,
    /// Thousands of mostly idle sessions under hibernation.
    FleetDuty,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TrackCrossing,
        Workload::ServeSmall,
        Workload::FleetDuty,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrackCrossing => "track-crossing",
            Workload::ServeSmall => "serve-small",
            Workload::FleetDuty => "fleet-duty",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed shape of a workload: everything except what the seed draws.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Nodes per side of the perturbed-grid deployment.
    pub grid_side: usize,
    /// Radio radius.
    pub radius: f64,
    /// Sniffed nodes.
    pub sniffers: usize,
    /// Sniffer measurement noise.
    pub noise: NoiseModel,
    /// Users per session (and per path).
    pub users: usize,
    /// `N`: predictions per user per round.
    pub n_predictions: usize,
    /// `M`: samples kept per user.
    pub keep_m: usize,
    /// Sessions, spread round-robin over the connections.
    pub sessions: usize,
    /// Client connections (one driving thread each).
    pub connections: usize,
    /// Distinct user paths; session `s` follows path `s % paths`.
    pub paths: usize,
    /// Rounds per base path.
    pub path_len: usize,
    /// Rounds per submit request.
    pub batch: usize,
    /// Sessions submitted to in one step (round-robin over the
    /// connection's sessions) when there is no duty cycle.
    pub sessions_per_step: usize,
    /// A session receives rounds on one step in `duty_stride` (fleet
    /// duty cycle); `1` means every step it is scheduled.
    pub duty_stride: usize,
    /// A `Query` after every `query_every`-th step.
    pub query_every: usize,
    /// A wire `Checkpoint` after every `checkpoint_every`-th step.
    pub checkpoint_every: usize,
    /// Steps every connection completes however short the clock; the
    /// quality metrics and the traced replays cover exactly these.
    pub min_steps: usize,
    /// Reopen the sessions every `min_steps` steps and repeat them, so
    /// the in-process reference needs to replay one pass only.
    pub passes: bool,
    /// The daemon's grid.
    pub grid: GridConfig,
    /// Per-connection credit window (`0` derives the queue capacity).
    pub credits: u32,
}

impl Plan {
    /// The shape of `workload`; `quick` shrinks it for tests.
    pub fn new(workload: Workload, quick: bool) -> Plan {
        let pick = |full: usize, small: usize| if quick { small } else { full };
        match workload {
            Workload::TrackCrossing => Plan {
                grid_side: 30,
                radius: 2.4,
                sniffers: 90,
                noise: NoiseModel::RelativeGaussian { sigma: 0.05 },
                users: 3,
                n_predictions: 64,
                keep_m: 4,
                sessions: 2,
                connections: 1,
                paths: 2,
                path_len: pick(300, 12),
                batch: 4,
                sessions_per_step: 2,
                duty_stride: 1,
                query_every: pick(8, 2),
                checkpoint_every: pick(32, 2),
                min_steps: pick(250, 4),
                passes: true,
                grid: GridConfig {
                    shards: 2,
                    queue_capacity: 64,
                    threads: 2,
                    hibernate_after: 0,
                },
                credits: 0,
            },
            Workload::ServeSmall => Plan {
                grid_side: 12,
                radius: 4.0,
                sniffers: 24,
                noise: NoiseModel::None,
                users: 1,
                n_predictions: 16,
                keep_m: 4,
                sessions: pick(16, 4),
                connections: 2,
                paths: pick(16, 4),
                path_len: pick(120, 8),
                batch: 1,
                sessions_per_step: 1,
                duty_stride: 1,
                query_every: 4,
                checkpoint_every: pick(64, 4),
                min_steps: pick(4000, 8),
                passes: false,
                grid: GridConfig {
                    shards: 2,
                    queue_capacity: 64,
                    threads: 2,
                    hibernate_after: 0,
                },
                credits: 0,
            },
            Workload::FleetDuty => Plan {
                grid_side: 12,
                radius: 4.0,
                sniffers: 24,
                noise: NoiseModel::None,
                users: 1,
                n_predictions: 16,
                keep_m: 4,
                sessions: pick(4096, 64),
                connections: 2,
                paths: pick(64, 4),
                path_len: pick(32, 8),
                batch: 1,
                sessions_per_step: 1,
                duty_stride: 20,
                query_every: 1,
                checkpoint_every: 1,
                min_steps: pick(100, 4),
                passes: false,
                grid: GridConfig {
                    shards: 2,
                    queue_capacity: 64,
                    threads: 2,
                    hibernate_after: 2,
                },
                credits: pick(4096, 64) as u32,
            },
        }
    }

    /// The wire spec of a session with tracker seed `seed`.
    pub fn session_spec(&self, seed: u64) -> SessionSpec {
        SessionSpec {
            seed,
            users: self.users as u32,
            n_predictions: self.n_predictions as u32,
            keep_m: self.keep_m as u32,
            warm: false,
            start_time: 0.0,
        }
    }

    /// The in-process equivalent of [`session_spec`](Plan::session_spec),
    /// built the way the daemon builds it.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            users: self.users,
            smc: SmcConfig {
                n_predictions: self.n_predictions,
                keep_m: self.keep_m,
                ..Default::default()
            },
            start_time: 0.0,
            warm: false,
        }
    }

    /// Sessions driven by connection `conn`, in session order.
    pub fn conn_sessions(&self, conn: usize) -> Vec<usize> {
        (conn..self.sessions).step_by(self.connections).collect()
    }
}

/// One base path: its rounds as the sniffer saw them and the true user
/// positions behind each round.
#[derive(Debug, Clone)]
pub struct Path {
    /// Sniffed rounds, one per time step.
    pub rounds: Vec<ObservationRound>,
    /// True positions of every user, parallel to `rounds`.
    pub truth: Vec<Vec<Point2>>,
}

/// The work one step of one connection asks for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// `(session, first round index, round count)` per submit request.
    pub submits: Vec<(usize, usize, usize)>,
    /// `(session, user)` to query after the acks.
    pub query: Option<(usize, usize)>,
    /// Session whose checkpoint to fetch after the acks.
    pub checkpoint: Option<usize>,
}

/// Generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload shape.
    pub plan: Plan,
    /// The workload seed everything below was drawn from.
    pub seed: u64,
    /// The sniffed network (its node map is the engine's).
    pub network: Network,
    /// Base user paths.
    pub paths: Vec<Path>,
    /// Tracker seed per session.
    pub session_seeds: Vec<u64>,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the inputs of `plan` from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates network, mobility and flux-simulation failures.
    pub fn generate(plan: Plan, seed: u64) -> Result<Inputs, Error> {
        let field = Rect::square(30.0)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
        let network = NetworkBuilder::new()
            .field(field)
            .perturbed_grid(plan.grid_side, plan.grid_side, 0.3)
            .radius(plan.radius)
            .build(&mut rng)?;
        let sniffer = Sniffer::random_count(&network, plan.sniffers, &mut rng)?;
        let walk = RandomWaypoint::new(1.5, 0.0)?;
        let mut paths = Vec::with_capacity(plan.paths);
        for p in 0..plan.paths {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 100 + p as u64));
            let trajectories = (0..plan.users)
                .map(|_| walk.generate(&field, 0.0, plan.path_len as f64, &mut rng))
                .collect::<Result<Vec<_>, _>>()?;
            let mut rounds = Vec::with_capacity(plan.path_len);
            let mut truth = Vec::with_capacity(plan.path_len);
            for i in 0..plan.path_len {
                let t = i as f64;
                let positions: Vec<Point2> =
                    trajectories.iter().map(|tr| tr.position_at(t)).collect();
                let users: Vec<(Point2, f64)> = positions.iter().map(|&p| (p, 2.0)).collect();
                let flux = network.simulate_flux(&users, &mut rng)?;
                rounds.push(sniffer.observe_round_smoothed(
                    t + 1.0,
                    &network,
                    &flux,
                    plan.noise,
                    &mut rng,
                ));
                truth.push(positions);
            }
            paths.push(Path { rounds, truth });
        }
        let session_seeds = (0..plan.sessions)
            .map(|s| derive_seed(seed, 1_000_000 + s as u64))
            .collect();
        Ok(Inputs {
            plan,
            seed,
            network,
            paths,
            session_seeds,
        })
    }

    /// Index into the base path of a session's `k`-th round.
    fn base_index(&self, k: usize) -> usize {
        let len = self.plan.path_len;
        if len < 2 {
            return 0;
        }
        let period = 2 * len - 2;
        let i = k % period;
        if i < len {
            i
        } else {
            period - i
        }
    }

    /// Session `s`'s `k`-th round, stamped with its schedule time.
    pub fn round(&self, s: usize, k: usize) -> ObservationRound {
        let path = &self.paths[s % self.plan.paths];
        let mut round = path.rounds[self.base_index(k)].clone();
        let stride = self.plan.duty_stride;
        let offset = (stride - s % stride) % stride;
        round.time = (k * stride + offset + 1) as f64;
        round
    }

    /// True positions behind session `s`'s `k`-th round.
    pub fn truth(&self, s: usize, k: usize) -> &[Point2] {
        &self.paths[s % self.plan.paths].truth[self.base_index(k)]
    }

    /// Step `j` of a connection driving `sessions`; `next_k` holds each
    /// session's next round index and is advanced past the submitted
    /// rounds. Served and replayed runs walk the same steps.
    pub fn step(&self, sessions: &[usize], j: usize, next_k: &mut [usize]) -> Step {
        let plan = &self.plan;
        let mut step = Step::default();
        let mut take = |s: usize, count: usize| {
            let k = next_k[s];
            next_k[s] += count;
            (s, k, count)
        };
        if plan.duty_stride > 1 {
            let stride = plan.duty_stride;
            let active: Vec<usize> = sessions
                .iter()
                .copied()
                .filter(|s| (s + j).is_multiple_of(stride))
                .collect();
            for &s in &active {
                step.submits.push(take(s, plan.batch));
            }
            let turn = j / stride;
            // Half a duty cycle away from its last round: hibernated.
            let cold: Vec<usize> = sessions
                .iter()
                .copied()
                .filter(|s| (s + j + stride / 2).is_multiple_of(stride))
                .collect();
            if !cold.is_empty() {
                step.query = Some((cold[turn % cold.len()], 0));
            }
            if !active.is_empty() {
                step.checkpoint = Some(active[turn % active.len()]);
            }
        } else {
            let per_step = plan.sessions_per_step;
            for i in 0..per_step {
                step.submits.push(take(
                    sessions[(j * per_step + i) % sessions.len()],
                    plan.batch,
                ));
            }
            let s = step.submits[0].0;
            if (j + 1).is_multiple_of(plan.query_every) {
                step.query = Some((s, (j / plan.query_every) % plan.users));
            }
            if (j + 1).is_multiple_of(plan.checkpoint_every) {
                step.checkpoint = Some(s);
            }
        }
        step
    }

    /// FNV-1a digest of every generated input: rounds, truth, seeds.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        for path in &self.paths {
            for (round, truth) in path.rounds.iter().zip(&path.truth) {
                h.f64(round.time);
                for id in &round.ids {
                    h.u64(id.index() as u64);
                }
                for &f in &round.fluxes {
                    h.f64(f);
                }
                for p in truth {
                    h.f64(p.x);
                    h.f64(p.y);
                }
            }
        }
        for &s in &self.session_seeds {
            h.u64(s);
        }
        h.finish()
    }
}

/// 64-bit FNV-1a over the little-endian bytes fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
