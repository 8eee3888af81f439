//! The three workloads: world construction (the set-up the `setup_s`
//! metric times) and the seeded, epoch-structured check-in stream.
//!
//! Every op of one *epoch* carries the same virtual timestamp and
//! touches a distinct user and a distinct venue, so the order in which
//! the frontend worker drains its shard queues inside an epoch cannot
//! change any decision. That is what makes the deterministic counts
//! repeat exactly for a seed even though the decisions are made on
//! another thread.

use std::sync::Arc;
use std::time::Instant;

use lbsn_defense::{RouterRegistry, VerifierStack, VerifierStage, WifiVerifier};
use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::Registry;
use lbsn_server::rewards::VenueLookup;
use lbsn_server::{
    CheckinOutcome, CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserId, UserSpec,
    VenueCategory, VenueId, VenueSpec,
};
use lbsn_sim::{RngStream, SimClock, Timestamp, DAY};
use lbsn_workload::{register_world_bulk, PopulationSpec};

/// Total entities of the paper's August-2010 world (1.89M users +
/// 5.6M venues); `PopulationSpec::at_scale` takes a fraction of it.
const FULL_ENTITIES: f64 = 7_490_000.0;

/// Which named workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Honest traffic on a cache-resident 10k-entity world.
    HotHonest,
    /// The same small world behind the Wi-Fi verifier stage, with 64
    /// heavy accounts holding ~1 600 in-window records each.
    DeepHistory,
    /// Honest traffic spread over a 1M-entity world.
    PaperMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotHonest,
        Workload::DeepHistory,
        Workload::PaperMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHonest => "hot_honest",
            Workload::DeepHistory => "deep_history",
            Workload::PaperMixed => "paper_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed parameters of this workload.
    pub fn params(self) -> Params {
        let small = Params {
            entities: 10_000,
            epoch_ops: 64,
            epoch_secs: 64 * 120,
            preload_days: 60,
            heavy_accounts: 0,
            cheater_slots: 0,
            verifier: false,
            honest_local: false,
            replay_ops: 20_000,
        };
        match self {
            Workload::HotHonest => small,
            Workload::DeepHistory => Params {
                // 32 heavy slots per epoch, each heavy account every
                // second epoch: 27 virtual minutes per epoch gives one
                // heavy check-in per 54 minutes, i.e. 1 600 records in
                // the 60-day mayorship window. 95 honest slots keep the
                // heavy share at a quarter, so the median check-in is an
                // honest one and the tail a heavy one.
                epoch_ops: 128,
                epoch_secs: 27 * 60,
                heavy_accounts: 64,
                cheater_slots: 1,
                verifier: true,
                honest_local: true,
                replay_ops: 4_000,
                ..small
            },
            Workload::PaperMixed => Params {
                entities: 1_000_000,
                preload_days: 0,
                ..small
            },
        }
    }
}

/// Size and traffic parameters of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// World size in entities (users + venues) at the paper's mix.
    pub entities: u64,
    /// Ops per epoch; all ops of an epoch share one virtual timestamp.
    pub epoch_ops: usize,
    /// Virtual seconds between consecutive epochs.
    pub epoch_secs: u64,
    /// Virtual days of the stream replayed into the world before the
    /// first timed request (0 = none).
    pub preload_days: u64,
    /// Heavy accounts (multiple of [`HEAVY_GROUP`]); they fill half of
    /// every epoch.
    pub heavy_accounts: usize,
    /// Detector-tripping cheater ops per epoch.
    pub cheater_slots: usize,
    /// Install the Wi-Fi verifier stage (the §5 defended deployment).
    pub verifier: bool,
    /// Honest users check in only at venues near their home, so they
    /// may revisit within the 24 h speed-rule horizon; otherwise any
    /// world venue (revisits are then more than 24 h apart).
    pub honest_local: bool,
    /// Ops of the traced run's direct replay.
    pub replay_ops: usize,
}

/// Heavy accounts per contested-venue group; each group shares as many
/// venues as it has members.
pub const HEAVY_GROUP: usize = 8;

/// Consecutive cheater-slot ops one cheater account receives before the
/// stream moves to the next account: more than the server's branding
/// threshold (10 flags), so each account walks rejection → branding →
/// branded rejection.
const OPS_PER_CHEATER: u64 = 12;

/// Registered cheater accounts (reused round-robin once all are used).
const CHEATER_POOL: usize = 4_096;

/// How far from the venue a cheater reports its fix: well outside the
/// 500 m GPS radius.
const CHEATER_OFFSET_M: f64 = 5_000.0;

/// Radius around a group centre inside which contested venues sit.
const CONTESTED_SPREAD_M: f64 = 1_500.0;

/// Radius and count of the venues an honest user with a local
/// neighbourhood visits.
const LOCAL_RADIUS_M: f64 = 50_000.0;
const LOCAL_VENUES: usize = 64;

/// What an op is expected to do; the output checks compare every
/// decision with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Honest check-in at the venue's own coordinates: must be rewarded.
    Honest,
    /// Heavy account at a contested venue, honest-looking: must be
    /// rewarded.
    Heavy,
    /// Reported fix far from the venue: must be flagged.
    Cheater,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Honest, Class::Heavy, Class::Cheater];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Honest => "honest",
            Class::Heavy => "heavy",
            Class::Cheater => "cheater",
        }
    }

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether `outcome` is the decision this class must get.
    pub fn accepts(self, outcome: &CheckinOutcome) -> bool {
        match self {
            Class::Honest | Class::Heavy => outcome.rewarded() && outcome.flags.is_empty(),
            Class::Cheater => !outcome.rewarded() && !outcome.flags.is_empty(),
        }
    }
}

/// One generated check-in and the decision it must get.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The request as submitted.
    pub req: CheckinRequest,
    /// Expected decision.
    pub class: Class,
}

/// Venue categories by venue id, for the shadow badge evaluation.
pub struct Categories(Vec<VenueCategory>);

impl VenueLookup for Categories {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.0.get(idx).copied()
    }
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Population spec, venue table and stream planning.
    pub plan_s: f64,
    /// `register_world_bulk` plus the extra registrations.
    pub bulk_load_s: f64,
    /// Replaying `preload_days` of the stream through `check_in_batch`.
    pub preload_s: f64,
    /// `compact_memory`.
    pub compact_s: f64,
    /// World build to first timed request.
    pub total_s: f64,
}

/// A loaded world, the stream positioned after its preload, and the
/// handles the traced run's shadow calls need.
pub struct World {
    /// Its parameters.
    pub params: Params,
    /// The service under test.
    pub server: Arc<LbsnServer>,
    /// The server's private registry (counters are read as counts).
    pub registry: Arc<Registry>,
    /// A second stage over the same router registry as the installed
    /// one, for timed shadow calls (deep_history only).
    pub shadow_verifier: Option<VerifierStage>,
    /// Venue categories by id.
    pub categories: Categories,
    /// The request stream.
    pub stream: Stream,
    /// Wrong decisions seen while preloading (must be 0).
    pub preload_wrong: u64,
    /// The current epoch's ops and the next one to hand out.
    epoch_ops: Vec<Op>,
    epoch_pos: usize,
}

impl World {
    /// The next op of the current epoch, `None` once it is exhausted.
    pub fn next_in_epoch(&mut self) -> Option<Op> {
        let op = self.epoch_ops.get(self.epoch_pos).copied()?;
        self.epoch_pos += 1;
        Some(op)
    }

    /// Starts the next epoch: moves the virtual clock to its timestamp.
    /// Callers that need exact decisions make sure no earlier op is
    /// still queued first.
    pub fn advance_epoch(&mut self) {
        let (at, ops) = self.stream.next_epoch();
        self.server.clock().advance_to(at);
        self.epoch_ops = ops;
        self.epoch_pos = 0;
    }

    /// The next op, starting a new epoch when the current one is
    /// exhausted; the flag says whether it did.
    pub fn next_op(&mut self) -> (Op, bool) {
        if let Some(op) = self.next_in_epoch() {
            return (op, false);
        }
        self.advance_epoch();
        let op = self.next_in_epoch().expect("epochs are never empty");
        (op, true)
    }
}

/// Builds a world with `params` and replays its preload. Times each
/// step; `total_s` is the `setup_s` sample.
pub fn build(params: Params, seed: u64) -> (World, SetupTimes) {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let root = RngStream::from_seed(seed);

    let t = Instant::now();
    let spec = PopulationSpec::at_scale(params.entities as f64 / FULL_ENTITIES, seed);
    times.plan_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let registry = Arc::new(Registry::new());
    let (server, shadow_verifier) = if params.verifier {
        let routers = Arc::new(RouterRegistry::new());
        let stage = |routers: &Arc<RouterRegistry>| {
            VerifierStage::new(
                VerifierStack::new().push(Box::new(WifiVerifier::narrowed(30.0))),
                Arc::clone(routers),
            )
        };
        let server = LbsnServer::with_pipeline(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
            vec![Box::new(stage(&routers))],
        );
        (server, Some(stage(&routers)))
    } else {
        let server = LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        );
        (server, None)
    };
    let server = Arc::new(server);
    let population = register_world_bulk(&server, &spec);
    times.bulk_load_s += t.elapsed().as_secs_f64();

    // Plan: the venue table the stream draws coordinates from, the
    // heavy accounts, the contested venue groups and the cheater pool.
    let t = Instant::now();
    let world_users = population.users.len() as u64;
    let world_venues = population.venue_count;
    let mut table = Vec::with_capacity(world_venues as usize);
    server.for_each_venue(|v| table.push((v.id, v.location, v.category)));
    // Visits are shard-major, not id order.
    table.sort_unstable_by_key(|(id, _, _)| id.value());
    let (mut venue_loc, mut venue_cat): (Vec<GeoPoint>, Vec<VenueCategory>) =
        table.into_iter().map(|(_, loc, cat)| (loc, cat)).unzip();
    let mut plan_rng = root.fork("perfbench.plan");
    let mut heavy: Vec<UserId> = Vec::with_capacity(params.heavy_accounts);
    while heavy.len() < params.heavy_accounts {
        let id = UserId(plan_rng.range_u64(1, world_users + 1));
        if !heavy.contains(&id) {
            heavy.push(id);
        }
    }
    let mut honest: Vec<UserId> = (1..=world_users)
        .map(UserId)
        .filter(|id| !heavy.contains(id))
        .collect();
    let local: Vec<Vec<VenueId>> = if params.honest_local {
        let near = |id: UserId| -> Vec<VenueId> {
            let home = server.user_profile(id).and_then(|p| p.home);
            home.map(|h| server.venues_near(h, LOCAL_RADIUS_M, LOCAL_VENUES))
                .unwrap_or_default()
                .into_iter()
                .map(|(v, _)| v)
                .collect()
        };
        // Users with too few venues nearby are left out of the pool.
        let (kept, lists): (Vec<UserId>, Vec<Vec<VenueId>>) = honest
            .iter()
            .map(|&id| (id, near(id)))
            .filter(|(_, list)| list.len() >= LOCAL_VENUES / 2)
            .unzip();
        honest = kept;
        lists
    } else {
        Vec::new()
    };
    let groups = params.heavy_accounts / HEAVY_GROUP;
    let contested_specs: Vec<VenueSpec> = (0..groups)
        .flat_map(|g| {
            let centre = venue_loc[plan_rng.range_u64(0, world_venues) as usize];
            (0..HEAVY_GROUP)
                .map(|i| {
                    let at = destination(
                        centre,
                        plan_rng.range_f64(0.0, 360.0),
                        plan_rng.range_f64(100.0, CONTESTED_SPREAD_M),
                    );
                    VenueSpec::new(format!("contested {g}.{i}"), at)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let cheater_count = if params.cheater_slots > 0 {
        CHEATER_POOL
    } else {
        0
    };
    times.plan_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut contested: Vec<VenueId> = Vec::with_capacity(contested_specs.len());
    for spec in contested_specs {
        venue_loc.push(spec.location);
        venue_cat.push(spec.category);
        contested.push(server.register_venue(spec));
    }
    let cheaters: Vec<UserId> = (0..cheater_count)
        .map(|_| server.register_user(UserSpec::anonymous()))
        .collect();
    if let Some(stage) = &shadow_verifier {
        // The defended venues are the contested ones: they carry a
        // registered verification router.
        for &v in &contested {
            stage.routers().register(v);
        }
    }
    times.bulk_load_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let stream = Stream::new(
        &root,
        params,
        StreamWorld {
            honest,
            local,
            heavy,
            contested,
            cheaters,
            world_venues,
            venue_loc,
        },
    );
    times.plan_s += t.elapsed().as_secs_f64();

    let mut world = World {
        params,
        server,
        registry,
        shadow_verifier,
        categories: Categories(venue_cat),
        stream,
        preload_wrong: 0,
        epoch_ops: Vec::new(),
        epoch_pos: 0,
    };

    let t = Instant::now();
    let preload_epochs = params.preload_days * DAY / params.epoch_secs;
    for _ in 0..preload_epochs {
        world.advance_epoch();
        world.epoch_pos = world.epoch_ops.len();
        let reqs: Vec<CheckinRequest> = world.epoch_ops.iter().map(|op| op.req).collect();
        let results = world.server.check_in_batch(&reqs);
        for (op, result) in world.epoch_ops.iter().zip(&results) {
            if !result.as_ref().is_ok_and(|o| op.class.accepts(o)) {
                world.preload_wrong += 1;
            }
        }
    }
    times.preload_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    world.server.compact_memory();
    times.compact_s = t.elapsed().as_secs_f64();
    times.total_s = started.elapsed().as_secs_f64();
    (world, times)
}

/// The entities the stream draws from.
struct StreamWorld {
    honest: Vec<UserId>,
    /// Per honest user (same index), the venues near home; empty when
    /// honest users roam the whole world.
    local: Vec<Vec<VenueId>>,
    heavy: Vec<UserId>,
    contested: Vec<VenueId>,
    cheaters: Vec<UserId>,
    world_venues: u64,
    /// Coordinates by venue id − 1, contested venues included.
    venue_loc: Vec<GeoPoint>,
}

/// The seeded check-in stream, one epoch at a time.
pub struct Stream {
    params: Params,
    world: StreamWorld,
    rng: RngStream,
    epoch: u64,
    /// Honest ops issued so far; honest users follow a fixed affine
    /// permutation of the pool, so a user's consecutive check-ins are
    /// exactly one pool length apart (more than the 24 h speed-rule
    /// horizon on every workload).
    honest_issued: u64,
    perm_mul: u64,
    perm_add: u64,
}

impl Stream {
    fn new(root: &RngStream, params: Params, world: StreamWorld) -> Self {
        let mut perm_rng = root.fork("perfbench.permutation");
        let n = world.honest.len() as u64;
        let mut perm_mul = perm_rng.range_u64(n / 3, 2 * n / 3).max(1);
        while gcd(perm_mul, n) != 1 {
            perm_mul += 1;
        }
        let perm_add = perm_rng.range_u64(0, n);
        Stream {
            params,
            world,
            rng: root.fork("perfbench.stream"),
            epoch: 0,
            honest_issued: 0,
            perm_mul,
            perm_add,
        }
    }

    /// The next epoch: its virtual timestamp and its ops (distinct
    /// users, distinct venues), in a seeded order.
    pub fn next_epoch(&mut self) -> (Timestamp, Vec<Op>) {
        let e = self.epoch;
        self.epoch += 1;
        let at = Timestamp(DAY + e * self.params.epoch_secs);
        let mut ops: Vec<Op> = Vec::with_capacity(self.params.epoch_ops);
        let mut used: Vec<VenueId> = Vec::with_capacity(self.params.epoch_ops);

        // Heavy accounts of this epoch's parity: member m of group g
        // visits the group's venue (m + k) mod 8 on its k-th visit, so
        // the members active together never share a venue.
        let visit = e / 2;
        for a in 0..self.world.heavy.len() {
            if a % 2 != (e % 2) as usize {
                continue;
            }
            let user = self.world.heavy[a];
            let (group, member) = (a / HEAVY_GROUP, a % HEAVY_GROUP);
            let slot = (member + visit as usize) % HEAVY_GROUP;
            let venue = self.world.contested[group * HEAVY_GROUP + slot];
            used.push(venue);
            ops.push(Op {
                req: self.request(user, venue, 0.0),
                class: Class::Heavy,
            });
        }
        for _ in 0..self.params.cheater_slots {
            let account = (e / OPS_PER_CHEATER) as usize % self.world.cheaters.len();
            let venue = self.fresh_venue(&mut used);
            let user = self.world.cheaters[account];
            ops.push(Op {
                req: self.request(user, venue, CHEATER_OFFSET_M),
                class: Class::Cheater,
            });
        }
        while ops.len() < self.params.epoch_ops {
            let n = self.world.honest.len() as u64;
            let k = self.honest_issued % n;
            self.honest_issued += 1;
            let idx = ((self.perm_mul.wrapping_mul(k) % n + self.perm_add) % n) as usize;
            let user = self.world.honest[idx];
            let venue = if self.world.local.is_empty() {
                self.fresh_venue(&mut used)
            } else {
                // A venue near home not yet used in this epoch; a user
                // whose whole neighbourhood is taken sits this one out.
                let list = &self.world.local[idx];
                let start = self.rng.range_u64(0, list.len() as u64) as usize;
                match (0..list.len())
                    .map(|i| list[(start + i) % list.len()])
                    .find(|v| !used.contains(v))
                {
                    Some(v) => {
                        used.push(v);
                        v
                    }
                    None => continue,
                }
            };
            ops.push(Op {
                req: self.request(user, venue, 0.0),
                class: Class::Honest,
            });
        }
        self.rng.shuffle(&mut ops);
        (at, ops)
    }

    /// A world venue not yet used in this epoch.
    fn fresh_venue(&mut self, used: &mut Vec<VenueId>) -> VenueId {
        loop {
            let v = VenueId(self.rng.range_u64(1, self.world.world_venues + 1));
            if !used.contains(&v) {
                used.push(v);
                return v;
            }
        }
    }

    /// A request at `venue`, reporting a fix `offset_m` away from it.
    fn request(&mut self, user: UserId, venue: VenueId, offset_m: f64) -> CheckinRequest {
        let at = self.world.venue_loc[(venue.value() - 1) as usize];
        let reported_location = if offset_m > 0.0 {
            destination(at, self.rng.range_f64(0.0, 360.0), offset_m)
        } else {
            at
        };
        CheckinRequest {
            user,
            venue,
            reported_location,
            source: CheckinSource::MobileApp,
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}
