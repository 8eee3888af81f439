//! The traced run's direct replay: the stream continues without the
//! frontend, one op at a time. Before each op the benchmark clones the
//! user, the venue and the incumbent mayor (outside every timed
//! region), times shadow calls to each layer's public functions on
//! those clones, then times the real `check_in_batch` of that one op.
//!
//! Shadow calls run on warm clones, so they measure compute cost, not
//! cache misses; on a world beyond cache the misses land in
//! `admission.residual_ns`.

use std::hint::black_box;
use std::time::Instant;

use lbsn_server::cheatercode::{
    FrequentCheckinRule, GpsProximityRule, RapidFireRule, SuperhumanSpeedRule,
};
use lbsn_server::rewards::{decide_mayor, evaluate_badges, MAYOR_WINDOW};
use lbsn_server::{
    BrandedAccountDetector, CheckinRecord, CheckinVerifier, Detector, PackedHistory, RuleContext,
    VerifierVerdict, VerifyContext,
};
use lbsn_sim::Timestamp;

use crate::loadgen::{Page, Pages, Tally};
use crate::stats::{mean, quantile};
use crate::trace::Tracer;
use crate::workload::World;

/// Detector layer names, in the server's evaluation order.
pub const DETECTORS: [&str; 5] = [
    "detect.branded_account",
    "detect.gps_proximity",
    "detect.frequent_checkins",
    "detect.superhuman_speed",
    "detect.rapid_fire",
];

/// Per-op samples and work counts of one direct replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Ops replayed.
    pub ops: u64,
    /// Outcome counts of the real admissions.
    pub tally: Tally,
    /// Real `check_in_batch` of one op, ns.
    pub admission_ns: Vec<u64>,
    /// Shadow `CheckinVerifier::verify`, ns (empty without a stage).
    pub verify_ns: Vec<u64>,
    /// Verifier abstentions.
    pub verify_abstain: u64,
    /// Shadow `Detector::check` per detector, ns.
    pub detect_ns: [Vec<u64>; 5],
    /// Σ of the detectors the server would actually run, per op, ns
    /// (the terminal branded-account detector stops the chain).
    pub detect_run_ns: Vec<u64>,
    /// Ops the shadow detectors flagged.
    pub flagged: u64,
    /// `PackedHistory::push` of the op's record, ns.
    pub append_ns: Vec<u64>,
    /// Shadow `rewards::decide_mayor` on rewarded ops, ns.
    pub decide_mayor_ns: Vec<u64>,
    /// Shadow `rewards::evaluate_badges` on rewarded ops, ns.
    pub badges_ns: Vec<u64>,
    /// Mayorship challenges (the venue had another mayor).
    pub challenges: u64,
    /// In-window valid records of challenger + incumbent that
    /// `decide_mayor` scans.
    pub window_records: u64,
    /// Records decoded by full history walks.
    pub walk_records: u64,
    /// Σ walk time, ns.
    pub walk_ns: u64,
    /// Σ encoded history bytes of the replayed users.
    pub history_bytes: u64,
    /// Σ records of the replayed users.
    pub history_records: u64,
    /// `WebFrontend::handle` for user pages, ns.
    pub user_page_ns: Vec<u64>,
    /// `WebFrontend::handle` for venue pages, ns.
    pub venue_page_ns: Vec<u64>,
    /// `scrape::parse_*`, ns.
    pub parse_ns: Vec<u64>,
    /// `CrawlDatabase::insert_*`, ns.
    pub insert_ns: Vec<u64>,
    /// Shadow predictions that disagreed with the real decision.
    pub shadow_mismatch: u64,
}

/// The per-op means the admission reconciliation adds up.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionParts {
    /// Mean real admission, ns.
    pub op_ns: f64,
    /// Mean shadow verify, ns.
    pub verify_ns: f64,
    /// Mean of the detectors the server runs, ns.
    pub detect_ns: f64,
    /// Mean history append, ns.
    pub append_ns: f64,
    /// Mean `decide_mayor` + `evaluate_badges` per op, ns.
    pub rewards_ns: f64,
}

impl AdmissionParts {
    /// What the shadow layers do not explain: locks, venue update,
    /// audit, telemetry (and cache misses the warm clones hide).
    pub fn residual_ns(&self) -> f64 {
        self.op_ns - self.verify_ns - self.detect_ns - self.append_ns - self.rewards_ns
    }
}

impl Replay {
    /// The reconciliation terms, averaged over every replayed op.
    pub fn parts(&self) -> AdmissionParts {
        let per_op = |v: &[u64]| v.iter().sum::<u64>() as f64 / self.ops.max(1) as f64;
        AdmissionParts {
            op_ns: mean(&self.admission_ns),
            verify_ns: per_op(&self.verify_ns),
            detect_ns: per_op(&self.detect_run_ns),
            append_ns: per_op(&self.append_ns),
            rewards_ns: per_op(&self.decide_mayor_ns) + per_op(&self.badges_ns),
        }
    }

    /// Median real admission, ns.
    pub fn admission_p50_ns(&self) -> u64 {
        quantile(&mut self.admission_ns.clone(), 0.5)
    }
}

/// Times `f`, recording it as a child span of `root` when tracing.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    req: u64,
    root: u64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let start = Instant::now();
    let out = black_box(f());
    let end = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        let (s, e) = (t.ns_of(start), t.ns_of(end));
        t.record(req, root, name, s, e);
    }
    (out, (end - start).as_nanos() as u64)
}

/// Replays `ops` ops of the stream directly, one admission per op.
pub fn replay(
    world: &mut World,
    pages: &Pages,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
) -> Replay {
    let policy = world.server.config().policy.detectors.clone();
    let detectors: [Box<dyn Detector>; 5] = [
        Box::new(BrandedAccountDetector),
        Box::new(GpsProximityRule {
            radius_m: policy.gps_radius_m,
        }),
        Box::new(FrequentCheckinRule {
            cooldown: policy.same_venue_cooldown,
        }),
        Box::new(SuperhumanSpeedRule {
            max_speed_mps: policy.max_speed_mps,
            max_gap: policy.speed_rule_max_gap,
        }),
        Box::new(RapidFireRule {
            count: policy.rapid_fire_count,
            square_m: policy.rapid_fire_square_m,
            max_interval: policy.rapid_fire_max_interval,
        }),
    ];
    let mut r = Replay::default();
    for _ in 0..ops {
        let (op, _) = world.next_op();
        let req = op.req;
        let now = world.server.clock().now();
        let (trace_req, root, op_start) = match tracer.as_deref_mut() {
            Some(t) => (t.request(), t.reserve(), t.now_ns()),
            None => (0, 0, 0),
        };

        // Clones, outside every timed region.
        let user = world
            .server
            .user(req.user)
            .expect("stream users are registered");
        let venue = world
            .server
            .venue(req.venue)
            .expect("stream venues are registered");
        let incumbent = venue
            .mayor
            .filter(|&m| m != req.user)
            .and_then(|m| world.server.user(m));
        let mut after = user.clone();

        if let Some(stage) = &world.shadow_verifier {
            let ctx = VerifyContext {
                request: &req,
                venue_location: venue.location,
                evidence: None,
                now,
            };
            let (verdict, ns) = timed(&mut tracer, trace_req, root, "verify", || {
                stage.verify(&ctx)
            });
            r.verify_ns.push(ns);
            if verdict == VerifierVerdict::Abstain {
                r.verify_abstain += 1;
            }
        }

        let ctx = RuleContext {
            user: &user,
            venue: &venue,
            request: &req,
            now,
        };
        let mut flagged = false;
        let mut run_ns = 0;
        let mut stopped = false;
        for (i, d) in detectors.iter().enumerate() {
            let (flag, ns) = timed(&mut tracer, trace_req, root, DETECTORS[i], || d.check(&ctx));
            r.detect_ns[i].push(ns);
            if !stopped {
                run_ns += ns;
                flagged |= flag.is_some();
                stopped = flag.is_some() && d.is_terminal();
            }
        }
        r.detect_run_ns.push(run_ns);
        r.flagged += u64::from(flagged);

        let record = CheckinRecord {
            venue: req.venue,
            at: now,
            location: req.reported_location,
            source: req.source,
            rewarded: !flagged,
            flags: Vec::new(),
        };
        // A clone's buffer has no spare capacity, so the append is timed
        // on a history rebuilt record by record, whose buffer grew the
        // way the live one did.
        let mut grown = PackedHistory::new();
        for rec in user.history.iter() {
            grown.push(&rec.to_record());
        }
        let (_, ns) = timed(&mut tracer, trace_req, root, "history.append", || {
            grown.push(&record)
        });
        r.append_ns.push(ns);
        after.push_record(record);

        if !flagged {
            after.valid_checkins += 1;
            let window_start = Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()));
            if venue.mayor != Some(req.user) {
                r.window_records += after.valid_checkins_since(window_start).count() as u64;
                if let Some(inc) = &incumbent {
                    r.challenges += 1;
                    r.window_records += inc.valid_checkins_since(window_start).count() as u64;
                }
            }
            let (_, ns) = timed(&mut tracer, trace_req, root, "rewards.decide_mayor", || {
                decide_mayor(&venue, &after, incumbent.as_ref(), now)
            });
            r.decide_mayor_ns.push(ns);
            let (_, ns) = timed(
                &mut tracer,
                trace_req,
                root,
                "rewards.evaluate_badges",
                || evaluate_badges(&after, &venue, now, &world.categories),
            );
            r.badges_ns.push(ns);
        }

        let (walked, ns) = timed(&mut tracer, trace_req, root, "history.walk", || {
            after.history.iter().count()
        });
        r.walk_records += walked as u64;
        r.walk_ns += ns;
        r.history_bytes += after.history.encoded_bytes() as u64;
        r.history_records += after.history.len() as u64;

        for page in [Page::User(req.user), Page::Venue(req.venue)] {
            let times = pages.fetch(page);
            let handle = (times.rendered - times.start).as_nanos() as u64;
            match page {
                Page::User(_) => r.user_page_ns.push(handle),
                Page::Venue(_) => r.venue_page_ns.push(handle),
            }
            r.parse_ns
                .push((times.parsed - times.rendered).as_nanos() as u64);
            r.insert_ns
                .push((times.inserted - times.parsed).as_nanos() as u64);
            r.tally.pages += 1;
            r.tally.page_failures += u64::from(!times.ok);
            if let Some(t) = tracer.as_deref_mut() {
                let ns = |at: Instant| t.ns_of(at);
                let (s, h, p, e) = (
                    ns(times.start),
                    ns(times.rendered),
                    ns(times.parsed),
                    ns(times.inserted),
                );
                t.record(trace_req, root, "web.handle", s, h);
                t.record(trace_req, root, "scrape.parse", h, p);
                t.record(trace_req, root, "crawldb.insert", p, e);
            }
        }

        r.tally.submitted += 1;
        r.tally.per_class[op.class.index()] += 1;
        let (results, ns) = timed(&mut tracer, trace_req, root, "admission", || {
            world.server.check_in_batch(std::slice::from_ref(&req))
        });
        r.admission_ns.push(ns);
        let result = results.into_iter().next().expect("one result per op");
        if let Ok(outcome) = &result {
            if outcome.rewarded() == flagged {
                r.shadow_mismatch += 1;
            }
        }
        r.tally.decide(op.class, &result);
        r.ops += 1;
        if let Some(t) = tracer.as_deref_mut() {
            let end = t.now_ns();
            t.record_as(root, trace_req, 0, "op", op_start, end);
        }
    }
    r
}
