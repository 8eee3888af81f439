//! The load generator: one thread that submits check-ins through the
//! `RequestFrontend`, waits on their tickets, and fetches the crawler's
//! profile pages.
//!
//! * **Open loop**: check-in *i* is due at `i / rate` and page *i* half
//!   a period later. Every request is timed from its due time, so a
//!   stall also charges the requests that queued behind it. While the
//!   next request is not yet due the generator waits on the oldest
//!   ticket; otherwise it spins. Before the first op of a new epoch it
//!   waits for every queued op, so each decision sees its epoch's
//!   virtual time exactly.
//! * **Closed loop**: a fixed number of submissions stay outstanding;
//!   the next one goes in when the oldest decides.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lbsn_crawler::scrape::{parse_user_page, parse_venue_page};
use lbsn_crawler::CrawlDatabase;
use lbsn_server::web::{PageRequest, WebFrontend};
use lbsn_server::{CheckinError, CheckinTicket, RequestFrontend, SubmitOutcome, UserId, VenueId};

use crate::trace::Tracer;
use crate::workload::{Class, Op, World};

/// Latency recorded for a request that failed or was shed: it misses
/// any limit.
pub const MISSED: u64 = u64::MAX;

/// Outcome counts of every phase that submits work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `RequestFrontend::submit` calls (or direct admissions).
    pub submitted: u64,
    /// Tickets that resolved (any result).
    pub decided: u64,
    /// Submissions shed at the queue high-water mark.
    pub shed: u64,
    /// Decisions that came back as a `CheckinError`.
    pub errors: u64,
    /// Decisions that contradict the op's class.
    pub wrong: u64,
    /// Submitted ops per [`Class`].
    pub per_class: [u64; 3],
    /// Profile pages fetched.
    pub pages: u64,
    /// Pages that did not render, parse or match their id.
    pub page_failures: u64,
}

impl Tally {
    /// Check-ins that failed: shed, errored or decided wrongly.
    pub fn failed_checkins(&self) -> u64 {
        self.shed + self.errors + self.wrong
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.submitted += other.submitted;
        self.decided += other.decided;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
        for (a, b) in self.per_class.iter_mut().zip(other.per_class) {
            *a += b;
        }
        self.pages += other.pages;
        self.page_failures += other.page_failures;
    }

    /// Records the decision of an op of `class`; returns whether it was
    /// the right one.
    pub fn decide(
        &mut self,
        class: Class,
        result: &Result<lbsn_server::CheckinOutcome, CheckinError>,
    ) -> bool {
        match result {
            Err(_) => {
                self.decided += 1;
                self.errors += 1;
                false
            }
            Ok(outcome) => {
                self.decided += 1;
                let right = class.accepts(outcome);
                if !right {
                    self.wrong += 1;
                }
                right
            }
        }
    }
}

/// A profile page of the crawler's two kinds.
#[derive(Debug, Clone, Copy)]
pub enum Page {
    /// `/user/<id>`.
    User(UserId),
    /// `/venue/<id>`.
    Venue(VenueId),
}

/// Wall time of each step of one page fetch.
#[derive(Debug, Clone, Copy)]
pub struct PageTimes {
    /// Start of the fetch.
    pub start: Instant,
    /// `WebFrontend::handle` returned.
    pub rendered: Instant,
    /// `scrape::parse_*` returned.
    pub parsed: Instant,
    /// `CrawlDatabase::insert_*` returned.
    pub inserted: Instant,
    /// Rendered 200, parsed, and carried the requested id.
    pub ok: bool,
}

/// The crawler side: the web frontend and the crawl store.
pub struct Pages {
    web: WebFrontend,
    db: CrawlDatabase,
}

impl Pages {
    /// A crawler over `world`'s server with an empty store.
    pub fn new(world: &World) -> Self {
        Pages {
            web: WebFrontend::new(std::sync::Arc::clone(&world.server)),
            db: CrawlDatabase::new(),
        }
    }

    /// Fetches, scrapes and stores one page.
    pub fn fetch(&self, page: Page) -> PageTimes {
        let start = Instant::now();
        let path = match page {
            Page::User(u) => format!("/user/{}", u.value()),
            Page::Venue(v) => format!("/venue/{}", v.value()),
        };
        let response = self.web.handle(&PageRequest::get(path));
        let rendered = Instant::now();
        let ok = response.is_ok();
        let (parsed, inserted, ok) = match page {
            Page::User(u) => {
                let row = parse_user_page(&response.body);
                let parsed = Instant::now();
                let ok = ok && row.as_ref().is_ok_and(|r| r.id == u.value());
                if let Ok(row) = row {
                    self.db.insert_user(row);
                }
                (parsed, Instant::now(), ok)
            }
            Page::Venue(v) => {
                let row = parse_venue_page(&response.body);
                let parsed = Instant::now();
                let ok = ok && row.as_ref().is_ok_and(|r| r.id == v.value());
                if let Ok(row) = row {
                    self.db.insert_venue(row);
                }
                (parsed, Instant::now(), ok)
            }
        };
        PageTimes {
            start,
            rendered,
            parsed,
            inserted,
            ok,
        }
    }
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Due time → decision per check-in, ns ([`MISSED`] on failure).
    pub checkin_ns: Vec<u64>,
    /// Due time → stored row per page, ns ([`MISSED`] on failure).
    pub page_ns: Vec<u64>,
    /// Send time − due time per request, ns.
    pub late_ns: Vec<u64>,
    /// Duration of each `RequestFrontend::submit` call, ns.
    pub submit_ns: Vec<u64>,
    /// Outcome counts.
    pub tally: Tally,
}

/// A queued submission awaiting its ticket.
struct Pending {
    ticket: CheckinTicket,
    class: Class,
    due: Instant,
    send: Instant,
    sent: Instant,
}

/// Shared ticket bookkeeping of both loops.
struct Collector<'t> {
    pending: VecDeque<Pending>,
    tally: Tally,
    checkin_ns: Vec<u64>,
    record_latency: bool,
    tracer: Option<&'t mut Tracer>,
}

impl Collector<'_> {
    fn submit(&mut self, frontend: &RequestFrontend, op: Op, due: Instant) -> u64 {
        self.tally.submitted += 1;
        self.tally.per_class[op.class.index()] += 1;
        let send = Instant::now();
        let outcome = frontend.submit(op.req);
        let sent = Instant::now();
        match outcome {
            SubmitOutcome::Enqueued(ticket) => self.pending.push_back(Pending {
                ticket,
                class: op.class,
                due,
                send,
                sent,
            }),
            SubmitOutcome::Shed { .. } => {
                self.tally.shed += 1;
                if self.record_latency {
                    self.checkin_ns.push(MISSED);
                }
            }
        }
        (sent - send).as_nanos() as u64
    }

    /// Waits for the oldest ticket; false when none is queued.
    fn finish_oldest(&mut self) -> bool {
        let Some(p) = self.pending.pop_front() else {
            return false;
        };
        let result = p.ticket.wait();
        let done = Instant::now();
        let right = self.tally.decide(p.class, &result);
        if self.record_latency {
            self.checkin_ns.push(if right {
                (done - p.due).as_nanos() as u64
            } else {
                MISSED
            });
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            let req = t.request();
            let root = t.reserve();
            let (due, send, sent, done) = (
                t.ns_of(p.due),
                t.ns_of(p.send),
                t.ns_of(p.sent),
                t.ns_of(done),
            );
            t.record(req, root, "loadgen.late", due, send);
            t.record(req, root, "frontend.submit", send, sent);
            t.record(req, root, "frontend.wait", sent, done);
            t.record_as(root, req, 0, "checkin", due, done);
        }
        true
    }

    fn drain(&mut self) {
        while self.finish_oldest() {}
    }
}

/// Spins until `at`.
fn spin_until(at: Instant) {
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Runs the open loop for `seconds` at `rate` check-ins (and as many
/// page fetches) per second.
pub fn open_loop(
    world: &mut World,
    frontend: &RequestFrontend,
    pages: &Pages,
    rate: f64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> OpenResult {
    let events = (seconds * rate).floor() as u64;
    let period_ns = 1e9 / rate;
    let mut out = OpenResult {
        checkin_ns: Vec::with_capacity(events as usize),
        page_ns: Vec::with_capacity(events as usize),
        late_ns: Vec::with_capacity(2 * events as usize),
        submit_ns: Vec::with_capacity(events as usize),
        tally: Tally::default(),
    };
    let mut c = Collector {
        pending: VecDeque::new(),
        tally: Tally::default(),
        checkin_ns: Vec::with_capacity(events as usize),
        record_latency: true,
        tracer,
    };
    // A short lead so the first due time is not already past.
    let start = Instant::now() + Duration::from_millis(1);
    let mut last: Option<Op> = None;
    for i in 0..2 * events {
        let is_op = i % 2 == 0;
        let due = start
            + Duration::from_nanos(
                ((i / 2) as f64 * period_ns + if is_op { 0.0 } else { period_ns / 2.0 }) as u64,
            );
        // Use the slack before the next due time to collect decisions.
        while !c.pending.is_empty() && Instant::now() < due {
            c.finish_oldest();
        }
        spin_until(due);
        if is_op {
            let op = match world.next_in_epoch() {
                Some(op) => op,
                None => {
                    c.drain();
                    world.advance_epoch();
                    world.next_in_epoch().expect("epochs are never empty")
                }
            };
            let late = Instant::now() - due;
            out.late_ns.push(late.as_nanos() as u64);
            let submit = c.submit(frontend, op, due);
            out.submit_ns.push(submit);
            last = Some(op);
        } else {
            let op = last.expect("a page follows its check-in");
            let page = if (i / 2) % 2 == 0 {
                Page::User(op.req.user)
            } else {
                Page::Venue(op.req.venue)
            };
            let times = pages.fetch(page);
            out.late_ns.push((times.start - due).as_nanos() as u64);
            c.tally.pages += 1;
            if times.ok {
                out.page_ns.push((times.inserted - due).as_nanos() as u64);
            } else {
                c.tally.page_failures += 1;
                out.page_ns.push(MISSED);
            }
            if let Some(t) = c.tracer.as_deref_mut() {
                let req = t.request();
                let root = t.reserve();
                let ns = |at: Instant| t.ns_of(at);
                let (d, s, r, p, e) = (
                    ns(due),
                    ns(times.start),
                    ns(times.rendered),
                    ns(times.parsed),
                    ns(times.inserted),
                );
                t.record(req, root, "loadgen.late", d, s);
                t.record(req, root, "web.handle", s, r);
                t.record(req, root, "scrape.parse", r, p);
                t.record(req, root, "crawldb.insert", p, e);
                t.record_as(root, req, 0, "page", d, e);
            }
        }
    }
    c.drain();
    out.checkin_ns = std::mem::take(&mut c.checkin_ns);
    out.tally = c.tally;
    out
}

/// What a closed-loop phase measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedResult {
    /// Wall seconds from first submission to last decision.
    pub elapsed_s: f64,
    /// Outcome counts.
    pub tally: Tally,
}

impl ClosedResult {
    /// Decisions per wall second.
    pub fn rate(&self) -> f64 {
        self.tally.decided as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Runs the closed loop for `seconds` with `outstanding` submissions in
/// flight. Epochs advance without a barrier: `outstanding` is below the
/// epoch length, so an op is decided at most one epoch late, which no
/// class's expected decision depends on.
pub fn closed_loop(
    world: &mut World,
    frontend: &RequestFrontend,
    outstanding: usize,
    seconds: f64,
) -> ClosedResult {
    assert!(
        outstanding < world.params.epoch_ops,
        "closed loop must stay within one epoch of skew"
    );
    let mut c = Collector {
        pending: VecDeque::with_capacity(outstanding),
        tally: Tally::default(),
        checkin_ns: Vec::new(),
        record_latency: false,
        tracer: None,
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    loop {
        while c.pending.len() < outstanding && Instant::now() < end {
            let (op, _) = world.next_op();
            let now = Instant::now();
            c.submit(frontend, op, now);
        }
        if !c.finish_oldest() {
            break;
        }
    }
    ClosedResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        tally: c.tally,
    }
}
