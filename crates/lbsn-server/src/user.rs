//! Users: accounts, check-in history, and earned rewards.
//!
//! The struct is split hot/cold for paper-scale residency (DESIGN.md
//! §13): the fields the check-in hot path reads live inline in [`User`]
//! (~2 cache lines inside the shard's dense slot vector), while
//! everything only the profile/web/forensics paths touch lives behind
//! one pointer in [`UserCold`]. `Deref` keeps cold-field call sites
//! (`u.badges`, `u.friends`, …) unchanged.

use std::ops::{Deref, DerefMut};

use lbsn_geo::GeoPoint;
use lbsn_obs::MemFootprint;
use lbsn_sim::Timestamp;
use serde::{Deserialize, Serialize};

use crate::checkin::CheckinRecord;
use crate::compact::{BadgeSet, CategoryCounts, IdSet};
use crate::history::{PackedHistory, PackedRecord, RecordHeader};
use crate::{UserId, VenueId};

/// Sentinel for "no rewarded check-in yet" in [`User::latest_rewarded_off`].
const NO_REWARDED: u32 = u32::MAX;

/// A set of virtual day indices no earlier than `base`: one bit per day
/// for the 64 days from `base` (the 61 days a 60-day window touches fit),
/// a sorted spill for later days. Later days occur when a record is
/// dated well after the deciding op's `now`: the server samples its
/// clock before taking locks, so a concurrent op can append a newer
/// record first.
struct DaySet {
    base: u64,
    near: u64,
    far: Vec<u64>,
}

impl DaySet {
    fn new(base: u64) -> Self {
        DaySet {
            base,
            near: 0,
            far: Vec::new(),
        }
    }

    /// Adds `day`, which must be at least `base`.
    fn insert(&mut self, day: u64) {
        let offset = day - self.base;
        if offset < u64::BITS as u64 {
            self.near |= 1 << offset;
        } else if let Err(i) = self.far.binary_search(&day) {
            self.far.insert(i, day);
        }
    }

    fn len(&self) -> u32 {
        self.near.count_ones() + self.far.len() as u32
    }
}

/// Parameters for registering a user.
#[derive(Debug, Clone, Default)]
pub struct UserSpec {
    /// Optional vanity username. The paper found only 26.1 % of users had
    /// one, which is why the crawler enumerates numeric IDs instead.
    pub username: Option<String>,
    /// Self-reported home location shown on the profile page.
    pub home: Option<GeoPoint>,
}

impl UserSpec {
    /// A user with no username or home city.
    pub fn anonymous() -> Self {
        UserSpec::default()
    }

    /// A user with a vanity username.
    pub fn named(username: impl Into<String>) -> Self {
        UserSpec {
            username: Some(username.into()),
            home: None,
        }
    }

    /// Sets the home location.
    pub fn home(mut self, home: GeoPoint) -> Self {
        self.home = Some(home);
        self
    }
}

/// Server-side user state: the hot half.
///
/// The public profile page exposes username, home, total check-ins,
/// badge count and friend count (the paper's `UserInfo` table);
/// mayorships and the check-in history are hidden from the page — the
/// paper infers them from venue pages instead.
///
/// Only fields the admission pipeline reads per check-in are inline;
/// profile-only state is one hop away in [`UserCold`], reachable
/// directly through `Deref`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct User {
    /// User ID (dense, incrementing — the enumeration weakness).
    pub id: UserId,
    /// Registration time. The paper dates accounts by ID; we keep the
    /// timestamp too.
    pub created_at: Timestamp,
    /// Every check-in ever submitted, valid or flagged, in time order,
    /// packed (delta timestamps, bitset flags, quantized coordinates).
    pub history: PackedHistory,
    /// Byte offset into `history` of the most recent *rewarded*
    /// check-in, or `u32::MAX` for none. Maintained by
    /// [`User::push_record`] so the speed rule's
    /// [`User::last_valid_checkin`] is O(1) even for the cheater
    /// cohort's shape — long histories that are almost all flagged.
    latest_rewarded_off: u32,
    /// Timestamp of the most recent rewarded check-in (decode key for
    /// `latest_rewarded_off`, and the O(1) answer to
    /// [`User::has_valid_checkin_since`]).
    latest_rewarded_at: Timestamp,
    /// Total submitted check-ins (valid + flagged). Foursquare's policy,
    /// per §4.2: flagged check-ins still count here.
    pub total_checkins: u64,
    /// Check-ins that passed verification and earned rewards.
    pub valid_checkins: u64,
    /// Check-ins the cheater code flagged.
    pub flagged_checkins: u64,
    /// Whether the account itself has been branded a cheater (enough
    /// flagged check-ins): all further check-ins are invalidated and
    /// held mayorships were stripped.
    pub branded_cheater: bool,
    /// Points balance.
    pub points: u64,
    /// Cold profile state (web/forensics paths only).
    cold: Box<UserCold>,
}

/// Server-side user state: the cold half. Reached only by profile,
/// web-page, reward-evaluation and forensics paths — never by the
/// per-check-in detector scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserCold {
    /// Vanity username, if chosen.
    pub username: Option<String>,
    /// Self-reported home location.
    pub home: Option<GeoPoint>,
    /// Badges earned (each at most once).
    pub badges: BadgeSet,
    /// Venues this user is currently mayor of.
    pub mayorships: IdSet<VenueId>,
    /// Friends (symmetric).
    pub friends: IdSet<UserId>,
    /// Distinct venues with at least one valid check-in.
    pub visited_venues: IdSet<VenueId>,
    /// Distinct venues per category (drives category badges).
    pub venues_by_category: CategoryCounts,
}

impl Deref for User {
    type Target = UserCold;
    fn deref(&self) -> &UserCold {
        &self.cold
    }
}

impl DerefMut for User {
    fn deref_mut(&mut self) -> &mut UserCold {
        &mut self.cold
    }
}

/// The fields the public profile page exposes (the paper's `UserInfo`
/// table). Returned by `LbsnServer::user_profile` so scrape-shaped
/// reads copy a few dozen bytes instead of cloning a full history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// User ID.
    pub id: UserId,
    /// Vanity username, if chosen.
    pub username: Option<String>,
    /// Self-reported home location.
    pub home: Option<GeoPoint>,
    /// Total submitted check-ins (valid + flagged).
    pub total_checkins: u64,
    /// Number of badges earned.
    pub badge_count: usize,
    /// Number of friends.
    pub friend_count: usize,
    /// Points balance.
    pub points: u64,
}

impl User {
    pub(crate) fn from_spec(id: UserId, spec: UserSpec, now: Timestamp) -> Self {
        User {
            id,
            created_at: now,
            history: PackedHistory::new(),
            latest_rewarded_off: NO_REWARDED,
            latest_rewarded_at: Timestamp(0),
            total_checkins: 0,
            valid_checkins: 0,
            flagged_checkins: 0,
            branded_cheater: false,
            points: 0,
            cold: Box::new(UserCold {
                username: spec.username,
                home: spec.home,
                ..UserCold::default()
            }),
        }
    }

    /// Appends a check-in to the history, bumping the submitted-total
    /// and maintaining the latest-rewarded cache. All history growth
    /// must go through here — encoding records elsewhere desyncs
    /// [`User::last_valid_checkin`].
    pub fn push_record(&mut self, record: CheckinRecord) {
        let off = self.history.push(&record);
        if record.rewarded {
            self.latest_rewarded_off = off;
            self.latest_rewarded_at = record.at;
        }
        self.total_checkins += 1;
    }

    /// The most recent check-in, if any (valid or flagged).
    pub fn last_checkin(&self) -> Option<PackedRecord> {
        self.history.iter().next_back()
    }

    /// The most recent *valid* check-in, if any. O(1) via the cached
    /// offset — no reverse scan over flag-heavy histories.
    pub fn last_valid_checkin(&self) -> Option<PackedRecord> {
        if self.latest_rewarded_off == NO_REWARDED {
            None
        } else {
            Some(
                self.history
                    .decode_at(self.latest_rewarded_off, self.latest_rewarded_at),
            )
        }
    }

    /// Whether any rewarded check-in landed at or after `since`. O(1):
    /// answered from the latest-rewarded cache (the server clock is
    /// monotonic, so the newest rewarded timestamp decides).
    pub fn has_valid_checkin_since(&self, since: Timestamp) -> bool {
        self.latest_rewarded_off != NO_REWARDED && self.latest_rewarded_at >= since
    }

    /// Headers of valid check-ins no earlier than `since`, newest first.
    /// Header-only: no coordinate is decoded. Like every windowed scan
    /// here, the walk ends at the first record (valid or not) dated
    /// before `since`, so its cost is bounded by the window, not the
    /// lifetime history.
    pub fn rewarded_since(&self, since: Timestamp) -> impl Iterator<Item = RecordHeader> + '_ {
        self.history
            .headers_rev()
            .take_while(move |h| h.at >= since)
            .filter(|h| h.rewarded)
    }

    /// [`User::rewarded_since`] restricted to `venue`.
    pub fn rewarded_at_since(
        &self,
        venue: VenueId,
        since: Timestamp,
    ) -> impl Iterator<Item = RecordHeader> + '_ {
        self.rewarded_since(since).filter(move |h| h.venue == venue)
    }

    /// Number of distinct virtual days with a valid check-in at `venue`
    /// within `[since, now]` — the mayorship quantity (§2.1: "checked in
    /// to that venue the most days in the past 60 days", counting days,
    /// not check-ins).
    pub fn distinct_days_at(&self, venue: VenueId, since: Timestamp) -> u32 {
        self.distinct_days_at_capped(venue, since, u32::MAX)
    }

    /// [`User::distinct_days_at`], except that the walk stops as soon as
    /// the count exceeds `cap`: the result is exact up to `cap` and
    /// `cap + 1` for anything larger.
    pub fn distinct_days_at_capped(&self, venue: VenueId, since: Timestamp, cap: u32) -> u32 {
        let mut days = DaySet::new(since.day());
        for h in self.rewarded_at_since(venue, since) {
            days.insert(h.at.day());
            if days.len() > cap {
                break;
            }
        }
        days.len()
    }

    /// Valid check-ins within `[since, now]`, any venue, fully decoded
    /// (reference for [`User::rewarded_since`]).
    pub fn valid_checkins_since(
        &self,
        since: Timestamp,
    ) -> impl Iterator<Item = PackedRecord> + '_ {
        self.history
            .iter()
            .rev()
            .take_while(move |r| r.at >= since)
            .filter(|r| r.rewarded)
    }

    /// Badge-count accessor used by the web frontend.
    pub fn badge_count(&self) -> usize {
        self.badges.len()
    }

    /// The profile-page projection (see [`UserProfile`]).
    pub fn profile(&self) -> UserProfile {
        UserProfile {
            id: self.id,
            username: self.username.clone(),
            home: self.home,
            total_checkins: self.total_checkins,
            badge_count: self.badges.len(),
            friend_count: self.friends.len(),
            points: self.points,
        }
    }

    /// Drops excess collection capacity (post-bulk-load compaction).
    pub fn shrink_to_fit(&mut self) {
        self.history.shrink_to_fit();
        let UserCold {
            username,
            home: _,
            badges: _,
            mayorships,
            friends,
            visited_venues,
            venues_by_category: _,
        } = &mut *self.cold;
        if let Some(name) = username {
            name.shrink_to_fit();
        }
        mayorships.shrink_to_fit();
        friends.shrink_to_fit();
        visited_venues.shrink_to_fit();
    }
}

impl MemFootprint for User {
    fn heap_bytes(&self) -> usize {
        // Exhaustive destructure so the `mem-footprint-field-missing`
        // lint sees every field; inline fields contribute nothing.
        let User {
            id: _,
            created_at: _,
            history,
            latest_rewarded_off: _,
            latest_rewarded_at: _,
            total_checkins: _,
            valid_checkins: _,
            flagged_checkins: _,
            branded_cheater: _,
            points: _,
            cold,
        } = self;
        history.heap_bytes() + cold.heap_bytes()
    }
}

impl MemFootprint for UserCold {
    fn heap_bytes(&self) -> usize {
        let UserCold {
            username,
            home: _,
            badges,
            mayorships,
            friends,
            visited_venues,
            venues_by_category,
        } = self;
        username.heap_bytes()
            + badges.heap_bytes()
            + mayorships.heap_bytes()
            + friends.heap_bytes()
            + visited_venues.heap_bytes()
            + venues_by_category.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::CheckinSource;
    use lbsn_sim::{Duration, DAY};

    fn record(venue: u64, at: u64, rewarded: bool) -> CheckinRecord {
        CheckinRecord {
            venue: VenueId(venue),
            at: Timestamp(at),
            location: GeoPoint::new(35.0, -106.0).unwrap(),
            source: CheckinSource::MobileApp,
            rewarded,
            flags: vec![],
        }
    }

    fn user_with_history(records: Vec<CheckinRecord>) -> User {
        let mut u = User::from_spec(UserId(1), UserSpec::anonymous(), Timestamp(0));
        for r in records {
            if r.rewarded {
                u.valid_checkins += 1;
            }
            u.push_record(r);
        }
        u
    }

    #[test]
    fn spec_builders() {
        let s = UserSpec::named("test").home(GeoPoint::new(40.0, -96.0).unwrap());
        assert_eq!(s.username.as_deref(), Some("test"));
        assert!(s.home.is_some());
        assert!(UserSpec::anonymous().username.is_none());
    }

    #[test]
    fn last_checkin_accessors() {
        let u = user_with_history(vec![record(1, 100, true), record(2, 200, false)]);
        assert_eq!(u.last_checkin().unwrap().venue, VenueId(2));
        assert_eq!(u.last_valid_checkin().unwrap().venue, VenueId(1));
        let empty = user_with_history(vec![]);
        assert!(empty.last_checkin().is_none());
        assert!(empty.last_valid_checkin().is_none());
    }

    #[test]
    fn latest_rewarded_cache_tracks_pushes() {
        let mut u = user_with_history(vec![record(1, 100, true)]);
        assert_eq!(u.last_valid_checkin().unwrap().venue, VenueId(1));
        // A run of flagged check-ins leaves the cache pointing at the
        // last rewarded one.
        for i in 0..50u64 {
            u.push_record(record(2, 200 + i, false));
        }
        let cached = u.last_valid_checkin().unwrap();
        assert_eq!(cached.venue, VenueId(1));
        assert_eq!(cached.at, Timestamp(100));
        u.push_record(record(3, 300, true));
        assert_eq!(u.last_valid_checkin().unwrap().venue, VenueId(3));
        assert_eq!(u.total_checkins, 52);
    }

    #[test]
    fn has_valid_checkin_since_uses_latest_rewarded() {
        let mut u = user_with_history(vec![record(1, 100, true), record(2, 150, false)]);
        assert!(u.has_valid_checkin_since(Timestamp(100)));
        assert!(u.has_valid_checkin_since(Timestamp(50)));
        assert!(!u.has_valid_checkin_since(Timestamp(101)));
        u.push_record(record(3, 400, true));
        assert!(u.has_valid_checkin_since(Timestamp(400)));
        assert!(!user_with_history(vec![]).has_valid_checkin_since(Timestamp(0)));
    }

    #[test]
    fn distinct_days_counts_days_not_checkins() {
        // Three check-ins on day 0, two on day 1: 2 distinct days.
        let u = user_with_history(vec![
            record(7, 0, true),
            record(7, 100, true),
            record(7, 200, true),
            record(7, DAY + 50, true),
            record(7, DAY + 60, true),
        ]);
        assert_eq!(u.distinct_days_at(VenueId(7), Timestamp(0)), 2);
    }

    #[test]
    fn distinct_days_respects_window_and_validity() {
        let u = user_with_history(vec![
            record(7, 0, true),         // before window
            record(7, 10 * DAY, false), // flagged: ignored
            record(7, 11 * DAY, true),
            record(8, 12 * DAY, true), // other venue: ignored
        ]);
        let since = Timestamp(5 * DAY);
        assert_eq!(u.distinct_days_at(VenueId(7), since), 1);
    }

    #[test]
    fn windowed_scan_stops_at_since() {
        let mut records = Vec::new();
        for d in 0..100u64 {
            records.push(record(1, d * DAY, true));
        }
        let u = user_with_history(records);
        let since = Timestamp(98 * DAY);
        assert_eq!(u.valid_checkins_since(since).count(), 2);
        let _ = Duration::days(1); // silence unused import in some cfgs
    }

    #[test]
    fn profile_projection_matches_fields() {
        let mut u = User::from_spec(
            UserId(9),
            UserSpec::named("dora").home(GeoPoint::new(40.0, -96.0).unwrap()),
            Timestamp(5),
        );
        u.points = 77;
        u.friends.insert(UserId(2));
        u.friends.insert(UserId(3));
        u.push_record(record(1, 10, true));
        let p = u.profile();
        assert_eq!(p.id, UserId(9));
        assert_eq!(p.username.as_deref(), Some("dora"));
        assert_eq!(p.total_checkins, 1);
        assert_eq!(p.friend_count, 2);
        assert_eq!(p.points, 77);
        assert_eq!(p.badge_count, 0);
    }
}
