//! The reward ladder: points, badges, mayorships, specials.
//!
//! §2.1 of the paper: "Listed from the easiest to the hardest to obtain,
//! they are: points, badges, mayorships, and real world rewards." This
//! module implements all four tiers. Exact 2010 point values were never
//! published; [`PointsPolicy`]'s defaults are documented approximations,
//! and every experiment conclusion depends only on *relative* reward
//! levels (Fig 4.2 compares badge counts across users under the same
//! policy).

use lbsn_sim::{Duration, Timestamp, DAY, HOUR};
use serde::{Deserialize, Serialize};

use crate::user::User;
use crate::venue::{Venue, VenueCategory};
use crate::VenueId;

/// Point values for check-in events. Serde-round-trippable so a whole
/// reward policy can live in a JSON scenario file (see
/// [`crate::policy`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointsPolicy {
    /// Base points for any valid check-in.
    pub per_checkin: u64,
    /// Bonus for the first-ever check-in at a venue ("first stop").
    pub first_visit_bonus: u64,
    /// Bonus for the first check-in of a virtual day.
    pub first_of_day_bonus: u64,
    /// Bonus for taking (not retaining) a mayorship.
    pub new_mayor_bonus: u64,
}

impl Default for PointsPolicy {
    fn default() -> Self {
        PointsPolicy {
            per_checkin: 1,
            first_visit_bonus: 4,
            first_of_day_bonus: 2,
            new_mayor_bonus: 5,
        }
    }
}

impl PointsPolicy {
    /// Points for a valid check-in with the given attributes.
    pub fn award(&self, first_visit: bool, first_of_day: bool, became_mayor: bool) -> u64 {
        self.per_checkin
            + if first_visit {
                self.first_visit_bonus
            } else {
                0
            }
            + if first_of_day {
                self.first_of_day_bonus
            } else {
                0
            }
            + if became_mayor {
                self.new_mayor_bonus
            } else {
                0
            }
    }
}

/// Achievement badges, modelled on the 2010 Foursquare set.
///
/// The paper's test account earned "Adventurer: You've checked into 10
/// different venues!"; §2.1 cites "30 check-ins in a month" (Super User)
/// and "checked into 10 different venues" as canonical examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Badge {
    /// First check-in ever.
    Newbie,
    /// 10 distinct venues.
    Adventurer,
    /// 25 distinct venues.
    Explorer,
    /// 50 distinct venues.
    Superstar,
    /// 100 distinct venues.
    Warhol,
    /// Check-ins on 4 consecutive days.
    Bender,
    /// 3 valid check-ins at the same venue within 7 days.
    Local,
    /// 30 valid check-ins within 30 days.
    SuperUser,
    /// 4 valid check-ins within 12 hours.
    Crunked,
    /// 10 valid check-ins within 12 hours.
    Overshare,
    /// A valid check-in between 01:00 and 04:00.
    SchoolNight,
    /// 5 distinct coffee venues.
    FreshBrew,
    /// 10 gym check-ins within 30 days.
    GymRat,
    /// 5 distinct airport venues.
    JetSetter,
    /// Hold 10 mayorships at once.
    SuperMayor,
}

// Fieldless achievement enum: no owned heap.
lbsn_obs::mem_footprint_inline!(Badge);

impl Badge {
    /// All badge kinds, in award-evaluation order.
    pub const ALL: [Badge; 15] = [
        Badge::Newbie,
        Badge::Adventurer,
        Badge::Explorer,
        Badge::Superstar,
        Badge::Warhol,
        Badge::Bender,
        Badge::Local,
        Badge::SuperUser,
        Badge::Crunked,
        Badge::Overshare,
        Badge::SchoolNight,
        Badge::FreshBrew,
        Badge::GymRat,
        Badge::JetSetter,
        Badge::SuperMayor,
    ];

    /// The unlock message shown to the user.
    pub fn message(self) -> &'static str {
        match self {
            Badge::Newbie => "Newbie: Your first check-in!",
            Badge::Adventurer => "Adventurer: You've checked into 10 different venues!",
            Badge::Explorer => "Explorer: You've checked into 25 different venues!",
            Badge::Superstar => "Superstar: You've checked into 50 different venues!",
            Badge::Warhol => "Warhol: You've checked into 100 different venues!",
            Badge::Bender => "Bender: Four days in a row!",
            Badge::Local => "Local: Three times at one place in a week!",
            Badge::SuperUser => "Super User: 30 check-ins in a month!",
            Badge::Crunked => "Crunked: Four stops in one night!",
            Badge::Overshare => "Overshare: Ten check-ins in twelve hours!",
            Badge::SchoolNight => "School Night: Out past 1am on a school night!",
            Badge::FreshBrew => "Fresh Brew: Five different coffee shops!",
            Badge::GymRat => "Gym Rat: Ten gym check-ins in a month!",
            Badge::JetSetter => "JetSetter: Five different airports!",
            Badge::SuperMayor => "Super Mayor: Ten simultaneous mayorships!",
        }
    }
}

/// A venue-attribute lookup the badge engine needs (category per venue).
pub trait VenueLookup {
    /// The category of a venue, if the venue exists.
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory>;
}

impl VenueLookup for [Venue] {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.get(idx).map(|v| v.category)
    }
}

/// Evaluates which badges a user newly qualifies for, given that their
/// latest valid check-in (already appended to `user.history`) was at
/// `venue` at time `now`.
///
/// Badges already held are never re-awarded, so a held badge's window
/// is not walked at all. Windowed criteria walk record headers from the
/// newest end (no coordinate decoding) and stop at whichever comes
/// first, the window boundary or the match that settles the rule:
///
/// | badge | window | stops after |
/// |---|---|---|
/// | Bender | since the start of day `today − 3` | all 4 days seen |
/// | Local | 7 days, this venue | 3rd valid check-in |
/// | Super User | 30 days | 30th valid check-in |
/// | Crunked / Overshare | 12 hours | 4th / 10th valid check-in |
/// | Gym Rat | 30 days | 10th valid gym check-in |
///
/// So the cost is bounded by the smaller of per-window activity and the
/// threshold, never by lifetime history. A rule short of its threshold
/// walks its whole window; for an account that holds Super User but not
/// Gym Rat, that is the 30-day window.
pub fn evaluate_badges(
    user: &User,
    venue: &Venue,
    now: Timestamp,
    venues: &(impl VenueLookup + ?Sized),
) -> Vec<Badge> {
    let mut earned = Vec::new();
    let mut check = |badge: Badge, achieved: bool| {
        if achieved && !user.badges.contains(&badge) {
            earned.push(badge);
        }
    };
    // Guards the windowed rules, so a held badge's window is not walked.
    let unheld = |badge: Badge| !user.badges.contains(&badge);

    let distinct = user.visited_venues.len();
    check(Badge::Newbie, user.valid_checkins >= 1);
    check(Badge::Adventurer, distinct >= 10);
    check(Badge::Explorer, distinct >= 25);
    check(Badge::Superstar, distinct >= 50);
    check(Badge::Warhol, distinct >= 100);

    // Bender: valid check-ins on 4 consecutive days ending today.
    check(
        Badge::Bender,
        unheld(Badge::Bender) && four_day_streak(user, now.day()),
    );

    // Local: 3 valid check-ins at this venue in the trailing week.
    let week_ago = Timestamp(now.secs().saturating_sub(7 * DAY));
    check(
        Badge::Local,
        unheld(Badge::Local) && at_least(user.rewarded_at_since(venue.id, week_ago), 3),
    );

    // Super User: 30 valid check-ins in the trailing 30 days.
    let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
    check(
        Badge::SuperUser,
        unheld(Badge::SuperUser) && at_least(user.rewarded_since(month_ago), 30),
    );

    // Crunked / Overshare: bursts within 12 hours, one walk for both.
    let burst = if unheld(Badge::Crunked) || unheld(Badge::Overshare) {
        let half_day_ago = Timestamp(now.secs().saturating_sub(12 * HOUR));
        user.rewarded_since(half_day_ago).take(10).count()
    } else {
        0
    };
    check(Badge::Crunked, burst >= 4);
    check(Badge::Overshare, burst >= 10);

    // School Night: the triggering check-in landed between 01:00–04:00.
    let hour_of_day = (now.secs() % DAY) / HOUR;
    check(Badge::SchoolNight, (1..4).contains(&hour_of_day));

    // Category badges.
    let coffee = user.venues_by_category.count(VenueCategory::Coffee);
    check(Badge::FreshBrew, coffee >= 5);
    let airports = user.venues_by_category.count(VenueCategory::Airport);
    check(Badge::JetSetter, airports >= 5);

    // Gym Rat: 10 gym check-ins in the trailing 30 days (check-ins, not
    // distinct venues — loyalty to one gym counts).
    check(
        Badge::GymRat,
        unheld(Badge::GymRat)
            && at_least(
                user.rewarded_since(month_ago)
                    .filter(|h| venues.category_of(h.venue) == Some(VenueCategory::Gym)),
                10,
            ),
    );

    check(Badge::SuperMayor, user.mayorships.len() >= 10);

    earned
}

/// Whether `user` has a valid check-in on each of the days `today − 3`
/// to `today`; the walk stops once all four are seen.
fn four_day_streak(user: &User, today: u64) -> bool {
    if today < 3 {
        return false;
    }
    // Bit `today - d` is set once day `d` has a valid check-in. The
    // window starts on day `today - 3`; later-than-today records (a
    // concurrent op's) are not part of the streak.
    let mut streak = 0u8;
    for h in user.rewarded_since(Timestamp::at_day(today - 3)) {
        if let Some(back) = today.checked_sub(h.at.day()) {
            streak |= 1 << back;
        }
        if streak == 0b1111 {
            return true;
        }
    }
    false
}

/// Whether `walk` yields at least `k` items; stops at the `k`-th.
fn at_least(walk: impl Iterator, k: usize) -> bool {
    walk.take(k).count() == k
}

/// The mayorship window: "the user who checked in to that venue the most
/// days in the past 60 days" (§2.1).
pub const MAYOR_WINDOW: Duration = Duration(60 * DAY);

/// Decides whether `challenger` takes the mayorship of `venue` at `now`,
/// given read access to the incumbent's user record.
///
/// Rules reproduced from §2.1:
/// * only distinct *days with check-ins* in the trailing 60 days count —
///   "without consideration of how many check-ins occurred per day";
/// * there is exactly one mayor per venue;
/// * a challenger must strictly exceed the incumbent's day count (ties
///   keep the incumbent — this is what makes the §2.2 squatting attack
///   work: an attacker checking in daily can never be dethroned by an
///   equally diligent newcomer);
/// * a venue with no mayor is claimed by a single valid check-in — the
///   §3.4 observation that "only one check-in is enough" on dormant
///   venues.
///
/// The incumbent's days are counted first; the challenger's walk then
/// stops as soon as it strictly exceeds them (at its first in-window
/// check-in for a vacant seat).
pub fn decide_mayor(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    if venue.mayor == Some(challenger.id) {
        return false; // already mayor; nothing to transfer
    }
    let window_start = Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()));
    // The count to beat; a vacant seat needs one day.
    let bar = incumbent.map_or(0, |inc| inc.distinct_days_at(venue.id, window_start));
    challenger.distinct_days_at_capped(venue.id, window_start, bar) > bar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{CheckinRecord, CheckinSource};
    use crate::user::UserSpec;
    use crate::venue::VenueSpec;
    use crate::UserId;
    use lbsn_geo::GeoPoint;

    fn loc() -> GeoPoint {
        GeoPoint::new(35.0, -106.0).unwrap()
    }

    fn venue(id: u64) -> Venue {
        Venue::from_spec(
            VenueId(id),
            VenueSpec::new("V", loc()),
            Timestamp(0),
            &mut crate::StrArena::new(),
        )
    }

    fn user(id: u64) -> User {
        User::from_spec(UserId(id), UserSpec::anonymous(), Timestamp(0))
    }

    /// Appends a valid check-in directly to the user's state (test
    /// shortcut bypassing the server pipeline).
    fn add_valid(u: &mut User, venue: u64, at: u64) {
        u.push_record(CheckinRecord {
            venue: VenueId(venue),
            at: Timestamp(at),
            location: loc(),
            source: CheckinSource::MobileApp,
            rewarded: true,
            flags: vec![],
        });
        u.valid_checkins += 1;
        u.visited_venues.insert(VenueId(venue));
    }

    struct NoVenues;
    impl VenueLookup for NoVenues {
        fn category_of(&self, _: VenueId) -> Option<VenueCategory> {
            None
        }
    }

    #[test]
    fn points_policy_composes_bonuses() {
        let p = PointsPolicy::default();
        assert_eq!(p.award(false, false, false), 1);
        assert_eq!(p.award(true, false, false), 5);
        assert_eq!(p.award(true, true, false), 7);
        assert_eq!(p.award(true, true, true), 12);
    }

    #[test]
    fn newbie_and_adventurer() {
        let mut u = user(1);
        add_valid(&mut u, 1, 100);
        let v = venue(1);
        let badges = evaluate_badges(&u, &v, Timestamp(100), &NoVenues);
        assert!(badges.contains(&Badge::Newbie));
        assert!(!badges.contains(&Badge::Adventurer));

        for i in 2..=10 {
            add_valid(&mut u, i, 100 + i * 7200);
        }
        let badges = evaluate_badges(&u, &venue(10), Timestamp(100 + 10 * 7200), &NoVenues);
        assert!(badges.contains(&Badge::Adventurer));
    }

    #[test]
    fn badges_not_reawarded() {
        let mut u = user(1);
        add_valid(&mut u, 1, 100);
        u.badges.insert(Badge::Newbie);
        let badges = evaluate_badges(&u, &venue(1), Timestamp(100), &NoVenues);
        assert!(!badges.contains(&Badge::Newbie));
    }

    #[test]
    fn bender_needs_four_consecutive_days() {
        let mut u = user(1);
        for d in 10..14 {
            add_valid(&mut u, 1, d * DAY + 100 + (d - 10) * HOUR * 2);
        }
        let now = Timestamp(13 * DAY + 100 + 6 * HOUR);
        let badges = evaluate_badges(&u, &venue(1), now, &NoVenues);
        assert!(badges.contains(&Badge::Bender));

        // A gap breaks the streak.
        let mut v = user(2);
        for d in [10u64, 11, 13, 14] {
            add_valid(&mut v, 1, d * DAY + 100);
        }
        let badges = evaluate_badges(&v, &venue(1), Timestamp(14 * DAY + 100), &NoVenues);
        assert!(!badges.contains(&Badge::Bender));
    }

    #[test]
    fn local_same_venue_in_week() {
        let mut u = user(1);
        add_valid(&mut u, 5, 0);
        add_valid(&mut u, 5, 2 * DAY);
        add_valid(&mut u, 5, 4 * DAY);
        let badges = evaluate_badges(&u, &venue(5), Timestamp(4 * DAY), &NoVenues);
        assert!(badges.contains(&Badge::Local));

        // Spread over more than a week: no badge.
        let mut v = user(2);
        add_valid(&mut v, 5, 0);
        add_valid(&mut v, 5, 5 * DAY);
        add_valid(&mut v, 5, 10 * DAY);
        let badges = evaluate_badges(&v, &venue(5), Timestamp(10 * DAY), &NoVenues);
        assert!(!badges.contains(&Badge::Local));
    }

    #[test]
    fn super_user_thirty_in_month() {
        let mut u = user(1);
        for i in 0..30 {
            add_valid(&mut u, (i % 5) + 1, i * DAY / 2);
        }
        let now = Timestamp(29 * DAY / 2);
        let badges = evaluate_badges(&u, &venue(1), now, &NoVenues);
        assert!(badges.contains(&Badge::SuperUser));
    }

    #[test]
    fn crunked_and_overshare_bursts() {
        let mut u = user(1);
        for i in 0..10 {
            add_valid(&mut u, i + 1, 1000 + i * 1800);
        }
        let now = Timestamp(1000 + 9 * 1800);
        let badges = evaluate_badges(&u, &venue(10), now, &NoVenues);
        assert!(badges.contains(&Badge::Crunked));
        assert!(badges.contains(&Badge::Overshare));
    }

    #[test]
    fn school_night_hour_window() {
        let mut u = user(1);
        add_valid(&mut u, 1, 2 * HOUR); // 02:00
        let badges = evaluate_badges(&u, &venue(1), Timestamp(2 * HOUR), &NoVenues);
        assert!(badges.contains(&Badge::SchoolNight));
        let mut v = user(2);
        add_valid(&mut v, 1, 12 * HOUR); // noon
        let badges = evaluate_badges(&v, &venue(1), Timestamp(12 * HOUR), &NoVenues);
        assert!(!badges.contains(&Badge::SchoolNight));
    }

    #[test]
    fn category_badges_use_lookup() {
        struct Gyms;
        impl VenueLookup for Gyms {
            fn category_of(&self, _: VenueId) -> Option<VenueCategory> {
                Some(VenueCategory::Gym)
            }
        }
        let mut u = user(1);
        for i in 0..10 {
            add_valid(&mut u, 1, i * DAY + i * HOUR);
        }
        let now = Timestamp(9 * DAY + 9 * HOUR);
        let badges = evaluate_badges(&u, &venue(1), now, &Gyms);
        assert!(badges.contains(&Badge::GymRat));

        // FreshBrew counts distinct venues per category from user state.
        let mut c = user(2);
        add_valid(&mut c, 1, 0);
        c.venues_by_category.set(VenueCategory::Coffee, 5);
        let badges = evaluate_badges(&c, &venue(1), Timestamp(0), &NoVenues);
        assert!(badges.contains(&Badge::FreshBrew));
    }

    #[test]
    fn super_mayor_at_ten() {
        let mut u = user(1);
        add_valid(&mut u, 1, 0);
        for i in 0..10 {
            u.mayorships.insert(VenueId(i + 1));
        }
        let badges = evaluate_badges(&u, &venue(1), Timestamp(0), &NoVenues);
        assert!(badges.contains(&Badge::SuperMayor));
    }

    #[test]
    fn mayor_claims_vacant_venue_with_one_checkin() {
        let v = venue(1);
        let mut challenger = user(1);
        let now = Timestamp(100 * DAY);
        assert!(!decide_mayor(&v, &challenger, None, now));
        add_valid(&mut challenger, 1, 100 * DAY);
        assert!(decide_mayor(&v, &challenger, None, now));
    }

    #[test]
    fn mayor_requires_strictly_more_days() {
        let mut v = venue(1);
        let mut incumbent = user(1);
        for d in 0..4 {
            add_valid(&mut incumbent, 1, (100 + d) * DAY);
        }
        v.mayor = Some(incumbent.id);
        let now = Timestamp(104 * DAY);

        let mut tied = user(2);
        for d in 0..4 {
            add_valid(&mut tied, 1, (100 + d) * DAY + HOUR);
        }
        assert!(
            !decide_mayor(&v, &tied, Some(&incumbent), now),
            "tie keeps the incumbent"
        );

        let mut stronger = user(3);
        for d in 0..5 {
            add_valid(&mut stronger, 1, (99 + d) * DAY + HOUR);
        }
        assert!(decide_mayor(&v, &stronger, Some(&incumbent), now));
    }

    #[test]
    fn mayor_window_expires_old_days() {
        // The incumbent's check-ins have aged out of the 60-day window;
        // a single fresh day takes the crown.
        let mut v = venue(1);
        let mut incumbent = user(1);
        for d in 0..10 {
            add_valid(&mut incumbent, 1, d * DAY);
        }
        v.mayor = Some(incumbent.id);
        let mut challenger = user(2);
        let now = Timestamp(200 * DAY);
        add_valid(&mut challenger, 1, 200 * DAY);
        assert!(decide_mayor(&v, &challenger, Some(&incumbent), now));
    }

    #[test]
    fn many_checkins_one_day_count_once() {
        // "without consideration of how many check-ins occurred per day"
        let mut v = venue(1);
        let mut incumbent = user(1);
        add_valid(&mut incumbent, 1, 100 * DAY);
        add_valid(&mut incumbent, 1, 101 * DAY);
        v.mayor = Some(incumbent.id);

        let mut spammer = user(2);
        for i in 0..20 {
            add_valid(&mut spammer, 1, 102 * DAY + i * HOUR / 2);
        }
        // 20 check-ins but one day: 1 < 2, incumbent holds.
        assert!(!decide_mayor(
            &v,
            &spammer,
            Some(&incumbent),
            Timestamp(102 * DAY + 10 * HOUR)
        ));
    }

    #[test]
    fn existing_mayor_does_not_retransfer() {
        let mut v = venue(1);
        let mut mayor = user(1);
        add_valid(&mut mayor, 1, 100 * DAY);
        v.mayor = Some(mayor.id);
        assert!(!decide_mayor(
            &v,
            &mayor,
            Some(&mayor),
            Timestamp(100 * DAY)
        ));
    }

    #[test]
    fn badge_messages_unique() {
        let mut msgs: Vec<_> = Badge::ALL.iter().map(|b| b.message()).collect();
        msgs.sort();
        let before = msgs.len();
        msgs.dedup();
        assert_eq!(before, msgs.len());
    }
}
