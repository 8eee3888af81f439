//! Reference scans for the reward stage.
//!
//! These are the reward windows as first written: every record in the
//! window is fully decoded and counted, with no early exit. The reward
//! stage itself (`lbsn_server::rewards`, `User::distinct_days_at`) walks
//! record headers and stops once the answer is known; the tests hold it
//! equal to these functions over arbitrary histories.

use std::collections::HashSet;

use lbsn_server::rewards::{Badge, VenueLookup, MAYOR_WINDOW};
use lbsn_server::{PackedRecord, User, Venue, VenueCategory, VenueId};
use lbsn_sim::{Timestamp, DAY, HOUR};

/// Valid check-ins at `venue` no earlier than `since`, newest first,
/// fully decoded (reference for `User::rewarded_at_since`).
fn valid_checkins_at_since(
    user: &User,
    venue: VenueId,
    since: Timestamp,
) -> impl Iterator<Item = PackedRecord> + '_ {
    user.valid_checkins_since(since)
        .filter(move |r| r.venue == venue)
}

/// Reference for `User::distinct_days_at`: a fresh set of the days of
/// every valid check-in at `venue` in the window.
pub fn distinct_days_at(user: &User, venue: VenueId, since: Timestamp) -> u32 {
    let mut days = HashSet::new();
    for r in valid_checkins_at_since(user, venue, since) {
        days.insert(r.at.day());
    }
    days.len() as u32
}

/// Reference for `rewards::decide_mayor`: both day counts in
/// full, then the §2.1 comparison.
pub fn decide_mayor(
    venue: &Venue,
    challenger: &User,
    incumbent: Option<&User>,
    now: Timestamp,
) -> bool {
    if venue.mayor == Some(challenger.id) {
        return false;
    }
    let window_start = Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()));
    let challenger_days = distinct_days_at(challenger, venue.id, window_start);
    if challenger_days == 0 {
        return false;
    }
    match incumbent {
        None => true,
        Some(inc) => challenger_days > distinct_days_at(inc, venue.id, window_start),
    }
}

/// Reference for `rewards::evaluate_badges`: every criterion
/// is evaluated, held or not, and every window is counted in full.
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

    let distinct = user.visited_venues.len();
    check(Badge::Newbie, user.valid_checkins >= 1);
    check(Badge::Adventurer, distinct >= 10);
    check(Badge::Explorer, distinct >= 25);
    check(Badge::Superstar, distinct >= 50);
    check(Badge::Warhol, distinct >= 100);

    let today = now.day();
    if today >= 3 {
        let window_start = Timestamp::at_day(today - 3);
        let mut days = HashSet::new();
        for r in user.valid_checkins_since(window_start) {
            days.insert(r.at.day());
        }
        check(
            Badge::Bender,
            (today - 3..=today).all(|d| days.contains(&d)),
        );
    }

    let week_ago = Timestamp(now.secs().saturating_sub(7 * DAY));
    check(
        Badge::Local,
        valid_checkins_at_since(user, venue.id, week_ago).count() >= 3,
    );

    let month_ago = Timestamp(now.secs().saturating_sub(30 * DAY));
    check(
        Badge::SuperUser,
        user.valid_checkins_since(month_ago).count() >= 30,
    );

    let half_day_ago = Timestamp(now.secs().saturating_sub(12 * HOUR));
    let burst = user.valid_checkins_since(half_day_ago).count();
    check(Badge::Crunked, burst >= 4);
    check(Badge::Overshare, burst >= 10);

    let hour_of_day = (now.secs() % DAY) / HOUR;
    check(Badge::SchoolNight, (1..4).contains(&hour_of_day));

    let coffee = user.venues_by_category.count(VenueCategory::Coffee);
    check(Badge::FreshBrew, coffee >= 5);
    let airports = user.venues_by_category.count(VenueCategory::Airport);
    check(Badge::JetSetter, airports >= 5);

    let gym_visits = user
        .valid_checkins_since(month_ago)
        .filter(|r| venues.category_of(r.venue) == Some(VenueCategory::Gym))
        .count();
    check(Badge::GymRat, gym_visits >= 10);

    check(Badge::SuperMayor, user.mayorships.len() >= 10);

    earned
}
