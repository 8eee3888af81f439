//! Property-based tests: invariants of the check-in pipeline under
//! arbitrary interleavings of users, venues, locations, and time gaps.

use std::sync::Arc;

use lbsn_geo::{destination, GeoPoint};
use lbsn_server::{
    CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};
use proptest::prelude::*;

mod oracle;

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// One scripted action against the server.
#[derive(Debug, Clone)]
struct Step {
    user: u64,
    venue: u64,
    // Where the reported fix lands relative to the venue: metres away.
    fix_offset_m: f64,
    fix_bearing: f64,
    advance_secs: u64,
}

fn arb_step(users: u64, venues: u64) -> impl Strategy<Value = Step> {
    (
        1..=users,
        1..=venues,
        prop_oneof![Just(0.0), 10.0..20_000.0f64],
        0.0..360.0f64,
        prop_oneof![
            Just(0u64),
            1u64..120,          // rapid-fire territory
            1_800u64..10_800,   // calm spacing
            86_400u64..200_000, // day+ gaps
        ],
    )
        .prop_map(
            |(user, venue, fix_offset_m, fix_bearing, advance_secs)| Step {
                user,
                venue,
                fix_offset_m,
                fix_bearing,
                advance_secs,
            },
        )
}

fn build_world(users: u64, venues: u64) -> Arc<LbsnServer> {
    let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
    for i in 0..venues {
        // Venues scattered within ~30 km so steps can be both near and far.
        let loc = destination(abq(), (i * 67 % 360) as f64, 200.0 + 1_500.0 * i as f64);
        server.register_venue(VenueSpec::new(format!("V{i}"), loc));
    }
    for _ in 0..users {
        server.register_user(UserSpec::anonymous());
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting invariants hold after any action sequence.
    #[test]
    fn pipeline_accounting_invariants(steps in prop::collection::vec(arb_step(4, 6), 1..80)) {
        let server = build_world(4, 6);
        let mut submitted = 0u64;
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let fix = if s.fix_offset_m == 0.0 {
                venue_loc
            } else {
                destination(venue_loc, s.fix_bearing, s.fix_offset_m)
            };
            let out = server
                .check_in(&CheckinRequest {
                    user: UserId(s.user),
                    venue: VenueId(s.venue),
                    reported_location: fix,
                    source: CheckinSource::MobileApp,
                })
                .unwrap();
            submitted += 1;
            // Outcome-level invariants.
            prop_assert_eq!(out.rewarded(), out.flags.is_empty());
            if !out.rewarded() {
                prop_assert_eq!(out.points, 0);
                prop_assert!(out.new_badges.is_empty());
                prop_assert!(!out.became_mayor);
            }
        }

        // Per-user invariants.
        let mut total_all = 0u64;
        let mut points_all = 0u64;
        for uid in 1..=4u64 {
            server.with_user(UserId(uid), |u| {
                total_all += u.total_checkins;
                points_all += u.points;
                assert_eq!(u.total_checkins, u.valid_checkins + u.flagged_checkins);
                assert_eq!(u.history.len() as u64, u.total_checkins);
                assert_eq!(
                    u.history.iter().filter(|r| r.rewarded).count() as u64,
                    u.valid_checkins
                );
                // History is time-ordered.
                let records: Vec<_> = u.history.iter().collect();
                for w in records.windows(2) {
                    assert!(w[0].at <= w[1].at);
                }
                // Distinct-venue tracking matches history.
                let mut distinct: Vec<_> =
                    u.history.iter().filter(|r| r.rewarded).map(|r| r.venue).collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct, u.visited_venues.as_slice());
            }).unwrap();
        }
        prop_assert_eq!(total_all, submitted);

        // Per-venue invariants.
        let mut venue_valid = 0u64;
        for vid in 1..=6u64 {
            server.with_venue(VenueId(vid), |v| {
                venue_valid += v.checkins_here;
                assert!(v.recent_visitors().len() <= 10);
                // Recent list entries are unique.
                let set: std::collections::HashSet<_> = v.recent_visitors().iter().collect();
                assert_eq!(set.len(), v.recent_visitors().len());
                // Everyone on the recent list is a unique visitor.
                for u in v.recent_visitors() {
                    assert!(v.unique_visitors().contains(u));
                }
                assert!(v.unique_visitors().len() as u64 <= v.checkins_here);
            }).unwrap();
        }
        // Venue valid totals equal user valid totals.
        let user_valid: u64 = (1..=4u64)
            .map(|uid| server.with_user(UserId(uid), |u| u.valid_checkins).unwrap())
            .sum();
        prop_assert_eq!(venue_valid, user_valid);
        let _ = points_all;
    }

    /// Mayorship invariants: at most one mayor, and the mayor actually
    /// visited; a branded cheater never holds a mayorship.
    #[test]
    fn mayorship_invariants(steps in prop::collection::vec(arb_step(3, 4), 1..60)) {
        let server = build_world(3, 4);
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs.max(1)));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let fix = if s.fix_offset_m == 0.0 {
                venue_loc
            } else {
                destination(venue_loc, s.fix_bearing, s.fix_offset_m)
            };
            let _ = server.check_in(&CheckinRequest {
                user: UserId(s.user),
                venue: VenueId(s.venue),
                reported_location: fix,
                source: CheckinSource::MobileApp,
            });
        }
        // Cross-check mayors both ways.
        for vid in 1..=4u64 {
            let mayor = server.venue(VenueId(vid)).unwrap().mayor;
            if let Some(m) = mayor {
                server.with_user(m, |u| {
                    assert!(u.mayorships.contains(&VenueId(vid)));
                    assert!(!u.branded_cheater, "branded user holds a mayorship");
                    assert!(
                        u.history.iter().any(|r| r.rewarded && r.venue == VenueId(vid)),
                        "mayor never validly visited"
                    );
                }).unwrap();
            }
        }
        for uid in 1..=3u64 {
            server.with_user(UserId(uid), |u| {
                for v in &u.mayorships {
                    assert_eq!(
                        server.venue(*v).unwrap().mayor,
                        Some(UserId(uid)),
                        "mayorship set out of sync"
                    );
                }
            }).unwrap();
        }
    }

    /// Badges are monotone (never lost) and unique; points never
    /// decrease.
    #[test]
    fn rewards_are_monotone(steps in prop::collection::vec(arb_step(2, 5), 1..60)) {
        let server = build_world(2, 5);
        let mut last_points = [0u64; 3];
        let mut last_badges = [0usize; 3];
        for s in &steps {
            server.clock().advance(Duration::secs(s.advance_secs));
            let venue_loc = server.venue(VenueId(s.venue)).unwrap().location;
            let _ = server.check_in(&CheckinRequest {
                user: UserId(s.user),
                venue: VenueId(s.venue),
                reported_location: destination(venue_loc, s.fix_bearing, s.fix_offset_m),
                source: CheckinSource::MobileApp,
            });
            let idx = s.user as usize;
            let (points, badges) = server
                .with_user(UserId(s.user), |u| (u.points, u.badges.len()))
                .unwrap();
            prop_assert!(points >= last_points[idx]);
            prop_assert!(badges >= last_badges[idx]);
            last_points[idx] = points;
            last_badges[idx] = badges;
        }
    }
}

/// An arbitrary check-in record for the packed-history round trip:
/// venue ids across the full range, timestamps in any order (the delta
/// encoding is signed), coordinates both on and off the 1e-7-degree
/// quantization grid, every flag subset, both sources.
fn arb_record() -> impl Strategy<Value = lbsn_server::CheckinRecord> {
    (
        1u64..=5_600_000,
        0u64..=4_000_000_000,
        (-90i32 * 10_000_000..=90 * 10_000_000).prop_map(|q| q as f64 / 1e7),
        (-180i32 * 10_000_000..=180 * 10_000_000).prop_map(|q| q as f64 / 1e7),
        prop_oneof![Just(0.0f64), -4e-9..4e-9f64], // nudge off the grid
        any::<bool>(),
        0u8..32,
    )
        .prop_map(
            |(venue, at, lat, lon, jitter, api, flag_bits): (u64, u64, f64, f64, f64, bool, u8)| {
                let flags = lbsn_server::FlagSet::from_bits(flag_bits).to_vec();
                lbsn_server::CheckinRecord {
                    venue: VenueId(venue),
                    at: lbsn_sim::Timestamp(at),
                    location: GeoPoint::new(
                        (lat + jitter).clamp(-90.0, 90.0),
                        (lon + jitter).clamp(-180.0, 180.0),
                    )
                    .unwrap(),
                    source: if api {
                        CheckinSource::ServerApi
                    } else {
                        CheckinSource::MobileApp
                    },
                    rewarded: flags.is_empty(),
                    flags,
                }
            },
        )
}

proptest! {
    /// The packed history encodes and decodes arbitrary record streams
    /// identically: forward iteration, backward iteration, and random
    /// O(1) offset decodes all reproduce every field bit-for-bit —
    /// including flag sets, both entry sources, and coordinates that
    /// don't sit on the quantization grid.
    #[test]
    fn packed_history_round_trips(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut h = lbsn_server::PackedHistory::new();
        let mut offsets = Vec::new();
        for r in &records {
            offsets.push(h.push(r));
        }
        prop_assert_eq!(h.len(), records.len());

        // Forward (oldest-first) and backward (newest-first) scans.
        let fwd: Vec<_> = h.iter().map(|p| p.to_record()).collect();
        prop_assert_eq!(&fwd, &records);
        let back: Vec<_> = h.iter().rev().map(|p| p.to_record()).collect();
        let mut rev = records.clone();
        rev.reverse();
        prop_assert_eq!(&back, &rev);

        // Out-of-order point decodes via the stored offsets.
        for (i, &off) in offsets.iter().enumerate().rev() {
            let got = h.decode_at(off, records[i].at).to_record();
            prop_assert_eq!(&got, &records[i]);
        }
    }

    /// Scans bounded by a timestamp window match the naive filter over
    /// the same stream: no record inside the window is skipped, none
    /// outside it leaks in.
    #[test]
    fn packed_history_window_scans_match_naive(
        records in prop::collection::vec(arb_record(), 1..60),
        cut in 0u64..=4_000_000_000,
    ) {
        let mut h = lbsn_server::PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        let since = lbsn_sim::Timestamp(cut);
        // Newest-first, the direction the detectors scan in.
        let got: Vec<_> = h
            .iter()
            .rev()
            .map(|p| p.to_record())
            .filter(|r| r.at >= since)
            .collect();
        let mut want: Vec<_> = records.iter().filter(|r| r.at >= since).cloned().collect();
        want.reverse();
        prop_assert_eq!(got, want);
    }
}

/// Virtual day, in seconds.
const DAY: u64 = 86_400;

/// The deciding op's time in the reward-window properties: day 100, at
/// any time of day.
fn arb_now() -> impl Strategy<Value = u64> {
    (0..DAY).prop_map(|s| 100 * DAY + s)
}

/// A `(venue, offset, rewarded)` stream for the reward windows, where
/// `offset` is seconds after `now − 70 d`. Offsets mix the whole 140-day
/// span around `now` (records dated after `now` included, some past the
/// 64-day bitmap), the trailing month and the trailing half day, so
/// badge thresholds are reachable. Half of the streams are sorted by
/// time (the shape of a serial history); the rest keep the arbitrary
/// order concurrent appends can leave. Half are a daily regular's: a
/// valid check-in at venue 1 on each of the 61 days the mayor window
/// touches, nothing dated after `now` — the shape that fills a window,
/// so two of them tie on the mayorship.
fn arb_reward_stream() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    let offset = prop_oneof![
        0..=140 * DAY,
        39 * DAY..=70 * DAY + 3_600,
        70 * DAY - 13 * 3_600..=70 * DAY + 3_600,
    ];
    let record = (1u64..=3, offset, (0u8..5).prop_map(|x| x != 0));
    (
        prop::collection::vec(record, 0..120),
        any::<bool>(),
        any::<bool>(),
        0..DAY,
    )
        .prop_map(
            |(mut stream, sorted, daily, time_of_day): (Vec<(u64, u64, bool)>, _, _, _)| {
                if daily {
                    for r in &mut stream {
                        r.1 = r.1.min(70 * DAY);
                    }
                    let days = (10..70)
                        .map(|d| (1, d * DAY + time_of_day, true))
                        .chain(std::iter::once((1, 70 * DAY, true)));
                    stream.splice(0..0, days);
                }
                if sorted {
                    stream.sort_by_key(|&(_, offset, _)| offset);
                }
                stream
            },
        )
}

/// Venue 1 is a gym, venue 2 a coffee shop, the rest uncategorized.
struct TestCategories;

impl lbsn_server::rewards::VenueLookup for TestCategories {
    fn category_of(&self, venue: VenueId) -> Option<lbsn_server::VenueCategory> {
        match venue.value() {
            1 => Some(lbsn_server::VenueCategory::Gym),
            2 => Some(lbsn_server::VenueCategory::Coffee),
            _ => None,
        }
    }
}

/// Registered users `1..=n` of a fresh server, each with `stream[i]`
/// appended directly to its history (no pipeline), and the server's
/// venue 1.
fn users_with_streams(
    now: u64,
    streams: &[&[(u64, u64, bool)]],
) -> (Vec<lbsn_server::User>, lbsn_server::Venue) {
    let server = build_world(streams.len() as u64, 1);
    let base = now - 70 * DAY;
    let users = streams
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            let mut u = server
                .with_user(UserId(i as u64 + 1), |u| u.clone())
                .unwrap();
            for &(venue, offset, rewarded) in stream.iter() {
                u.push_record(lbsn_server::CheckinRecord {
                    venue: VenueId(venue),
                    at: lbsn_sim::Timestamp(base + offset),
                    location: abq(),
                    source: CheckinSource::MobileApp,
                    rewarded,
                    flags: if rewarded {
                        vec![]
                    } else {
                        vec![lbsn_server::CheatFlag::TooFrequent]
                    },
                });
                if rewarded {
                    u.valid_checkins += 1;
                    u.visited_venues.insert(VenueId(venue));
                }
            }
            u
        })
        .collect();
    (users, server.venue(VenueId(1)).unwrap())
}

proptest! {
    // Cheap cases; enough of them that counts land on each badge
    // threshold and full windows meet on the mayorship.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The header-only walk yields exactly the venue, timestamp and
    /// rewarded bit of every record, newest first, for streams in any
    /// timestamp order and with any coordinate encoding.
    #[test]
    fn header_walk_matches_reverse_decode(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut h = lbsn_server::PackedHistory::new();
        for r in &records {
            h.push(r);
        }
        let walked: Vec<_> = h.headers_rev().map(|x| (x.venue, x.at, x.rewarded)).collect();
        let decoded: Vec<_> = h.iter().rev().map(|r| (r.venue, r.at, r.rewarded)).collect();
        prop_assert_eq!(walked, decoded);
    }

    /// The bitmap day count equals the reference set count for any
    /// window start, capped or not.
    #[test]
    fn distinct_days_match_the_oracle(
        now in arb_now(),
        stream in arb_reward_stream(),
        venue in 1u64..=3,
        since_offset in 0..=140 * DAY,
        cap in 0u32..70,
    ) {
        let (users, _) = users_with_streams(now, &[&stream]);
        let u = &users[0];
        let since = lbsn_sim::Timestamp(now - 70 * DAY + since_offset);
        let want = oracle::distinct_days_at(u, VenueId(venue), since);
        prop_assert_eq!(u.distinct_days_at(VenueId(venue), since), want);
        prop_assert_eq!(u.distinct_days_at_capped(VenueId(venue), since, cap), want.min(cap + 1));
    }

    /// The early-exit mayorship decision equals the full count, for a
    /// vacant seat, a held seat and the challenger's own seat.
    #[test]
    fn decide_mayor_matches_the_oracle(
        now in arb_now(),
        challenger in arb_reward_stream(),
        incumbent in arb_reward_stream(),
        seat in 0u64..3,
    ) {
        let (users, mut venue) = users_with_streams(now, &[&challenger, &incumbent]);
        let (ch, inc) = (&users[0], &users[1]);
        venue.mayor = match seat {
            0 => None,
            1 => Some(inc.id),
            _ => Some(ch.id),
        };
        let holder = venue.mayor.map(|m| &users[m.value() as usize - 1]);
        let at = lbsn_sim::Timestamp(now);
        prop_assert_eq!(
            lbsn_server::rewards::decide_mayor(&venue, ch, holder, at),
            oracle::decide_mayor(&venue, ch, holder, at)
        );
    }

    /// Badge evaluation with held-badge skipping and threshold stops
    /// awards exactly what the full scans award, whatever is held.
    #[test]
    fn evaluate_badges_matches_the_oracle(
        now in arb_now(),
        stream in arb_reward_stream(),
        held in 0u16..1 << 15,
        mayorships in 0u64..12,
    ) {
        let (mut users, venue) = users_with_streams(now, &[&stream]);
        let u = &mut users[0];
        for (i, badge) in lbsn_server::Badge::ALL.iter().enumerate() {
            if held & (1 << i) != 0 {
                u.badges.insert(*badge);
            }
        }
        for v in 0..mayorships {
            u.mayorships.insert(VenueId(v + 1));
        }
        let at = lbsn_sim::Timestamp(now);
        prop_assert_eq!(
            lbsn_server::rewards::evaluate_badges(u, &venue, at, &TestCategories),
            oracle::evaluate_badges(u, &venue, at, &TestCategories)
        );
    }
}

/// A valid check-in at venue 1 on each of the 61 day indices a 60-day
/// mayor window touches, as a stream for [`users_with_streams`].
fn full_window() -> Vec<(u64, u64, bool)> {
    (0..=60)
        .rev()
        .map(|back| (1, (70 - back) * DAY, true))
        .collect()
}

/// Challenger (user 1) against the sitting mayor (user 2) of venue 1:
/// the fast decision, asserted equal to the reference scan.
fn challenge(now: u64, challenger: &[(u64, u64, bool)], incumbent: &[(u64, u64, bool)]) -> bool {
    let (users, mut venue) = users_with_streams(now, &[challenger, incumbent]);
    venue.mayor = Some(users[1].id);
    let at = lbsn_sim::Timestamp(now);
    let got = lbsn_server::rewards::decide_mayor(&venue, &users[0], Some(&users[1]), at);
    assert_eq!(
        got,
        oracle::decide_mayor(&venue, &users[0], Some(&users[1]), at)
    );
    got
}

#[test]
fn full_window_tie_keeps_the_incumbent() {
    let now = 100 * DAY + 7 * 3_600;
    assert!(!challenge(now, &full_window(), &full_window()));
    // One day short of a full window loses the seat to one.
    let short: Vec<_> = full_window().into_iter().skip(1).collect();
    assert!(challenge(now, &full_window(), &short));
}

#[test]
fn a_late_62nd_day_beats_a_full_window() {
    // A concurrent op can append a record dated after the deciding op's
    // `now`; it is in the window and breaks the 61-day tie.
    let now = 100 * DAY + 7 * 3_600;
    let mut late = full_window();
    late.push((1, 71 * DAY, true));
    assert!(challenge(now, &late, &full_window()));
}

#[test]
fn distinct_days_past_the_bitmap_match_the_oracle() {
    // Records 63, 64 and 100 days after `since`: the last two are past
    // the 64-day bitmap and must count, once each, without a shift
    // overflow.
    let now = 100 * DAY;
    let stream = [
        (7, 5, true),
        (7, 64 * DAY, true),
        (7, 64 * DAY + 100, true),
        (7, 100 * DAY, true),
        (7, 63 * DAY, true),
        (7, 100 * DAY + 1, true),
    ];
    let (users, _) = users_with_streams(now, &[&stream]);
    let since = lbsn_sim::Timestamp(now - 70 * DAY + 5);
    let days = users[0].distinct_days_at(VenueId(7), since);
    assert_eq!(days, 4);
    assert_eq!(days, oracle::distinct_days_at(&users[0], VenueId(7), since));
    for cap in 0..5 {
        assert_eq!(
            users[0].distinct_days_at_capped(VenueId(7), since, cap),
            days.min(cap + 1)
        );
    }
}
