//! End-of-run output checks over the whole world and the frontend's
//! own books. Per-op decisions are checked where they are made (see
//! `workload::Class::accepts`).

use std::collections::{HashMap, HashSet};

use lbsn_obs::names::server as names;
use lbsn_server::{LbsnServer, UserId, VenueId};

use crate::loadgen::Tally;

/// Every invariant violation found, as one line each.
pub fn invariants(server: &LbsnServer, tally: &Tally) -> Vec<String> {
    let mut out = Vec::new();
    if tally.submitted != tally.decided + tally.shed {
        out.push(format!(
            "benchmark books: submitted {} != decided {} + shed {}",
            tally.submitted, tally.decided, tally.shed
        ));
    }
    let snap = server.metrics().registry().snapshot();
    let (submitted, decided, shed) = (
        snap.counter(names::FRONTEND_SUBMITTED),
        snap.counter(names::FRONTEND_DECIDED),
        snap.counter(names::FRONTEND_SHED),
    );
    if submitted != decided + shed {
        out.push(format!(
            "frontend books: submitted {submitted} != decided {decided} + shed {shed}"
        ));
    }

    // Seats as the users record them, and who is branded.
    let mut claims: HashMap<VenueId, Vec<UserId>> = HashMap::new();
    let mut branded: HashSet<UserId> = HashSet::new();
    server.for_each_user(|u| {
        if u.branded_cheater {
            branded.insert(u.id);
            if !u.mayorships.is_empty() {
                out.push(format!(
                    "branded user {} holds {} mayor seat(s)",
                    u.id.value(),
                    u.mayorships.len()
                ));
            }
        }
        for &v in u.mayorships.iter() {
            claims.entry(v).or_default().push(u.id);
        }
    });
    for (venue, users) in &claims {
        if users.len() > 1 {
            out.push(format!(
                "venue {} claimed by {} users as mayor",
                venue.value(),
                users.len()
            ));
        }
    }
    // Seats as the venues record them must agree with the users' view.
    server.for_each_venue(|v| {
        let claimed = claims.get(&v.id).and_then(|u| u.first().copied());
        if v.mayor != claimed {
            out.push(format!(
                "venue {} mayor {:?} but user-side seat {:?}",
                v.id.value(),
                v.mayor.map(UserId::value),
                claimed.map(UserId::value)
            ));
        }
        if let Some(m) = v.mayor {
            if branded.contains(&m) {
                out.push(format!(
                    "venue {} seats branded user {}",
                    v.id.value(),
                    m.value()
                ));
            }
        }
    });
    out.truncate(20);
    out
}
