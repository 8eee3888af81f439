//! A simulated location-based social network (LBSN) service.
//!
//! This crate reimplements, from the outside in, the Foursquare behaviour
//! the paper documents and attacks:
//!
//! * numeric incrementing user and venue IDs (the crawlability weakness of
//!   §3.2);
//! * the check-in pipeline: GPS proximity verification, then the
//!   **cheater code** (§2.3) — same-venue cooldown, super-human speed,
//!   rapid-fire — then rewards;
//! * the reward ladder of §2.1: points for valid check-ins, badges for
//!   achievements, a single mayor per venue computed over a trailing
//!   60-day days-with-check-ins window, and venue *specials* (real-world
//!   rewards, >90 % mayor-only);
//! * the detection policy the paper's Fig 4.2 hinges on: **flagged
//!   check-ins still count toward a user's total but earn no rewards**;
//! * the public web frontend ([`web`]) whose profile pages the crawler
//!   scrapes, including the since-removed "Who's been here" list;
//! * the public server API ([`api`]) — spoofing vector 3 of §3.1.
//!
//! The server is thread-safe ([`LbsnServer`] is `Sync`); the crawler crate
//! hits the web frontend from many threads, exactly like the paper's
//! three-machine crawling rig.

#![warn(missing_docs)]

pub mod api;
pub mod cheatercode;
mod checkin;
mod compact;
mod frontend;
mod history;
mod ids;
pub mod metrics;
pub mod pipeline;
pub mod policy;
pub mod rewards;
mod server;
mod shard;
mod user;
mod venue;
pub mod web;

/// This crate's group of registered observability names (see
/// `lbsn_obs::names` for the registry and the lint that enforces it).
pub use lbsn_obs::names::server as metric_names;

pub use cheatercode::{CheaterCodeConfig, RuleContext};
pub use checkin::{
    AdmissionOutcome, CheatFlag, CheckinError, CheckinEvidence, CheckinOutcome, CheckinRecord,
    CheckinRequest, CheckinSource,
};
pub use compact::{ArenaStr, BadgeSet, CategoryCounts, IdSet, StrArena};
pub use frontend::{CheckinTicket, FrontendConfig, RequestFrontend, SubmitOutcome};
pub use history::{FlagSet, HeaderIter, HistoryIter, PackedHistory, PackedRecord, RecordHeader};
pub use ids::{UserId, VenueId};
pub use metrics::ServerMetrics;
pub use pipeline::{
    AdmissionPipeline, BrandedAccountDetector, CheckinVerifier, Detector, Judgement, RewardContext,
    RewardRule, VerifierVerdict, VerifyContext,
};
pub use policy::{DetectorConfig, PolicyConfig, RewardConfig};
pub use rewards::{Badge, PointsPolicy};
pub use server::{LbsnServer, ServerConfig};
pub use user::{User, UserCold, UserProfile, UserSpec};
pub use venue::{
    Special, SpecialKind, Tip, Venue, VenueActivity, VenueCategory, VenueCold, VenueSpec,
};
