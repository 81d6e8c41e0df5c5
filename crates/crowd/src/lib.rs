//! # crowd-sim
//!
//! Crowdsourcing-platform substrate: simulated Amazon Mechanical Turk with
//! workers, HITs, quality control, truth inference and pricing. Implements
//! `coverage-core`'s `AnswerSource`, so every coverage algorithm runs
//! unchanged on a noisy crowd.
//!
//! The pipeline mirrors §2.3 and §6.3.1 of the paper:
//!
//! 1. a [`pool::WorkerPool`] with per-worker error profiles and
//!    AMT-style approval statistics;
//! 2. [`quality`] controls — qualification tests and rating filters decide
//!    who may work; redundancy (3 assignments/HIT in the paper) feeds
//! 3. [`truth`] inference — majority vote (the paper's choice), weighted
//!    vote, and Dawid–Skene EM;
//! 4. the [`platform::MTurkSim`] publishes HITs, collects assignments, and
//!    tracks answer-accuracy statistics (the paper observed 1.36 % wrong
//!    individual answers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
mod fingerprint;
pub mod latency;
pub mod platform;
pub mod pool;
pub mod quality;
pub mod truth;
pub mod worker;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultStats};
pub use latency::{LatencyModel, Round};
pub use platform::{MTurkSim, PlatformStats, SeedMode};
pub use pool::{PoolConfig, WorkerPool};
pub use quality::{QualificationTest, QualityControl, RatingFilter};
pub use truth::{majority_label, majority_vote, weighted_vote, DawidSkene};
pub use worker::{WorkerId, WorkerProfile};
