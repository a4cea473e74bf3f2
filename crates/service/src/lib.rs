//! Multi-tenant payment serving for truthful unicast: per-AP engine
//! shards, epoch-swapped pricing snapshots, anycast settlement, and a
//! deterministic load harness.
//!
//! The crates below this one answer "what does a session cost?" —
//! [`truthcast_core`]'s engines price one epoch, one AP, one caller at
//! a time. This crate answers the production question the roadmap's
//! north star actually poses: *many* access points, *millions* of
//! sessions, mobility epochs rolling underneath, and a front-end that
//! must never stop quoting prices while tables re-warm. The moving
//! parts:
//!
//! - [`shard::Shard`] — one per AP: a warm
//!   [`IncrementalEngine`](truthcast_core::delta::IncrementalEngine)
//!   plus a bounded admission queue. Epoch churn (including node
//!   join/leave, surfaced as
//!   [`EpochOutcome::ColdResize`](truthcast_core::delta::EpochOutcome))
//!   is reported per shard, never hidden.
//! - [`epoch`] — the read-copy-update publication unit, `ServiceEpoch`:
//!   one generation's k immutable [`epoch::ApSnapshot`]s, published
//!   once per epoch by a single pointer swap; stale readers drain on
//!   their own schedule.
//! - [`service::PaymentService`] — the anycast batch front-end: each
//!   batch reads one epoch, each source settles at the cheapest of its
//!   k AP snapshots (ties to the lowest AP index), bit-identically at
//!   any thread count.
//! - [`loadgen`] — the seeded open/closed-loop generator that drives
//!   million-session runs and reports exact p50/p95/p99 latency.
//!
//! The concurrency design, backpressure semantics, and determinism
//! argument are laid out in `DESIGN.md` §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod loadgen;
pub mod service;
pub mod shard;

pub use epoch::{ApCell, ApSnapshot};
pub use loadgen::{run_load, ArrivalMode, LoadConfig, LoadReport};
pub use service::{PaymentService, ServeOutcome, ServiceConfig, SettledPricing, Settlement};
pub use shard::Shard;
