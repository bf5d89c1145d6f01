//! Metrics for the `edgecache` workspace.
//!
//! The paper stresses that "an aggregated metrics system is crucial for cache
//! tuning and debugging" (§7): thousands of local cache deployments need their
//! counters rolled up to a cluster-level view, and *error breakdowns* (error
//! counts per operation and per concrete error type) were called out as the
//! single most useful debugging signal.
//!
//! This crate provides:
//!
//! * [`Counter`] and [`Gauge`] — lock-free scalar metrics.
//! * [`Histogram`] — a log-bucketed histogram with percentile estimation and
//!   lossless merging, used for latency distributions (P50/P90/P95 figures).
//! * [`MetricRegistry`] — a named collection of metrics with error-breakdown
//!   recording, snapshots, and JSON export.
//! * [`conservation`] — snapshot-diff conservation laws
//!   ([`assert_conserved`]), the invariant-oracle vocabulary of the
//!   simulation harness.
//! * [`trace`] — hierarchical spans with per-stage latency attribution:
//!   clock-driven (deterministic under `SimClock`), near-zero cost when
//!   disabled, exporting per-stage histograms, a slow-op log, and Chrome
//!   trace-event JSON.

pub mod conservation;
pub mod histogram;
pub mod registry;
pub mod scalar;
pub mod trace;

pub use conservation::{assert_conserved, server_laws, ConservationLaw, Relation, SnapshotDiff};
pub use histogram::{Histogram, HistogramSnapshot, Percentiles};
pub use registry::{MetricRegistry, RegistrySnapshot};
pub use scalar::{Counter, Gauge};
pub use trace::{Span, SpanId, SpanRecord, StageSummary, Tracer};
