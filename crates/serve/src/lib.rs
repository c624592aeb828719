//! `supermem-serve`: a concurrent serving engine over shared lock-free
//! persistent data structures.
//!
//! The paper's micro-benchmarks are closed-loop and private: each core
//! runs its own workload in its own region, and throughput is the only
//! number. This crate asks the question a storage service would ask:
//! what happens to **tail latency** when N cores hammer one *shared*
//! structure through the secure-memory write path — including while a
//! minor-counter overflow forces a page re-encryption storm, or after a
//! bank fail-stop degrades the media?
//!
//! * [`service`] — a Treiber stack, a Michael-Scott queue, and a
//!   bucketed hash whose CAS linearization points are made
//!   crash-recoverable with per-core descriptor slots
//!   ([`supermem_persist::SlotArray`]), verified against a volatile
//!   shadow model.
//! * [`traffic`] — deterministic open-loop traffic: Zipfian key skew,
//!   configurable read/write mix, Poisson arrivals.
//! * [`engine`] — the multi-core issue loop: earliest-ready-core
//!   arbitration in simulated time, sojourn-latency accounting,
//!   p50/p99/p999 from [`supermem_sim::Log2Histogram`] telemetry.
//! * [`torture`] — the serving subject of the crash-campaign harness
//!   (`supermem::torture`), aimed *inside* the CAS windows, with an
//!   exact two-state oracle per case.
//!
//! # Examples
//!
//! ```
//! use supermem_serve::engine::{run_serve, ServeConfig};
//! use supermem_serve::service::StructureKind;
//!
//! let cfg = ServeConfig {
//!     structure: StructureKind::Queue,
//!     cores: 2,
//!     requests: 16,
//!     region_len: 1 << 18,
//!     ..ServeConfig::default()
//! };
//! let report = run_serve(&cfg).unwrap();
//! assert_eq!(report.completed, 16);
//! assert!(report.p50 <= report.p999);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod schedule;
pub mod service;
pub mod torture;
pub mod traffic;
mod workload;

pub use engine::{run_serve, run_serve_observed, ServeConfig, ServeError, ServeReport};
pub use schedule::{DetachedSchedule, Directive, PointLog, SchedPoint, Schedule};
pub use service::{
    recover, walk_nodes, NodeView, RecoverError, RecoveredServe, Service, ServiceLayout,
    StructureKind,
};
pub use torture::{ServeCase, ServeTortureConfig};
pub use traffic::{ReqKind, Request, TrafficGen, TrafficSpec};
pub use workload::ServeWorkload;
