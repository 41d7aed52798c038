//! # rtm-service
//!
//! The runtime service loop: the layer that closes the paper's on-line
//! management story. `rtm-sched` simulates arrival/placement/departure
//! on pure area bookkeeping; `rtm-core`'s [`RunTimeManager`] executes
//! real loads and live relocations on the device model — this crate
//! connects the two. A [`RuntimeService`] replays a [`trace::Trace`]
//! (function arrivals with area/deadline, departures, residency
//! expirations) through an `rtm-sched` admission policy, translates
//! every admitted request into [`RunTimeManager::load`] /
//! [`RunTimeManager::unload`] calls on a real device, and triggers a
//! defragmentation cycle — ordered compaction executed with staged
//! dynamic relocation, the moved functions running throughout — when
//! [`FragMetrics`](rtm_place::frag::FragMetrics) crosses a configured
//! threshold. The outcome is a structured
//! [`report::ServiceReport`]: admissions, rejections, relocation
//! traffic, frames written, and the fragmentation timeline.
//!
//! This mirrors how the surrounding literature evaluates run-time
//! managers — QoS-driven allocation (Ullmann et al.) and prefetch
//! scheduling (Resano et al.) both replay arrival/departure traces
//! against the allocator rather than poking single calls.
//!
//! ## Example
//!
//! ```
//! use rtm_service::{QosTier, RuntimeService, ServiceConfig};
//! use rtm_service::trace::{Arrival, Trace, TraceEvent};
//!
//! // Two functions arrive; the first departs when its residency ends.
//! let mut trace = Trace::new("hello-service");
//! trace.push(0, TraceEvent::Arrival(Arrival {
//!     id: 0, rows: 6, cols: 6, duration: Some(200_000), deadline: None,
//!     tier: QosTier::Standard,
//! }));
//! trace.push(50_000, TraceEvent::Arrival(Arrival {
//!     id: 1, rows: 4, cols: 4, duration: None, deadline: None,
//!     tier: QosTier::Standard,
//! }));
//!
//! let mut service = RuntimeService::new(ServiceConfig::default());
//! let report = service.run(&trace).unwrap();
//! assert_eq!(report.admitted, 2);
//! assert_eq!(report.departures, 1);
//! assert_eq!(report.resident_at_end, 1, "the daemon stays loaded");
//! // The admitted functions are real: placed, routed, configured.
//! assert_eq!(service.manager().functions().count(), 1);
//! ```
//!
//! [`RunTimeManager`]: rtm_core::RunTimeManager
//! [`RunTimeManager::load`]: rtm_core::RunTimeManager::load
//! [`RunTimeManager::unload`]: rtm_core::RunTimeManager::unload

#![warn(missing_docs)]

pub mod config;
pub mod report;
pub mod service;
pub mod trace;

pub use config::{QueueOrder, ServiceConfig};
pub use report::{ServiceReport, TierCounts};
pub use rtm_sched::qos::QosTier;
pub use service::{
    AdmissionBid, Displacement, MigratingFunction, OfferOutcome, ReserveOutcome, RuntimeService,
    TicketOutcome,
};
pub use trace::{Scenario, Trace, TraceEvent};
