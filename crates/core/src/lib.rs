//! # csqp-core — GenCompact and GenModular capability-sensitive planners
//!
//! The primary contribution of *"Capability-Sensitive Query Processing on
//! Internet Sources"* (Garcia-Molina, Labio, Yerneni; ICDE 1999):
//!
//! - [`genmodular`] — the naive exhaustive scheme of §5 (rewrite → mark →
//!   [`epg`] → cost);
//! - [`gencompact`] — the efficient scheme of §6 (distributive rewrite →
//!   canonical CTs → [`ipg`] with pruning rules PR1–PR3 and [`mcsc`]);
//! - [`baselines`] — the CNF (Garlic), DNF, DISCO and naive-pushdown
//!   strategies the paper compares against;
//! - [`mediator`] — a per-source mediator/wrapper façade.
//!
//! ## Quickstart
//!
//! ```
//! use csqp_core::mediator::Mediator;
//! use csqp_core::types::TargetQuery;
//! use csqp_source::Catalog;
//!
//! let catalog = Catalog::demo_small(7);
//! let bookstore = catalog.get("bookstore").unwrap().clone();
//! let mediator = Mediator::new(bookstore);
//!
//! let query = TargetQuery::parse(
//!     r#"(author = "Sigmund Freud" _ author = "Carl Jung") ^ title contains "dreams""#,
//!     &["isbn", "title", "author"],
//! ).unwrap();
//!
//! let outcome = mediator.run(&query).unwrap();
//! println!("plan: {}", outcome.planned.plan);
//! assert_eq!(outcome.meter.queries, 2); // one query per author
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod cache;
pub mod calibrate;
pub mod capindex;
pub mod epg;
pub mod federation;
pub mod gencompact;
pub mod genmodular;
pub mod ipg;
pub mod join;
pub mod mark;
pub mod maxeval;
pub mod mcsc;
pub mod mediator;
pub mod plancache;
pub mod types;

pub use calibrate::CalibratedCard;
pub use capindex::{CapabilityIndex, IndexDecision};
pub use federation::{
    BreakerHealth, CircuitBreakerConfig, FailoverTrace, FederatedInput, FederatedRun, Federation,
    MemberEvent, PreparedFederated,
};
pub use gencompact::{plan_compact, GenCompactConfig};
pub use genmodular::{plan_modular, GenModularConfig};
pub use ipg::IpgConfig;
pub use join::{JoinConfig, JoinMediator, JoinOutcome, JoinQuery, JoinStrategy};
pub use mediator::{
    AdaptiveConfig, CardKind, Mediator, RunOutcome, Scheme, StreamInput, StreamOptions,
    StreamOutcome,
};
pub use plancache::{CacheDecision, CacheStats, PlanCache};
pub use types::{PlanError, PlannedQuery, PlannerReport, TargetQuery};
