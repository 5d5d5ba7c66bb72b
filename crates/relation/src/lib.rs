//! # csqp-relation — in-memory relational substrate
//!
//! The paper models each Internet source as a relation (§3). This crate
//! provides the storage and evaluation substrate the simulated sources and
//! the mediator executor run on:
//!
//! - [`schema`] / [`mod@tuple`] / [`relation`] — typed schemas, tuples, and
//!   duplicate-free in-memory relations;
//! - [`ops`] — selection, projection, union, intersection, difference (the
//!   mediator postprocessing operators of §3);
//! - [`stream`] — pull-based batch streaming: [`stream::TupleBatch`],
//!   the [`stream::TupleStream`] protocol, and the batch transforms and
//!   dedup sketch the streaming executor is built from;
//! - [`stats`] — single-column statistics and selectivity estimation for the
//!   §6.2 cost model;
//! - [`csv`] — a small CSV loader for user data (the CLI's input format);
//! - [`datagen`] — seeded generators reproducing the cardinality profiles of
//!   the paper's example sources (bookstore, car guide, car dealer, bank,
//!   flights).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod datagen;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod stream;
pub mod tuple;

pub use relation::Relation;
pub use schema::{Schema, SchemaError};
pub use stats::TableStats;
pub use stream::{DedupSketch, TupleBatch, TupleStream, DEFAULT_BATCH_SIZE};
pub use tuple::{Row, Tuple};
