//! # csqp-bench — experiment harness
//!
//! Workload generators and the E1–E10 experiment suite reproducing the
//! paper's evaluation claims (the ICDE'99 text defers its result tables to
//! the unavailable extended version; DESIGN.md §2 maps each claim to an
//! experiment here).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod fedcorpus;
pub mod par;
pub mod table;
pub mod workload;
