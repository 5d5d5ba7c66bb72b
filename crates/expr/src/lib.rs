//! # csqp-expr — condition-expression substrate
//!
//! Condition trees (CTs) for capability-sensitive query processing, as
//! defined in §3 of *"Capability-Sensitive Query Processing on Internet
//! Sources"* (Garcia-Molina, Labio, Yerneni; ICDE 1999).
//!
//! A CT's leaves are atomic conditions (`attr op constant`) and its internal
//! nodes are the Boolean connectors `^` (And) and `_` (Or). This crate
//! provides:
//!
//! - [`value`] / [`atom`] / [`tree`] — the core ADTs;
//! - [`canonical`] — the linear-time canonical form of §6.4;
//! - [`rewrite`] — the commutative/associative/distributive/copy rewrite
//!   rules of §5.1 and the distributive-only enumeration of §6.1;
//! - [`semantics`] — tuple evaluation and propositional-equivalence checking;
//! - [`normal`] — CNF/DNF conversion for the Garlic/DNF baseline planners;
//! - [`param`] — constant lifting: parameterized shapes + slot-wise rebind;
//! - [`parse`] / [`display`] — a round-trippable text syntax;
//! - [`gen`] — seeded random condition generation for workloads.
//!
//! ## Example
//!
//! ```
//! use csqp_expr::parse::parse_condition;
//! use csqp_expr::canonical::{canonicalize, is_canonical};
//!
//! let ct = parse_condition(
//!     "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"",
//! ).unwrap();
//! assert_eq!(ct.n_atoms(), 3);
//! assert!(is_canonical(&canonicalize(&ct)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atom;
pub mod canonical;
pub mod display;
pub mod gen;
pub mod intern;
pub mod normal;
pub mod param;
pub mod parse;
pub mod rewrite;
pub mod semantics;
pub mod tree;
pub mod value;

pub use atom::{Atom, CmpOp};
pub use intern::{Interner, Sym, SymSet};
pub use tree::{CondTree, Connector};
pub use value::{Text, Value, ValueType};
