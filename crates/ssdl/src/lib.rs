//! # csqp-ssdl — the Simple Source-Description Language
//!
//! SSDL (§4 of *"Capability-Sensitive Query Processing on Internet
//! Sources"*, ICDE 1999) describes an Internet source's query capabilities
//! as a context-free grammar over linearized condition expressions, plus
//! per-form exportable-attribute associations. This crate provides:
//!
//! - [`ast`] — the ⟨S, G, A⟩ description triplet and a builder;
//! - [`lexer`] / [`parser`] — the SSDL text format;
//! - [`grammar`] — compiled grammars (interning, nullable sets);
//! - [`earley`] — an Earley recognizer (any CFG; linear on SSDL grammars);
//! - [`mod@linearize`] — the condition-tree → token-stream contract;
//! - [`check`] — the paper's `Check(C, R)` function and [`check::ExportSet`]
//!   antichains;
//! - [`closure`] — §6.1's commutativity elimination (permutation closure of
//!   the description), whose run-time fix step is
//!   [`CompiledSource::admit`], minting an [`Admitted`] source query;
//! - [`form`] — web-form–style capability construction;
//! - [`templates`] — bookstore / car guide / car dealer / bank / flights /
//!   full-relational / conjunctive-only / download-only sources.
//!
//! ## Example
//!
//! ```
//! use csqp_ssdl::parser::parse_ssdl;
//! use csqp_ssdl::check::CompiledSource;
//! use csqp_expr::parse::parse_condition;
//! use std::collections::BTreeSet;
//!
//! let desc = parse_ssdl(r#"
//!     source car_dealer {
//!       s1 -> make = $str ^ price < $int ;
//!       attributes :: s1 : { make, model, year, color } ;
//!     }
//! "#).unwrap();
//! let source = CompiledSource::new(desc);
//!
//! let cond = parse_condition(r#"make = "BMW" ^ price < 40000"#).unwrap();
//! let attrs: BTreeSet<String> = ["model", "year"].iter().map(|s| s.to_string()).collect();
//! assert!(source.supports(Some(&cond), &attrs));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod check;
pub mod closure;
pub mod earley;
pub mod error;
pub mod facts;
pub mod form;
pub mod grammar;
pub mod lexer;
pub mod linearize;
pub mod parser;
pub mod templates;
pub mod token;

pub use ast::SsdlDesc;
pub use check::{Admitted, CompiledSource, ExportSet, SharedCheckCache};
pub use error::SsdlError;
pub use facts::{AtomClass, CapabilityFacts, FormFacts};
pub use linearize::{
    cond_fingerprint, linearize, linearize_masked, masked_fingerprint, tokens_fingerprint,
    Fingerprint,
};
pub use parser::parse_ssdl;
