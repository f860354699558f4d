//! # crowdfill-model
//!
//! The formal model of **CrowdFill** (Park & Widom, *CrowdFill: Collecting
//! Structured Data from the Crowd*, SIGMOD 2014), paper §2.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! builds on:
//!
//! * [`Schema`] / [`Column`] / [`Value`] — typed table schemas with optional
//!   per-column domains and a primary key (§2.1);
//! * [`Scoring`] — user-provided vote-aggregation functions with the model's
//!   invariants (`f(0,0) = 0`, monotonicity) enforced by [`score::validate`];
//! * [`RowValue`] / [`RowId`] — partial row values with the subsumption
//!   relation `⊇`, and globally-unique row identifiers (§2.2);
//! * [`CandidateTable`] and the [`derive_final_table`] derivation (§2.2);
//! * [`Operation`] / [`Message`] — the four primitive operations and their
//!   wire messages (§2.2, §2.4);
//! * [`Template`] / [`Predicate`] — cardinality, values, and predicates
//!   constraints with unique-witness satisfaction checking (§2.3).
//!
//! The *behavior* — how operations apply to replicas and how messages
//! propagate and converge — lives in `crowdfill-sync`; constraint
//! maintenance in `crowdfill-constraints`; compensation in `crowdfill-pay`.

#![forbid(unsafe_code)]

pub mod constraint;
pub mod error;
pub mod final_table;
pub mod intern;
pub mod op;
pub mod row;
pub mod schema;
pub mod score;
pub mod table;
pub mod value;

pub use constraint::{rows_satisfied_by, Entry, Predicate, Template, TemplateRow};
pub use error::{ModelError, OpError};
pub use final_table::{derive_final_table, FinalRow, FinalTable};
pub use intern::{IStr, Interner};
pub use op::{Message, MessageKind, Operation};
pub use row::{ClientId, RowId, RowValue};
pub use schema::{Column, ColumnId, Schema};
pub use score::{Difference, FnScoring, QuorumMajority, Scoring, ScoringRef};
pub use table::{CandidateTable, Key, RowEntry};
pub use value::{DataType, Date, Finite, Value};
