//! Propositional logic engine for GTPQ structural predicates.
//!
//! Structural predicates of the paper (§2) are propositional formulas over
//! variables `p_u` associated with query nodes, built from conjunction,
//! disjunction and negation.  The fundamental-problem algorithms (§3) need
//! substitution, implication/tautology checking and satisfiability.  This
//! crate provides all of that:
//!
//! * [`BoolExpr`] — the formula AST with smart constructors,
//! * [`valuation`] — formula evaluation under truth assignments,
//! * [`transform`] — substitution, renaming, simplification, NNF,
//! * [`sat`] — satisfiability over 64-bit truth-table words, split on one
//!   variable at a time past six, plus implication / equivalence checks
//!   (and a brute-force reference used in tests).
//!
//! The B-twig baseline's "OR-block" normalisation (the CNF the paper
//! criticises) is not reproduced; see `docs/ARCHITECTURE.md`,
//! "Substitutions".
//!
//! Formulas have no text syntax of their own: the query language parses
//! them as part of a query (`gtpq_query::parse_query`).

pub mod expr;
pub mod sat;
pub mod transform;
pub mod valuation;

pub use expr::{BoolExpr, DisplayWith, VarId};
pub use sat::{
    brute_force_satisfiable, depends_on, equivalent, implies, is_satisfiable,
    is_satisfiable_given_false,
};
