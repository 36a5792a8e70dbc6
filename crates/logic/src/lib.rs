//! Propositional logic engine for GTPQ structural predicates.
//!
//! Structural predicates of the paper (§2) are propositional formulas over
//! variables `p_u` associated with query nodes, built from conjunction,
//! disjunction and negation.  The fundamental-problem algorithms (§3) need
//! substitution, implication/tautology checking and satisfiability, and the
//! baseline comparison needs CNF conversion (the B-twig "OR-block"
//! normalisation).  This crate provides all of that:
//!
//! * [`BoolExpr`] — the formula AST with smart constructors,
//! * [`valuation`] — formula evaluation under truth assignments,
//! * [`transform`] — substitution, renaming, simplification, NNF, CNF,
//! * [`sat`] — a DPLL SAT solver plus implication / equivalence checks
//!   (and a brute-force reference used in tests).
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
