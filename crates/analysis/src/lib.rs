//! Fundamental problems for GTPQs (paper §3): satisfiability, containment,
//! equivalence and minimization.
//!
//! All three decision procedures reduce to propositional reasoning over the
//! derived structural predicates computed in
//! [`gtpq_query::structural`]:
//!
//! * **Satisfiability** (Theorems 1–2): a GTPQ is satisfiable iff the root's
//!   attribute predicate and its *complete structural predicate* `fcs` are
//!   satisfiable.  Union-conjunctive queries are always satisfiable when
//!   their attribute predicates are; with negation the problem is
//!   NP-complete, and we hand the formula to `gtpq_logic`'s exact check
//!   (truth-table words, split on one variable at a time past six).
//! * **Containment / equivalence** (Theorems 3–4): `Q1 ⊑ Q2` iff there is a
//!   homomorphism from `Q2` to `Q1`; the search enumerates candidate images
//!   for the independently-constraint nodes (queries are small) and checks
//!   the formula implication between the complete predicates.
//! * **Minimization** (Algorithm 1, Theorem 6): removes nodes with
//!   unsatisfiable attribute predicates, non-independently-constraint nodes,
//!   subtrees with unsatisfiable complete predicates, and subtrees subsumed
//!   by similar siblings, rebuilding a smaller equivalent query.

pub mod containment;
pub mod minimize;
pub mod satisfiability;

pub use containment::{contained_in, equivalent};
pub use minimize::minimize;
pub use satisfiability::is_satisfiable;
