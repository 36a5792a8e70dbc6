//! Formula transformations: substitution, renaming, simplification, NNF.
//!
//! These are the building blocks of the paper's §3 machinery:
//! * `fs(u')[p_u/x]` — substituting a constant for a variable (independently
//!   constraint node test, minimization algorithm lines 6, 11, 18),
//! * `f[u1 ↦ u2]` — renaming variables (similarity and homomorphism checks),
//!   and
//! * substituting whole formulas for variables (transitive structural
//!   predicates `ftr`).

use std::collections::HashMap;

use crate::expr::{BoolExpr, VarId};

/// Substitutes the constant `value` for every occurrence of `var`.
///
/// This is the paper's `f[p_u / x]` notation.
pub fn substitute_const(expr: &BoolExpr, var: VarId, value: bool) -> BoolExpr {
    substitute(expr, &|v| {
        if v == var {
            Some(if value {
                BoolExpr::True
            } else {
                BoolExpr::False
            })
        } else {
            None
        }
    })
}

/// Substitutes formulas for variables according to `map`; variables not in the
/// map are left untouched.
pub fn substitute_map(expr: &BoolExpr, map: &HashMap<VarId, BoolExpr>) -> BoolExpr {
    substitute(expr, &|v| map.get(&v).cloned())
}

/// Renames variables according to `map` (the paper's `f[u1 ↦ u2]`).
pub fn rename_vars(expr: &BoolExpr, map: &HashMap<VarId, VarId>) -> BoolExpr {
    substitute(expr, &|v| map.get(&v).map(|&nv| BoolExpr::Var(nv)))
}

/// Generic substitution: `lookup` returns the replacement formula for a
/// variable, or `None` to keep it.  Rebuilds with the smart constructors so
/// constants fold away.
pub(crate) fn substitute<F>(expr: &BoolExpr, lookup: &F) -> BoolExpr
where
    F: Fn(VarId) -> Option<BoolExpr>,
{
    match expr {
        BoolExpr::True => BoolExpr::True,
        BoolExpr::False => BoolExpr::False,
        BoolExpr::Var(v) => lookup(*v).unwrap_or(BoolExpr::Var(*v)),
        BoolExpr::Not(e) => BoolExpr::not(substitute(e, lookup)),
        BoolExpr::And(items) => BoolExpr::and(items.iter().map(|e| substitute(e, lookup))),
        BoolExpr::Or(items) => BoolExpr::or(items.iter().map(|e| substitute(e, lookup))),
    }
}

/// Light simplification: constant folding, double-negation removal, flattening
/// of nested conjunctions/disjunctions, removal of duplicate operands and
/// detection of complementary literal pairs (`p ∧ ¬p → 0`, `p ∨ ¬p → 1`).
pub fn simplify(expr: &BoolExpr) -> BoolExpr {
    match expr {
        BoolExpr::True | BoolExpr::False | BoolExpr::Var(_) => expr.clone(),
        BoolExpr::Not(e) => BoolExpr::not(simplify(e)),
        BoolExpr::And(items) => {
            let simplified = BoolExpr::and(items.iter().map(simplify));
            dedup_connective(simplified, true)
        }
        BoolExpr::Or(items) => {
            let simplified = BoolExpr::or(items.iter().map(simplify));
            dedup_connective(simplified, false)
        }
    }
}

fn dedup_connective(expr: BoolExpr, is_and: bool) -> BoolExpr {
    let items = match expr {
        BoolExpr::And(items) if is_and => items,
        BoolExpr::Or(items) if !is_and => items,
        other => return other,
    };
    let mut kept: Vec<BoolExpr> = Vec::with_capacity(items.len());
    for item in items {
        if kept.contains(&item) {
            continue;
        }
        // Complementary pair check over literals.
        let complement = BoolExpr::not(item.clone());
        if kept.contains(&complement) {
            return if is_and {
                BoolExpr::False
            } else {
                BoolExpr::True
            };
        }
        kept.push(item);
    }
    if is_and {
        BoolExpr::and(kept)
    } else {
        BoolExpr::or(kept)
    }
}

/// Negation normal form: negation is pushed down to variables.
pub fn to_nnf(expr: &BoolExpr) -> BoolExpr {
    nnf_inner(expr, false)
}

fn nnf_inner(expr: &BoolExpr, negated: bool) -> BoolExpr {
    match expr {
        BoolExpr::True | BoolExpr::False | BoolExpr::Var(_) if negated => {
            BoolExpr::not(expr.clone())
        }
        BoolExpr::True | BoolExpr::False | BoolExpr::Var(_) => expr.clone(),
        BoolExpr::Not(e) => nnf_inner(e, !negated),
        BoolExpr::And(items) => {
            let converted = items.iter().map(|e| nnf_inner(e, negated));
            if negated {
                BoolExpr::or(converted)
            } else {
                BoolExpr::and(converted)
            }
        }
        BoolExpr::Or(items) => {
            let converted = items.iter().map(|e| nnf_inner(e, negated));
            if negated {
                BoolExpr::and(converted)
            } else {
                BoolExpr::or(converted)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sat::{brute_force_equivalent, equivalent};

    use super::*;

    fn sample() -> BoolExpr {
        // (p1 & !p2) | (p3 & (p1 | p2))
        BoolExpr::or2(
            BoolExpr::and2(BoolExpr::var(1), BoolExpr::not(BoolExpr::var(2))),
            BoolExpr::and2(
                BoolExpr::var(3),
                BoolExpr::or2(BoolExpr::var(1), BoolExpr::var(2)),
            ),
        )
    }

    #[test]
    fn substitute_const_folds() {
        let e = BoolExpr::and2(
            BoolExpr::var(1),
            BoolExpr::or2(BoolExpr::var(2), BoolExpr::var(3)),
        );
        assert_eq!(substitute_const(&e, VarId(1), false), BoolExpr::False);
        assert_eq!(
            substitute_const(&e, VarId(2), true),
            BoolExpr::var(1),
            "p1 & (1 | p3) simplifies to p1"
        );
    }

    #[test]
    fn rename_and_map_substitution() {
        let e = BoolExpr::and2(BoolExpr::var(1), BoolExpr::var(2));
        let mut rename = HashMap::new();
        rename.insert(VarId(1), VarId(9));
        assert_eq!(
            rename_vars(&e, &rename),
            BoolExpr::and2(BoolExpr::var(9), BoolExpr::var(2))
        );
        let mut map = HashMap::new();
        map.insert(VarId(2), BoolExpr::or2(BoolExpr::var(5), BoolExpr::var(6)));
        let sub = substitute_map(&e, &map);
        assert_eq!(
            sub,
            BoolExpr::and2(
                BoolExpr::var(1),
                BoolExpr::or2(BoolExpr::var(5), BoolExpr::var(6))
            )
        );
    }

    #[test]
    fn simplify_removes_duplicates_and_complements() {
        let e = BoolExpr::And(vec![BoolExpr::var(1), BoolExpr::var(1), BoolExpr::var(2)]);
        assert_eq!(
            simplify(&e),
            BoolExpr::and2(BoolExpr::var(1), BoolExpr::var(2))
        );
        let contradiction = BoolExpr::And(vec![BoolExpr::var(1), BoolExpr::not(BoolExpr::var(1))]);
        assert_eq!(simplify(&contradiction), BoolExpr::False);
        let tautology = BoolExpr::Or(vec![BoolExpr::var(1), BoolExpr::not(BoolExpr::var(1))]);
        assert_eq!(simplify(&tautology), BoolExpr::True);
    }

    #[test]
    fn nnf_pushes_negation_to_variables() {
        let e = BoolExpr::not(BoolExpr::and2(
            BoolExpr::var(1),
            BoolExpr::not(BoolExpr::var(2)),
        ));
        let nnf = to_nnf(&e);
        assert_eq!(
            nnf,
            BoolExpr::or2(BoolExpr::not(BoolExpr::var(1)), BoolExpr::var(2))
        );
        assert!(equivalent(&e, &nnf));
    }

    #[test]
    fn transformations_preserve_equivalence() {
        let e = sample();
        assert!(brute_force_equivalent(&e, &simplify(&e)));
        assert!(brute_force_equivalent(&e, &to_nnf(&e)));
    }
}
