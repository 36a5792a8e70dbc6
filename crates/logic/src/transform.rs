//! Formula transformations: substitution, renaming, simplification, NNF, CNF.
//!
//! These are the building blocks of the paper's §3 machinery:
//! * `fs(u')[p_u/x]` — substituting a constant for a variable (independently
//!   constraint node test, minimization algorithm lines 6, 11, 18),
//! * `f[u1 ↦ u2]` — renaming variables (similarity and homomorphism checks),
//! * substituting whole formulas for variables (transitive structural
//!   predicates `ftr`), and
//! * CNF conversion (used to quantify the B-twig OR-block blow-up).

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
pub fn substitute<F>(expr: &BoolExpr, lookup: &F) -> BoolExpr
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
        BoolExpr::True => {
            if negated {
                BoolExpr::False
            } else {
                BoolExpr::True
            }
        }
        BoolExpr::False => {
            if negated {
                BoolExpr::True
            } else {
                BoolExpr::False
            }
        }
        BoolExpr::Var(v) => {
            if negated {
                BoolExpr::Not(Box::new(BoolExpr::Var(*v)))
            } else {
                BoolExpr::Var(*v)
            }
        }
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

/// A literal: a variable or its negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The variable.
    pub var: VarId,
    /// `false` when the literal is the negation of the variable.
    pub positive: bool,
}

impl Literal {
    /// The complementary literal.
    pub fn negated(self) -> Self {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }
}

/// A CNF formula: a conjunction of clauses, each a disjunction of literals.
///
/// `clauses` empty means `true`; an empty clause means `false`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    /// The clauses.
    pub clauses: Vec<Vec<Literal>>,
}

impl Cnf {
    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether there are no clauses (the formula `true`).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// Converts a formula to CNF by NNF + distribution.
///
/// Worst-case exponential, exactly like the OR-block construction the paper
/// criticises; GTPQ evaluation never calls this, only the analysis of
/// competing query representations does.
pub fn to_cnf(expr: &BoolExpr) -> Cnf {
    let nnf = to_nnf(&simplify(expr));
    let clauses = cnf_clauses(&nnf);
    let mut normalized: Vec<Vec<Literal>> = Vec::new();
    'outer: for mut clause in clauses {
        clause.sort_unstable();
        clause.dedup();
        // Drop tautological clauses containing p and !p.
        for lit in &clause {
            if clause.contains(&lit.negated()) {
                continue 'outer;
            }
        }
        if !normalized.contains(&clause) {
            normalized.push(clause);
        }
    }
    Cnf {
        clauses: normalized,
    }
}

fn cnf_clauses(expr: &BoolExpr) -> Vec<Vec<Literal>> {
    match expr {
        BoolExpr::True => vec![],
        BoolExpr::False => vec![vec![]],
        BoolExpr::Var(v) => vec![vec![Literal {
            var: *v,
            positive: true,
        }]],
        BoolExpr::Not(inner) => match **inner {
            BoolExpr::Var(v) => vec![vec![Literal {
                var: v,
                positive: false,
            }]],
            _ => unreachable!("input must be in NNF"),
        },
        BoolExpr::And(items) => items.iter().flat_map(cnf_clauses).collect(),
        BoolExpr::Or(items) => {
            let mut result: Vec<Vec<Literal>> = vec![vec![]];
            for item in items {
                let item_clauses = cnf_clauses(item);
                let mut next = Vec::with_capacity(result.len() * item_clauses.len().max(1));
                for r in &result {
                    for c in &item_clauses {
                        let mut merged = r.clone();
                        merged.extend_from_slice(c);
                        next.push(merged);
                    }
                }
                result = next;
                if result.is_empty() {
                    // One disjunct was `true`: the whole disjunction is true.
                    return vec![];
                }
            }
            result
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

    #[test]
    fn cnf_is_equivalent_and_clausal() {
        let e = sample();
        let cnf = to_cnf(&e);
        assert!(!cnf.is_empty());
        // Rebuild a BoolExpr from the CNF and compare.
        let rebuilt = BoolExpr::and(cnf.clauses.iter().map(|clause| {
            BoolExpr::or(clause.iter().map(|lit| {
                if lit.positive {
                    BoolExpr::Var(lit.var)
                } else {
                    BoolExpr::not(BoolExpr::Var(lit.var))
                }
            }))
        }));
        assert!(brute_force_equivalent(&e, &rebuilt));
        assert!(cnf.clauses.iter().all(|clause| !clause.is_empty()));
    }

    #[test]
    fn cnf_of_constants() {
        assert!(to_cnf(&BoolExpr::True).is_empty());
        let f = to_cnf(&BoolExpr::False);
        assert_eq!(f.clauses, vec![Vec::<Literal>::new()]);
    }

    #[test]
    fn cnf_blowup_is_observable() {
        // (a1 & b1) | (a2 & b2) | ... : CNF has 2^k clauses.
        let k = 4;
        let dnf = BoolExpr::or(
            (0..k).map(|i| BoolExpr::and2(BoolExpr::var(2 * i), BoolExpr::var(2 * i + 1))),
        );
        let cnf = to_cnf(&dnf);
        assert_eq!(cnf.len(), 1 << k);
    }
}
