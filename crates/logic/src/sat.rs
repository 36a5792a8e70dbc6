//! Satisfiability and derived decision procedures.
//!
//! The paper reduces GTPQ satisfiability, containment and minimization to
//! propositional SAT / tautology checks (Theorems 1–6) and notes that query
//! sizes are small in practice, so an exact solver is appropriate.  We use a
//! DPLL solver with unit propagation and pure-literal elimination over the
//! CNF produced by [`transform::to_cnf`](crate::transform::to_cnf); a
//! brute-force truth-table check is kept as a cross-validation oracle.

use std::collections::HashMap;

use crate::expr::{BoolExpr, VarId};
use crate::transform::{to_cnf, Literal};
use crate::valuation::Valuation;

/// Whether `expr` is satisfiable.
pub fn is_satisfiable(expr: &BoolExpr) -> bool {
    satisfying_assignment(expr).is_some()
}

/// Returns a satisfying assignment of `expr`, if one exists.
///
/// Only the variables occurring in `expr` are meaningful in the returned
/// valuation; all others are false.
pub fn satisfying_assignment(expr: &BoolExpr) -> Option<Valuation> {
    let cnf = to_cnf(expr);
    let mut assignment: HashMap<VarId, bool> = HashMap::new();
    if dpll(cnf.clauses.clone(), &mut assignment) {
        let mut v = Valuation::new(0);
        for (var, value) in assignment {
            v.set(var, value);
        }
        Some(v)
    } else {
        None
    }
}

/// Whether `expr` is a tautology.
pub fn is_tautology(expr: &BoolExpr) -> bool {
    !is_satisfiable(&BoolExpr::not(expr.clone()))
}

/// Whether `a → b` is a tautology.
pub fn implies(a: &BoolExpr, b: &BoolExpr) -> bool {
    !is_satisfiable(&BoolExpr::and2(a.clone(), BoolExpr::not(b.clone())))
}

/// Whether `a` and `b` are logically equivalent.
pub fn equivalent(a: &BoolExpr, b: &BoolExpr) -> bool {
    implies(a, b) && implies(b, a)
}

/// DPLL with unit propagation and pure-literal elimination.
fn dpll(mut clauses: Vec<Vec<Literal>>, assignment: &mut HashMap<VarId, bool>) -> bool {
    loop {
        if clauses.is_empty() {
            return true;
        }
        if clauses.iter().any(Vec::is_empty) {
            return false;
        }
        // Unit propagation.
        if let Some(unit) = clauses.iter().find(|c| c.len() == 1).map(|c| c[0]) {
            assignment.insert(unit.var, unit.positive);
            clauses = assign(&clauses, unit);
            continue;
        }
        // Pure literal elimination.
        if let Some(pure) = find_pure_literal(&clauses) {
            assignment.insert(pure.var, pure.positive);
            clauses = assign(&clauses, pure);
            continue;
        }
        break;
    }

    // Branch on the most frequent variable.
    let var = most_frequent_var(&clauses).expect("non-empty clauses have variables");
    for &value in &[true, false] {
        let lit = Literal {
            var,
            positive: value,
        };
        let mut local = assignment.clone();
        local.insert(var, value);
        if dpll(assign(&clauses, lit), &mut local) {
            *assignment = local;
            return true;
        }
    }
    false
}

/// Applies a literal assignment: satisfied clauses are dropped, the
/// complementary literal is removed from the remaining clauses.
fn assign(clauses: &[Vec<Literal>], lit: Literal) -> Vec<Vec<Literal>> {
    let mut out = Vec::with_capacity(clauses.len());
    for clause in clauses {
        if clause.contains(&lit) {
            continue;
        }
        let filtered: Vec<Literal> = clause
            .iter()
            .copied()
            .filter(|l| *l != lit.negated())
            .collect();
        out.push(filtered);
    }
    out
}

fn find_pure_literal(clauses: &[Vec<Literal>]) -> Option<Literal> {
    let mut polarity: HashMap<VarId, (bool, bool)> = HashMap::new();
    for clause in clauses {
        for lit in clause {
            let entry = polarity.entry(lit.var).or_insert((false, false));
            if lit.positive {
                entry.0 = true;
            } else {
                entry.1 = true;
            }
        }
    }
    polarity
        .into_iter()
        .find(|(_, (pos, neg))| pos != neg)
        .map(|(var, (pos, _))| Literal { var, positive: pos })
}

fn most_frequent_var(clauses: &[Vec<Literal>]) -> Option<VarId> {
    let mut counts: HashMap<VarId, usize> = HashMap::new();
    for clause in clauses {
        for lit in clause {
            *counts.entry(lit.var).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(var, count)| (count, std::cmp::Reverse(var)))
        .map(|(var, _)| var)
}

/// Brute-force satisfiability over all `2^n` assignments.
///
/// Test oracle only; panics if the formula has more than 24 variables.
pub fn brute_force_satisfiable(expr: &BoolExpr) -> bool {
    let vars = expr.variables();
    assert!(vars.len() <= 24, "brute force limited to 24 variables");
    let mut v = Valuation::new(0);
    for mask in 0u32..(1u32 << vars.len()) {
        for (i, &var) in vars.iter().enumerate() {
            v.set(var, mask & (1 << i) != 0);
        }
        if v.eval(expr) {
            return true;
        }
    }
    vars.is_empty() && v.eval(expr)
}

/// Brute-force logical equivalence (test oracle).
pub fn brute_force_equivalent(a: &BoolExpr, b: &BoolExpr) -> bool {
    let mut vars = a.variables();
    vars.extend(b.variables());
    vars.sort_unstable();
    vars.dedup();
    assert!(vars.len() <= 24, "brute force limited to 24 variables");
    let mut v = Valuation::new(0);
    for mask in 0u32..(1u32 << vars.len()) {
        for (i, &var) in vars.iter().enumerate() {
            v.set(var, mask & (1 << i) != 0);
        }
        if v.eval(a) != v.eval(b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sat_and_unsat() {
        let sat = BoolExpr::and2(
            BoolExpr::var(1),
            BoolExpr::or2(BoolExpr::var(2), BoolExpr::var(3)),
        );
        assert!(is_satisfiable(&sat));
        let unsat = BoolExpr::and2(BoolExpr::var(1), BoolExpr::not(BoolExpr::var(1)));
        assert!(!is_satisfiable(&unsat));
        assert!(is_satisfiable(&BoolExpr::True));
        assert!(!is_satisfiable(&BoolExpr::False));
    }

    #[test]
    fn satisfying_assignment_satisfies() {
        let e = BoolExpr::and2(
            BoolExpr::or2(BoolExpr::var(1), BoolExpr::var(2)),
            BoolExpr::and2(BoolExpr::not(BoolExpr::var(1)), BoolExpr::var(3)),
        );
        let v = satisfying_assignment(&e).expect("satisfiable");
        assert!(v.eval(&e));
        assert!(satisfying_assignment(&BoolExpr::False).is_none());
    }

    #[test]
    fn tautology_and_implication() {
        let taut = BoolExpr::or2(BoolExpr::var(1), BoolExpr::not(BoolExpr::var(1)));
        assert!(is_tautology(&taut));
        assert!(!is_tautology(&BoolExpr::var(1)));
        let a = BoolExpr::and2(BoolExpr::var(1), BoolExpr::var(2));
        let b = BoolExpr::var(1);
        assert!(implies(&a, &b));
        assert!(!implies(&b, &a));
        assert!(equivalent(
            &a,
            &BoolExpr::and2(BoolExpr::var(2), BoolExpr::var(1))
        ));
    }

    #[test]
    fn dpll_agrees_with_brute_force_on_fixed_formulas() {
        let formulas = vec![
            BoolExpr::and([
                BoolExpr::or2(BoolExpr::var(0), BoolExpr::var(1)),
                BoolExpr::or2(BoolExpr::not(BoolExpr::var(0)), BoolExpr::var(2)),
                BoolExpr::or2(
                    BoolExpr::not(BoolExpr::var(1)),
                    BoolExpr::not(BoolExpr::var(2)),
                ),
            ]),
            BoolExpr::and([
                BoolExpr::var(0),
                BoolExpr::or2(BoolExpr::not(BoolExpr::var(0)), BoolExpr::var(1)),
                BoolExpr::not(BoolExpr::var(1)),
            ]),
            BoolExpr::xor(BoolExpr::var(3), BoolExpr::var(4)),
        ];
        for f in formulas {
            assert_eq!(is_satisfiable(&f), brute_force_satisfiable(&f), "{f}");
        }
    }
}
