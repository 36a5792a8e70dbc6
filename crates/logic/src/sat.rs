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
use crate::transform::{substitute, substitute_const, to_cnf, Literal};
use crate::valuation::{eval_words, Valuation};

/// Whether `expr` is satisfiable.
pub fn is_satisfiable(expr: &BoolExpr) -> bool {
    is_satisfiable_given_false(expr, |_| false)
}

/// Whether `expr` is satisfiable once every variable `fixed` names is 0.
///
/// With at most six free variables, one 64-bit word evaluates all their
/// assignments at once; otherwise DPLL decides it over the CNF.
pub fn is_satisfiable_given_false(expr: &BoolExpr, fixed: impl Fn(VarId) -> bool) -> bool {
    let mut vars = SmallVars::default();
    vars.scan(expr, &fixed);
    if !vars.overflow && vars.len <= WORD_VARS.len() {
        let word = |v: VarId| if fixed(v) { 0 } else { WORD_VARS[vars.slot(v)] };
        return eval_words(expr, &mut |v| word(v)) != 0;
    }
    let expr = substitute(expr, &|v| fixed(v).then_some(BoolExpr::False));
    satisfying_assignment(&expr).is_some()
}

/// Whether some assignment of the other variables lets `var` change the
/// value of `expr`.  Every variable of a read-once formula (constant-free,
/// no variable twice) does; otherwise `expr[var/1] ⊕ expr[var/0]` is
/// tested, over one truth-table word when at most six other variables
/// occur.
pub fn depends_on(expr: &BoolExpr, var: VarId) -> bool {
    if !expr.contains_var(var) {
        return false;
    }
    let mut vars = SmallVars::default();
    let shape = vars.scan(expr, &|_| false);
    if !shape.constant && !shape.repeated && !vars.overflow {
        return true;
    }
    if !vars.overflow && vars.len <= WORD_VARS.len() + 1 {
        let own = vars.slot(var);
        let eval = |value: u64| {
            eval_words(expr, &mut |v| match vars.slot(v) {
                s if s == own => value,
                s => WORD_VARS[s - usize::from(s > own)],
            })
        };
        return eval(!0) != eval(0);
    }
    is_satisfiable(&BoolExpr::xor(
        substitute_const(expr, var, true),
        substitute_const(expr, var, false),
    ))
}

/// Bit `i` of `WORD_VARS[j]` is bit `j` of `i`: the columns of a truth
/// table over six variables, one assignment per bit of a `u64`.
const WORD_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// What [`SmallVars::scan`] found besides the free variables.
#[derive(Default)]
struct Shape {
    /// A `1`, a `0` or a fixed variable occurs.
    constant: bool,
    /// Some free variable occurs more than once.
    repeated: bool,
}

/// The distinct variables of a small formula, without allocating; past
/// [`SmallVars::CAP`] of them only `overflow` is kept.
#[derive(Default)]
struct SmallVars {
    vars: [u32; SmallVars::CAP],
    len: usize,
    overflow: bool,
}

impl SmallVars {
    const CAP: usize = 16;

    /// Collects the variables of `e` that `fixed` leaves free.
    fn scan(&mut self, e: &BoolExpr, fixed: &impl Fn(VarId) -> bool) -> Shape {
        let mut shape = Shape::default();
        self.walk(e, fixed, &mut shape);
        shape
    }

    fn walk(&mut self, e: &BoolExpr, fixed: &impl Fn(VarId) -> bool, shape: &mut Shape) {
        match e {
            BoolExpr::True | BoolExpr::False => shape.constant = true,
            BoolExpr::Var(v) if fixed(*v) => shape.constant = true,
            BoolExpr::Var(v) => {
                if self.vars[..self.len].contains(&v.0) {
                    shape.repeated = true;
                } else if self.len < Self::CAP {
                    self.vars[self.len] = v.0;
                    self.len += 1;
                } else {
                    self.overflow = true;
                }
            }
            BoolExpr::Not(inner) => self.walk(inner, fixed, shape),
            BoolExpr::And(items) | BoolExpr::Or(items) => {
                // An empty connective is a constant.
                shape.constant |= items.is_empty();
                for item in items {
                    self.walk(item, fixed, shape);
                }
            }
        }
    }

    /// The position of a scanned variable.
    fn slot(&self, v: VarId) -> usize {
        self.vars[..self.len]
            .iter()
            .position(|&x| x == v.0)
            .expect("the variable was scanned")
    }
}

/// Returns a satisfying assignment of `expr`, if one exists.
///
/// Only the variables occurring in `expr` are meaningful in the returned
/// valuation; all others are false.
pub(crate) fn satisfying_assignment(expr: &BoolExpr) -> Option<Valuation> {
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
    fn implication_and_equivalence() {
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

    /// A random formula over `vars` variables, built with the raw variants
    /// (so unfolded constants and nesting occur) or the folding ones.
    fn random_formula(state: &mut u64, depth: u32, vars: u32, raw: bool) -> BoolExpr {
        let mut next = |n: u64| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % n
        };
        if depth == 0 || next(4) == 0 {
            return match next(8) {
                0 => BoolExpr::True,
                1 => BoolExpr::False,
                _ => BoolExpr::var(next(u64::from(vars)) as u32),
            };
        }
        let kind = next(3);
        let arity = next(4) as usize + usize::from(kind == 0);
        let items: Vec<BoolExpr> = (0..arity)
            .map(|_| random_formula(state, depth - 1, vars, raw))
            .collect();
        match (kind, raw) {
            (0, true) => BoolExpr::Not(Box::new(items.into_iter().next().expect("arity >= 1"))),
            (0, false) => BoolExpr::not(items.into_iter().next().expect("arity >= 1")),
            (1, true) => BoolExpr::And(items),
            (1, false) => BoolExpr::and(items),
            (_, true) => BoolExpr::Or(items),
            (_, false) => BoolExpr::or(items),
        }
    }

    #[test]
    fn every_shape_shortcut_agrees_with_brute_force() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for case in 0..4000 {
            let vars = [3, 6, 7, 12, 20][case % 5];
            let f = random_formula(&mut state, 4, vars, case % 2 == 0);
            assert_eq!(is_satisfiable(&f), brute_force_satisfiable(&f), "{f:?}");
            let fixed = |v: VarId| v.0 % 3 == 1;
            let zeroed = substitute(&f, &|v| fixed(v).then_some(BoolExpr::False));
            assert_eq!(
                is_satisfiable_given_false(&f, fixed),
                brute_force_satisfiable(&zeroed),
                "{f:?} with every third variable 0"
            );
            let var = VarId(case as u32 % vars);
            let flips = BoolExpr::xor(
                substitute_const(&f, var, true),
                substitute_const(&f, var, false),
            );
            assert_eq!(
                depends_on(&f, var),
                brute_force_satisfiable(&flips),
                "{f:?} on {var}"
            );
        }
    }
}
