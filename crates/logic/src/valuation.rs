//! Truth assignments and formula evaluation.

use crate::expr::{BoolExpr, VarId};

/// A (possibly partial) truth assignment to propositional variables.
///
/// Variables are dense (they are query-node ids), so the assignment is a
/// plain vector indexed by [`VarId`].  Unassigned variables evaluate as
/// `false`, matching the paper's valuation `val[p] := 0` initialisation in
/// `PruneDownward`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Valuation {
    values: Vec<bool>,
}

impl Valuation {
    /// Creates an all-false valuation able to hold `n` variables.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![false; n],
        }
    }

    /// Sets variable `var` to `value`, growing the assignment if needed.
    pub(crate) fn set(&mut self, var: VarId, value: bool) {
        if var.index() >= self.values.len() {
            self.values.resize(var.index() + 1, false);
        }
        self.values[var.index()] = value;
    }

    /// The value of `var` (false when unassigned).
    #[inline]
    pub fn get(&self, var: VarId) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Evaluates `expr` under this valuation.
    pub(crate) fn eval(&self, expr: &BoolExpr) -> bool {
        match expr {
            BoolExpr::True => true,
            BoolExpr::False => false,
            BoolExpr::Var(v) => self.get(*v),
            BoolExpr::Not(e) => !self.eval(e),
            BoolExpr::And(items) => items.iter().all(|e| self.eval(e)),
            BoolExpr::Or(items) => items.iter().any(|e| self.eval(e)),
        }
    }
}

/// Evaluates `expr` under the assignment given by `lookup`.
///
/// Convenience for callers that already have truth values in another
/// structure (for example `val[p_u']` computed from reachability checks).
/// `lookup` runs once per variable occurrence the short-circuiting
/// evaluation reaches, so it may count the work behind each answer.
pub fn eval_with<F: FnMut(VarId) -> bool>(expr: &BoolExpr, lookup: &mut F) -> bool {
    match expr {
        BoolExpr::True => true,
        BoolExpr::False => false,
        BoolExpr::Var(v) => lookup(*v),
        BoolExpr::Not(e) => !eval_with(e, lookup),
        BoolExpr::And(items) => items.iter().all(|e| eval_with(e, lookup)),
        BoolExpr::Or(items) => items.iter().any(|e| eval_with(e, lookup)),
    }
}

/// Evaluates `expr` under 64 assignments at once: bit `i` of `lookup(v)` is
/// `v`'s value in assignment `i`, and bit `i` of the result is `expr`'s.
///
/// One walk of the formula per 64 assignments, with no short-circuit: the
/// set-at-a-time form of [`eval_with`] for callers that already hold every
/// variable's values as bit columns.
pub fn eval_words<F: FnMut(VarId) -> u64>(expr: &BoolExpr, lookup: &mut F) -> u64 {
    match expr {
        BoolExpr::True => !0,
        BoolExpr::False => 0,
        BoolExpr::Var(v) => lookup(*v),
        BoolExpr::Not(e) => !eval_words(e, lookup),
        BoolExpr::And(items) => items.iter().fold(!0, |acc, e| acc & eval_words(e, lookup)),
        BoolExpr::Or(items) => items.iter().fold(0, |acc, e| acc | eval_words(e, lookup)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_words_agrees_with_eval_with_bit_by_bit() {
        // Three variables; assignment `i` sets `p_k` to bit `k` of `i`, so
        // bits 0..8 enumerate every assignment (and 8..64 repeat them).
        let column = |k: u32| (0..64).fold(0u64, |w, i| w | (((i >> k) & 1) as u64) << i);
        let (a, b, c) = (BoolExpr::var(0), BoolExpr::var(1), BoolExpr::var(2));
        let formulas = [
            BoolExpr::True,
            BoolExpr::False,
            a.clone(),
            BoolExpr::not(b.clone()),
            BoolExpr::or2(
                BoolExpr::and2(a.clone(), BoolExpr::not(b.clone())),
                c.clone(),
            ),
            BoolExpr::xor(a.clone(), BoolExpr::implies(b.clone(), c.clone())),
            BoolExpr::And(vec![a.clone(), BoolExpr::Or(vec![b, BoolExpr::not(c)])]),
            BoolExpr::And(Vec::new()),
            BoolExpr::Or(Vec::new()),
        ];
        for f in &formulas {
            let words = eval_words(f, &mut |v| column(v.0));
            for i in 0..64u32 {
                let bit = eval_with(f, &mut |v| (i >> v.0) & 1 == 1);
                assert_eq!(words >> i & 1 == 1, bit, "{f} under assignment {i}");
            }
        }
    }

    #[test]
    fn eval_basic_connectives() {
        let mut v = Valuation::new(3);
        v.set(VarId(0), true);
        v.set(VarId(2), true);
        let e = BoolExpr::and2(
            BoolExpr::var(0),
            BoolExpr::or2(BoolExpr::var(1), BoolExpr::var(2)),
        );
        assert!(v.eval(&e));
        let e2 = BoolExpr::and2(BoolExpr::var(0), BoolExpr::var(1));
        assert!(!v.eval(&e2));
        assert!(v.eval(&BoolExpr::not(BoolExpr::var(1))));
        assert!(v.eval(&BoolExpr::True));
        assert!(!v.eval(&BoolExpr::False));
    }

    #[test]
    fn unassigned_variables_default_to_false() {
        let v = Valuation::new(0);
        assert!(!v.get(VarId(7)));
        assert!(!v.eval(&BoolExpr::var(7)));
    }

    #[test]
    fn set_grows_the_assignment() {
        let mut v = Valuation::new(1);
        v.set(VarId(5), true);
        assert!(v.get(VarId(5)));
        assert!(!v.get(VarId(4)));
    }

    #[test]
    fn eval_with_closure() {
        let e = BoolExpr::or2(BoolExpr::var(1), BoolExpr::not(BoolExpr::var(2)));
        assert!(eval_with(&e, &mut |v| v == VarId(1)));
        assert!(!eval_with(&e, &mut |v| v == VarId(2)));
        // Short-circuiting: the second disjunct is never looked up.
        let mut lookups = 0;
        assert!(eval_with(&e, &mut |v| {
            lookups += 1;
            v == VarId(1)
        }));
        assert_eq!(lookups, 1);
    }
}
