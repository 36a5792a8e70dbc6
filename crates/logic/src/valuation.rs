//! Truth assignments and formula evaluation.

use crate::expr::{BoolExpr, VarId};

/// A (possibly partial) truth assignment to propositional variables.
///
/// Variables are dense (they are query-node ids), so the assignment is a
/// plain vector indexed by [`VarId`].  Unassigned variables evaluate as
/// `false`, matching the paper's valuation `val[p] := 0` initialisation in
/// `PruneDownward`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Valuation {
    values: Vec<bool>,
}

impl Valuation {
    /// Creates an all-false valuation able to hold `n` variables.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![false; n],
        }
    }

    /// Creates a valuation from an explicit vector of truth values.
    pub fn from_vec(values: Vec<bool>) -> Self {
        Self { values }
    }

    /// Sets variable `var` to `value`, growing the assignment if needed.
    pub fn set(&mut self, var: VarId, value: bool) {
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

    /// Resets every variable to false, keeping the capacity.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = false);
    }

    /// Number of variables with capacity in this valuation.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the valuation holds no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates `expr` under this valuation.
    pub fn eval(&self, expr: &BoolExpr) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn set_grows_and_clear_resets() {
        let mut v = Valuation::new(1);
        v.set(VarId(5), true);
        assert!(v.get(VarId(5)));
        assert_eq!(v.len(), 6);
        v.clear();
        assert!(!v.get(VarId(5)));
        assert!(!v.is_empty());
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
