//! Formula evaluation under truth assignments.

use crate::expr::{BoolExpr, VarId};

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
        let mut value = |v: VarId| v == VarId(0) || v == VarId(2);
        let e = BoolExpr::and2(
            BoolExpr::var(0),
            BoolExpr::or2(BoolExpr::var(1), BoolExpr::var(2)),
        );
        assert!(eval_with(&e, &mut value));
        let e2 = BoolExpr::and2(BoolExpr::var(0), BoolExpr::var(1));
        assert!(!eval_with(&e2, &mut value));
        assert!(eval_with(&BoolExpr::not(BoolExpr::var(1)), &mut value));
        assert!(eval_with(&BoolExpr::True, &mut value));
        assert!(!eval_with(&BoolExpr::False, &mut value));
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
