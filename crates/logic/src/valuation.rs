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

/// [`eval_words`] in three-valued (Kleene) logic, over columns of `len`
/// words: each value is a column of pairs `(known true, known false)`, and
/// a bit set in neither word of its pair is unknown.
///
/// `lookup` gives a variable's column (all `(0, 0)` while it is unknown);
/// `!` swaps each pair, AND and OR combine the pairs word by word.  A bit
/// known in the result keeps its value whatever the unknown bits turn out
/// to be, so a caller resolving variables one at a time can stop for the
/// bits already decided.  With every variable known (`t == !f`) the true
/// words are [`eval_words`]'s.  The result is pushed as the last `len`
/// pairs of `stack`, the scratch the evaluation works in: one walk of the
/// formula per call, a column at a time, and no allocation once `stack`
/// has grown.
pub fn eval_kleene_columns<'a>(
    expr: &BoolExpr,
    len: usize,
    lookup: &mut impl FnMut(VarId) -> &'a [(u64, u64)],
    stack: &mut Vec<(u64, u64)>,
) {
    type Pair = (u64, u64);
    /// Folds the top column of `stack` into the one below it.
    fn fold(stack: &mut Vec<Pair>, len: usize, op: fn(Pair, Pair) -> Pair) {
        let top = stack.len() - len;
        let (acc, value) = stack[top - len..].split_at_mut(len);
        for (a, &v) in acc.iter_mut().zip(&*value) {
            *a = op(*a, v);
        }
        stack.truncate(top);
    }
    match expr {
        BoolExpr::True => stack.resize(stack.len() + len, (!0, 0)),
        BoolExpr::False => stack.resize(stack.len() + len, (0, !0)),
        BoolExpr::Var(v) => {
            let column = lookup(*v);
            assert_eq!(column.len(), len, "one pair per word");
            stack.extend_from_slice(column);
        }
        BoolExpr::Not(e) => {
            eval_kleene_columns(e, len, lookup, stack);
            let top = stack.len() - len;
            for (t, f) in &mut stack[top..] {
                std::mem::swap(t, f);
            }
        }
        BoolExpr::And(items) => {
            stack.resize(stack.len() + len, (!0, 0));
            for e in items {
                eval_kleene_columns(e, len, lookup, stack);
                fold(stack, len, |(t, f), (et, ef)| (t & et, f | ef));
            }
        }
        BoolExpr::Or(items) => {
            stack.resize(stack.len() + len, (0, !0));
            for e in items {
                eval_kleene_columns(e, len, lookup, stack);
                fold(stack, len, |(t, f), (et, ef)| (t | et, f & ef));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`eval_kleene_columns`] over one word.
    fn kleene_word(expr: &BoolExpr, lookup: impl Fn(VarId) -> (u64, u64)) -> (u64, u64) {
        let pairs: Vec<[(u64, u64); 1]> = (0..8).map(|k| [lookup(VarId(k))]).collect();
        let mut stack = Vec::new();
        eval_kleene_columns(expr, 1, &mut |v| &pairs[v.index()][..], &mut stack);
        assert_eq!(stack.len(), 1);
        stack[0]
    }

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
    fn eval_kleene_columns_is_sound_and_exact_on_read_once_formulas() {
        // Three variables, each unknown, true or false: assignment `i` (of
        // 27) gives `p_k` the `k`-th base-3 digit of `i` (0 unknown, 1 true,
        // 2 false).
        let digit = |i: u32, k: u32| (i / 3u32.pow(k)) % 3;
        let pair = |k: u32| {
            (0..27).fold((0u64, 0u64), |(t, f), i| match digit(i, k) {
                1 => (t | 1 << i, f),
                2 => (t, f | 1 << i),
                _ => (t, f),
            })
        };
        let (a, b, c) = (BoolExpr::var(0), BoolExpr::var(1), BoolExpr::var(2));
        // `a | !a` reads `a` twice: Kleene logic leaves it unknown where `a`
        // is, though every completion makes it true.
        let excluded_middle = BoolExpr::or2(a.clone(), BoolExpr::not(a.clone()));
        let formulas = [
            BoolExpr::True,
            BoolExpr::False,
            a.clone(),
            BoolExpr::not(b.clone()),
            excluded_middle.clone(),
            BoolExpr::or2(
                BoolExpr::and2(a.clone(), BoolExpr::not(b.clone())),
                c.clone(),
            ),
            BoolExpr::not(BoolExpr::And(vec![
                a.clone(),
                BoolExpr::Or(vec![b, BoolExpr::not(c)]),
            ])),
            BoolExpr::And(Vec::new()),
            BoolExpr::Or(Vec::new()),
        ];
        for f in &formulas {
            let (t, fw) = kleene_word(f, |v| pair(v.0));
            for i in 0..27u32 {
                // The values `f` takes over every completion of the unknowns.
                let mut seen = [false; 2];
                for fill in 0..8u32 {
                    let value = eval_with(f, &mut |v| match digit(i, v.0) {
                        1 => true,
                        2 => false,
                        _ => (fill >> v.0) & 1 == 1,
                    });
                    seen[usize::from(value)] = true;
                }
                // Sound everywhere: a known bit is every completion's value.
                // Exact on formulas that read each variable once.
                match (t >> i & 1 == 1, fw >> i & 1 == 1) {
                    (true, true) => panic!("{f}: assignment {i} both true and false"),
                    (true, false) => assert_eq!(seen, [false, true], "{f} under {i}"),
                    (false, true) => assert_eq!(seen, [true, false], "{f} under {i}"),
                    (false, false) => assert!(
                        seen == [true, true] || *f == excluded_middle,
                        "{f} under {i}: undecided, yet every completion agrees"
                    ),
                }
            }
            // Fully known, it is `eval_words`.
            let column = |k: u32| (0..64).fold(0u64, |w, i| w | (((i >> k) & 1) as u64) << i);
            let (t, fw) = kleene_word(f, |v| (column(v.0), !column(v.0)));
            assert_eq!(t, eval_words(f, &mut |v| column(v.0)), "{f}");
            assert_eq!(fw, !t, "{f}");
            // A column of several words is that many one-word evaluations.
            let words: Vec<Vec<(u64, u64)>> = (0..3)
                .map(|k| {
                    let (t, f) = pair(k);
                    (0..4)
                        .map(|w| (t.rotate_left(w), f.rotate_left(w)))
                        .collect()
                })
                .collect();
            let mut stack = vec![(7, 7)];
            eval_kleene_columns(f, 4, &mut |v| &words[v.index()][..], &mut stack);
            assert_eq!(stack.len(), 5, "{f}: the result is pushed");
            for w in 0..4 {
                let one = kleene_word(f, |v| words.get(v.index()).map_or((0, 0), |c| c[w]));
                assert_eq!(stack[1 + w], one, "{f}, word {w}");
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
