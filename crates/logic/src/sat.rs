//! Satisfiability and derived decision procedures.
//!
//! The paper reduces GTPQ satisfiability, containment and minimization to
//! propositional SAT / tautology checks (Theorems 1–6) and notes that query
//! sizes are small in practice, so an exact solver is appropriate.  One
//! procedure decides every formula: at most six free variables are
//! evaluated at once over one 64-bit truth-table word, and a larger formula
//! is split on one free variable (Shannon expansion) until its branches are
//! that small.  A brute-force truth-table check is kept as a
//! cross-validation oracle.

use crate::expr::{BoolExpr, VarId};
use crate::transform::{substitute, substitute_const};
use crate::valuation::{eval_with, eval_words};

/// Whether `expr` is satisfiable.
pub fn is_satisfiable(expr: &BoolExpr) -> bool {
    is_satisfiable_given_false(expr, |_| false)
}

/// Whether `expr` is satisfiable once every variable `fixed` names is 0.
///
/// With at most six free variables, one 64-bit word evaluates all their
/// assignments at once.  Otherwise the first free variable is set to 0 and
/// then to 1, and each branch folds its constants and is decided the same
/// way: time is exponential in the free variables past six at worst,
/// memory one pending folded formula per split.  The pending branches live
/// on a heap stack, so a split as deep as the formula has variables cannot
/// overflow the thread's stack.
pub fn is_satisfiable_given_false(expr: &BoolExpr, fixed: impl Fn(VarId) -> bool) -> bool {
    if let Ok(sat) = word_check(expr, &fixed) {
        return sat;
    }
    let mut pending = vec![substitute(expr, &|v| fixed(v).then_some(BoolExpr::False))];
    while let Some(branch) = pending.pop() {
        match word_check(&branch, &|_| false) {
            Ok(true) => return true,
            Ok(false) => {}
            Err(split) => {
                pending.push(substitute_const(&branch, split, true));
                pending.push(substitute_const(&branch, split, false));
            }
        }
    }
    false
}

/// Whether `expr` is satisfiable with every variable `fixed` names 0, over
/// one truth-table word, when at most six variables are free; otherwise
/// the first free variable, to split on.
fn word_check(expr: &BoolExpr, fixed: &impl Fn(VarId) -> bool) -> Result<bool, VarId> {
    let mut vars = SmallVars::default();
    vars.scan(expr, fixed);
    if vars.overflow || vars.len > WORD_VARS.len() {
        return Err(VarId(vars.vars[0]));
    }
    let word = |v: VarId| if fixed(v) { 0 } else { WORD_VARS[vars.slot(v)] };
    Ok(eval_words(expr, &mut |v| word(v)) != 0)
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

/// Whether `a → b` is a tautology.
pub fn implies(a: &BoolExpr, b: &BoolExpr) -> bool {
    !is_satisfiable(&BoolExpr::and2(a.clone(), BoolExpr::not(b.clone())))
}

/// Whether `a` and `b` are logically equivalent.
pub fn equivalent(a: &BoolExpr, b: &BoolExpr) -> bool {
    implies(a, b) && implies(b, a)
}

/// Brute-force satisfiability over all `2^n` assignments.
///
/// Test oracle only; panics if the formula has more than 24 variables, and
/// allocates one slot per variable id up to the largest.
pub fn brute_force_satisfiable(expr: &BoolExpr) -> bool {
    let vars = expr.variables();
    assert!(vars.len() <= 24, "brute force limited to 24 variables");
    let slot = slots(&vars);
    (0u32..1 << vars.len()).any(|mask| eval_with(expr, &mut |v| mask >> slot[v.index()] & 1 == 1))
}

/// Brute-force logical equivalence (test oracle).
pub fn brute_force_equivalent(a: &BoolExpr, b: &BoolExpr) -> bool {
    let mut vars = a.variables();
    vars.extend(b.variables());
    vars.sort_unstable();
    vars.dedup();
    assert!(vars.len() <= 24, "brute force limited to 24 variables");
    let slot = slots(&vars);
    (0u32..1 << vars.len()).all(|mask| {
        let mut value = |v: VarId| mask >> slot[v.index()] & 1 == 1;
        eval_with(a, &mut value) == eval_with(b, &mut value)
    })
}

/// `slot[v]`: the position of `v` among the sorted `vars`, which is the
/// bit of an assignment mask holding its value.
fn slots(vars: &[VarId]) -> Vec<u32> {
    let mut slot = vec![0; vars.last().map_or(0, |v| v.index() + 1)];
    for (i, v) in (0..).zip(vars) {
        slot[v.index()] = i;
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::to_nnf;

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
    fn fixed_formulas_agree_with_brute_force() {
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

    /// One xorshift step of `state`, reduced modulo `n`.
    fn next(state: &mut u64, n: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % n
    }

    /// A random formula over `vars` variables, built with the raw variants
    /// (so unfolded constants and nesting occur) or the folding ones.
    fn random_formula(state: &mut u64, depth: u32, vars: u32, raw: bool) -> BoolExpr {
        if depth == 0 || next(state, 4) == 0 {
            return match next(state, 8) {
                0 => BoolExpr::True,
                1 => BoolExpr::False,
                _ => BoolExpr::var(next(state, u64::from(vars)) as u32),
            };
        }
        let kind = next(state, 3);
        let arity = next(state, 4) as usize + usize::from(kind == 0);
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

    /// A random formula in which each of `0..vars` occurs, then a third as
    /// many repeats.  Past [`SmallVars::CAP`] variables, the split starts
    /// without knowing them all.
    fn wide_formula(state: &mut u64, vars: u32) -> BoolExpr {
        let repeats = (0..vars / 3).map(|_| next(state, u64::from(vars)) as u32);
        let leaves: Vec<u32> = (0..vars).chain(repeats).collect();
        join(state, &leaves)
    }

    /// `leaves` joined by `∧` / `∨` over random cuts, each part negated at
    /// random.
    fn join(state: &mut u64, leaves: &[u32]) -> BoolExpr {
        let joined = match leaves {
            [v] => BoolExpr::var(*v),
            _ => {
                let cut = 1 + next(state, leaves.len() as u64 - 1) as usize;
                let (left, right) = (join(state, &leaves[..cut]), join(state, &leaves[cut..]));
                match next(state, 2) {
                    0 => BoolExpr::and2(left, right),
                    _ => BoolExpr::or2(left, right),
                }
            }
        };
        match next(state, 3) {
            0 => BoolExpr::not(joined),
            _ => joined,
        }
    }

    /// `is_satisfiable`, its fixed-variable form and `depends_on` on `f`,
    /// each against brute force.
    fn assert_agrees_with_brute_force(f: &BoolExpr, var: VarId) {
        assert_eq!(is_satisfiable(f), brute_force_satisfiable(f), "{f:?}");
        let fixed = |v: VarId| v.0 % 3 == 1;
        let zeroed = substitute(f, &|v| fixed(v).then_some(BoolExpr::False));
        assert_eq!(
            is_satisfiable_given_false(f, fixed),
            brute_force_satisfiable(&zeroed),
            "{f:?} with every third variable 0"
        );
        let flips = BoolExpr::xor(
            substitute_const(f, var, true),
            substitute_const(f, var, false),
        );
        assert_eq!(
            depends_on(f, var),
            brute_force_satisfiable(&flips),
            "{f:?} on {var}"
        );
    }

    #[test]
    fn every_shape_shortcut_agrees_with_brute_force() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for case in 0..4000 {
            let vars = [3, 6, 7, 12, 20][case % 5];
            let f = random_formula(&mut state, 4, vars, case % 2 == 0);
            assert_agrees_with_brute_force(&f, VarId(case as u32 % vars));
        }
        for vars in 17..=WIDEST {
            let f = wide_formula(&mut state, vars);
            assert!(f.variables().len() > SmallVars::CAP, "{f:?}");
            assert_agrees_with_brute_force(&f, VarId(vars % 5));
        }
    }

    /// The most variables a wide formula gets.  A true answer costs the
    /// oracle all `2^n` assignments, seconds apiece past 20 variables
    /// unoptimised, so only an optimised build goes up to 24.
    const WIDEST: u32 = if cfg!(debug_assertions) { 20 } else { 24 };

    /// `implies(f, g)` holds iff `f ≡ f ∧ g`, and `equivalent` is both
    /// implications: checked on random pairs, on a formula and itself with
    /// one variable set, and on a formula and its NNF.
    #[test]
    fn implication_and_equivalence_agree_with_brute_force() {
        let mut state = 0x2545_F491_4F6C_DD1D;
        let check = |f: &BoolExpr, g: &BoolExpr| {
            let f_and_g = BoolExpr::and2(f.clone(), g.clone());
            assert_eq!(
                implies(f, g),
                brute_force_equivalent(f, &f_and_g),
                "{f:?} -> {g:?}"
            );
            assert_eq!(
                equivalent(f, g),
                brute_force_equivalent(f, g),
                "{f:?} == {g:?}"
            );
        };
        // The last two go past `SmallVars::CAP`; each true answer costs
        // the oracle all `2^17` assignments.
        for case in 0..1002 {
            let raw = case % 2 == 0;
            let (f, g, vars) = if case < 1000 {
                let vars = [3, 6, 7, 12, 20][case as usize % 5];
                let f = random_formula(&mut state, 4, vars, raw);
                (f, random_formula(&mut state, 4, vars, raw), vars)
            } else {
                (
                    wide_formula(&mut state, 17),
                    wide_formula(&mut state, 17),
                    17,
                )
            };
            let set = substitute_const(&f, VarId(case % vars), raw);
            check(&f, &g);
            check(&f, &set);
            check(&set, &f);
            check(&f, &to_nnf(&f));
        }
    }
}
