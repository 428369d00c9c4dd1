//! Symbolic integer values (§3.2) and the stride-inferring merge
//! (§3.5, Figure 1).
//!
//! An [`IntVal`] is a linear combination `a·v + Σ kᵢ·cᵢ + b` with **at
//! most one** *variable unknown* term (`v`, values that differ between
//! states, e.g. a loop index), any number of *constant unknown* terms
//! (`cᵢ`, the same in all states, e.g. an argument's value or an input
//! array's length), and a literal constant `b`.
//!
//! [`merge_intvals`] is the paper's Figure 1: when two states merge at a
//! join point, integer components that differ by the same literal stride
//! are renamed to a shared fresh variable unknown, which is how the
//! analysis discovers that a loop index and an array's uninitialized
//! lower bound move together.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroI64;

use crate::sigma::ordered_walk;

/// A *variable unknown*: may represent different values in different
/// states (created by merges).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// A *constant unknown*: has the same value in all states of one
/// analysis (created for arguments and input array lengths).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UnkId(pub u32);

/// Allocates fresh variable unknowns for one analysis run.
#[derive(Debug, Default)]
pub struct VarAlloc {
    next: u32,
}

impl VarAlloc {
    /// Creates an allocator starting at `v0`.
    pub fn new() -> Self {
        VarAlloc::default()
    }

    /// Returns a fresh variable unknown.
    pub fn fresh(&mut self) -> VarId {
        let v = VarId(self.next);
        self.next += 1;
        v
    }
}

/// Constant-unknown terms an [`IntVal`] holds without touching the
/// heap. Most values carry none or one (an argument's value, an input
/// array's length) and a sum of two still fits; more spill to a sorted
/// vector.
const INLINE: usize = 2;

/// The constant-unknown terms `Σ kᵢ·cᵢ`, ascending by unknown, each
/// coefficient non-zero. Equality is slice equality whichever
/// representation holds the terms.
#[derive(Clone)]
enum Terms {
    /// `items[..len]` are the terms; the rest is padding.
    Inline {
        len: u8,
        items: [(UnkId, i64); INLINE],
    },
    Spilled(Vec<(UnkId, i64)>),
}

impl Terms {
    const fn new() -> Terms {
        Terms::Inline {
            len: 0,
            items: [(UnkId(0), 0); INLINE],
        }
    }

    fn as_slice(&self) -> &[(UnkId, i64)] {
        match self {
            Terms::Inline { len, items } => &items[..*len as usize],
            Terms::Spilled(v) => v,
        }
    }

    /// Appends `k·c`, whose unknown is above every term held.
    fn push(&mut self, c: UnkId, k: i64) {
        debug_assert!(self.as_slice().last().is_none_or(|&(last, _)| last < c));
        match self {
            Terms::Inline { len, items } if (*len as usize) < INLINE => {
                items[*len as usize] = (c, k);
                *len += 1;
            }
            Terms::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(items);
                v.push((c, k));
                *self = Terms::Spilled(v);
            }
            Terms::Spilled(v) => v.push((c, k)),
        }
    }

    /// Every coefficient through `f`; `None` if `f` fails on one.
    /// `f` must not map a non-zero coefficient to zero.
    fn try_map(&self, f: impl Fn(i64) -> Option<i64>) -> Option<Terms> {
        let mut out = Terms::new();
        for &(c, k) in self.as_slice() {
            out.push(c, f(k)?);
        }
        Some(out)
    }
}

impl Default for Terms {
    fn default() -> Terms {
        Terms::new()
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl Hash for Terms {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A linear combination `a·v + Σ kᵢ·cᵢ + b`.
///
/// Invariants: the variable coefficient `a` is non-zero when present
/// (the type says so); constant-unknown coefficients are non-zero.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IntVal {
    var: Option<(NonZeroI64, VarId)>,
    consts: Terms,
    b: i64,
}

impl IntVal {
    /// The literal constant `b`.
    pub fn constant(b: i64) -> Self {
        IntVal {
            var: None,
            consts: Terms::new(),
            b,
        }
    }

    /// The constant unknown `c` (coefficient 1).
    pub fn unknown(c: UnkId) -> Self {
        let mut consts = Terms::new();
        consts.push(c, 1);
        IntVal {
            var: None,
            consts,
            b: 0,
        }
    }

    /// The variable unknown `v` (coefficient 1).
    pub fn variable(v: VarId) -> Self {
        IntVal {
            var: Some((NonZeroI64::new(1).expect("1 is not 0"), v)),
            consts: Terms::new(),
            b: 0,
        }
    }

    /// The variable term `(a, v)` if present.
    pub fn var_term(&self) -> Option<(i64, VarId)> {
        self.var.map(|(a, v)| (a.get(), v))
    }

    /// True if this is a literal integer constant (no unknowns at all).
    pub fn as_literal(&self) -> Option<i64> {
        if self.var.is_none() && self.consts.as_slice().is_empty() {
            Some(self.b)
        } else {
            None
        }
    }

    /// The literal constant term.
    pub fn literal_part(&self) -> i64 {
        self.b
    }

    fn checked_map2(&self, other: &IntVal, f: impl Fn(i64, i64) -> Option<i64>) -> Option<IntVal> {
        // Combine variable terms (missing side contributes coefficient 0).
        let var = match (self.var_term(), other.var_term()) {
            (None, None) => None,
            (Some((a, v)), None) => NonZeroI64::new(f(a, 0)?).map(|c| (c, v)),
            (None, Some((a, v))) => NonZeroI64::new(f(0, a)?).map(|c| (c, v)),
            (Some((a1, v1)), Some((a2, v2))) => {
                if v1 != v2 {
                    return None; // two distinct variable unknowns
                }
                NonZeroI64::new(f(a1, a2)?).map(|c| (c, v1))
            }
        };
        // Constant terms: one ordered walk over both sides' unknowns.
        let mut consts = Terms::new();
        let mut overflow = false;
        let (x, y) = (self.consts.as_slice(), other.consts.as_slice());
        ordered_walk(x.iter().copied(), y.iter().copied(), |c, a, b| {
            match f(a.unwrap_or(0), b.unwrap_or(0)) {
                Some(0) => {}
                Some(k) => consts.push(c, k),
                None => overflow = true,
            }
        });
        if overflow {
            return None;
        }
        let b = f(self.b, other.b)?;
        Some(IntVal { var, consts, b })
    }

    /// Symbolic addition; `None` on overflow or two distinct variables.
    pub fn add(&self, other: &IntVal) -> Option<IntVal> {
        self.checked_map2(other, |a, b| a.checked_add(b))
    }

    /// Symbolic subtraction; `None` on overflow or two distinct
    /// variables.
    pub fn sub(&self, other: &IntVal) -> Option<IntVal> {
        self.checked_map2(other, |a, b| a.checked_sub(b))
    }

    /// Adds a literal constant; `None` on overflow.
    pub fn add_literal(&self, d: i64) -> Option<IntVal> {
        self.add(&IntVal::constant(d))
    }

    /// Multiplies by a literal constant; `None` on overflow.
    pub fn mul_literal(&self, k: i64) -> Option<IntVal> {
        if k == 0 {
            return Some(IntVal::constant(0));
        }
        let var = match self.var {
            None => None,
            Some((a, v)) => Some((a.checked_mul(NonZeroI64::new(k)?)?, v)),
        };
        Some(IntVal {
            var,
            consts: self.consts.try_map(|a| a.checked_mul(k))?,
            b: self.b.checked_mul(k)?,
        })
    }

    /// Negation; `None` on overflow.
    pub fn neg(&self) -> Option<IntVal> {
        self.mul_literal(-1)
    }

    /// Substitutes `v → s` (used when validating merges); `None` on
    /// overflow or unrepresentable result.
    pub fn subst_var(&self, v: VarId, s: &IntVal) -> Option<IntVal> {
        match self.var_term() {
            Some((a, var)) if var == v => {
                let rest = IntVal {
                    var: None,
                    consts: self.consts.clone(),
                    b: self.b,
                };
                s.mul_literal(a)?.add(&rest)
            }
            _ => Some(self.clone()),
        }
    }
}

impl fmt::Debug for IntVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some((a, v)) = self.var_term() {
            if a == 1 {
                write!(f, "v{}", v.0)?;
            } else {
                write!(f, "{a}*v{}", v.0)?;
            }
            wrote = true;
        }
        for (c, a) in self.consts.as_slice() {
            if wrote {
                write!(f, "{}", if *a >= 0 { "+" } else { "" })?;
            }
            if *a == 1 {
                write!(f, "c{}", c.0)?;
            } else {
                write!(f, "{a}*c{}", c.0)?;
            }
            wrote = true;
        }
        if self.b != 0 || !wrote {
            if wrote && self.b >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{}", self.b)?;
        }
        Ok(())
    }
}

impl fmt::Display for IntVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The integer lattice: a known [`IntVal`] or ⊤ (unknown).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum IntLat {
    /// Known symbolic value.
    Val(IntVal),
    /// Unknown (`⊤iv`).
    Top,
}

impl IntLat {
    /// A literal constant.
    pub fn constant(b: i64) -> Self {
        IntLat::Val(IntVal::constant(b))
    }

    /// Returns the symbolic value if known.
    pub fn as_val(&self) -> Option<&IntVal> {
        match self {
            IntLat::Val(v) => Some(v),
            IntLat::Top => None,
        }
    }

    /// Lifts a fallible symbolic operation, mapping `None` to ⊤.
    pub fn lift2(&self, other: &IntLat, f: impl Fn(&IntVal, &IntVal) -> Option<IntVal>) -> IntLat {
        match (self, other) {
            (IntLat::Val(a), IntLat::Val(b)) => f(a, b).map_or(IntLat::Top, IntLat::Val),
            _ => IntLat::Top,
        }
    }
}

/// Shared context for one state merge: components that differ by the
/// same stride share one fresh variable unknown.
#[derive(Debug)]
pub struct MergeCtx<'a> {
    /// `U`: stride → generated variable unknown.
    u: BTreeMap<i64, VarId>,
    /// `μ₁`: what each variable represents in the first (stored) state.
    mu1: BTreeMap<VarId, IntVal>,
    /// `μ₂`: what each variable represents in the second (incoming)
    /// state.
    mu2: BTreeMap<VarId, IntVal>,
    alloc: &'a mut VarAlloc,
    /// When set, never create variables: unequal values merge to ⊤
    /// (widening, and the ablation that disables stride inference).
    widen: bool,
}

impl<'a> MergeCtx<'a> {
    /// Creates a merge context (fresh `U`, `μ₁`, `μ₂`).
    pub fn new(alloc: &'a mut VarAlloc, widen: bool) -> Self {
        MergeCtx {
            u: BTreeMap::new(),
            mu1: BTreeMap::new(),
            mu2: BTreeMap::new(),
            alloc,
            widen,
        }
    }
}

/// The paper's Figure 1 `merge_intvals`, lifted to the lattice.
pub fn merge_intvals(i1: &IntLat, i2: &IntLat, ctx: &mut MergeCtx<'_>) -> IntLat {
    let (IntLat::Val(v1), IntLat::Val(v2)) = (i1, i2) else {
        return IntLat::Top;
    };
    if v1 == v2 {
        return i1.clone();
    }
    if ctx.widen {
        return IntLat::Top;
    }
    // Make sure i1 carries the variable term if either does (lines 8–9),
    // swapping the substitutions along with the values.
    let (v1, v2, swapped) = if v1.var_term().is_none() && v2.var_term().is_some() {
        (v2.clone(), v1.clone(), true)
    } else {
        (v1.clone(), v2.clone(), false)
    };
    let (mu_a, mu_b) = if swapped {
        (&mut ctx.mu2, &mut ctx.mu1)
    } else {
        (&mut ctx.mu1, &mut ctx.mu2)
    };

    let delta = match v2.sub(&v1) {
        Some(d) => d,
        None => return IntLat::Top,
    };
    if v1.var_term().is_none() {
        // Lines 11–19: both variable-free. A literal delta names (or
        // reuses) a stride variable.
        let Some(d) = delta.as_literal() else {
            return IntLat::Top; // differ by a constant unknown
        };
        match ctx.u.get(&d) {
            None => {
                let v = ctx.alloc.fresh();
                ctx.u.insert(d, v);
                mu_a.insert(v, v1.clone());
                mu_b.insert(v, v2.clone());
                IntLat::Val(IntVal::variable(v))
            }
            Some(&v) => {
                // v was created for another component with the same
                // stride; reuse it with a constant offset d' = i1 - μ₁(v).
                let mu1v = mu_a.get(&v).expect("U and μ₁ stay in sync");
                match v1.sub(mu1v) {
                    Some(off) if off.var_term().is_none() => match IntVal::variable(v).add(&off) {
                        Some(out) => IntLat::Val(out),
                        None => IntLat::Top,
                    },
                    _ => IntLat::Top,
                }
            }
        }
    } else {
        // Lines 21–31: i1 has a variable term a₁·v₁.
        let (a1, var1) = v1.var_term().expect("checked above");
        if let Some(s) = mu_b.get(&var1).cloned() {
            // The variable already has a meaning in state 2; the merge
            // succeeds iff substituting it makes the values equal.
            match v1.subst_var(var1, &s) {
                Some(substituted) if substituted == v2 => IntLat::Val(v1),
                _ => IntLat::Top,
            }
        } else {
            // match(i1, i2): i2 must have the same variable coefficient;
            // express v₁ as v₂ + (rest₂ - rest₁)/a₁.
            match match_vals(a1, &v1, &v2) {
                Some(s) => {
                    mu_b.insert(var1, s);
                    IntLat::Val(v1)
                }
                None => IntLat::Top,
            }
        }
    }
}

/// The paper's `match(i₁, i₂)`: succeeds when `i₂` has a variable term
/// with the same coefficient `a₁`, returning an `IntVal` expressing
/// `v₁ = v₂ + (rest₂ − rest₁)/a₁`.
fn match_vals(a1: i64, v1: &IntVal, v2: &IntVal) -> Option<IntVal> {
    let (a2, var2) = v2.var_term()?;
    if a2 != a1 {
        return None;
    }
    let rest1 = v1.subst_var(v1.var_term()?.1, &IntVal::constant(0))?;
    let rest2 = v2.subst_var(var2, &IntVal::constant(0))?;
    let diff = rest2.sub(&rest1)?;
    // (rest₂ - rest₁) must be divisible by a₁ exactly.
    let divided = div_exact(&diff, a1)?;
    IntVal::variable(var2).add(&divided)
}

fn div_exact(v: &IntVal, k: i64) -> Option<IntVal> {
    if k == 0 {
        return None;
    }
    if v.var_term().is_some() {
        return None;
    }
    let mut out = IntVal::constant(0);
    if v.literal_part() % k != 0 {
        return None;
    }
    out.b = v.literal_part() / k;
    out.consts = v.consts.try_map(|a| (a % k == 0).then(|| a / k))?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(b: i64) -> IntLat {
        IntLat::constant(b)
    }

    #[test]
    fn arithmetic_basics() {
        let a = IntVal::constant(3);
        let b = IntVal::unknown(UnkId(0));
        let s = a.add(&b).unwrap();
        assert_eq!(s.to_string(), "c0+3");
        assert_eq!(s.sub(&b).unwrap(), a);
        let d = s.mul_literal(2).unwrap();
        assert_eq!(d.to_string(), "2*c0+6");
        assert_eq!(IntVal::constant(5).neg().unwrap().as_literal(), Some(-5));
    }

    #[test]
    fn distinct_variables_do_not_combine() {
        let x = IntVal::variable(VarId(0));
        let y = IntVal::variable(VarId(1));
        assert!(x.add(&y).is_none());
        assert!(x.add(&x).unwrap().var_term().unwrap().0 == 2);
        // v - v cancels the variable term entirely.
        assert_eq!(x.sub(&x).unwrap().as_literal(), Some(0));
    }

    #[test]
    fn overflow_goes_symbolically_wrong_not_silent() {
        let big = IntVal::constant(i64::MAX);
        assert!(big.add_literal(1).is_none());
        assert!(big.mul_literal(2).is_none());
    }

    #[test]
    fn merge_equal_values_is_identity() {
        let mut alloc = VarAlloc::new();
        let mut ctx = MergeCtx::new(&mut alloc, false);
        assert_eq!(merge_intvals(&c(4), &c(4), &mut ctx), c(4));
        assert_eq!(merge_intvals(&IntLat::Top, &c(4), &mut ctx), IntLat::Top);
    }

    #[test]
    fn merge_creates_stride_variable_shared_across_components() {
        // The paper's example: ρ(i) merges 0 with 1 (stride 1) creating
        // v; the NR lower bound then merges 0 with 1 and must reuse v.
        let mut alloc = VarAlloc::new();
        let mut ctx = MergeCtx::new(&mut alloc, false);
        let m1 = merge_intvals(&c(0), &c(1), &mut ctx);
        let IntLat::Val(v) = &m1 else { panic!() };
        let (a, var) = v.var_term().unwrap();
        assert_eq!(a, 1);
        let m2 = merge_intvals(&c(0), &c(1), &mut ctx);
        assert_eq!(m1, m2, "same stride, same variable");
        // A component with the same stride but offset +5 gets v + 5.
        let m3 = merge_intvals(&c(5), &c(6), &mut ctx);
        let IntLat::Val(v3) = &m3 else { panic!() };
        assert_eq!(v3.var_term().unwrap().1, var);
        assert_eq!(v3.literal_part(), 5);
    }

    #[test]
    fn merge_validates_on_second_iteration() {
        // Second round of the paper's walkthrough: stored = v, incoming
        // = v + 1. match() records μ₂[v] = v + 1 and returns v. Then the
        // NR bound merges v with v+1 and, finding μ₂[v] already set,
        // validates by substitution.
        let mut alloc = VarAlloc::new();
        let v = alloc.fresh();
        let mut ctx = MergeCtx::new(&mut alloc, false);
        let stored = IntLat::Val(IntVal::variable(v));
        let incoming = IntLat::Val(IntVal::variable(v).add_literal(1).unwrap());
        let out = merge_intvals(&stored, &incoming, &mut ctx);
        assert_eq!(out, stored);
        let out2 = merge_intvals(&stored, &incoming, &mut ctx);
        assert_eq!(out2, stored, "validated via existing substitution");
        // An inconsistent pair with the same variable must go to ⊤.
        let bad = IntLat::Val(IntVal::variable(v).add_literal(7).unwrap());
        assert_eq!(merge_intvals(&stored, &bad, &mut ctx), IntLat::Top);
    }

    #[test]
    fn merge_mismatched_coefficients_is_top() {
        let mut alloc = VarAlloc::new();
        let v = alloc.fresh();
        let mut ctx = MergeCtx::new(&mut alloc, false);
        let stored = IntLat::Val(IntVal::variable(v).mul_literal(2).unwrap());
        let incoming = IntLat::Val(IntVal::variable(v).add_literal(1).unwrap());
        // stored = 2v, incoming = v+1: μ₂[v] unset, match needs equal
        // coefficients (2 vs 1) → ⊤. (Substituting would also fail.)
        let out = merge_intvals(&stored, &incoming, &mut ctx);
        assert_eq!(out, IntLat::Top);
    }

    #[test]
    fn merge_with_constant_unknown_delta_is_top() {
        let mut alloc = VarAlloc::new();
        let mut ctx = MergeCtx::new(&mut alloc, false);
        let a = IntLat::Val(IntVal::constant(0));
        let b = IntLat::Val(IntVal::unknown(UnkId(0)));
        assert_eq!(merge_intvals(&a, &b, &mut ctx), IntLat::Top);
    }

    #[test]
    fn widening_disables_variable_creation() {
        let mut alloc = VarAlloc::new();
        let mut ctx = MergeCtx::new(&mut alloc, true);
        assert_eq!(merge_intvals(&c(0), &c(1), &mut ctx), IntLat::Top);
        assert_eq!(merge_intvals(&c(2), &c(2), &mut ctx), c(2));
    }

    #[test]
    fn subst_var_replaces_and_scales() {
        let v = VarId(0);
        // 3v + 2 with v := w + 1  →  3w + 5
        let w = VarId(1);
        let e = IntVal::variable(v)
            .mul_literal(3)
            .unwrap()
            .add_literal(2)
            .unwrap();
        let s = IntVal::variable(w).add_literal(1).unwrap();
        let out = e.subst_var(v, &s).unwrap();
        assert_eq!(out.var_term().unwrap(), (3, w));
        assert_eq!(out.literal_part(), 5);
    }

    #[test]
    fn lift2_maps_failures_to_top() {
        let x = IntLat::Val(IntVal::variable(VarId(0)));
        let y = IntLat::Val(IntVal::variable(VarId(1)));
        assert_eq!(x.lift2(&y, |a, b| a.add(b)), IntLat::Top);
        assert_eq!(c(2).lift2(&c(3), |a, b| a.add(b)), c(5));
    }
}
