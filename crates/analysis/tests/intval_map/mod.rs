//! `IntVal` and Figure 1's `merge_intvals` as they stood while an
//! `IntVal`'s constant-unknown terms were a `BTreeMap<UnkId, i64>`:
//! the code below is that version, unchanged but for this header and
//! the two id types, which it imports from the crate so that both
//! sides name the same unknowns. `intval_model.rs` holds the crate's
//! inline-term `IntVal` to it.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt;

pub use wbe_analysis::intval::{UnkId, VarId};

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

/// A linear combination `a·v + Σ kᵢ·cᵢ + b`.
///
/// Invariants: the variable coefficient `a` is non-zero when present;
/// constant-unknown coefficients are non-zero.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IntVal {
    var: Option<(i64, VarId)>,
    consts: BTreeMap<UnkId, i64>,
    b: i64,
}

impl IntVal {
    /// The literal constant `b`.
    pub fn constant(b: i64) -> Self {
        IntVal {
            var: None,
            consts: BTreeMap::new(),
            b,
        }
    }

    /// The constant unknown `c` (coefficient 1).
    pub fn unknown(c: UnkId) -> Self {
        IntVal {
            var: None,
            consts: [(c, 1)].into_iter().collect(),
            b: 0,
        }
    }

    /// The variable unknown `v` (coefficient 1).
    pub fn variable(v: VarId) -> Self {
        IntVal {
            var: Some((1, v)),
            consts: BTreeMap::new(),
            b: 0,
        }
    }

    /// The variable term `(a, v)` if present.
    pub fn var_term(&self) -> Option<(i64, VarId)> {
        self.var
    }

    /// True if this is a literal integer constant (no unknowns at all).
    pub fn as_literal(&self) -> Option<i64> {
        if self.var.is_none() && self.consts.is_empty() {
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
        let var = match (self.var, other.var) {
            (None, None) => None,
            (Some((a, v)), None) => {
                let c = f(a, 0)?;
                (c != 0).then_some((c, v))
            }
            (None, Some((a, v))) => {
                let c = f(0, a)?;
                (c != 0).then_some((c, v))
            }
            (Some((a1, v1)), Some((a2, v2))) => {
                if v1 != v2 {
                    return None; // two distinct variable unknowns
                }
                let c = f(a1, a2)?;
                (c != 0).then_some((c, v1))
            }
        };
        let mut consts = BTreeMap::new();
        for k in self.consts.keys().chain(other.consts.keys()) {
            if consts.contains_key(k) {
                continue;
            }
            let a = self.consts.get(k).copied().unwrap_or(0);
            let b = other.consts.get(k).copied().unwrap_or(0);
            let c = f(a, b)?;
            if c != 0 {
                consts.insert(*k, c);
            }
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
            Some((a, v)) => Some((a.checked_mul(k)?, v)),
        };
        let mut consts = BTreeMap::new();
        for (&c, &a) in &self.consts {
            consts.insert(c, a.checked_mul(k)?);
        }
        Some(IntVal {
            var,
            consts,
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
        match self.var {
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
        if let Some((a, v)) = self.var {
            if a == 1 {
                write!(f, "v{}", v.0)?;
            } else {
                write!(f, "{a}*v{}", v.0)?;
            }
            wrote = true;
        }
        for (c, a) in &self.consts {
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
    let mut consts = BTreeMap::new();
    for (c, a) in &v.consts {
        if a % k != 0 {
            return None;
        }
        consts.insert(*c, a / k);
    }
    out.consts = consts;
    Some(out)
}
