//! The abstract program state (§2.1, §3.2) and its merge (§2.2, §3.5).
//!
//! A state is the tuple `<ρ, σ, NL, stk>` of the field analysis extended
//! with the array analysis's `Len` and `NR` maps. Maps are kept
//! *canonical*: entries equal to their context-determined default are
//! absent, so structural equality detects fixed points.
//!
//! The store is *shared until written*: copies of a state point at the
//! same σ index and rows and the same `Len` and `NR` maps, and the
//! first write through [`AbsState::sigma_set`] /
//! [`len_set`](AbsState::len_set) / [`nr_set`](AbsState::nr_set) takes
//! a private copy of what it touches — for σ, the index and the one
//! receiver's row. Most blocks never write σ, so the fixed-point
//! driver's per-visit copy of an entry state, its hand-over to each
//! successor and the equality test on the way cost the locals and the
//! stack, not the store; and a block that does write pays for the rows
//! it writes, not for all of σ.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use wbe_ir::{FieldId, Method, Program, SiteId, Ty};

use crate::config::AnalysisConfig;

use crate::intval::{merge_intvals, IntLat, IntVal, MergeCtx, UnkId};
use crate::range::IntRange;
use crate::refs::{subst, Ref, RefSet};
use crate::sigma::{ordered_walk, Sigma};

/// Field identifier within the abstract store σ: a named field, or the
/// single pseudo-field `f_elems` that collapses all elements of an
/// object array (§2.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FieldKey {
    /// A declared instance field.
    Field(FieldId),
    /// All elements of an object array.
    Elems,
}

/// An abstract slot value: bottom (uninitialized), a reference set, a
/// symbolic integer, or `Any` (type-confused; treated as the universe of
/// references and ⊤ as an integer).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum AbsValue {
    /// Uninitialized (`⊥`): merge identity.
    #[default]
    Bottom,
    /// Unknown type; conservatively both "any reference" and ⊤ int.
    Any,
    /// Reference value: the may-set of non-null referents.
    Refs(RefSet),
    /// Integer value.
    Int(IntLat),
}

impl AbsValue {
    /// The definitely-null reference value.
    pub fn null() -> Self {
        AbsValue::Refs(RefSet::new())
    }

    /// A singleton reference value.
    pub fn single(r: Ref) -> Self {
        AbsValue::Refs([r].into_iter().collect())
    }

    /// A literal integer.
    pub fn int(b: i64) -> Self {
        AbsValue::Int(IntLat::constant(b))
    }

    /// Merges `other` into `self` (the lattice meet the paper calls
    /// it; union for ref sets, Figure 1 for integers, `Any` on type
    /// confusion); returns true if `self` changed.
    pub fn merge_into(&mut self, other: &AbsValue, ctx: &mut MergeCtx<'_>) -> bool {
        match (&mut *self, other) {
            (_, AbsValue::Bottom) | (AbsValue::Any, _) => false,
            (AbsValue::Bottom, x) => {
                *self = x.clone();
                true
            }
            (AbsValue::Refs(a), AbsValue::Refs(b)) => a.union_with(b),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                if a == b {
                    return false;
                }
                let merged = merge_intvals(a, b, ctx);
                let changed = merged != *a;
                *a = merged;
                changed
            }
            _ => {
                *self = AbsValue::Any;
                true
            }
        }
    }

    /// Merge without a stride context (used by `transfer` at allocation
    /// renames): ref sets union, unequal integers go to ⊤.
    pub fn merge_plain(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bottom, x) | (x, AbsValue::Bottom) => x.clone(),
            (AbsValue::Any, _) | (_, AbsValue::Any) => AbsValue::Any,
            (AbsValue::Refs(a), AbsValue::Refs(b)) => AbsValue::Refs(a.union(b)),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                if a == b {
                    AbsValue::Int(a.clone())
                } else {
                    AbsValue::Int(IntLat::Top)
                }
            }
            _ => AbsValue::Any,
        }
    }

    /// Substitutes one abstract reference for another inside the value.
    pub fn subst_ref(&self, from: Ref, to: Ref) -> AbsValue {
        match self {
            AbsValue::Refs(s) if s.contains(&from) => AbsValue::Refs(subst(s, from, to)),
            _ => self.clone(),
        }
    }
}

/// Per-method analysis context: everything the transfer functions and
/// defaults need to know about the method under analysis.
#[derive(Debug)]
pub struct MethodCtx<'p> {
    /// The containing program.
    pub program: &'p Program,
    /// The method under analysis.
    pub method: &'p Method,
    /// True when analyzing a constructor (gives `this` the special
    /// initial state of §2.3).
    pub is_ctor: bool,
    /// Fields declared by the constructor's owner class (known null on
    /// entry for `this`).
    pub owner_fields: BTreeSet<FieldId>,
    /// Allocation sites occurring in the method body.
    pub sites: Vec<SiteId>,
    /// Whether the array analysis (Len/NR) is enabled.
    pub track_arrays: bool,
    /// Whether allocation sites get the A/B reference pair (§2.4) or a
    /// single summary reference (ablation).
    pub two_refs: bool,
    /// Whether merges may infer stride variables (§3.5) or widen
    /// immediately (ablation).
    pub stride_inference: bool,
    /// References forced non-thread-local everywhere (the classic-escape
    /// ablation pins every reference that escapes anywhere). Re-asserted
    /// after allocation renames.
    pub pinned_nl: RefSet,
    /// Every reference that can occur in the method, built once.
    universe: RefSet,
}

impl<'p> MethodCtx<'p> {
    /// Builds the context for `method`.
    pub fn new(program: &'p Program, method: &'p Method, config: &AnalysisConfig) -> Self {
        let is_ctor = method.is_constructor;
        let owner_fields = method
            .owner
            .filter(|_| is_ctor)
            .map(|c| program.class(c).fields.iter().copied().collect())
            .unwrap_or_default();
        let mut sites: Vec<SiteId> = method
            .iter_insns()
            .filter_map(|(_, _, i)| i.allocation_site())
            .collect();
        sites.sort_unstable();
        sites.dedup();
        let params = method.sig.params.iter().enumerate();
        let args = params.filter_map(|(i, ty)| ty.is_ref_like().then_some(Ref::Arg(i as u16)));
        let allocated = sites.iter().flat_map(|&s| [Ref::SiteA(s), Ref::SiteB(s)]);
        let universe = [Ref::Global]
            .into_iter()
            .chain(args)
            .chain(allocated)
            .collect();
        MethodCtx {
            program,
            method,
            is_ctor,
            owner_fields,
            sites,
            track_arrays: config.array_analysis,
            two_refs: config.two_refs_per_site,
            stride_inference: config.stride_inference,
            pinned_nl: RefSet::new(),
            universe,
        }
    }

    /// True if `this` (`Arg(0)`) denotes a unique object here.
    pub fn this_is_unique(&self) -> bool {
        self.is_ctor
    }

    /// The paper's `unique` predicate in this method's context.
    pub fn is_unique(&self, r: Ref) -> bool {
        r.is_unique(self.this_is_unique())
    }

    /// Every abstract reference that can occur in this method — the
    /// concretization of `Any`.
    pub fn universe(&self) -> &RefSet {
        &self.universe
    }

    /// The constant unknown for integer argument `i`'s initial value.
    pub fn arg_value_unknown(&self, i: usize) -> UnkId {
        UnkId(i as u32)
    }

    /// The constant unknown for the length of array argument `i` (§3.4).
    pub fn arg_length_unknown(&self, i: usize) -> UnkId {
        UnkId((self.method.sig.params.len() + i) as u32)
    }

    /// Default σ entry for `(r, key)` when no explicit entry exists.
    ///
    /// Site references default to their allocation-zeroed value (null /
    /// 0); `this` in a constructor defaults to null for fields its class
    /// declares; arguments and `Global` default to escaped contents.
    pub fn sigma_default(&self, r: Ref, key: FieldKey) -> AbsValue {
        let is_ref_field = match key {
            FieldKey::Field(f) => self.program.field(f).ty.is_ref_like(),
            FieldKey::Elems => true,
        };
        let zeroed = |is_ref: bool| {
            if is_ref {
                AbsValue::null()
            } else {
                AbsValue::int(0)
            }
        };
        let escaped = |is_ref: bool| {
            if is_ref {
                AbsValue::single(Ref::Global)
            } else {
                AbsValue::Int(IntLat::Top)
            }
        };
        match r {
            Ref::SiteA(_) | Ref::SiteB(_) => zeroed(is_ref_field),
            Ref::Arg(0) if self.is_ctor => match key {
                FieldKey::Field(f) if self.owner_fields.contains(&f) => zeroed(is_ref_field),
                _ => escaped(is_ref_field),
            },
            Ref::Arg(_) | Ref::Global => escaped(is_ref_field),
        }
    }
}

/// A map that copies of a state share until one of them writes it
/// (`Len` and `NR`; σ is a [`Sigma`]).
///
/// Equality is pointer-first: two copies that were never written since
/// they were taken are equal without looking at an entry, which is the
/// common answer when the fixed-point driver asks whether a block's
/// out-state still equals its successor's entry state.
///
/// An empty map costs no allocation: every empty `Len` or `NR` made on
/// a thread shares that thread's one empty map until it is written.
#[derive(Clone)]
struct Shared<K, V>(Rc<BTreeMap<K, V>>);

thread_local! {
    static EMPTY_LEN: Rc<BTreeMap<Ref, IntLat>> = Rc::default();
    static EMPTY_NR: Rc<BTreeMap<Ref, IntRange>> = Rc::default();
}

impl Default for Shared<Ref, IntLat> {
    fn default() -> Self {
        Shared(EMPTY_LEN.with(Rc::clone))
    }
}

impl Default for Shared<Ref, IntRange> {
    fn default() -> Self {
        Shared(EMPTY_NR.with(Rc::clone))
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for Shared<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl<K: Eq, V: Eq> Eq for Shared<K, V> {}

impl<K: Ord + Clone, V: Clone + PartialEq> Shared<K, V> {
    /// The map for writing: a private copy if it is shared.
    fn to_mut(&mut self) -> &mut BTreeMap<K, V> {
        Rc::make_mut(&mut self.0)
    }

    /// Sets `key` to `value` (`None` = absent). A write that would
    /// change nothing leaves the map shared.
    fn set(&mut self, key: K, value: Option<V>) {
        if self.0.get(&key) == value.as_ref() {
            return;
        }
        match value {
            Some(v) => self.to_mut().insert(key, v),
            None => self.to_mut().remove(&key),
        };
    }

    /// Merges `other` into `self` key by key, in ascending order — not
    /// at all if the two are one map still shared. Absence absorbs: a
    /// key present on one side only becomes absent, and where both
    /// sides differ `merge` gives the entry (`None` = absent). Returns
    /// true if `self` changed.
    fn merge_from(&mut self, other: &Self, mut merge: impl FnMut(&V, &V) -> Option<V>) -> bool {
        if Rc::ptr_eq(&self.0, &other.0) {
            return false;
        }
        let mut updates = Vec::new();
        ordered_walk(&*self.0, &*other.0, |key, a, b| match (a, b) {
            (Some(a), Some(b)) if a != b => {
                let merged = merge(a, b);
                if merged.as_ref() != Some(a) {
                    updates.push((key.clone(), merged));
                }
            }
            (Some(_), None) => updates.push((key.clone(), None)),
            _ => {}
        });
        let changed = !updates.is_empty();
        for (key, v) in updates {
            self.set(key, v);
        }
        changed
    }
}

/// The abstract program state at one program point.
///
/// `σ`, `Len` and `NR` are private: they are written only through
/// [`sigma_set`](Self::sigma_set), [`len_set`](Self::len_set) and
/// [`nr_set`](Self::nr_set), which keep them canonical and take the
/// private copy a shared map needs before its first write.
#[derive(PartialEq, Eq, Default)]
pub struct AbsState {
    /// `ρ`: local variable slots.
    pub locals: Vec<AbsValue>,
    /// `stk`: the operand stack.
    pub stack: Vec<AbsValue>,
    /// `NL`: references known possibly non-thread-local (escaped).
    pub nl: RefSet,
    /// `σ`: abstract store, one row per receiver (canonical: defaults
    /// absent, no empty row).
    sigma: Sigma,
    /// `Len`: array lengths (canonical: ⊤ absent).
    len: Shared<Ref, IntLat>,
    /// `NR`: null ranges of object arrays (canonical: empty absent).
    nr: Shared<Ref, IntRange>,
}

/// `clone_from` copies into the target's own buffers, which is how the
/// fixed-point driver reuses one working state across visits.
impl Clone for AbsState {
    fn clone(&self) -> Self {
        AbsState {
            locals: self.locals.clone(),
            stack: self.stack.clone(),
            nl: self.nl.clone(),
            sigma: self.sigma.clone(),
            len: self.len.clone(),
            nr: self.nr.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.locals.clone_from(&source.locals);
        self.stack.clone_from(&source.stack);
        self.nl.clone_from(&source.nl);
        self.sigma.clone_from(&source.sigma);
        self.len.clone_from(&source.len);
        self.nr.clone_from(&source.nr);
    }
}

impl fmt::Debug for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "locals: {:?}", self.locals)?;
        writeln!(f, "stack:  {:?}", self.stack)?;
        writeln!(f, "NL:     {:?}", self.nl)?;
        writeln!(f, "sigma:  {:?}", self.sigma)?;
        writeln!(f, "len:    {:?}", self.len())?;
        write!(f, "NR:     {:?}", self.nr())
    }
}

impl AbsState {
    /// The initial state at method entry (§2.3, §3.4).
    pub fn entry(ctx: &MethodCtx<'_>) -> AbsState {
        let m = ctx.method;
        let mut locals = vec![AbsValue::Bottom; m.num_locals as usize];
        let mut nl: RefSet = [Ref::Global].into_iter().collect();
        let mut len = Shared::default();
        for (i, &ty) in m.sig.params.iter().enumerate() {
            let arg = Ref::Arg(i as u16);
            match ty {
                Ty::Int => {
                    locals[i] =
                        AbsValue::Int(IntLat::Val(IntVal::unknown(ctx.arg_value_unknown(i))));
                }
                Ty::Ref(_) => {
                    locals[i] = AbsValue::single(arg);
                    if !(ctx.is_ctor && i == 0) {
                        nl.insert(arg);
                    }
                }
                Ty::RefArray(_) | Ty::IntArray => {
                    locals[i] = AbsValue::single(arg);
                    nl.insert(arg);
                    if ctx.track_arrays {
                        let unknown = IntVal::unknown(ctx.arg_length_unknown(i));
                        len.set(arg, Some(IntLat::Val(unknown)));
                    }
                }
            }
        }
        nl.union_with(&ctx.pinned_nl);
        AbsState {
            locals,
            stack: Vec::new(),
            nl,
            sigma: Sigma::default(),
            len,
            nr: Shared::default(),
        }
    }

    /// `σ`'s explicit entries, in `(Ref, FieldKey)` order (defaults
    /// are absent).
    pub fn sigma(&self) -> impl Iterator<Item = (Ref, FieldKey, &AbsValue)> {
        self.sigma.iter()
    }

    /// The number of receivers σ holds a row for: in canonical form,
    /// those with an explicit entry.
    pub fn sigma_rows(&self) -> usize {
        self.sigma.row_count()
    }

    /// `Len`'s explicit entries, in key order (⊤ is absent).
    pub fn len(&self) -> &BTreeMap<Ref, IntLat> {
        &self.len.0
    }

    /// `NR`'s explicit entries, in key order (the empty range is absent).
    pub fn nr(&self) -> &BTreeMap<Ref, IntRange> {
        &self.nr.0
    }

    /// σ lookup with the paper's rule: non-thread-local references read
    /// as escaped contents; otherwise the explicit entry or the default.
    pub fn sigma_lookup(&self, ctx: &MethodCtx<'_>, r: Ref, key: FieldKey) -> AbsValue {
        if self.nl.contains(&r) {
            let is_ref = match key {
                FieldKey::Field(f) => ctx.program.field(f).ty.is_ref_like(),
                FieldKey::Elems => true,
            };
            return if is_ref {
                AbsValue::single(Ref::Global)
            } else {
                AbsValue::Int(IntLat::Top)
            };
        }
        self.sigma_raw(ctx, r, key)
    }

    /// Raw σ entry (explicit or default), ignoring NL — used by escape
    /// closure.
    pub fn sigma_raw(&self, ctx: &MethodCtx<'_>, r: Ref, key: FieldKey) -> AbsValue {
        self.sigma
            .get(r, key)
            .cloned()
            .unwrap_or_else(|| ctx.sigma_default(r, key))
    }

    /// Stores into σ, keeping the map canonical.
    pub fn sigma_set(&mut self, ctx: &MethodCtx<'_>, r: Ref, key: FieldKey, v: AbsValue) {
        let explicit = v != ctx.sigma_default(r, key);
        self.sigma.set(r, key, explicit.then_some(v));
    }

    /// `Len` lookup (⊤ when unknown).
    pub fn len_lookup(&self, r: Ref) -> IntLat {
        self.len().get(&r).cloned().unwrap_or(IntLat::Top)
    }

    /// Stores a length, keeping the map canonical.
    pub fn len_set(&mut self, r: Ref, v: IntLat) {
        self.len.set(r, (v != IntLat::Top).then_some(v));
    }

    /// `NR` lookup (empty when unknown).
    pub fn nr_lookup(&self, r: Ref) -> IntRange {
        self.nr().get(&r).cloned().unwrap_or(IntRange::Empty)
    }

    /// Stores a null range, keeping the map canonical.
    pub fn nr_set(&mut self, r: Ref, v: IntRange) {
        self.nr.set(r, (v != IntRange::Empty).then_some(v));
    }

    /// Escape closure: all references transitively reachable from `roots`
    /// through σ (the paper's `AllNonTL` reachability).
    pub fn reachable_from(&self, _ctx: &MethodCtx<'_>, roots: &RefSet) -> RefSet {
        let mut seen = RefSet::new();
        // References yet to follow: a set, so that a small closure
        // stays inline.
        let mut work = roots.clone();
        while let Some(&r) = work.as_slice().last() {
            work.remove(&r);
            seen.insert(r);
            // Follow every σ entry of r: explicit entries plus the
            // defaults for reference-shaped keys. Defaults for site refs
            // are null (nothing to follow); for args they are {Global}.
            if matches!(r, Ref::Arg(_)) && !seen.contains(&Ref::Global) {
                work.insert(Ref::Global);
            }
            for (_, v) in self.sigma.row(r) {
                if let AbsValue::Refs(s) = v {
                    for &child in s {
                        if !seen.contains(&child) {
                            work.insert(child);
                        }
                    }
                }
            }
        }
        seen
    }

    /// `AllNonTL`: extends NL with `vals` and everything reachable from
    /// them.
    pub fn escape(&mut self, ctx: &MethodCtx<'_>, vals: &RefSet) {
        let closure = self.reachable_from(ctx, vals);
        self.nl.union_with(&closure);
    }

    /// Merges `incoming` into `self`; returns true if `self` changed.
    /// `widen` disables stride-variable creation (forced ⊤ for unequal
    /// integers).
    pub fn merge_from(
        &mut self,
        incoming: &AbsState,
        ctx: &MethodCtx<'_>,
        alloc: &mut crate::intval::VarAlloc,
        widen: bool,
    ) -> bool {
        assert_eq!(
            self.stack.len(),
            incoming.stack.len(),
            "operand stacks must agree at join points (verified IR)"
        );
        let mut mctx = MergeCtx::new(alloc, widen || !ctx.stride_inference);
        let mut changed = false;

        let slots = self.locals.iter_mut().chain(self.stack.iter_mut());
        for (mine, theirs) in slots.zip(incoming.locals.iter().chain(&incoming.stack)) {
            changed |= mine.merge_into(theirs, &mut mctx);
        }
        changed |= self.nl.union_with(&incoming.nl);

        // σ, Len and NR walk the union of both sides' keys in order (the
        // order stride variables are named in), skipping whatever both
        // sides still share; an absent entry is its default. Entries
        // equal on both sides merge to themselves, so only the
        // differing ones are merged and written back.
        changed |= self.sigma.merge_from(&incoming.sigma, |r, key, a, b| {
            if a.is_some() && a == b {
                return None;
            }
            let default = ctx.sigma_default(r, key);
            let mut merged = a.unwrap_or(&default).clone();
            let changed = merged.merge_into(b.unwrap_or(&default), &mut mctx);
            changed.then(|| (merged != default).then_some(merged))
        });

        // Len: absent = ⊤, which absorbs whatever the other side has.
        changed |= self.len.merge_from(&incoming.len, |a, b| {
            Some(merge_intvals(a, b, &mut mctx)).filter(|l| *l != IntLat::Top)
        });
        // NR: absent = empty, likewise absorbing.
        changed |= self.nr.merge_from(&incoming.nr, |a, b| {
            Some(a.merge(b, &mut mctx)).filter(|n| *n != IntRange::Empty)
        });
        changed
    }

    /// The allocation-site rename (§2.4 `newinstance`): retire the
    /// current `R_site/A` into `R_site/B` across every state component.
    ///
    /// Only what names `R_site/A` is touched; a component that does not
    /// name it stays shared with the state's other copies.
    pub fn retire_site(&mut self, ctx: &MethodCtx<'_>, site: SiteId) {
        let a = Ref::SiteA(site);
        let b = Ref::SiteB(site);
        let rename = |v: &mut AbsValue| {
            if let AbsValue::Refs(s) = v {
                if s.remove(&a) {
                    s.insert(b);
                }
            }
        };
        self.locals.iter_mut().for_each(rename);
        self.stack.iter_mut().for_each(rename);
        // replS on NL.
        if self.nl.remove(&a) {
            self.nl.insert(b);
        }
        // transfer on σ: substitute in the values that name A, then
        // move A's row onto B's. Where both `(A, k)` and `(B, k)` are
        // explicit the two merge; an entry moved alone keeps its value,
        // the allocation-zeroed default being the same for both names.
        // Neither step can produce a default, so σ stays canonical;
        // `sigma_set` checks all the same. A row that is neither A's
        // nor B's and holds no value naming A stays shared.
        self.sigma.subst(a, b);
        for (key, v) in self.sigma.take_row(a).iter().flat_map(|row| row.iter()) {
            let merged = match self.sigma.get(b, *key) {
                Some(summary) => v.merge_plain(summary),
                None => v.clone(),
            };
            self.sigma_set(ctx, b, *key, merged);
        }

        // Len / NR: A's info merges into B's conservative default
        // (⊤ / empty), i.e. it is dropped; B keeps whatever it had only
        // if it agrees.
        if let Some(la) = self.len().get(&a).cloned() {
            self.len.set(a, None);
            let lb = self.len_lookup(b);
            let merged = if la == lb { lb } else { IntLat::Top };
            self.len_set(b, merged);
        }
        if let Some(ra) = self.nr().get(&a).cloned() {
            self.nr.set(a, None);
            let rb = self.nr_lookup(b);
            let merged = if ra == rb { rb } else { IntRange::Empty };
            self.nr_set(b, merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intval::VarAlloc;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::MethodId;

    fn simple_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let _f = pb.field(c, "f", Ty::Ref(c));
        let _g = pb.field(c, "g", Ty::Int);
        let ctor = pb.declare_constructor(c, vec![]);
        pb.define_method(ctor, 0, |mb| {
            mb.return_();
        });
        pb.method(
            "m",
            vec![Ty::Ref(c), Ty::Int, Ty::RefArray(c)],
            None,
            2,
            |mb| {
                mb.new_object(c).pop().return_();
            },
        );
        pb.finish()
    }

    #[test]
    fn entry_state_of_plain_method() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let st = AbsState::entry(&ctx);
        assert_eq!(st.locals[0], AbsValue::single(Ref::Arg(0)));
        assert!(matches!(st.locals[1], AbsValue::Int(IntLat::Val(_))));
        assert_eq!(st.locals[2], AbsValue::single(Ref::Arg(2)));
        assert_eq!(st.locals[3], AbsValue::Bottom);
        // All ref args escape on entry (non-ctor).
        assert!(st.nl.contains(&Ref::Arg(0)));
        assert!(st.nl.contains(&Ref::Arg(2)));
        assert!(st.nl.contains(&Ref::Global));
        // Array arg length is a constant unknown.
        assert!(st.len().contains_key(&Ref::Arg(2)));
    }

    #[test]
    fn entry_state_of_constructor_keeps_this_local() {
        let p = simple_program();
        let m = p.method(MethodId(0));
        assert!(m.is_constructor);
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let st = AbsState::entry(&ctx);
        assert!(!st.nl.contains(&Ref::Arg(0)), "ctor this is thread-local");
        // Declared fields of this are null by default.
        assert_eq!(
            st.sigma_lookup(&ctx, Ref::Arg(0), FieldKey::Field(FieldId(0))),
            AbsValue::null()
        );
        assert_eq!(
            st.sigma_lookup(&ctx, Ref::Arg(0), FieldKey::Field(FieldId(1))),
            AbsValue::int(0)
        );
        assert!(ctx.is_unique(Ref::Arg(0)));
    }

    #[test]
    fn sigma_lookup_respects_nl() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let mut st = AbsState::entry(&ctx);
        let site = wbe_ir::SiteId(0);
        let a = Ref::SiteA(site);
        // Fresh site object: ref field defaults to null.
        assert_eq!(
            st.sigma_lookup(&ctx, a, FieldKey::Field(FieldId(0))),
            AbsValue::null()
        );
        // Once escaped, lookups collapse to Global.
        st.nl.insert(a);
        assert_eq!(
            st.sigma_lookup(&ctx, a, FieldKey::Field(FieldId(0))),
            AbsValue::single(Ref::Global)
        );
    }

    #[test]
    fn merge_unions_refs_and_detects_change() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let mut alloc = VarAlloc::new();
        let mut s1 = AbsState::entry(&ctx);
        let mut s2 = s1.clone();
        s1.locals[3] = AbsValue::null();
        s2.locals[3] = AbsValue::single(Ref::Arg(0));
        let changed = s1.merge_from(&s2, &ctx, &mut alloc, false);
        assert!(changed);
        assert_eq!(s1.locals[3], AbsValue::single(Ref::Arg(0)));
        // Merging the same thing again: no change.
        let changed = s1.merge_from(&s2, &ctx, &mut alloc, false);
        assert!(!changed);
    }

    #[test]
    fn merge_creates_shared_stride_variable_across_components() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let mut alloc = VarAlloc::new();
        let site = wbe_ir::SiteId(0);
        let a = Ref::SiteA(site);
        let mut s1 = AbsState::entry(&ctx);
        s1.locals[3] = AbsValue::int(0);
        s1.nr_set(a, IntRange::From(IntVal::constant(0)));
        let mut s2 = s1.clone();
        s2.locals[3] = AbsValue::int(1);
        s2.nr_set(a, IntRange::From(IntVal::constant(1)));
        s1.merge_from(&s2, &ctx, &mut alloc, false);
        // Both the local and the NR bound became the same variable.
        let AbsValue::Int(IntLat::Val(iv)) = &s1.locals[3] else {
            panic!("local not symbolic: {:?}", s1.locals[3]);
        };
        let (coef, var) = iv.var_term().expect("variable created");
        assert_eq!(coef, 1);
        let IntRange::From(lo) = s1.nr_lookup(a) else {
            panic!("NR lost: {:?}", s1.nr_lookup(a));
        };
        assert_eq!(lo.var_term(), Some((1, var)), "stride variable shared");
    }

    #[test]
    fn merge_type_confusion_goes_to_any() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let mut alloc = VarAlloc::new();
        let mut s1 = AbsState::entry(&ctx);
        let mut s2 = s1.clone();
        s1.locals[3] = AbsValue::int(0);
        s2.locals[3] = AbsValue::null();
        s1.merge_from(&s2, &ctx, &mut alloc, false);
        assert_eq!(s1.locals[3], AbsValue::Any);
    }

    #[test]
    fn retire_site_renames_everywhere() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let site = wbe_ir::SiteId(0);
        let a = Ref::SiteA(site);
        let b = Ref::SiteB(site);
        let mut st = AbsState::entry(&ctx);
        st.locals[3] = AbsValue::single(a);
        st.stack.push(AbsValue::single(a));
        st.nl.insert(a);
        st.sigma_set(&ctx, a, FieldKey::Field(FieldId(0)), AbsValue::single(a));
        st.len_set(a, IntLat::constant(4));
        st.nr_set(a, IntRange::From(IntVal::constant(2)));
        st.retire_site(&ctx, site);
        assert_eq!(st.locals[3], AbsValue::single(b));
        assert_eq!(st.stack[0], AbsValue::single(b));
        assert!(st.nl.contains(&b) && !st.nl.contains(&a));
        let sigma: Vec<_> = st.sigma().collect();
        let f = FieldKey::Field(FieldId(0));
        assert_eq!(sigma, [(b, f, &AbsValue::single(b))]);
        // Len/NR for A are conservatively dropped (B summary keeps only
        // agreeing info; here B had none).
        assert_eq!(st.len_lookup(b), IntLat::Top);
        assert_eq!(st.nr_lookup(b), IntRange::Empty);
        assert!(!st.len().contains_key(&a) && !st.nr().contains_key(&a));
    }

    #[test]
    fn escape_closure_follows_sigma() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let s0 = wbe_ir::SiteId(0);
        let s1 = wbe_ir::SiteId(1);
        let a0 = Ref::SiteA(s0);
        let a1 = Ref::SiteA(s1);
        let mut st = AbsState::entry(&ctx);
        // a0.f = a1
        st.sigma_set(&ctx, a0, FieldKey::Field(FieldId(0)), AbsValue::single(a1));
        let roots: RefSet = [a0].into_iter().collect();
        st.escape(&ctx, &roots);
        assert!(st.nl.contains(&a0));
        assert!(st.nl.contains(&a1), "reachable object escaped too");
    }

    #[test]
    fn an_abstract_value_is_64_bytes() {
        // Two inline constant unknowns and a variable term whose
        // non-zero coefficient leaves a niche: every slot and σ entry
        // stays at 64 bytes.
        assert_eq!(std::mem::size_of::<AbsValue>(), 64);
    }

    #[test]
    fn canonical_maps_drop_defaults() {
        let p = simple_program();
        let m = p.method(MethodId(1));
        let ctx = MethodCtx::new(&p, m, &AnalysisConfig::default());
        let a = Ref::SiteA(wbe_ir::SiteId(0));
        let mut st = AbsState::entry(&ctx);
        st.sigma_set(&ctx, a, FieldKey::Field(FieldId(0)), AbsValue::null());
        assert!(
            st.sigma().next().is_none(),
            "default entries are not stored"
        );
        st.len_set(a, IntLat::Top);
        assert!(!st.len().contains_key(&a));
        st.nr_set(a, IntRange::Empty);
        assert!(st.nr().is_empty());
    }
}
