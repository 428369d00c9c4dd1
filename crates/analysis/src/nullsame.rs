//! The §4.3 **null-or-same** analysis.
//!
//! §4.3 of the paper observes that several hot store sites, while not
//! pre-null, "either overwrite null, or else write the value the field
//! already contains" — either way no SATB log entry is needed (the
//! overwritten value is null, or it remains reachable through the very
//! field being stored). The paper verified the property by inspection
//! ("currently by inspection, not via automated tools"); this module is
//! the automated analysis the authors were "considering how best to
//! incorporate".
//!
//! The motivating idiom is `Hashtable.hasMoreElements`:
//!
//! ```java
//! Entry e = entry;
//! while (e == null && i > 0) { e = t[--i]; }
//! entry = e;                  // frequently executed, null-or-same
//! ```
//!
//! Abstract domain: for each local/stack slot we track the set of
//! *(object, field)* pairs for which the slot's value `v` satisfies the
//! disjunction `v == obj.field ∨ obj.field == null`, plus a state-level
//! set of fields known null on this path. Loading `o.f` establishes the
//! property for the loaded value; branching on `v == null` with the
//! property in hand establishes `o.f == null` on the null path (if `v`
//! is null and `v == o.f ∨ o.f == null`, then `o.f` is null). The two
//! facts merge by intersection of the *disjunction*, which is exactly
//! what survives the hashtable idiom's join.
//!
//! Object identities are limited to "current value of local `l`" and
//! "current value of static `g`"; any write that could change an
//! identity or a field kills the affected facts. The analysis is only
//! sound for single-mutator execution (or externally synchronized
//! fields) — the same caveat §4.3 states.
//!
//! The analysis is the second domain of [`crate::fixpoint`]'s engine. It
//! supplies the entry state, the transfer, the merge and the refinement
//! on `ifnull`/`ifnonnull` edges; the one worklist driver solves it
//! under the caller's iteration cap, time budget and panic isolation —
//! the guardrails pre-null runs under — and the one replay walk takes
//! its judgments. A guardrail that fires gives the method the empty set.

use std::collections::{BTreeMap, BTreeSet};

use wbe_ir::{Cond, Insn, InsnAddr, LocalId, Method, Program, StaticId, Terminator};

use crate::config::AnalysisConfig;
use crate::fixpoint::{isolated, replay, run_fixpoint, DegradeReason, Domain, Guard};

/// An object identity the analysis can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Obj {
    /// The object currently referenced by local `l`.
    Local(LocalId),
    /// The object currently referenced by static `g`.
    Static(StaticId),
}

/// A field of a named object.
type Fact = (Obj, wbe_ir::FieldId);

/// Per-slot tag: the object identity a slot holds (for receivers) and
/// the null-or-same facts its value satisfies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tag {
    obj: Option<Obj>,
    nos: BTreeSet<Fact>,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct NosState {
    locals: Vec<Tag>,
    stack: Vec<Tag>,
    /// Fields known to be null on this path.
    known_null: BTreeSet<Fact>,
}

/// `clone_from` copies into the target's vectors (the driver's working
/// state, as for `AbsState`).
impl Clone for NosState {
    fn clone(&self) -> Self {
        NosState {
            locals: self.locals.clone(),
            stack: self.stack.clone(),
            known_null: self.known_null.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.locals.clone_from(&source.locals);
        self.stack.clone_from(&source.stack);
        self.known_null.clone_from(&source.known_null);
    }
}

impl NosState {
    fn entry(method: &Method) -> Self {
        NosState {
            locals: vec![Tag::default(); method.num_locals as usize],
            stack: Vec::new(),
            known_null: BTreeSet::new(),
        }
    }

    /// True if `fact` holds of a value tagged `tag`: the tag carries it,
    /// or the field is known null outright.
    fn holds(&self, tag: &Tag, fact: &Fact) -> bool {
        tag.nos.contains(fact) || self.known_null.contains(fact)
    }

    /// Kills facts matching `pred` in every component.
    fn kill(&mut self, pred: impl Fn(&Fact) -> bool) {
        for t in self.locals.iter_mut().chain(self.stack.iter_mut()) {
            t.nos.retain(|f| !pred(f));
        }
        self.known_null.retain(|f| !pred(f));
    }

    /// Kills object identities equal to `o` (their referent changed).
    fn kill_identity(&mut self, o: Obj) {
        for t in self.locals.iter_mut().chain(self.stack.iter_mut()) {
            if t.obj == Some(o) {
                t.obj = None;
            }
        }
        self.kill(|(fo, _)| *fo == o);
    }

    /// Merge: slot-wise; facts merge by intersection of *effective*
    /// sets (a tag's own facts plus everything known null on its side),
    /// identities by equality.
    fn merge_from(&mut self, other: &NosState) -> bool {
        assert_eq!(self.stack.len(), other.stack.len());
        let mut changed = false;
        let kn: BTreeSet<Fact> = self
            .known_null
            .intersection(&other.known_null)
            .copied()
            .collect();
        let effective = |tag: &Tag, known_null: &BTreeSet<Fact>| -> BTreeSet<Fact> {
            tag.nos.union(known_null).copied().collect()
        };
        let mine = self.locals.iter_mut().chain(self.stack.iter_mut());
        for (a, b) in mine.zip(other.locals.iter().chain(&other.stack)) {
            if a.obj.is_some() && a.obj != b.obj {
                a.obj = None;
                changed = true;
            }
            // An empty effective set intersects to nothing: the slot
            // keeps its (empty) facts and no set is built.
            if a.nos.is_empty() && self.known_null.is_empty() {
                continue;
            }
            // Subtract the merged known_null: it is added back by
            // `holds` at use sites.
            let nos: BTreeSet<Fact> = effective(a, &self.known_null)
                .intersection(&effective(b, &other.known_null))
                .filter(|f| !kn.contains(*f))
                .copied()
                .collect();
            if a.nos != nos {
                a.nos = nos;
                changed = true;
            }
        }
        if self.known_null != kn {
            self.known_null = kn;
            changed = true;
        }
        changed
    }
}

/// Transfers one instruction; returns `Some(true)` when a reference
/// `putfield` is null-or-same-elidable.
fn transfer(st: &mut NosState, program: &Program, insn: &Insn) -> Option<bool> {
    match *insn {
        Insn::Const(_) | Insn::ConstNull => {
            st.stack.push(Tag::default());
            None
        }
        Insn::Load(l) => {
            let mut tag = st.locals[l.index()].clone();
            tag.obj = Some(Obj::Local(l));
            st.stack.push(tag);
            None
        }
        Insn::Store(l) => {
            let mut tag = st.stack.pop().expect("verified");
            // The local's old identity dies; facts naming it die too —
            // including facts carried by the incoming value.
            st.kill_identity(Obj::Local(l));
            tag.obj = None;
            tag.nos.retain(|(o, _)| *o != Obj::Local(l));
            st.locals[l.index()] = tag;
            None
        }
        Insn::IInc(..) => None,
        Insn::Dup => {
            let t = st.stack.last().expect("verified").clone();
            st.stack.push(t);
            None
        }
        Insn::DupX1 => {
            let b = st.stack.pop().expect("verified");
            let a = st.stack.pop().expect("verified");
            st.stack.push(b.clone());
            st.stack.push(a);
            st.stack.push(b);
            None
        }
        Insn::Pop => {
            st.stack.pop();
            None
        }
        Insn::Swap => {
            let b = st.stack.pop().expect("verified");
            let a = st.stack.pop().expect("verified");
            st.stack.push(b);
            st.stack.push(a);
            None
        }
        Insn::Add
        | Insn::Sub
        | Insn::Mul
        | Insn::Div
        | Insn::Rem
        | Insn::And
        | Insn::Or
        | Insn::Xor
        | Insn::Shl
        | Insn::Shr => {
            st.stack.pop();
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::Neg => {
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::GetField(f) => {
            let recv = st.stack.pop().expect("verified");
            let mut tag = Tag::default();
            if let Some(o) = recv.obj {
                // v == o.f holds, trivially satisfying the disjunction.
                tag.nos.insert((o, f));
            }
            st.stack.push(tag);
            None
        }
        Insn::PutField(f) => {
            let val = st.stack.pop().expect("verified");
            let recv = st.stack.pop().expect("verified");
            let is_ref = program.field(f).ty.is_ref_like();
            let judgment = if is_ref {
                match recv.obj {
                    Some(o) => Some(st.holds(&val, &(o, f))),
                    None => Some(false),
                }
            } else {
                None
            };
            // This store may invalidate same-field facts through aliased
            // receivers; kill them all (conservative).
            st.kill(|(_, kf)| *kf == f);
            judgment
        }
        Insn::GetStatic(g) => {
            let mut tag = Tag::default();
            if program.static_(g).ty.is_ref_like() {
                tag.obj = Some(Obj::Static(g));
            }
            st.stack.push(tag);
            None
        }
        Insn::PutStatic(g) => {
            st.stack.pop();
            st.kill_identity(Obj::Static(g));
            None
        }
        Insn::AaLoad => {
            st.stack.pop();
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::AaStore => {
            st.stack.pop();
            st.stack.pop();
            st.stack.pop();
            // Array element writes do not affect field facts.
            None
        }
        Insn::IaLoad => {
            st.stack.pop();
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::IaStore => {
            st.stack.pop();
            st.stack.pop();
            st.stack.pop();
            None
        }
        Insn::ArrayLength => {
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::New { .. } => {
            st.stack.push(Tag::default());
            None
        }
        Insn::NewRefArray { .. } | Insn::NewIntArray { .. } => {
            st.stack.pop();
            st.stack.push(Tag::default());
            None
        }
        Insn::Invoke(callee) => {
            let sig = &program.method(callee).sig;
            for _ in 0..sig.params.len() {
                st.stack.pop();
            }
            // The callee may write any field or static: all facts die,
            // and static-based identities may have been reassigned.
            st.kill(|_| true);
            for t in st.locals.iter_mut().chain(st.stack.iter_mut()) {
                if matches!(t.obj, Some(Obj::Static(_))) {
                    t.obj = None;
                }
            }
            if sig.ret.is_some() {
                st.stack.push(Tag::default());
            }
            None
        }
    }
}

/// The null-or-same domain as the driver solves it.
struct NullOrSame<'p> {
    program: &'p Program,
    method: &'p Method,
}

impl Domain for NullOrSame<'_> {
    type State = NosState;
    type Judgment = bool;

    fn entry(&self) -> NosState {
        NosState::entry(self.method)
    }

    fn transfer(&self, st: &mut NosState, insn: &Insn) -> Option<bool> {
        transfer(st, self.program, insn)
    }

    /// The path refinement: on the null edge of an `ifnull v` (the
    /// else-edge of an `ifnonnull v`), every fact of `v` becomes known
    /// null.
    fn transfer_edge(&self, st: &mut NosState, term: &Terminator, succ: usize) {
        let Terminator::If { cond, .. } = *term else {
            return;
        };
        let v = st.stack.pop().expect("verified");
        if cond.pops() == 2 {
            st.stack.pop().expect("verified");
        }
        // v == null ⇒ for every (o,f) with `v == o.f ∨ o.f == null`, o.f
        // is null.
        if matches!((cond, succ), (Cond::IsNull, 0) | (Cond::NonNull, 1)) {
            st.known_null.extend(v.nos);
        }
    }

    fn merge(&mut self, into: &mut NosState, incoming: &NosState, _widen: bool) -> bool {
        into.merge_from(incoming)
    }
}

/// True if a null-or-same fact can be born in `method` (only at a
/// `getfield`) and asked for (only at a reference-typed `putfield`).
/// A method missing either has no elidable site whatever its fixed
/// point is, so it is not solved.
fn can_hold_a_fact(program: &Program, method: &Method) -> bool {
    let (mut born, mut asked) = (false, false);
    for (_, _, insn) in method.iter_insns() {
        match *insn {
            Insn::GetField(_) => born = true,
            Insn::PutField(f) => asked |= program.field(f).ty.is_ref_like(),
            _ => {}
        }
    }
    born && asked
}

/// Runs the analysis on one method, returning the reference-field
/// `putfield` sites provably null-or-same.
///
/// Never panics on any input program: a solve that exceeds its
/// iteration cap, or panics on malformed IR, gives the method the
/// empty set and is counted in `wbe-telemetry` under
/// `analysis.degraded`.
pub fn analyze_method(program: &Program, method: &Method) -> BTreeSet<InsnAddr> {
    analyze_method_under(program, method, &AnalysisConfig::default())
}

/// [`analyze_method`] under `config`'s guardrails — the cap, the time
/// budget and panic isolation pre-null runs under, applied by the same
/// driver.
pub(crate) fn analyze_method_under(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> BTreeSet<InsnAddr> {
    if !can_hold_a_fact(program, method) {
        return BTreeSet::new();
    }
    elidable(program, method, config).unwrap_or_else(|_| {
        wbe_telemetry::counter("analysis.degraded").inc();
        BTreeSet::new()
    })
}

/// The fixed point and the judgment replayed over it.
fn elidable(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> Result<BTreeSet<InsnAddr>, DegradeReason> {
    isolated(|| {
        let mut domain = NullOrSame { program, method };
        let guard = Guard::new(config);
        let (states, _) = run_fixpoint(method, &mut domain, &guard).map_err(|d| d.reason)?;
        let mut sites = BTreeSet::new();
        let asked =
            |p: Option<&Insn>| matches!(p, Some(&Insn::PutField(f)) if program.field_is_ref(f));
        replay(method, &domain, Some(&states), asked, |step| {
            if step.judgment() == Some(true) {
                sites.insert(step.addr);
            }
        });
        Ok(sites)
    })?
}

/// Runs the analysis on every method.
pub fn analyze_program(program: &Program) -> BTreeMap<wbe_ir::MethodId, BTreeSet<InsnAddr>> {
    program
        .iter_methods()
        .map(|(mid, m)| (mid, analyze_method(program, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    /// Plain refresh: `o.f = o.f` — the simplest null-or-same store.
    #[test]
    fn direct_reload_store_is_elidable() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("refresh", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(f).putfield(f).return_();
        });
        let p = pb.finish();
        let sites = analyze_method(&p, p.method(m));
        assert_eq!(sites.len(), 1, "{sites:?}");
    }

    /// The paper's Hashtable idiom: conditional replacement when null.
    #[test]
    fn hashtable_idiom_is_elidable() {
        let mut pb = ProgramBuilder::new();
        let ent = pb.class("Entry");
        let c = pb.class("Table");
        let entry_f = pb.field(c, "entry", Ty::Ref(ent));
        // void advance(Table this, Entry[] t, int i):
        //   Entry e = this.entry;
        //   while (e == null && i > 0) { e = t[--i]; }
        //   this.entry = e;
        let m = pb.method(
            "advance",
            vec![Ty::Ref(c), Ty::RefArray(ent), Ty::Int],
            None,
            1,
            |mb| {
                let this = mb.local(0);
                let t = mb.local(1);
                let i = mb.local(2);
                let e = mb.local(3);
                let head = mb.new_block();
                let check_i = mb.new_block();
                let body = mb.new_block();
                let exit = mb.new_block();
                mb.load(this).getfield(entry_f).store(e).goto_(head);
                mb.switch_to(head).load(e).if_null(check_i, exit);
                mb.switch_to(check_i).load(i).if_zero(CmpOp::Gt, body, exit);
                mb.switch_to(body)
                    .iinc(i, -1)
                    .load(t)
                    .load(i)
                    .aaload()
                    .store(e)
                    .goto_(head);
                mb.switch_to(exit)
                    .load(this)
                    .load(e)
                    .putfield(entry_f)
                    .return_();
            },
        );
        let p = pb.finish();
        p.validate().unwrap();
        let sites = analyze_method(&p, p.method(m));
        assert_eq!(sites.len(), 1, "the final store is null-or-same: {sites:?}");
    }

    /// A store of a genuinely different value must not be elided.
    #[test]
    fn different_value_not_elidable() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("clobber", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            let v = mb.local(1);
            mb.load(o).load(v).putfield(f).return_();
        });
        let p = pb.finish();
        assert!(analyze_method(&p, p.method(m)).is_empty());
    }

    /// An intervening store to the same field kills the fact.
    #[test]
    fn intervening_store_kills_fact() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("stale", vec![Ty::Ref(c), Ty::Ref(c)], None, 1, |mb| {
            let o = mb.local(0);
            let v = mb.local(1);
            let e = mb.local(2);
            mb.load(o).getfield(f).store(e); // e = o.f
            mb.load(o).load(v).putfield(f); // o.f = v (kills)
            mb.load(o).load(e).putfield(f); // o.f = e: NOT same anymore
            mb.return_();
        });
        let p = pb.finish();
        assert!(analyze_method(&p, p.method(m)).is_empty());
    }

    /// Reassigning the receiver local kills the identity.
    #[test]
    fn receiver_reassignment_kills_identity() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("swapobj", vec![Ty::Ref(c), Ty::Ref(c)], None, 1, |mb| {
            let o = mb.local(0);
            let o2 = mb.local(1);
            let e = mb.local(2);
            mb.load(o).getfield(f).store(e); // e = o.f
            mb.load(o2).store(o); // o = o2 (different object!)
            mb.load(o).load(e).putfield(f); // o.f = e: different receiver
            mb.return_();
        });
        let p = pb.finish();
        assert!(analyze_method(&p, p.method(m)).is_empty());
    }

    /// A call between load and store kills everything.
    #[test]
    fn call_kills_facts() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let callee = pb.method("noop", vec![], None, 0, |mb| {
            mb.return_();
        });
        let m = pb.method("called", vec![Ty::Ref(c)], None, 1, |mb| {
            let o = mb.local(0);
            let e = mb.local(1);
            mb.load(o).getfield(f).store(e);
            mb.invoke(callee);
            mb.load(o).load(e).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        assert!(analyze_method(&p, p.method(m)).is_empty());
    }

    /// Static receivers work too: `state.cur = state.cur`.
    #[test]
    fn static_receiver_refresh_is_elidable() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("State");
        let cur = pb.field(c, "cur", Ty::Ref(c));
        let g = pb.static_field("state", Ty::Ref(c));
        let m = pb.method("touch", vec![], None, 0, |mb| {
            mb.getstatic(g)
                .getstatic(g)
                .getfield(cur)
                .putfield(cur)
                .return_();
        });
        let p = pb.finish();
        assert_eq!(analyze_method(&p, p.method(m)).len(), 1);
    }

    /// Reassigning the static between load and store kills the fact.
    #[test]
    fn putstatic_kills_static_identity() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("State");
        let cur = pb.field(c, "cur", Ty::Ref(c));
        let g = pb.static_field("state", Ty::Ref(c));
        let m = pb.method("stale_static", vec![Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let e = mb.local(1);
            mb.getstatic(g).getfield(cur).store(e);
            mb.load(n).putstatic(g); // `state` now refers elsewhere
            mb.getstatic(g).load(e).putfield(cur);
            mb.return_();
        });
        let p = pb.finish();
        assert!(analyze_method(&p, p.method(m)).is_empty());
    }

    /// The nonnull variant of the refinement: `if (v != null) {..} else
    /// { o.f known null }`.
    #[test]
    fn nonnull_branch_refines_else_path() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        // if (o.f != null) return; o.f = x; (x arbitrary: o.f is null)
        let m = pb.method("lazy_init", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            let x = mb.local(1);
            let nonnull = mb.new_block();
            let isnull = mb.new_block();
            mb.load(o).getfield(f).if_nonnull(nonnull, isnull);
            mb.switch_to(nonnull).return_();
            mb.switch_to(isnull).load(o).load(x).putfield(f).return_();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let sites = analyze_method(&p, p.method(m));
        assert_eq!(sites.len(), 1, "lazy-init store overwrites null: {sites:?}");
    }

    /// Facts are born only at `getfield` and asked for only at
    /// reference `putfield`s: a method without both is not solved.
    #[test]
    fn methods_that_cannot_hold_a_fact_are_skipped() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let n = pb.field(c, "n", Ty::Int);
        let store_only = pb.method("store_only", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).putfield(f).return_();
        });
        let load_only = pb.method("load_only", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).getfield(f).pop().return_();
        });
        let int_store = pb.method("int_store", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(n).putfield(n).return_();
        });
        let both = pb.method("both", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(f).putfield(f).return_();
        });
        let p = pb.finish();
        for m in [store_only, load_only, int_store] {
            assert!(!can_hold_a_fact(&p, p.method(m)), "{m}");
            let solved = elidable(&p, p.method(m), &AnalysisConfig::default());
            assert_eq!(solved, Ok(BTreeSet::new()), "{m}");
            assert!(analyze_method(&p, p.method(m)).is_empty());
        }
        assert!(can_hold_a_fact(&p, p.method(both)));
        assert_eq!(analyze_method(&p, p.method(both)).len(), 1);
    }

    /// The guardrail PR 2 gave the pre-null analysis covers this one
    /// too: a method whose IR underflows the stack gets the empty set
    /// and is counted as degraded; its neighbours are analysed as if it
    /// were not there.
    #[test]
    fn malformed_method_degrades_instead_of_panicking() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let refresh = |mb: &mut wbe_ir::builder::MethodBuilder<'_>| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(f).putfield(f).return_();
        };
        let good = pb.method("good", vec![Ty::Ref(c)], None, 0, refresh);
        let bad = pb.method("bad", vec![Ty::Ref(c)], None, 0, refresh);
        let mut p = pb.finish();
        p.methods[bad.index()].blocks[0].insns.insert(0, Insn::Swap);
        assert!(can_hold_a_fact(&p, p.method(bad)), "the solver is reached");

        let degraded = wbe_telemetry::counter("analysis.degraded");
        let before = degraded.get();
        let sites = analyze_program(&p);
        assert!(sites[&bad].is_empty());
        assert_eq!(sites[&good].len(), 1);
        assert!(degraded.get() > before, "counted under analysis.degraded");
    }
}
