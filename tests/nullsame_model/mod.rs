//! The §4.3 null-or-same solver as it stood before it learned to skip
//! methods that cannot hold a fact: no pre-filter, a `BTreeSet` per
//! effective-facts query, a `BTreeSet<usize>` worklist, and a panic on
//! divergence. Kept verbatim as the model `nullsame::analyze_method`
//! must agree with, site for site; shared by the test files that
//! declare it as a module.

use std::collections::BTreeSet;

use wbe_repro::ir::{
    cfg, Cond, FieldId, Insn, InsnAddr, LocalId, Method, Program, StaticId, Terminator,
};

/// An object identity the analysis can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Obj {
    /// The object currently referenced by local `l`.
    Local(LocalId),
    /// The object currently referenced by static `g`.
    Static(StaticId),
}

/// A field of a named object.
type Fact = (Obj, FieldId);

/// Per-slot tag: the object identity a slot holds (for receivers) and
/// the null-or-same facts its value satisfies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tag {
    obj: Option<Obj>,
    nos: BTreeSet<Fact>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct NosState {
    locals: Vec<Tag>,
    stack: Vec<Tag>,
    /// Fields known to be null on this path.
    known_null: BTreeSet<Fact>,
}

impl NosState {
    fn entry(method: &Method) -> Self {
        NosState {
            locals: vec![Tag::default(); method.num_locals as usize],
            stack: Vec::new(),
            known_null: BTreeSet::new(),
        }
    }

    /// Effective facts of a tag: its own plus everything known null.
    fn effective(&self, tag: &Tag) -> BTreeSet<Fact> {
        tag.nos.union(&self.known_null).copied().collect()
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
    /// sets, identities by equality.
    fn merge_from(&mut self, other: &NosState) -> bool {
        assert_eq!(self.stack.len(), other.stack.len());
        let mut changed = false;
        let kn: BTreeSet<Fact> = self
            .known_null
            .intersection(&other.known_null)
            .copied()
            .collect();
        let nlocals = self.locals.len();
        for i in 0..nlocals + self.stack.len() {
            let (a, b) = if i < nlocals {
                (self.locals[i].clone(), &other.locals[i])
            } else {
                (self.stack[i - nlocals].clone(), &other.stack[i - nlocals])
            };
            let obj = if a.obj == b.obj { a.obj } else { None };
            let ea = self.effective(&a);
            let eb = other.effective(b);
            // Subtract the merged known_null: it is added back by
            // `effective` at use sites.
            let nos: BTreeSet<Fact> = ea
                .intersection(&eb)
                .filter(|f| !kn.contains(*f))
                .copied()
                .collect();
            let new = Tag { obj, nos };
            let slot = if i < nlocals {
                &mut self.locals[i]
            } else {
                &mut self.stack[i - nlocals]
            };
            if *slot != new {
                *slot = new;
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
                    Some(o) => Some(st.effective(&val).contains(&(o, f))),
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

/// Applies a terminator, returning the successor states (same order as
/// `Terminator::successors`). This is where the path refinement lives:
/// on the null branch of an `ifnull v`, every fact of `v` becomes known
/// null.
fn transfer_term(st: &NosState, term: &Terminator) -> Vec<NosState> {
    match term {
        Terminator::Goto(_) => vec![st.clone()],
        Terminator::If { cond, .. } => {
            let mut s = st.clone();
            let popped: Vec<Tag> = match cond {
                Cond::ICmp(_) | Cond::RefEq | Cond::RefNe => {
                    let b = s.stack.pop().expect("verified");
                    let a = s.stack.pop().expect("verified");
                    vec![a, b]
                }
                Cond::IZero(_) | Cond::IsNull | Cond::NonNull => {
                    vec![s.stack.pop().expect("verified")]
                }
            };
            let mut then_state = s.clone();
            let mut else_state = s;
            match cond {
                Cond::IsNull => {
                    // then-branch: v == null ⇒ for every (o,f) with
                    // `v == o.f ∨ o.f == null`, o.f is null.
                    let facts = then_state.effective(&popped[0]);
                    then_state.known_null.extend(facts);
                }
                Cond::NonNull => {
                    // the else-branch is the null case.
                    let facts = else_state.effective(&popped[0]);
                    else_state.known_null.extend(facts);
                }
                _ => {}
            }
            vec![then_state, else_state]
        }
        Terminator::Return | Terminator::ReturnValue => vec![],
    }
}

/// Runs the analysis on one method, returning the reference-field
/// `putfield` sites provably null-or-same.
pub fn analyze_method(program: &Program, method: &Method) -> BTreeSet<InsnAddr> {
    let nblocks = method.blocks.len();
    let rpo = cfg::reverse_postorder(method);
    let mut rpo_pos = vec![usize::MAX; nblocks];
    for (i, b) in rpo.iter().enumerate() {
        rpo_pos[b.index()] = i;
    }
    let mut entry: Vec<Option<NosState>> = vec![None; nblocks];
    entry[0] = Some(NosState::entry(method));
    let mut worklist: BTreeSet<usize> = [0].into_iter().collect();
    let mut iterations = 0usize;
    while let Some(&pos) = worklist.iter().next() {
        worklist.remove(&pos);
        iterations += 1;
        assert!(
            iterations < (nblocks + 2) * 1_000,
            "null-or-same analysis diverged in {}",
            method.name
        );
        let bid = rpo[pos];
        let mut st = entry[bid.index()].clone().expect("on worklist ⇒ has state");
        let block = method.block(bid);
        for insn in &block.insns {
            let _ = transfer(&mut st, program, insn);
        }
        let outs = transfer_term(&st, &block.term);
        for (succ, out) in block.term.successors().zip(outs) {
            let changed = match &mut entry[succ.index()] {
                slot @ None => {
                    *slot = Some(out);
                    true
                }
                Some(existing) => existing.merge_from(&out),
            };
            if changed {
                worklist.insert(rpo_pos[succ.index()]);
            }
        }
    }
    // Final judgment pass at the fixed point.
    let mut elidable = BTreeSet::new();
    for (bid, block) in method.iter_blocks() {
        let Some(state) = &entry[bid.index()] else {
            continue;
        };
        let mut st = state.clone();
        for (idx, insn) in block.insns.iter().enumerate() {
            if transfer(&mut st, program, insn) == Some(true) {
                elidable.insert(InsnAddr::new(bid, idx));
            }
        }
    }
    elidable
}
