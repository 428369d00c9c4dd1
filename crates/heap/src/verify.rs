//! Heap-invariant verification.
//!
//! Three checks, run by drivers at GC cycle boundaries:
//!
//! * **Reference integrity** ([`verify_refs`]): no live object or static
//!   holds a reference to a freed slot. An unsound barrier elision
//!   eventually violates this — the collector sweeps an object the
//!   mutator can still reach.
//! * **SATB snapshot reachability** ([`post_mark`]): between `remark`
//!   and `sweep`, everything reachable from the roots must be marked.
//!   Reachable-now is a subset of the SATB obligation (snapshot ∪
//!   allocated-during-cycle), so an unmarked reachable object proves a
//!   lost snapshot edge. Includes reference integrity.
//! * **Mark/sweep bitmap consistency** ([`post_sweep`]): right after a
//!   sweep, every surviving object carries a mark bit — the sweep kept
//!   exactly the marked ones. Includes reference integrity.
//!
//! All checks are read-only and return the full violation list rather
//! than failing fast, so a harness can report everything at once.
//!
//! The checks run at every boundary of every cycle, so a cycle's audit
//! is one walk over the live objects and one occupancy scan, and it
//! re-derives nothing it has already proved:
//!
//! * [`post_mark`]'s integrity walk also checks a *closure
//!   certificate*: every live root is marked, and every live child of a
//!   marked live object is marked. By induction on the path from a
//!   root, nothing reachable is then unmarked, so the traversal from
//!   the roots (on a [`ReachSet`], the collector's bit set) runs only
//!   when the certificate fails.
//! * [`post_sweep`] takes post-mark's [`PostMark`]. When post-mark was
//!   clean and certified, nothing has been allocated and no mark bit
//!   has changed since, and a scan of the slots finds every survivor
//!   marked and exactly as many as there were marked live objects, the
//!   survivors are those objects and their fields name only survivors:
//!   only the statics are left to read. Anything else runs the full
//!   walk.
//!
//! Each run of an exact path because a proof failed counts in the
//! `heap.verify.exact_walks` counter; a clean cycle never touches it.
//! DESIGN §16 has both proofs. [`verify_post_mark`] and
//! [`verify_post_sweep`] are the same checks for callers that hold no
//! token. Sets and violation lists come out in ascending slot order.

use std::fmt;

use crate::bitset::BitSet;
use crate::heap::{Heap, Store};
use crate::object::HeapObject;
use crate::value::GcRef;

/// A single invariant violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A live object references a freed slot.
    DanglingField {
        /// The referencing live object.
        from: GcRef,
        /// The dead referent.
        target: GcRef,
    },
    /// A static variable references a freed slot.
    DanglingStatic {
        /// The static's index.
        index: usize,
        /// The dead referent.
        target: GcRef,
    },
    /// After remark (before sweep): a root-reachable object is unmarked
    /// and would be freed by the sweep — a lost SATB snapshot edge.
    UnmarkedReachable {
        /// The reachable-but-unmarked object.
        obj: GcRef,
    },
    /// After sweep: a surviving object carries no mark bit, so the
    /// sweep and the mark bitmap disagree.
    UnmarkedLive {
        /// The surviving unmarked object.
        obj: GcRef,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DanglingField { from, target } => {
                write!(f, "live object {from} references freed slot {target}")
            }
            Violation::DanglingStatic { index, target } => {
                write!(f, "static #{index} references freed slot {target}")
            }
            Violation::UnmarkedReachable { obj } => {
                write!(
                    f,
                    "reachable object {obj} unmarked after remark (lost SATB edge)"
                )
            }
            Violation::UnmarkedLive { obj } => {
                write!(f, "object {obj} survived the sweep without a mark bit")
            }
        }
    }
}

/// A set of objects, one bit per slot: what [`reachable_set`] returns.
/// Iteration is in ascending slot order.
#[derive(Debug, Default)]
pub struct ReachSet(BitSet);

impl ReachSet {
    /// An empty set sized for `store`'s slots.
    pub(crate) fn for_store(store: &Store) -> ReachSet {
        let mut bits = BitSet::default();
        bits.reset(store.capacity());
        ReachSet(bits)
    }

    /// Adds `r` if it is live in `store` and not yet a member; true if
    /// it was added. The bit is tested first, so meeting a member again
    /// costs one word read and never touches its slot.
    pub(crate) fn reach(&mut self, store: &Store, r: GcRef) -> bool {
        !self.0.get(r.index()) && store.is_live(r) && self.0.insert(r.index())
    }

    /// True if `r` is a member.
    pub fn contains(&self, r: &GcRef) -> bool {
        self.0.get(r.index())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// The members in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = GcRef> + '_ {
        self.0.iter().map(|slot| GcRef(slot as u32))
    }
}

impl FromIterator<GcRef> for ReachSet {
    fn from_iter<I: IntoIterator<Item = GcRef>>(refs: I) -> ReachSet {
        let mut bits = BitSet::default();
        for r in refs {
            bits.insert(r.index());
        }
        ReachSet(bits)
    }
}

/// Owning iteration, ascending, for callers that consume the set. The
/// audits walk it by reference with [`ReachSet::iter`].
impl IntoIterator for ReachSet {
    type Item = GcRef;
    type IntoIter = std::vec::IntoIter<GcRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// Appends a [`Violation::DanglingField`] for every freed slot `obj`
/// references.
fn check_fields(store: &Store, from: GcRef, obj: &HeapObject, out: &mut Vec<Violation>) {
    obj.for_each_ref(|target| {
        if !store.is_live(target) {
            out.push(Violation::DanglingField { from, target });
        }
    });
}

/// Appends a [`Violation::DanglingStatic`] for every static that names
/// a freed slot.
fn check_statics(heap: &Heap, out: &mut Vec<Violation>) {
    for (index, target) in heap.static_ref_slots() {
        if !heap.store.is_live(target) {
            out.push(Violation::DanglingStatic { index, target });
        }
    }
}

/// Reference integrity: every reference held by a live object or a
/// static must denote a live object.
pub fn verify_refs(heap: &Heap) -> Vec<Violation> {
    let mut out = Vec::new();
    for (from, obj) in heap.store.iter_live() {
        check_fields(&heap.store, from, obj, &mut out);
    }
    check_statics(heap, &mut out);
    out
}

/// The traversal behind [`reachable_set`] and an uncertified
/// [`post_mark`].
fn trace(heap: &Heap, roots: &[GcRef]) -> ReachSet {
    let store = &heap.store;
    let mut seen = ReachSet::for_store(store);
    let mut stack: Vec<GcRef> = Vec::new();
    stack.extend(roots.iter().copied().filter(|&r| seen.reach(store, r)));
    while let Some(r) = stack.pop() {
        if let Ok(obj) = store.get(r) {
            obj.for_each_ref(|child| {
                if seen.reach(store, child) {
                    stack.push(child);
                }
            });
        }
    }
    seen
}

/// The live objects reachable from `roots`. Public so the scheduler
/// worlds ([`crate::sched`], [`crate::overload`]) can record the
/// snapshot-reachable set at `begin_marking` and audit it against that
/// cycle's sweep, and the necessity oracle can ask what is still rooted.
pub fn reachable_set(heap: &Heap, roots: &[GcRef]) -> ReachSet {
    let _span = wbe_telemetry::span!("heap.verify.snapshot");
    trace(heap, roots)
}

/// Counts one run of an exact path after a failed proof.
fn exact_walk() {
    wbe_telemetry::counter("heap.verify.exact_walks").inc();
}

/// What [`post_mark`] found, for [`post_sweep`] to build on.
#[derive(Debug)]
pub struct PostMark {
    violations: Vec<Violation>,
    /// Present when post-mark was clean and certified.
    proof: Option<Proof>,
}

/// What a faithful sweep must leave for post-mark's proof to carry over.
#[derive(Debug)]
struct Proof {
    /// Marked live objects: the survivors.
    marked: usize,
    /// `heap.stats.allocations`.
    allocations: u64,
    /// The mark bits.
    marks: Vec<u64>,
}

impl PostMark {
    /// The violations, as [`verify_post_mark`] returns them.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True if the survivors of `heap` are exactly the objects post-mark
    /// certified: nothing allocated and no mark changed since, every
    /// survivor marked, and as many as there were marked live objects.
    /// Reads no fields.
    fn vouches_for(&self, heap: &Heap) -> bool {
        let Some(proof) = &self.proof else {
            return false;
        };
        if heap.stats.allocations != proof.allocations || heap.gc.mark_words() != proof.marks {
            return false;
        }
        let mut survivors = 0;
        for (obj, _) in heap.store.iter_live() {
            if !heap.gc.is_marked(obj) {
                return false;
            }
            survivors += 1;
        }
        survivors == proof.marked
    }
}

/// SATB snapshot reachability, checked between `remark` and `sweep`:
/// every object reachable from `roots` must be marked. The violations
/// are [`verify_refs`]'s, then every unmarked reachable object in
/// ascending order.
///
/// One walk over the live objects checks integrity and the closure
/// certificate; the traversal from `roots` runs only if the certificate
/// fails. Hand the result to [`post_sweep`] after the sweep.
pub fn post_mark(heap: &Heap, roots: &[GcRef]) -> PostMark {
    let _span = wbe_telemetry::span!("heap.verify.post_mark");
    let (store, gc) = (&heap.store, &heap.gc);
    let mut violations = Vec::new();
    let mut closed = roots.iter().all(|&r| gc.is_marked(r) || !store.is_live(r));
    let mut marked = 0;
    for (from, obj) in store.iter_live() {
        let scanned = gc.is_marked(from);
        marked += usize::from(scanned);
        obj.for_each_ref(|target| {
            if !store.is_live(target) {
                violations.push(Violation::DanglingField { from, target });
            } else if scanned && !gc.is_marked(target) {
                closed = false;
            }
        });
    }
    check_statics(heap, &mut violations);
    if !closed {
        exact_walk();
        violations.extend(
            trace(heap, roots)
                .iter()
                .filter(|&obj| !gc.is_marked(obj))
                .map(|obj| Violation::UnmarkedReachable { obj }),
        );
    }
    let proof = (closed && violations.is_empty()).then(|| Proof {
        marked,
        allocations: heap.stats.allocations,
        marks: gc.mark_words().to_vec(),
    });
    PostMark { violations, proof }
}

/// [`post_mark`]'s violations, for callers that will not run
/// [`post_sweep`].
pub fn verify_post_mark(heap: &Heap, roots: &[GcRef]) -> Vec<Violation> {
    post_mark(heap, roots).violations
}

/// Mark/sweep bitmap consistency, checked immediately after the sweep
/// that followed `post_mark`: the same list as [`verify_post_sweep`].
///
/// Between the two calls the heap may be swept and nothing else. An
/// allocation (with whatever is stored into it), a changed mark bit or
/// a removed survivor is seen, and sends the check down the full walk;
/// a reference store into an object post-mark saw is not.
pub fn post_sweep(heap: &Heap, post_mark: &PostMark) -> Vec<Violation> {
    let _span = wbe_telemetry::span!("heap.verify.post_sweep");
    if post_mark.vouches_for(heap) {
        let mut out = Vec::new();
        check_statics(heap, &mut out);
        return out;
    }
    exact_walk();
    sweep_walk(heap)
}

/// Mark/sweep bitmap consistency, checked immediately after a sweep
/// (before any further allocation): every surviving object is marked.
/// Includes [`verify_refs`], whose findings come first; both are
/// gathered in one walk over the live slots.
pub fn verify_post_sweep(heap: &Heap) -> Vec<Violation> {
    let _span = wbe_telemetry::span!("heap.verify.post_sweep");
    sweep_walk(heap)
}

/// The walk behind [`verify_post_sweep`] and a refused [`post_sweep`].
fn sweep_walk(heap: &Heap) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut unmarked = Vec::new();
    for (from, obj) in heap.store.iter_live() {
        check_fields(&heap.store, from, obj, &mut out);
        if !heap.gc.is_marked(from) {
            unmarked.push(Violation::UnmarkedLive { obj: from });
        }
    }
    check_statics(heap, &mut out);
    out.append(&mut unmarked);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::value::{FieldShape, Value};

    fn obj(h: &mut Heap) -> GcRef {
        h.alloc_object(0, &[FieldShape::Ref, FieldShape::Ref])
            .unwrap()
    }

    #[test]
    fn clean_heap_has_no_violations() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.register_statics(&[FieldShape::Ref]);
        h.set_static(0, Value::from(a)).unwrap();
        assert!(verify_refs(&h).is_empty());
        h.gc.begin_marking(&mut h.store, &[a]);
        h.gc.remark(&mut h.store, &[a]);
        assert!(verify_post_mark(&h, &[a]).is_empty());
        h.sweep();
        assert!(verify_post_sweep(&h).is_empty());
    }

    #[test]
    fn dangling_field_and_static_detected() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.register_statics(&[FieldShape::Ref]);
        h.set_static(0, Value::from(b)).unwrap();
        h.store.remove(b);
        let v = verify_refs(&h);
        assert!(v.contains(&Violation::DanglingField { from: a, target: b }));
        assert!(v.contains(&Violation::DanglingStatic {
            index: 0,
            target: b
        }));
        assert!(v[0].to_string().contains("freed slot"));
    }

    /// The exact failure an unsound elision produces: unlink during
    /// marking with no SATB log, then re-link into an already-scanned
    /// object. The lost referent is reachable but unmarked at post-mark,
    /// and dangling after the sweep.
    #[test]
    fn unsound_elision_interleaving_is_caught() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let x = obj(&mut h);
        h.set_field(b, 0, Value::from(x)).unwrap();
        // Roots [b, a]: the LIFO grey stack scans a first, leaving b
        // (and its edge to x) unscanned when the mutator races.
        h.gc.begin_marking(&mut h.store, &[b, a]);
        h.gc.mark_step(&mut h.store, 1); // scans a only
                                         // Mutator: t = b.f0; b.f0 = null — barrier UNSOUNDLY elided, so
                                         // x is never logged; then a.f0 = t re-links x behind the marker.
        h.set_field(b, 0, Value::NULL).unwrap();
        h.set_field(a, 0, Value::from(x)).unwrap();
        h.gc.remark(&mut h.store, &[a, b]);
        let post_mark = verify_post_mark(&h, &[a, b]);
        assert!(
            post_mark.contains(&Violation::UnmarkedReachable { obj: x }),
            "{post_mark:?}"
        );
        h.sweep();
        let post_sweep = verify_post_sweep(&h);
        assert!(
            post_sweep.contains(&Violation::DanglingField { from: a, target: x }),
            "{post_sweep:?}"
        );
    }

    /// With the barrier in place, the same interleaving is clean — the
    /// verifier does not false-positive on sound schedules.
    #[test]
    fn sound_barrier_interleaving_is_clean() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let x = obj(&mut h);
        h.set_field(b, 0, Value::from(x)).unwrap();
        h.gc.begin_marking(&mut h.store, &[b, a]);
        h.gc.mark_step(&mut h.store, 1); // scans a only
        h.gc.satb_log(x); // the barrier the elision would have removed
        h.set_field(b, 0, Value::NULL).unwrap();
        h.set_field(a, 0, Value::from(x)).unwrap();
        h.gc.remark(&mut h.store, &[a, b]);
        assert!(verify_post_mark(&h, &[a, b]).is_empty());
        h.sweep();
        assert!(verify_post_sweep(&h).is_empty());
    }

    #[test]
    fn unmarked_live_detected_after_inconsistent_sweep() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        h.gc.begin_marking(&mut h.store, &[a]);
        h.gc.remark(&mut h.store, &[a]);
        // Allocate after the cycle: idle allocation is unmarked, and no
        // sweep ran to reconcile — the post-sweep check must flag it if
        // asked at the wrong time.
        let n = obj(&mut h);
        let v = verify_post_sweep(&h);
        assert!(v.contains(&Violation::UnmarkedLive { obj: n }));
    }

    fn mark_from(h: &mut Heap, roots: &[GcRef]) {
        h.gc.begin_marking(&mut h.store, roots);
        h.gc.remark(&mut h.store, roots);
    }

    /// A clean cycle certifies itself, and its post-sweep reads the
    /// statics and nothing else — which still finds one naming garbage.
    #[test]
    fn clean_cycle_is_certified_and_post_sweep_reads_only_statics() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let garbage = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(garbage, 0, Value::from(a)).unwrap();
        h.register_statics(&[FieldShape::Ref]);
        h.set_static(0, Value::from(garbage)).unwrap();
        mark_from(&mut h, &[a]);
        let token = post_mark(&h, &[a]);
        assert!(token.violations().is_empty());
        assert_eq!(token.proof.as_ref().map(|p| p.marked), Some(2));
        h.sweep();
        assert!(token.vouches_for(&h));
        let dangling = vec![Violation::DanglingStatic {
            index: 0,
            target: garbage,
        }];
        assert_eq!(post_sweep(&h, &token), dangling);
        assert_eq!(verify_post_sweep(&h), dangling);
    }

    /// Marked garbage pointing at an unmarked object breaks the closure
    /// without breaking reachability: post-mark is clean but proves
    /// nothing, and post-sweep must walk to find the edge left dangling.
    #[test]
    fn marked_garbage_fails_the_certificate_but_not_the_check() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let floating = obj(&mut h);
        let unmarked = obj(&mut h);
        mark_from(&mut h, &[a, floating]);
        h.set_field(floating, 0, Value::from(unmarked)).unwrap();
        let token = post_mark(&h, &[a]);
        assert!(token.violations().is_empty());
        assert!(token.proof.is_none());
        h.sweep();
        let dangling = vec![Violation::DanglingField {
            from: floating,
            target: unmarked,
        }];
        assert_eq!(post_sweep(&h, &token), dangling);
    }

    /// Re-marked from other roots between post-mark and the sweep, with
    /// as many survivors as post-mark counted: only the mark bits tell
    /// the token that these are not the objects it certified.
    #[test]
    fn a_token_refuses_a_heap_re_marked_since() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let x = obj(&mut h);
        let b = obj(&mut h);
        let gone = obj(&mut h);
        let c = obj(&mut h);
        h.set_field(a, 0, Value::from(x)).unwrap();
        h.set_field(b, 0, Value::from(gone)).unwrap();
        h.set_field(b, 1, Value::from(c)).unwrap();
        mark_from(&mut h, &[a]);
        let token = post_mark(&h, &[a]);
        assert!(token.proof.is_some());
        h.store.remove(gone);
        mark_from(&mut h, &[b]);
        h.sweep();
        assert_eq!(h.store.live_count(), 2, "b and c survive, as a and x would");
        assert!(!token.vouches_for(&h));
        assert_eq!(
            post_sweep(&h, &token),
            vec![Violation::DanglingField {
                from: b,
                target: gone
            }]
        );
    }

    /// An object allocated black into a freed slot during a re-mark that
    /// rebuilds the same mark bits, holding a reference to a freed slot:
    /// only the allocation count tells the token.
    #[test]
    fn a_token_refuses_a_heap_allocated_into_since() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let s = obj(&mut h);
        h.store.remove(s);
        mark_from(&mut h, &[a, s]);
        let token = post_mark(&h, &[a, s]);
        assert_eq!(token.proof.as_ref().map(|p| p.marked), Some(1));
        h.store.remove(a);
        h.gc.begin_marking(&mut h.store, &[a, s]);
        let n = obj(&mut h);
        assert_eq!(n, a, "the freed slot is reused");
        h.set_field(n, 0, Value::from(s)).unwrap();
        h.gc.remark(&mut h.store, &[a, s]);
        h.sweep();
        assert_eq!(h.gc.mark_words(), token.proof.as_ref().unwrap().marks);
        assert_eq!(
            post_sweep(&h, &token),
            vec![Violation::DanglingField { from: n, target: s }]
        );
    }

    /// A marked survivor removed and no sweep run: as many live objects
    /// as post-mark counted, but one of them is unmarked garbage.
    #[test]
    fn a_token_refuses_an_unmarked_survivor() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let m = obj(&mut h);
        let garbage = obj(&mut h);
        h.set_field(a, 0, Value::from(m)).unwrap();
        mark_from(&mut h, &[a]);
        let token = post_mark(&h, &[a]);
        h.store.remove(m);
        let expected = vec![
            Violation::DanglingField { from: a, target: m },
            Violation::UnmarkedLive { obj: garbage },
        ];
        assert_eq!(post_sweep(&h, &token), expected);
    }

    #[test]
    fn reach_set_is_an_ascending_set_of_refs() {
        let refs = [GcRef(70), GcRef(3), GcRef(64), GcRef(3)];
        let set: ReachSet = refs.into_iter().collect();
        assert_eq!(set.len(), 3);
        assert!(set.contains(&GcRef(64)));
        assert!(!set.contains(&GcRef(65)) && !set.contains(&GcRef(1 << 20)));
        let ascending = vec![GcRef(3), GcRef(64), GcRef(70)];
        assert_eq!(set.iter().collect::<Vec<_>>(), ascending);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), ascending);
        let empty = ReachSet::default();
        assert!(empty.is_empty() && empty.iter().next().is_none());
        assert!(!empty.contains(&GcRef(0)));
    }

    /// Dead and out-of-range refs, as roots or as children, are never
    /// members, so the set never grows past the store it was sized for.
    #[test]
    fn reachable_set_skips_dead_roots_and_children() {
        let mut h = Heap::new(MarkStyle::Satb);
        let a = obj(&mut h);
        let b = obj(&mut h);
        let c = obj(&mut h);
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(a, 1, Value::from(c)).unwrap();
        h.set_field(c, 0, Value::from(a)).unwrap();
        h.store.remove(b);
        let set = reachable_set(&h, &[GcRef(900), b, a, a]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, c]);
        assert!(!set.contains(&b) && !set.contains(&GcRef(900)));
    }

    #[test]
    fn violations_display() {
        let v = Violation::UnmarkedReachable { obj: GcRef(3) };
        assert!(v.to_string().contains("SATB"));
        let v = Violation::UnmarkedLive { obj: GcRef(3) };
        assert!(v.to_string().contains("sweep"));
    }
}
