//! "A state copy does not copy σ" as a test, not a benchmark reading.
//!
//! σ's rows, `Len` and `NR` are shared between the copies of a state
//! until one of them is written, so copying a state costs its locals
//! and its stack whatever the store holds; an allocation at a site the
//! state does not name leaves the whole store alone; and the
//! null-or-same analysis does not solve a method in which no fact can
//! be born. σ is shared row by row: a write copies the index and the
//! one row it lands in, whatever the number of rows, and a merge of two
//! copies that differ in one row copies that row at most. A symbolic
//! integer with up to two constant unknowns holds them inline, so
//! copying or adding one allocates nothing. This file is a test binary
//! of its own so that it may install a counting `#[global_allocator]`;
//! the counts are per thread, so the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_analysis::intval::{IntVal, UnkId, VarAlloc, VarId};
use wbe_analysis::transfer::transfer_insn;
use wbe_analysis::{
    nullsame, AbsState, AbsValue, AnalysisConfig, FieldKey, IntLat, IntRange, MethodCtx, Ref,
    RefSet,
};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{ClassId, FieldId, Insn, MethodId, Program, SiteId, Ty};

thread_local! {
    /// Calls that obtain or resize memory.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // (`try_with`: a thread may allocate after its thread-locals are
    // gone.)
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// `const`-initialised `Cell` of an integer with no destructor, so
// touching it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const SITES: u32 = 33;
const F: FieldKey = FieldKey::Field(FieldId(0));

/// A host method allocating at `SITES` sites, and a store-only method
/// (a reference `putfield`, no `getfield`).
fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    pb.method("host", vec![Ty::Ref(c)], None, 1, |mb| {
        for _ in 0..SITES {
            mb.new_object(c).pop();
        }
        mb.return_();
    });
    pb.method("store_only", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
        let (o, v) = (mb.local(0), mb.local(1));
        mb.load(o).load(v).putfield(f).return_();
    });
    pb.finish()
}

/// A state with σ rows for `rows` receivers, one entry each.
fn with_rows(ctx: &MethodCtx<'_>, rows: u32) -> AbsState {
    let mut st = AbsState::entry(ctx);
    for s in 1..=rows {
        let value = AbsValue::single(Ref::SiteB(SiteId(s)));
        st.sigma_set(ctx, Ref::SiteA(SiteId(s)), F, value);
    }
    assert_eq!(st.sigma_rows(), rows as usize);
    st
}

/// A state with 32 σ rows, 8 `Len` and 8 `NR` entries on sites `1..`,
/// none of which names site 0, and reference-only locals and stack
/// (whose values sit inline, so copying the two vectors is one call
/// each).
fn populated(ctx: &MethodCtx<'_>) -> AbsState {
    let mut st = with_rows(ctx, SITES - 1);
    for s in 1..=8 {
        st.len_set(Ref::SiteA(SiteId(s)), IntLat::constant(4));
        st.nr_set(
            Ref::SiteA(SiteId(s)),
            IntRange::From(IntVal::constant(i64::from(s))),
        );
    }
    st.stack.push(AbsValue::single(Ref::Arg(0)));
    st
}

#[test]
fn copying_a_state_copies_its_locals_and_stack_only() {
    let p = program();
    let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
    let st = populated(&ctx);
    let (copy, calls) = calls_of(|| st.clone());
    assert!(calls <= 2, "{calls} allocator calls to copy a state");
    assert_eq!(copy, st);
    // The copy is a state of its own: writing it takes the private map
    // the write needs and leaves the original as it was.
    let mut written = copy.clone();
    written.sigma_set(
        &ctx,
        Ref::SiteA(SiteId(1)),
        F,
        AbsValue::single(Ref::Global),
    );
    assert_ne!(written, st);
    assert_eq!(copy, st);
}

#[test]
fn allocating_at_a_site_the_state_does_not_name_allocates_nothing() {
    let p = program();
    let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
    let mut st = populated(&ctx);
    let shared = st.clone();
    st.stack.reserve(1);
    let new = Insn::New {
        class: ClassId(0),
        site: SiteId(0),
    };
    let (_, calls) = calls_of(|| transfer_insn(&mut st, &ctx, &new));
    assert_eq!(calls, 0, "beyond the push, which had room");
    assert_eq!(
        st.stack.pop(),
        Some(AbsValue::single(Ref::SiteA(SiteId(0))))
    );
    assert_eq!(st, shared);
}

#[test]
fn a_method_without_getfield_is_not_solved() {
    let p = program();
    let store_only = p.method(MethodId(1));
    let (sites, calls) = calls_of(|| nullsame::analyze_method(&p, store_only));
    assert!(sites.is_empty());
    assert_eq!(calls, 0);
}

#[test]
fn a_sigma_write_copies_the_index_and_one_row_whatever_the_row_count() {
    let p = program();
    let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
    let write = |rows: u32| {
        let st = with_rows(&ctx, rows);
        let mut copy = st.clone();
        let (_, calls) = calls_of(|| {
            copy.sigma_set(
                &ctx,
                Ref::SiteA(SiteId(1)),
                F,
                AbsValue::single(Ref::Global),
            );
        });
        // A second write to the row the copy now owns copies nothing.
        let g = AbsValue::single(Ref::Arg(0));
        let (_, again) = calls_of(|| copy.sigma_set(&ctx, Ref::SiteA(SiteId(1)), F, g));
        assert_eq!(again, 0);
        assert_ne!(copy, st);
        calls
    };
    let (few, many) = (write(2), write(SITES - 1));
    assert_eq!(few, many, "allocator calls grow with the row count");
    assert!(
        many <= 4,
        "{many} allocator calls: an index and a row, two each"
    );
}

#[test]
fn merging_copies_that_differ_in_one_row_copies_that_row_at_most() {
    let p = program();
    let ctx = MethodCtx::new(&p, p.method(MethodId(0)), &AnalysisConfig::full());
    let st = with_rows(&ctx, SITES - 1);
    let mut alloc = VarAlloc::new();
    // Two copies still sharing every row: nothing is walked.
    let mut into = st.clone();
    let (changed, calls) = calls_of(|| into.merge_from(&st, &ctx, &mut alloc, false));
    assert!(!changed);
    assert_eq!(calls, 0);
    // One row differs and the merge grows it: the index, that row, and
    // the list of updates.
    let mut grown = st.clone();
    let r = Ref::SiteA(SiteId(7));
    let both: RefSet = [Ref::SiteB(SiteId(7)), Ref::Global].into_iter().collect();
    grown.sigma_set(&ctx, r, F, AbsValue::Refs(both.clone()));
    let (changed, calls) = calls_of(|| into.merge_from(&grown, &ctx, &mut alloc, false));
    assert!(changed);
    assert!(calls <= 5, "{calls} allocator calls for one differing row");
    assert_eq!(into, grown);
    // One row differs and the merge leaves `into` as it is: no copy.
    let (changed, calls) = calls_of(|| into.merge_from(&st, &ctx, &mut alloc, false));
    assert!(!changed);
    assert_eq!(calls, 0);
}

#[test]
fn an_int_with_two_constant_unknowns_is_copied_and_added_in_place() {
    let two = IntVal::unknown(UnkId(0))
        .add(&IntVal::unknown(UnkId(3)).mul_literal(2).unwrap())
        .unwrap()
        .add_literal(5)
        .unwrap();
    let other = IntVal::variable(VarId(0))
        .add(&IntVal::unknown(UnkId(3)))
        .unwrap();
    let (copy, calls) = calls_of(|| two.clone());
    assert_eq!(calls, 0);
    let (sum, calls) = calls_of(|| copy.add(&other).and_then(|s| s.sub(&two)));
    assert_eq!(calls, 0);
    assert_eq!(sum, Some(other));
    let (lat, calls) = calls_of(|| AbsValue::Int(IntLat::Val(two.clone())).clone());
    assert_eq!(calls, 0);
    assert_eq!(lat, AbsValue::Int(IntLat::Val(two)));
}
