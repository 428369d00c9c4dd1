//! "A state copy does not copy σ" as a test, not a benchmark reading.
//!
//! σ, `Len` and `NR` are shared between the copies of a state until one
//! of them is written, so copying a state costs its locals and its
//! stack whatever the store holds; an allocation at a site the state
//! does not name leaves all three maps alone; and the null-or-same
//! analysis does not solve a method in which no fact can be born. This
//! file is a test binary of its own so that it may install a counting
//! `#[global_allocator]`; the counts are per thread, so the harness's
//! own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_analysis::intval::IntVal;
use wbe_analysis::transfer::transfer_insn;
use wbe_analysis::{
    nullsame, AbsState, AbsValue, AnalysisConfig, FieldKey, IntLat, IntRange, MethodCtx, Ref,
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

/// A state with 32 σ, 8 `Len` and 8 `NR` entries on sites `1..`, none
/// of which names site 0, and reference-only locals and stack (whose
/// values sit inline, so copying the two vectors is one call each).
fn populated(ctx: &MethodCtx<'_>) -> AbsState {
    let mut st = AbsState::entry(ctx);
    for s in 1..SITES {
        let value = AbsValue::single(Ref::SiteB(SiteId(s)));
        st.sigma_set(ctx, Ref::SiteA(SiteId(s)), F, value);
    }
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
