//! A gated elision allocates nothing once its site is revoked.
//!
//! In barrier panic mode every elided store asks whether its site
//! already has a revocation record; only the first execution of a site
//! makes one. This file is a test binary of its own so that it may
//! install a counting `#[global_allocator]`; the counts are per thread,
//! so the harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_heap::RecoveryPolicy;
use wbe_interp::{BarrierConfig, BarrierMode, ElidedBarriers, Interp, Value};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{CmpOp, Insn, InsnAddr, Ty};

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

#[test]
fn a_revoked_site_runs_gated_without_allocating() {
    // `make` returns a fresh object; `relink(o, n)` stores `o` into
    // `o.f` n times. The store is elided, which is unsound from its
    // second execution on: the pre-value is no longer null.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    let make = pb.method("make", vec![], Some(Ty::Ref(c)), 0, |mb| {
        mb.new_object(c).return_value();
    });
    let relink = pb.method("relink", vec![Ty::Ref(c), Ty::Int], None, 1, |mb| {
        let (o, n, i) = (mb.local(0), mb.local(1), mb.local(2));
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.iconst(0).store(i).goto_(head);
        mb.switch_to(head)
            .load(i)
            .load(n)
            .if_icmp(CmpOp::Lt, body, exit);
        mb.switch_to(body)
            .load(o)
            .load(o)
            .putfield(f)
            .iinc(i, 1)
            .goto_(head);
        mb.switch_to(exit).return_();
    });
    let p = pb.finish();
    p.validate().unwrap();
    let site = p
        .method(relink)
        .blocks
        .iter()
        .enumerate()
        .find_map(|(b, block)| {
            let i = block
                .insns
                .iter()
                .position(|insn| matches!(insn, Insn::PutField { .. }))?;
            Some(InsnAddr::new(wbe_ir::BlockId(b as u32), i))
        })
        .expect("relink stores a field");
    let mut elided = ElidedBarriers::new();
    elided.insert(relink, site);
    let mut interp = Interp::new(
        &p,
        BarrierConfig::with_elision(BarrierMode::Checked, elided),
    );
    interp.set_recovery(RecoveryPolicy::default());
    let o = interp.run(make, &[], 100).unwrap().expect("make returns");

    // The second store trips the oracle: panic mode, one revocation.
    interp.run(relink, &[o, Value::Int(2)], 1_000).unwrap();
    assert_eq!(interp.stats().revocations.len(), 1);
    let gated = |interp: &Interp<'_>| interp.recovery().unwrap().stats.gated_elisions;
    let before = gated(&interp);

    // Every later store is gated and finds its record: ten stores and a
    // thousand and ten cost the allocator the same.
    let calls = |interp: &mut Interp<'_>, n: i64| {
        let start = CALLS.with(Cell::get);
        interp.run(relink, &[o, Value::Int(n)], 100_000).unwrap();
        CALLS.with(Cell::get) - start
    };
    let few = calls(&mut interp, 10);
    let many = calls(&mut interp, 1_010);
    assert_eq!(few, many, "a gated store allocates");
    assert_eq!(gated(&interp) - before, 1_020);
    let rc = interp.recovery().unwrap();
    assert_eq!((rc.stats.revoked_sites, rc.stats.attempted), (1, 1));
    assert_eq!(
        interp.stats().revocations[&(relink, site)].trigger,
        "oracle"
    );
}
