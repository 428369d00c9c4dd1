//! "A well-formed program costs the IR checker no per-instruction
//! allocation" as a test, not a benchmark reading.
//!
//! `Program::validate` describes where a check failed only when one
//! does, so what it allocates on an accepted program is its per-method
//! and per-block bookkeeping: entry frames, the working frame and the
//! worklist. `cfg::reverse_postorder`, which every fixed-point run and
//! every fold iteration calls, is held to the same kind of bound: its
//! buffers are per method, not per block. This file is a test binary
//! of its own so that it may install a counting `#[global_allocator]`;
//! the counts are per thread, so the harness's own threads do not
//! show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{CmpOp, Program, Ty};

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

/// The programs `wbe_bench`'s `compile-sweep` validates in its set-up.
const PROGRAMS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];

/// What the checker's bookkeeping may grow with: a method's tables and
/// worklist, and each block's entry frame.
fn blocks_and_methods(p: &Program) -> u64 {
    p.methods.iter().map(|m| m.blocks.len() as u64 + 1).sum()
}

fn insns(p: &Program) -> u64 {
    let bodies = p.methods.iter().flat_map(|m| &m.blocks);
    bodies.map(|b| b.insns.len() as u64).sum()
}

#[test]
fn checking_a_well_formed_program_allocates_per_block_not_per_instruction() {
    let (mut units, mut all_insns, mut check_calls) = (0, 0, 0);
    for name in PROGRAMS {
        let w = wbe_workloads::by_name(name).expect("suite program");
        let p = &w.program;
        let (checked, calls) = calls_of(|| p.validate());
        checked.unwrap_or_else(|e| panic!("{name}: {e}"));
        check_calls += calls;
        units += blocks_and_methods(p);
        all_insns += insns(p);
    }
    // The bound is a property of the checker only if the programs have
    // many more instructions than blocks, which they do (≈ 8 k vs ≈ 110).
    assert!(
        all_insns > 20 * units,
        "{all_insns} instructions, {units} blocks + methods"
    );
    // An entry frame per block, the working frame, the worklist.
    assert!(
        check_calls <= 2 * units,
        "validate: {check_calls} allocator calls for {units} blocks + methods \
         ({all_insns} instructions)"
    );
}

/// A method of `n` blocks, each but the last branching to the next and
/// to the last, so every block but one has successors to walk.
fn ladder(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.method("ladder", vec![Ty::Int], None, 0, |mb| {
        let x = mb.local(0);
        let rungs: Vec<_> = (1..n).map(|_| mb.new_block()).collect();
        let exit = rungs[rungs.len() - 1];
        for &next in &rungs {
            mb.load(x).if_zero(CmpOp::Gt, next, exit);
            mb.switch_to(next);
        }
        mb.return_();
    });
    pb.finish()
}

#[test]
fn reverse_postorder_allocates_per_method_not_per_block() {
    // However many blocks a method has: the visit marks and the order.
    for n in [2, 8, 64, 200] {
        let p = ladder(n);
        let m = &p.methods[0];
        let (order, calls) = calls_of(|| wbe_ir::cfg::reverse_postorder(m));
        assert_eq!(order.len(), n, "every rung is reachable");
        assert!(calls <= 2, "{n} blocks: {calls} allocator calls");
    }
    // And over the benchmark's programs as they are.
    let (mut methods, mut rpo_calls) = (0, 0);
    for name in PROGRAMS {
        let w = wbe_workloads::by_name(name).expect("suite program");
        for m in &w.program.methods {
            let (order, calls) = calls_of(|| wbe_ir::cfg::reverse_postorder(m));
            assert_eq!(order.first(), Some(&m.entry()), "{name}: {}", m.name);
            rpo_calls += calls;
            methods += 1;
        }
    }
    assert!(
        rpo_calls <= 2 * methods,
        "reverse_postorder: {rpo_calls} allocator calls for {methods} methods"
    );
}
