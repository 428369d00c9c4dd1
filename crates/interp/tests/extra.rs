//! Additional interpreter behaviors: stats accumulation, barrier-mode
//! bookkeeping, and incremental-update interactions.

use wbe_heap::gc::MarkStyle;
use wbe_interp::{BarrierConfig, BarrierMode, ElidedBarriers, GcPolicy, Interp, Value};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{BlockId, CmpOp, InsnAddr, Ty};

fn store_program() -> (wbe_ir::Program, wbe_ir::MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    let g = pb.static_field("g", Ty::Ref(c));
    let m = pb.method("stores", vec![], None, 2, |mb| {
        let o = mb.local(0);
        let q = mb.local(1);
        mb.new_object(c).store(o);
        mb.new_object(c).store(q);
        mb.load(o).load(q).putfield(f); // pre-null
        mb.load(o).load(o).putfield(f); // overwrite
        mb.load(o).putstatic(g); // static store
        mb.load(q).putstatic(g); // static overwrite
        mb.return_();
    });
    (pb.finish(), m)
}

#[test]
fn stats_accumulate_across_runs() {
    let (p, m) = store_program();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    interp.run(m, &[], 1_000).unwrap();
    let after_one = interp.stats.insns;
    interp.run(m, &[], 1_000).unwrap();
    assert_eq!(interp.stats.insns, after_one * 2);
    let s = interp.stats.barrier.summarize(&ElidedBarriers::new());
    assert_eq!(s.field_total, 4, "two stores per run, two runs");
}

#[test]
fn always_log_counts_logs_even_when_idle() {
    let (p, m) = store_program();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::AlwaysLog));
    interp.run(m, &[], 1_000).unwrap();
    // The second field store overwrites a non-null value: logged (and
    // dropped, since marking is idle). Static stores log only while
    // marking — so exactly 1 log from the overwriting field store.
    assert_eq!(interp.heap.gc.stats.satb_logs, 1);
    assert!(interp.stats.barrier_cycles > 0);
}

#[test]
fn checked_mode_logs_nothing_when_idle() {
    let (p, m) = store_program();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    interp.run(m, &[], 1_000).unwrap();
    assert_eq!(interp.heap.gc.stats.satb_logs, 0);
}

#[test]
fn incremental_update_ignores_elision_sets() {
    // Under an IU heap the card-mark barrier always runs; a (bogus)
    // elision entry must not trigger the pre-null oracle.
    let (p, m) = store_program();
    let mut elided = ElidedBarriers::new();
    for i in 0..16 {
        elided.insert(m, InsnAddr::new(BlockId(0), i));
    }
    let cfg = BarrierConfig::with_elision(BarrierMode::Checked, elided);
    let mut interp = Interp::with_style(&p, cfg, MarkStyle::IncrementalUpdate);
    interp.run(m, &[], 1_000).unwrap();
    assert_eq!(interp.stats.elided_executions, 0);
    assert!(interp.heap.gc.stats.dirty_marks > 0);
}

#[test]
fn gc_policy_default_is_reasonable() {
    let policy = GcPolicy::default();
    assert!(policy.alloc_trigger > 0);
    assert!(policy.step_budget > 0);
}

#[test]
fn static_overwrite_is_logged_during_marking() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let g = pb.static_field("g", Ty::Ref(c));
    let m = pb.method("swap_static", vec![], None, 0, |mb| {
        mb.new_object(c).putstatic(g);
        mb.new_object(c).putstatic(g); // overwrites a non-null static
        mb.return_();
    });
    let p = pb.finish();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    // Force marking on before running.
    let h = &mut interp.heap;
    h.gc.begin_marking(&mut h.store, &[]);
    interp.run(m, &[], 1_000).unwrap();
    assert!(interp.heap.gc.stats.satb_logs >= 1);
    // The overwritten first object is snapshot-protected.
    let roots = interp.heap.static_roots();
    let ih = &mut interp.heap;
    let pause = ih.gc.remark(&mut ih.store, &roots);
    assert!(pause.log_drained >= 1);
}

#[test]
fn run_after_trap_is_clean() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Int);
    let bad = pb.method("bad", vec![], None, 0, |mb| {
        mb.const_null().iconst(1).putfield(f).return_();
    });
    let ok = pb.method("ok", vec![], Some(Ty::Int), 0, |mb| {
        mb.iconst(42).return_value();
    });
    let p = pb.finish();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    assert!(interp.run(bad, &[], 100).is_err());
    // The frame stack was abandoned; a fresh run works.
    assert_eq!(interp.run(ok, &[], 100).unwrap(), Some(Value::Int(42)));
}

#[test]
fn fuel_is_per_run_not_global() {
    let mut pb = ProgramBuilder::new();
    let m = pb.method("spin_some", vec![Ty::Int], None, 0, |mb| {
        let n = mb.local(0);
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.goto_(head);
        mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
        mb.switch_to(body).iinc(n, -1).goto_(head);
        mb.switch_to(exit).return_();
    });
    let p = pb.finish();
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    interp.run(m, &[Value::Int(100)], 600).unwrap();
    // A second run gets its own fuel budget.
    interp.run(m, &[Value::Int(100)], 600).unwrap();
}

/// Shape mismatches must survive the pre-resolved field cache, under
/// both engines: the `FieldRes` table (and the compiled engine's baked
/// offsets) skip the per-execution declaration chase, but the dynamic
/// class-tag guard still runs on every access. Warm the cache with
/// well-typed receivers first, then hand the same method a receiver of
/// the wrong class and demand the trap — repeatedly, so a
/// trap-then-cache-poisoning regression would also surface.
#[test]
fn shape_mismatch_traps_survive_field_cache() {
    use wbe_interp::{EngineKind, Trap};

    let mut pb = ProgramBuilder::new();
    let a = pb.class("A");
    let b = pb.class("B");
    let fa = pb.field(a, "fa", Ty::Ref(a));
    // B also has one ref field at offset 0, so a missed tag guard would
    // NOT fall over the payload bounds — the trap must come from the
    // class-tag check itself.
    let _fb = pb.field(b, "fb", Ty::Ref(b));
    let poke = pb.method("poke", vec![Ty::Ref(a)], None, 0, |mb| {
        let o = mb.local(0);
        mb.load(o).load(o).getfield(fa).putfield(fa).return_();
    });
    let good = pb.method("good", vec![], None, 1, |mb| {
        let o = mb.local(0);
        mb.new_object(a).store(o).load(o).invoke(poke).return_();
    });
    let bad = pb.method("bad", vec![], None, 1, |mb| {
        let o = mb.local(0);
        mb.new_object(b).store(o).load(o).invoke(poke).return_();
    });
    let p = pb.finish();
    p.validate().unwrap();

    for kind in [EngineKind::Classic, EngineKind::Compiled] {
        let mut engine = kind.build(
            &p,
            BarrierConfig::new(BarrierMode::Checked),
            MarkStyle::Satb,
        );
        // Warm: well-typed receivers resolve through the cache.
        for _ in 0..3 {
            engine
                .run(good, &[], 1_000)
                .unwrap_or_else(|t| panic!("{}: good run trapped: {t}", kind.name()));
        }
        // Mismatch traps every time, before and after more warm runs.
        for _ in 0..3 {
            let err = engine.run(bad, &[], 1_000).unwrap_err();
            match err {
                Trap::TypeMismatch { expected, .. } => assert_eq!(
                    expected,
                    "receiver of the field's declaring class",
                    "{}: wrong trap detail",
                    kind.name()
                ),
                other => panic!("{}: expected TypeMismatch, got {other:?}", kind.name()),
            }
            engine
                .run(good, &[], 1_000)
                .unwrap_or_else(|t| panic!("{}: post-trap good run trapped: {t}", kind.name()));
        }
    }
}

/// An array length the allocator cannot reserve is an allocation
/// failure like any other: four emergency pauses, then
/// `Trap::OutOfMemory` — on both dispatch loops, which used to die in
/// `vec![_; n]` with `capacity overflow`. (Lengths whose byte size
/// overflows `isize`, so nothing is ever reserved.)
#[test]
fn oversized_array_length_traps_out_of_memory() {
    use wbe_interp::{EngineKind, Trap};

    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let refs = pb.method("refs", vec![], None, 0, |mb| {
        mb.iconst(i64::MAX).new_ref_array(c).pop().return_();
    });
    let ints = pb.method("ints", vec![], None, 0, |mb| {
        mb.iconst(1 << 60).new_int_array().pop().return_();
    });
    let p = pb.finish();
    p.validate().unwrap();

    for kind in [EngineKind::Classic, EngineKind::Compiled] {
        for m in [refs, ints] {
            let mut engine = kind.build(
                &p,
                BarrierConfig::new(BarrierMode::Checked),
                MarkStyle::Satb,
            );
            let err = engine.run(m, &[], 1_000).unwrap_err();
            assert!(
                matches!(err, Trap::OutOfMemory { .. }),
                "{}: got {err}",
                kind.name()
            );
            assert_eq!(engine.stats.emergency_pauses, 4, "{}", kind.name());
            assert_eq!(engine.heap.stats.allocations, 0, "{}", kind.name());
        }
    }
}
