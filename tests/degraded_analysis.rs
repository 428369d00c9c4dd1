//! Analysis guardrails end-to-end: a method that exhausts the
//! per-method iteration cap must analyze as *degraded*, contribute no
//! elisions, and still execute correctly under full barriers. The
//! guardrail's whole contract is "pathological input costs performance,
//! never soundness or availability".

use wbe_repro::analysis::{analyze_program, nullsame, AnalysisConfig, AnalysisOutcome};
use wbe_repro::interp::{BarrierConfig, BarrierMode, GcPolicy, Interp, Value};
use wbe_repro::ir::builder::{MethodBuilder, ProgramBuilder};
use wbe_repro::ir::{CmpOp, Insn, MethodId, Program, Ty};
use wbe_repro::opt::{compile, OptMode, PipelineConfig};

/// A looped allocator-and-store method: enough blocks and stores that
/// the fixpoint needs several sweeps, so a tiny iteration cap trips.
/// Returns the iteration count so correctness is observable.
fn loopy_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Node");
    let next = pb.field(c, "next", Ty::Ref(c));
    let m = pb.method("loopy", vec![Ty::Int], Some(Ty::Int), 2, |mb| {
        let n = mb.local(0);
        let prev = mb.local(1);
        let i = mb.local(2);
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.iconst(0).store(i).const_null().store(prev).goto_(head);
        mb.switch_to(head)
            .load(i)
            .load(n)
            .if_icmp(CmpOp::Lt, body, exit);
        mb.switch_to(body)
            .new_object(c)
            .dup()
            .load(prev)
            .putfield(next)
            .store(prev)
            .iinc(i, 1)
            .goto_(head);
        mb.switch_to(exit).load(i).return_value();
    });
    let p = pb.finish();
    p.validate().unwrap();
    (p, m)
}

#[test]
fn iteration_capped_method_degrades_and_still_runs() {
    let (program, m) = loopy_program();

    // Sanity: without the cap the store is provably pre-null.
    let full = analyze_program(&program, &AnalysisConfig::full());
    assert_eq!(full.degraded_count(), 0);
    assert!(
        !full.methods[&m].elided.is_empty(),
        "uncapped analysis elides the initializing store"
    );

    // A one-iteration cap cannot reach the fixpoint: Degraded, no
    // elisions anywhere.
    let capped_cfg = AnalysisConfig::full().with_max_iterations(1);
    let capped = analyze_program(&program, &capped_cfg);
    assert!(
        capped.methods[&m].outcome.is_degraded(),
        "cap of 1 must degrade: {:?}",
        capped.methods[&m].outcome
    );
    assert!(
        capped.methods[&m].elided.is_empty(),
        "degraded elides nothing"
    );
    assert_eq!(capped.degraded_count(), 1);
    let reasons: Vec<String> = capped
        .degraded_methods()
        .map(|(mid, r)| format!("{mid}: {r}"))
        .collect();
    assert!(reasons[0].contains("iteration cap"), "{reasons:?}");

    // The program still executes correctly under full barriers with the
    // (empty) degraded elision set — concurrent marking included.
    let mut interp = Interp::new(&program, BarrierConfig::new(BarrierMode::Checked));
    interp.set_gc_policy(GcPolicy {
        alloc_trigger: 20,
        step_interval: 8,
        step_budget: 4,
    });
    interp.set_verify_invariants(true);
    let r = interp.run(m, &[Value::Int(150)], 1_000_000).unwrap();
    assert_eq!(r, Some(Value::Int(150)));
    assert_eq!(
        interp.stats.elided_executions, 0,
        "no elisions execute for a degraded method"
    );

    // Degraded analysis must never panic on this program either way:
    // the outcome is data, not a crash.
    assert!(matches!(
        capped.methods[&m].outcome,
        AnalysisOutcome::Degraded(_)
    ));
}

/// `nullsame.rs`'s `hashtable_idiom_is_elidable` method: a looped
/// lookup whose final `this.entry = e` is null-or-same (and not
/// pre-null), so the null-or-same fixed point takes several blocks.
fn hashtable_program() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let ent = pb.class("Entry");
    let c = pb.class("Table");
    let entry_f = pb.field(c, "entry", Ty::Ref(ent));
    let types = vec![Ty::Ref(c), Ty::RefArray(ent), Ty::Int];
    let m = pb.method("advance", types, None, 1, |mb| {
        let (this, t, i, e) = (mb.local(0), mb.local(1), mb.local(2), mb.local(3));
        let head = mb.new_block();
        let check_i = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.load(this).getfield(entry_f).store(e).goto_(head);
        mb.switch_to(head).load(e).if_null(check_i, exit);
        mb.switch_to(check_i).load(i).if_zero(CmpOp::Gt, body, exit);
        mb.switch_to(body);
        mb.iinc(i, -1).load(t).load(i).aaload().store(e).goto_(head);
        mb.switch_to(exit)
            .load(this)
            .load(e)
            .putfield(entry_f)
            .return_();
    });
    let p = pb.finish();
    p.validate().unwrap();
    (p, m)
}

/// Null-or-same runs under the iteration cap the pipeline's analysis
/// configuration sets, like pre-null does: a cap it cannot converge
/// within gives the method no null-or-same site and counts it under
/// `analysis.degraded`.
#[test]
fn null_or_same_honours_the_iteration_cap() {
    let (program, m) = hashtable_program();
    let plain = compile(
        &program,
        &PipelineConfig::new(OptMode::Full, 0).with_null_or_same(),
    );
    assert_eq!(
        plain.null_or_same[&m].len(),
        1,
        "elidable without a guardrail"
    );

    let degraded = wbe_repro::telemetry::counter("analysis.degraded");
    let guarded = AnalysisConfig::full().with_max_iterations(1);
    let mut config = PipelineConfig::new(OptMode::Full, 0)
        .with_null_or_same()
        .with_ledger();
    config.analysis_override = Some(guarded);
    let before = degraded.get();
    let compiled = compile(&program, &config);
    assert!(compiled.null_or_same[&m].is_empty(), "{guarded:?}");
    assert!(degraded.get() > before, "{guarded:?}: counted");
    let ledger = compiled.ledger.expect("asked for");
    assert!(
        ledger.records.iter().all(|r| !r.null_or_same),
        "{guarded:?}"
    );
}

/// The §4.3 extension is inside the same contract. A method whose IR
/// underflows the operand stack degrades in the pre-null analysis; the
/// null-or-same solver, which runs after it, must give that method the
/// empty set instead of panicking, and leave every other method's
/// answer alone.
#[test]
fn null_or_same_degrades_a_malformed_method_instead_of_panicking() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    // `o.f = o.f`: null-or-same, and not pre-null.
    let refresh = |mb: &mut MethodBuilder<'_>| {
        let o = mb.local(0);
        mb.load(o).load(o).getfield(f).putfield(f).return_();
    };
    let good = pb.method("good", vec![Ty::Ref(c)], None, 0, refresh);
    let bad = pb.method("bad", vec![Ty::Ref(c)], None, 0, refresh);
    let mut program = pb.finish();
    program.methods[bad.index()].blocks[0]
        .insns
        .insert(0, Insn::Swap);
    assert!(program.validate().is_err(), "the verifier rejects it");

    let degraded = wbe_repro::telemetry::counter("analysis.degraded");
    let before = degraded.get();
    let sites = nullsame::analyze_program(&program);
    assert!(sites[&bad].is_empty(), "degraded elides nothing");
    assert_eq!(sites[&good].len(), 1, "its neighbour is unaffected");
    assert!(degraded.get() > before, "counted under analysis.degraded");

    // Through the pipeline, where only an optimised build gets this
    // far: a debug build stops at `compile`'s own `debug_assert!` on
    // the verifier.
    if cfg!(debug_assertions) {
        return;
    }
    let plain = compile(&program, &PipelineConfig::new(OptMode::Full, 100));
    let with = compile(
        &program,
        &PipelineConfig::new(OptMode::Full, 100).with_null_or_same(),
    );
    for compiled in [&plain, &with] {
        let analysis = compiled.analysis.as_ref().expect("analysis ran");
        assert_eq!(analysis.degraded_count(), 1);
        assert!(analysis.methods[&bad].outcome.is_degraded());
    }
    assert_eq!(plain.elided_sites(), with.elided_sites());
    assert_eq!(with.null_or_same[&bad].len(), 0);
    assert_eq!(with.null_or_same[&good].len(), 1);
}
