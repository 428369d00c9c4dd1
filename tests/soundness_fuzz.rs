//! Property-based soundness fuzzing.
//!
//! Generates random (but well-formed) heap-mutating programs, runs the
//! full analysis pipeline, and executes them with elision enabled and
//! the oracle armed:
//!
//! * an elided pre-null store whose pre-value is non-null traps
//!   (`UnsoundElision`), so any analysis unsoundness fails the test;
//! * policy-driven SATB marking and sweeping run concurrently, so a
//!   barrier wrongly elided in a way that breaks the snapshot would
//!   surface as a dangling reference on a later read;
//! * elision must not change observable results (allocation counts,
//!   live-object counts).
//!
//! Programs are statement lists over a pool of reference locals, a
//! shared class, statics, and arrays, wrapped in an outer loop so the
//! analysis sees joins, retired allocation sites, and loop-carried
//! state. Null dereferences are avoided by construction (guarded
//! accesses), so the only admissible trap is an oracle failure — which
//! must never happen.

mod keep_model;
mod nullsame_model;

use proptest::prelude::*;

use wbe_repro::analysis::nullsame;
use wbe_repro::analysis::{analyze_method, AnalysisConfig, ElisionLedger};
use wbe_repro::heap::gc::MarkStyle;
use wbe_repro::interp::{
    BarrierConfig, BarrierMode, ElidedBarriers, ElisionKind, EngineKind, GcPolicy, Interp, Trap,
    Value,
};
use wbe_repro::ir::builder::{MethodBuilder, ProgramBuilder};
use wbe_repro::ir::{FieldId, MethodId, Program, StaticId, Ty};

const NUM_REF_LOCALS: usize = 4;
const NUM_FIELDS: usize = 2;
const NUM_STATICS: usize = 2;
const ARRAY_LEN: i64 = 6;

/// One random statement over the local pool.
#[derive(Clone, Debug)]
enum Stmt {
    /// `l<dst> = new C;`
    AllocObj { dst: usize },
    /// `l<dst> = new C[ARRAY_LEN];`
    AllocArr { dst: usize },
    /// `if (l<obj> instanceof C-object) l<obj>.f = l<val>;`
    PutField { obj: usize, f: usize, val: usize },
    /// `if (l<obj> ...) l<obj>.f = null;`
    PutNull { obj: usize, f: usize },
    /// `if (l<obj> ...) l<dst> = l<obj>.f;`
    GetField { dst: usize, obj: usize, f: usize },
    /// `if (l<arr> is array) l<arr>[idx] = l<val>;`
    ArrStore { arr: usize, idx: u8, val: usize },
    /// `if (l<arr> is array) l<dst> = l<arr>[idx];`
    ArrLoad { dst: usize, arr: usize, idx: u8 },
    /// `g<g> = l<src>;` (escape)
    Publish { src: usize, g: usize },
    /// `l<dst> = g<g>;`
    ReadGlobal { dst: usize, g: usize },
    /// `l<dst> = l<src>;`
    Copy { dst: usize, src: usize },
    /// `l<dst> = null;`
    SetNull { dst: usize },
    /// `if (l<arr> is array) for i in 0..len: l<arr>[i] = l<val>;`
    FillLoop { arr: usize, val: usize },
    /// `if (l<obj>) { t = l<obj>.f; if (t == null) t = l<alt>; l<obj>.f = t; }`
    NosRefresh { obj: usize, f: usize, alt: usize },
    /// `sink(l<src>);` — passes the object to a callee that publishes it.
    CallSink { src: usize },
    /// `l<dst> = make();` — callee returns a fresh object.
    CallMake { dst: usize },
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let l = 0..NUM_REF_LOCALS;
    let f = 0..NUM_FIELDS;
    let g = 0..NUM_STATICS;
    let idx = 0u8..(ARRAY_LEN as u8);
    prop_oneof![
        l.clone().prop_map(|dst| Stmt::AllocObj { dst }),
        l.clone().prop_map(|dst| Stmt::AllocArr { dst }),
        (l.clone(), f.clone(), l.clone()).prop_map(|(obj, f, val)| Stmt::PutField { obj, f, val }),
        (l.clone(), f.clone()).prop_map(|(obj, f)| Stmt::PutNull { obj, f }),
        (l.clone(), l.clone(), f.clone()).prop_map(|(dst, obj, f)| Stmt::GetField { dst, obj, f }),
        (l.clone(), idx.clone(), l.clone()).prop_map(|(arr, idx, val)| Stmt::ArrStore {
            arr,
            idx,
            val
        }),
        (l.clone(), l.clone(), idx).prop_map(|(dst, arr, idx)| Stmt::ArrLoad { dst, arr, idx }),
        (l.clone(), g.clone()).prop_map(|(src, g)| Stmt::Publish { src, g }),
        (l.clone(), g).prop_map(|(dst, g)| Stmt::ReadGlobal { dst, g }),
        (l.clone(), l.clone()).prop_map(|(dst, src)| Stmt::Copy { dst, src }),
        l.clone().prop_map(|dst| Stmt::SetNull { dst }),
        (l.clone(), l.clone()).prop_map(|(arr, val)| Stmt::FillLoop { arr, val }),
        (l.clone(), f, l.clone()).prop_map(|(obj, f, alt)| Stmt::NosRefresh { obj, f, alt }),
        l.clone().prop_map(|src| Stmt::CallSink { src }),
        l.prop_map(|dst| Stmt::CallMake { dst }),
    ]
}

struct Ctx {
    class: wbe_repro::ir::ClassId,
    fields: Vec<FieldId>,
    statics: Vec<StaticId>,
    sink: MethodId,
    make: MethodId,
    /// `is_object[l]`: local holds an object (vs array vs unknown).
    /// Tracked while emitting so field ops only target objects and
    /// array ops only target arrays (avoiding WrongKind traps). A local
    /// whose kind is unknown at emission time is skipped for heap ops.
    kind: Vec<LocalKind>,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum LocalKind {
    Unknown,
    Object,
    Array,
}

/// Compiles the statement list into a method body inside an outer loop
/// that runs it `iters` times.
fn compile(stmts: &[Stmt]) -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let class = pb.class("C");
    let fields: Vec<FieldId> = (0..NUM_FIELDS)
        .map(|i| pb.field(class, format!("f{i}"), Ty::Ref(class)))
        .collect();
    let statics: Vec<StaticId> = (0..NUM_STATICS)
        .map(|i| pb.static_field(format!("g{i}"), Ty::Ref(class)))
        .collect();
    // Helper callees exercising the conservative invoke handling: the
    // analysis must treat arguments as escaping and returns as global.
    let sink_static = statics[0];
    let sink = pb.method("sink", vec![Ty::Ref(class)], None, 0, |mb| {
        let o = mb.local(0);
        mb.load(o).putstatic(sink_static);
        mb.return_();
    });
    let make = pb.method("make", vec![], Some(Ty::Ref(class)), 0, |mb| {
        mb.new_object(class).return_value();
    });
    // locals: 0 = iters, 1 = outer i, 2 = tmp ref, 3 = fill i,
    // 4.. = ref pool
    let main = pb.method(
        "fuzz_main",
        vec![Ty::Int],
        None,
        (3 + NUM_REF_LOCALS) as u16,
        |mb| {
            let mut ctx = Ctx {
                class,
                fields,
                statics,
                sink,
                make,
                kind: vec![LocalKind::Unknown; NUM_REF_LOCALS],
            };
            let iters = mb.local(0);
            let outer_i = mb.local(1);
            // Initialize the pool to null.
            for l in 0..NUM_REF_LOCALS {
                let lid = mb.local((4 + l) as u16);
                mb.const_null().store(lid);
            }
            wbe_repro::workloads::helpers::counted_loop(
                mb,
                outer_i,
                wbe_repro::workloads::helpers::Bound::Local(iters),
                |mb| {
                    // Kinds are only valid straight-line; reset per
                    // iteration (conservative: Unknown skips heap ops
                    // until a fresh allocation).
                    for k in &mut ctx.kind {
                        *k = LocalKind::Unknown;
                    }
                    for s in stmts {
                        emit_stmt(mb, &mut ctx, s);
                    }
                },
            );
            mb.return_();
        },
    );
    (pb.finish(), main)
}

fn pool(mb: &MethodBuilder<'_>, l: usize) -> wbe_repro::ir::LocalId {
    mb.local((4 + l) as u16)
}

fn emit_stmt(mb: &mut MethodBuilder<'_>, ctx: &mut Ctx, s: &Stmt) {
    match *s {
        Stmt::AllocObj { dst } => {
            let d = pool(mb, dst);
            mb.new_object(ctx.class).store(d);
            ctx.kind[dst] = LocalKind::Object;
        }
        Stmt::AllocArr { dst } => {
            let d = pool(mb, dst);
            mb.iconst(ARRAY_LEN).new_ref_array(ctx.class).store(d);
            ctx.kind[dst] = LocalKind::Array;
        }
        Stmt::PutField { obj, f, val } => {
            if ctx.kind[obj] != LocalKind::Object {
                return;
            }
            let o = pool(mb, obj);
            let v = pool(mb, val);
            if ctx.kind[val] == LocalKind::Object || ctx.kind[val] == LocalKind::Unknown {
                // Storing an array into an object field would be a type
                // mixup for readers that then treat it as an object;
                // keep the heap homogeneous: only object-or-null values.
                if ctx.kind[val] == LocalKind::Unknown {
                    return;
                }
                mb.load(o).load(v).putfield(ctx.fields[f]);
            }
        }
        Stmt::PutNull { obj, f } => {
            if ctx.kind[obj] != LocalKind::Object {
                return;
            }
            let o = pool(mb, obj);
            mb.load(o).const_null().putfield(ctx.fields[f]);
        }
        Stmt::GetField { dst, obj, f } => {
            if ctx.kind[obj] != LocalKind::Object {
                return;
            }
            let o = pool(mb, obj);
            let d = pool(mb, dst);
            mb.load(o).getfield(ctx.fields[f]).store(d);
            // Field values are objects-or-null; null-safe ops below all
            // guard, but heap-op kinds must stay conservative.
            ctx.kind[dst] = LocalKind::Unknown;
        }
        Stmt::ArrStore { arr, idx, val } => {
            if ctx.kind[arr] != LocalKind::Array || ctx.kind[val] == LocalKind::Array {
                return;
            }
            if ctx.kind[val] == LocalKind::Unknown {
                return;
            }
            let a = pool(mb, arr);
            let v = pool(mb, val);
            mb.load(a).iconst(idx as i64).load(v).aastore();
        }
        Stmt::ArrLoad { dst, arr, idx } => {
            if ctx.kind[arr] != LocalKind::Array {
                return;
            }
            let a = pool(mb, arr);
            let d = pool(mb, dst);
            mb.load(a).iconst(idx as i64).aaload().store(d);
            ctx.kind[dst] = LocalKind::Unknown;
        }
        Stmt::Publish { src, g } => {
            if ctx.kind[src] == LocalKind::Unknown {
                return;
            }
            // Keep statics object-typed for ReadGlobal consumers.
            if ctx.kind[src] != LocalKind::Object {
                return;
            }
            let sl = pool(mb, src);
            mb.load(sl).putstatic(ctx.statics[g]);
        }
        Stmt::ReadGlobal { dst, g } => {
            let d = pool(mb, dst);
            mb.getstatic(ctx.statics[g]).store(d);
            ctx.kind[dst] = LocalKind::Unknown;
        }
        Stmt::Copy { dst, src } => {
            let d = pool(mb, dst);
            let sl = pool(mb, src);
            mb.load(sl).store(d);
            ctx.kind[dst] = ctx.kind[src];
        }
        Stmt::SetNull { dst } => {
            let d = pool(mb, dst);
            mb.const_null().store(d);
            ctx.kind[dst] = LocalKind::Unknown;
        }
        Stmt::FillLoop { arr, val } => {
            if ctx.kind[arr] != LocalKind::Array || ctx.kind[val] != LocalKind::Object {
                return;
            }
            let a = pool(mb, arr);
            let v = pool(mb, val);
            let i = mb.local(3);
            wbe_repro::workloads::helpers::counted_loop(
                mb,
                i,
                wbe_repro::workloads::helpers::Bound::Const(ARRAY_LEN),
                |mb| {
                    mb.load(a).load(i).load(v).aastore();
                },
            );
        }
        Stmt::CallSink { src } => {
            if ctx.kind[src] != LocalKind::Object {
                return;
            }
            let sl = pool(mb, src);
            mb.load(sl).invoke(ctx.sink);
        }
        Stmt::CallMake { dst } => {
            let d = pool(mb, dst);
            mb.invoke(ctx.make).store(d);
            ctx.kind[dst] = LocalKind::Object;
        }
        Stmt::NosRefresh { obj, f, alt } => {
            if ctx.kind[obj] != LocalKind::Object || ctx.kind[alt] != LocalKind::Object {
                return;
            }
            let o = pool(mb, obj);
            let av = pool(mb, alt);
            let t = mb.local(2);
            mb.load(o).getfield(ctx.fields[f]).store(t);
            let set_b = mb.new_block();
            let join_b = mb.new_block();
            mb.load(t).if_null(set_b, join_b);
            mb.switch_to(set_b).load(av).store(t).goto_(join_b);
            mb.switch_to(join_b).load(o).load(t).putfield(ctx.fields[f]);
        }
    }
}

/// Guarded statements only touch locals whose kind is statically known
/// at emission, so no null/kind traps can happen; `if_null` guards are
/// unnecessary. The only trap the interpreter could raise is the
/// elision oracle — which this property asserts never fires.
fn run_case(stmts: &[Stmt], iters: i64) -> Result<(), TestCaseError> {
    let (program, main) = compile(stmts);
    // Generated programs are well-typed by construction; the verifier
    // must agree (and then no TypeMismatch trap can occur at run time).
    prop_assert!(program.validate().is_ok(), "{:?}", program.validate());

    // Text round trip must reconstruct the program exactly.
    {
        let text = wbe_repro::ir::display::program_display(&program).to_string();
        let reparsed = wbe_repro::ir::parse_program(&text);
        prop_assert!(reparsed.is_ok(), "reparse failed: {reparsed:?}");
        prop_assert_eq!(&reparsed.unwrap(), &program);
    }

    // Pre-null analysis + null-or-same extension.
    let res = analyze_method(&program, program.method(main), &AnalysisConfig::full());
    let nos = nullsame::analyze_method(&program, program.method(main));
    // The solver as it was before it skipped methods that cannot hold
    // a fact names the same sites, in every method.
    for (mid, method) in program.iter_methods() {
        prop_assert_eq!(
            nullsame::analyze_method(&program, method),
            nullsame_model::analyze_method(&program, method),
            "{} {}",
            mid,
            method.name
        );
    }
    let mut elided = ElidedBarriers::new();
    for a in &res.elided {
        elided.insert(main, *a);
    }
    for a in &nos {
        elided.insert_kind(main, *a, ElisionKind::NullOrSame);
    }

    // Elision (and folding, below) changes how much work the SATB
    // marker does per step, which shifts collection points and the
    // amount of floating garbage. The schedule-independent observables
    // are the allocation count and the final *reachable* heap; between
    // the two dispatch loops nothing may differ at all.
    type Observed = (Option<Value>, [u64; 4], (u64, usize));
    let run = |kind: EngineKind, elide: bool| -> Result<Observed, Trap> {
        let bc = if elide {
            BarrierConfig::with_elision(BarrierMode::Checked, elided.clone())
        } else {
            BarrierConfig::new(BarrierMode::Checked)
        };
        let mut interp = kind.build(&program, bc, MarkStyle::Satb);
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 10,
            step_interval: 8,
            step_budget: 2,
        });
        let result = interp.run(main, &[Value::Int(iters)], 4_000_000)?;
        let roots = interp.heap.static_roots();
        let reachable = wbe_repro::heap::verify::reachable_set(&interp.heap, &roots).len();
        let s = &interp.stats;
        Ok((
            result,
            [s.insns, s.cycles, s.barrier_cycles, s.elided_executions],
            (interp.heap.stats.allocations, reachable),
        ))
    };

    let with_elision = run(EngineKind::Classic, true);
    prop_assert!(
        with_elision.is_ok(),
        "trap with elision (oracle?): {:?}\nelided: {:?}\nstmts: {stmts:#?}",
        with_elision,
        elided
    );
    // A debug build checks the translator's bounds invariant on every
    // cell the compiled loop fetches.
    prop_assert_eq!(
        &run(EngineKind::Compiled, true),
        &with_elision,
        "dispatch loops diverged"
    );
    let without = run(EngineKind::Classic, false);
    prop_assert!(without.is_ok(), "trap without elision: {without:?}");
    prop_assert_eq!(with_elision.unwrap().2, without.unwrap().2);

    // Constant folding must preserve behavior AND the soundness of a
    // fresh analysis over the folded program. Folding changes the
    // instruction count, which shifts the GC policy's collection points
    // and therefore the amount of *floating garbage* — so we compare the
    // reachable heap (from statics), not raw live counts.
    let reachable_state = |interp: &Interp<'_>| {
        let roots = interp.heap.static_roots();
        let reachable = wbe_repro::heap::verify::reachable_set(&interp.heap, &roots).len();
        (interp.heap.stats.allocations, reachable)
    };
    let run_reachable = |p: &Program, elided: ElidedBarriers| -> Result<(u64, usize), Trap> {
        let bc = BarrierConfig::with_elision(BarrierMode::Checked, elided);
        let mut interp = Interp::new(p, bc);
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 10,
            step_interval: 8,
            step_budget: 2,
        });
        interp.run(main, &[Value::Int(iters)], 4_000_000)?;
        Ok(reachable_state(&interp))
    };
    let mut folded = program.clone();
    wbe_repro::opt::fold_program(&mut folded);
    prop_assert!(folded.validate().is_ok());
    let fres = analyze_method(&folded, folded.method(main), &AnalysisConfig::full());
    let mut felided = ElidedBarriers::new();
    for a in &fres.elided {
        felided.insert(main, *a);
    }
    let fr = run_reachable(&folded, felided);
    prop_assert!(fr.is_ok(), "folded program trapped: {fr:?}");
    let orig = run_reachable(&program, ElidedBarriers::new());
    prop_assert!(orig.is_ok());
    prop_assert_eq!(
        fr.unwrap(),
        orig.unwrap(),
        "reachable heap differs after folding"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        ..ProptestConfig::default()
    })]

    /// The core soundness property: on arbitrary generated programs,
    /// every statically elided barrier is dynamically justified, and
    /// elision does not change observable behavior — even with SATB
    /// marking and sweeping interleaved.
    #[test]
    fn analysis_is_sound_on_random_programs(
        stmts in proptest::collection::vec(stmt_strategy(), 1..32),
        iters in 1i64..6,
    ) {
        run_case(&stmts, iters)?;
    }

    /// The ledger names the first failing condition the model in
    /// `keep_model/` derives, on random programs under the full
    /// analysis, field-only, both ablations, and an iteration cap that
    /// degrades the loop (whose records then come from partial states).
    #[test]
    fn ledger_keep_codes_agree_with_the_model(
        stmts in proptest::collection::vec(stmt_strategy(), 1..32),
    ) {
        let (program, _) = compile(&stmts);
        for config in [
            AnalysisConfig::full(),
            AnalysisConfig::field_only(),
            AnalysisConfig { two_refs_per_site: false, ..AnalysisConfig::full() },
            AnalysisConfig { flow_sensitive_escape: false, ..AnalysisConfig::full() },
            AnalysisConfig::full().with_max_iterations(3),
        ] {
            let ledger = ElisionLedger::build(&program, &config);
            let checked = keep_model::check(&program, &config, &ledger.records);
            prop_assert!(checked.is_ok(), "{:?} under {config:?}\nstmts: {stmts:#?}", checked);
        }
    }
}

/// Parses the `Debug` rendering of a statement list as committed in
/// `soundness_fuzz.proptest-regressions` (`[Name { k: v, ... }, ...]`).
/// Statement structs have no nested braces, so each `}` closes one.
fn parse_stmts(text: &str) -> Vec<Stmt> {
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .expect("corpus stmts are a [..] list");
    let mut out = Vec::new();
    for part in inner.split_inclusive('}') {
        let part = part.trim().trim_start_matches(',').trim();
        if part.is_empty() {
            continue;
        }
        let (name, fields) = part.split_once('{').expect("struct-like statement");
        let mut map = std::collections::BTreeMap::new();
        for fv in fields.trim_end_matches('}').split(',') {
            let fv = fv.trim();
            if fv.is_empty() {
                continue;
            }
            let (k, v) = fv.split_once(':').expect("field: value");
            map.insert(
                k.trim().to_string(),
                v.trim().parse::<usize>().expect("numeric field"),
            );
        }
        let g = |k: &str| {
            *map.get(k)
                .unwrap_or_else(|| panic!("field {k} in `{part}`"))
        };
        out.push(match name.trim() {
            "AllocObj" => Stmt::AllocObj { dst: g("dst") },
            "AllocArr" => Stmt::AllocArr { dst: g("dst") },
            "PutField" => Stmt::PutField {
                obj: g("obj"),
                f: g("f"),
                val: g("val"),
            },
            "PutNull" => Stmt::PutNull {
                obj: g("obj"),
                f: g("f"),
            },
            "GetField" => Stmt::GetField {
                dst: g("dst"),
                obj: g("obj"),
                f: g("f"),
            },
            "ArrStore" => Stmt::ArrStore {
                arr: g("arr"),
                idx: g("idx") as u8,
                val: g("val"),
            },
            "ArrLoad" => Stmt::ArrLoad {
                dst: g("dst"),
                arr: g("arr"),
                idx: g("idx") as u8,
            },
            "Publish" => Stmt::Publish {
                src: g("src"),
                g: g("g"),
            },
            "ReadGlobal" => Stmt::ReadGlobal {
                dst: g("dst"),
                g: g("g"),
            },
            "Copy" => Stmt::Copy {
                dst: g("dst"),
                src: g("src"),
            },
            "SetNull" => Stmt::SetNull { dst: g("dst") },
            "FillLoop" => Stmt::FillLoop {
                arr: g("arr"),
                val: g("val"),
            },
            "NosRefresh" => Stmt::NosRefresh {
                obj: g("obj"),
                f: g("f"),
                alt: g("alt"),
            },
            "CallSink" => Stmt::CallSink { src: g("src") },
            "CallMake" => Stmt::CallMake { dst: g("dst") },
            other => panic!("unknown statement kind `{other}`"),
        });
    }
    out
}

/// The proptest shim does not read `.proptest-regressions`; replay the
/// committed corpus explicitly so past failures stay covered no matter
/// which proptest implementation is in use.
#[test]
fn regression_corpus_replays_clean() {
    let corpus = include_str!("soundness_fuzz.proptest-regressions");
    let mut replayed = 0;
    for line in corpus.lines() {
        let Some(rest) = line.split("shrinks to stmts = ").nth(1) else {
            continue;
        };
        let (stmts_text, iters_text) = rest
            .rsplit_once(", iters = ")
            .expect("corpus line ends with `, iters = N`");
        let stmts = parse_stmts(stmts_text);
        assert!(!stmts.is_empty(), "corpus case parsed to no statements");
        let iters: i64 = iters_text.trim().parse().expect("iters is an integer");
        run_case(&stmts, iters).unwrap_or_else(|e| panic!("corpus case failed: {e}\n{line}"));
        replayed += 1;
    }
    assert!(replayed > 0, "corpus must contain at least one case");
}

/// A fixed regression mix exercising every statement kind at once.
#[test]
fn smoke_all_statement_kinds() {
    use Stmt::*;
    let stmts = vec![
        AllocObj { dst: 0 },
        AllocArr { dst: 1 },
        AllocObj { dst: 2 },
        PutField {
            obj: 0,
            f: 0,
            val: 2,
        },
        PutNull { obj: 0, f: 1 },
        GetField {
            dst: 3,
            obj: 0,
            f: 0,
        },
        ArrStore {
            arr: 1,
            idx: 0,
            val: 0,
        },
        ArrLoad {
            dst: 3,
            arr: 1,
            idx: 0,
        },
        FillLoop { arr: 1, val: 2 },
        Publish { src: 0, g: 0 },
        ReadGlobal { dst: 3, g: 0 },
        Copy { dst: 3, src: 0 },
        NosRefresh {
            obj: 0,
            f: 0,
            alt: 2,
        },
        PutField {
            obj: 2,
            f: 0,
            val: 0,
        },
        CallSink { src: 2 },
        CallMake { dst: 3 },
        PutField {
            obj: 3,
            f: 1,
            val: 0,
        },
        SetNull { dst: 0 },
    ];
    run_case(&stmts, 4).unwrap();
}
