//! Golden differential for the store-barrier path both dispatch loops
//! share.
//!
//! `engine_equivalence.rs` compares the two `EngineKind`s with each
//! other, so it cannot see a wrong verdict, cost or count in code they
//! both call, and `baselines/suite.ndjson` pins only totals under
//! `Checked`. `barrier_path.golden` was written by this same driver
//! running against the classic interpreter as it stood when the barrier
//! was still decided per execution from `(MethodId, InsnAddr)` maps
//! (`Interp::apply_barrier`); byte equality, for both engines, pins
//! every verdict, every charged cycle and every per-site count of the
//! path that replaced it.
//!
//! What is covered: all eight `wbe_workloads` programs under SATB ×
//! {`None`, `Checked`, `AlwaysLog`} × {elision off, pre-null +
//! null-or-same}; incremental update × {`None`, `Checked`} with the
//! elision set present; the §4.3 rearrangement configuration
//! `rearrange_exp` builds; two seeded fault plans with invariant
//! verification and recovery armed; the necessity oracle's per-site
//! verdict table on one configuration; and one deliberately unsound
//! elision with recovery (heal, revoke, gated re-execution) and without
//! (trap). `BarrierMode::None` and `Fuse::IuDirty { mark: false }` log
//! nothing, so those runs leave the collector idle.
//!
//! To regenerate after an intended behaviour change, run the test: on a
//! mismatch it writes what it produced to the test scratch directory
//! and names the file.

use std::collections::HashMap;
use std::fmt::Write as _;

use wbe_harness::rearrange_exp::protocol_sites;
use wbe_harness::site::compile_workload_with;
use wbe_heap::debug::world_digest;
use wbe_heap::gc::MarkStyle;
use wbe_heap::{FaultConfig, FaultPlan, RecoveryPolicy};
use wbe_interp::{
    BarrierConfig, BarrierMode, ElidedBarriers, ElisionKind, EngineKind, GcPolicy, Value,
};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{CmpOp, FieldId, Insn, InsnAddr, MethodId, Program, Ty};
use wbe_opt::{plan_program, OptMode, PipelineConfig};
use wbe_workloads::Workload;

/// Marking schedule of the workload matrix: tight enough that every
/// program completes several cycles in [`iters_of`] iterations.
const GC: GcPolicy = GcPolicy {
    alloc_trigger: 24,
    step_interval: 8,
    step_budget: 4,
};

/// Schedule of the unsound-site program (a few dozen allocations).
const GC_UNSOUND: GcPolicy = GcPolicy {
    alloc_trigger: 8,
    step_interval: 4,
    step_budget: 2,
};

const FAULT_SEEDS: [u64; 2] = [0x00C0_FFEE, 0xDEAD_BEEF];

/// What is installed on the engine before it runs.
#[derive(Clone, Copy, Default)]
struct Setup {
    gc: Option<GcPolicy>,
    fault_seed: Option<u64>,
    recovery: Option<RecoveryPolicy>,
    verify: bool,
    oracle: bool,
}

fn workloads() -> Vec<Workload> {
    let mut all = wbe_workloads::standard_suite();
    all.extend(wbe_workloads::server_family());
    assert_eq!(all.len(), 8);
    all
}

/// A twentieth of the default iteration count, kept inside a range
/// where the smallest program still collects and the largest still
/// finishes quickly in a debug build.
fn iters_of(w: &Workload) -> i64 {
    (w.default_iters / 20).clamp(100, 600)
}

/// Runs `entry` once per element of `runs` on one engine and renders
/// everything observable afterwards as one golden stanza.
#[allow(clippy::too_many_arguments)]
fn stanza(
    out: &mut String,
    label: &str,
    kind: EngineKind,
    program: &Program,
    config: BarrierConfig,
    style: MarkStyle,
    setup: Setup,
    entry: MethodId,
    runs: &[(i64, u64)],
) {
    let mut engine = kind.build(program, config, style);
    if let Some(policy) = setup.gc {
        engine.set_gc_policy(policy);
    }
    if let Some(seed) = setup.fault_seed {
        engine.set_fault_plan(FaultPlan::new(FaultConfig {
            corrupt_mark_pm: 400,
            ..FaultConfig::from_seed(seed)
        }));
    }
    engine.set_verify_invariants(setup.verify);
    if let Some(policy) = setup.recovery {
        engine.set_recovery(policy);
    }
    engine.set_oracle(setup.oracle);

    writeln!(out, "== {label}").unwrap();
    for &(arg, fuel) in runs {
        match engine.run(entry, &[Value::Int(arg)], fuel) {
            Ok(v) => writeln!(out, "result {v:?}").unwrap(),
            Err(t) => writeln!(out, "trap {t}").unwrap(),
        }
    }
    let s = engine.stats();
    writeln!(
        out,
        "stats insns={} cycles={} barrier_cycles={} elided={} rearrange_skipped={} \
         retraces={} stack_allocated={} stack_freed={} gc_cycles={} emergency_pauses={} \
         alloc_retries={}",
        s.insns,
        s.cycles,
        s.barrier_cycles,
        s.elided_executions,
        s.rearrange_skipped,
        s.retraces_scheduled,
        s.stack_allocated,
        s.stack_freed,
        s.gc_cycles,
        s.emergency_pauses,
        s.alloc_retries,
    )
    .unwrap();
    for p in &s.pauses {
        writeln!(
            out,
            "pause {} {} {} {} {} {}",
            p.objects_scanned,
            p.refs_traced,
            p.log_drained,
            p.dirty_rescanned,
            p.retraced,
            p.roots_examined
        )
        .unwrap();
    }
    let mut sites: Vec<_> = s
        .barrier
        .iter()
        .map(|(&(m, a, k), st)| (m.index(), a.block.index(), a.index, format!("{k:?}"), *st))
        .collect();
    sites.sort_by(|a, b| (a.0, a.1, a.2, &a.3).cmp(&(b.0, b.1, b.2, &b.3)));
    for (m, b, i, k, st) in sites {
        writeln!(
            out,
            "site {m} {b} {i} {k} {} {} {}",
            st.executions, st.pre_null, st.cycles
        )
        .unwrap();
    }
    let heap = engine.heap();
    writeln!(out, "gc {}", heap.gc.stats).unwrap();
    writeln!(
        out,
        "heap allocations={} words={} frees={} digest={:016x}",
        heap.stats.allocations,
        heap.stats.words_allocated,
        heap.stats.frees,
        world_digest(heap)
    )
    .unwrap();
    if let Some(plan) = heap.fault.as_ref() {
        writeln!(
            out,
            "faults injected={} digest={:016x}",
            plan.stats.injected(),
            plan.digest()
        )
        .unwrap();
    }
    if let Some(rc) = engine.recovery() {
        let r = rc.stats;
        writeln!(
            out,
            "recovery attempted={} succeeded={} failed={} revoked_sites={} gated_elisions={} \
             panic_entries={} in_panic={}",
            r.attempted,
            r.succeeded,
            r.failed,
            r.revoked_sites,
            r.gated_elisions,
            r.panic_entries,
            rc.in_panic()
        )
        .unwrap();
        let mut revs: Vec<_> = s.revocations.iter().collect();
        revs.sort_by_key(|(_, rev)| rev.order);
        for (&(m, at), rev) in revs {
            writeln!(
                out,
                "revoked {} trigger={} attempt={} reason={}",
                at.label(&program.method(m).name),
                rev.trigger,
                rev.attempt,
                rev.reason
            )
            .unwrap();
        }
    }
    if let Some(o) = engine.oracle() {
        writeln!(
            out,
            "oracle cycles_audited={} audit_violations={}",
            o.cycles_audited, o.audit_violations
        )
        .unwrap();
        let kinds: HashMap<_, _> = s
            .barrier
            .iter()
            .map(|(&(m, a, k), _)| ((m, a), k))
            .collect();
        for (&(m, a), n) in &o.sites {
            writeln!(
                out,
                "verdict {} {} {} {:?} exec={} necessary={} idle={} null_old={} marked={} \
                 duplicate={} sole={} shielded={} escaped={}",
                m.0,
                a.block.0,
                a.index,
                kinds.get(&(m, a)),
                n.executions,
                n.necessary,
                n.marking_idle,
                n.null_old,
                n.already_marked,
                n.duplicate,
                n.sole_witness,
                n.shielded,
                n.receiver_escaped
            )
            .unwrap();
        }
    }
}

/// A store loop with three elided sites, one of them wrong:
/// `o.g = t` overwrites the previous iteration's `t` from the second
/// iteration on but is in the elision set as pre-null; `t.f = o`
/// (pre-null) and `o.h = o` (null-or-same) are sound. `o` is published
/// in a static first, so every receiver has escaped by the time it is
/// stored into and the oracle's witness column is not all zeros.
fn unsound_program() -> (Program, MethodId, ElidedBarriers) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    let g = pb.field(c, "g", Ty::Ref(c));
    let h = pb.field(c, "h", Ty::Ref(c));
    let root = pb.static_field("root", Ty::Ref(c));
    let m = pb.method("overwrite", vec![Ty::Int], Some(Ty::Int), 3, |mb| {
        let n = mb.local(0);
        let o = mb.local(1);
        let t = mb.local(2);
        let i = mb.local(3);
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.new_object(c).store(o).load(o).putstatic(root);
        mb.iconst(0).store(i).goto_(head);
        mb.switch_to(head)
            .load(i)
            .load(n)
            .if_icmp(CmpOp::Lt, body, exit);
        mb.switch_to(body).new_object(c).store(t);
        mb.load(o).load(t).putfield(g);
        mb.load(t).load(o).putfield(f);
        mb.load(o).load(o).putfield(h);
        mb.iinc(i, 1).goto_(head);
        mb.switch_to(exit).load(i).return_value();
    });
    let program = pb.finish();
    program.validate().expect("unsound program is well formed");
    let site_of = |field: FieldId| -> InsnAddr {
        for (bi, block) in program.method(m).blocks.iter().enumerate() {
            for (i, insn) in block.insns.iter().enumerate() {
                if *insn == Insn::PutField(field) {
                    return InsnAddr::new(wbe_ir::BlockId(bi as u32), i);
                }
            }
        }
        panic!("the method stores to every field")
    };
    let mut elided = ElidedBarriers::new();
    elided.insert(m, site_of(g));
    elided.insert(m, site_of(f));
    elided.insert_kind(m, site_of(h), ElisionKind::NullOrSame);
    (program, m, elided)
}

fn render(kind: EngineKind) -> String {
    let mut out = String::new();
    let modes = [
        BarrierMode::None,
        BarrierMode::Checked,
        BarrierMode::AlwaysLog,
    ];
    // A mode that logs nothing is only safe with the collector idle.
    let gc_for = |mode: BarrierMode| (mode != BarrierMode::None).then_some(GC);

    for w in &workloads() {
        let (compiled, elided) = compile_workload_with(w, &PipelineConfig::new(OptMode::Full, 100));
        let program = &compiled.program;
        let iters = iters_of(w);
        let runs = [(iters, w.fuel_for(iters))];

        for mode in modes {
            for elide in [false, true] {
                let config = if elide {
                    BarrierConfig::with_elision(mode, elided.clone())
                } else {
                    BarrierConfig::new(mode)
                };
                let setup = Setup {
                    gc: gc_for(mode),
                    ..Setup::default()
                };
                stanza(
                    &mut out,
                    &format!("{} satb {mode:?} elide={elide}", w.name),
                    kind,
                    program,
                    config,
                    MarkStyle::Satb,
                    setup,
                    w.entry,
                    &runs,
                );
            }
        }

        for mode in [BarrierMode::None, BarrierMode::Checked] {
            let setup = Setup {
                gc: gc_for(mode),
                ..Setup::default()
            };
            stanza(
                &mut out,
                &format!("{} iu {mode:?} elide=true", w.name),
                kind,
                program,
                BarrierConfig::with_elision(mode, elided.clone()),
                MarkStyle::IncrementalUpdate,
                setup,
                w.entry,
                &runs,
            );
        }

        for seed in FAULT_SEEDS {
            let setup = Setup {
                gc: Some(GC),
                fault_seed: Some(seed),
                recovery: Some(RecoveryPolicy { max_attempts: 5 }),
                verify: true,
                oracle: false,
            };
            stanza(
                &mut out,
                &format!("{} satb Checked elide=true faults={seed:#x}", w.name),
                kind,
                program,
                BarrierConfig::with_elision(BarrierMode::Checked, elided.clone()),
                MarkStyle::Satb,
                setup,
                w.entry,
                &runs,
            );
        }

        let setup = Setup {
            gc: Some(GC),
            oracle: true,
            ..Setup::default()
        };
        stanza(
            &mut out,
            &format!("{} satb Checked elide=true oracle", w.name),
            kind,
            program,
            BarrierConfig::with_elision(BarrierMode::Checked, elided.clone()),
            MarkStyle::Satb,
            setup,
            w.entry,
            &runs,
        );

        // §4.3, with the sites `rearrange_exp::run` installs.
        let baseline = wbe_opt::compile(&w.program, &PipelineConfig::new(OptMode::Baseline, 100));
        let sites = protocol_sites(&plan_program(&baseline.program), &ElidedBarriers::new());
        let setup = Setup {
            gc: Some(GC),
            ..Setup::default()
        };
        stanza(
            &mut out,
            &format!("{} satb Checked rearrange={}", w.name, sites.len()),
            kind,
            &baseline.program,
            BarrierConfig::new(BarrierMode::Checked).with_rearrange(sites),
            MarkStyle::Satb,
            setup,
            w.entry,
            &runs,
        );
    }

    let (program, entry, elided) = unsound_program();
    // Two runs on one engine: the second re-executes the revoked sites.
    let runs = [(24, 10_000), (24, 10_000)];
    for (mode, recover, oracle) in [
        (BarrierMode::Checked, true, false),
        (BarrierMode::AlwaysLog, true, true),
        (BarrierMode::Checked, false, false),
    ] {
        let setup = Setup {
            gc: Some(GC_UNSOUND),
            fault_seed: None,
            recovery: recover.then(RecoveryPolicy::default),
            verify: true,
            oracle,
        };
        stanza(
            &mut out,
            &format!("unsound satb {mode:?} recovery={recover} oracle={oracle}"),
            kind,
            &program,
            BarrierConfig::with_elision(mode, elided.clone()),
            MarkStyle::Satb,
            setup,
            entry,
            &runs,
        );
    }
    out
}

#[test]
fn both_loops_match_the_golden_file() {
    let golden = include_str!("barrier_path.golden");
    for kind in [EngineKind::Classic, EngineKind::Compiled] {
        let actual = render(kind);
        if actual == golden {
            continue;
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("barrier_path.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{kind} engine differs from barrier_path.golden at line {}; wrote {}",
            line + 1,
            path.display()
        );
    }
}

/// The runs reach what the golden file is meant to pin.
#[test]
fn golden_covers_every_outcome_of_the_path() {
    let golden = include_str!("barrier_path.golden");
    let stanzas: Vec<&str> = golden.split("== ").skip(1).collect();
    // 8 programs x (6 SATB + 2 IU + 2 fault plans + oracle + §4.3) + 3.
    assert_eq!(stanzas.len(), 8 * 12 + 3);
    let field = |stanza: &str, key: &str| -> u64 {
        let at = stanza.find(key).unwrap_or_else(|| panic!("{key} missing"));
        stanza[at + key.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{key} is not a number"))
    };
    let find = |what: &str| -> Vec<&str> {
        stanzas
            .iter()
            .copied()
            .filter(|s| s.lines().next().is_some_and(|l| l.contains(what)))
            .collect()
    };
    for s in find("elide=true") {
        if !s.starts_with("unsound") && !s.contains(" iu ") {
            assert!(field(s, " elided=") > 0, "no elided execution: {s}");
        }
    }
    for s in find(" iu ") {
        assert_eq!(field(s, " elided="), 0, "IU never elides");
    }
    assert!(
        find(" iu Checked")
            .iter()
            .any(|s| field(s, "dirty_marks=") > 0),
        "no IU run dirtied a card"
    );
    for s in find("satb Checked elide=false") {
        assert!(
            field(s, "satb_logs=") > 0,
            "kept barriers never logged: {s}"
        );
        assert!(field(s, " gc_cycles=") > 0, "no cycle completed: {s}");
    }
    assert!(
        find("rearrange=")
            .iter()
            .any(|s| field(s, "rearrange_skipped=") > 0 && field(s, " retraces=") > 0),
        "no §4.3 member store met the marker"
    );
    let faulted = find("faults=");
    assert!(faulted
        .iter()
        .any(|s| field(s, "succeeded=") > 0 && field(s, "gated_elisions=") > 0));
    assert!(faulted.iter().any(|s| s.contains("trigger=invariant")));
    assert!(find(" oracle").iter().any(|s| s
        .lines()
        .any(|l| l.starts_with("verdict") && field(l, "necessary=") > 0)));
    let healed = find("unsound satb Checked recovery=true");
    assert!(healed[0].contains("trigger=oracle"), "the bad site heals");
    assert!(
        healed[0].contains("trigger=invariant"),
        "panic gates the rest"
    );
    assert_eq!(healed[0].matches("result ").count(), 2, "both runs finish");
    assert!(field(healed[0], "gated_elisions=") > 0);
    let trapped = find("unsound satb Checked recovery=false");
    assert!(trapped[0].contains("trap UNSOUND ELISION"));
}
