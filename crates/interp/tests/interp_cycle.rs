//! Golden differential for the interpreter's marking cycles: how a
//! policy-driven or emergency cycle opens, remarks, verifies, heals and
//! sweeps, on both dispatch loops and both marker styles.
//!
//! `interp_cycle.golden` was written by the interpreter as it stood when
//! it ran its own cycle tail (`full_pause`, `finish_cycle` and
//! `recover_from` in `machine.rs`), before it became a host of the
//! shared marking-cycle driver. Each case pins what a run leaves behind:
//! the result or the trap, every `RunStats` counter and pause report,
//! the recovery counters and revocations, the fault plan's decisions,
//! the collector's and the heap's counters, the live-object count (which
//! says whether a sweep ran) and, with tracing on, the ordered trace
//! stream — `gc.recovery.{panic,remark,resume,trap}`,
//! `fault.chaos.mark_corrupted`, `interp.gc.emergency_pause`, the
//! `heap.occupancy.objects` / `heap.alloc.objects_total` samples and the
//! `heap.*` spans between them.
//!
//! The cases reach what `barrier_path.golden` does not: chaos that
//! heals, corruption that outlasts the recovery budget, verification
//! with no controller, emergency pauses from idle and from mid-marking,
//! an unsound elision healed with and without a GC policy, and deferred
//! and early marking starts.
//!
//! On a mismatch the test writes what it produced to the test binary's
//! scratch directory and names the file.

use std::fmt::Write as _;

use wbe_heap::gc::MarkStyle;
use wbe_heap::{FaultConfig, FaultPlan, RecoveryPolicy};
use wbe_interp::{BarrierConfig, BarrierMode, ElidedBarriers, EngineKind, GcPolicy, Interp, Value};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{CmpOp, Insn, InsnAddr, MethodId, Program, Ty};

/// `n` nodes, each linked to its predecessor with a pre-null `putfield`
/// and then, when `relink`, pointed at itself — an overwrite of a
/// non-null field, which the `unsound` cases elide on purpose. Each
/// iteration also drops a fresh node, so a sweep that runs frees
/// something.
fn list_program(relink: bool) -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Node");
    let next = pb.field(c, "next", Ty::Ref(c));
    let m = pb.method("churn", vec![Ty::Int], Some(Ty::Int), 2, |mb| {
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
            .new_object(c)
            .pop();
        if relink {
            mb.load(prev).load(prev).putfield(next);
        }
        mb.iinc(i, 1).goto_(head);
        mb.switch_to(exit).load(i).return_value();
    });
    let p = pb.finish();
    p.validate().unwrap();
    (p, m)
}

/// The last `putfield` of `m`: the self-link of a `relink` list.
fn last_putfield(p: &Program, m: MethodId) -> InsnAddr {
    let mut found = None;
    for (b, block) in p.method(m).blocks.iter().enumerate() {
        for (i, insn) in block.insns.iter().enumerate() {
            if matches!(insn, Insn::PutField(_)) {
                found = Some(InsnAddr::new(wbe_ir::BlockId(b as u32), i));
            }
        }
    }
    found.expect("the program stores a field")
}

const POLICY: GcPolicy = GcPolicy {
    alloc_trigger: 16,
    step_interval: 4,
    step_budget: 2,
};

/// One case: what is installed before the run, and the run.
#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    gc: bool,
    fault: Option<FaultConfig>,
    verify: bool,
    recovery: Option<u32>,
    oracle: bool,
    /// Elide the self-link store of a `relink` list: unsound.
    unsound: bool,
    iters: i64,
}

const BASE: Case = Case {
    name: "",
    gc: true,
    fault: None,
    verify: true,
    recovery: None,
    oracle: false,
    unsound: false,
    iters: 160,
};

/// A fault plan that only corrupts the mark state after a remark.
fn chaos(seed: u64, pm: u16) -> FaultConfig {
    FaultConfig {
        corrupt_mark_pm: pm,
        alloc_fail_pm: 0,
        ..FaultConfig::from_seed(seed)
    }
}

/// A fault plan that only fails allocations.
fn alloc_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        defer_start_pm: 0,
        early_start_pm: 0,
        skip_step_pm: 0,
        drain_boost_pm: 0,
        alloc_fail_pm: 200,
        alloc_grace: 8,
        ..FaultConfig::from_seed(seed)
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "chaos heals",
            fault: Some(chaos(9, 400)),
            recovery: Some(5),
            oracle: true,
            ..BASE
        },
        Case {
            name: "persistent corruption traps after its budget",
            fault: Some(chaos(3, 1000)),
            recovery: Some(3),
            ..BASE
        },
        Case {
            name: "verification without a controller",
            fault: Some(chaos(9, 400)),
            ..BASE
        },
        Case {
            name: "chaos without verification",
            fault: Some(chaos(9, 400)),
            verify: false,
            ..BASE
        },
        Case {
            name: "emergency pauses from idle",
            gc: false,
            fault: Some(alloc_faults(5)),
            ..BASE
        },
        Case {
            name: "emergency pauses mid-marking",
            fault: Some(alloc_faults(6)),
            ..BASE
        },
        Case {
            name: "emergency pauses heal chaos",
            fault: Some(FaultConfig {
                corrupt_mark_pm: 300,
                ..alloc_faults(7)
            }),
            recovery: Some(4),
            ..BASE
        },
        Case {
            name: "unsound elision heals from idle",
            gc: false,
            recovery: Some(3),
            unsound: true,
            iters: 40,
            ..BASE
        },
        Case {
            name: "unsound elision heals mid-run",
            recovery: Some(3),
            oracle: true,
            unsound: true,
            ..BASE
        },
        Case {
            name: "unsound elision with a zero budget",
            recovery: Some(0),
            unsound: true,
            ..BASE
        },
        Case {
            name: "unsound elision traps without a controller",
            unsound: true,
            ..BASE
        },
        Case {
            name: "deferred and early starts",
            fault: Some(FaultConfig {
                defer_start_pm: 600,
                early_start_pm: 200,
                alloc_fail_pm: 0,
                ..FaultConfig::from_seed(4)
            }),
            ..BASE
        },
        Case {
            name: "standard fault plan, unverified",
            fault: Some(FaultConfig::from_seed(42)),
            verify: false,
            ..BASE
        },
    ]
}

fn run_case(out: &mut String, case: Case, kind: EngineKind, style: MarkStyle) {
    let (p, m) = list_program(case.unsound);
    let config = if case.unsound {
        let mut elided = ElidedBarriers::new();
        elided.insert(m, last_putfield(&p, m));
        BarrierConfig::with_elision(BarrierMode::Checked, elided)
    } else {
        BarrierConfig::new(BarrierMode::Checked)
    };
    let mut interp: Interp<'_> = kind.build(&p, config, style);
    if case.gc {
        interp.set_gc_policy(POLICY);
    }
    if let Some(fault) = case.fault {
        interp.set_fault_plan(FaultPlan::new(fault));
    }
    interp.set_verify_invariants(case.verify);
    if let Some(max_attempts) = case.recovery {
        interp.set_recovery(RecoveryPolicy { max_attempts });
    }
    interp.set_oracle(case.oracle);

    let prev = wbe_telemetry::configure(wbe_telemetry::TelemetryConfig::all());
    wbe_telemetry::trace::drain();
    let result = interp.run(m, &[Value::Int(case.iters)], 1_000_000);
    let events = wbe_telemetry::trace::drain();
    wbe_telemetry::configure(prev);

    writeln!(out, "== {} / {kind} / {style:?}", case.name).unwrap();
    match result {
        Ok(v) => writeln!(out, "result {v:?}").unwrap(),
        Err(t) => writeln!(out, "trap {t}").unwrap(),
    }
    let s = interp.stats();
    writeln!(
        out,
        "stats insns={} cycles={} barrier_cycles={} elided={} gc_cycles={} \
         emergency_pauses={} alloc_retries={}",
        s.insns,
        s.cycles,
        s.barrier_cycles,
        s.elided_executions,
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
    if let Some(rc) = interp.recovery() {
        let r = rc.stats;
        writeln!(
            out,
            "recovery attempted={} succeeded={} failed={} revoked_sites={} \
             gated_elisions={} panic_entries={} in_panic={} reason={:?}",
            r.attempted,
            r.succeeded,
            r.failed,
            r.revoked_sites,
            r.gated_elisions,
            r.panic_entries,
            rc.in_panic(),
            rc.panic_reason()
        )
        .unwrap();
        let mut revs: Vec<_> = s.revocations.iter().collect();
        revs.sort_by_key(|(_, rev)| rev.order);
        for (&(m, at), rev) in revs {
            writeln!(
                out,
                "revoked REVOKED {} — {} ({}) attempt={}",
                at.label(&p.method(m).name),
                rev.reason,
                rev.trigger,
                rev.attempt
            )
            .unwrap();
        }
    }
    if let Some(oracle) = interp.oracle() {
        writeln!(
            out,
            "oracle cycles_audited={} audit_violations={} executions={} necessary={}",
            oracle.cycles_audited,
            oracle.audit_violations,
            oracle.total_executions(),
            oracle.total_necessary()
        )
        .unwrap();
    }
    let heap = interp.heap();
    writeln!(out, "gc {}", heap.gc.stats).unwrap();
    writeln!(
        out,
        "heap allocations={} words={} frees={} live={} marking={}",
        heap.stats.allocations,
        heap.stats.words_allocated,
        heap.stats.frees,
        heap.store.live_count(),
        heap.gc.is_marking()
    )
    .unwrap();
    if let Some(plan) = heap.fault.as_ref() {
        writeln!(out, "faults {:?} digest={:016x}", plan.stats, plan.digest()).unwrap();
    }
    let me = wbe_telemetry::trace::current_tid();
    for e in events.iter().filter(|e| e.tid == me) {
        write!(out, "  {} <{}>", e.name, e.parent).unwrap();
        if !e.detail.is_empty() {
            write!(out, " {}", e.detail).unwrap();
        }
        if let wbe_telemetry::trace::EventKind::Counter { value: v } = e.kind {
            write!(out, " value={v}").unwrap();
        }
        out.push('\n');
    }
}

fn render() -> String {
    let mut out = String::new();
    for case in cases() {
        for kind in [EngineKind::Classic, EngineKind::Compiled] {
            for style in [MarkStyle::Satb, MarkStyle::IncrementalUpdate] {
                run_case(&mut out, case, kind, style);
            }
        }
    }
    out
}

/// One test renders everything: tracing is a process-wide switch, and a
/// second traced test in this binary would race it.
#[test]
fn interpreter_cycles_match_the_golden_file() {
    let golden = include_str!("interp_cycle.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("interp_cycle.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "interpreter cycle output differs from interp_cycle.golden at line {}; \
             what this build produced is in {}",
            line + 1,
            path.display()
        );
    }
}

/// The cases reach what the golden file is meant to pin. Reads the file
/// only, so it cannot disturb the traced runs above.
#[test]
fn golden_covers_the_interpreter_tail() {
    let golden = include_str!("interp_cycle.golden");
    for needle in [
        "gc.recovery.panic",
        "gc.recovery.remark",
        "gc.recovery.resume",
        "gc.recovery.trap",
        "fault.chaos.mark_corrupted",
        "interp.gc.emergency_pause",
        "heap.occupancy.objects",
        "heap.alloc.objects_total",
        "trap HEAP INVARIANT VIOLATION (post-mark)",
        "trap UNSOUND ELISION",
        "revoked ",
    ] {
        assert!(golden.contains(needle), "golden never shows `{needle}`");
    }
    let some = |stat: &str| {
        golden
            .split(stat)
            .skip(1)
            .any(|rest| !rest.starts_with('0'))
    };
    assert!(some("deferred_starts: ") && some("early_starts: "));
    let stanzas = golden.lines().filter(|l| l.starts_with("== ")).count();
    assert_eq!(stanzas, cases().len() * 4);
}
