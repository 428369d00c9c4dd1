//! The cycle audit's exact paths are observable.
//!
//! `verify::post_mark` traces from the roots only when its closure
//! certificate fails, and `verify::post_sweep` walks every survivor's
//! fields only when post-mark's proof does not carry over; each such run
//! counts in `heap.verify.exact_walks`. A clean cycle must never take
//! one — a lost certificate costs `serve-open-loop` a fifth of its
//! throughput and changes no output, so only this counter shows it —
//! and a broken one must.
//!
//! The counter is process-wide, so the tests here take turns.

use std::sync::Mutex;

use wbe_heap::gc::MarkStyle;
use wbe_heap::sched::{run_schedule, ViolationKind};
use wbe_heap::verify::{post_mark, post_sweep};
use wbe_heap::{
    run_serve, FieldShape, GcRef, Heap, PressureConfig, Scenario, SchedConfig, SchedulePolicy,
    ServeScenario, ServeWorldConfig, Value,
};

static SERIAL: Mutex<()> = Mutex::new(());

/// How many exact walks `f` took.
fn exact_walks(f: impl FnOnce()) -> u64 {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        wbe_telemetry::metrics_enabled(),
        "metrics are on by default"
    );
    let counter = wbe_telemetry::counter("heap.verify.exact_walks");
    let before = counter.get();
    f();
    counter.get() - before
}

#[test]
fn clean_serve_runs_take_no_exact_walk() {
    let light = ServeWorldConfig {
        pressure: PressureConfig::with_budget(1_000_000),
        ..ServeWorldConfig::default()
    };
    let overloaded = ServeWorldConfig {
        requests: 2000,
        arrivals_per_window: 6,
        request_ops: 8,
        pressure: PressureConfig::with_budget(220),
        ..ServeWorldConfig::default()
    };
    for mix in ServeScenario::ALL {
        for (label, cfg) in [("light", &light), ("overloaded", &overloaded)] {
            let cfg = ServeWorldConfig {
                scenario: mix,
                ..cfg.clone()
            };
            let mut cycles = 0;
            let walks = exact_walks(|| {
                let o = run_serve(&cfg);
                assert!(o.violations.is_empty(), "{mix} {label}: {:?}", o.violations);
                cycles = o.counters.cycles;
            });
            assert!(cycles > 0, "{mix} {label}: no cycle was audited");
            assert_eq!(walks, 0, "{mix} {label}: {cycles} cycles");
        }
    }
}

#[test]
fn clean_schedules_take_no_exact_walk() {
    for scenario in Scenario::ALL {
        for threads in [1, 2, 4] {
            let cfg = SchedConfig {
                threads,
                scenario,
                ..SchedConfig::default()
            };
            for seed in 1..6 {
                let mut cycles = 0;
                let walks = exact_walks(|| {
                    let o = run_schedule(&cfg, &SchedulePolicy::Random { seed });
                    assert!(o.violations.is_empty(), "{scenario} x{threads} seed {seed}");
                    cycles = o.counters.cycles;
                });
                assert!(cycles > 0, "{scenario} x{threads} seed {seed}: no cycle");
                assert_eq!(walks, 0, "{scenario} x{threads} seed {seed}");
            }
        }
    }
}

/// The scheduler's negative control unlinks without a barrier and never
/// re-links, so what it loses is unreachable by the remark: the heap
/// stays consistent, both proofs hold, and the snapshot-survives audit
/// (which this counter does not cover) catches every loss.
#[test]
fn unsound_schedules_lose_objects_without_breaking_a_proof() {
    for scenario in Scenario::ALL {
        let cfg = SchedConfig {
            scenario,
            demo_unsound: true,
            ..SchedConfig::default()
        };
        let mut lost = 0;
        let walks = exact_walks(|| {
            for seed in 1..6 {
                let o = run_schedule(&cfg, &SchedulePolicy::Random { seed });
                assert!(o
                    .violations
                    .iter()
                    .all(|v| v.kind == ViolationKind::LostObject));
                lost += o.violations.len();
            }
        });
        assert!(lost > 0, "{scenario}: demo_unsound lost nothing");
        assert_eq!(walks, 0, "{scenario}: {lost} lost objects");
    }
}

fn two_objects() -> (Heap, GcRef, GcRef) {
    let mut heap = Heap::new(MarkStyle::Satb);
    let shape = [FieldShape::Ref];
    let a = heap.alloc_object(0, &shape).unwrap();
    let b = heap.alloc_object(0, &shape).unwrap();
    (heap, a, b)
}

/// Post-mark's trace and post-sweep's walk, each once, and both lists
/// non-empty.
fn audit(heap: &mut Heap, roots: &[GcRef]) -> u64 {
    exact_walks(|| {
        let token = post_mark(heap, roots);
        assert!(!token.violations().is_empty(), "post-mark saw nothing");
        heap.sweep();
        assert!(
            !post_sweep(heap, &token).is_empty(),
            "post-sweep saw nothing"
        );
    })
}

/// An elided deletion barrier whose victim is re-linked behind the
/// marker: reachable and unmarked at post-mark, dangling after the
/// sweep, and neither proof holds.
#[test]
fn an_unsound_elision_takes_both_exact_walks() {
    let (mut heap, a, b) = two_objects();
    let x = heap.alloc_object(0, &[FieldShape::Ref]).unwrap();
    heap.set_field(b, 0, Value::from(x)).unwrap();
    heap.gc.begin_marking(&mut heap.store, &[b, a]);
    heap.gc.mark_step(&mut heap.store, 1);
    heap.set_field(b, 0, Value::NULL).unwrap();
    heap.set_field(a, 0, Value::from(x)).unwrap();
    heap.gc.remark(&mut heap.store, &[a, b]);
    assert_eq!(audit(&mut heap, &[a, b]), 2);
}

/// `Heap::chaos_clear_mark` forges the same corruption directly.
#[test]
fn a_cleared_mark_takes_both_exact_walks() {
    let (mut heap, a, b) = two_objects();
    heap.set_field(b, 0, Value::from(a)).unwrap();
    heap.gc.begin_marking(&mut heap.store, &[b]);
    heap.gc.remark(&mut heap.store, &[b]);
    assert_eq!(heap.chaos_clear_mark(), Some(a));
    assert_eq!(audit(&mut heap, &[b]), 2);
}
