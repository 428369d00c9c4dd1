//! Multi-mutator stress over the threaded SATB safepoint protocol, and
//! the schedule-determinism contract of the deterministic scheduler.
//!
//! The real-thread half exercises [`wbe_heap::threaded`]: several
//! mutator threads allocate, link, and unlink through per-thread SATB
//! buffers with periodic safepoint polls while the marker races them;
//! the snapshot and all still-reachable objects must survive the
//! stop-the-world remark + sweep. The deterministic half pins the
//! replay guarantee the model checker rests on: the same seed yields a
//! bit-identical schedule digest and identical telemetry counters.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use wbe_heap::gc::MarkStyle;
use wbe_heap::sched::run_schedule;
use wbe_heap::threaded::{ConcurrentCycle, SafepointCtl};
use wbe_heap::{debug, FieldShape, GcRef, Heap, Scenario, SchedConfig, SchedulePolicy, Value};

#[test]
fn multiple_mutators_with_safepoint_protocol_preserve_the_snapshot() {
    let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::Satb)));
    const THREADS: usize = 4;
    const OPS: usize = 300;
    const POLL_EVERY: usize = 16;

    // Per-thread chains rooted in a shared array.
    let (root_arr, heads) = {
        let mut h = heap.lock();
        let arr = h.alloc_ref_array(0, THREADS as i64).unwrap();
        let mut heads = Vec::new();
        for t in 0..THREADS {
            let head = h.alloc_object(1, &[FieldShape::Ref]).unwrap();
            h.set_elem(arr, t as i64, Some(head)).unwrap();
            heads.push(head);
        }
        (arr, heads)
    };
    let snapshot: Vec<GcRef> = heads.clone();

    let ctl = SafepointCtl::new(THREADS);
    let handles: Vec<_> = (0..THREADS).map(|_| ctl.register()).collect();

    let cycle = ConcurrentCycle::start(Arc::clone(&heap), Arc::clone(&ctl), &[root_arr], 3)
        .expect("no cycle in progress");

    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut handle| {
            let heap = Arc::clone(&heap);
            let mut cur = heads[handle.tid()];
            std::thread::spawn(move || {
                for i in 0..OPS {
                    if i % POLL_EVERY == 0 {
                        // Periodic safepoint poll: ack pending epochs,
                        // flush the SATB buffer.
                        handle.safepoint(&heap).unwrap();
                    }
                    if i == 0 {
                        // The marker snapshots once every mutator has
                        // acked. Stores wait for it: a worker that got
                        // through its ops first would log nothing, and
                        // the buffers this test is about stay empty.
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !heap.lock().gc.is_marking() {
                            assert!(Instant::now() < deadline, "snapshot never taken");
                            std::thread::yield_now();
                        }
                    }
                    let mut h = heap.lock();
                    let n = h.alloc_object(2, &[FieldShape::Ref]).unwrap();
                    // cur.f0 = n, via the per-thread SATB barrier.
                    if let Value::Ref(Some(old)) = h.get_field(cur, 0).unwrap() {
                        handle.barrier_log(&h, old);
                    }
                    h.set_field(cur, 0, Value::from(n)).unwrap();
                    if i % 3 == 0 {
                        cur = n; // extend the chain
                    }
                    // (else: next store unlinks n again — barrier logged)
                }
                handle.retire(&heap);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let before = debug::graph_stats(&heap.lock(), &[root_arr]);
    let report = cycle.finish(&[root_arr]).unwrap();
    assert!(report.cycle_ran, "all four mutators acked the epoch");
    let h = heap.lock();
    // Snapshot objects (the chain heads) all marked.
    for s in &snapshot {
        assert!(h.gc.is_marked(*s), "snapshot head lost");
    }
    // The in-rendezvous sweep kept every reachable object.
    let after = debug::graph_stats(&h, &[root_arr]);
    assert!(after.reachable > THREADS);
    assert_eq!(before.reachable, after.reachable, "sweep ate a live object");
    assert!(report.concurrent_units > 0 || report.pause.work_units() > 0);

    // Protocol accounting: every thread acked once, and the buffered
    // barriers reached the collector via flushes.
    let c = ctl.counters();
    assert_eq!(c.acks, THREADS as u64);
    assert!(c.flushes >= THREADS as u64);
    assert!(c.flushed_entries > 0, "barriers flowed through buffers");
}

#[test]
fn incremental_update_threaded_cycle_also_sound() {
    let heap = Arc::new(Mutex::new(Heap::new(MarkStyle::IncrementalUpdate)));
    let ctl = SafepointCtl::new(0);
    let root = {
        let mut h = heap.lock();
        h.alloc_object(0, &[FieldShape::Ref]).unwrap()
    };
    let cycle =
        ConcurrentCycle::start(Arc::clone(&heap), ctl, &[root], 2).expect("no cycle in progress");
    let mut cur = root;
    for _ in 0..200 {
        let mut h = heap.lock();
        let n = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.gc.dirty(cur);
        h.set_field(cur, 0, Value::from(n)).unwrap();
        cur = n;
    }
    let report = cycle.finish(&[root]).unwrap();
    assert!(report.cycle_ran);
    let h = heap.lock();
    assert_eq!(debug::graph_stats(&h, &[root]).reachable, 201);
}

/// Satellite: schedule determinism. The same seed must reproduce a
/// bit-identical schedule digest and identical counters — including
/// the counters the run publishes into the global telemetry registry —
/// across two independent runs. This is the property that makes a
/// failing model-checker schedule replayable.
#[test]
fn same_seed_gives_identical_digest_and_telemetry_counters() {
    let cfg = SchedConfig {
        threads: 3,
        ops_per_thread: 60,
        scenario: Scenario::Shared,
        ..SchedConfig::default()
    };
    let run = |seed: u64| {
        let before = wbe_telemetry::registry::global().snapshot();
        let outcome = run_schedule(&cfg, &SchedulePolicy::Random { seed });
        let after = wbe_telemetry::registry::global().snapshot();
        let mut deltas: Vec<(String, u64)> = after
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sched."))
            .map(|(name, value)| {
                let prev = before.counter(name).unwrap_or(0);
                (name.clone(), value - prev)
            })
            .collect();
        deltas.sort();
        (outcome, deltas)
    };

    let (a, da) = run(0xfeed);
    let (b, db) = run(0xfeed);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(
        a.digest(),
        b.digest(),
        "schedule digest must be bit-identical"
    );
    assert_eq!(a.trace, b.trace, "step-by-step schedule identical");
    assert_eq!(a.counters, b.counters, "all counters identical");
    assert_eq!(da, db, "published telemetry deltas identical");

    // And a different seed takes a different schedule (sanity that the
    // digest actually discriminates).
    let (c, _) = run(0xbeef);
    assert_ne!(a.digest(), c.digest());
}
