//! `collector-cycle`: `wbe-heap` driven directly, no interpreter.
//!
//! A seeded graph of 200 k objects (70 % two-ref objects, 20 % ref
//! arrays of 8–64, 10 % int arrays) is built through
//! `Heap::alloc_*` / `set_field` / `set_elem`, then taken through full
//! cycles: `begin_marking` → `mark_step(64)` interleaved with 8 seeded
//! reference stores per step, each carrying the style's barrier
//! (`satb_log(old)` for non-null pre-values, or `dirty(obj)`), and one
//! allocation per 4 steps → `remark` → `Heap::sweep` → refill of the
//! freed slots. Four phases: {`Satb`, `IncrementalUpdate`} ×
//! {live-heavy: 90 % reachable, garbage-heavy: 10 % reachable}. One op
//! is one object marked or one slot swept.
//!
//! The collector is all of the work here, at a heap 60× larger than
//! any IR workload's, and the four phases use the same layer
//! differently (mark-bound vs sweep-bound, log barrier vs dirty
//! barrier), so a gain for one that costs another is visible.
//!
//! How the driver stays a legal mutator without tracking reachability:
//! every live object is held by one *spine* slot (the low half of a
//! live ref array, or the root list) that is never overwritten. The
//! seeded stores only touch the other slots — object fields and the
//! high half of arrays — and only store spine-held objects or the
//! object just allocated, so the spine-held set stays exactly the
//! reachable set the graph was built with, while objects allocated
//! during marking live until the slot they were put in is overwritten.

use std::collections::VecDeque;
use std::time::Instant;

use wbe_heap::gc::MarkStyle;
use wbe_heap::verify::{reachable_set, verify_post_mark, verify_post_sweep};
use wbe_heap::{FieldShape, GcRef, Heap, Value};

use super::{with_telemetry, Check, Facts, LayerCtx, Layers, Rep, Rng, Row, Scale, Workload};
use crate::stats::{percentile, Summary};
use crate::trace::{Recorder, BENCH_LAYER};

const OBJECTS: u64 = 200_000;
/// Cycles per phase per rep.
const CYCLES: u64 = 5;
const MARK_BUDGET: usize = 64;
const STORES_PER_STEP: usize = 8;
const STEPS_PER_ALLOC: u64 = 4;
const OBJ2: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];
const GC: &str = "wbe-heap::gc";
const HEAP: &str = "wbe-heap::heap";

#[derive(Clone, Copy, Debug)]
struct Phase {
    key: &'static str,
    style: MarkStyle,
    reachable_pct: u64,
}

const PHASES: [Phase; 4] = [
    Phase {
        key: "satb_live",
        style: MarkStyle::Satb,
        reachable_pct: 90,
    },
    Phase {
        key: "satb_garbage",
        style: MarkStyle::Satb,
        reachable_pct: 10,
    },
    Phase {
        key: "iu_live",
        style: MarkStyle::IncrementalUpdate,
        reachable_pct: 90,
    },
    Phase {
        key: "iu_garbage",
        style: MarkStyle::IncrementalUpdate,
        reachable_pct: 10,
    },
];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Obj2,
    RefArr(u32),
    IntArr(u32),
}

fn draw_kind(rng: &mut Rng) -> Kind {
    match rng.below(10) {
        0..=6 => Kind::Obj2,
        7..=8 => Kind::RefArr(rng.range(8, 64) as u32),
        _ => Kind::IntArr(rng.range(8, 64) as u32),
    }
}

/// The generated input of one phase: what to allocate, in order, and
/// whether each object is attached to the live graph.
struct Plan {
    objects: Vec<(Kind, bool)>,
    seed: u64,
}

/// A live object the seeded stores may write: slots `lo..len`.
#[derive(Clone, Copy, Debug)]
struct Target {
    obj: GcRef,
    lo: u32,
    len: u32,
    array: bool,
}

/// Counts and samples accumulated over cycles.
#[derive(Clone, Debug, Default)]
struct Tally {
    marked: u64,
    swept_slots: u64,
    freed: u64,
    begin_slots: u64,
    barrier_calls: u64,
    allocated: u64,
    peak_capacity: u64,
    remark_wu: Vec<u64>,
    sweep_wu: Vec<u64>,
    violations: Vec<String>,
}

struct World {
    heap: Heap,
    roots: Vec<GcRef>,
    /// Spine-held objects: the values the mutator may store.
    live: Vec<GcRef>,
    targets: Vec<Target>,
    rng: Rng,
    prev_garbage: Option<GcRef>,
}

fn alloc(heap: &mut Heap, kind: Kind) -> GcRef {
    match kind {
        Kind::Obj2 => heap.alloc_object(1, &OBJ2),
        Kind::RefArr(n) => heap.alloc_ref_array(2, i64::from(n)),
        Kind::IntArr(n) => heap.alloc_int_array(i64::from(n)),
    }
    .expect("no fault plan is installed")
}

impl World {
    fn build(plan: &Plan, style: MarkStyle) -> World {
        let mut heap = Heap::new(style);
        let mut rng = Rng::new(plan.seed, 11);
        let mut roots = Vec::new();
        let mut live = Vec::new();
        let mut targets = Vec::new();
        let mut garbage = Vec::new();
        let mut open: VecDeque<(GcRef, u32)> = VecDeque::new();
        for &(kind, attached) in &plan.objects {
            let r = alloc(&mut heap, kind);
            if !attached {
                garbage.push((r, kind));
                continue;
            }
            match open.pop_front() {
                Some((arr, i)) => heap
                    .set_elem(arr, i64::from(i), Some(r))
                    .expect("spine slot is in range"),
                None => roots.push(r),
            }
            live.push(r);
            match kind {
                Kind::Obj2 => targets.push(Target {
                    obj: r,
                    lo: 0,
                    len: 2,
                    array: false,
                }),
                Kind::RefArr(n) => {
                    open.extend((0..n / 2).map(|i| (r, i)));
                    targets.push(Target {
                        obj: r,
                        lo: n / 2,
                        len: n,
                        array: true,
                    });
                }
                Kind::IntArr(_) => {}
            }
        }
        let mut world = World {
            heap,
            roots,
            live,
            targets,
            rng: Rng::new(plan.seed, 12),
            prev_garbage: None,
        };
        // Cross references: three quarters of the writable live slots.
        for t in 0..world.targets.len() {
            let target = world.targets[t];
            for i in target.lo..target.len {
                if rng.below(4) != 0 {
                    let v = world.live[rng.below(world.live.len() as u64) as usize];
                    world.write(target, i, Some(v));
                }
            }
        }
        for (r, kind) in garbage {
            world.link_garbage(r, kind);
        }
        world
    }

    fn read(&self, t: Target, i: u32) -> Option<GcRef> {
        if t.array {
            self.heap.get_elem(t.obj, i64::from(i))
        } else {
            self.heap
                .get_field(t.obj, i as usize)
                .map(|v| v.as_ref_value().flatten())
        }
        .expect("target slot is in range")
    }

    fn write(&mut self, t: Target, i: u32, v: Option<GcRef>) {
        if t.array {
            self.heap.set_elem(t.obj, i64::from(i), v)
        } else {
            self.heap.set_field(t.obj, i as usize, Value::Ref(v))
        }
        .expect("target slot is in range");
    }

    /// Garbage points into the live graph and at the previous piece of
    /// garbage; nothing live points at it.
    fn link_garbage(&mut self, r: GcRef, kind: Kind) {
        let v = self.live[self.rng.below(self.live.len() as u64) as usize];
        match kind {
            Kind::Obj2 => {
                self.heap
                    .set_field(r, 0, Value::Ref(Some(v)))
                    .expect("field 0 exists");
                self.heap
                    .set_field(r, 1, Value::Ref(self.prev_garbage))
                    .expect("field 1 exists");
            }
            Kind::RefArr(_) => {
                self.heap.set_elem(r, 0, Some(v)).expect("len >= 8");
                self.heap
                    .set_elem(r, 1, self.prev_garbage)
                    .expect("len >= 8");
            }
            Kind::IntArr(_) => {}
        }
        self.prev_garbage = Some(r);
    }

    fn pick_slot(&mut self) -> (Target, u32) {
        let t = self.targets[self.rng.below(self.targets.len() as u64) as usize];
        (t, t.lo + self.rng.below(u64::from(t.len - t.lo)) as u32)
    }

    /// `STORES_PER_STEP` reference stores with the style's barrier. The
    /// choices are drawn first so the spanned part is heap and
    /// collector calls only. The marker cannot interleave inside a
    /// batch, so logging after the batch's writes is unobservable.
    fn store_batch(&mut self, fresh: Option<GcRef>, rec: &mut Recorder, tally: &mut Tally) {
        let mut batch = [(self.targets[0], 0u32, None); STORES_PER_STEP];
        for (k, slot) in batch.iter_mut().enumerate() {
            let (t, i) = self.pick_slot();
            let v = match (k, fresh) {
                (0, Some(n)) => n,
                _ => self.live[self.rng.below(self.live.len() as u64) as usize],
            };
            *slot = (t, i, Some(v));
        }
        let mut olds = [None; STORES_PER_STEP];
        let id = rec.enter(HEAP, "get+set");
        for (k, &(t, i, v)) in batch.iter().enumerate() {
            olds[k] = self.read(t, i);
            self.write(t, i, v);
        }
        rec.exit(id);
        let id = rec.enter(GC, "barrier");
        match self.heap.gc.style() {
            MarkStyle::Satb => {
                for old in olds.into_iter().flatten() {
                    self.heap.gc.satb_log(old);
                    tally.barrier_calls += 1;
                }
            }
            MarkStyle::IncrementalUpdate => {
                for &(t, _, _) in &batch {
                    self.heap.gc.dirty(t.obj);
                    tally.barrier_calls += 1;
                }
            }
        }
        rec.exit(id);
    }

    /// One full cycle. With `verify`, the invariant checks run after
    /// remark and after sweep (untimed passes only).
    fn cycle(&mut self, rec: &mut Recorder, tally: &mut Tally, verify: bool) {
        let scans_before = self.heap.gc.stats.concurrent_scans;
        tally.begin_slots += self.heap.store.capacity() as u64;
        {
            let World { heap, roots, .. } = self;
            rec.call(GC, "begin_marking", || {
                heap.gc.begin_marking(&mut heap.store, roots)
            });
        }
        let mut step = 0u64;
        loop {
            let heap = &mut self.heap;
            let done = rec.call(GC, "mark_step", || {
                heap.gc.mark_step(&mut heap.store, MARK_BUDGET)
            });
            if done == 0 {
                break;
            }
            step += 1;
            let fresh = step.is_multiple_of(STEPS_PER_ALLOC).then(|| {
                tally.allocated += 1;
                let heap = &mut self.heap;
                rec.call(HEAP, "alloc_object", || alloc(heap, Kind::Obj2))
            });
            self.store_batch(fresh, rec, tally);
            // A step that did not use its budget emptied the grey
            // stack. Draining a log entry counts as work, so a mutator
            // that keeps storing would keep the marker "busy" forever:
            // stop here and let the remark drain the last batch's log.
            if done < MARK_BUDGET {
                break;
            }
        }
        let pause = {
            let World { heap, roots, .. } = self;
            rec.call(GC, "remark", || heap.gc.remark(&mut heap.store, roots))
        };
        tally.marked +=
            self.heap.gc.stats.concurrent_scans - scans_before + pause.objects_scanned as u64;
        tally.remark_wu.push(pause.work_units() as u64);
        // Everything reachable now must survive the sweep.
        let reachable = if verify {
            for v in verify_post_mark(&self.heap, &self.roots) {
                tally.violations.push(format!("post-mark: {v}"));
            }
            reachable_set(&self.heap, &self.roots)
        } else {
            Default::default()
        };
        let capacity = self.heap.store.capacity() as u64;
        tally.swept_slots += capacity;
        tally.sweep_wu.push(capacity);
        tally.peak_capacity = tally.peak_capacity.max(capacity);
        let heap = &mut self.heap;
        let freed = rec.call(GC, "Heap::sweep", || heap.sweep());
        tally.freed += freed as u64;
        if verify {
            for v in verify_post_sweep(&self.heap) {
                tally.violations.push(format!("post-sweep: {v}"));
            }
            for r in reachable {
                if !self.heap.store.is_live(r) {
                    tally
                        .violations
                        .push(format!("post-sweep: reachable {r} was freed"));
                }
            }
        }
        // Refill what the sweep freed: next cycle's garbage.
        self.prev_garbage = None;
        let id = rec.enter(HEAP, "refill");
        for _ in 0..freed {
            let kind = draw_kind(&mut self.rng);
            let r = alloc(&mut self.heap, kind);
            self.link_garbage(r, kind);
        }
        rec.exit(id);
        tally.allocated += freed as u64;
    }
}

/// The workload.
pub struct CollectorCycle {
    plans: Vec<Plan>,
    cycles: u64,
}

impl CollectorCycle {
    /// Generates the four graphs' plans from `seed` and builds each
    /// heap once, so set-up time covers what a rep rebuilds.
    pub fn setup(seed: u64, scale: Scale) -> CollectorCycle {
        let objects = scale.of(OBJECTS).max(2_000);
        let plans: Vec<Plan> = PHASES
            .iter()
            .enumerate()
            .map(|(p, phase)| {
                let mut rng = Rng::new(seed, 20 + p as u64);
                let objects = (0..objects)
                    .map(|i| {
                        // The first object is a live array so the spine
                        // has room from the start.
                        if i == 0 {
                            (Kind::RefArr(64), true)
                        } else {
                            (draw_kind(&mut rng), rng.below(100) < phase.reachable_pct)
                        }
                    })
                    .collect();
                Plan {
                    objects,
                    seed: seed.wrapping_add(p as u64),
                }
            })
            .collect();
        for (plan, phase) in plans.iter().zip(&PHASES) {
            std::hint::black_box(World::build(plan, phase.style));
        }
        CollectorCycle {
            plans,
            cycles: scale.of(CYCLES).max(2),
        }
    }

    /// Runs every phase from a freshly built heap. Returns per phase
    /// the timed wall, the tally, the final heap's statistics and
    /// digest.
    fn run(&self, rec: &mut Recorder, verify: bool) -> Vec<PhaseRun> {
        PHASES
            .iter()
            .zip(&self.plans)
            .map(|(phase, plan)| {
                let mut world = World::build(plan, phase.style);
                let mut tally = Tally::default();
                let start = Instant::now();
                for _ in 0..self.cycles {
                    let id = rec.enter(BENCH_LAYER, phase.key);
                    world.cycle(rec, &mut tally, verify);
                    rec.exit(id);
                }
                let wall_s = start.elapsed().as_secs_f64();
                PhaseRun {
                    phase: *phase,
                    wall_s,
                    tally,
                    gc: world.heap.gc.stats,
                    heap: world.heap.stats,
                    digest: wbe_heap::debug::world_digest(&world.heap),
                }
            })
            .collect()
    }
}

struct PhaseRun {
    phase: Phase,
    wall_s: f64,
    tally: Tally,
    gc: wbe_heap::gc::GcStats,
    heap: wbe_heap::HeapStats,
    digest: u64,
}

impl PhaseRun {
    fn facts(&self, out: &mut Facts) {
        let t = &self.tally;
        for (k, v) in [
            ("marked", t.marked),
            ("swept_slots", t.swept_slots),
            ("freed", t.freed),
            ("allocated", t.allocated),
            ("barrier_calls", t.barrier_calls),
            ("peak_capacity", t.peak_capacity),
            (
                "remark_wu_max",
                t.remark_wu.iter().copied().max().unwrap_or(0),
            ),
            ("satb_logs", self.gc.satb_logs),
            ("dirty_marks", self.gc.dirty_marks),
            ("allocated_black", self.gc.allocated_black),
            ("digest", self.digest),
        ] {
            out.insert(format!("{}/{k}", self.phase.key), v);
        }
    }
}

impl Workload for CollectorCycle {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let runs = self.run(rec, false);
        let mut rep = Rep {
            attempted: self.cycles * PHASES.len() as u64,
            ..Rep::default()
        };
        for run in &runs {
            rep.wall_s += run.wall_s;
            rep.ops += run.tally.marked + run.tally.swept_slots;
            run.facts(&mut rep.facts);
        }
        rep
    }

    fn check(&mut self, facts: &Facts) -> Check {
        let mut check = Check::default();
        let runs = self.run(&mut Recorder::off(), true);
        let mut verified = Facts::new();
        for run in &runs {
            check.attempted += self.cycles;
            run.facts(&mut verified);
            check.failures.extend(
                run.tally
                    .violations
                    .iter()
                    .map(|v| format!("{}: {v}", run.phase.key)),
            );
            check
                .digests
                .insert(format!("{}/world", run.phase.key), run.digest);
            let t = &run.tally;
            check.rows.push(Row {
                name: run.phase.key.to_string(),
                values: vec![
                    ("marked", t.marked as f64),
                    ("swept_slots", t.swept_slots as f64),
                    ("freed", t.freed as f64),
                    ("peak_capacity", t.peak_capacity as f64),
                    ("remark_wu_max", percentile(&t.remark_wu, 100.0) as f64),
                ],
            });
        }
        if &verified != facts {
            check
                .failures
                .push("the verified pass and the timed reps counted differently".into());
        }
        let max = |k: &str| {
            PHASES
                .iter()
                .map(|p| facts.get(&format!("{}/{k}", p.key)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0) as f64
        };
        check.counts = vec![
            ("stw_pause_max_wu", max("remark_wu_max")),
            ("peak_heap_objects", max("peak_capacity")),
        ];
        check
    }

    fn layers(&mut self, rec: &mut Recorder, ctx: &LayerCtx) -> Layers {
        let (runs, _) = with_telemetry(|| self.run(rec, false));
        let mut out = Layers {
            traced_wall_s: runs.iter().map(|r| r.wall_s).sum(),
            ..Layers::default()
        };
        let sum = |f: fn(&PhaseRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        let ns = |layer: &str, name: &str| rec.total(layer, name).0 as f64;
        let marked = sum(|r| r.tally.marked);
        let pause_scans: u64 = runs
            .iter()
            .map(|r| r.tally.marked - r.gc.concurrent_scans)
            .sum();
        out.exact(
            "gc.initial_mark_ns_per_slot",
            ns(GC, "begin_marking") / sum(|r| r.tally.begin_slots),
        );
        out.exact(
            "gc.mark_ns_per_object",
            ns(GC, "mark_step") / (marked - pause_scans as f64).max(1.0),
        );
        let remarks = rec.durations(GC, "remark");
        out.values.push((
            "gc.remark_ns_p50",
            Summary::exact(percentile(&remarks, 50.0) as f64),
            Some(format!("n={}", remarks.len())),
        ));
        out.values.push((
            "gc.remark_ns_p99",
            Summary::exact(percentile(&remarks, 99.0) as f64),
            Some(format!("n={}", remarks.len())),
        ));
        out.exact(
            "gc.sweep_ns_per_slot",
            ns(GC, "Heap::sweep") / sum(|r| r.tally.swept_slots),
        );
        out.exact(
            "gc.barrier_log_ns",
            ns(GC, "barrier") / sum(|r| r.tally.barrier_calls).max(1.0),
        );
        for (metric, phase) in [
            ("gc.cycle_us.satb_live", "satb_live"),
            ("gc.cycle_us.satb_garbage", "satb_garbage"),
            ("gc.cycle_us.iu_live", "iu_live"),
            ("gc.cycle_us.iu_garbage", "iu_garbage"),
        ] {
            let us: Vec<f64> = rec
                .durations(BENCH_LAYER, phase)
                .iter()
                .map(|&d| d as f64 / 1e3)
                .collect();
            out.measured(metric, Summary::of(&us));
        }
        out.exact("gc.cycles", sum(|r| r.gc.cycles));
        out.exact("gc.concurrent_scans", sum(|r| r.gc.concurrent_scans));
        out.exact("gc.allocated_black", sum(|r| r.gc.allocated_black));
        out.exact("gc.swept", sum(|r| r.gc.swept));
        out.exact("gc.satb_logs", sum(|r| r.gc.satb_logs));
        out.exact("gc.dirty_marks", sum(|r| r.gc.dirty_marks));
        let remark_wu: Vec<u64> = runs
            .iter()
            .flat_map(|r| r.tally.remark_wu.iter().copied())
            .collect();
        let sweep_wu: Vec<u64> = runs
            .iter()
            .flat_map(|r| r.tally.sweep_wu.iter().copied())
            .collect();
        out.exact("gc.remark_wu_p50", percentile(&remark_wu, 50.0) as f64);
        out.exact("gc.remark_wu_p99", percentile(&remark_wu, 99.0) as f64);
        out.exact("gc.remark_wu_max", percentile(&remark_wu, 100.0) as f64);
        out.exact("gc.sweep_wu_p50", percentile(&sweep_wu, 50.0) as f64);
        out.exact("gc.sweep_wu_max", percentile(&sweep_wu, 100.0) as f64);
        out.exact(
            "heap.alloc_ns_per_object",
            (ns(HEAP, "refill") + ns(HEAP, "alloc_object")) / sum(|r| r.tally.allocated).max(1.0),
        );
        // Cycle-time allocations only; building the graphs is set-up.
        out.exact("heap.allocations", sum(|r| r.tally.allocated));
        out.exact("heap.words_allocated", sum(|r| r.heap.words_allocated));
        out.exact("heap.frees", sum(|r| r.heap.frees));
        out.exact(
            "heap.peak_capacity",
            runs.iter()
                .map(|r| r.tally.peak_capacity)
                .max()
                .unwrap_or(0) as f64,
        );
        out.exact(
            "telemetry.overhead_pct",
            100.0 * (out.traced_wall_s / ctx.untraced_wall_s - 1.0),
        );
        for run in &runs {
            out.rows.push(Row {
                name: format!("traced/{}", run.phase.key),
                values: vec![
                    ("wall_s", run.wall_s),
                    (
                        "ops_per_s",
                        (run.tally.marked + run.tally.swept_slots) as f64 / run.wall_s,
                    ),
                ],
            });
        }
        out
    }
}
