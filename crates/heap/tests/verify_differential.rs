//! Golden differential for the heap verifier.
//!
//! `verify_differential.golden` was written by this same driver running
//! against the verifier as it stood when `reachable_set` returned a
//! `BTreeSet<GcRef>` built by a `VecDeque` BFS and `graph_stats` kept a
//! B-tree of its own. Everything the verifier reports through the
//! public API is in the file — the members of the reachable set in the
//! order its by-value iterator yields them, its `len`, the three
//! violation lists as their `Display` strings in list order, and the
//! line `graph_stats` wrote (the function is gone; the line now comes
//! from the reachable set and the model BFS's depth) — for clean heaps
//! and for each corruption the audit exists to catch, at capacities on
//! both sides of a 64-slot word boundary. Byte equality therefore pins what a change of set
//! representation must keep: ascending-slot iteration, dead and
//! out-of-range roots and children ignored, duplicates counted once,
//! reference-integrity violations ahead of mark violations.
//!
//! Long lists are folded to their length, an FNV-1a digest of the whole
//! list and both ends, so the file stays readable and still pins every
//! byte.
//!
//! The B-tree BFS lives on below as the model of two property tests:
//! the reachable set's, and the cycle audit's, whose model is the
//! composition `post_mark` and `post_sweep` replaced — reference
//! integrity, the BFS's unmarked-reachable objects, and the full
//! post-sweep walk — on random heaps corrupted on both sides of the
//! sweep.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced next to the test binary's
//! scratch directory and names the file.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;

use proptest::prelude::*;

use wbe_heap::gc::MarkStyle;
use wbe_heap::verify::{
    post_mark, post_sweep, reachable_set, verify_post_mark, verify_post_sweep, verify_refs,
    Violation,
};
use wbe_heap::{FieldShape, GcRef, Heap, ObjKind, Value};

/// Field 1 is an integer, so reference slots are not contiguous.
const OBJ: [FieldShape; 3] = [FieldShape::Ref, FieldShape::Int, FieldShape::Ref];
/// Static 1 is an integer, so static indices and root positions differ.
const STATICS: [FieldShape; 4] = [
    FieldShape::Ref,
    FieldShape::Int,
    FieldShape::Ref,
    FieldShape::Ref,
];
/// Lists up to this many entries are written out in full.
const FULL: usize = 16;
/// Entries kept from each end of a longer list.
const ENDS: usize = 4;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The traversal `reachable_set` replaced, kept as the reference.
fn model_reachable(heap: &Heap, roots: &[GcRef]) -> BTreeSet<GcRef> {
    model_bfs(heap, roots).0
}

/// First-in first-out walk from `roots`: the reachable set and the
/// longest shortest-path distance from any root.
fn model_bfs(heap: &Heap, roots: &[GcRef]) -> (BTreeSet<GcRef>, usize) {
    let mut seen: BTreeSet<GcRef> = BTreeSet::new();
    let mut queue: VecDeque<(GcRef, usize)> = VecDeque::new();
    for &r in roots {
        if heap.store.is_live(r) && seen.insert(r) {
            queue.push_back((r, 0));
        }
    }
    let mut max_depth = 0;
    while let Some((r, d)) = queue.pop_front() {
        max_depth = max_depth.max(d);
        if let Ok(obj) = heap.store.get(r) {
            obj.for_each_ref(|child| {
                if heap.store.is_live(child) && seen.insert(child) {
                    queue.push_back((child, d + 1));
                }
            });
        }
    }
    (seen, max_depth)
}

/// One heap shape of the golden file.
struct Shape {
    name: &'static str,
    /// Slots allocated before anything is collected.
    slots: usize,
    /// Each reference slot is filled with probability `fill / 8`.
    fill: usize,
    /// Collect once and allocate a little into the freed slots before
    /// the audited cycle, so most of the capacity is free.
    sparse: bool,
}

const SHAPES: [Shape; 7] = [
    Shape {
        name: "one",
        slots: 1,
        fill: 8,
        sparse: false,
    },
    Shape {
        name: "w63",
        slots: 63,
        fill: 6,
        sparse: false,
    },
    Shape {
        name: "w64",
        slots: 64,
        fill: 6,
        sparse: false,
    },
    Shape {
        name: "w65",
        slots: 65,
        fill: 6,
        sparse: false,
    },
    Shape {
        name: "w129",
        slots: 129,
        fill: 5,
        sparse: false,
    },
    Shape {
        name: "w5003",
        slots: 5003,
        fill: 4,
        sparse: false,
    },
    Shape {
        name: "sparse",
        slots: 5000,
        fill: 2,
        sparse: true,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scenario {
    Clean,
    /// `Store::remove` of a slot a reachable object's field names.
    FreedUnderField,
    /// The same under a reachable array's element.
    FreedUnderElement,
    /// The same under a static.
    FreedUnderStatic,
    /// `Heap::chaos_clear_mark` between `remark` and `sweep`.
    ClearedMark,
    /// An object allocated (and rooted) after `remark`.
    AllocatedAfterRemark,
    /// The verifier's root list names a freed and an out-of-range slot.
    DeadRoot,
    /// The verifier's root list repeats itself.
    DuplicateRoot,
    /// A two-object cycle with a self-loop, rooted.
    Cycle,
}

const SCENARIOS: [Scenario; 9] = [
    Scenario::Clean,
    Scenario::FreedUnderField,
    Scenario::FreedUnderElement,
    Scenario::FreedUnderStatic,
    Scenario::ClearedMark,
    Scenario::AllocatedAfterRemark,
    Scenario::DeadRoot,
    Scenario::DuplicateRoot,
    Scenario::Cycle,
];

struct World {
    heap: Heap,
    rng: Rng,
    /// What the collector is given: the statics' referents, two random
    /// stack slots and the highest slot.
    roots: Vec<GcRef>,
}

impl World {
    fn build(shape: &Shape, seed: u64) -> World {
        let mut w = World {
            heap: Heap::new(MarkStyle::Satb),
            rng: Rng(seed),
            roots: Vec::new(),
        };
        w.heap.register_statics(&STATICS);
        let pool: Vec<GcRef> = (0..shape.slots).map(|_| w.alloc()).collect();
        for &from in &pool {
            w.wire(from, &pool, shape.fill);
        }
        for index in [0, 2, 3] {
            let target = pool[w.rng.below(pool.len())];
            w.heap
                .set_static(index, Value::from(target))
                .expect("static is a reference");
        }
        w.roots = w.heap.static_roots();
        for _ in 0..2 {
            let r = pool[w.rng.below(pool.len())];
            w.roots.push(r);
        }
        // The highest slot, so the set's last word is never empty.
        w.roots.push(pool[pool.len() - 1]);
        if shape.sparse {
            w.collect();
            let survivors: Vec<GcRef> = w.heap.store.iter_live().map(|(r, _)| r).collect();
            for _ in 0..shape.slots / 100 {
                let fresh = w.alloc();
                w.wire(fresh, &survivors, 4);
                let holder = survivors[w.rng.below(survivors.len())];
                w.wire(holder, &[fresh], 2);
            }
        }
        w
    }

    fn alloc(&mut self) -> GcRef {
        match self.rng.below(10) {
            0..=5 => self.heap.alloc_object(1, &OBJ),
            6..=8 => {
                let len = self.rng.below(7) as i64;
                self.heap.alloc_ref_array(2, len)
            }
            _ => self.heap.alloc_int_array(3),
        }
        .expect("no fault plan is installed")
    }

    /// Points reference slots of `from` at random members of `pool`.
    fn wire(&mut self, from: GcRef, pool: &[GcRef], fill: usize) {
        let (is_array, slots): (bool, Vec<usize>) =
            match &self.heap.store.get(from).expect("live").kind {
                // `OBJ`'s reference fields.
                ObjKind::Object(_) => (false, vec![0, 2]),
                ObjKind::RefArray(elems) => (true, (0..elems.len()).collect()),
                ObjKind::IntArray(_) => return,
            };
        for slot in slots {
            if self.rng.below(8) >= fill {
                continue;
            }
            let target = pool[self.rng.below(pool.len())];
            if is_array {
                self.heap.set_elem(from, slot as i64, Some(target))
            } else {
                self.heap.set_field(from, slot, Value::from(target))
            }
            .expect("slot in range");
        }
    }

    fn mark(&mut self) {
        let heap = &mut self.heap;
        heap.gc.begin_marking(&mut heap.store, &self.roots);
        while heap.gc.mark_step(&mut heap.store, 64) > 0 {}
        heap.gc.remark(&mut heap.store, &self.roots);
    }

    fn collect(&mut self) {
        self.mark();
        self.heap.sweep();
    }

    /// The first edge, in slot order, out of a reachable object (or
    /// array) into another object.
    fn first_edge(&self, from_array: bool) -> Option<(GcRef, GcRef)> {
        let reachable = model_reachable(&self.heap, &self.roots);
        reachable.iter().find_map(|&from| {
            let obj = self.heap.store.get(from).expect("reachable is live");
            if matches!(obj.kind, ObjKind::RefArray(_)) != from_array {
                return None;
            }
            let mut target = None;
            obj.for_each_ref(|t| {
                if target.is_none() && t != from {
                    target = Some(t);
                }
            });
            Some((from, target?))
        })
    }
}

/// `0-5,7,9-12`: a run is folded only while each member is its
/// predecessor plus one, so any other order shows.
fn fold_runs(members: &[GcRef]) -> Vec<String> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for r in members {
        match runs.last_mut() {
            Some((_, hi)) if hi.checked_add(1) == Some(r.0) => *hi = r.0,
            _ => runs.push((r.0, r.0)),
        }
    }
    runs.into_iter()
        .map(|(lo, hi)| {
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            }
        })
        .collect()
}

/// Writes `entries` under `label`, `sep` between them: all of them, or
/// the length, a digest of all of them and both ends.
fn list(out: &mut String, label: &str, entries: &[String], sep: &str) {
    let digest = fnv1a(entries.join("\n").as_bytes());
    write!(out, "  {label}: {} fnv={digest:016x}", entries.len()).expect("String");
    let shown = if entries.len() <= FULL {
        entries.join(sep)
    } else {
        let tail = &entries[entries.len() - ENDS..];
        [&entries[..ENDS], &["...".to_string()], tail]
            .concat()
            .join(sep)
    };
    if !entries.is_empty() {
        write!(out, "{sep}{shown}").expect("String");
    }
    writeln!(out).expect("String");
}

fn violations(out: &mut String, label: &str, found: Vec<Violation>) {
    let lines: Vec<String> = found.iter().map(|v| v.to_string()).collect();
    list(out, label, &lines, "\n    ");
}

/// Everything the verifier says about `heap` from `roots`.
fn stage(out: &mut String, name: &str, heap: &Heap, roots: &[GcRef]) {
    let root_names: Vec<String> = roots.iter().map(|r| r.to_string()).collect();
    writeln!(
        out,
        " {name}: capacity={} live={} roots={}",
        heap.store.capacity(),
        heap.store.live_count(),
        root_names.join(",")
    )
    .expect("String");
    let reachable = reachable_set(heap, roots);
    let len = reachable.len();
    let members: Vec<GcRef> = reachable.into_iter().collect();
    writeln!(out, "  reachable_set: len={len} yielded={}", members.len()).expect("String");
    list(out, "members", &fold_runs(&members), " ");
    violations(out, "verify_refs", verify_refs(heap));
    violations(out, "verify_post_mark", verify_post_mark(heap, roots));
    violations(out, "verify_post_sweep", verify_post_sweep(heap));
    // The line the deleted `debug::graph_stats` wrote, now from the
    // reachable set and the model's depth.
    let (_, max_depth) = model_bfs(heap, roots);
    writeln!(
        out,
        "  graph_stats: reachable={len} unreachable={} max_depth={max_depth}",
        heap.store.live_count() - len
    )
    .expect("String");
}

fn render_case(out: &mut String, shape: &Shape, scenario: Scenario, seed: u64) {
    let mut w = World::build(shape, seed);
    writeln!(out, "== heap={} scenario={scenario:?}", shape.name).expect("String");
    if scenario == Scenario::Cycle {
        let objects: Vec<GcRef> = w
            .heap
            .store
            .iter_live()
            .filter(|(_, o)| matches!(o.kind, ObjKind::Object(_)))
            .map(|(r, _)| r)
            .take(2)
            .collect();
        if let (Some(&x), Some(&y)) = (objects.first(), objects.last()) {
            w.heap.set_field(x, 0, Value::from(y)).expect("field 0");
            w.heap.set_field(y, 0, Value::from(x)).expect("field 0");
            w.heap.set_field(y, 2, Value::from(y)).expect("field 2");
            w.roots.push(x);
            writeln!(out, " sabotage: {x} <-> {y}, {y} -> {y}").expect("String");
        } else {
            writeln!(out, " sabotage: n/a").expect("String");
        }
    }
    // What the verifier is told the roots are; the collector always
    // gets the clean list.
    let mut roots = w.roots.clone();
    match scenario {
        Scenario::DeadRoot => {
            // Nothing references the freed slot, so the heap is clean.
            let freed = w.alloc();
            w.heap.store.remove(freed);
            let capacity = w.heap.store.capacity() as u32;
            roots.insert(0, GcRef(capacity + 3));
            roots.insert(roots.len() / 2, GcRef(capacity));
            roots.push(freed);
            writeln!(out, " sabotage: freed root {freed}").expect("String");
        }
        Scenario::DuplicateRoot => {
            let again = roots.clone();
            roots.push(again[0]);
            roots.extend(again);
        }
        _ => {}
    }
    // The other scenarios have changed nothing yet.
    if matches!(
        scenario,
        Scenario::Clean | Scenario::DeadRoot | Scenario::DuplicateRoot | Scenario::Cycle
    ) {
        stage(out, "idle", &w.heap, &roots);
    }

    w.mark();
    match scenario {
        Scenario::FreedUnderField | Scenario::FreedUnderElement => {
            match w.first_edge(scenario == Scenario::FreedUnderElement) {
                Some((from, target)) => {
                    w.heap.store.remove(target);
                    writeln!(out, " sabotage: freed {target} under {from}").expect("String");
                }
                None => writeln!(out, " sabotage: n/a").expect("String"),
            }
        }
        Scenario::FreedUnderStatic => {
            let (index, target) = w
                .heap
                .static_ref_slots()
                .next()
                .expect("three statics hold references");
            w.heap.store.remove(target);
            writeln!(out, " sabotage: freed {target} under static #{index}").expect("String");
        }
        Scenario::ClearedMark => {
            let victim = w.heap.chaos_clear_mark();
            writeln!(out, " sabotage: cleared mark of {victim:?}").expect("String");
        }
        Scenario::AllocatedAfterRemark => {
            let fresh = w.heap.alloc_object(1, &OBJ).expect("no fault plan");
            roots.push(fresh);
            writeln!(out, " sabotage: allocated {fresh}").expect("String");
        }
        _ => {}
    }
    stage(out, "post-mark", &w.heap, &roots);

    let snapshot = reachable_set(&w.heap, &roots);
    let freed = w.heap.sweep();
    let lost: Vec<String> = snapshot
        .into_iter()
        .filter(|&r| !w.heap.store.is_live(r))
        .map(|r| format!("snapshot-reachable {r} freed by sweep"))
        .collect();
    writeln!(out, " sweep: freed={freed}").expect("String");
    list(out, "lost", &lost, "\n    ");
    stage(out, "post-sweep", &w.heap, &roots);
}

fn render() -> String {
    let mut out = String::new();
    for (i, shape) in SHAPES.iter().enumerate() {
        for scenario in SCENARIOS {
            render_case(&mut out, shape, scenario, 0x2005 + i as u64);
        }
    }
    out
}

#[test]
fn verifier_matches_the_golden_file() {
    let golden = include_str!("verify_differential.golden");
    let actual = render();
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verify_differential.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "verifier output differs from verify_differential.golden at line {}; \
             this run's output is in {}",
            line + 1,
            path.display()
        );
    }
}

/// The cases reach what the golden file is meant to pin.
#[test]
fn cases_cover_every_violation_and_a_mostly_free_heap() {
    let golden = include_str!("verify_differential.golden");
    assert_eq!(
        golden.lines().filter(|l| l.starts_with("== ")).count(),
        SHAPES.len() * SCENARIOS.len()
    );
    for needle in [
        "references freed slot",
        "static #0 references freed slot",
        "unmarked after remark",
        "survived the sweep without a mark bit",
        "freed by sweep",
        "sabotage: freed root #",
        "max_depth=0",
    ] {
        assert!(golden.contains(needle), "golden never shows `{needle}`");
    }
    // Array elements and object fields both get a slot freed under
    // them, on every heap with more than one slot.
    let applied = |scenario: &str| {
        golden
            .split("== ")
            .filter(|case| case.contains(scenario) && case.contains("sabotage: freed #"))
            .count()
    };
    assert_eq!(applied("FreedUnderField"), SHAPES.len() - 1);
    assert_eq!(applied("FreedUnderElement"), SHAPES.len() - 1);
    // The sparse heap is mostly free slots when it is audited.
    let sparse = golden
        .split("== ")
        .find(|case| case.starts_with("heap=sparse scenario=Clean"))
        .expect("sparse case");
    let field = |key: &str| -> usize {
        sparse
            .split([' ', '\n'])
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{key} missing"))
    };
    assert!(field("live=") * 10 < field("capacity="));
}

/// A heap with dangling references and dead roots in it: `kinds` picks
/// each slot's payload, `edges` are `(from, slot, to)` stores applied
/// where they fit, `freed` slots are removed afterwards.
fn model_heap(
    style: MarkStyle,
    kinds: &[u8],
    edges: &[(usize, usize, usize)],
    freed: &[usize],
) -> Heap {
    let mut heap = Heap::new(style);
    let pool: Vec<GcRef> = kinds
        .iter()
        .map(|&k| {
            match k % 4 {
                0 | 1 => heap.alloc_object(1, &OBJ),
                2 => heap.alloc_ref_array(2, i64::from(k / 4 % 5)),
                _ => heap.alloc_int_array(2),
            }
            .expect("no fault plan is installed")
        })
        .collect();
    for &(from, slot, to) in edges {
        let (from, to) = (pool[from % pool.len()], pool[to % pool.len()]);
        // Stores that do not fit the receiver's shape are skipped.
        let _ = match &heap.store.get(from).expect("live").kind {
            ObjKind::Object(_) => heap.set_field(from, [0, 2][slot % 2], Value::from(to)),
            ObjKind::RefArray(_) => heap.set_elem(from, slot as i64, Some(to)),
            ObjKind::IntArray(_) => Ok(()),
        };
    }
    for &f in freed {
        heap.store.remove(pool[f % pool.len()]);
    }
    heap
}

proptest! {
    #[test]
    fn reachable_set_matches_the_btree_bfs(
        kinds in proptest::collection::vec(0u8..20, 1..200),
        edges in proptest::collection::vec((0usize..200, 0usize..5, 0usize..200), 0..400),
        freed in proptest::collection::vec(0usize..200, 0..12),
        roots in proptest::collection::vec(0u32..260, 0..8),
    ) {
        let heap = model_heap(MarkStyle::Satb, &kinds, &edges, &freed);
        let roots: Vec<GcRef> = roots.into_iter().map(GcRef).collect();
        let model = model_reachable(&heap, &roots);
        let set = reachable_set(&heap, &roots);
        prop_assert_eq!(set.len(), model.len());
        for slot in 0..heap.store.capacity() as u32 + 70 {
            prop_assert_eq!(set.contains(&GcRef(slot)), model.contains(&GcRef(slot)));
        }
        let members: Vec<GcRef> = set.into_iter().collect();
        let expected: Vec<GcRef> = model.iter().copied().collect();
        prop_assert_eq!(&members, &expected);
        // Nothing is marked on a heap that never ran a cycle, so the
        // post-mark audit names every reachable object, in set order,
        // after the reference-integrity findings.
        let refs = verify_refs(&heap);
        let post_mark = verify_post_mark(&heap, &roots);
        prop_assert_eq!(&post_mark[..refs.len()], &refs[..]);
        let unmarked: Vec<Violation> = expected
            .iter()
            .map(|&obj| Violation::UnmarkedReachable { obj })
            .collect();
        prop_assert_eq!(&post_mark[refs.len()..], &unmarked[..]);
    }
}

/// Reference integrity as a walk of its own: dangling fields in slot
/// order, then dangling statics.
fn model_refs(heap: &Heap) -> Vec<Violation> {
    let mut out = Vec::new();
    for (from, obj) in heap.store.iter_live() {
        obj.for_each_ref(|target| {
            if !heap.store.is_live(target) {
                out.push(Violation::DanglingField { from, target });
            }
        });
    }
    for (index, target) in heap.static_ref_slots() {
        if !heap.store.is_live(target) {
            out.push(Violation::DanglingStatic { index, target });
        }
    }
    out
}

/// Post-mark as it was composed before the audit learned to certify
/// itself: reference integrity, then every object the B-tree BFS
/// reaches that carries no mark bit, ascending.
fn model_post_mark(heap: &Heap, roots: &[GcRef]) -> Vec<Violation> {
    let mut out = model_refs(heap);
    out.extend(
        model_reachable(heap, roots)
            .into_iter()
            .filter(|&obj| !heap.gc.is_marked(obj))
            .map(|obj| Violation::UnmarkedReachable { obj }),
    );
    out
}

/// Post-sweep as the full walk: reference integrity, then every
/// survivor without a mark bit.
fn model_post_sweep(heap: &Heap) -> Vec<Violation> {
    let mut out = model_refs(heap);
    out.extend(
        heap.store
            .iter_live()
            .filter(|&(obj, _)| !heap.gc.is_marked(obj))
            .map(|(obj, _)| Violation::UnmarkedLive { obj }),
    );
    out
}

/// The first live object at or after `pool[at]`, wrapping, that `want`
/// accepts.
fn nth_live(heap: &Heap, pool: usize, at: usize, want: impl Fn(GcRef) -> bool) -> Option<GcRef> {
    (0..pool)
        .map(|i| GcRef(((at + i) % pool) as u32))
        .find(|&r| heap.store.is_live(r) && want(r))
}

/// Points reference slot `slot` of `from` at `to`, where the shape has
/// one; an int array and an empty array have none.
fn store_ref(heap: &mut Heap, from: GcRef, slot: usize, to: GcRef) {
    let elems = match &heap.store.get(from).expect("live").kind {
        ObjKind::Object(_) => None,
        ObjKind::RefArray(elems) if !elems.is_empty() => Some(elems.len()),
        _ => return,
    };
    match elems {
        None => heap.set_field(from, [0, 2][slot % 2], Value::from(to)),
        Some(len) => heap.set_elem(from, (slot % len) as i64, Some(to)),
    }
    .expect("slot in range");
}

/// The corruptions applied after `remark`, before post-mark. Codes past
/// the last arm change nothing, so most cases stay clean enough for the
/// audit's shortcuts to be taken.
fn corrupt_marked(
    heap: &mut Heap,
    pool: usize,
    told: &mut Vec<GcRef>,
    (code, a, b): (u8, usize, usize),
) {
    let at = |i: usize| GcRef((i % pool) as u32);
    match code {
        0 => heap.gc.clear_mark(at(a)),
        // Freed under whatever field, element or static names it.
        1 => heap.store.remove(at(a)),
        // Out of range; a freed root comes from code 1.
        2 => {
            let beyond = GcRef((heap.store.capacity() + a % 3) as u32);
            told.insert(b % (told.len() + 1), beyond);
        }
        3 if !told.is_empty() => told.push(told[a % told.len()]),
        // The collector marked what the audit is not told is rooted.
        4 if !told.is_empty() => {
            told.remove(a % told.len());
        }
        // A marked object, reachable or garbage, pointing at an
        // unmarked one: the closure fails whether or not it is reached.
        5 => {
            let from = nth_live(heap, pool, a, |r| heap.gc.is_marked(r));
            let to = nth_live(heap, pool, b, |r| !heap.gc.is_marked(r));
            if let (Some(from), Some(to)) = (from, to) {
                store_ref(heap, from, b, to);
            }
        }
        6 => heap
            .set_static(0, Value::from(at(a)))
            .expect("static 0 is a reference"),
        _ => {}
    }
}

/// The corruptions applied between post-mark and the sweep.
fn corrupt_before_sweep(heap: &mut Heap, pool: usize, (code, a, b): (u8, usize, usize)) {
    let at = |i: usize| GcRef((i % pool) as u32);
    match code {
        // The marks are rebuilt from other roots.
        0 => {
            let roots = [at(a), at(b)];
            heap.gc.begin_marking(&mut heap.store, &roots);
            heap.gc.remark(&mut heap.store, &roots);
        }
        1 => heap.gc.clear_mark(at(a)),
        _ => {}
    }
}

/// The corruptions applied after the sweep, before post-sweep.
fn corrupt_swept(heap: &mut Heap, pool: usize, (code, a, b): (u8, usize, usize)) {
    match code {
        0 => {
            let fresh = heap
                .alloc_object(1, &OBJ)
                .expect("no fault plan is installed");
            if let Some(holder) = nth_live(heap, pool, a, |r| r != fresh) {
                store_ref(heap, fresh, b, holder);
            }
        }
        1 => {
            if let Some(r) = nth_live(heap, pool, a, |_| true) {
                heap.gc.clear_mark(r);
            }
        }
        2 => {
            if let Some(r) = nth_live(heap, pool, a, |r| heap.gc.is_marked(r)) {
                heap.store.remove(r);
            }
        }
        _ => {}
    }
}

proptest! {
    /// The audit of one cycle, on both sides of its sweep, against the
    /// walks it replaced.
    #[test]
    fn cycle_audit_matches_the_exact_walks(
        style in 0u8..2,
        kinds in proptest::collection::vec(0u8..20, 1..120),
        edges in proptest::collection::vec((0usize..200, 0usize..5, 0usize..200), 0..300),
        statics in (0usize..240, 0usize..240, 0usize..240),
        roots in proptest::collection::vec(0usize..200, 0..6),
        marked in proptest::collection::vec((0u8..12, 0usize..200, 0usize..200), 0..4),
        before_sweep in proptest::collection::vec((0u8..6, 0usize..200, 0usize..200), 0..2),
        swept in proptest::collection::vec((0u8..8, 0usize..200, 0usize..200), 0..2),
    ) {
        let style = [MarkStyle::Satb, MarkStyle::IncrementalUpdate][usize::from(style)];
        let mut heap = model_heap(style, &kinds, &edges, &[]);
        let pool = kinds.len();
        heap.register_statics(&STATICS);
        for (index, slot) in [(0, statics.0), (2, statics.1), (3, statics.2)] {
            // Slots past the pool leave the static null.
            if slot < pool {
                heap.set_static(index, Value::from(GcRef(slot as u32))).expect("reference");
            }
        }
        let mut told: Vec<GcRef> = heap.static_roots();
        told.extend(roots.iter().map(|&i| GcRef((i % pool) as u32)));
        let collector_roots = told.clone();
        heap.gc.begin_marking(&mut heap.store, &collector_roots);
        while heap.gc.mark_step(&mut heap.store, 16) > 0 {}
        heap.gc.remark(&mut heap.store, &collector_roots);
        for &op in &marked {
            corrupt_marked(&mut heap, pool, &mut told, op);
        }

        let expected = model_post_mark(&heap, &told);
        let token = post_mark(&heap, &told);
        prop_assert_eq!(token.violations(), &expected[..]);
        prop_assert_eq!(verify_post_mark(&heap, &told), expected);

        for &op in &before_sweep {
            corrupt_before_sweep(&mut heap, pool, op);
        }
        heap.sweep();
        for &op in &swept {
            corrupt_swept(&mut heap, pool, op);
        }
        let expected = model_post_sweep(&heap);
        prop_assert_eq!(verify_refs(&heap), model_refs(&heap));
        prop_assert_eq!(post_sweep(&heap, &token), expected.clone());
        prop_assert_eq!(verify_post_sweep(&heap), expected);
    }
}
