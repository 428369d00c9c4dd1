//! Golden differential for the collector's data structures.
//!
//! `gc_differential.golden` was first written by this same driver
//! running against the collector as it stood before the
//! mark/dirty/retrace bit sets replaced `Vec<bool>` and
//! `BTreeSet<GcRef>`; the `progress` field was added later, by a
//! collector whose every other field still matched that file.
//! Everything the driver can observe through the public API is in the
//! file, so byte equality pins the three order invariants: the grey
//! stack is LIFO with children shaded in field/element order, dirty and
//! retrace sets drain in ascending slot order, and sweep frees in
//! ascending slot order (hence the slot-reuse order of the allocations
//! that follow).
//!
//! Order 1 shows in the final heap only through incremental-update
//! floating garbage, which these schedules seldom create because their
//! marker finishes early in each cycle: with the children shaded in
//! reverse, every field but `progress` stays the same. `progress` is a
//! hash of the mark bits and the reference arrays' trace states after
//! each `mark_step`, and `iu_floating_garbage_follows_the_scan_order`
//! builds the one interleaving where the order decides what survives.
//! Reversing the children's order in `GcState::scan` or popping the grey
//! stack first-in first-out fails both.
//!
//! The driver is a legal mutator: it only touches objects in `held`,
//! which it passes as the root set to `begin_marking` and `remark`, and
//! every reference store carries the style's barrier.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced next to the test binary's
//! scratch directory and names the file.

use std::fmt::Write as _;

use wbe_heap::debug::world_digest;
use wbe_heap::gc::MarkStyle;
use wbe_heap::{FieldShape, GcRef, Heap, ObjKind, TraceState, Value};

const SCHEDULES: u64 = 32;
const CYCLES: usize = 3;
const INITIAL_OBJECTS: usize = 180;
const OPS_PER_CYCLE: usize = 260;
const IDLE_OPS: usize = 60;
const HELD_MAX: usize = 48;
const BUDGETS: [usize; 3] = [1, 7, 64];
const OBJ2: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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

struct Driver {
    heap: Heap,
    rng: Rng,
    /// The mutator's stack: the only objects it touches, and the root
    /// set of every cycle.
    held: Vec<GcRef>,
    /// Trace states seen by `push_retrace`, as counts of
    /// untraced/tracing/traced.
    retrace_states: [usize; 3],
}

impl Driver {
    fn new(seed: u64, style: MarkStyle) -> Driver {
        let mut d = Driver {
            heap: Heap::new(style),
            rng: Rng(seed),
            held: Vec::new(),
            retrace_states: [0; 3],
        };
        for _ in 0..INITIAL_OBJECTS {
            d.alloc();
            d.store();
        }
        d
    }

    fn hold(&mut self, r: GcRef) {
        if self.held.len() == HELD_MAX {
            let victim = self.rng.below(HELD_MAX);
            self.held.swap_remove(victim);
        }
        self.held.push(r);
    }

    fn pick(&mut self) -> GcRef {
        self.held[self.rng.below(self.held.len())]
    }

    fn alloc(&mut self) -> GcRef {
        let r = match self.rng.below(10) {
            0..=5 => self.heap.alloc_object(1, &OBJ2),
            6..=8 => {
                let len = 2 + self.rng.below(9) as i64;
                self.heap.alloc_ref_array(2, len)
            }
            _ => self.heap.alloc_int_array(4),
        }
        .expect("no fault plan is installed");
        self.hold(r);
        r
    }

    /// Slot count of `r`'s reference payload (0 for int arrays).
    fn ref_slots(&self, r: GcRef) -> usize {
        match &self.heap.store.get(r).expect("held objects are live").kind {
            ObjKind::Object(fields) => fields.len(),
            ObjKind::RefArray(elems) => elems.len(),
            ObjKind::IntArray(_) => 0,
        }
    }

    fn is_ref_array(&self, r: GcRef) -> bool {
        matches!(
            self.heap.store.get(r).expect("held objects are live").kind,
            ObjKind::RefArray(_)
        )
    }

    fn read(&self, r: GcRef, slot: usize) -> Option<GcRef> {
        if self.is_ref_array(r) {
            self.heap.get_elem(r, slot as i64).expect("slot in range")
        } else {
            match self.heap.get_field(r, slot).expect("slot in range") {
                Value::Ref(v) => v,
                Value::Int(_) => unreachable!("OBJ2 has reference fields only"),
            }
        }
    }

    /// `recv.slot = value` with the style's barrier, executed whether
    /// or not a cycle is running (the always-log mode).
    fn store(&mut self) {
        let recv = self.pick();
        let slots = self.ref_slots(recv);
        if slots == 0 {
            return;
        }
        let slot = self.rng.below(slots);
        let value = (self.rng.below(8) != 0).then(|| self.pick());
        match self.heap.gc.style() {
            MarkStyle::Satb => {
                if let Some(old) = self.read(recv, slot) {
                    self.heap.gc.satb_log(old);
                }
            }
            MarkStyle::IncrementalUpdate => self.heap.gc.dirty(recv),
        }
        if self.is_ref_array(recv) {
            self.heap.set_elem(recv, slot as i64, value)
        } else {
            self.heap.set_field(recv, slot, Value::Ref(value))
        }
        .expect("slot in range");
    }

    fn load(&mut self) {
        let recv = self.pick();
        let slots = self.ref_slots(recv);
        if slots == 0 {
            return;
        }
        let slot = self.rng.below(slots);
        if let Some(v) = self.read(recv, slot) {
            self.hold(v);
        }
    }

    fn forget(&mut self) {
        if self.held.len() > 4 {
            let victim = self.rng.below(self.held.len());
            self.held.swap_remove(victim);
        }
    }

    /// `r`'s trace state as an index into an untraced/tracing/traced
    /// tally.
    fn state_index(&self, r: GcRef) -> usize {
        match self.heap.gc.trace_state(&self.heap.store, r) {
            TraceState::Untraced => 0,
            TraceState::Tracing => 1,
            TraceState::Traced => 2,
        }
    }

    /// §4.3: schedule a held reference array for retracing, whatever
    /// its trace state.
    fn retrace(&mut self) {
        let start = self.rng.below(self.held.len());
        let arrays = (0..self.held.len())
            .map(|i| self.held[(start + i) % self.held.len()])
            .find(|&r| self.is_ref_array(r));
        if let Some(arr) = arrays {
            self.retrace_states[self.state_index(arr)] += 1;
            self.heap.gc.push_retrace(arr);
        }
    }

    fn mutate(&mut self) {
        match self.rng.below(16) {
            0..=2 => {
                self.alloc();
            }
            3..=9 => self.store(),
            10..=12 => self.load(),
            13..=14 => self.forget(),
            _ => self.retrace(),
        }
    }

    /// Folds which slots are marked and which reference arrays are
    /// tracing or traced into `h`: the marker's progress so far.
    fn fold_progress(&self, mut h: u64) -> u64 {
        for i in 0..self.heap.store.capacity() {
            let r = GcRef(i as u32);
            let array_state = if self.heap.store.is_live(r) && self.is_ref_array(r) {
                self.state_index(r) as u8
            } else {
                0
            };
            if self.heap.gc.is_marked(r) || array_state != 0 {
                h = fnv1a(h, (i as u32).to_le_bytes());
                h = fnv1a(h, [u8::from(self.heap.gc.is_marked(r)), array_state]);
            }
        }
        h
    }

    /// One cycle and the refill after it, rendered as one golden line.
    fn cycle(&mut self, out: &mut String) {
        for _ in 0..IDLE_OPS {
            self.mutate();
        }
        let heap = &mut self.heap;
        heap.gc.begin_marking(&mut heap.store, &self.held);
        let mut steps = 0usize;
        let mut progress = FNV_OFFSET;
        for op in 0..OPS_PER_CYCLE {
            if op % 3 == 0 {
                let budget = BUDGETS[self.rng.below(BUDGETS.len())];
                let heap = &mut self.heap;
                steps += heap.gc.mark_step(&mut heap.store, budget);
                progress = self.fold_progress(progress);
            } else {
                self.mutate();
            }
        }
        let (satb_backlog, dirty_backlog) =
            (self.heap.gc.satb_backlog(), self.heap.gc.dirty_backlog());
        let heap = &mut self.heap;
        let pause = heap.gc.remark(&mut heap.store, &self.held);
        let capacity = self.heap.store.capacity();
        let marked = (0..capacity)
            .filter(|&i| self.heap.gc.is_marked(GcRef(i as u32)))
            .count();
        let mut array_states = [0usize; 3];
        for (r, obj) in self.heap.store.iter_live() {
            if matches!(obj.kind, ObjKind::RefArray(_)) {
                array_states[self.state_index(r)] += 1;
            }
        }
        let freed = self.heap.sweep();
        for &r in &self.held {
            assert!(self.heap.store.is_live(r), "held {r} was swept");
        }
        // Slot-reuse order: where the next allocations land.
        let next: Vec<u32> = (0..16).map(|_| self.alloc().0).collect();
        for _ in 0..freed.saturating_sub(16) / 2 {
            self.alloc();
            self.store();
        }
        let s = self.heap.gc.stats;
        let slashed = |counts: &[usize]| {
            let parts: Vec<String> = counts.iter().map(|n| n.to_string()).collect();
            parts.join("/")
        };
        let next: Vec<String> = next.iter().map(|n| n.to_string()).collect();
        writeln!(
            out,
            "steps={steps} progress={progress:016x} backlog={satb_backlog}/{dirty_backlog} \
             pause={}/{}/{}/{}/{}/{} marked={marked} arrays={} \
             retrace_states={} capacity={capacity} freed={freed} \
             stats={}/{}/{}/{}/{}/{} heap={}/{}/{} next={} digest={:016x}",
            pause.objects_scanned,
            pause.refs_traced,
            pause.log_drained,
            pause.dirty_rescanned,
            pause.retraced,
            pause.roots_examined,
            slashed(&array_states),
            slashed(&self.retrace_states),
            s.cycles,
            s.satb_logs,
            s.dirty_marks,
            s.concurrent_scans,
            s.allocated_black,
            s.swept,
            self.heap.stats.allocations,
            self.heap.stats.words_allocated,
            self.heap.stats.frees,
            next.join(","),
            world_digest(&self.heap),
        )
        .expect("writing to a String");
    }
}

fn render() -> String {
    let mut out = String::new();
    for seed in 0..SCHEDULES {
        for (name, style) in [
            ("satb", MarkStyle::Satb),
            ("iu", MarkStyle::IncrementalUpdate),
        ] {
            let mut d = Driver::new(seed.wrapping_mul(0x2005) ^ 0xc60, style);
            for cycle in 0..CYCLES {
                write!(out, "seed={seed} style={name} cycle={cycle} ").expect("String");
                d.cycle(&mut out);
            }
        }
    }
    out
}

#[test]
fn collector_matches_the_golden_file() {
    let golden = include_str!("gc_differential.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gc_differential.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "collector output differs from gc_differential.golden at line {}; \
             this run's output is in {}",
            line + 1,
            path.display()
        );
    }
}

/// Order 1 decides which of two unlinked grandchildren an
/// incremental-update cycle keeps as floating garbage. `root` holds `a`
/// then `b`, and each of those holds one child. The first slice scans
/// `root`, shading `a` and then `b`; the second pops the top of the grey
/// stack, `b`, and shades `b`'s child. Both children are then unlinked:
/// `b`'s is already marked and floats, `a`'s is never reached and is
/// freed. Shading `b` first, or popping `a` first, swaps the two.
#[test]
fn iu_floating_garbage_follows_the_scan_order() {
    let mut heap = Heap::new(MarkStyle::IncrementalUpdate);
    let [root, a, b, a_child, b_child] = [(); 5].map(|()| {
        heap.alloc_object(1, &OBJ2)
            .expect("no fault plan is installed")
    });
    for (parent, field, child) in [(root, 0, a), (root, 1, b), (a, 0, a_child), (b, 0, b_child)] {
        heap.set_field(parent, field, Value::from(child))
            .expect("field in range");
    }
    heap.gc.begin_marking(&mut heap.store, &[root]);
    assert_eq!(heap.gc.mark_step(&mut heap.store, 1), 1, "scans root");
    assert_eq!(heap.gc.mark_step(&mut heap.store, 1), 1, "scans b");
    assert!(heap.gc.is_marked(b_child) && !heap.gc.is_marked(a_child));
    for parent in [a, b] {
        heap.gc.dirty(parent);
        heap.set_field(parent, 0, Value::NULL)
            .expect("field in range");
    }
    let pause = heap.gc.remark(&mut heap.store, &[root]);
    assert_eq!((pause.dirty_rescanned, pause.objects_scanned), (2, 4));
    assert_eq!(heap.sweep(), 1);
    assert!(heap.store.is_live(b_child), "shaded before it was unlinked");
    assert!(
        !heap.store.is_live(a_child),
        "unlinked before it was reached"
    );
}

/// The schedules reach what the golden file is meant to pin.
#[test]
fn schedules_cover_both_barriers_retraces_and_growth() {
    let golden = include_str!("gc_differential.golden");
    let field = |line: &str, key: &str| -> String {
        line.split(' ')
            .find_map(|kv| kv.strip_prefix(key))
            .unwrap_or_else(|| panic!("{key} missing in {line}"))
            .to_string()
    };
    assert_eq!(golden.lines().count(), SCHEDULES as usize * 2 * CYCLES);
    let counts = |key: &'static str| -> Vec<Vec<usize>> {
        golden
            .lines()
            .map(|l| {
                field(l, key)
                    .split('/')
                    .map(|n| n.parse().expect("counts are integers"))
                    .collect()
            })
            .collect()
    };
    let pauses = counts("pause=");
    assert!(pauses.iter().any(|p| p[2] > 0), "no SATB log drained");
    assert!(pauses.iter().any(|p| p[3] > 1), "no dirty set rescanned");
    assert!(pauses.iter().any(|p| p[4] > 1), "no retrace set drained");
    // `push_retrace` met arrays the marker had and had not reached.
    // (`Tracing` lasts only while one `scan` runs, so a stepped driver
    // never sees it; the unit tests in `gc.rs` cover that reading.)
    let retraced = counts("retrace_states=");
    assert!(retraced.iter().any(|c| c[0] > 0) && retraced.iter().any(|c| c[2] > 0));
    assert!(
        golden.lines().any(|l| field(l, "freed=") != "0"),
        "nothing was ever swept"
    );
    let capacities: Vec<usize> = golden
        .lines()
        .map(|l| field(l, "capacity=").parse().expect("integer"))
        .collect();
    assert!(capacities.iter().any(|c| c % 64 != 0));
    assert!(
        capacities.windows(2).any(|w| w[1] > w[0]),
        "heap never grew"
    );
}
