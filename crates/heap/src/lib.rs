#![warn(missing_docs)]

//! Managed heap substrate for the write-barrier-elision reproduction.
//!
//! The CGO 2005 paper's analyses exist to elide the mutator's
//! snapshot-at-the-beginning (SATB) write barriers. To exercise them
//! end-to-end we need a managed runtime; this crate provides it:
//!
//! * a heap of objects, reference arrays, and int arrays with a
//!   **zeroing allocator** — the property that makes initializing writes
//!   pre-null and therefore elidable;
//! * an **SATB concurrent marker** ([`gc`]): the mutator logs overwritten
//!   non-null references while marking is in progress; the collector
//!   marks the logical snapshot of the object graph taken when marking
//!   started;
//! * an **incremental-update marker** in the mostly-parallel style of
//!   Boehm–Demers–Shenker, as the comparison point: the mutator dirties
//!   modified objects and the collector re-examines them (including all
//!   objects allocated during marking) in its final stop-the-world
//!   remark — the pause SATB avoids;
//! * the **array tracing-state protocol** of the paper's §4.3
//!   (untraced/tracing/traced header bits plus a retrace list) used by
//!   the optimistic array-rearrangement optimization.
//!
//! Concurrency is *stepped*: the driver interleaves mutator work and
//! `mark_step` calls deterministically. One scheduled world,
//! [`sched::World`], runs mutators as logical threads through one
//! marking-cycle driver, [`cycle`] (per-thread SATB buffers, an epoch
//! every thread acknowledges before the snapshot, a stop-the-world
//! rendezvous), with one run loop and one pick, so every GC test and
//! schedule is reproducible; what its mutators do is a [`sched::Mix`] —
//! [`sched`]'s list operations, which [`mcheck`] explores, or
//! [`overload`]'s open-loop request serving under the pressure ladder.
//! `wbe-interp`'s interpreter is the same driver's one-thread host.
//!
//! # Example
//!
//! ```
//! use wbe_heap::{Heap, Value, FieldShape};
//! use wbe_heap::gc::MarkStyle;
//!
//! let mut heap = Heap::new(MarkStyle::Satb);
//! let a = heap.alloc_object(0, &[FieldShape::Ref, FieldShape::Int])?;
//! let b = heap.alloc_object(0, &[FieldShape::Ref, FieldShape::Int])?;
//! // a.f0 = b (no barrier needed: marking idle and old value is null)
//! heap.set_field(a, 0, Value::Ref(Some(b)))?;
//! heap.gc.begin_marking(&mut heap.store, &[a]);
//! while heap.gc.mark_step(&mut heap.store, 16) > 0 {}
//! let pause = heap.gc.remark(&mut heap.store, &[a]);
//! assert_eq!(pause.objects_scanned, 0); // everything traced concurrently
//! assert!(heap.gc.is_marked(b));
//! # Ok::<(), wbe_heap::HeapError>(())
//! ```

mod bitset;
pub mod cycle;
pub mod debug;
pub mod fault;
pub mod gc;
pub mod heap;
pub mod mcheck;
mod mix;
pub mod object;
pub mod overload;
pub mod pressure;
pub mod recover;
pub mod sched;
pub mod value;
pub mod verify;
pub mod witness;

pub use fault::{FaultConfig, FaultPlan, FaultStats};
pub use heap::{Heap, HeapError, HeapStats, Store};
pub use mcheck::{CheckerConfig, FailingSchedule, McheckReport, Replay};
pub use object::{HeapObject, ObjKind, TraceState};
pub use overload::{run_serve, ServeCounters, ServeOutcome, ServeScenario, ServeWorldConfig};
pub use pressure::{
    PressureConfig, PressureController, PressureLevel, PressureStats, PressureTransition,
};
pub use recover::{RecoveryAction, RecoveryController, RecoveryPolicy, RecoveryStats};
pub use sched::{Scenario, SchedConfig, SchedCounters, ScheduleOutcome, SchedulePolicy};
pub use value::{FieldShape, GcRef, Value};
pub use witness::{ClassWitness, WitnessTable};
