#![warn(missing_docs)]

//! Stack interpreter over [`wbe_ir`] programs and the [`wbe_heap`]
//! managed heap, with SATB write-barrier modes, per-site barrier
//! statistics, and a cycle cost model.
//!
//! This crate plays the role of the paper's instrumented HotSpot client
//! JIT runtime: it executes programs, applies (or elides) SATB barriers
//! on every reference store, counts per-site barrier executions and
//! dynamic pre-null-ness (Table 1's "% Potential pre-null" column), and
//! charges abstract cycles so barrier modes can be compared end-to-end
//! (Table 2).
//!
//! There is one machine, [`Interp`], with two dispatch loops picked by
//! [`EngineKind`]: the compiled loop over [`mod@translate`]'s flat code
//! ([`compiled`]), which [`Interp::new`] runs, and the classic loop over
//! the IR ([`machine`]), kept as its reference. What a
//! reference-store site does — elide, log, dirty a card, take part in
//! a §4.3 rearrangement — is decided once per site by `translate` and
//! executed by one function both loops call.
//!
//! Two safety oracles run during interpretation:
//!
//! * every *elided* barrier site asserts that the overwritten value is
//!   null — a dynamic validation that the static elision was sound
//!   ([`Trap::UnsoundElision`] otherwise);
//! * the optional GC policy interleaves real SATB marking with
//!   execution, through the same marking-cycle driver
//!   ([`wbe_heap::cycle`]) as the scheduled worlds; with verification
//!   on, every cycle boundary is checked, and a failed post-mark check
//!   is healed or trapped, never swept.
//!
//! # Example
//!
//! ```
//! use wbe_ir::builder::ProgramBuilder;
//! use wbe_ir::Ty;
//! use wbe_interp::{BarrierConfig, BarrierMode, Interp, Value};
//!
//! let mut pb = ProgramBuilder::new();
//! let c = pb.class("Box");
//! let val = pb.field(c, "val", Ty::Int);
//! let m = pb.method("boxed", vec![Ty::Int], Some(Ty::Ref(c)), 0, |mb| {
//!     let x = mb.local(0);
//!     mb.new_object(c).dup().load(x).putfield(val).return_value();
//! });
//! let program = pb.finish();
//! let mut interp = Interp::new(&program, BarrierConfig::new(BarrierMode::Checked));
//! let r = interp.run(m, &[Value::Int(7)], 1_000)?.unwrap();
//! # let _ = r;
//! # Ok::<(), wbe_interp::Trap>(())
//! ```

pub mod barrier;
pub mod compiled;
pub mod cost;
pub mod engine;
pub mod machine;
pub mod oracle;
pub mod translate;

pub use barrier::{
    BarrierConfig, BarrierMode, BarrierStats, BarrierSummary, ElidedBarriers, ElisionKind,
    RearrangeRole, RearrangeSites, SiteStats, StoreKind,
};
pub use engine::EngineKind;
pub use machine::{GcPolicy, Interp, RunStats, Trap, PAUSE_EMERGENCY};
pub use oracle::{NecessityVerdict, OracleState, SiteNecessity};
pub use translate::{translate, CompiledMethod, Fuse, Op};
pub use wbe_heap::Value;
