#![warn(missing_docs)]

//! Pre-null write-barrier elision analyses — the primary contribution of
//! *Compile-Time Concurrent Marking Write Barrier Removal* (CGO 2005).
//!
//! Snapshot-at-the-beginning (SATB) concurrent marking needs an
//! expensive mutator write barrier on every reference store: while
//! marking is in progress, the overwritten value must be logged if
//! non-null. A store that provably overwrites **null** needs no barrier.
//! This crate implements the paper's two static analyses that prove
//! pre-null-ness:
//!
//! 1. the **field analysis** (§2): a flow-sensitive, intra-procedural
//!    abstract interpretation tracking reference values, an abstract
//!    store, and per-program-point escapedness, with *two abstract
//!    references per allocation site* so stores to the most recently
//!    allocated object can use strong update;
//! 2. the **array analysis** (§3): symbolic integers, array lengths, and
//!    per-array *null ranges*, with a state merge that discovers integer
//!    components varying with a common stride across loop iterations —
//!    inferring initialization-loop invariants without identifying
//!    loops.
//!
//! The entry point is [`analyze_program`] (or [`analyze_method`]);
//! results list the store sites whose SATB barrier may be omitted.
//! Each method's fixed point is a [`MethodSolution`], solved once; the
//! elision result, the [`ledger`], the [`dump`] and the §6 clients are
//! all read off it ([`analyze_program_with`] for several at once).
//! [`nullsame`] adds the §4.3 "null-or-same" extension, a second domain
//! on the same engine: [`fixpoint`]'s one worklist driver solves both,
//! under one iteration cap and panic isolation, and one replay walk
//! takes every judgment ([`analyze_program_with`] with
//! [`Products::null_or_same`] solves both in one per-method pass).
//!
//! # Example
//!
//! The paper's motivating `expand` method — every array store in the
//! copy loop is proven initializing:
//!
//! ```
//! use wbe_ir::builder::ProgramBuilder;
//! use wbe_ir::{CmpOp, Ty};
//! use wbe_analysis::{analyze_method, AnalysisConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let t = pb.class("T");
//! let expand = pb.method("expand", vec![Ty::RefArray(t)], Some(Ty::RefArray(t)), 2, |mb| {
//!     let (ta, new_ta, i) = (mb.local(0), mb.local(1), mb.local(2));
//!     let head = mb.new_block();
//!     let body = mb.new_block();
//!     let exit = mb.new_block();
//!     mb.load(ta).arraylength().iconst(2).mul().new_ref_array(t).store(new_ta);
//!     mb.iconst(0).store(i).goto_(head);
//!     mb.switch_to(head);
//!     mb.load(i).load(ta).arraylength().if_icmp(CmpOp::Lt, body, exit);
//!     mb.switch_to(body);
//!     mb.load(new_ta).load(i).load(ta).load(i).aaload().aastore();
//!     mb.iinc(i, 1).goto_(head);
//!     mb.switch_to(exit);
//!     mb.load(new_ta).return_value();
//! });
//! let program = pb.finish();
//! let result = analyze_method(&program, program.method(expand), &AnalysisConfig::full());
//! assert_eq!(result.elided.len(), 1); // the copy-loop aastore
//! ```

pub mod bounds;
pub mod config;
pub mod dump;
pub mod fixpoint;
pub mod intval;
pub mod ledger;
pub mod nullsame;
pub mod range;
pub mod refs;
mod sigma;
pub mod stackalloc;
pub mod state;
pub mod transfer;
mod worklist;

pub use bounds::BoundsAnalysis;
pub use config::AnalysisConfig;
pub use fixpoint::{
    analyze_method, analyze_program, analyze_program_with, AnalysisOutcome, Analyzed,
    DegradeReason, MethodAnalysis, MethodSolution, Products, ProgramAnalysis,
};
pub use intval::{IntLat, IntVal, UnkId, VarId};
pub use ledger::{ElisionLedger, SiteRecord, Verdict};
pub use range::IntRange;
pub use refs::{Ref, RefSet};
pub use stackalloc::StackAllocAnalysis;
pub use state::{AbsState, AbsValue, FieldKey, MethodCtx};
pub use transfer::{Condition, Judgment, KeepCode};
