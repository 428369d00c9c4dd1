#![warn(missing_docs)]

//! JVM-like stack bytecode IR for the write-barrier-elision reproduction.
//!
//! The CGO 2005 paper presents its analyses "over the well-known Java
//! Virtual Machine (JVM) bytecode instruction set". This crate is that
//! presentation vehicle made concrete: a small, verifiable, stack-based
//! bytecode with classes, reference/int fields, object and array
//! allocation (with explicit allocation-site identities), static fields,
//! and direct method invocation.
//!
//! The IR deliberately mirrors the instructions the paper's transfer
//! functions are defined over: `load`/`store`, `getfield`/`putfield`,
//! `getstatic`/`putstatic`, `aaload`/`aastore`, `newinstance`/`newarray`,
//! and `invoke`.
//!
//! [`Program::validate`] stands in for the JVM bytecode verifier: one
//! walk per method ([`check`]) checks ids, stack heights, returns and
//! slot types, the guarantees the paper's analysis takes from the
//! verifier.
//!
//! # Example
//!
//! Build the paper's §3.1 motivating `expand` method:
//!
//! ```
//! use wbe_ir::builder::ProgramBuilder;
//! use wbe_ir::{Ty, CmpOp};
//!
//! let mut pb = ProgramBuilder::new();
//! let t = pb.class("T");
//! let expand = pb.declare_method(
//!     "expand",
//!     vec![Ty::RefArray(t)],
//!     Some(Ty::RefArray(t)),
//! );
//! pb.define_method(expand, 3, |mb| {
//!     let ta = mb.local(0);
//!     let new_ta = mb.local(1);
//!     let i = mb.local(2);
//!     let head = mb.new_block();
//!     let body = mb.new_block();
//!     let exit = mb.new_block();
//!     // new_ta = new T[ta.length * 2]; i = 0;
//!     mb.load(ta).arraylength().iconst(2).mul().new_ref_array(t).store(new_ta);
//!     mb.iconst(0).store(i).goto_(head);
//!     // while (i < ta.length)
//!     mb.switch_to(head);
//!     mb.load(i).load(ta).arraylength().if_icmp(CmpOp::Lt, body, exit);
//!     // new_ta[i] = ta[i]; i++;
//!     mb.switch_to(body);
//!     mb.load(new_ta).load(i).load(ta).load(i).aaload().aastore();
//!     mb.iinc(i, 1).goto_(head);
//!     mb.switch_to(exit);
//!     mb.load(new_ta).return_value();
//! });
//! let program = pb.finish();
//! program.validate().expect("well-formed");
//! assert_eq!(program.method(expand).blocks.len(), 4);
//! ```

pub mod builder;
pub mod cfg;
pub mod check;
pub mod display;
pub mod ids;
pub mod insn;
pub mod method;
pub mod program;
pub mod text;

pub use check::{type_check_program, ValidateError};
pub use ids::{BlockId, ClassId, FieldId, LocalId, MethodId, SiteId, StaticId};
pub use insn::{CmpOp, Cond, Insn, Terminator};
pub use method::{Block, CodeLoc, InsnAddr, Method, MethodSig};
pub use program::{Class, FieldDecl, Program, StaticDecl, Ty};
pub use text::{parse_program, ParseError};

#[cfg(test)]
// `check`'s unit tests keep the paths they had when ids and heights
// (`validate`) and slot types (`typecheck`) were two checkers.
#[path = "check/typecheck_tests.rs"]
mod typecheck;
#[cfg(test)]
#[path = "check/validate_tests.rs"]
mod validate;
