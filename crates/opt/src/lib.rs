#![warn(missing_docs)]

//! Compilation pipeline for the write-barrier-elision reproduction:
//! size-budgeted inlining (§2.4/§4.4 of the paper), the elision
//! analyses, and the compiled-code-size model (Figure 3).
//!
//! # Example
//!
//! ```
//! use wbe_ir::builder::ProgramBuilder;
//! use wbe_ir::Ty;
//! use wbe_opt::{compile, OptMode, PipelineConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let c = pb.class("C");
//! let f = pb.field(c, "f", Ty::Ref(c));
//! pb.method("init", vec![Ty::Ref(c)], None, 1, |mb| {
//!     let arg = mb.local(0);
//!     let o = mb.local(1);
//!     mb.new_object(c).store(o);
//!     mb.load(o).load(arg).putfield(f);
//!     mb.return_();
//! });
//! let program = pb.finish();
//! let compiled = compile(&program, &PipelineConfig::new(OptMode::Full, 100));
//! assert_eq!(compiled.elided_sites().len(), 1);
//! ```

pub mod codesize;
pub mod fold;
pub mod inline;
pub mod pipeline;
pub mod rearrange;

pub use codesize::{insn_bytes, method_code_size, program_code_size, BARRIER_BYTES};
pub use fold::{fold_method, fold_program, FoldStats};
pub use inline::{inline_program, InlineConfig, InlineStats};
pub use pipeline::{compile, compile_with_dump, Compiled, OptMode, PipelineConfig};
pub use rearrange::{plan_program, RearrangePlan, ShiftGroup, ShiftRole};
