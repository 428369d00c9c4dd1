//! [`EngineKind`]: which of [`Interp`]'s two dispatch loops runs.
//!
//! * `Compiled` — the direct-threaded loop in [`crate::compiled`] over
//!   [`mod@crate::translate`]'s flat code. It stands in for the paper's
//!   JIT-compiled code, and it is the loop [`Interp::new`] and
//!   [`Interp::with_style`] run: every report, experiment, baseline
//!   and CLI run goes through it.
//! * `Classic` — the switch-dispatch loop in [`crate::machine`] over
//!   the IR. Observably equivalent (same traps, `BarrierStats`, GC
//!   schedule, world digests) and slower per instruction. It is kept
//!   as the reference the equivalence tests and the benchmark compare
//!   the compiled loop with, and only [`EngineKind::build`] reaches it.
//!
//! Both are the same machine — one heap, one store barrier, one set of
//! hooks — so the choice is a constructor argument and nothing else.

use crate::machine::Interp;

/// Which dispatch loop to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The classic switch-dispatch loop, the reference.
    Classic,
    /// The direct-threaded compiled loop, the one [`Interp::new`] runs.
    Compiled,
}

impl EngineKind {
    /// The engine's identifier string.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Classic => "classic",
            EngineKind::Compiled => "compiled",
        }
    }

    /// Constructs an interpreter over `program` that runs this loop.
    #[must_use]
    pub fn build<'p>(
        self,
        program: &'p wbe_ir::Program,
        config: crate::BarrierConfig,
        style: wbe_heap::gc::MarkStyle,
    ) -> Interp<'p> {
        let mut interp = Interp::with_style(program, config, style);
        interp.kind = self;
        interp
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
