//! [`EngineKind`]: which of [`Interp`]'s two dispatch loops runs.
//!
//! * `Classic` — the switch-dispatch loop in [`crate::machine`]. The
//!   reference semantics; every baseline, digest, and Table 1/2 row is
//!   produced by it, and its output is pinned byte-identical across
//!   PRs.
//! * `Compiled` — the direct-threaded loop in [`crate::compiled`] over
//!   [`mod@crate::translate`]'s flat code. Observably equivalent (same
//!   traps, `BarrierStats`, GC schedule, world digests), substantially
//!   faster per instruction.
//!
//! Both are the same machine — one heap, one store barrier, one set of
//! hooks — so an `--engine classic|compiled` flag is a constructor
//! argument and nothing else.

use crate::machine::Interp;

/// Which dispatch loop to run; parsed from `--engine`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The classic switch-dispatch loop (the default: all baselines and
    /// digests are pinned against it).
    #[default]
    Classic,
    /// The direct-threaded compiled loop.
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

    /// Parses `"classic"` / `"compiled"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "classic" => Some(EngineKind::Classic),
            "compiled" => Some(EngineKind::Compiled),
            _ => None,
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
