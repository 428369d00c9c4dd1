//! One-time translation of IR methods into flat superinstruction code,
//! and the one place a store site's barrier is decided.
//!
//! [`crate::machine::Interp`] translates each method on its first
//! activation, whichever dispatch loop it runs. The compiled loop
//! (`crate::compiled`) executes the result; the classic loop keeps
//! decoding the IR and reads only the store-site verdicts off it.
//! Translation hoists out of execution:
//!
//! * **field offsets** are pre-resolved (`Program::field` runs once per
//!   site, not once per execution) — the dynamic class-tag guard stays,
//!   so shape-mismatch traps are unchanged;
//! * **jump targets** are pre-computed: blocks are linearized into one
//!   flat `Vec<Cell>` and `Goto`/`If` carry absolute program counters;
//! * **the barrier verdict** of every reference store: the elision
//!   set, the barrier mode, the marker style, and the §4.3
//!   rearrangement role are folded into a [`Fuse`] tag, once. This
//!   module is the only reader of `BarrierConfig::elided` and
//!   `BarrierConfig::rearrange`; `Interp::store_barrier` is the only
//!   code that acts on the tag.
//!
//! Translation bakes the *static* facts only. Everything dynamic — the
//! soundness check of an elided store, the recovery controller's
//! revocations, marking phase, class-tag guards — still executes per
//! store.

use std::collections::BTreeSet;

use wbe_heap::gc::MarkStyle;
use wbe_ir::{ClassId, Cond, Insn, InsnAddr, MethodId, Program, SiteId, Terminator};

use crate::barrier::{BarrierConfig, BarrierMode, ElisionKind, RearrangeRole, StoreKind};

/// The per-site fusion verdict for a reference store, decided once at
/// translation from the barrier configuration, the elision ledger, the
/// marker style, and the §4.3 rearrangement table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fuse {
    /// Incremental-update heap: unconditional card mark. `mark` is
    /// false only under `BarrierMode::None` (cost charged, no dirty).
    IuDirty {
        /// Whether the receiver is actually dirtied.
        mark: bool,
    },
    /// Elided store: no barrier, just the soundness check for the proof
    /// kind — unless a recovery controller is installed and has stopped
    /// trusting the site, which gives it the kept barrier back.
    Elided(ElisionKind),
    /// Kept barrier with the `Checked` mode inlined (marking check,
    /// then pre-read + SATB enqueue).
    KeptChecked,
    /// Kept barrier with the `AlwaysLog` mode inlined (unconditional
    /// pre-read + SATB enqueue).
    KeptAlways,
    /// Kept barrier under `BarrierMode::None`: record the execution,
    /// do no barrier work.
    KeptNone,
    /// §4.3 rearrangement member store: tracing-state check instead of
    /// a log (array stores only).
    RearrangeMember,
}

/// One direct-threaded superinstruction. Everything statically knowable
/// is pre-resolved into the variant payload; `Vec` indices replace the
/// classic loop's per-execution lookups.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Push an integer constant.
    Const(i64),
    /// Push null.
    ConstNull,
    /// Push a local.
    Load(u16),
    /// Pop into a local.
    StoreLocal(u16),
    /// Add a constant to an int local in place.
    IInc(u16, i64),
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top of stack under the next value.
    DupX1,
    /// Discard the top of stack.
    Discard,
    /// Swap the two top stack values.
    Swap,
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Integer division (traps on zero).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Integer negate.
    Neg,
    /// Field read with the pre-resolved offset and declaring-class tag
    /// guard.
    GetField {
        /// Declaring class tag (runtime shape guard).
        tag: u32,
        /// Pre-resolved payload offset.
        off: u32,
    },
    /// Int-field store (no barrier).
    PutFieldInt {
        /// Declaring class tag (runtime shape guard).
        tag: u32,
        /// Pre-resolved payload offset.
        off: u32,
    },
    /// Fused reference-field store + barrier superinstruction.
    PutFieldRef {
        /// Declaring class tag (runtime shape guard).
        tag: u32,
        /// Pre-resolved payload offset.
        off: u32,
        /// Index into the method's site table / flat stat accumulators.
        site: u32,
        /// The fused barrier verdict.
        fuse: Fuse,
    },
    /// Static read.
    GetStatic(u32),
    /// Int-static store (no SATB log).
    PutStaticInt(u32),
    /// Reference-static store (inline SATB log of the pre-value while
    /// marking; never an elision candidate).
    PutStaticRef(u32),
    /// Reference-array element read.
    AaLoad,
    /// Fused reference-array store + barrier superinstruction.
    AaStore {
        /// Index into the method's site table / flat stat accumulators.
        site: u32,
        /// The fused barrier verdict.
        fuse: Fuse,
    },
    /// Int-array element read.
    IaLoad,
    /// Int-array element store.
    IaStore,
    /// Array length.
    ArrayLength,
    /// Object allocation; `arena` is the pre-resolved stack-allocation
    /// verdict for the site.
    New {
        /// Allocated class.
        class: ClassId,
        /// Whether the site is frame-arena allocated.
        arena: bool,
    },
    /// Reference-array allocation.
    NewRefArray {
        /// Element class.
        class: ClassId,
    },
    /// Int-array allocation.
    NewIntArray,
    /// Call with the callee's arity pre-resolved.
    Invoke {
        /// Callee.
        callee: MethodId,
        /// Callee parameter count.
        nparams: u16,
    },
    /// Unconditional jump to a flat program counter.
    Goto {
        /// Absolute target pc.
        target: u32,
    },
    /// Conditional jump with both flat targets pre-computed.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken target pc.
        then_: u32,
        /// Fall-through target pc.
        else_: u32,
    },
    /// Return void.
    Return,
    /// Return the top of stack.
    ReturnValue,
}

/// A barrier site in translated code: the original address and store
/// kind, the key under which the site's flat counters are folded into
/// [`crate::BarrierStats`].
#[derive(Clone, Copy, Debug)]
pub struct SiteInfo {
    /// Original instruction address.
    pub addr: InsnAddr,
    /// Field or array store.
    pub kind: StoreKind,
}

/// One fetch unit of translated code: the superinstruction plus the
/// original address it traps under. Fused into one struct so the
/// dispatch loop pays a single bounds-checked load per instruction.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The superinstruction.
    pub op: Op,
    /// Original instruction address (trap attribution; for terminator
    /// ops this is one past the block's last instruction, matching the
    /// classic loop's addressing).
    pub addr: InsnAddr,
}

/// A translated method: flat superinstruction code plus the site and
/// block tables both dispatch loops index it by.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The flat superinstruction sequence with per-op trap addresses.
    pub cells: Vec<Cell>,
    /// Barrier sites in this method, indexed by the `site` slot baked
    /// into fused store ops.
    pub sites: Vec<SiteInfo>,
    /// First op pc of each block, indexed by block id: the cell for
    /// the instruction at `(block, index)` is `block_starts[block] +
    /// index`.
    pub block_starts: Vec<u32>,
}

fn kept(mode: BarrierMode) -> Fuse {
    match mode {
        BarrierMode::None => Fuse::KeptNone,
        BarrierMode::Checked => Fuse::KeptChecked,
        BarrierMode::AlwaysLog => Fuse::KeptAlways,
    }
}

/// The fusion verdict for an ordinary (non-rearrange) reference store:
/// marker style first (incremental update re-examines every modified
/// location, so elision never applies there), then the elision set,
/// then the barrier mode.
fn fuse_for(config: &BarrierConfig, style: MarkStyle, mid: MethodId, at: InsnAddr) -> Fuse {
    if style == MarkStyle::IncrementalUpdate {
        return Fuse::IuDirty {
            mark: config.mode != BarrierMode::None,
        };
    }
    match config.elided.kind(mid, at) {
        Some(kind) => Fuse::Elided(kind),
        None => kept(config.mode),
    }
}

/// Translates one method. Pure: reads the program and configuration,
/// produces flat code. Stack-allocation verdicts come from
/// `stack_sites`; barrier fusion from `config` + `style`.
pub fn translate(
    program: &Program,
    mid: MethodId,
    config: &BarrierConfig,
    style: MarkStyle,
    stack_sites: &BTreeSet<SiteId>,
) -> CompiledMethod {
    let m = program.method(mid);
    let mut block_starts = Vec::with_capacity(m.blocks.len());
    let mut len = 0u32;
    for b in &m.blocks {
        block_starts.push(len);
        len += b.insns.len() as u32 + 1;
    }
    let mut cm = CompiledMethod {
        cells: Vec::with_capacity(len as usize),
        sites: Vec::new(),
        block_starts,
    };
    for (bi, b) in m.blocks.iter().enumerate() {
        let bid = wbe_ir::BlockId(bi as u32);
        for (i, insn) in b.insns.iter().enumerate() {
            let at = InsnAddr::new(bid, i);
            let op = translate_insn(program, mid, at, insn, config, style, stack_sites, &mut cm);
            cm.cells.push(Cell { op, addr: at });
        }
        let term_at = InsnAddr::new(bid, b.insns.len());
        cm.cells.push(Cell {
            op: translate_term(&b.term, &cm.block_starts),
            addr: term_at,
        });
    }
    cm
}

#[allow(clippy::too_many_arguments)]
fn translate_insn(
    program: &Program,
    mid: MethodId,
    at: InsnAddr,
    insn: &Insn,
    config: &BarrierConfig,
    style: MarkStyle,
    stack_sites: &BTreeSet<SiteId>,
    cm: &mut CompiledMethod,
) -> Op {
    match *insn {
        Insn::Const(v) => Op::Const(v),
        Insn::ConstNull => Op::ConstNull,
        Insn::Load(l) => Op::Load(l.index() as u16),
        Insn::Store(l) => Op::StoreLocal(l.index() as u16),
        Insn::IInc(l, d) => Op::IInc(l.index() as u16, d),
        Insn::Dup => Op::Dup,
        Insn::DupX1 => Op::DupX1,
        Insn::Pop => Op::Discard,
        Insn::Swap => Op::Swap,
        Insn::Add => Op::Add,
        Insn::Sub => Op::Sub,
        Insn::Mul => Op::Mul,
        Insn::And => Op::And,
        Insn::Or => Op::Or,
        Insn::Xor => Op::Xor,
        Insn::Shl => Op::Shl,
        Insn::Shr => Op::Shr,
        Insn::Div => Op::Div,
        Insn::Rem => Op::Rem,
        Insn::Neg => Op::Neg,
        Insn::GetField(f) => {
            let fd = program.field(f);
            Op::GetField {
                tag: fd.class.0,
                off: fd.offset as u32,
            }
        }
        Insn::PutField(f) => {
            let fd = program.field(f);
            if fd.ty.is_ref_like() {
                let site = cm.sites.len() as u32;
                cm.sites.push(SiteInfo {
                    addr: at,
                    kind: StoreKind::Field,
                });
                Op::PutFieldRef {
                    tag: fd.class.0,
                    off: fd.offset as u32,
                    site,
                    fuse: fuse_for(config, style, mid, at),
                }
            } else {
                Op::PutFieldInt {
                    tag: fd.class.0,
                    off: fd.offset as u32,
                }
            }
        }
        Insn::GetStatic(s) => Op::GetStatic(s.index() as u32),
        Insn::PutStatic(s) => {
            if program.static_(s).ty.is_ref_like() {
                Op::PutStaticRef(s.index() as u32)
            } else {
                Op::PutStaticInt(s.index() as u32)
            }
        }
        Insn::AaLoad => Op::AaLoad,
        Insn::AaStore => {
            let site = cm.sites.len() as u32;
            cm.sites.push(SiteInfo {
                addr: at,
                kind: StoreKind::Array,
            });
            // §4.3 role takes precedence over elision; the First role
            // keeps the one true SATB log, which is the kept path for
            // the mode in force.
            let role = if style == MarkStyle::Satb {
                config.rearrange.role(mid, at)
            } else {
                None
            };
            let fuse = match role {
                Some(RearrangeRole::First) => kept(config.mode),
                Some(RearrangeRole::Member) => Fuse::RearrangeMember,
                None => fuse_for(config, style, mid, at),
            };
            Op::AaStore { site, fuse }
        }
        Insn::IaLoad => Op::IaLoad,
        Insn::IaStore => Op::IaStore,
        Insn::ArrayLength => Op::ArrayLength,
        Insn::New { class, site } => Op::New {
            class,
            arena: stack_sites.contains(&site),
        },
        Insn::NewRefArray { class, .. } => Op::NewRefArray { class },
        Insn::NewIntArray { .. } => Op::NewIntArray,
        Insn::Invoke(callee) => Op::Invoke {
            callee,
            nparams: program.method(callee).sig.params.len() as u16,
        },
    }
}

fn translate_term(term: &Terminator, block_starts: &[u32]) -> Op {
    match *term {
        Terminator::Goto(t) => Op::Goto {
            target: block_starts[t.index()],
        },
        Terminator::If { cond, then_, else_ } => Op::If {
            cond,
            then_: block_starts[then_.index()],
            else_: block_starts[else_.index()],
        },
        Terminator::Return => Op::Return,
        Terminator::ReturnValue => Op::ReturnValue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::ElidedBarriers;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    #[test]
    fn linearizes_blocks_and_precomputes_jump_targets() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("loop", vec![Ty::Int], Some(Ty::Int), 1, |mb| {
            let n = mb.local(0);
            let acc = mb.local(1);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.iconst(0).store(acc).goto_(head);
            mb.switch_to(head)
                .load(n)
                .if_zero(wbe_ir::CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(acc)
                .iconst(1)
                .add()
                .store(acc)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).load(acc).return_value();
        });
        let p = pb.finish();
        let cfg = BarrierConfig::new(BarrierMode::Checked);
        let cm = translate(&p, m, &cfg, MarkStyle::Satb, &BTreeSet::new());
        // Every block contributes its insns plus one terminator op.
        let method = p.method(m);
        let want: usize = method.blocks.iter().map(|b| b.insns.len() + 1).sum();
        assert_eq!(cm.cells.len(), want);
        assert_eq!(cm.block_starts[0], 0);
        // Jump targets are absolute pcs into the flat code.
        for cell in &cm.cells {
            match cell.op {
                Op::Goto { target } => {
                    assert!(cm.block_starts.contains(&target));
                }
                Op::If { then_, else_, .. } => {
                    assert!(cm.block_starts.contains(&then_));
                    assert!(cm.block_starts.contains(&else_));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn fuses_barrier_verdict_per_site() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let m = pb.method("link", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let a = mb.local(0);
            let b = mb.local(1);
            // Two identical stores; only the first is in the ledger.
            mb.load(a).load(b).putfield(next);
            mb.load(a).load(b).putfield(next);
            mb.return_();
        });
        let p = pb.finish();
        let mut elided = ElidedBarriers::new();
        elided.insert(m, InsnAddr::new(wbe_ir::BlockId(0), 2));
        let cfg = BarrierConfig::with_elision(BarrierMode::Checked, elided);
        let cm = translate(&p, m, &cfg, MarkStyle::Satb, &BTreeSet::new());
        let fuses: Vec<Fuse> = cm
            .cells
            .iter()
            .filter_map(|cell| match cell.op {
                Op::PutFieldRef { fuse, .. } => Some(fuse),
                _ => None,
            })
            .collect();
        assert_eq!(
            fuses,
            vec![Fuse::Elided(ElisionKind::PreNull), Fuse::KeptChecked],
            "the ledger verdict specializes each site independently"
        );
        assert_eq!(cm.sites.len(), 2, "each ref store gets a site slot");
        // Under an incremental-update heap the same sites fuse to the
        // card-mark path: elision never applies there.
        let cm_iu = translate(&p, m, &cfg, MarkStyle::IncrementalUpdate, &BTreeSet::new());
        for cell in &cm_iu.cells {
            if let Op::PutFieldRef { fuse, .. } = cell.op {
                assert_eq!(fuse, Fuse::IuDirty { mark: true });
            }
        }
    }

    #[test]
    fn int_fields_and_statics_skip_site_allocation() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Counter");
        let n = pb.field(c, "n", Ty::Int);
        let s = pb.static_field("total", Ty::Int);
        let m = pb.method("bump", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).iconst(1).putfield(n);
            mb.iconst(2).putstatic(s);
            mb.return_();
        });
        let p = pb.finish();
        let cfg = BarrierConfig::new(BarrierMode::Checked);
        let cm = translate(&p, m, &cfg, MarkStyle::Satb, &BTreeSet::new());
        assert!(cm.sites.is_empty(), "no reference stores, no sites");
        assert!(cm
            .cells
            .iter()
            .any(|c| matches!(c.op, Op::PutFieldInt { .. })));
        assert!(cm.cells.iter().any(|c| matches!(c.op, Op::PutStaticInt(_))));
    }
}
