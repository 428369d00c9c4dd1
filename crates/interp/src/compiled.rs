//! The compiled dispatch loop: [`Interp`]'s second way of executing a
//! method, over the flat superinstruction code of [`mod@crate::translate`].
//!
//! It is a loop, not a machine: heap, GC driving, recovery, oracle,
//! code cache, statistics and the store barrier
//! (`Interp::store_barrier`) are the ones the classic loop in
//! [`crate::machine`] uses, so the two are observably identical — same
//! traps, same `BarrierStats`, same GC cycle and pause schedule, same
//! world digests. What changes is the per-instruction work: one flat
//! `Vec` index per op, pre-resolved offsets and jump targets, and the
//! store-site verdict as an operand of the op.
//!
//! **Frame-state localization**: the dispatch loop keeps the active
//! frame's program counter, operand stack, and locals in loop locals
//! (the vectors are `mem::swap`ped out of the `Frame`), so the hot path
//! never re-borrows the frame vector per instruction. The state is
//! swapped back in (`stash`) before every operation that can scan
//! frames for GC roots — allocation (recovery retries and the post-
//! allocation trigger), the deterministic GC poll, and the healing of
//! an unsound elided store — and on calls/returns, preserving the exact
//! root sets and safepoint frame contents of the classic loop.
//!
//! **Hot-loop telemetry discipline**: the dispatch loop below performs
//! no telemetry-registry calls at all — counters accumulate in plain
//! fields and flat per-site arrays, and the single `metrics_enabled()`
//! check lives in `publish_metrics` at run boundaries (the hoisted
//! "enabled" check). With telemetry disabled, a run leaves the registry
//! completely untouched; `tests/` pins that.
//!
//! **Safepoint/GC equivalence**: the loop counts `stats.insns` and
//! polls the deterministic GC policy at exactly the classic loop's
//! points (after every op, with the same `insns % step_interval`
//! schedule, plus the post-allocation trigger), so policy-driven
//! marking, pauses, and digests are bit-identical across loops.

use std::rc::Rc;

use wbe_heap::{GcRef, HeapError, ObjKind, Value};
use wbe_ir::{Cond, InsnAddr, MethodId};

use crate::machine::{Interp, Trap, Unsound};
use crate::translate::{Cell, CompiledMethod, Op};

/// Pop two ints, apply `f`, push the result — expanded in place so each
/// arithmetic opcode is a single dispatch-table jump.
macro_rules! binop {
    ($counts:expr, $cost:literal, $stack:expr, $mid:expr, $at:expr, $f:expr) => {{
        $counts.cycles += $cost;
        let at = $at;
        let b = pop_int($stack, $mid, at)?;
        let a = pop_int($stack, $mid, at)?;
        $stack.push(Value::Int($f(a, b)));
    }};
}

/// The active frame's execution state, held in loop locals. The `Frame`
/// at the top of `Interp::frames` holds placeholder vectors while this
/// is live; [`stash`] swaps the real state back before any slow path
/// that scans frames.
struct ActiveFrame {
    stack: Vec<Value>,
    locals: Vec<Value>,
}

/// The instruction and cycle counters, held in loop locals (registers)
/// instead of `RunStats` fields. [`flush_counts`] publishes them before
/// any slow path that reads or charges the shared counters (the GC-step
/// schedule consults `stats.insns`; pauses and recovery barriers add to
/// `stats.cycles`); [`reload_counts`] re-syncs after.
struct Counts {
    insns: u64,
    cycles: u64,
}

/// Publishes the localized counters into `RunStats`.
#[inline(always)]
fn flush_counts(interp: &mut Interp, c: &Counts) {
    interp.stats.insns = c.insns;
    interp.stats.cycles = c.cycles;
}

/// Re-reads the shared counters after a slow path may have charged
/// cycles (pauses, recovery barriers).
#[inline(always)]
fn reload_counts(interp: &Interp, c: &mut Counts) {
    c.insns = interp.stats.insns;
    c.cycles = interp.stats.cycles;
}

/// Writes the active frame state back into the top `Frame` (stack,
/// locals, and the advanced instruction pointer), so root scans and
/// safepoint pauses see exactly what the classic engine would.
#[inline(always)]
fn stash(interp: &mut Interp, af: &mut ActiveFrame, pc: usize) {
    let top = interp.frames.last_mut().expect("frame stack non-empty");
    std::mem::swap(&mut top.stack, &mut af.stack);
    std::mem::swap(&mut top.locals, &mut af.locals);
    top.ip = pc;
}

/// Takes the top `Frame`'s state into the loop locals, returning its
/// instruction pointer. Inverse of [`stash`].
#[inline(always)]
fn unstash(interp: &mut Interp, af: &mut ActiveFrame) -> usize {
    let top = interp.frames.last_mut().expect("frame stack non-empty");
    std::mem::swap(&mut top.stack, &mut af.stack);
    std::mem::swap(&mut top.locals, &mut af.locals);
    top.ip
}

impl Interp<'_> {
    /// The compiled loop's way out of an [`Unsound`] store: healing can
    /// pause, so the frame state and the counters go back first.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn heal_unsound_store(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        old: Option<GcRef>,
        site: u32,
        af: &mut ActiveFrame,
        pc: usize,
        counts: &mut Counts,
    ) -> Result<(), Trap> {
        stash(self, af, pc);
        flush_counts(self, counts);
        let r = self.unsound_elision(mid, at, old, site);
        reload_counts(self, counts);
        r?;
        unstash(self, af);
        Ok(())
    }

    /// Runs `method` through the compiled loop; [`Interp::run`]'s body
    /// for [`crate::EngineKind::Compiled`].
    pub(crate) fn run_compiled(
        &mut self,
        method: MethodId,
        args: &[Value],
        fuel: u64,
    ) -> Result<Option<Value>, Trap> {
        let base_depth = self.frames.len();
        self.push_frame(method, args);
        // The instruction/cycle counters live in registers for the
        // duration of the dispatch loop; every exit path (including
        // traps) funnels through this writeback, and the loop flushes
        // them before any slow path that consults the shared fields.
        let mut counts = Counts {
            insns: self.stats.insns,
            cycles: self.stats.cycles,
        };
        let result = self.dispatch(method, base_depth, fuel, &mut counts);
        flush_counts(self, &counts);
        result
    }

    /// The loop itself. Out of line on purpose: see the classic loop's
    /// `run_inner`.
    #[inline(never)]
    fn dispatch(
        &mut self,
        method: MethodId,
        base_depth: usize,
        mut fuel: u64,
        counts: &mut Counts,
    ) -> Result<Option<Value>, Trap> {
        let mut mid = method;
        let mut code: Rc<CompiledMethod> = self.code[method.index()].clone().expect("translated");
        // Take the entry frame's state into loop locals; the hot path
        // below never touches `frames` again except at calls, returns,
        // and stash points.
        let mut af = ActiveFrame {
            stack: Vec::new(),
            locals: Vec::new(),
        };
        let mut pc = unstash(self, &mut af);
        // Call-argument staging buffer, reused across every `Invoke`.
        let mut argbuf: Vec<Value> = Vec::new();
        // GC polling by countdown instead of a per-instruction policy
        // load + modulo: `until_poll` reaches 0 exactly at instruction
        // counts that are multiples of `step_interval` (the classic
        // engine's schedule). With no policy the counter just never
        // reaches 0 in any feasible run.
        let interval = self.gc_policy.map_or(0, |p| p.step_interval);
        let mut until_poll: u64 = if interval == 0 {
            u64::MAX
        } else {
            interval - (counts.insns % interval)
        };
        loop {
            if fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            // Batch: the number of instructions executable before the
            // next fuel trap or GC-poll boundary. Both budgets are
            // consumed up front and the instruction counter doubles as
            // the batch countdown, so the inner loop pays one counter
            // bump per instruction instead of a fuel check plus a poll
            // check. Early returns (traps, base-depth returns) simply
            // abandon the unused budget, which is unobservable. Slow
            // paths never advance `stats.insns`, so the reloaded
            // counter stays on course for `target`.
            let batch = fuel.min(until_poll);
            fuel -= batch;
            until_poll -= batch;
            let target = counts.insns + batch;
            while counts.insns < target {
                counts.insns += 1;

                let cur = pc;
                // SAFETY: every pc is in bounds by construction.
                // Translation emits one cell per instruction plus one
                // terminator per block; `Goto`/`If` targets are block
                // starts; fall-through (`cur + 1`) from a non-terminator
                // stays inside its block because every block ends with a
                // terminator (which never falls through); frame `ip`s
                // are stashed return addresses of `Invoke` cells (also
                // non-terminators) or 0, and retranslation after
                // `set_stack_sites` preserves code length. Debug builds
                // (the fuzzer's among them) check it per fetch.
                debug_assert!(cur < code.cells.len());
                let Cell { op, addr: at } = unsafe { *code.cells.get_unchecked(cur) };
                pc = cur + 1;

                // Each arm charges its cycle cost as an immediate
                // constant — the same per-variant value
                // `cost::insn_cost`/`term_cost` would produce (the
                // differential-equivalence suite pins `cycles` equality
                // against the classic engine).
                match op {
                    Op::Const(v) => {
                        counts.cycles += 1;
                        af.stack.push(Value::Int(v));
                    }
                    Op::ConstNull => {
                        counts.cycles += 1;
                        af.stack.push(Value::NULL);
                    }
                    Op::Load(l) => {
                        counts.cycles += 1;
                        let v = af.locals[l as usize];
                        af.stack.push(v);
                    }
                    Op::StoreLocal(l) => {
                        counts.cycles += 1;
                        let v = pop_any(&mut af.stack, mid, at)?;
                        af.locals[l as usize] = v;
                    }
                    Op::IInc(l, d) => {
                        counts.cycles += 1;
                        match &mut af.locals[l as usize] {
                            Value::Int(i) => *i = i.wrapping_add(d),
                            Value::Ref(_) => {
                                return Err(Trap::TypeMismatch {
                                    method: mid,
                                    at,
                                    expected: "int local",
                                })
                            }
                        }
                    }
                    Op::Dup => {
                        counts.cycles += 1;
                        let v = *af.stack.last().ok_or(Trap::TypeMismatch {
                            method: mid,
                            at,
                            expected: "non-empty stack",
                        })?;
                        af.stack.push(v);
                    }
                    Op::DupX1 => {
                        counts.cycles += 1;
                        let b = pop_any(&mut af.stack, mid, at)?;
                        let a = pop_any(&mut af.stack, mid, at)?;
                        af.stack.push(b);
                        af.stack.push(a);
                        af.stack.push(b);
                    }
                    Op::Discard => {
                        counts.cycles += 1;
                        pop_any(&mut af.stack, mid, at)?;
                    }
                    Op::Swap => {
                        counts.cycles += 1;
                        let b = pop_any(&mut af.stack, mid, at)?;
                        let a = pop_any(&mut af.stack, mid, at)?;
                        af.stack.push(b);
                        af.stack.push(a);
                    }
                    // Binary integer ops get one arm each so dispatch stays
                    // a single jump (no secondary match on the opcode).
                    Op::Add => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a
                        .wrapping_add(b)),
                    Op::Sub => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a
                        .wrapping_sub(b)),
                    Op::Mul => binop!(counts, 3, &mut af.stack, mid, at, |a: i64, b: i64| a
                        .wrapping_mul(b)),
                    Op::And => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a & b),
                    Op::Or => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a | b),
                    Op::Xor => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a ^ b),
                    Op::Shl => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a
                        .wrapping_shl(b as u32 & 63)),
                    Op::Shr => binop!(counts, 1, &mut af.stack, mid, at, |a: i64, b: i64| a
                        .wrapping_shr(b as u32 & 63)),
                    Op::Div => {
                        counts.cycles += 10;
                        let b = pop_int(&mut af.stack, mid, at)?;
                        let a = pop_int(&mut af.stack, mid, at)?;
                        if b == 0 {
                            return Err(Trap::DivisionByZero { method: mid, at });
                        }
                        af.stack.push(Value::Int(a.wrapping_div(b)));
                    }
                    Op::Rem => {
                        counts.cycles += 10;
                        let b = pop_int(&mut af.stack, mid, at)?;
                        let a = pop_int(&mut af.stack, mid, at)?;
                        if b == 0 {
                            return Err(Trap::DivisionByZero { method: mid, at });
                        }
                        af.stack.push(Value::Int(a.wrapping_rem(b)));
                    }
                    Op::Neg => {
                        counts.cycles += 1;
                        let a = pop_int(&mut af.stack, mid, at)?;
                        af.stack.push(Value::Int(a.wrapping_neg()));
                    }
                    Op::GetField { tag, off } => {
                        counts.cycles += 2;
                        let obj = pop_nonnull(&mut af.stack, mid, at)?;
                        // Single store lookup: the tag guard and the
                        // field read share the same object borrow (trap
                        // order matches the two-lookup classic path).
                        let o = self.heap.store.get(obj)?;
                        if o.class_tag != tag {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "receiver of the field's declaring class",
                            });
                        }
                        let v = match &o.kind {
                            ObjKind::Object(fields) => fields.get(off as usize).copied().ok_or(
                                HeapError::FieldOutOfRange {
                                    obj,
                                    offset: off as usize,
                                },
                            )?,
                            _ => return Err(HeapError::WrongKind(obj).into()),
                        };
                        af.stack.push(v);
                    }
                    Op::PutFieldInt { tag, off } => {
                        counts.cycles += 2;
                        let val = pop_any(&mut af.stack, mid, at)?;
                        let obj = pop_nonnull(&mut af.stack, mid, at)?;
                        let o = self.heap.store.get_mut(obj)?;
                        if o.class_tag != tag {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "receiver of the field's declaring class",
                            });
                        }
                        let Value::Int(_) = val else {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "int value for int field",
                            });
                        };
                        match &mut o.kind {
                            ObjKind::Object(fields) => {
                                let slot = fields.get_mut(off as usize).ok_or(
                                    HeapError::FieldOutOfRange {
                                        obj,
                                        offset: off as usize,
                                    },
                                )?;
                                *slot = val;
                            }
                            _ => return Err(HeapError::WrongKind(obj).into()),
                        }
                    }
                    Op::PutFieldRef {
                        tag,
                        off,
                        site,
                        fuse,
                    } => {
                        counts.cycles += 2;
                        let val = pop_any(&mut af.stack, mid, at)?;
                        let obj = pop_nonnull(&mut af.stack, mid, at)?;
                        // Tag guard and pre-value read share one lookup;
                        // the post-barrier write stays a checked
                        // `set_field` because healing an unsound store
                        // can pause (and in principle sweep), exactly
                        // like the classic loop's ordering.
                        let o = self.heap.store.get(obj)?;
                        if o.class_tag != tag {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "receiver of the field's declaring class",
                            });
                        }
                        let Value::Ref(new) = val else {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "reference value for reference field",
                            });
                        };
                        let old = match &o.kind {
                            ObjKind::Object(fields) => match fields
                                .get(off as usize)
                                .copied()
                                .ok_or(HeapError::FieldOutOfRange {
                                    obj,
                                    offset: off as usize,
                                })? {
                                Value::Ref(r) => r,
                                Value::Int(_) => None,
                            },
                            _ => return Err(HeapError::WrongKind(obj).into()),
                        };
                        match self.store_barrier(mid, at, obj, old, new, site, fuse) {
                            Ok(c) => counts.cycles += c,
                            Err(Unsound) => {
                                self.heal_unsound_store(mid, at, old, site, &mut af, pc, counts)?
                            }
                        }
                        self.heap.set_field(obj, off as usize, val)?;
                    }
                    Op::GetStatic(s) => {
                        counts.cycles += 2;
                        let v = self.heap.get_static(s as usize)?;
                        af.stack.push(v);
                    }
                    Op::PutStaticInt(s) => {
                        counts.cycles += 2;
                        let val = pop_any(&mut af.stack, mid, at)?;
                        self.heap.set_static(s as usize, val)?;
                    }
                    Op::PutStaticRef(s) => {
                        counts.cycles += 2;
                        let val = pop_any(&mut af.stack, mid, at)?;
                        // Inline SATB enqueue of the overwritten static;
                        // never an elision candidate (see the classic
                        // engine's PutStatic note).
                        if let Ok(Value::Ref(Some(old))) = self.heap.get_static(s as usize) {
                            if self.heap.gc.is_marking() {
                                self.heap.gc.satb_log(old);
                            }
                        }
                        self.heap.set_static(s as usize, val)?;
                    }
                    Op::AaLoad => {
                        counts.cycles += 3;
                        let idx = pop_int(&mut af.stack, mid, at)?;
                        let arr = pop_nonnull(&mut af.stack, mid, at)?;
                        let v = self.heap.get_elem(arr, idx)?;
                        af.stack.push(Value::Ref(v));
                    }
                    Op::AaStore { site, fuse } => {
                        counts.cycles += 3;
                        let val = pop_ref(&mut af.stack, mid, at)?;
                        let idx = pop_int(&mut af.stack, mid, at)?;
                        let arr = pop_nonnull(&mut af.stack, mid, at)?;
                        // Bounds check before the barrier, like the classic
                        // engine (a trapping store logs nothing).
                        let old = self.heap.get_elem(arr, idx)?;
                        match self.store_barrier(mid, at, arr, old, val, site, fuse) {
                            Ok(c) => counts.cycles += c,
                            Err(Unsound) => {
                                self.heal_unsound_store(mid, at, old, site, &mut af, pc, counts)?
                            }
                        }
                        self.heap.set_elem(arr, idx, val)?;
                    }
                    Op::IaLoad => {
                        counts.cycles += 3;
                        let idx = pop_int(&mut af.stack, mid, at)?;
                        let arr = pop_nonnull(&mut af.stack, mid, at)?;
                        let v = self.heap.get_int_elem(arr, idx)?;
                        af.stack.push(Value::Int(v));
                    }
                    Op::IaStore => {
                        counts.cycles += 3;
                        let val = pop_int(&mut af.stack, mid, at)?;
                        let idx = pop_int(&mut af.stack, mid, at)?;
                        let arr = pop_nonnull(&mut af.stack, mid, at)?;
                        self.heap.set_int_elem(arr, idx, val)?;
                    }
                    Op::ArrayLength => {
                        counts.cycles += 1;
                        let arr = pop_nonnull(&mut af.stack, mid, at)?;
                        let len = self.heap.array_len(arr)?;
                        af.stack.push(Value::Int(len));
                    }
                    Op::New { class, arena } => {
                        counts.cycles += 12;
                        let shapes = Rc::clone(&self.class_shapes[class.index()]);
                        // Allocation can pause (recovery retries, the post-
                        // allocation trigger): run it against the synced
                        // frame and counters so the pause sees the classic
                        // root set and schedule, and push the new object
                        // before driving GC so it is a root for any marking
                        // that starts.
                        stash(self, &mut af, pc);
                        flush_counts(self, counts);
                        let r =
                            self.alloc_with_recovery(mid, at, |h| h.alloc_object(class.0, &shapes));
                        reload_counts(self, counts);
                        let r = r?;
                        let top = self.frames.last_mut().expect("frame stack non-empty");
                        if arena {
                            top.owned.push(r);
                            self.stats.stack_allocated += 1;
                        }
                        let top = self.frames.last_mut().expect("frame stack non-empty");
                        top.stack.push(Value::from(r));
                        self.drive_gc_after_alloc();
                        pc = unstash(self, &mut af);
                    }
                    Op::NewRefArray { class } => {
                        counts.cycles += 12;
                        let len = pop_int(&mut af.stack, mid, at)?;
                        stash(self, &mut af, pc);
                        flush_counts(self, counts);
                        let r =
                            self.alloc_with_recovery(mid, at, |h| h.alloc_ref_array(class.0, len));
                        reload_counts(self, counts);
                        let r = r?;
                        self.frames
                            .last_mut()
                            .expect("frame stack non-empty")
                            .stack
                            .push(Value::from(r));
                        self.drive_gc_after_alloc();
                        pc = unstash(self, &mut af);
                    }
                    Op::NewIntArray => {
                        counts.cycles += 12;
                        let len = pop_int(&mut af.stack, mid, at)?;
                        stash(self, &mut af, pc);
                        flush_counts(self, counts);
                        let r = self.alloc_with_recovery(mid, at, |h| h.alloc_int_array(len));
                        reload_counts(self, counts);
                        let r = r?;
                        self.frames
                            .last_mut()
                            .expect("frame stack non-empty")
                            .stack
                            .push(Value::from(r));
                        self.drive_gc_after_alloc();
                        pc = unstash(self, &mut af);
                    }
                    Op::Invoke { callee, nparams } => {
                        counts.cycles += 5;
                        let n = nparams as usize;
                        if af.stack.len() < n {
                            return Err(Trap::TypeMismatch {
                                method: mid,
                                at,
                                expected: "enough stack operands for call",
                            });
                        }
                        // Arguments go through a buffer reused across
                        // calls (`split_off` would allocate per call);
                        // it must be copied out before `stash` swaps the
                        // caller's stack away.
                        argbuf.clear();
                        argbuf.extend_from_slice(&af.stack[af.stack.len() - n..]);
                        af.stack.truncate(af.stack.len() - n);
                        // Save the caller (return address = advanced pc),
                        // then take the callee frame's state.
                        stash(self, &mut af, pc);
                        self.push_frame(callee, &argbuf);
                        mid = callee;
                        code = self.code[callee.index()].clone().expect("translated");
                        pc = unstash(self, &mut af);
                    }
                    Op::Goto { target } => {
                        counts.cycles += 1;
                        pc = target as usize;
                    }
                    Op::If { cond, then_, else_ } => {
                        counts.cycles += 1;
                        let taken = match cond {
                            Cond::ICmp(cmp) => {
                                let b = pop_int(&mut af.stack, mid, at)?;
                                let a = pop_int(&mut af.stack, mid, at)?;
                                cmp.eval(a, b)
                            }
                            Cond::IZero(cmp) => {
                                let a = pop_int(&mut af.stack, mid, at)?;
                                cmp.eval(a, 0)
                            }
                            Cond::IsNull => pop_ref(&mut af.stack, mid, at)?.is_none(),
                            Cond::NonNull => pop_ref(&mut af.stack, mid, at)?.is_some(),
                            Cond::RefEq | Cond::RefNe => {
                                let b = pop_ref(&mut af.stack, mid, at)?;
                                let a = pop_ref(&mut af.stack, mid, at)?;
                                if matches!(cond, Cond::RefEq) {
                                    a == b
                                } else {
                                    a != b
                                }
                            }
                        };
                        pc = if taken {
                            then_ as usize
                        } else {
                            else_ as usize
                        };
                    }
                    Op::Return => {
                        counts.cycles += 1;
                        // The popped frame's real stack/locals live in `af`
                        // (the Frame holds placeholders); its arena is
                        // freed exactly as in the classic engine.
                        let frame = self.frames.pop().expect("frame stack non-empty");
                        self.free_frame_arena(frame);
                        if self.frames.len() == base_depth {
                            return Ok(None);
                        }
                        pc = unstash(self, &mut af);
                        mid = self.frames.last().expect("caller frame").method;
                        code = self.code[mid.index()].clone().expect("translated");
                    }
                    Op::ReturnValue => {
                        counts.cycles += 1;
                        let v = pop_any(&mut af.stack, mid, at)?;
                        let frame = self.frames.pop().expect("frame stack non-empty");
                        self.free_frame_arena(frame);
                        if self.frames.len() == base_depth {
                            return Ok(Some(v));
                        }
                        pc = unstash(self, &mut af);
                        af.stack.push(v);
                        mid = self.frames.last().expect("caller frame").method;
                        code = self.code[mid.index()].clone().expect("translated");
                    }
                }
            }

            // Deterministic GC poll, at exactly the classic engine's
            // cadence: the countdown fires exactly when `stats.insns`
            // is a multiple of the step interval.
            if until_poll == 0 {
                until_poll = if interval == 0 { u64::MAX } else { interval };
                if self.heap.gc.is_marking() {
                    stash(self, &mut af, pc);
                    flush_counts(self, counts);
                    let g = self.drive_gc_after_insn();
                    reload_counts(self, counts);
                    g?;
                    pc = unstash(self, &mut af);
                }
            }
        }
    }
}

#[inline(always)]
fn pop_any(stack: &mut Vec<Value>, mid: MethodId, at: InsnAddr) -> Result<Value, Trap> {
    stack.pop().ok_or(Trap::TypeMismatch {
        method: mid,
        at,
        expected: "non-empty stack",
    })
}

#[inline(always)]
fn pop_int(stack: &mut Vec<Value>, mid: MethodId, at: InsnAddr) -> Result<i64, Trap> {
    match pop_any(stack, mid, at)? {
        Value::Int(i) => Ok(i),
        Value::Ref(_) => Err(Trap::TypeMismatch {
            method: mid,
            at,
            expected: "int",
        }),
    }
}

#[inline(always)]
fn pop_ref(stack: &mut Vec<Value>, mid: MethodId, at: InsnAddr) -> Result<Option<GcRef>, Trap> {
    match pop_any(stack, mid, at)? {
        Value::Ref(r) => Ok(r),
        Value::Int(_) => Err(Trap::TypeMismatch {
            method: mid,
            at,
            expected: "reference",
        }),
    }
}

#[inline(always)]
fn pop_nonnull(stack: &mut Vec<Value>, mid: MethodId, at: InsnAddr) -> Result<GcRef, Trap> {
    pop_ref(stack, mid, at)?.ok_or(Trap::NullReceiver { method: mid, at })
}
