//! The machine: one [`Interp`] owns the heap, the GC driving, the
//! recovery and oracle hooks, the per-method code cache and
//! the statistics, and executes a program through one of two dispatch
//! loops — the compiled one in [`crate::compiled`], which runs the flat
//! cells of [`mod@crate::translate`] and is the one [`Interp::new`]
//! starts, and the classic one in this file, which decodes [`Insn`]s
//! block by block and is reached only through
//! [`EngineKind::build`](crate::EngineKind::build).
//!
//! Both loops execute a reference store's barrier through
//! `Interp::store_barrier`, handing it the site's translation-time
//! [`Fuse`] verdict: the compiled loop has it baked into its op, the
//! classic loop reads it off the cell that stands for the instruction.
//! Nothing else in the crate decides what a store site does.
//!
//! Collection is not the machine's own either: `Interp` is a one-thread
//! host of [`wbe_heap::cycle`]'s driver. The allocation trigger arms a
//! cycle, the `step_interval` poll slices it, and the driver's tail
//! remarks, verifies, heals and sweeps.

use std::fmt;
use std::rc::Rc;

use wbe_heap::cycle::{
    self, CheckFailed, CycleDriver, CycleEvent, CycleHost, CyclePhase, MarkerCtl, PostMarkPolicy,
};
use wbe_heap::gc::{MarkStyle, PauseReport};
use wbe_heap::recover::SiteKey;
use wbe_heap::{
    FaultPlan, FieldShape, GcRef, Heap, HeapError, RecoveryAction, RecoveryController,
    RecoveryPolicy, Value,
};
use wbe_ir::{BlockId, Cond, FieldId, Insn, InsnAddr, MethodId, Program, Terminator, Ty};

use crate::barrier::{BarrierConfig, BarrierMode, BarrierStats, ElisionKind, SiteStats, StoreKind};
use crate::cost;
use crate::engine::EngineKind;
use crate::oracle::{NecessityVerdict, OracleState};
use crate::translate::{translate, CompiledMethod, Fuse, Op};

/// Registry histogram key for emergency (allocation-failure) pause
/// sizes, in remark work units. Complements the per-phase keys under
/// `heap.gc.pause.*` exported by the collector itself.
pub const PAUSE_EMERGENCY: &str = "interp.gc.pause.emergency.work_units";

/// A runtime trap: the interpreter's analogue of a JVM exception. The
/// workloads are written not to trap; traps in tests indicate bugs (or
/// deliberately exercised error paths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Heap-level failure (bounds, dangling, kinds).
    Heap(HeapError),
    /// Null receiver for a field/array/invoke operation.
    NullReceiver {
        /// Method executing when the trap occurred.
        method: MethodId,
        /// Instruction address.
        at: InsnAddr,
    },
    /// An operand had the wrong runtime type.
    TypeMismatch {
        /// Method executing when the trap occurred.
        method: MethodId,
        /// Instruction address.
        at: InsnAddr,
        /// What was expected.
        expected: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero {
        /// Method executing when the trap occurred.
        method: MethodId,
        /// Instruction address.
        at: InsnAddr,
    },
    /// **Soundness oracle**: a store whose barrier was statically elided
    /// overwrote a non-null value at run time. The analysis must make
    /// this impossible; any occurrence is a reproduction-level bug.
    UnsoundElision {
        /// Method executing when the trap occurred.
        method: MethodId,
        /// Instruction address.
        at: InsnAddr,
    },
    /// Allocation kept failing after repeated emergency collection
    /// pauses; the mutator cannot make progress.
    OutOfMemory {
        /// Method executing when the trap occurred.
        method: MethodId,
        /// Instruction address.
        at: InsnAddr,
    },
    /// A heap-invariant check at a GC cycle boundary failed (see
    /// `wbe_heap::verify`). Like [`Trap::UnsoundElision`], this is a
    /// soundness oracle: it should be impossible unless a barrier was
    /// elided unsoundly or the collector itself is broken.
    InvariantViolation {
        /// Which check failed: `"post-mark"` or `"post-sweep"`.
        when: &'static str,
        /// Number of violations found.
        count: usize,
        /// Rendering of the first violation.
        first: String,
    },
    /// The fuel budget was exhausted.
    OutOfFuel,
    /// Wrong number of arguments passed to [`Interp::run`].
    BadArgCount {
        /// Invoked method.
        method: MethodId,
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Heap(e) => write!(f, "heap error: {e}"),
            Trap::NullReceiver { method, at } => {
                write!(f, "null receiver in {method} at {at}")
            }
            Trap::TypeMismatch {
                method,
                at,
                expected,
            } => write!(f, "type mismatch in {method} at {at}: expected {expected}"),
            Trap::DivisionByZero { method, at } => {
                write!(f, "division by zero in {method} at {at}")
            }
            Trap::UnsoundElision { method, at } => write!(
                f,
                "UNSOUND ELISION: non-null pre-value at elided barrier in {method} at {at}"
            ),
            Trap::OutOfMemory { method, at } => {
                write!(f, "out of memory in {method} at {at} (retries exhausted)")
            }
            Trap::InvariantViolation { when, count, first } => {
                let (when, count, first) = (*when, *count, first.clone());
                write!(f, "{}", CheckFailed { when, count, first })
            }
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::BadArgCount {
                method,
                expected,
                got,
            } => write!(f, "method {method} expects {expected} args, got {got}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<HeapError> for Trap {
    fn from(e: HeapError) -> Self {
        Trap::Heap(e)
    }
}

/// Policy for driving concurrent marking during execution, making GC
/// activity deterministic: marking starts every `alloc_trigger`
/// allocations, the marker gets `step_budget` units every
/// `step_interval` executed instructions, and the cycle finishes (remark
/// + sweep) when the collector runs dry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcPolicy {
    /// Allocations between the end of one cycle and the start of the
    /// next.
    pub alloc_trigger: u64,
    /// Executed instructions between marker steps.
    pub step_interval: u64,
    /// Marking work units per step.
    pub step_budget: usize,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            alloc_trigger: 1_000,
            step_interval: 64,
            step_budget: 8,
        }
    }
}

/// Statistics accumulated across [`Interp::run`] calls.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Instructions executed (terminators included).
    pub insns: u64,
    /// Total cycles charged, including barrier cycles.
    pub cycles: u64,
    /// Cycles charged to SATB barriers alone.
    pub barrier_cycles: u64,
    /// Executions of stores whose barrier was elided.
    pub elided_executions: u64,
    /// §4.3 rearrangement-member stores that skipped logging.
    pub rearrange_skipped: u64,
    /// Conservative whole-array retraces scheduled on interference.
    pub retraces_scheduled: u64,
    /// Per-site barrier counters.
    pub barrier: BarrierStats,
    /// Objects allocated in frame arenas (stack allocation).
    pub stack_allocated: u64,
    /// Frame-arena objects freed at frame pop.
    pub stack_freed: u64,
    /// Completed GC cycles (policy-driven).
    pub gc_cycles: u64,
    /// Emergency full pauses taken after an allocation failure.
    pub emergency_pauses: u64,
    /// Allocation retries after an emergency pause.
    pub alloc_retries: u64,
    /// Pause reports of completed cycles.
    pub pauses: Vec<PauseReport>,
}

/// Scalar snapshot of [`RunStats`] as of the last telemetry publish.
/// Publishing deltas at run boundaries keeps the interpreter loop free
/// of atomics: `RunStats` stays a plain struct, and the registry only
/// sees the difference since the previous snapshot.
#[derive(Clone, Copy, Debug, Default)]
struct PublishedRunStats {
    insns: u64,
    cycles: u64,
    barrier_cycles: u64,
    elided_executions: u64,
    rearrange_skipped: u64,
    retraces_scheduled: u64,
    stack_allocated: u64,
    stack_freed: u64,
    gc_cycles: u64,
    emergency_pauses: u64,
    alloc_retries: u64,
    fault_injected: u64,
    barrier_executions: u64,
    barrier_pre_null: u64,
}

pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) block: BlockId,
    /// Instruction index within `block` for the classic engine; the
    /// compiled engine reuses this slot as the flat program counter
    /// (and leaves `block` at its entry value).
    pub(crate) ip: usize,
    pub(crate) locals: Vec<Value>,
    pub(crate) stack: Vec<Value>,
    /// Objects allocated at stack-allocatable sites in this frame; freed
    /// when the frame pops (the §6 "escape analysis for stack
    /// allocation" client, validated dynamically: any use after free
    /// traps as a dangling reference).
    pub(crate) owned: Vec<GcRef>,
}

/// Pre-resolved declaration facts for one field, indexed by
/// [`FieldId`]: the declaring class tag (kept as the runtime shape
/// guard), the payload offset, and whether the field is
/// reference-like. Built once per interpreter so neither engine pays
/// the per-execution `Program::field` chase that
/// [`Interp::field_offset_checked`] used to do twice per `PutField`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FieldRes {
    pub(crate) class_tag: u32,
    pub(crate) offset: u32,
    pub(crate) is_ref: bool,
}

/// The outcome of [`Interp::store_barrier`] that only an elided site
/// can produce: the dynamic check of the static proof failed. Healing
/// can pause, so the caller makes its frame state visible to a root
/// scan before handing over to [`Interp::unsound_elision`].
pub(crate) struct Unsound;

/// The interpreter: owns a heap, executes methods of one program under a
/// barrier configuration, accumulating [`RunStats`].
pub struct Interp<'p> {
    pub(crate) program: &'p Program,
    /// The managed heap (public for tests and the harness).
    pub heap: Heap,
    config: BarrierConfig,
    /// Accumulated statistics.
    pub stats: RunStats,
    pub(crate) gc_policy: Option<GcPolicy>,
    /// Allocation sites whose objects live in the frame arena (read by
    /// translation, like `config`'s site sets).
    stack_sites: std::collections::BTreeSet<wbe_ir::SiteId>,
    /// Field shapes per class, shared so `New` can hold one across the
    /// allocation's `&mut self` without copying it.
    pub(crate) class_shapes: Vec<Rc<[FieldShape]>>,
    /// Per-field resolved declaration facts, indexed by `FieldId`.
    field_res: Vec<FieldRes>,
    allocs_since_cycle: u64,
    verify_invariants: bool,
    /// The marking-cycle driver, for one thread, with the recovery
    /// controller if one is installed.
    cycle: CycleDriver,
    /// What a cycle tail that stopped left for the caller of the driver.
    gc_trap: Option<Trap>,
    oracle: Option<OracleState>,
    pub(crate) frames: Vec<Frame>,
    published: PublishedRunStats,
    /// Which dispatch loop [`Interp::run`] enters.
    pub(crate) kind: EngineKind,
    /// Translated methods, indexed by `MethodId` and filled on first
    /// activation: the compiled loop's code, and for both loops the
    /// table of store-site verdicts.
    pub(crate) code: Vec<Option<Rc<CompiledMethod>>>,
    /// Per-method site counters, parallel to `code` and indexed by the
    /// `site` slot of the method's fused store cells. Folded into
    /// `stats.barrier` at run boundaries, so an executing store pays a
    /// `Vec` index where the public per-site report would cost a hash
    /// probe.
    site_acc: Vec<Vec<SiteStats>>,
}

impl fmt::Debug for Interp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("config", &self.config)
            .field("stats.insns", &self.stats.insns)
            .finish()
    }
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with an SATB-style heap that runs the
    /// compiled loop.
    pub fn new(program: &'p Program, config: BarrierConfig) -> Self {
        Self::with_style(program, config, MarkStyle::Satb)
    }

    /// Creates an interpreter with the given marker style that runs the
    /// compiled loop; [`EngineKind::build`] picks the loop.
    pub fn with_style(program: &'p Program, config: BarrierConfig, style: MarkStyle) -> Self {
        let mut heap = Heap::new(style);
        let static_shapes: Vec<FieldShape> =
            program.statics.iter().map(|s| shape_of(s.ty)).collect();
        heap.register_statics(&static_shapes);
        let class_shapes = program
            .classes
            .iter()
            .map(|c| {
                c.fields
                    .iter()
                    .map(|&f| shape_of(program.field(f).ty))
                    .collect()
            })
            .collect();
        let field_res = program
            .fields
            .iter()
            .map(|fd| FieldRes {
                class_tag: fd.class.0,
                offset: fd.offset as u32,
                is_ref: fd.ty.is_ref_like(),
            })
            .collect();
        Interp {
            program,
            heap,
            config,
            stats: RunStats::default(),
            gc_policy: None,
            stack_sites: std::collections::BTreeSet::new(),
            class_shapes,
            field_res,
            allocs_since_cycle: 0,
            verify_invariants: false,
            // The one thread arms only when the policy says so.
            cycle: CycleDriver::new(1, 0),
            gc_trap: None,
            oracle: None,
            frames: Vec::new(),
            published: PublishedRunStats::default(),
            kind: EngineKind::Compiled,
            code: vec![None; program.methods.len()],
            site_acc: vec![Vec::new(); program.methods.len()],
        }
    }

    /// Accumulated statistics. Per-site barrier counters are folded in
    /// at the end of every [`Interp::run`].
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The managed heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Enables policy-driven concurrent marking during execution.
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = Some(policy);
    }

    /// Installs a deterministic fault schedule (see [`wbe_heap::fault`]).
    /// The plan perturbs marking start/finish timing, SATB drain
    /// pressure, and allocation success; its stats remain readable
    /// afterwards via `self.heap.fault`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.heap.fault = Some(plan);
    }

    /// Enables heap-invariant verification (`wbe_heap::verify`) at every
    /// GC cycle boundary. A failed check surfaces as
    /// [`Trap::InvariantViolation`].
    pub fn set_verify_invariants(&mut self, on: bool) {
        self.verify_invariants = on;
    }

    /// Installs the self-healing recovery layer (see
    /// [`wbe_heap::recover`]). With a controller in place, an
    /// [`Trap::InvariantViolation`] or [`Trap::UnsoundElision`] first
    /// triggers barrier panic mode + a stop-the-world re-mark instead
    /// of killing the run; the original trap only fires after
    /// [`RecoveryPolicy::max_attempts`] consecutive failed recoveries.
    pub fn set_recovery(&mut self, policy: RecoveryPolicy) {
        self.cycle.recovery = Some(RecoveryController::new(policy));
    }

    /// The recovery controller, if one is installed — stats, panic
    /// state, and the per-site revocation table for the ledger join.
    pub fn recovery(&self) -> Option<&RecoveryController> {
        self.cycle.recovery.as_ref()
    }

    /// Enables (or disables) the barrier-necessity oracle (see
    /// [`crate::oracle`]). Enabling also installs the heap's runtime
    /// witness table, since the oracle's refutation report reads it.
    pub fn set_oracle(&mut self, on: bool) {
        if on {
            self.heap.enable_witnesses();
            if self.oracle.is_none() {
                self.oracle = Some(OracleState::new());
            }
        } else {
            self.oracle = None;
        }
    }

    /// The oracle state, if enabled — per-site necessity verdicts and
    /// the remark-audit counters.
    pub fn oracle(&self) -> Option<&OracleState> {
        self.oracle.as_ref()
    }

    /// Declares allocation sites whose objects may live in the frame
    /// arena (from `wbe_analysis::stackalloc`). Objects allocated at
    /// these sites are freed when their frame returns; an analysis error
    /// surfaces as a dangling-reference trap. Drops every translated
    /// method: the verdict is baked into `Op::New`.
    pub fn set_stack_sites(&mut self, sites: impl IntoIterator<Item = wbe_ir::SiteId>) {
        self.stack_sites = sites.into_iter().collect();
        self.code.fill(None);
    }

    /// The barrier configuration in force.
    pub fn config(&self) -> &BarrierConfig {
        &self.config
    }

    /// Publishes the delta of [`RunStats`] since the last publish into
    /// the global telemetry registry (and the heap's GC counters).
    /// Called automatically at the end of [`Interp::run`]; cheap enough
    /// to call again after manual GC driving.
    pub fn publish_metrics(&mut self) {
        if !wbe_telemetry::metrics_enabled() {
            return;
        }
        let (exec, pre_null) = self.stats.barrier.totals();
        let (s, p) = (&self.stats, &self.published);
        let add = |name: &str, delta: u64| wbe_telemetry::counter(name).add(delta);
        add("interp.insns", s.insns - p.insns);
        add("interp.cycles", s.cycles - p.cycles);
        add("interp.barrier.cycles", s.barrier_cycles - p.barrier_cycles);
        add("interp.barrier.executed", exec - p.barrier_executions);
        add("interp.barrier.pre_null", pre_null - p.barrier_pre_null);
        add(
            "interp.barrier.elided_executions",
            s.elided_executions - p.elided_executions,
        );
        add(
            "interp.barrier.rearrange_skipped",
            s.rearrange_skipped - p.rearrange_skipped,
        );
        add(
            "interp.retraces_scheduled",
            s.retraces_scheduled - p.retraces_scheduled,
        );
        add(
            "interp.stack_allocated",
            s.stack_allocated - p.stack_allocated,
        );
        add("interp.stack_freed", s.stack_freed - p.stack_freed);
        add("interp.gc.cycles", s.gc_cycles - p.gc_cycles);
        add(
            "interp.gc.emergency_pauses",
            s.emergency_pauses - p.emergency_pauses,
        );
        add("interp.gc.alloc_retries", s.alloc_retries - p.alloc_retries);
        let fault_injected = self
            .heap
            .fault
            .as_ref()
            .map_or(p.fault_injected, |plan| plan.stats.injected());
        add("interp.fault.injected", fault_injected - p.fault_injected);
        wbe_telemetry::gauge("interp.barrier.sites").set(s.barrier.site_count() as u64);
        self.published = PublishedRunStats {
            insns: s.insns,
            cycles: s.cycles,
            barrier_cycles: s.barrier_cycles,
            elided_executions: s.elided_executions,
            rearrange_skipped: s.rearrange_skipped,
            retraces_scheduled: s.retraces_scheduled,
            stack_allocated: s.stack_allocated,
            stack_freed: s.stack_freed,
            gc_cycles: s.gc_cycles,
            emergency_pauses: s.emergency_pauses,
            alloc_retries: s.alloc_retries,
            fault_injected,
            barrier_executions: exec,
            barrier_pre_null: pre_null,
        };
        self.heap.gc.publish_metrics();
        if let Some(rc) = self.cycle.recovery.as_mut() {
            rc.publish_metrics();
        }
    }

    /// The post-allocation trigger: arms a cycle once the policy's
    /// allocation count is due. The one thread is at a safepoint here,
    /// so the arm, its acknowledgement and the snapshot all happen now.
    /// It charges no cycles and cannot trap.
    pub(crate) fn drive_gc_after_alloc(&mut self) {
        let Some(policy) = self.gc_policy else {
            return;
        };
        self.allocs_since_cycle += 1;
        if self.heap.gc.is_marking() {
            return;
        }
        // Fault schedule: a *due* start may be deferred (re-rolled at the
        // next allocation), and an idle collector may be started early.
        // Both shift the SATB snapshot point relative to mutator stores.
        let due = self.allocs_since_cycle >= policy.alloc_trigger;
        let arm_now = match (due, self.heap.fault.as_mut()) {
            (true, Some(plan)) => !plan.defer_marking_start(),
            (true, None) => true,
            (false, Some(plan)) => plan.early_marking_start(),
            (false, None) => false,
        };
        if arm_now {
            let ctl = marker_ctl(policy);
            cycle::step(self, ctl);
            cycle::poll(self, 0, false);
            cycle::step(self, ctl);
        }
    }

    /// The marker's turn, every `step_interval` instructions while
    /// marking: one slice. A slice that finds nothing to mark stops the
    /// world, and the one thread parks at once, so the tail runs now.
    /// (For SATB that means the log is drained; for incremental update
    /// the remaining dirty set is exactly what the remark rescans.)
    pub(crate) fn drive_gc_after_insn(&mut self) -> Result<(), Trap> {
        let Some(policy) = self.gc_policy else {
            return Ok(());
        };
        if !self.heap.gc.is_marking() {
            return Ok(());
        }
        if policy.step_interval == 0 || !self.stats.insns.is_multiple_of(policy.step_interval) {
            return Ok(());
        }
        let ctl = marker_ctl(policy);
        cycle::step(self, ctl);
        if self.cycle.phase() == CyclePhase::Rendezvous {
            cycle::poll(self, 0, false);
            cycle::step(self, ctl);
        }
        self.gc_trap.take().map_or(Ok(()), Err)
    }

    /// Finishes the current cycle — or, from idle, runs a complete
    /// stop-the-world collection — through the driver's tail.
    fn force_stw(&mut self) -> Result<(), Trap> {
        cycle::force_stw(self);
        self.gc_trap.take().map_or(Ok(()), Err)
    }

    /// Allocates via `alloc`, recovering from injected
    /// [`HeapError::AllocationFailed`] with an emergency full pause and a
    /// bounded number of retries.
    pub(crate) fn alloc_with_recovery(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        mut alloc: impl FnMut(&mut Heap) -> Result<GcRef, HeapError>,
    ) -> Result<GcRef, Trap> {
        const MAX_RETRIES: u32 = 4;
        let mut attempt = 0;
        loop {
            match alloc(&mut self.heap) {
                Ok(r) => return Ok(r),
                Err(HeapError::AllocationFailed) if attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.stats.alloc_retries += 1;
                    self.stats.emergency_pauses += 1;
                    wbe_telemetry::event!("interp.gc.emergency_pause", "attempt {attempt}");
                    self.force_stw()?;
                    let work = self.stats.pauses.last().map_or(0, PauseReport::work_units);
                    wbe_telemetry::histogram(PAUSE_EMERGENCY).record(work as u64);
                }
                Err(HeapError::AllocationFailed) => {
                    return Err(Trap::OutOfMemory { method: mid, at })
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Runs `method` with `args`, bounded by `fuel` instructions.
    ///
    /// Returns the method's return value (`None` for void).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on runtime failure, including the
    /// [`Trap::UnsoundElision`] oracle and [`Trap::OutOfFuel`].
    pub fn run(
        &mut self,
        method: MethodId,
        args: &[Value],
        fuel: u64,
    ) -> Result<Option<Value>, Trap> {
        let m = self.program.method(method);
        if args.len() != m.sig.params.len() {
            return Err(Trap::BadArgCount {
                method,
                expected: m.sig.params.len(),
                got: args.len(),
            });
        }
        let span = wbe_telemetry::span!("interp.run", "{}", m.name);
        let result = match self.kind {
            EngineKind::Classic => self.run_inner(method, args, fuel),
            EngineKind::Compiled => self.run_compiled(method, args, fuel),
        };
        // On a trap, abandon the frame stack so the interpreter can be
        // reused.
        if result.is_err() {
            self.frames.clear();
        }
        drop(span);
        self.flush_site_stats();
        self.publish_metrics();
        result
    }

    /// Folds the flat per-site counters into `stats.barrier`, the
    /// public per-site report.
    fn flush_site_stats(&mut self) {
        for (i, accs) in self.site_acc.iter_mut().enumerate() {
            let Some(cm) = &self.code[i] else { continue };
            for (acc, info) in accs.iter_mut().zip(&cm.sites) {
                if acc.executions == 0 && acc.cycles == 0 {
                    continue;
                }
                self.stats.barrier.add_site(
                    MethodId(i as u32),
                    info.addr,
                    info.kind,
                    acc.executions,
                    acc.pre_null,
                    acc.cycles,
                );
                *acc = SiteStats::default();
            }
        }
    }

    /// Pushes an activation of `method`, translating it first if this
    /// is its first one.
    pub(crate) fn push_frame(&mut self, method: MethodId, args: &[Value]) {
        let i = method.index();
        if self.code[i].is_none() {
            let cm = translate(
                self.program,
                method,
                &self.config,
                self.heap.gc.style(),
                &self.stack_sites,
            );
            self.site_acc[i] = vec![SiteStats::default(); cm.sites.len()];
            self.code[i] = Some(Rc::new(cm));
        }
        let m = self.program.method(method);
        let mut locals = vec![Value::Int(0); m.num_locals as usize];
        locals[..args.len()].copy_from_slice(args);
        self.frames.push(Frame {
            method,
            block: BlockId(0),
            ip: 0,
            locals,
            stack: Vec::new(),
            owned: Vec::new(),
        });
    }

    /// The classic dispatch loop. Kept out of line, like the compiled
    /// loop's `dispatch`: merged into one function with it, each loop's
    /// register allocation suffers from the other's live state.
    #[inline(never)]
    fn run_inner(
        &mut self,
        method: MethodId,
        args: &[Value],
        mut fuel: u64,
    ) -> Result<Option<Value>, Trap> {
        let base_depth = self.frames.len();
        self.push_frame(method, args);
        loop {
            if fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            fuel -= 1;
            self.stats.insns += 1;

            let frame = self.frames.last().expect("frame stack non-empty");
            let mid = frame.method;
            let block = self.program.method(mid).block(frame.block);
            let at = InsnAddr::new(frame.block, frame.ip);

            if frame.ip < block.insns.len() {
                let insn = block.insns[frame.ip];
                self.stats.cycles += cost::insn_cost(&insn);
                self.exec_insn(insn, mid, at)?;
                // `exec_insn` may have pushed a callee frame; ip of the
                // current frame was already advanced inside.
            } else {
                self.stats.cycles += cost::term_cost();
                if let Some(ret) = self.exec_terminator(block.term, mid, at)? {
                    if self.frames.len() == base_depth {
                        return Ok(ret);
                    }
                    if let Some(v) = ret {
                        self.frames.last_mut().expect("caller frame").stack.push(v);
                    }
                }
            }
            self.drive_gc_after_insn()?;
        }
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("frame stack non-empty")
    }

    fn pop_any(&mut self, mid: MethodId, at: InsnAddr) -> Result<Value, Trap> {
        self.frame_mut().stack.pop().ok_or(Trap::TypeMismatch {
            method: mid,
            at,
            expected: "non-empty stack",
        })
    }

    fn pop_int(&mut self, mid: MethodId, at: InsnAddr) -> Result<i64, Trap> {
        match self.pop_any(mid, at)? {
            Value::Int(i) => Ok(i),
            Value::Ref(_) => Err(Trap::TypeMismatch {
                method: mid,
                at,
                expected: "int",
            }),
        }
    }

    fn pop_ref(&mut self, mid: MethodId, at: InsnAddr) -> Result<Option<GcRef>, Trap> {
        match self.pop_any(mid, at)? {
            Value::Ref(r) => Ok(r),
            Value::Int(_) => Err(Trap::TypeMismatch {
                method: mid,
                at,
                expected: "reference",
            }),
        }
    }

    fn pop_nonnull(&mut self, mid: MethodId, at: InsnAddr) -> Result<GcRef, Trap> {
        self.pop_ref(mid, at)?
            .ok_or(Trap::NullReceiver { method: mid, at })
    }

    fn push(&mut self, v: Value) {
        self.frame_mut().stack.push(v);
    }

    /// The barrier of one reference store into `receiver`, whose
    /// pre-value is `old`: the only place a site's [`Fuse`] verdict is
    /// acted on. Counts the execution at the site, does what the
    /// verdict says, and returns the barrier cycles it charged to
    /// `stats.barrier_cycles` so the calling loop can add them to its
    /// own cycle counter. [`Unsound`] is the one outcome that can
    /// pause; the store itself is the caller's, after this returns.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn store_barrier(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        receiver: GcRef,
        old: Option<GcRef>,
        new: Option<GcRef>,
        site: u32,
        fuse: Fuse,
    ) -> Result<u64, Unsound> {
        let pre_null = old.is_none();
        let cycles = match fuse {
            Fuse::Elided(proof) => {
                if self.cycle.recovery.is_some() && self.elision_gated(mid, at) {
                    // The static proof is no longer trusted: the site
                    // gets the barrier of the mode in force back.
                    self.restored_barrier(mid, at, kind, Some(receiver), old)
                } else {
                    // Soundness oracle: the one dynamic check an elided
                    // store keeps, per proof kind.
                    let holds = match proof {
                        ElisionKind::PreNull => pre_null,
                        ElisionKind::NullOrSame => pre_null || old == new,
                    };
                    if !holds {
                        self.bump_site(mid, site, false, 0);
                        return Err(Unsound);
                    }
                    self.stats.elided_executions += 1;
                    0
                }
            }
            Fuse::KeptChecked => {
                self.kept_barrier(BarrierMode::Checked, mid, at, kind, Some(receiver), old)
            }
            Fuse::KeptAlways => {
                self.kept_barrier(BarrierMode::AlwaysLog, mid, at, kind, Some(receiver), old)
            }
            Fuse::KeptNone => 0,
            // Card-marking barrier: cheap and unconditional.
            Fuse::IuDirty { mark } => {
                if mark {
                    self.heap.gc.dirty(receiver);
                }
                2
            }
            // §4.3 member store: no log; a tracing-state check (2
            // cycles, like a card mark) validates against the marker.
            Fuse::RearrangeMember => {
                self.stats.rearrange_skipped += 1;
                if self.heap.gc.is_marking()
                    && self.heap.gc.trace_state(&self.heap.store, receiver)
                        != wbe_heap::TraceState::Untraced
                {
                    self.heap.gc.push_retrace(receiver);
                    self.stats.retraces_scheduled += 1;
                }
                2
            }
        };
        self.stats.barrier_cycles += cycles;
        self.bump_site(mid, site, pre_null, cycles);
        Ok(cycles)
    }

    #[inline(always)]
    fn bump_site(&mut self, mid: MethodId, site: u32, pre_null: bool, cycles: u64) {
        let a = &mut self.site_acc[mid.index()][site as usize];
        a.executions += 1;
        a.pre_null += u64::from(pre_null);
        a.cycles += cycles;
    }

    /// A kept SATB barrier under `mode`: its cost, the necessity-oracle
    /// note, the log. Returns the cycles to charge. The kept [`Fuse`]
    /// arms pass their mode as a constant, so each is specialised; a
    /// revoked elision passes the mode in force. `receiver` is absent
    /// only when [`Interp::unsound_elision`] heals.
    #[inline(always)]
    fn kept_barrier(
        &mut self,
        mode: BarrierMode,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        receiver: Option<GcRef>,
        old: Option<GcRef>,
    ) -> u64 {
        let pre_null = old.is_none();
        let (cycles, log) = match mode {
            // No enqueue ever happens, so there is nothing to judge.
            BarrierMode::None => return 0,
            BarrierMode::Checked => {
                let marking = self.heap.gc.is_marking();
                (cost::checked_barrier_cost(marking, pre_null), marking)
            }
            BarrierMode::AlwaysLog => (cost::always_log_barrier_cost(pre_null), true),
        };
        if self.oracle.is_some() {
            self.oracle_note_kept(mid, at, kind, receiver, old);
        }
        if let (true, Some(o)) = (log, old) {
            self.heap.gc.satb_log(o);
        }
        cycles
    }

    /// The barrier an elided site gets back once its proof is not
    /// trusted: [`Interp::kept_barrier`] under the mode in force, out
    /// of line because no healthy run comes here.
    #[cold]
    fn restored_barrier(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        receiver: Option<GcRef>,
        old: Option<GcRef>,
    ) -> u64 {
        self.kept_barrier(self.config.mode, mid, at, kind, receiver, old)
    }

    /// Recovery consult for an elided site, reached only with a
    /// controller installed: true once the static proof is no longer
    /// trusted (barrier panic mode, or this site revoked). The
    /// revocation is recorded the first time a gated site executes.
    #[cold]
    fn elision_gated(&mut self, mid: MethodId, at: InsnAddr) -> bool {
        let site = site_key(mid, at);
        let Some(rc) = self.cycle.recovery.as_mut() else {
            return false;
        };
        if rc.elide_allowed(site) {
            return false;
        }
        if !rc.site_revoked(site) {
            let reason = format!("barrier panic mode: {}", rc.panic_reason());
            rc.revoke(site, &self.program.method(mid).name, &reason, "invariant");
        }
        true
    }

    /// The translated op that stands for the instruction at `at`: where
    /// the classic loop reads a site's translation-time verdict.
    fn op_at(&self, mid: MethodId, at: InsnAddr) -> Op {
        let cm = self.code[mid.index()]
            .as_ref()
            .expect("translated by push_frame");
        cm.cells[cm.block_starts[at.block.index()] as usize + at.index].op
    }

    /// The classic loop's way into [`Interp::store_barrier`].
    fn classic_store_barrier(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        receiver: GcRef,
        old: Option<GcRef>,
        new: Option<GcRef>,
    ) -> Result<(), Trap> {
        let (Op::PutFieldRef { site, fuse, .. } | Op::AaStore { site, fuse }) = self.op_at(mid, at)
        else {
            unreachable!("a reference store translates to a fused store op");
        };
        match self.store_barrier(mid, at, kind, receiver, old, new, site, fuse) {
            Ok(cycles) => {
                self.stats.cycles += cycles;
                Ok(())
            }
            Err(Unsound) => self.unsound_elision(mid, at, kind, old, site),
        }
    }

    /// An elided store's dynamic oracle failed: the static proof is
    /// wrong at run time. With recovery installed, revoke the site, run
    /// the barrier the store should have had, and heal the possibly
    /// corrupted mark state with a stop-the-world re-mark; without one
    /// (or once the consecutive-failure budget is exhausted) the
    /// original [`Trap::UnsoundElision`] fires. `site` is the store's
    /// slot in its method's site table.
    pub(crate) fn unsound_elision(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        old: Option<GcRef>,
        site: u32,
    ) -> Result<(), Trap> {
        let trap = Trap::UnsoundElision { method: mid, at };
        let Some(rc) = self.cycle.recovery.as_mut() else {
            return Err(trap);
        };
        let reason = trap.to_string();
        if cycle::enter_recovery(rc, &reason) == RecoveryAction::Trap {
            return Err(trap);
        }
        let name = &self.program.method(mid).name;
        rc.revoke(site_key(mid, at), name, &reason, "oracle");
        // Execute the barrier the elision skipped, then rebuild the
        // mark state with a full STW cycle (a violation inside it is
        // healed by the driver's tail against the same budget).
        let cycles = self.restored_barrier(mid, at, kind, None, old);
        self.stats.barrier_cycles += cycles;
        self.stats.cycles += cycles;
        self.site_acc[mid.index()][site as usize].cycles += cycles;
        self.force_stw()?;
        if let Some(rc) = self.cycle.recovery.as_mut() {
            rc.recovered();
            rc.publish_metrics();
        }
        Ok(())
    }

    /// Necessity-oracle hook for one kept-barrier execution (see
    /// [`crate::oracle`]), called by [`Interp::kept_barrier`]
    /// immediately before the enqueue when the oracle is enabled.
    fn oracle_note_kept(
        &mut self,
        mid: MethodId,
        at: InsnAddr,
        kind: StoreKind,
        receiver: Option<GcRef>,
        old: Option<GcRef>,
    ) {
        let verdict = if !self.heap.gc.is_marking() {
            NecessityVerdict::MarkingIdle
        } else {
            match old {
                None => NecessityVerdict::NullOld,
                Some(o) if self.heap.gc.is_marked(o) => NecessityVerdict::AlreadyMarked,
                Some(o) if self.oracle.as_ref().is_some_and(|x| x.is_pending(o)) => {
                    NecessityVerdict::Duplicate
                }
                Some(_) => NecessityVerdict::Necessary,
            }
        };
        let escaped =
            receiver.is_some_and(|r| self.heap.witness.as_ref().is_some_and(|w| w.is_escaped(r)));
        if verdict == NecessityVerdict::Necessary && wbe_telemetry::tracing_enabled() {
            wbe_telemetry::trace::event(
                "oracle.necessary",
                format!(
                    "{}@B{}[{}] old={}",
                    self.program.method(mid).name,
                    at.block.0,
                    at.index,
                    old.map_or(0, |o| o.0)
                ),
            );
        }
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.record(site_key(mid, at), kind, verdict, old, escaped);
        }
    }

    /// Resolves a field access against the pre-built [`FieldRes`]
    /// table. The declaration chase (`Program::field` → declaring
    /// class, offset) is done once at construction; only the dynamic
    /// half — the receiver's class-tag guard — runs per execution, so
    /// a shape mismatch still traps exactly as before.
    fn field_offset_checked(
        &self,
        obj: GcRef,
        field: FieldId,
        mid: MethodId,
        at: InsnAddr,
    ) -> Result<usize, Trap> {
        let fr = &self.field_res[field.index()];
        let tag = self.heap.store.get(obj)?.class_tag;
        if tag != fr.class_tag {
            return Err(Trap::TypeMismatch {
                method: mid,
                at,
                expected: "receiver of the field's declaring class",
            });
        }
        Ok(fr.offset as usize)
    }

    fn exec_insn(&mut self, insn: Insn, mid: MethodId, at: InsnAddr) -> Result<(), Trap> {
        // Advance ip first; Invoke pushes the callee frame after this.
        self.frame_mut().ip += 1;
        match insn {
            Insn::Const(v) => self.push(Value::Int(v)),
            Insn::ConstNull => self.push(Value::NULL),
            Insn::Load(l) => {
                let v = self.frame_mut().locals[l.index()];
                self.push(v);
            }
            Insn::Store(l) => {
                let v = self.pop_any(mid, at)?;
                self.frame_mut().locals[l.index()] = v;
            }
            Insn::IInc(l, d) => {
                let slot = &mut self.frame_mut().locals[l.index()];
                match slot {
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
            Insn::Dup => {
                let v = *self.frame_mut().stack.last().ok_or(Trap::TypeMismatch {
                    method: mid,
                    at,
                    expected: "non-empty stack",
                })?;
                self.push(v);
            }
            Insn::DupX1 => {
                let b = self.pop_any(mid, at)?;
                let a = self.pop_any(mid, at)?;
                self.push(b);
                self.push(a);
                self.push(b);
            }
            Insn::Pop => {
                self.pop_any(mid, at)?;
            }
            Insn::Swap => {
                let b = self.pop_any(mid, at)?;
                let a = self.pop_any(mid, at)?;
                self.push(b);
                self.push(a);
            }
            Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::And
            | Insn::Or
            | Insn::Xor
            | Insn::Shl
            | Insn::Shr => {
                let b = self.pop_int(mid, at)?;
                let a = self.pop_int(mid, at)?;
                let r = match insn {
                    Insn::Add => a.wrapping_add(b),
                    Insn::Sub => a.wrapping_sub(b),
                    Insn::Mul => a.wrapping_mul(b),
                    Insn::And => a & b,
                    Insn::Or => a | b,
                    Insn::Xor => a ^ b,
                    Insn::Shl => a.wrapping_shl(b as u32 & 63),
                    _ => a.wrapping_shr(b as u32 & 63),
                };
                self.push(Value::Int(r));
            }
            Insn::Div | Insn::Rem => {
                let b = self.pop_int(mid, at)?;
                let a = self.pop_int(mid, at)?;
                if b == 0 {
                    return Err(Trap::DivisionByZero { method: mid, at });
                }
                let r = if matches!(insn, Insn::Div) {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                self.push(Value::Int(r));
            }
            Insn::Neg => {
                let a = self.pop_int(mid, at)?;
                self.push(Value::Int(a.wrapping_neg()));
            }
            Insn::GetField(f) => {
                let obj = self.pop_nonnull(mid, at)?;
                let off = self.field_offset_checked(obj, f, mid, at)?;
                let v = self.heap.get_field(obj, off)?;
                self.push(v);
            }
            Insn::PutField(f) => {
                let val = self.pop_any(mid, at)?;
                let obj = self.pop_nonnull(mid, at)?;
                let off = self.field_offset_checked(obj, f, mid, at)?;
                if self.field_res[f.index()].is_ref {
                    let Value::Ref(new) = val else {
                        return Err(Trap::TypeMismatch {
                            method: mid,
                            at,
                            expected: "reference value for reference field",
                        });
                    };
                    let old = match self.heap.get_field(obj, off)? {
                        Value::Ref(r) => r,
                        Value::Int(_) => None,
                    };
                    self.classic_store_barrier(mid, at, StoreKind::Field, obj, old, new)?;
                } else {
                    let Value::Int(_) = val else {
                        return Err(Trap::TypeMismatch {
                            method: mid,
                            at,
                            expected: "int value for int field",
                        });
                    };
                }
                self.heap.set_field(obj, off, val)?;
            }
            Insn::GetStatic(s) => {
                let v = self.heap.get_static(s.index())?;
                self.push(v);
            }
            Insn::PutStatic(s) => {
                let val = self.pop_any(mid, at)?;
                // Static reference stores also execute SATB barriers in
                // the real system, but the analyses never eliminate them
                // (the overwritten static is rarely provably null), so we
                // do not instrument them as elision candidates.
                if self.program.static_(s).ty.is_ref_like() {
                    if let Ok(Value::Ref(Some(old))) = self.heap.get_static(s.index()) {
                        if self.heap.gc.is_marking() {
                            self.heap.gc.satb_log(old);
                        }
                    }
                }
                self.heap.set_static(s.index(), val)?;
            }
            Insn::AaLoad => {
                let idx = self.pop_int(mid, at)?;
                let arr = self.pop_nonnull(mid, at)?;
                let v = self.heap.get_elem(arr, idx)?;
                self.push(Value::Ref(v));
            }
            Insn::AaStore => {
                let val = self.pop_ref(mid, at)?;
                let idx = self.pop_int(mid, at)?;
                let arr = self.pop_nonnull(mid, at)?;
                // Bounds check before the barrier (a trapping store logs
                // nothing — the §3.6 overflow argument depends on this).
                let old = self.heap.get_elem(arr, idx)?;
                self.classic_store_barrier(mid, at, StoreKind::Array, arr, old, val)?;
                self.heap.set_elem(arr, idx, val)?;
            }
            Insn::IaLoad => {
                let idx = self.pop_int(mid, at)?;
                let arr = self.pop_nonnull(mid, at)?;
                let v = self.heap.get_int_elem(arr, idx)?;
                self.push(Value::Int(v));
            }
            Insn::IaStore => {
                let val = self.pop_int(mid, at)?;
                let idx = self.pop_int(mid, at)?;
                let arr = self.pop_nonnull(mid, at)?;
                self.heap.set_int_elem(arr, idx, val)?;
            }
            Insn::ArrayLength => {
                let arr = self.pop_nonnull(mid, at)?;
                let len = self.heap.array_len(arr)?;
                self.push(Value::Int(len));
            }
            Insn::New { class, .. } => {
                let shapes = Rc::clone(&self.class_shapes[class.index()]);
                let r = self.alloc_with_recovery(mid, at, |h| h.alloc_object(class.0, &shapes))?;
                let Op::New { arena, .. } = self.op_at(mid, at) else {
                    unreachable!("an allocation translates to an allocation op");
                };
                if arena {
                    self.frame_mut().owned.push(r);
                    self.stats.stack_allocated += 1;
                }
                self.push(Value::from(r));
                self.drive_gc_after_alloc();
            }
            Insn::NewRefArray { class, .. } => {
                let len = self.pop_int(mid, at)?;
                let r = self.alloc_with_recovery(mid, at, |h| h.alloc_ref_array(class.0, len))?;
                self.push(Value::from(r));
                self.drive_gc_after_alloc();
            }
            Insn::NewIntArray { .. } => {
                let len = self.pop_int(mid, at)?;
                let r = self.alloc_with_recovery(mid, at, |h| h.alloc_int_array(len))?;
                self.push(Value::from(r));
                self.drive_gc_after_alloc();
            }
            Insn::Invoke(callee) => {
                let nparams = self.program.method(callee).sig.params.len();
                let frame = self.frame_mut();
                if frame.stack.len() < nparams {
                    return Err(Trap::TypeMismatch {
                        method: mid,
                        at,
                        expected: "enough stack operands for call",
                    });
                }
                let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - nparams);
                self.push_frame(callee, &args);
            }
        }
        Ok(())
    }

    /// Executes a terminator. Returns `Some(ret)` when a frame was
    /// popped (a return), `None` otherwise.
    #[allow(clippy::type_complexity)]
    fn exec_terminator(
        &mut self,
        term: Terminator,
        mid: MethodId,
        at: InsnAddr,
    ) -> Result<Option<Option<Value>>, Trap> {
        match term {
            Terminator::Goto(t) => {
                let f = self.frame_mut();
                f.block = t;
                f.ip = 0;
                Ok(None)
            }
            Terminator::If { cond, then_, else_ } => {
                let taken = match cond {
                    Cond::ICmp(op) => {
                        let b = self.pop_int(mid, at)?;
                        let a = self.pop_int(mid, at)?;
                        op.eval(a, b)
                    }
                    Cond::IZero(op) => {
                        let a = self.pop_int(mid, at)?;
                        op.eval(a, 0)
                    }
                    Cond::IsNull => self.pop_ref(mid, at)?.is_none(),
                    Cond::NonNull => self.pop_ref(mid, at)?.is_some(),
                    Cond::RefEq | Cond::RefNe => {
                        let b = self.pop_ref(mid, at)?;
                        let a = self.pop_ref(mid, at)?;
                        if matches!(cond, Cond::RefEq) {
                            a == b
                        } else {
                            a != b
                        }
                    }
                };
                let f = self.frame_mut();
                f.block = if taken { then_ } else { else_ };
                f.ip = 0;
                Ok(None)
            }
            Terminator::Return => {
                let frame = self.frames.pop().expect("frame stack non-empty");
                self.free_frame_arena(frame);
                Ok(Some(None))
            }
            Terminator::ReturnValue => {
                let v = self.pop_any(mid, at)?;
                let frame = self.frames.pop().expect("frame stack non-empty");
                self.free_frame_arena(frame);
                Ok(Some(Some(v)))
            }
        }
    }
}

impl<'p> Interp<'p> {
    /// Frees a popped frame's arena objects.
    pub(crate) fn free_frame_arena(&mut self, frame: Frame) {
        for r in frame.owned {
            self.heap.store.remove(r);
            self.stats.stack_freed += 1;
        }
    }
}

/// The interpreter is the driver's one-thread host. Its safepoint is
/// the allocation and the `step_interval` poll, so a cycle never waits
/// on it. Its barriers log straight into the collector
/// (`GcState::satb_log`), so thread 0's buffer stays empty and the
/// tail's flush finds nothing.
impl CycleHost for Interp<'_> {
    /// The interpreter audits with `post_mark` alone.
    const AUDITS_SNAPSHOT: bool = false;

    fn parts(&mut self) -> (&mut CycleDriver, &mut Heap) {
        (&mut self.cycle, &mut self.heap)
    }

    /// The statics plus every reference in a frame's locals or stack.
    fn roots(&self) -> Vec<GcRef> {
        let mut roots = self.heap.static_roots();
        for frame in &self.frames {
            for v in frame.locals.iter().chain(frame.stack.iter()) {
                if let Value::Ref(Some(r)) = v {
                    roots.push(*r);
                }
            }
        }
        roots
    }

    fn post_mark_policy(&self) -> PostMarkPolicy {
        if self.verify_invariants {
            PostMarkPolicy::Recover
        } else {
            PostMarkPolicy::Skip
        }
    }

    fn on(&mut self, event: CycleEvent) {
        match event {
            CycleEvent::Snapshot(_) => self.allocs_since_cycle = 0,
            // The oracle's cycle audit, pre-remark half: snapshot
            // root-reachability once and classify this cycle's necessary
            // enqueues as sole-witness vs shielded.
            CycleEvent::Remarking if self.oracle.as_ref().is_some_and(OracleState::cycle_open) => {
                let reachable = wbe_heap::verify::reachable_set(&self.heap, &self.roots());
                if let Some(oracle) = self.oracle.as_mut() {
                    oracle.classify_witnesses(&reachable);
                }
            }
            // Post-remark half: cross-check that necessary-enqueued
            // targets ended the cycle marked. A recovery re-mark is no
            // cycle of the oracle's, but chaos follows either: with
            // `corrupt_mark_pm` on, one mark bit is cleared — the
            // corruption an unsound elision causes, where the verifier
            // must catch it before the sweep.
            CycleEvent::Remarked { recovery } => {
                if let (false, Some(oracle)) = (recovery, self.oracle.as_mut()) {
                    oracle.finish_cycle_audit(&self.heap);
                }
                let fault = self.heap.fault.as_mut();
                if fault.is_some_and(|plan| plan.corrupt_post_mark()) {
                    if let Some(victim) = self.heap.chaos_clear_mark() {
                        wbe_telemetry::event!(
                            "fault.chaos.mark_corrupted",
                            "cleared mark of {victim:?}"
                        );
                    }
                }
            }
            CycleEvent::Stopped(CheckFailed { when, count, first }) => {
                self.gc_trap = Some(Trap::InvariantViolation { when, count, first });
            }
            CycleEvent::Ended(pause, _) => {
                self.stats.gc_cycles += 1;
                self.stats.pauses.push(pause);
                // Cycle-boundary samples for the timeline: live-heap
                // occupancy and cumulative allocation, drawn as counter
                // tracks.
                if wbe_telemetry::tracing_enabled() {
                    wbe_telemetry::trace::counter_event(
                        "heap.occupancy.objects",
                        self.heap.store.live_count() as u64,
                    );
                    wbe_telemetry::trace::counter_event(
                        "heap.alloc.objects_total",
                        self.heap.stats.allocations,
                    );
                }
            }
            _ => {}
        }
    }
}

/// The policy's marker step: arm when told to, slice `step_budget`.
fn marker_ctl(policy: GcPolicy) -> MarkerCtl {
    MarkerCtl {
        arm_now: true,
        give_up_arm: false,
        budget: policy.step_budget,
    }
}

/// Maps an interpreter store site onto the recovery layer's IR-free
/// [`SiteKey`] — the same `(method, block, index)` triple the ledger
/// spells as `method@B<block>[<index>]`.
pub(crate) fn site_key(mid: MethodId, at: InsnAddr) -> SiteKey {
    (u64::from(mid.0), at.block.0, at.index as u32)
}

fn shape_of(ty: Ty) -> FieldShape {
    if ty.is_ref_like() {
        FieldShape::Ref
    } else {
        FieldShape::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::ElidedBarriers;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::CmpOp;

    fn checked() -> BarrierConfig {
        BarrierConfig::new(BarrierMode::Checked)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("calc", vec![Ty::Int, Ty::Int], Some(Ty::Int), 0, |mb| {
            let a = mb.local(0);
            let b = mb.local(1);
            // (a + b) * 2 - 1
            mb.load(a)
                .load(b)
                .add()
                .iconst(2)
                .mul()
                .iconst(1)
                .sub()
                .return_value();
        });
        let p = pb.finish();
        let mut i = Interp::new(&p, checked());
        let r = i.run(m, &[Value::Int(3), Value::Int(4)], 100).unwrap();
        assert_eq!(r, Some(Value::Int(13)));
    }

    #[test]
    fn loop_with_iinc_and_branches() {
        let mut pb = ProgramBuilder::new();
        // sum 0..n
        let m = pb.method("sum", vec![Ty::Int], Some(Ty::Int), 2, |mb| {
            let n = mb.local(0);
            let i = mb.local(1);
            let acc = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.iconst(0).store(i).iconst(0).store(acc).goto_(head);
            mb.switch_to(head)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body)
                .load(acc)
                .load(i)
                .add()
                .store(acc)
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit).load(acc).return_value();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let mut interp = Interp::new(&p, checked());
        let r = interp.run(m, &[Value::Int(10)], 10_000).unwrap();
        assert_eq!(r, Some(Value::Int(45)));
    }

    #[test]
    fn expand_example_runs_and_counts_array_barriers() {
        // The paper's §3.1 expand(): copy ta into a doubled array.
        let mut pb = ProgramBuilder::new();
        let t = pb.class("T");
        let expand = pb.method(
            "expand",
            vec![Ty::RefArray(t)],
            Some(Ty::RefArray(t)),
            2,
            |mb| {
                let ta = mb.local(0);
                let new_ta = mb.local(1);
                let i = mb.local(2);
                let head = mb.new_block();
                let body = mb.new_block();
                let exit = mb.new_block();
                mb.load(ta)
                    .arraylength()
                    .iconst(2)
                    .mul()
                    .new_ref_array(t)
                    .store(new_ta);
                mb.iconst(0).store(i).goto_(head);
                mb.switch_to(head);
                mb.load(i)
                    .load(ta)
                    .arraylength()
                    .if_icmp(CmpOp::Lt, body, exit);
                mb.switch_to(body);
                mb.load(new_ta).load(i).load(ta).load(i).aaload().aastore();
                mb.iinc(i, 1).goto_(head);
                mb.switch_to(exit);
                mb.load(new_ta).return_value();
            },
        );
        // driver: make a 5-array of fresh objects, call expand.
        let driver = pb.method("driver", vec![], Some(Ty::RefArray(t)), 2, |mb| {
            let arr = mb.local(0);
            let i = mb.local(1);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.iconst(5).new_ref_array(t).store(arr);
            mb.iconst(0).store(i).goto_(head);
            mb.switch_to(head);
            mb.load(i).iconst(5).if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body);
            mb.load(arr)
                .load(i)
                .new_object(t)
                .aastore()
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit);
            mb.load(arr).invoke(expand).return_value();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let mut interp = Interp::new(&p, checked());
        let r = interp.run(driver, &[], 100_000).unwrap().unwrap();
        let Value::Ref(Some(out)) = r else { panic!() };
        assert_eq!(interp.heap.array_len(out).unwrap(), 10);
        // 5 initializing stores in driver + 5 in expand, all pre-null.
        let summary = interp.stats.barrier.summarize(&ElidedBarriers::new());
        assert_eq!(summary.array_total, 10);
        assert_eq!(summary.array_potential_pre_null, 10);
        assert_eq!(summary.field_total, 0);
    }

    #[test]
    fn constructor_pattern_and_field_barriers() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let val = pb.field(c, "val", Ty::Int);
        let ctor = pb.declare_constructor(c, vec![Ty::Int]);
        pb.define_method(ctor, 0, |mb| {
            let this = mb.local(0);
            let v = mb.local(1);
            mb.load(this).load(v).putfield(val);
            mb.load(this).const_null().putfield(next);
            mb.return_();
        });
        let m = pb.method("make", vec![], Some(Ty::Ref(c)), 0, |mb| {
            mb.new_object(c)
                .dup()
                .iconst(42)
                .invoke(ctor)
                .return_value();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let mut interp = Interp::new(&p, checked());
        let r = interp.run(m, &[], 1_000).unwrap().unwrap();
        let Value::Ref(Some(node)) = r else { panic!() };
        assert_eq!(interp.heap.get_field(node, 1).unwrap(), Value::Int(42));
        // One ref-field store (next), pre-null. The int store is not a
        // barrier site.
        let s = interp.stats.barrier.summarize(&ElidedBarriers::new());
        assert_eq!(s.field_total, 1);
        assert_eq!(s.field_potential_pre_null, 1);
    }

    #[test]
    fn null_receiver_traps() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Int);
        let m = pb.method("npe", vec![], Some(Ty::Int), 0, |mb| {
            mb.const_null().getfield(f).return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert!(matches!(
            interp.run(m, &[], 100),
            Err(Trap::NullReceiver { .. })
        ));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("dz", vec![], Some(Ty::Int), 0, |mb| {
            mb.iconst(1).iconst(0).div().return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert!(matches!(
            interp.run(m, &[], 100),
            Err(Trap::DivisionByZero { .. })
        ));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("oob", vec![], None, 1, |mb| {
            let a = mb.local(0);
            mb.iconst(2).new_ref_array(c).store(a);
            mb.load(a).iconst(5).const_null().aastore();
            mb.return_();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert!(matches!(
            interp.run(m, &[], 100),
            Err(Trap::Heap(HeapError::IndexOutOfBounds { .. }))
        ));
        // The trapping store must not have been recorded as a barrier.
        assert_eq!(interp.stats.barrier.site_count(), 0);
    }

    #[test]
    fn out_of_fuel_traps() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("spin", vec![], None, 0, |mb| {
            let b = mb.new_block();
            mb.goto_(b);
            mb.switch_to(b).goto_(b);
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert_eq!(interp.run(m, &[], 50), Err(Trap::OutOfFuel));
    }

    #[test]
    fn bad_arg_count_rejected() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("one", vec![Ty::Int], None, 0, |mb| {
            mb.return_();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert!(matches!(
            interp.run(m, &[], 10),
            Err(Trap::BadArgCount { .. })
        ));
    }

    #[test]
    fn unsound_elision_is_caught() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("overwrite", vec![], None, 1, |mb| {
            let o = mb.local(0);
            mb.new_object(c).store(o);
            mb.load(o).load(o).putfield(f); // f = o (non-null later)
            mb.load(o).const_null().putfield(f); // overwrites non-null!
            mb.return_();
        });
        let p = pb.finish();
        // Maliciously elide the second store.
        let mut elided = ElidedBarriers::new();
        elided.insert(m, InsnAddr::new(BlockId(0), 7));
        let cfg = BarrierConfig::with_elision(BarrierMode::Checked, elided);
        let mut interp = Interp::new(&p, cfg);
        assert!(matches!(
            interp.run(m, &[], 100),
            Err(Trap::UnsoundElision { .. })
        ));
    }

    #[test]
    fn barrier_modes_charge_different_cycles() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("store_loop", vec![Ty::Int], None, 2, |mb| {
            let n = mb.local(0);
            let o = mb.local(1);
            let i = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.new_object(c).store(o).iconst(0).store(i).goto_(head);
            mb.switch_to(head)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body)
                .load(o)
                .load(o)
                .putfield(f)
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let run_mode = |mode: BarrierMode| {
            let mut interp = Interp::new(&p, BarrierConfig::new(mode));
            interp.run(m, &[Value::Int(50)], 100_000).unwrap();
            (interp.stats.cycles, interp.stats.barrier_cycles)
        };
        let (none_c, none_b) = run_mode(BarrierMode::None);
        let (chk_c, chk_b) = run_mode(BarrierMode::Checked);
        let (log_c, log_b) = run_mode(BarrierMode::AlwaysLog);
        assert_eq!(none_b, 0);
        assert!(chk_b > 0 && log_b > chk_b, "chk={chk_b} log={log_b}");
        assert!(none_c < chk_c && chk_c < log_c);
    }

    #[test]
    fn gc_policy_completes_cycles_without_losing_objects() {
        // Build a linked list of n nodes, then walk it; run with an
        // aggressive GC policy so several cycles complete mid-run.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let m = pb.method("build_walk", vec![Ty::Int], Some(Ty::Int), 3, |mb| {
            let n = mb.local(0);
            let head_l = mb.local(1);
            let i = mb.local(2);
            let cur = mb.local(3);
            let bhead = mb.new_block();
            let bbody = mb.new_block();
            let bwalk = mb.new_block();
            let bwbody = mb.new_block();
            let bexit = mb.new_block();
            // head = new Node; i = 1
            mb.new_object(c)
                .store(head_l)
                .iconst(1)
                .store(i)
                .goto_(bhead);
            // while i < n: t = new Node; t.next = head; head = t
            mb.switch_to(bhead)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, bbody, bwalk);
            mb.switch_to(bbody)
                .new_object(c)
                .dup()
                .load(head_l)
                .putfield(next)
                .store(head_l)
                .iinc(i, 1)
                .goto_(bhead);
            // walk: count nodes
            mb.switch_to(bwalk)
                .iconst(0)
                .store(i)
                .load(head_l)
                .store(cur)
                .goto_(bwbody);
            mb.switch_to(bwbody).load(cur).if_nonnull(bexit, bexit); // placeholder replaced below
            mb.switch_to(bexit).load(i).return_value();
        });
        // Rewrite bwbody properly: if cur != null { i++; cur = cur.next; loop }
        let p = {
            let mut p = pb.finish();
            use wbe_ir::{Block, Insn, Terminator};
            let mth = p.method_mut(m);
            // B4 (bwbody): load cur; if nonnull -> B6 else B5(exit)
            let b6 = BlockId(6);
            mth.blocks[4] = Block::new(
                vec![Insn::Load(wbe_ir::LocalId(3))],
                Terminator::If {
                    cond: Cond::NonNull,
                    then_: b6,
                    else_: BlockId(5),
                },
            );
            mth.blocks.push(Block::new(
                vec![
                    Insn::IInc(wbe_ir::LocalId(2), 1),
                    Insn::Load(wbe_ir::LocalId(3)),
                    Insn::GetField(next),
                    Insn::Store(wbe_ir::LocalId(3)),
                ],
                Terminator::Goto(BlockId(4)),
            ));
            mth.refresh_size();
            p.validate().unwrap();
            p
        };
        let mut interp = Interp::new(&p, checked());
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 20,
            step_interval: 8,
            step_budget: 4,
        });
        let r = interp.run(m, &[Value::Int(200)], 1_000_000).unwrap();
        assert_eq!(r, Some(Value::Int(200)), "all 200 nodes survive GC");
        assert!(interp.stats.gc_cycles > 0, "GC actually ran");
    }

    #[test]
    fn recursion_via_frames_not_rust_stack() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_method("down", vec![Ty::Int], Some(Ty::Int));
        pb.define_method(f, 0, |mb| {
            let n = mb.local(0);
            let base = mb.new_block();
            let rec = mb.new_block();
            mb.load(n).if_zero(CmpOp::Le, base, rec);
            mb.switch_to(base).iconst(0).return_value();
            mb.switch_to(rec)
                .load(n)
                .iconst(1)
                .sub()
                .invoke(f)
                .return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        // Deep enough to smash a native stack if we recursed natively.
        let r = interp.run(f, &[Value::Int(200_000)], 10_000_000).unwrap();
        assert_eq!(r, Some(Value::Int(0)));
    }

    #[test]
    fn swap_and_dup_x1() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("shuffle", vec![], Some(Ty::Int), 0, |mb| {
            // push 1,2 ; swap -> 2,1 ; sub -> 2-1=1
            mb.iconst(1).iconst(2).swap().sub().return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert_eq!(interp.run(m, &[], 100).unwrap(), Some(Value::Int(1)));

        let mut pb = ProgramBuilder::new();
        let m = pb.method("dupx1", vec![], Some(Ty::Int), 0, |mb| {
            // 5, 3 --dup_x1--> 3, 5, 3 ; sub -> 3, 2 ; add -> 5
            mb.iconst(5).iconst(3).dup_x1().sub().add().return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert_eq!(interp.run(m, &[], 100).unwrap(), Some(Value::Int(5)));
    }

    #[test]
    fn statics_and_escape_behavior() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let root = pb.static_field("root", Ty::Ref(c));
        let m = pb.method("publish", vec![], Some(Ty::Ref(c)), 0, |mb| {
            mb.new_object(c)
                .putstatic(root)
                .getstatic(root)
                .return_value();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        let r = interp.run(m, &[], 100).unwrap().unwrap();
        assert!(matches!(r, Value::Ref(Some(_))));
        assert_eq!(interp.heap.static_roots().len(), 1);
    }

    /// Allocation-heavy list builder: n nodes, each linked to its
    /// predecessor with a pre-null `putfield`; returns n.
    fn churn_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let m = pb.method("churn", vec![Ty::Int], Some(Ty::Int), 2, |mb| {
            let n = mb.local(0);
            let prev = mb.local(1);
            let i = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.iconst(0).store(i).const_null().store(prev).goto_(head);
            mb.switch_to(head)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body)
                .new_object(c)
                .dup()
                .load(prev)
                .putfield(next)
                .store(prev)
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit).load(i).return_value();
        });
        let p = pb.finish();
        p.validate().unwrap();
        (p, m)
    }

    #[test]
    fn fault_schedule_is_seed_deterministic_and_run_survives() {
        use wbe_heap::FaultPlan;
        let (p, m) = churn_program();
        let run = |seed: u64| {
            let mut interp = Interp::new(&p, checked());
            interp.set_gc_policy(GcPolicy {
                alloc_trigger: 16,
                step_interval: 4,
                step_budget: 2,
            });
            interp.set_fault_plan(FaultPlan::from_seed(seed));
            interp.set_verify_invariants(true);
            let r = interp.run(m, &[Value::Int(300)], 1_000_000).unwrap();
            assert_eq!(r, Some(Value::Int(300)), "result unaffected by faults");
            let plan = interp.heap.fault.as_ref().unwrap();
            (plan.digest(), plan.stats)
        };
        let (d1, s1) = run(42);
        let (d2, s2) = run(42);
        assert_eq!(d1, d2, "same seed, same decision stream");
        assert_eq!(s1, s2);
        assert!(s1.injected() > 0, "schedule actually perturbed the run");
        let (d3, _) = run(43);
        assert_ne!(d1, d3, "different seed, different schedule");
    }

    #[test]
    fn alloc_failure_takes_emergency_pause_and_recovers() {
        use wbe_heap::{FaultConfig, FaultPlan};
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        // High failure rate, no GC policy: only the emergency path
        // collects.
        interp.set_fault_plan(FaultPlan::new(FaultConfig {
            alloc_fail_pm: 200,
            alloc_grace: 8,
            ..FaultConfig::from_seed(5)
        }));
        interp.set_verify_invariants(true);
        let r = interp.run(m, &[Value::Int(200)], 1_000_000).unwrap();
        assert_eq!(r, Some(Value::Int(200)));
        assert!(
            interp.stats.emergency_pauses > 0,
            "emergency path exercised"
        );
        assert!(interp.stats.alloc_retries > 0);
        assert!(interp.stats.gc_cycles > 0);
    }

    #[test]
    fn alloc_exhaustion_traps_oom_after_bounded_retries() {
        use wbe_heap::{FaultConfig, FaultPlan};
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        // Every allocation fails, with no grace window: the retry
        // budget must exhaust instead of looping forever.
        interp.set_fault_plan(FaultPlan::new(FaultConfig {
            alloc_fail_pm: 1000,
            alloc_grace: 0,
            ..FaultConfig::from_seed(1)
        }));
        let err = interp.run(m, &[Value::Int(10)], 10_000).unwrap_err();
        assert!(matches!(err, Trap::OutOfMemory { .. }), "got {err}");
        // Ordering contract: each of the four retries first takes an
        // emergency pause (completing a full GC cycle), and only after
        // the post-pause allocation also fails does OOM fire.
        assert_eq!(interp.stats.emergency_pauses, 4);
        assert_eq!(interp.stats.alloc_retries, 4);
        assert_eq!(interp.stats.gc_cycles, 4, "one completed cycle per retry");
    }

    #[test]
    fn recovery_does_not_mask_oom() {
        use wbe_heap::{FaultConfig, FaultPlan};
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        interp.set_fault_plan(FaultPlan::new(FaultConfig {
            alloc_fail_pm: 1000,
            alloc_grace: 0,
            ..FaultConfig::from_seed(2)
        }));
        interp.set_recovery(RecoveryPolicy::default());
        interp.set_verify_invariants(true);
        // Recovery handles invariant violations, not resource
        // exhaustion: the emergency pauses still run first (healthy
        // cycles, so no recovery attempt opens), then OOM fires.
        let err = interp.run(m, &[Value::Int(10)], 10_000).unwrap_err();
        assert!(matches!(err, Trap::OutOfMemory { .. }), "got {err}");
        assert_eq!(interp.stats.emergency_pauses, 4);
        let rc = interp.recovery().unwrap();
        assert_eq!(rc.stats.attempted, 0, "no invariant violation occurred");
        assert!(!rc.in_panic());
    }

    #[test]
    fn chaos_corruption_recovers_and_run_completes() {
        use wbe_heap::{FaultConfig, FaultPlan};
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 16,
            step_interval: 4,
            step_budget: 2,
        });
        // Corrupt the mark state after some remarks; each recovery
        // attempt re-rolls, so with a bounded rate and a modest budget
        // the re-mark eventually comes out clean (deterministic for
        // this pinned seed).
        interp.set_fault_plan(FaultPlan::new(FaultConfig {
            corrupt_mark_pm: 400,
            alloc_fail_pm: 0,
            ..FaultConfig::from_seed(9)
        }));
        interp.set_verify_invariants(true);
        interp.set_recovery(RecoveryPolicy { max_attempts: 5 });
        let r = interp.run(m, &[Value::Int(400)], 1_000_000).unwrap();
        assert_eq!(r, Some(Value::Int(400)), "run completed despite corruption");
        let plan = interp.heap.fault.as_ref().unwrap();
        assert!(plan.stats.mark_corruptions > 0, "chaos actually fired");
        let rc = interp.recovery().unwrap();
        assert!(
            rc.stats.succeeded > 0,
            "at least one re-mark healed the heap"
        );
        assert!(rc.in_panic(), "panic mode is sticky after first violation");
        assert_eq!(rc.stats.panic_entries, 1);
    }

    #[test]
    fn persistent_corruption_traps_after_budget() {
        use wbe_heap::{FaultConfig, FaultPlan};
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 16,
            step_interval: 4,
            step_budget: 2,
        });
        // Every remark — including each recovery re-mark — corrupts:
        // unrecoverable. The original trap must fire after K attempts.
        interp.set_fault_plan(FaultPlan::new(FaultConfig {
            corrupt_mark_pm: 1000,
            alloc_fail_pm: 0,
            ..FaultConfig::from_seed(3)
        }));
        interp.set_verify_invariants(true);
        interp.set_recovery(RecoveryPolicy { max_attempts: 3 });
        let err = interp.run(m, &[Value::Int(400)], 1_000_000).unwrap_err();
        assert!(matches!(err, Trap::InvariantViolation { .. }), "got {err}");
        let rc = interp.recovery().unwrap();
        assert_eq!(rc.stats.attempted, 3, "exactly K attempts before the trap");
        assert_eq!(rc.stats.failed, 3);
        assert_eq!(rc.stats.succeeded, 0);
    }

    #[test]
    fn unsound_elision_recovers_with_site_revocation() {
        // Same maliciously-elided store as `unsound_elision_is_caught`,
        // but with the recovery layer installed the run self-heals: the
        // site is revoked, its barrier executes, a full STW re-mark
        // repairs the mark state, and execution completes.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("overwrite", vec![], None, 1, |mb| {
            let o = mb.local(0);
            mb.new_object(c).store(o);
            mb.load(o).load(o).putfield(f);
            mb.load(o).const_null().putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let mut elided = ElidedBarriers::new();
        elided.insert(m, InsnAddr::new(BlockId(0), 7));
        let cfg = BarrierConfig::with_elision(BarrierMode::Checked, elided);
        let mut interp = Interp::new(&p, cfg);
        interp.set_recovery(RecoveryPolicy::default());
        interp.run(m, &[], 100).unwrap();
        let rc = interp.recovery().unwrap();
        assert!(rc.in_panic());
        assert_eq!(rc.stats.attempted, 1);
        assert_eq!(rc.stats.succeeded, 1);
        let rev = &rc.revocations()[0];
        assert_eq!(rev.trigger, "oracle");
        assert_eq!(rev.site_key(), "overwrite@B0[7]");
        assert!(rev.reason.contains("UNSOUND ELISION"));
        // A second run through the same site is gated, not re-judged:
        // the revoked site takes the full-barrier path.
        interp.run(m, &[], 100).unwrap();
        let rc = interp.recovery().unwrap();
        assert_eq!(rc.stats.attempted, 1, "no new attempt: site was gated");
        assert!(rc.stats.gated_elisions > 0);
    }

    #[test]
    fn set_stack_sites_drops_the_code_cache_and_site_counts_survive() {
        // `scratch` allocates a node that never leaves its frame and
        // links it to itself: one allocation site, one store site.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let m = pb.method("scratch", vec![], None, 1, |mb| {
            let o = mb.local(0);
            mb.new_object(c).store(o);
            mb.load(o).load(o).putfield(next);
            mb.return_();
        });
        let p = pb.finish();
        let Insn::New { site, .. } = p.method(m).blocks[0].insns[0] else {
            panic!("scratch starts with its allocation");
        };
        let mut interp = Interp::new(&p, checked());
        interp.run(m, &[], 100).unwrap();
        assert!(interp.code[m.index()].is_some(), "translated on first run");
        assert_eq!(interp.stats.stack_allocated, 0);
        assert_eq!(interp.stats.barrier.totals(), (1, 1));

        // The arena verdict is baked into `Op::New`, which both loops
        // read: the cached translation is stale.
        interp.set_stack_sites([site]);
        assert!(interp.code.iter().all(Option::is_none));
        interp.run(m, &[], 100).unwrap();
        assert_eq!(interp.stats.stack_allocated, 1);
        assert_eq!(interp.stats.stack_freed, 1);
        // The first run's counts were folded into `stats.barrier`
        // before the cache (and its flat counters) went.
        let sites: Vec<_> = interp.stats.barrier.iter().collect();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1.executions, 2);
        assert_eq!(sites[0].1.pre_null, 2);
    }

    #[test]
    fn verified_gc_policy_run_is_clean() {
        let (p, m) = churn_program();
        let mut interp = Interp::new(&p, checked());
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 20,
            step_interval: 8,
            step_budget: 4,
        });
        interp.set_verify_invariants(true);
        let r = interp.run(m, &[Value::Int(250)], 1_000_000).unwrap();
        assert_eq!(r, Some(Value::Int(250)));
        assert!(interp.stats.gc_cycles > 0, "verification ran at boundaries");
    }

    #[test]
    fn new_trap_variants_display() {
        let t = Trap::OutOfMemory {
            method: MethodId(0),
            at: InsnAddr::new(BlockId(0), 0),
        };
        assert!(t.to_string().contains("out of memory"));
        let t = Trap::InvariantViolation {
            when: "post-mark",
            count: 2,
            first: "x".into(),
        };
        assert!(t.to_string().contains("post-mark"));
    }

    #[test]
    fn class_mismatch_putfield_traps() {
        let mut pb = ProgramBuilder::new();
        let c1 = pb.class("A");
        let c2 = pb.class("B");
        let f2 = pb.field(c2, "x", Ty::Int);
        let m = pb.method("bad", vec![], None, 0, |mb| {
            mb.new_object(c1).iconst(1).putfield(f2).return_();
        });
        let p = pb.finish();
        let mut interp = Interp::new(&p, checked());
        assert!(matches!(
            interp.run(m, &[], 100),
            Err(Trap::TypeMismatch { .. })
        ));
    }
}
