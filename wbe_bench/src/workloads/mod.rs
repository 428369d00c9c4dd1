//! The five workloads and what they share: seeded input generation,
//! the per-rep result shape, and the [`Workload`] trait the protocol in
//! [`crate::runner`] drives.
//!
//! `--seed` drives only input generation (program order, iterations
//! per entry call, heap-graph shape, serve seeds). The program under
//! test sees only the generated inputs.

pub mod collector;
pub mod compile_sweep;
pub mod mutator;
pub mod serve;

use std::collections::BTreeMap;

use std::collections::BTreeSet;

use wbe_heap::gc::MarkStyle;
use wbe_interp::{
    translate, BarrierConfig, BarrierMode, CompiledMethod, ElidedBarriers, ElisionKind, Fuse,
    GcPolicy, Op,
};
use wbe_opt::Compiled;
use wbe_telemetry::{MetricsSnapshot, TelemetryConfig};

use crate::metrics;
use crate::stats::Summary;
use crate::trace::Recorder;

/// The deterministic GC policy every interpreter run drives: the one
/// `wbe_tool report`, the throughput bench and the baselines use.
pub const GC_POLICY: GcPolicy = GcPolicy {
    alloc_trigger: 400,
    step_interval: 32,
    step_budget: 4,
};

/// Divides every fixed work count; 1 for a real run, 50 for `--quick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    /// `n` scaled down, never below 1.
    pub fn of(self, n: u64) -> u64 {
        (n / self.0).max(1)
    }

    /// Whether this is a full-size run (pinned digests apply).
    pub fn full(self) -> bool {
        self.0 == 1
    }
}

/// Deterministic counts of one evaluation, by name. Every evaluation
/// at one seed must produce the same map.
pub type Facts = BTreeMap<String, u64>;

/// One fixed-work repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of the measured work, seconds.
    pub wall_s: f64,
    /// Operations completed (the workload's own unit).
    pub ops: u64,
    /// Further timed end-to-end metrics of this rep, by name.
    pub timed: Vec<(&'static str, f64)>,
    /// Deterministic counts.
    pub facts: Facts,
    /// Operations attempted, for `fail_ratio`.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

/// One detail row (a program, an engine, a phase): its own line in the
/// report and its own object in the JSON.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name, e.g. `jbb/classic`.
    pub name: String,
    /// Values by column name.
    pub values: Vec<(&'static str, f64)>,
}

/// Result of the untimed check pass.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Operations verified.
    pub attempted: u64,
    /// One line per failed verification.
    pub failures: Vec<String>,
    /// The deterministic end-to-end metrics, by name.
    pub counts: Vec<(&'static str, f64)>,
    /// Output digests, by name, compared with `expected/digests.json`
    /// at the default seed.
    pub digests: BTreeMap<String, u64>,
    /// Detail rows.
    pub rows: Vec<Row>,
}

/// What the traced pass knows about the untraced reps.
#[derive(Clone, Debug)]
pub struct LayerCtx {
    /// Median wall of the untraced reps, seconds.
    pub untraced_wall_s: f64,
    /// Repetitions of each isolated probe.
    pub probe_reps: usize,
}

/// Result of the traced pass and the isolated layer probes.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Per-layer metric values, by name; a metric a workload does not
    /// exercise is left out and reported as 0.
    pub values: Vec<(&'static str, Summary, Option<String>)>,
    /// Wall of the traced pass, seconds.
    pub traced_wall_s: f64,
    /// Detail rows.
    pub rows: Vec<Row>,
}

impl Layers {
    /// Records an exactly known value.
    pub fn exact(&mut self, name: &'static str, v: f64) {
        self.values.push((name, Summary::exact(v), None));
    }

    /// Records a measured value with its spread.
    pub fn measured(&mut self, name: &'static str, s: Summary) {
        self.values.push((name, s, None));
    }
}

/// A workload, set up and ready to repeat.
pub trait Workload {
    /// Runs the fixed work once. With `rec` recording, every call into
    /// a layer is spanned.
    fn rep(&mut self, rec: &mut Recorder) -> Rep;

    /// Runs the same inputs with full verification, untimed. `facts`
    /// are the (identical) facts of the timed reps.
    fn check(&mut self, facts: &Facts) -> Check;

    /// Runs the traced pass under `rec`, then the isolated probes.
    fn layers(&mut self, rec: &mut Recorder, ctx: &LayerCtx) -> Layers;
}

/// Sets up workload `name` from `seed`.
///
/// # Errors
///
/// An unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        metrics::COMPILE_SWEEP => Box::new(compile_sweep::CompileSweep::setup(seed, scale)),
        metrics::MUTATOR_STEADY => Box::new(mutator::Mutator::steady(seed, scale)),
        metrics::MUTATOR_CHURN => Box::new(mutator::Mutator::churn(seed, scale)),
        metrics::COLLECTOR_CYCLE => Box::new(collector::CollectorCycle::setup(seed, scale)),
        metrics::SERVE_OPEN_LOOP => Box::new(serve::ServeOpenLoop::setup(seed, scale)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// SplitMix64, the repository's standard deterministic stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two uses of
    /// one seed do not replay each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h` (0 starts a new digest).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The elision set a compile produced: pre-null sites plus §4.3
/// null-or-same sites, each tagged with the oracle that checks it.
pub fn elided_set(compiled: &Compiled) -> ElidedBarriers {
    let mut elided: ElidedBarriers = compiled.elided_sites().into_iter().collect();
    for (m, a) in compiled.null_or_same_sites() {
        elided.insert_kind(m, a, ElisionKind::NullOrSame);
    }
    elided
}

/// `mode` with `compiled`'s elisions applied.
pub fn eliding(mode: BarrierMode, compiled: &Compiled) -> BarrierConfig {
    BarrierConfig::with_elision(mode, elided_set(compiled))
}

/// Translates every method of `compiled` under `Checked` + elision.
pub fn translate_all(compiled: &Compiled) -> Vec<CompiledMethod> {
    let config = eliding(BarrierMode::Checked, compiled);
    let stack_sites = BTreeSet::new();
    compiled
        .program
        .iter_methods()
        .map(|(mid, _)| {
            translate(
                &compiled.program,
                mid,
                &config,
                MarkStyle::Satb,
                &stack_sites,
            )
        })
        .collect()
}

/// Superinstruction count of translated code.
pub fn cells_of(methods: &[CompiledMethod]) -> u64 {
    methods.iter().map(|m| m.cells.len() as u64).sum()
}

/// `(elided, kept)` fused store+barrier superinstructions in `methods`.
pub fn fused(methods: &[CompiledMethod]) -> (u64, u64) {
    let mut n = (0, 0);
    for cell in methods.iter().flat_map(|m| &m.cells) {
        if let Op::PutFieldRef { fuse, .. } | Op::AaStore { fuse, .. } = cell.op {
            if matches!(fuse, Fuse::Elided(_)) {
                n.0 += 1;
            } else {
                n.1 += 1;
            }
        }
    }
    n
}

/// Runs `f` with the program's own telemetry fully on and returns what
/// the registry collected meanwhile. Reading the registry the program
/// already fills is not tracing inside the program.
pub fn with_telemetry<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let registry = wbe_telemetry::registry::global();
    registry.reset();
    wbe_telemetry::configure(TelemetryConfig::all());
    let out = f();
    let snap = registry.snapshot();
    wbe_telemetry::configure(TelemetryConfig::off());
    wbe_telemetry::trace::drain();
    (out, snap)
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}
