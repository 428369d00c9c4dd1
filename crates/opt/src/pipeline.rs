//! The compilation pipeline: inline → analyze → annotate.
//!
//! This is the shape of the paper's JIT integration: inlining first
//! (§2.4, §4.4), then the elision analyses, producing a program plus the
//! set of store sites that need no SATB barrier. The three optimization
//! modes of Figures 2–3 are expressed as [`OptMode`]:
//! **B** (baseline, no analysis), **F** (field analysis only), and
//! **A** (field + array analyses).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use wbe_analysis::transfer::is_barrier_site;
use wbe_analysis::{
    analyze_program_with, nullsame, AnalysisConfig, ElisionLedger, Products, ProgramAnalysis,
};
use wbe_ir::{InsnAddr, MethodId, Program};

use crate::codesize;
use crate::inline::{inline_program, InlineConfig, InlineStats};

/// Optimization mode (the B/F/A series of Figures 2 and 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptMode {
    /// No barrier-elision analysis.
    Baseline,
    /// Field analysis only (§2).
    FieldOnly,
    /// Field and array analyses (§2 + §3).
    Full,
}

impl OptMode {
    /// All three modes, in presentation order.
    pub const ALL: [OptMode; 3] = [OptMode::Baseline, OptMode::FieldOnly, OptMode::Full];

    /// The figure label used by the paper ("B", "F", "A").
    pub fn label(self) -> &'static str {
        match self {
            OptMode::Baseline => "B",
            OptMode::FieldOnly => "F",
            OptMode::Full => "A",
        }
    }

    /// The analysis configuration for this mode, if any analysis runs.
    pub fn analysis_config(self) -> Option<AnalysisConfig> {
        match self {
            OptMode::Baseline => None,
            OptMode::FieldOnly => Some(AnalysisConfig::field_only()),
            OptMode::Full => Some(AnalysisConfig::full()),
        }
    }
}

/// Pipeline parameters.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Inline limit (paper's Figure 2 x-axis). 100 is the level used
    /// for the headline Table 1 results.
    pub inline: InlineConfig,
    /// Optimization mode.
    pub mode: OptMode,
    /// Overrides the mode's analysis configuration (for ablations).
    pub analysis_override: Option<AnalysisConfig>,
    /// Also run the §4.3 null-or-same analysis (off by default: it is
    /// the paper's future-work extension, not part of Tables 1-2). It
    /// solves in the pre-null analysis's per-method pass, under the same
    /// guardrails, and marks the ledger's records there.
    pub null_or_same: bool,
    /// Run constant/branch folding and dead-block removal after
    /// inlining, before the analyses (off by default so experiment
    /// instruction counts stay directly comparable to the source).
    pub fold: bool,
    /// Also build the per-site [`ElisionLedger`]. Its records come out
    /// of the same solve and replay as the elision result, so this
    /// costs no second fixed point — only rendering each site's
    /// evidence, which is then part of [`Compiled::analysis_time`]
    /// (off by default so the Figure 2 series times the analysis
    /// alone).
    pub ledger: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            inline: InlineConfig::with_limit(100),
            mode: OptMode::Full,
            analysis_override: None,
            null_or_same: false,
            fold: false,
            ledger: false,
        }
    }
}

impl PipelineConfig {
    /// Standard config for a mode at an inline limit.
    pub fn new(mode: OptMode, inline_limit: usize) -> Self {
        PipelineConfig {
            inline: InlineConfig::with_limit(inline_limit),
            mode,
            ..PipelineConfig::default()
        }
    }

    /// Enables post-inline folding.
    pub fn with_fold(mut self) -> Self {
        self.fold = true;
        self
    }

    /// Enables the §4.3 null-or-same extension.
    pub fn with_null_or_same(mut self) -> Self {
        self.null_or_same = true;
        self
    }

    /// Enables the per-site elision provenance ledger.
    pub fn with_ledger(mut self) -> Self {
        self.ledger = true;
        self
    }
}

/// A compiled program: the inlined code plus elision results and costs.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The program after inlining.
    pub program: Program,
    /// Inlining statistics.
    pub inline_stats: InlineStats,
    /// Time spent inlining.
    pub inline_time: Duration,
    /// Analysis results (`None` in baseline mode).
    pub analysis: Option<ProgramAnalysis>,
    /// §4.3 null-or-same sites per method (empty unless enabled).
    pub null_or_same: BTreeMap<MethodId, BTreeSet<InsnAddr>>,
    /// Per-site provenance ledger (`None` unless enabled in the config
    /// or in baseline mode, which has no analysis to explain).
    pub ledger: Option<ElisionLedger>,
}

impl Compiled {
    /// Elided sites for one method (empty in baseline mode).
    pub fn elided_of(&self, mid: MethodId) -> BTreeSet<InsnAddr> {
        self.analysis
            .as_ref()
            .and_then(|a| a.methods.get(&mid))
            .map(|m| m.elided.clone())
            .unwrap_or_default()
    }

    /// All `(method, site)` pairs elided by the pre-null analyses.
    pub fn elided_sites(&self) -> Vec<(MethodId, InsnAddr)> {
        self.analysis
            .as_ref()
            .map(|a| a.iter_elided().collect())
            .unwrap_or_default()
    }

    /// All `(method, site)` pairs elidable by the §4.3 null-or-same
    /// analysis (empty unless enabled in the config).
    pub fn null_or_same_sites(&self) -> Vec<(MethodId, InsnAddr)> {
        self.null_or_same
            .iter()
            .flat_map(|(&m, s)| s.iter().map(move |&a| (m, a)))
            .collect()
    }

    /// Analysis wall-clock time (zero in baseline mode) — Figure 2's
    /// compile-time series.
    pub fn analysis_time(&self) -> Duration {
        self.analysis
            .as_ref()
            .map(|a| a.elapsed)
            .unwrap_or_default()
    }

    /// Modeled compiled code size in bytes (Figure 3).
    pub fn code_size(&self) -> usize {
        codesize::program_code_size(&self.program, |mid| self.elided_of(mid))
    }

    /// Static count of barrier sites in the compiled program.
    pub fn barrier_sites(&self) -> usize {
        self.program
            .iter_methods()
            .flat_map(|(_, m)| m.iter_insns())
            .filter(|(_, _, i)| is_barrier_site(&self.program, i))
            .count()
    }
}

/// Runs the pipeline on `program`.
pub fn compile(program: &Program, config: &PipelineConfig) -> Compiled {
    run(program, config, false).0
}

/// [`compile`], plus the analysis's text dump of every compiled method
/// (`wbe_analysis::dump`) rendered from the same solved fixed points —
/// `None` in baseline mode, which runs no analysis.
pub fn compile_with_dump(program: &Program, config: &PipelineConfig) -> (Compiled, Option<String>) {
    run(program, config, true)
}

fn run(program: &Program, config: &PipelineConfig, dump: bool) -> (Compiled, Option<String>) {
    let _span = wbe_telemetry::span!("opt.compile", "mode {}", config.mode.label());
    let t0 = std::time::Instant::now();
    let (mut inlined, inline_stats) = inline_program(program, config.inline);
    if config.fold {
        crate::fold::fold_program(&mut inlined);
    }
    let inlined = inlined;
    let inline_time = t0.elapsed();
    #[cfg(debug_assertions)]
    if let Err(e) = inlined.validate() {
        panic!("inliner broke the program: {e}");
    }
    let analysis_config = config
        .analysis_override
        .or_else(|| config.mode.analysis_config());
    // One solve and one replay per method and domain, whatever is
    // derived from them.
    let products = Products {
        ledger: config.ledger,
        dump,
        null_or_same: config.null_or_same,
    };
    let (analysis, ledger, dump, null_or_same) = match analysis_config {
        Some(c) => {
            let a = analyze_program_with(&inlined, &c, products);
            (Some(a.analysis), a.ledger, a.dump, a.null_or_same)
        }
        // Baseline: null-or-same runs alone, under the default guardrails.
        None if config.null_or_same => (None, None, None, nullsame::analyze_program(&inlined)),
        None => (None, None, None, BTreeMap::new()),
    };
    let compiled = Compiled {
        program: inlined,
        inline_stats,
        inline_time,
        analysis,
        null_or_same,
        ledger,
    };
    wbe_telemetry::histogram("opt.inline.us").record_duration(inline_time);
    if wbe_telemetry::metrics_enabled() {
        // Code-size delta of barrier elision: size with no elisions vs
        // size with this compile's elided set.
        let before = codesize::program_code_size(&compiled.program, |_| BTreeSet::new());
        let after = compiled.code_size();
        wbe_telemetry::gauge("opt.code_size.baseline_bytes").set(before as u64);
        wbe_telemetry::gauge("opt.code_size.bytes").set(after as u64);
        wbe_telemetry::counter("opt.code_size.saved_bytes")
            .add(before.saturating_sub(after) as u64);
    }
    (compiled, dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![Ty::Ref(c)]);
        pb.define_method(ctor, 0, |mb| {
            let this = mb.local(0);
            let v = mb.local(1);
            mb.load(this).load(v).putfield(f).return_();
        });
        pb.method("main", vec![Ty::Ref(c)], None, 0, |mb| {
            let arg = mb.local(0);
            mb.new_object(c)
                .dup()
                .load(arg)
                .invoke(ctor)
                .pop()
                .return_();
        });
        pb.finish()
    }

    #[test]
    fn modes_order_elision_counts() {
        let p = sample();
        let b = compile(&p, &PipelineConfig::new(OptMode::Baseline, 100));
        let f = compile(&p, &PipelineConfig::new(OptMode::FieldOnly, 100));
        let a = compile(&p, &PipelineConfig::new(OptMode::Full, 100));
        assert!(b.analysis.is_none());
        assert_eq!(b.elided_sites().len(), 0);
        assert!(f.elided_sites().len() <= a.elided_sites().len());
        assert!(!a.elided_sites().is_empty());
    }

    #[test]
    fn code_size_shrinks_with_elision() {
        let p = sample();
        let b = compile(&p, &PipelineConfig::new(OptMode::Baseline, 100));
        let a = compile(&p, &PipelineConfig::new(OptMode::Full, 100));
        assert!(a.code_size() < b.code_size());
    }

    #[test]
    fn inline_limit_gates_elision() {
        let p = sample();
        let no_inline = compile(&p, &PipelineConfig::new(OptMode::Full, 0));
        let inline = compile(&p, &PipelineConfig::new(OptMode::Full, 100));
        assert_eq!(no_inline.elided_sites().len(), 1, "ctor body store only");
        // With inlining, main's inlined store is also elided (2 total:
        // one in the dead original ctor, one in main).
        assert!(inline.elided_sites().len() >= 2);
        assert!(inline.inline_stats.inlined_calls >= 1);
    }

    #[test]
    fn labels_and_configs() {
        assert_eq!(OptMode::Baseline.label(), "B");
        assert_eq!(OptMode::FieldOnly.label(), "F");
        assert_eq!(OptMode::Full.label(), "A");
        assert!(OptMode::Baseline.analysis_config().is_none());
        assert!(!OptMode::FieldOnly.analysis_config().unwrap().array_analysis);
        assert!(OptMode::Full.analysis_config().unwrap().array_analysis);
    }

    #[test]
    fn null_or_same_extension_is_opt_in() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        pb.method("refresh", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(f).putfield(f).return_();
        });
        let p = pb.finish();
        let base = compile(&p, &PipelineConfig::new(OptMode::Full, 100));
        assert!(base.null_or_same_sites().is_empty());
        assert!(base.elided_sites().is_empty(), "refresh is not pre-null");
        let cfg = PipelineConfig::new(OptMode::Full, 100).with_null_or_same();
        let ext = compile(&p, &cfg);
        assert_eq!(ext.null_or_same_sites().len(), 1);
    }

    #[test]
    fn ledger_is_opt_in_and_matches_analysis() {
        let p = sample();
        let plain = compile(&p, &PipelineConfig::new(OptMode::Full, 100));
        assert!(plain.ledger.is_none(), "ledger is opt-in");
        let cfg = PipelineConfig::new(OptMode::Full, 100);
        let with = compile(
            &p,
            &PipelineConfig {
                ledger: true,
                ..cfg
            },
        );
        let ledger = with.ledger.as_ref().unwrap();
        assert_eq!(ledger.records.len(), with.barrier_sites());
        assert_eq!(ledger.elided(), with.elided_sites().len());
        // Baseline mode has no analysis, hence no ledger even when asked.
        let base = PipelineConfig::new(OptMode::Baseline, 100);
        let b = compile(
            &p,
            &PipelineConfig {
                ledger: true,
                ..base
            },
        );
        assert!(b.ledger.is_none());
    }

    #[test]
    fn ledger_annotates_null_or_same_sites() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        pb.method("refresh", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).load(o).getfield(f).putfield(f).return_();
        });
        let p = pb.finish();
        let cfg = PipelineConfig::new(OptMode::Full, 100)
            .with_null_or_same()
            .with_ledger();
        let compiled = compile(&p, &cfg);
        let ledger = compiled.ledger.as_ref().unwrap();
        let rec = ledger
            .records
            .iter()
            .find(|r| &*r.method == "refresh")
            .unwrap();
        assert_eq!(rec.verdict, wbe_analysis::Verdict::Keep);
        assert!(rec.null_or_same, "W_NS-elidable site annotated: {rec:?}");
    }

    #[test]
    fn barrier_site_count() {
        let p = sample();
        let c = compile(&p, &PipelineConfig::new(OptMode::Baseline, 0));
        assert_eq!(c.barrier_sites(), 1);
        let c = compile(&p, &PipelineConfig::new(OptMode::Baseline, 100));
        assert_eq!(c.barrier_sites(), 2, "inlined copy adds a site");
    }
}
