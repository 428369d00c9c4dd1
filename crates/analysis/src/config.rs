//! Analysis configuration: the ablation switches DESIGN.md calls out
//! and the iteration cap that bounds per-method analysis effort.

/// Configuration for the barrier-elision analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Enable the §3 array analysis (Len/NR tracking and `aastore`
    /// elision). The paper's "F" mode is this set to `false`; "A" is
    /// `true`.
    pub array_analysis: bool,
    /// Use two abstract references per allocation site (`R_id/A` unique +
    /// `R_id/B` summary, §2.4). The ablation sets this to `false`:
    /// a single summary reference per site, weak updates only.
    pub two_refs_per_site: bool,
    /// Track escapedness per program point (the paper's improvement over
    /// classic escape analysis). The ablation sets this to `false`:
    /// any reference that escapes anywhere is treated as escaped
    /// everywhere (classic allocation-site escape analysis).
    pub flow_sensitive_escape: bool,
    /// Infer common strides at merges (§3.5). The ablation sets this to
    /// `false`: unequal integers merge straight to ⊤, which disables all
    /// array elision in loops.
    pub stride_inference: bool,
    /// Hard cap on worklist blocks processed per fixpoint run. `None`
    /// uses a bound scaled to the method's size. Exceeding the cap does
    /// not panic: the method degrades to "elide nothing"
    /// ([`crate::AnalysisOutcome::Degraded`]).
    pub max_iterations: Option<usize>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            array_analysis: true,
            two_refs_per_site: true,
            flow_sensitive_escape: true,
            stride_inference: true,
            max_iterations: None,
        }
    }
}

impl AnalysisConfig {
    /// The paper's "A" configuration: field + array analysis.
    pub fn full() -> Self {
        AnalysisConfig::default()
    }

    /// The paper's "F" configuration: field analysis only.
    pub fn field_only() -> Self {
        AnalysisConfig {
            array_analysis: false,
            ..AnalysisConfig::default()
        }
    }

    /// Sets a hard per-method iteration cap.
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = Some(cap);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(AnalysisConfig::full().array_analysis);
        assert!(!AnalysisConfig::field_only().array_analysis);
        assert!(AnalysisConfig::default().two_refs_per_site);
        assert!(AnalysisConfig::default().max_iterations.is_none());
    }

    #[test]
    fn guardrail_builders() {
        let c = AnalysisConfig::full().with_max_iterations(7);
        assert_eq!(c.max_iterations, Some(7));
    }
}
