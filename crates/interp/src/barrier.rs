//! Barrier modes, elision sets, and per-site dynamic statistics.

use std::collections::HashMap;

use wbe_ir::{InsnAddr, MethodId};

/// How the mutator executes SATB barriers — the three modes of the
/// paper's Table 2, plus the ordinary checked barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BarrierMode {
    /// No SATB barriers at all (Table 2's **no-barrier** row). Only safe
    /// when no marking happens during the run.
    None,
    /// The production barrier: first check whether marking is in
    /// progress; if so, read the pre-value, and log it if non-null.
    #[default]
    Checked,
    /// Table 2's **always-log** row: elide the marking check and always
    /// read/log non-null pre-values, simulating fully incrementalized
    /// marking (§4.5's future-work mode).
    AlwaysLog,
}

/// Barrier mode plus the static elision results applied under it
/// (Table 2's **always-log-elim** = `AlwaysLog` with a non-empty set).
#[derive(Clone, Debug, Default)]
pub struct BarrierConfig {
    /// The barrier flavor.
    pub mode: BarrierMode,
    /// The stores that skip their barrier (empty by default).
    pub elided: ElidedBarriers,
    /// §4.3 rearrangement-protocol sites (empty by default).
    pub rearrange: RearrangeSites,
}

impl BarrierConfig {
    /// Creates a config with the given mode, no elision.
    pub fn new(mode: BarrierMode) -> Self {
        BarrierConfig {
            mode,
            elided: ElidedBarriers::default(),
            rearrange: RearrangeSites::default(),
        }
    }

    /// Creates a config that applies `elided` under the given mode.
    pub fn with_elision(mode: BarrierMode, elided: ElidedBarriers) -> Self {
        BarrierConfig {
            mode,
            elided,
            rearrange: RearrangeSites::default(),
        }
    }

    /// Adds §4.3 rearrangement sites to this configuration.
    pub fn with_rearrange(mut self, rearrange: RearrangeSites) -> Self {
        self.rearrange = rearrange;
        self
    }
}

/// Why a barrier may be omitted — determines what the runtime
/// soundness oracle checks at each elided execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ElisionKind {
    /// §2/§3: the overwritten value is provably null.
    #[default]
    PreNull,
    /// §4.3: the store writes null-or-the-same-value, so there is never
    /// an unlinked snapshot value to log.
    NullOrSame,
}

/// The set of store sites whose SATB barrier the static analyses proved
/// removable, each tagged with the proof that justified it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElidedBarriers {
    map: std::collections::HashMap<(MethodId, InsnAddr), ElisionKind>,
}

impl ElidedBarriers {
    /// Creates an empty set.
    pub fn new() -> Self {
        ElidedBarriers::default()
    }

    /// Records that the store at `addr` in `method` needs no barrier
    /// because it is pre-null.
    pub fn insert(&mut self, method: MethodId, addr: InsnAddr) {
        self.insert_kind(method, addr, ElisionKind::PreNull);
    }

    /// Records an elision with an explicit justification. A pre-null
    /// proof wins over null-or-same if both apply (its oracle is
    /// stricter).
    pub fn insert_kind(&mut self, method: MethodId, addr: InsnAddr, kind: ElisionKind) {
        use std::collections::hash_map::Entry;
        match self.map.entry((method, addr)) {
            Entry::Vacant(e) => {
                e.insert(kind);
            }
            Entry::Occupied(mut e) => {
                if kind == ElisionKind::PreNull {
                    e.insert(kind);
                }
            }
        }
    }

    /// True if the barrier at this site is elided.
    pub fn contains(&self, method: MethodId, addr: InsnAddr) -> bool {
        self.map.contains_key(&(method, addr))
    }

    /// The elision kind at this site, if elided.
    pub fn kind(&self, method: MethodId, addr: InsnAddr) -> Option<ElisionKind> {
        self.map.get(&(method, addr)).copied()
    }

    /// Number of elided sites.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no sites are elided.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the elided sites.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, InsnAddr)> + '_ {
        self.map.keys().copied()
    }
}

impl FromIterator<(MethodId, InsnAddr)> for ElidedBarriers {
    fn from_iter<T: IntoIterator<Item = (MethodId, InsnAddr)>>(iter: T) -> Self {
        let mut e = ElidedBarriers::new();
        for (m, a) in iter {
            e.insert(m, a);
        }
        e
    }
}

impl Extend<(MethodId, InsnAddr)> for ElidedBarriers {
    fn extend<T: IntoIterator<Item = (MethodId, InsnAddr)>>(&mut self, iter: T) {
        for (m, a) in iter {
            self.insert(m, a);
        }
    }
}

/// Role of a store inside a §4.3 array-rearrangement group (mirrors
/// `wbe_opt::ShiftRole`; the interpreter stays independent of the
/// compiler crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RearrangeRole {
    /// Keeps a single SATB log: the one truly deleted reference.
    First,
    /// Skips logging; checks the array's tracing state instead and
    /// schedules a conservative retrace on interference.
    Member,
}

/// Store sites executing under the §4.3 optimistic rearrangement
/// protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RearrangeSites {
    map: HashMap<(MethodId, InsnAddr), RearrangeRole>,
}

impl RearrangeSites {
    /// Creates an empty set.
    pub fn new() -> Self {
        RearrangeSites::default()
    }

    /// Registers a site with its role.
    pub fn insert(&mut self, method: MethodId, addr: InsnAddr, role: RearrangeRole) {
        self.map.insert((method, addr), role);
    }

    /// The role at a site, if any.
    pub fn role(&self, method: MethodId, addr: InsnAddr) -> Option<RearrangeRole> {
        self.map.get(&(method, addr)).copied()
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Kind of reference store, for Table 1's field/array breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// `putfield` of a reference-typed field.
    Field,
    /// `aastore`.
    Array,
}

/// Dynamic counters for one store site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Barrier executions (i.e. executions of the store).
    pub executions: u64,
    /// Executions whose pre-value was null.
    pub pre_null: u64,
    /// Abstract barrier cycles charged at this site across the run
    /// (check + pre-read + log under the cost model; 0 when elided).
    pub cycles: u64,
}

impl SiteStats {
    /// A site is *potentially pre-null* if no execution ever observed a
    /// non-null pre-value — the paper's dynamic upper bound on what
    /// pre-null analyses could eliminate.
    pub fn potentially_pre_null(&self) -> bool {
        self.executions > 0 && self.pre_null == self.executions
    }
}

/// Per-site dynamic barrier statistics: the public per-site report,
/// filled at run boundaries (see [`BarrierStats::add_site`]).
#[derive(Clone, Debug, Default)]
pub struct BarrierStats {
    sites: HashMap<(MethodId, InsnAddr, StoreKind), SiteStats>,
}

impl BarrierStats {
    /// Adds one site's counts: `executions` executions of the store at
    /// `addr`, `pre_null` of them over a null pre-value, charged
    /// `cycles` abstract barrier cycles in all. The interpreter counts
    /// per site in flat arrays while it runs and calls this once per
    /// executed site at the end of each run.
    pub fn add_site(
        &mut self,
        method: MethodId,
        addr: InsnAddr,
        kind: StoreKind,
        executions: u64,
        pre_null: u64,
        cycles: u64,
    ) {
        let s = self.sites.entry((method, addr, kind)).or_default();
        s.executions += executions;
        s.pre_null += pre_null;
        s.cycles += cycles;
    }

    /// Iterates over `((method, addr, kind), stats)` for every executed
    /// site.
    pub fn iter(&self) -> impl Iterator<Item = (&(MethodId, InsnAddr, StoreKind), &SiteStats)> {
        self.sites.iter()
    }

    /// Number of distinct executed store sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Accumulates `other`'s per-site counters into `self`, so harness
    /// code can aggregate runs without hand-summing summary fields.
    pub fn merge(&mut self, other: &BarrierStats) {
        for (&(method, addr, kind), s) in &other.sites {
            self.add_site(method, addr, kind, s.executions, s.pre_null, s.cycles);
        }
    }

    /// Total `(executions, pre_null executions)` across every site.
    pub fn totals(&self) -> (u64, u64) {
        self.sites
            .values()
            .fold((0, 0), |(e, p), s| (e + s.executions, p + s.pre_null))
    }

    /// Aggregates the run against an elision set, producing the numbers
    /// behind one Table 1 row.
    pub fn summarize(&self, elided: &ElidedBarriers) -> BarrierSummary {
        let mut s = BarrierSummary::default();
        for (&(method, addr, kind), stats) in &self.sites {
            let is_elided = elided.contains(method, addr);
            let (total, elim, potential) = match kind {
                StoreKind::Field => (
                    &mut s.field_total,
                    &mut s.field_eliminated,
                    &mut s.field_potential_pre_null,
                ),
                StoreKind::Array => (
                    &mut s.array_total,
                    &mut s.array_eliminated,
                    &mut s.array_potential_pre_null,
                ),
            };
            *total += stats.executions;
            if is_elided {
                *elim += stats.executions;
            }
            if stats.potentially_pre_null() {
                *potential += stats.executions;
            }
        }
        s
    }
}

impl std::fmt::Display for BarrierStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (executions, pre_null) = self.totals();
        write!(
            f,
            "sites={} executions={} pre_null={}",
            self.site_count(),
            executions,
            pre_null
        )
    }
}

/// Aggregated dynamic barrier counts for a run (one Table 1 row before
/// formatting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierSummary {
    /// Field-store barrier executions.
    pub field_total: u64,
    /// Field-store executions at statically elided sites.
    pub field_eliminated: u64,
    /// Field-store executions at potentially pre-null sites.
    pub field_potential_pre_null: u64,
    /// Array-store barrier executions.
    pub array_total: u64,
    /// Array-store executions at statically elided sites.
    pub array_eliminated: u64,
    /// Array-store executions at potentially pre-null sites.
    pub array_potential_pre_null: u64,
}

impl BarrierSummary {
    /// Total barrier executions.
    pub fn total(&self) -> u64 {
        self.field_total + self.array_total
    }

    /// Total executions at elided sites.
    pub fn eliminated(&self) -> u64 {
        self.field_eliminated + self.array_eliminated
    }

    /// Total executions at potentially pre-null sites.
    pub fn potential_pre_null(&self) -> u64 {
        self.field_potential_pre_null + self.array_potential_pre_null
    }

    fn pct(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    }

    /// Percentage of all barrier executions eliminated (Table 1 "% elim").
    pub fn pct_eliminated(&self) -> f64 {
        Self::pct(self.eliminated(), self.total())
    }

    /// Percentage at potentially pre-null sites (Table 1 "% Potential
    /// pre-null").
    pub fn pct_potential_pre_null(&self) -> f64 {
        Self::pct(self.potential_pre_null(), self.total())
    }

    /// Field share of executions, in percent (Table 1 "Field/Array").
    pub fn pct_field(&self) -> f64 {
        Self::pct(self.field_total, self.total())
    }

    /// Percentage of field-store executions eliminated.
    pub fn pct_field_eliminated(&self) -> f64 {
        Self::pct(self.field_eliminated, self.field_total)
    }

    /// Percentage of array-store executions eliminated.
    pub fn pct_array_eliminated(&self) -> f64 {
        Self::pct(self.array_eliminated, self.array_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::BlockId;

    fn addr(i: usize) -> InsnAddr {
        InsnAddr::new(BlockId(0), i)
    }

    /// Abstract barrier cycles charged across every site.
    fn cycles(st: &BarrierStats) -> u64 {
        st.iter().map(|(_, s)| s.cycles).sum()
    }

    #[test]
    fn site_stats_potential_pre_null() {
        let mut st = BarrierStats::default();
        let m = MethodId(0);
        st.add_site(m, addr(0), StoreKind::Field, 2, 2, 0);
        st.add_site(m, addr(1), StoreKind::Field, 2, 1, 0);
        let sites: HashMap<_, _> = st.iter().map(|(k, v)| (*k, *v)).collect();
        assert!(sites[&(m, addr(0), StoreKind::Field)].potentially_pre_null());
        assert!(!sites[&(m, addr(1), StoreKind::Field)].potentially_pre_null());
    }

    #[test]
    fn summary_percentages() {
        let mut st = BarrierStats::default();
        let m = MethodId(0);
        // Site 0: field, 3 executions, always pre-null, elided.
        st.add_site(m, addr(0), StoreKind::Field, 3, 3, 0);
        // Site 1: array, 1 execution, not pre-null, not elided.
        st.add_site(m, addr(1), StoreKind::Array, 1, 0, 0);
        let mut elided = ElidedBarriers::new();
        elided.insert(m, addr(0));
        let s = st.summarize(&elided);
        assert_eq!(s.total(), 4);
        assert_eq!(s.eliminated(), 3);
        assert_eq!(s.pct_eliminated(), 75.0);
        assert_eq!(s.pct_potential_pre_null(), 75.0);
        assert_eq!(s.pct_field(), 75.0);
        assert_eq!(s.pct_field_eliminated(), 100.0);
        assert_eq!(s.pct_array_eliminated(), 0.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let st = BarrierStats::default();
        let s = st.summarize(&ElidedBarriers::new());
        assert_eq!(s.total(), 0);
        assert_eq!(s.pct_eliminated(), 0.0);
    }

    #[test]
    fn zero_execution_site_is_not_potentially_pre_null() {
        // A site that never executed must not be reported as an elision
        // opportunity: 0/0 is "no evidence", not "always pre-null".
        let s = SiteStats::default();
        assert_eq!(s.executions, 0);
        assert!(!s.potentially_pre_null());
        // And summarize over an empty run stays all-zero even when the
        // elision set is non-empty.
        let mut elided = ElidedBarriers::new();
        elided.insert(MethodId(0), addr(0));
        let summary = BarrierStats::default().summarize(&elided);
        assert_eq!(summary, BarrierSummary::default());
        assert_eq!(summary.pct_eliminated(), 0.0);
        assert_eq!(summary.pct_potential_pre_null(), 0.0);
    }

    #[test]
    fn all_elided_summary_hits_one_hundred_percent() {
        let mut st = BarrierStats::default();
        let m = MethodId(0);
        for i in 0..3 {
            st.add_site(m, addr(i), StoreKind::Field, 1, 1, 0);
        }
        st.add_site(m, addr(3), StoreKind::Array, 1, 1, 0);
        let elided: ElidedBarriers = (0..4).map(|i| (m, addr(i))).collect();
        let s = st.summarize(&elided);
        assert_eq!(s.total(), 4);
        assert_eq!(s.eliminated(), 4);
        assert_eq!(s.pct_eliminated(), 100.0);
        assert_eq!(s.pct_field_eliminated(), 100.0);
        assert_eq!(s.pct_array_eliminated(), 100.0);
        assert_eq!(s.pct_potential_pre_null(), 100.0);
    }

    #[test]
    fn merge_sums_per_site_and_display_reports_totals() {
        let m = MethodId(0);
        let mut a = BarrierStats::default();
        a.add_site(m, addr(0), StoreKind::Field, 2, 1, 0);
        let mut b = BarrierStats::default();
        b.add_site(m, addr(0), StoreKind::Field, 1, 1, 0);
        b.add_site(m, addr(1), StoreKind::Array, 1, 1, 0);
        a.merge(&b);
        assert_eq!(a.site_count(), 2);
        assert_eq!(a.totals(), (4, 3));
        let sites: HashMap<_, _> = a.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(sites[&(m, addr(0), StoreKind::Field)].executions, 3);
        assert_eq!(sites[&(m, addr(0), StoreKind::Field)].pre_null, 2);
        assert_eq!(format!("{a}"), "sites=2 executions=4 pre_null=3");
    }

    #[test]
    fn merge_of_empty_stats_is_identity_both_ways() {
        let m = MethodId(0);
        let mut populated = BarrierStats::default();
        populated.add_site(m, addr(0), StoreKind::Field, 1, 1, 12);
        let before: HashMap<_, _> = populated.iter().map(|(k, v)| (*k, *v)).collect();

        // populated.merge(empty) changes nothing.
        populated.merge(&BarrierStats::default());
        let after: HashMap<_, _> = populated.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(before, after);

        // empty.merge(populated) reproduces populated exactly.
        let mut empty = BarrierStats::default();
        empty.merge(&populated);
        let copied: HashMap<_, _> = empty.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(copied, before);
        assert_eq!(empty.totals(), populated.totals());
        assert_eq!(cycles(&empty), 12);

        // empty.merge(empty) stays empty.
        let mut e1 = BarrierStats::default();
        e1.merge(&BarrierStats::default());
        assert_eq!(e1.site_count(), 0);
        assert_eq!(e1.totals(), (0, 0));
        assert_eq!(cycles(&e1), 0);
    }

    #[test]
    fn merge_accumulates_same_site_across_runs() {
        // Three "runs" each touch the same (method, addr, kind) site;
        // merged stats must sum executions, pre_null, and cycles rather
        // than overwrite.
        let m = MethodId(2);
        let mut total = BarrierStats::default();
        for run in 0..3u64 {
            let mut one = BarrierStats::default();
            let pre_null = u64::from(run % 2 == 0);
            one.add_site(m, addr(5), StoreKind::Array, 1, pre_null, 10 + run);
            total.merge(&one);
        }
        assert_eq!(total.site_count(), 1);
        let sites: HashMap<_, _> = total.iter().map(|(k, v)| (*k, *v)).collect();
        let s = sites[&(m, addr(5), StoreKind::Array)];
        assert_eq!(s.executions, 3);
        assert_eq!(s.pre_null, 2);
        assert_eq!(s.cycles, 10 + 11 + 12);
    }

    #[test]
    fn summarize_counts_site_only_under_its_executed_store_kind() {
        // The same (method, addr) executed as a Field store must not
        // leak into the Array row of the summary, and vice versa: the
        // StoreKind is part of the site key.
        let m = MethodId(3);
        let mut st = BarrierStats::default();
        st.add_site(m, addr(7), StoreKind::Field, 2, 2, 0);
        let s = st.summarize(&ElidedBarriers::new());
        assert_eq!(s.field_total, 2);
        assert_eq!(s.array_total, 0);
        assert_eq!(s.pct_field(), 100.0);

        // Elision applies per (method, addr): if the same addr later
        // executes as an Array store, both kinds count as eliminated,
        // each under its own row.
        let mut elided = ElidedBarriers::new();
        elided.insert(m, addr(7));
        st.add_site(m, addr(7), StoreKind::Array, 1, 1, 0);
        assert_eq!(st.site_count(), 2);
        let s = st.summarize(&elided);
        assert_eq!(s.field_total, 2);
        assert_eq!(s.field_eliminated, 2);
        assert_eq!(s.array_total, 1);
        assert_eq!(s.array_eliminated, 1);
    }

    #[test]
    fn cycles_alone_create_a_site_and_display_ignores_cycles() {
        let m = MethodId(4);
        let mut st = BarrierStats::default();
        // Cycles with no execution create the site with zero
        // executions (the profiler treats that as suspicious but
        // merge/totals must stay consistent).
        st.add_site(m, addr(0), StoreKind::Field, 0, 0, 7);
        assert_eq!(st.site_count(), 1);
        assert_eq!(st.totals(), (0, 0));
        assert_eq!(cycles(&st), 7);
        st.add_site(m, addr(0), StoreKind::Field, 1, 0, 0);
        assert_eq!(st.totals(), (1, 0));
        // Display keeps its pinned executions/pre_null shape.
        assert_eq!(format!("{st}"), "sites=1 executions=1 pre_null=0");
    }

    #[test]
    fn elided_barriers_collection_api() {
        let m = MethodId(1);
        let e: ElidedBarriers = vec![(m, addr(0)), (m, addr(2))].into_iter().collect();
        assert_eq!(e.len(), 2);
        assert!(e.contains(m, addr(0)));
        assert!(!e.contains(m, addr(1)));
        assert!(!e.is_empty());
        let mut e2 = ElidedBarriers::new();
        e2.extend(e.iter());
        assert_eq!(e2.len(), 2);
    }
}
