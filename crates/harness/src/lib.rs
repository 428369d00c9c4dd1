#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | T1 | Table 1 (dynamic elimination) | [`table1`] |
//! | F2 | Figure 2 (inline limit sweep) | [`fig2`] |
//! | F3 | Figure 3 (code size)          | [`fig3`] |
//! | T2 | Table 2 (jbb throughput)      | [`table2`] |
//! | P0 | §1/§4.5 pause claim           | [`pause`] |
//! | X1 | §4.3 null-or-same extension   | [`ext`]   |
//! | X2 | §4.3 rearrangement protocol   | [`rearrange_exp`] |
//! | X3 | §6 framework clients          | [`clients`] |
//! | S1 | §4.2 static counts (TR)       | [`static_counts`] |
//! | X4 | all techniques stacked        | [`combined`] |
//!
//! The `experiments` binary prints any of them:
//! `cargo run -p wbe-harness --bin experiments -- table1`.
//!
//! [`site`] is the one observed run: every experiment that executes a
//! workload is a fold over [`site::observe`] under a
//! [`site::RunSpec::paper`] spec, and `profile`, `oracle`, `baselines`,
//! `soak` and `wbe_tool report`/`explain` read its per-site join.
//! [`ledger`] backs the `wbe_tool explain`, `ledger`, and `ledger-diff`
//! commands, [`baselines`] backs `wbe_tool bench --check-baselines`,
//! and [`mcheck`] the interleaving model-checker CLI.

/// Serializes measurements that reset the global telemetry registry
/// ([`baselines::measure`], [`profile::measure`]): the default test
/// runner is multi-threaded, and a concurrent reset mid-run would
/// clobber another measurement's histograms.
pub(crate) fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// [`registry_lock`] with metric collection on and tracing as it was:
/// what a suite measurement holds from its first reset to its last
/// snapshot.
pub(crate) fn measuring() -> std::sync::MutexGuard<'static, ()> {
    let guard = registry_lock();
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
        metrics: true,
        tracing: wbe_telemetry::tracing_enabled(),
    });
    guard
}

/// `num` as a percentage of `den`, and 0 when `den` is.
pub(crate) fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

pub mod baselines;
pub mod clients;
pub mod combined;
pub mod ext;
pub mod fig2;
pub mod fig3;
pub mod ledger;
pub mod mcheck;
pub mod oracle;
pub mod pause;
pub mod profile;
pub mod rearrange_exp;
pub mod serve;
pub mod site;
pub mod soak;
pub mod static_counts;
pub mod table1;
pub mod table2;
pub mod verify;
