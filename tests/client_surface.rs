//! Golden for what the §6 clients and the §4.3 extension answer per
//! method — the parts of the analysis surface `analysis_surface.golden`
//! does not reach.
//!
//! `client_surface.golden` was written by this same test running
//! against the analysis as it stood while null-or-same had a worklist
//! solver of its own beside the pre-null one. Each client line
//! digests, for one (program, inline limit, configuration), every
//! method's bounds-safe accesses and stack-allocatable sites (both
//! clients read one [`MethodSolution`] of the method) and its
//! null-or-same sites (from [`analyze_program_with`]);
//! each `B` line digests the null-or-same sites `compile` reports in
//! baseline mode, where no pre-null analysis runs beside it. The rows
//! are the eight suite programs and the three `testdata/*.wbe` files.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced to the test scratch directory
//! and names the file.

use std::collections::BTreeSet;

use wbe_repro::analysis::{
    analyze_program_with, bounds, stackalloc, AnalysisConfig, MethodSolution, Products,
};
use wbe_repro::ir::{parse_program, Program};
use wbe_repro::opt::{compile, OptMode, PipelineConfig};

const PROGRAMS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];
/// `testdata/*.wbe`: `hashtable` is §4.3's idiom, `expand` Figure 2's
/// copy loop.
const TESTDATA: [&str; 3] = ["expand.wbe", "hashtable.wbe", "w1w2.wbe"];
const LIMITS: [usize; 2] = [0, 100];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `count:digest` of one set per method, in method order.
fn digest<T: std::fmt::Debug>(per_method: &[BTreeSet<T>]) -> String {
    let count: usize = per_method.iter().map(BTreeSet::len).sum();
    format!("{count}:{:016x}", fnv1a(format!("{per_method:?}").bytes()))
}

fn clients_line(label: &str, program: &Program, limit: usize, config: &AnalysisConfig) -> String {
    let compiled = compile(program, &PipelineConfig::new(OptMode::Baseline, limit));
    let program = &compiled.program;
    let (mut bounds_safe, mut stack) = (Vec::new(), Vec::new());
    for (_, method) in program.iter_methods() {
        let solution = MethodSolution::solve(program, method, config);
        let safe = bounds::analyze_solved(&solution).safe;
        bounds_safe.push(safe.iter().map(|a| a.to_string()).collect::<BTreeSet<_>>());
        let sites = stackalloc::analyze_solved(&solution).stack_allocatable;
        stack.push(sites.iter().map(|s| format!("{s:?}")).collect());
    }
    let products = Products {
        null_or_same: true,
        ..Products::default()
    };
    let nos: Vec<BTreeSet<String>> = analyze_program_with(program, config, products)
        .null_or_same
        .values()
        .map(|sites| sites.iter().map(|a| a.to_string()).collect())
        .collect();
    format!(
        "{label} bounds={} stack={} nos={}\n",
        digest(&bounds_safe),
        digest(&stack),
        digest(&nos),
    )
}

fn baseline_line(label: &str, program: &Program, limit: usize) -> String {
    let config = PipelineConfig::new(OptMode::Baseline, limit).with_null_or_same();
    let compiled = compile(program, &config);
    assert!(
        compiled.analysis.is_none(),
        "baseline runs no pre-null analysis"
    );
    let per_method: Vec<_> = compiled.null_or_same.values().cloned().collect();
    assert_eq!(per_method.len(), compiled.program.methods.len());
    format!("{label} nos={}\n", digest(&per_method))
}

fn render() -> String {
    let classic = AnalysisConfig {
        flow_sensitive_escape: false,
        ..AnalysisConfig::full()
    };
    let suite = PROGRAMS.map(|name| {
        let w = wbe_repro::workloads::by_name(name).expect("suite program");
        (name.to_string(), w.program)
    });
    let testdata = TESTDATA.map(|file| {
        let path = format!("{}/testdata/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("testdata is shipped");
        (
            file.to_string(),
            parse_program(&text).expect("testdata parses"),
        )
    });
    let mut out = String::new();
    for (name, program) in suite.iter().chain(&testdata) {
        for limit in LIMITS {
            for (what, config) in [
                ("F", AnalysisConfig::field_only()),
                ("A", AnalysisConfig::full()),
                ("A/classic-escape", classic),
            ] {
                let label = format!("{name}/{limit}/{what}");
                out.push_str(&clients_line(&label, program, limit, &config));
            }
            out.push_str(&baseline_line(&format!("{name}/{limit}/B"), program, limit));
        }
    }
    out
}

#[test]
fn client_surface_matches_the_golden_file() {
    let golden = include_str!("client_surface.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("client_surface.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "client output differs from client_surface.golden at line {}; \
             what this run produced is in {}",
            line + 1,
            path.display()
        );
    }
}

/// The rows reach what the golden file is meant to pin.
#[test]
fn golden_covers_the_grid_and_is_not_vacuous() {
    let golden = include_str!("client_surface.golden");
    assert_eq!(
        golden.lines().count(),
        (PROGRAMS.len() + TESTDATA.len()) * LIMITS.len() * 4
    );
    // The summed counts of `key` over the rows whose label has `rows`.
    let total = |key: &str, rows: &str| -> usize {
        golden
            .lines()
            .filter(|l| l.contains(rows))
            .filter_map(|l| {
                let rest = &l[l.find(key)? + key.len()..];
                rest.split(':').next()?.parse::<usize>().ok()
            })
            .sum()
    };
    assert!(total("bounds=", "") > 0, "some bounds check is removed");
    assert!(total("stack=", "") > 0, "some site is stack-allocatable");
    assert!(total("nos=", "/A ") > 0, "some site is null-or-same");
    assert!(total("nos=", "/B ") > 0, "baseline mode runs null-or-same");
}
