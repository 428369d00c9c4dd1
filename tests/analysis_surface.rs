//! Golden for everything the analysis lets a caller see.
//!
//! `analysis_surface.golden` was written by this same test running
//! against the analysis as it stood while σ/`Len`/`NR` were plain
//! `BTreeMap`s copied per block visit and `retire_site` rebuilt σ on
//! every allocation. Each line digests, for one (program, inline limit,
//! mode), the text dump (every block's ρ/stk/NL/σ/Len/NR as rendered
//! plus every site line), the ledger's NDJSON, the sorted null-or-same
//! sites and the per-method iteration counts, so byte equality pins
//! every judgment, every evidence string and the iteration order of
//! both solvers. The two ablation rows are the only users of the
//! summary-reference and `pinned_nl` paths through the allocation
//! transfer.
//!
//! Beside the golden, [`each_ablation_elides_fewer_sites_than_the_full_analysis`]
//! holds EXPERIMENTS.md's ablation table as inequalities on suite
//! elision counts.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced to the test scratch directory
//! and names the file.

use wbe_repro::analysis::AnalysisConfig;
use wbe_repro::opt::{compile_with_dump, OptMode, PipelineConfig};

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
const LIMITS: [usize; 5] = [0, 25, 50, 100, 200];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden line: the digests of everything `config` produces on the
/// suite program `name`.
fn line(label: &str, name: &str, config: PipelineConfig) -> String {
    let w = wbe_repro::workloads::by_name(name).expect("suite program");
    let config = config.with_fold().with_null_or_same().with_ledger();
    let (compiled, dump) = compile_with_dump(&w.program, &config);
    let dump = dump.expect("an analysing mode renders a dump");
    let ledger = compiled.ledger.as_ref().expect("ledger asked for");
    let mut nos = compiled.null_or_same_sites();
    nos.sort();
    let analysis = compiled.analysis.as_ref().expect("analysis ran");
    let iterations: Vec<usize> = analysis.methods.values().map(|m| m.iterations).collect();
    format!(
        "{label} dump={:016x} ledger={:016x} nos={}:{:016x} iterations={}:{:016x} elided={} records={}\n",
        fnv1a(dump.bytes()),
        fnv1a(ledger.to_ndjson().bytes()),
        nos.len(),
        fnv1a(format!("{nos:?}").bytes()),
        iterations.iter().sum::<usize>(),
        fnv1a(format!("{iterations:?}").bytes()),
        analysis.total_elided(),
        ledger.records.len(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for name in PROGRAMS {
        for limit in LIMITS {
            for mode in [OptMode::FieldOnly, OptMode::Full] {
                let label = format!("{name}/{limit}/{}", mode.label());
                out.push_str(&line(&label, name, PipelineConfig::new(mode, limit)));
            }
        }
    }
    let ablations = [
        (
            "single-ref",
            AnalysisConfig {
                two_refs_per_site: false,
                ..AnalysisConfig::full()
            },
        ),
        (
            "classic-escape",
            AnalysisConfig {
                flow_sensitive_escape: false,
                ..AnalysisConfig::full()
            },
        ),
    ];
    for (what, analysis) in ablations {
        let mut config = PipelineConfig::new(OptMode::Full, 100);
        config.analysis_override = Some(analysis);
        out.push_str(&line(&format!("jbb/100/A/{what}"), "jbb", config));
    }
    out
}

#[test]
fn analysis_surface_matches_the_golden_file() {
    let golden = include_str!("analysis_surface.golden");
    let actual = render();
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_surface.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "analysis output differs from analysis_surface.golden at line {}; \
             what this run produced is in {}",
            line + 1,
            path.display()
        );
    }
}

/// The rows reach what the golden file is meant to pin.
#[test]
fn golden_covers_the_grid_and_is_not_vacuous() {
    let golden = include_str!("analysis_surface.golden");
    assert_eq!(
        golden.lines().count(),
        PROGRAMS.len() * LIMITS.len() * 2 + 2
    );
    let field = |l: &str, key: &str| -> String {
        let rest = &l[l.find(key).expect("field present") + key.len()..];
        rest.split_whitespace().next().unwrap_or("").to_string()
    };
    let total = |key: &str| -> usize {
        golden
            .lines()
            .map(|l| {
                field(l, key)
                    .split(':')
                    .next()
                    .and_then(|n| n.parse::<usize>().ok())
                    .expect("count")
            })
            .sum()
    };
    assert!(total("elided=") > 0, "some site is elided");
    assert!(total("nos=") > 0, "some site is null-or-same");
    assert!(total("records=") > total("elided="), "some site is kept");
    // Mode A sees array sites F does not: the two dumps of a cell differ.
    let dumps: Vec<String> = golden.lines().map(|l| field(l, "dump=")).collect();
    assert!(dumps.chunks(2).take(40).any(|c| c[0] != c[1]));
    // The ablations change what the analysis proves on jbb/100.
    let jbb = golden
        .lines()
        .find(|l| l.starts_with("jbb/100/A "))
        .expect("row");
    for l in golden.lines().filter(|l| l.starts_with("jbb/100/A/")) {
        assert_ne!(field(l, "ledger="), field(jbb, "ledger="), "{l}");
    }
}

/// EXPERIMENTS.md, "Ablations": what each design choice DESIGN §5 calls
/// out buys, as elided-site counts over the standard suite at inline
/// limit 100. Stride inference is the exception the table records: the
/// suite's four elided `aastore`s sit at constant indices, so it is
/// Figure 2's `expand` loop that shows what it is for.
#[test]
fn each_ablation_elides_fewer_sites_than_the_full_analysis() {
    use wbe_repro::analysis::Verdict;
    use wbe_repro::ir::Program;
    let suite: Vec<Program> = wbe_repro::workloads::standard_suite()
        .into_iter()
        .map(|w| w.program)
        .collect();
    let expand =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/expand.wbe"))
            .expect("testdata is shipped");
    let expand = [wbe_repro::ir::parse_program(&expand).expect("testdata parses")];
    // (all elided sites, elided `aastore` sites) across `programs`.
    let elided = |programs: &[Program], analysis: AnalysisConfig| -> (usize, usize) {
        let mut config = PipelineConfig::new(OptMode::Full, 100).with_ledger();
        config.analysis_override = Some(analysis);
        let mut counts = (0, 0);
        for p in programs {
            let ledger = wbe_repro::opt::compile(p, &config)
                .ledger
                .expect("ledger asked for");
            counts.0 += ledger.elided();
            counts.1 += ledger
                .records
                .iter()
                .filter(|r| r.kind == "aastore" && r.verdict == Verdict::Elide)
                .count();
        }
        counts
    };
    let full = elided(&suite, AnalysisConfig::full());
    assert!(full.1 > 0, "the full analysis elides array stores");
    let single_ref = AnalysisConfig {
        two_refs_per_site: false,
        ..AnalysisConfig::full()
    };
    let classic_escape = AnalysisConfig {
        flow_sensitive_escape: false,
        ..AnalysisConfig::full()
    };
    let no_stride = AnalysisConfig {
        stride_inference: false,
        ..AnalysisConfig::full()
    };
    for (what, analysis) in [
        ("single ref per site", single_ref),
        ("classic escape", classic_escape),
        ("field-only", AnalysisConfig::field_only()),
    ] {
        let ablated = elided(&suite, analysis);
        assert!(ablated.0 < full.0, "{what}: {ablated:?} against {full:?}");
    }
    assert_eq!(elided(&suite, AnalysisConfig::field_only()).1, 0);
    assert!(elided(&suite, no_stride).0 <= full.0);
    assert_eq!(elided(&expand, AnalysisConfig::full()), (1, 1));
    assert_eq!(elided(&expand, no_stride), (0, 0));
}
