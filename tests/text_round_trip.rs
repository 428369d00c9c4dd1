//! Text-format round trips over the entire workload suite: printing
//! and re-parsing must preserve the program exactly — including the
//! analyses' results.

use wbe_repro::analysis::{analyze_program, AnalysisConfig};
use wbe_repro::ir::display::program_display;
use wbe_repro::ir::parse_program;
use wbe_repro::workloads::standard_suite;

#[test]
fn workloads_round_trip_structurally() {
    for w in standard_suite() {
        let text = program_display(&w.program).to_string();
        let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(parsed, w.program, "{} round trip differs", w.name);
        // Second print is byte-identical (fixed point).
        assert_eq!(program_display(&parsed).to_string(), text, "{}", w.name);
    }
}

#[test]
fn round_tripped_programs_analyze_identically() {
    for w in standard_suite() {
        let text = program_display(&w.program).to_string();
        let parsed = parse_program(&text).unwrap();
        let a = analyze_program(&w.program, &AnalysisConfig::full());
        let b = analyze_program(&parsed, &AnalysisConfig::full());
        let sa: Vec<_> = a.iter_elided().collect();
        let sb: Vec<_> = b.iter_elided().collect();
        assert_eq!(
            sa, sb,
            "{}: elision results differ after round trip",
            w.name
        );
    }
}

#[test]
fn parsed_programs_pass_the_verifier() {
    for w in standard_suite() {
        let text = program_display(&w.program).to_string();
        let parsed = parse_program(&text).unwrap();
        parsed.validate().unwrap();
    }
}
