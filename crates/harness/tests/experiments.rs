//! Golden for the paper's experiments beyond Table 1.
//!
//! Every experiment the `experiments` binary prints is deterministic
//! except Fig. 2's compile-time panel, so each is pinned here as
//! rendered, at the scale `experiments all --scale 0.1` runs it.
//! `golden_table1.rs` pins Table 1. Byte equality after a change to how
//! the experiments compile and run their workloads says the numbers
//! were not moved by it.
//!
//! To regenerate after an intended behaviour change, run the tests: a
//! mismatching section is written to the test scratch directory and the
//! failure names the file.

use wbe_harness::{
    clients, combined, ext, fig2, fig3, pause, rearrange_exp, static_counts, table2,
};

/// The `--scale` of `experiments all --scale 0.1`; each experiment
/// below is called with the multiple of it the binary passes.
const SCALE: f64 = 0.1;

/// Compares `actual` with the stanza of the golden file headed
/// `== section`.
fn check(section: &str, actual: &str) {
    let golden = include_str!("experiments.golden");
    let head = format!("== {section}\n");
    let start = golden
        .find(&head)
        .unwrap_or_else(|| panic!("experiments.golden has no section '{section}'"))
        + head.len();
    let rest = &golden[start..];
    let expected = &rest[..rest.find("\n== ").map_or(rest.len(), |i| i + 1)];
    if actual == expected {
        return;
    }
    let name = format!("experiments.{}.actual", section.replace([' ', '/'], "_"));
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, actual).expect("scratch directory is writable");
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "section '{section}' differs from experiments.golden at its line {}; wrote {}",
        line + 1,
        path.display()
    );
}

#[test]
fn table2_is_pinned() {
    check("table2", &table2::run(SCALE * 0.2).to_string());
}

#[test]
fn fig2_elision_panel_is_pinned() {
    let fig = fig2::run(SCALE * 0.25).to_string();
    let panel_a = &fig[..fig.find("(b)").expect("Fig. 2 has a panel (b)")];
    check("fig2 (a)", panel_a);
}

#[test]
fn fig3_is_pinned() {
    check("fig3", &fig3::run().to_string());
}

#[test]
fn static_counts_are_pinned() {
    check("static", &static_counts::run(SCALE * 0.25).to_string());
}

#[test]
fn pause_is_pinned() {
    check("pause", &pause::run(SCALE).to_string());
}

#[test]
fn null_or_same_extension_is_pinned() {
    check("ext", &ext::run(SCALE * 0.25).to_string());
}

#[test]
fn combined_is_pinned() {
    check("combined", &combined::run(SCALE * 0.25).to_string());
}

#[test]
fn rearrangement_protocol_is_pinned() {
    check("rearrange", &rearrange_exp::run(SCALE * 0.25).to_string());
}

#[test]
fn clients_are_pinned() {
    check("clients", &clients::run().to_string());
}
