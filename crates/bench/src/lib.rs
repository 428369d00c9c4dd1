//! Home of `benches/ablations.rs`: the analysis with one design choice
//! switched off at a time (two-refs-per-site, flow-sensitive escape,
//! stride inference), timed over the suite with the elision counts
//! printed once — the table DESIGN.md §5 cites. Every other
//! measurement is `wbe_bench/`'s, the repo's one benchmark.
