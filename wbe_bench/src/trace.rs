//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; spans inside the program are a later change. A span
//! carries its layer (the module it calls into), a name, start and end
//! in nanoseconds since the recorder was created, the span that caused
//! it, and the workload id. Everything stays in memory until the pass
//! ends; [`Recorder::write_ndjson`] writes it out afterwards.
//!
//! A layer's self time is its spans' duration minus the part covered
//! by their child spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer name of spans that are the benchmark's own driver code.
pub const BENCH_LAYER: &str = "bench";

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer (module) the spanned call enters.
    pub layer: &'static str,
    /// Call name.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Workload id (index into the benchmark's workload list).
    pub workload: u32,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// The recorder. Disabled (the timed reps) it costs one branch per
/// call and records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    workload: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            workload: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder for workload `workload`.
    pub fn on(workload: u32) -> Recorder {
        Recorder {
            enabled: true,
            workload,
            ..Recorder::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            workload: self.workload,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Spans `f`, a single call into `layer`.
    #[inline]
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus child coverage.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                own[p as usize] = own[p as usize].saturating_sub(d);
            }
        }
        own
    }

    /// Self time summed per layer, in ns.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.layer).or_insert(0) += own;
        }
        by
    }

    /// Total duration and call count of the spans named `layer`/`name`.
    pub fn total(&self, layer: &str, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Durations of the spans named `layer`/`name`, in ns.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Wall covered by root spans, in ns.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_ndjson(&self, path: &Path, workload_name: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload_id\":{},\"workload\":\"{workload_name}\",\"self_ns\":{own}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.workload
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::on(3);
        let outer = rec.enter(BENCH_LAYER, "outer");
        rec.call("layer-a", "work", || std::hint::black_box(1 + 1));
        rec.call("layer-a", "work", || std::hint::black_box(2 + 2));
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].workload, 3);
        let own = rec.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(rec.total("layer-a", "work"), (dur(1) + dur(2), 2));
        assert_eq!(rec.root_ns(), dur(0));
        let by = rec.self_ns_by_layer();
        assert_eq!(by["layer-a"], dur(1) + dur(2));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut rec = Recorder::off();
        let id = rec.enter(BENCH_LAYER, "x");
        assert_eq!(rec.call("l", "n", || 7), 7);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }
}
