//! Spans recorded by the traced run around each call into a layer.
//!
//! A span has a name, the layer it charges, the operation (cell or
//! request) it belongs to, a parent, and start/end offsets from a shared
//! epoch. Spans stay in memory and are written out as JSONL when the run
//! ends. A layer's self time is the sum of its spans' durations minus the
//! part covered by their child spans.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The repository layers a span can charge, plus the benchmark's own
/// bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `workloads`: `CellSetup::new` (data generation, program build,
    /// `gpu-isa` decode).
    Setup,
    /// `gpu-sim`: `WarmSlot::bind` (cold `Gpu::new` or `reset_bind`).
    Bind,
    /// `gpu-sim` and below: the simulation inside `CellSetup::run_warm`.
    Run,
    /// `gpu-trace`: `gpu_trace::export`.
    Trace,
    /// `gpu-serve`: daemon start, client connect/submit/wait/trace.
    Serve,
    /// The benchmark itself: result checks and bookkeeping.
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Setup,
        Layer::Bind,
        Layer::Run,
        Layer::Trace,
        Layer::Serve,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Bind => "bind",
            Layer::Run => "run",
            Layer::Trace => "trace",
            Layer::Serve => "serve",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    layer: Layer,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle of an open span; inert when recording is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// One thread's span log.
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Spans {
        Spans {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under `parent` (`None` for a root).
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: Layer,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            layer,
            op,
            parent: parent.and_then(|p| p.0),
            start,
            end: start,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    /// Appends another thread's log (same epoch), re-basing its parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in [`Layer::ALL`] order, over the spans
    /// recorded from index `from` on.
    pub fn self_times(&self, from: usize) -> [Duration; 6] {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = [Duration::ZERO; 6];
        for (s, c) in self.spans.iter().zip(&child).skip(from) {
            let i = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("every layer is in Layer::ALL");
            out[i] += (s.end - s.start).saturating_sub(*c);
        }
        out
    }

    /// Writes the log as JSONL (one span per line, times in ns).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.layer.name(),
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
