//! Host-time spans recorded by the benchmark around its calls into the
//! program's public functions.
//!
//! Spans live in memory and are written out once, when the run ends.
//! Each span has a name, start and end (ns since the recorder was made),
//! the index of the span that was open around it, and an identifier:
//! the request index for per-call spans, so spans of one request share
//! it. A disabled recorder runs the timed closure and nothing else, so
//! untraced runs pay no clock reads.

use std::fmt::Write as _;
use std::time::Instant;

/// No enclosing span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    id: u64,
}

/// In-memory span recorder.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses those recorded until [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: 0,
        });
    }

    /// Closes the innermost span opened by [`Spans::enter`].
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` with identifier `id`.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        r
    }

    /// Mean duration (ns) of the spans named `name`; 0 when there are
    /// none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Forgets every recorded span.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Writes every span as JSON: `{"spans": [[name, start_ns, end_ns,
    /// parent, id], ...]}`, `parent` being an index into the list or -1.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48 + 16);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "[\"{}\", {}, {}, {}, {}]{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.id,
                if i + 1 < self.spans.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
