//! Spans recorded from the benchmark's own files around calls into each
//! crate. Spans stay in memory and are written as JSON lines once the
//! run ends, so writing them never lands inside a measured interval.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// An open span: closing it yields its duration.
#[must_use]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Open {
    /// Identifier of the span, for use as a child's parent (`None` when
    /// tracing is off).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

struct Span {
    name: &'static str,
    step: Option<usize>,
    config: Option<&'static str>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Times intervals always; records them as spans only when tracing is on.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span. `step` is the measured step it belongs to, `config`
    /// the kernel configuration of the simulation it ran on.
    pub fn open(
        &mut self,
        name: &'static str,
        step: Option<usize>,
        config: Option<&'static str>,
        parent: Option<usize>,
    ) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                step,
                config,
                parent,
                start: start - self.origin,
                end: Duration::ZERO,
            });
            self.spans.len() - 1
        });
        Open { id, start }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end = end - self.origin;
        }
        (end - open.start).as_secs_f64()
    }

    /// Writes one JSON object per span: id, name, workload, step,
    /// config, start and end in ns since the run began, and parent id.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let config = s.config.map_or("null".to_string(), |c| format!("\"{c}\""));
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{workload}\",\"step\":{},\"config\":{config},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                opt(s.step),
                s.start.as_nanos(),
                s.end.as_nanos(),
                opt(s.parent),
            )?;
        }
        out.flush()
    }
}
