//! Host-time spans recorded around the benchmark's calls into the
//! simulator's public API.
//!
//! Spans live in memory and are written once, as a Chrome trace
//! (`chrome://tracing` or Perfetto), when the benchmark ends. A disabled
//! tracer still times each call, because the untraced phases need the
//! durations, but it keeps no spans.

use numa_gpu_testkit::json::Json;
use std::time::Instant;

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    job: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times calls
    /// otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a phase span that later spans name as their parent; close it
    /// with [`Tracer::close`]. Returns `None` when the tracer is off.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            job: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Runs `f`, returning its result and its host time in seconds, and
    /// records a span `name` under `parent` (tagged with `job`, so every
    /// span of one job shares an id) when the tracer is on.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        job: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.on {
            let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us + secs * 1e6,
                parent,
                job,
            });
        }
        (out, secs)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome `trace_event` document: one complete (`X`)
    /// event per span, with its id, parent and job in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::UInt(v as u64));
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Float(s.start_us)),
                    ("dur", Json::Float(s.end_us - s.start_us)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::UInt(id as u64)),
                            ("parent", opt(s.parent)),
                            ("job", opt(s.job)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_times_but_keeps_no_spans() {
        let mut t = Tracer::new(false);
        let phase = t.open("phase", None);
        let (v, secs) = t.time("call", phase, Some(0), || 7);
        t.close(phase);
        assert_eq!((v, phase, t.len()), (7, None, 0));
        assert!(secs >= 0.0);
    }

    #[test]
    fn spans_nest_under_their_phase_and_export() {
        let mut t = Tracer::new(true);
        let phase = t.open("phase", None);
        t.time("call", phase, Some(3), || ());
        t.close(phase);
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("job").and_then(Json::as_u64), Some(3));
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        assert!(dur(&events[0]) >= dur(&events[1]));
    }
}
