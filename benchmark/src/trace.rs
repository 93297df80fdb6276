//! In-memory spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is (name, start, end, parent, workload). Spans are kept in memory
//! and written once, when the benchmark ends. They live only in this package:
//! spans inside the crates are a later change, which this trace is then
//! checked against.

use std::time::Instant;

use lbm_sim::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub workload: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Timing itself never depends on the recorder: callers time
/// with [`Tracer::timed`], which always returns the measured seconds and only
/// *additionally* stores a span while recording is on. That is what lets one
/// measurement loop serve the untraced and the traced pass.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            workload: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Switch recording on or off (the traced pass alternates it per chunk to
    /// measure its own overhead).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The workload id attached to spans opened from now on.
    pub fn set_workload(&mut self, name: &str) {
        self.workload = name.to_string();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close a span returned by [`Self::open`] (a `None` from a non-recording
    /// open is accepted and ignored).
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`; returns its result and the wall
    /// seconds it took (measured whether or not a span was recorded).
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.open(name);
        let t0 = Instant::now();
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it its direct
    /// children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - covered
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Int(id as i64)),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("workload".into(), Json::Str(s.workload.clone())),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("start_ns".into(), Json::Int(s.start_ns as i64)),
                        ("end_ns".into(), Json::Int(s.end_ns as i64)),
                        ("self_s".into(), Json::Num(self.self_secs(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new(true);
        tr.set_workload("w");
        let root = tr.open("round");
        let a = tr.open("setup");
        let inner = tr.open("build");
        tr.close(inner);
        tr.close(a);
        let b = tr.open("chunk");
        tr.close(b);
        tr.close(root);
        // Replace the clock readings with known ones.
        let set = |tr: &mut Tracer, id: usize, s: u64, e: u64| {
            tr.spans[id].start_ns = s;
            tr.spans[id].end_ns = e;
        };
        set(&mut tr, 0, 0, 100);
        set(&mut tr, 1, 10, 50);
        set(&mut tr, 2, 20, 45);
        set(&mut tr, 3, 60, 90);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(tr.self_secs(0)), 100 - 40 - 30, "grandchild not counted");
        assert_eq!(ns(tr.self_secs(1)), 40 - 25);
        assert_eq!(ns(tr.self_secs(2)), 25);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[3].parent, Some(0));
        assert_eq!(tr.spans()[0].workload, "w");
    }

    #[test]
    fn timed_measures_without_recording() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.timed("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
        tr.set_recording(true);
        let _ = tr.timed("y", |tr| tr.timed("z", |_| ()));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }
}
