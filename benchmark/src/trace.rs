//! The process clock and the traced run's span log.
//!
//! Spans are recorded from the benchmark's own files only, around its calls
//! into the product; the generator is single-threaded, so the log is a plain
//! `Vec` kept in memory and written out once, when the run ends.

use finbench_telemetry::json::Json;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at the top of `main`): the one
/// clock latencies, schedules and spans share.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Index of a span in the log. `ROOT` as a parent means "no parent"; it is
/// also what `begin` hands out while the tracer is off, and ending it does
/// nothing, so callers trace unconditionally.
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Request id for spans of one request, kernel/rung index otherwise.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Off until `set_on(true)`: an untraced phase runs the same code and
/// records nothing.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start_ns: u64,
    ) -> SpanId {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        self.begin_at(name, parent, req, now_ns())
    }

    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        if id != ROOT {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    pub fn end(&mut self, id: SpanId) {
        if id != ROOT {
            self.end_at(id, now_ns());
        }
    }

    /// Durations (ns) of every finished span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover (children of one span never overlap here).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON object per span: `workload`, `id`, `parent` (null at the
    /// root), `name`, `req`, `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = match s.parent {
                ROOT => Json::Null,
                p => Json::Num(p as f64),
            };
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("id".into(), Json::Num(id as f64)),
                ("parent".into(), parent),
                ("name".into(), Json::Str(s.name.into())),
                ("req".into(), Json::Num(s.req as f64)),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(own as f64)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        assert_eq!(
            t.begin_at("request", ROOT, 7, 100),
            ROOT,
            "off records nothing"
        );
        t.end(ROOT);
        t.set_on(true);
        let root = t.begin_at("request", ROOT, 7, 100);
        let a = t.begin_at("serve.submit", root, 7, 110);
        t.end_at(a, 130);
        let b = t.begin_at("serve.inflight", root, 7, 130);
        t.end_at(b, 900);
        t.end_at(root, 1000);
        assert_eq!(t.self_times(), vec![110, 20, 770]);
        assert_eq!(t.durations("serve.submit"), vec![20.0]);
        assert!(t.durations("nope").is_empty());
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let mut t = Tracer::default();
        t.set_on(true);
        let root = t.begin_at("native.body", ROOT, 3, 5);
        let step = t.begin_at("native.step", root, 3, 6);
        t.end_at(step, 9);
        t.end_at(root, 10);
        let mut text = Vec::new();
        t.write_jsonl("native_ladder", &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|l| finbench_telemetry::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(Json::as_str),
            Some("native.step")
        );
        assert_eq!(lines[0].get("self_ns").and_then(Json::as_f64), Some(2.0));
    }
}
