//! The benchmark's own spans, recorded around its calls into the layers:
//! `process > {reference, rep[i] > {setup, run, check}, traced_rep, ...}`.
//! Kept in memory; written out once, when the benchmark ends.

use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: String,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of whichever span is open.
    /// Returns `f`'s result and the span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_ns - c.start_ns).sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("name", Json::str(&s.name)),
                        ("start_us", us(s.start_ns)),
                        ("end_us", us(s.end_ns)),
                        ("self_us", us(self.self_ns(id))),
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
    fn spans_nest_and_self_time_excludes_children() {
        let mut sp = Spans::new();
        sp.time("process", |sp| {
            sp.time("rep[0]", |sp| {
                sp.time("setup", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
                sp.time("run", |_| std::thread::sleep(std::time::Duration::from_millis(3)));
            });
        });
        let names: Vec<_> = sp.spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            names,
            [("process", None), ("rep[0]", Some(0)), ("setup", Some(1)), ("run", Some(1))]
        );
        let dur = |i: usize| sp.spans[i].end_ns - sp.spans[i].start_ns;
        assert!(dur(2) >= 2_000_000 && dur(3) >= 3_000_000);
        assert_eq!(sp.self_ns(1), dur(1) - dur(2) - dur(3));
        assert_eq!(sp.self_ns(3), dur(3));
        assert!(sp.open.is_empty());
    }
}
