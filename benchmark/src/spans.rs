//! Spans around the harness's calls into each layer.
//!
//! Nothing inside the program is instrumented: a span opens in the
//! harness just before it calls a layer's public function and closes when
//! the call returns. Spans are kept in memory and written out when the
//! run ends. With tracing off every method is one branch on `enabled`, so
//! the end-to-end runs and the traced run execute the same harness code.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one opened.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Total duration and total self time per span name, nanoseconds, in
    /// first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, usize)> {
        let mut out: Vec<(&'static str, u64, u64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = self.self_ns(i);
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += s.end_ns - s.start_ns;
                    row.2 += self_ns;
                    row.3 += 1;
                }
                None => out.push((s.name, s.end_ns - s.start_ns, self_ns, 1)),
            }
        }
        out
    }

    /// The dump `out/trace-<workload>.json` holds: every span of the
    /// repetition (one request, so all share `"request"`), then per-name
    /// totals with self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"request\": \"{workload}-{seed}\",\n  \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],\n  \"totals\": [");
        let totals = self.totals();
        for (i, (name, total, self_ns, count)) in totals.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \
                 \"self_ns\": {self_ns}}}{}",
                if i + 1 < totals.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}
