//! One repetition's measurements, and the line protocol a child process
//! hands them to its parent with.
//!
//! A child prints `num <name> <value>`, `text <name> <value>` and
//! `fail <reason>` lines on its standard output; everything else it prints
//! is ignored. Values are written with Rust's shortest round-trip `f64`
//! formatting, so the parent reads back exactly what the child measured.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    pub nums: BTreeMap<String, f64>,
    pub texts: BTreeMap<String, String>,
    /// Named reasons a correctness check failed (empty = correct).
    pub failures: Vec<String>,
}

impl Sample {
    pub fn put(&mut self, name: &str, value: f64) {
        self.nums.insert(name.to_string(), value);
    }

    pub fn text(&mut self, name: &str, value: impl Into<String>) {
        self.texts.insert(name.to_string(), value.into());
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failures.push(reason.into());
    }

    /// Fail with `reason` unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .nums
            .get(name)
            .unwrap_or_else(|| panic!("sample has no `{name}`"))
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.nums {
            out.push_str(&format!("num {k} {v:?}\n"));
        }
        for (k, v) in &self.texts {
            out.push_str(&format!("text {k} {v}\n"));
        }
        for reason in &self.failures {
            out.push_str(&format!("fail {}\n", reason.replace('\n', " ")));
        }
        out
    }

    pub fn from_lines(lines: &str) -> Sample {
        let mut s = Sample::default();
        for line in lines.lines() {
            let Some((kind, rest)) = line.split_once(' ') else {
                continue;
            };
            match (kind, rest.split_once(' ')) {
                ("fail", _) => s.failures.push(rest.to_string()),
                ("num", Some((name, value))) => {
                    if let Ok(v) = value.parse() {
                        s.nums.insert(name.to_string(), v);
                    }
                }
                ("text", Some((name, value))) => {
                    s.texts.insert(name.to_string(), value.to_string());
                }
                _ => {}
            }
        }
        s
    }
}

/// FNV-1a 64 of a report digest: the digests are megabytes of CSV, the
/// parent only needs to know whether two of them are byte-identical.
pub fn fnv64(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
