//! In-memory wall-clock spans recorded around the calls the benchmark
//! makes into each layer.
//!
//! A disabled [`Tracer`] only runs the closure, so untraced passes pay
//! one branch per call. Spans are kept in memory and written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use cpx_obs::Json;

/// One recorded call: seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric name without its unit suffix, or a root kind
    /// (`setup`, `pass`, `probe`).
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. Nesting follows the call stack of [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer, recording only while enabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off between passes.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Run `f`, recording a span named `name` around it when enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// All closed spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one span never overlap (the run
/// is single-threaded), so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur();
        }
    }
    out
}

/// Self time summed by span name, over the spans whose root is one of
/// `roots` (a root is a span without a parent).
pub fn self_time_by_name(spans: &[Span], roots: &[&str]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if roots.contains(&root_of(spans, i).name) {
            *out.entry(s.name).or_insert(0.0) += selfs[i];
        }
    }
    out
}

fn root_of(spans: &[Span], mut i: usize) -> &Span {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    &spans[i]
}

/// Spans as JSON: one object per span with its index-based parent.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,10] ⊃ a [1,4] ⊃ b [2,3]; pass ⊃ c [5,9].
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
            span("c", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn by_name_sums_repeats_and_filters_roots() {
        let spans = vec![
            span("pass", 0.0, 4.0, None),
            span("a", 0.0, 1.0, Some(0)),
            span("a", 2.0, 3.5, Some(0)),
            span("probe", 4.0, 6.0, None),
            span("a", 4.0, 6.0, Some(3)),
        ];
        let pass_only = self_time_by_name(&spans, &["pass"]);
        assert_eq!(pass_only["a"], 2.5);
        assert_eq!(pass_only["pass"], 1.5);
        assert!(!pass_only.contains_key("probe"));
        let both = self_time_by_name(&spans, &["pass", "probe"]);
        assert_eq!(both["a"], 4.5);
        assert_eq!(both["probe"], 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("off", |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("pass", |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("c", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("pass", None),
                ("a", Some(0)),
                ("b", Some(1)),
                ("c", Some(0))
            ]
        );
        for s in t.spans() {
            assert!(s.end >= s.start);
        }
    }
}
