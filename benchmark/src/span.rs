//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer — the programs themselves carry no spans yet. They are held
//! in memory and written out once, as a Chrome trace, when the run ends.

use std::time::Instant;

/// One recorded interval. `name` is `<layer>.<what>`; the root span of a
/// run has no layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one traced run.
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: the part of its name before the
    /// first `.`, or `None` for a span that only groups others.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a span that is never ended has no duration"]
pub struct Open(usize);

/// Single-threaded span recorder: `begin`/`end` pairs nest, and the
/// innermost open span is the parent of the next one begun.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Open(id)
    }

    /// Ends a span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are ended out of nesting order — a bug in the
    /// harness that would corrupt every self time above it.
    pub fn end(&mut self, span: Open) -> f64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        let s = &mut self.spans[span.0];
        s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        s.dur_ns() as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children that overlap each other are counted
/// once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of durations, in seconds, of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Share of the span called `root` that is accounted to some layer: the
/// self times of its layer-named descendants over its duration.
pub fn layers_cover_frac(spans: &[Span], root: &str) -> f64 {
    let Some(root_id) = spans.iter().position(|s| s.name == root) else {
        return 0.0;
    };
    let selfs = self_times_ns(spans);
    let under_root = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if p == root_id => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let covered: u64 = (0..spans.len())
        .filter(|&i| spans[i].layer().is_some() && under_root(i))
        .map(|i| selfs[i])
        .sum();
    covered as f64 / spans[root_id].dur_ns().max(1) as f64
}

/// Renders the spans as a Chrome trace-event document (open in Perfetto
/// or `chrome://tracing`). Each event carries its span id, parent id and
/// run id in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            format!(
                "    {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"run\":{}}}}}",
                s.name,
                s.layer().unwrap_or("run"),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.run,
            )
        })
        .collect();
    format!(
        "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n{}\n  ]\n}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_interval_children_cover() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("a.y", 15, 25, Some(1)),
            // Overlaps a.x by 10 ns: the union [10, 60) covers 50 ns.
            span("b.z", 30, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 30]);
    }

    #[test]
    fn cover_counts_only_layer_spans_under_the_root() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a.x", 0, 60, Some(0)),
            span("a.y", 10, 20, Some(1)),
            span("group", 60, 90, Some(0)),
            span("b.z", 60, 80, Some(3)),
            // Outside the root: must not be counted.
            span("c.w", 100, 200, None),
        ];
        // a.x self 50 + a.y 10 + b.z 20 = 80 of 100; `group` has no layer.
        assert_eq!(layers_cover_frac(&spans, "run"), 0.8);
        assert_eq!(layers_cover_frac(&spans, "missing"), 0.0);
    }

    #[test]
    fn tracer_nests_and_names_parents() {
        let mut t = Tracer::new(3);
        let run = t.begin("run");
        let a = t.begin("a.x");
        t.end(a);
        let b = t.begin("b.y");
        t.end(b);
        t.end(run);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.run == 3 && x.end_ns >= x.start_ns));
        assert_eq!(s[1].layer(), Some("a"));
        assert_eq!(s[0].layer(), None);
        let doc = bench::json::parse(&chrome_trace_json(s)).expect("trace is JSON");
        assert_eq!(
            doc.get("traceEvents.2.args.parent")
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
