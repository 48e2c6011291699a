//! Benchmark-side spans around calls into the program's layers.
//!
//! A span has a name (`layer.operation`), a start and an end, the span
//! that contains it, and an identifier shared by every span of one
//! cell or query. Spans live in memory and are written out when the
//! run ends. A span's self time is its duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `dbt.ladder`.
    pub name: &'static str,
    /// The cell or query the span belongs to.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, from the recorder's origin.
    pub start: Duration,
    /// End, from the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Time inside the layer's outermost spans, seconds.
    pub busy_s: f64,
    /// Busy time minus the time of other layers' spans nested inside,
    /// seconds.
    pub self_s: f64,
    /// Self time over the wall time the table covers.
    pub share: f64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for cell or query `id`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        value
    }

    /// Records a span that was timed elsewhere (on another thread or
    /// around a call that could not be wrapped), under the open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// The recorded spans, in start order per thread.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Durations of the spans named `name`, in recording order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Busy time, self time and share of `wall` per layer, in layer
    /// name order. Busy time counts only a layer's outermost spans, so
    /// a layer's nested calls into itself are not counted twice.
    #[must_use]
    pub fn layer_table(&self, wall: Duration) -> Vec<LayerRow> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration();
            }
        }
        let mut rows: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.layer()).or_default();
            if !self.has_ancestor_in(i, s.layer()) {
                row.0 += s.duration();
            }
            row.1 += s.duration().saturating_sub(children[i]);
        }
        let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        rows.into_iter()
            .map(|(layer, (busy, own))| LayerRow {
                layer,
                busy_s: busy.as_secs_f64(),
                self_s: own.as_secs_f64(),
                share: own.as_secs_f64() / wall_s,
            })
            .collect()
    }

    fn has_ancestor_in(&self, mut i: usize, layer: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].layer() == layer {
                return true;
            }
            i = p;
        }
        false
    }

    /// The spans as JSON lines: name, id, parent, start and end in µs.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.id,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// Renders a per-layer table.
#[must_use]
pub fn render_table(title: &str, rows: &[LayerRow], wall: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} (wall {:.3} s)", wall.as_secs_f64());
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10} {:>8}",
        "layer", "busy_s", "self_s", "share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>10.4} {:>10.4} {:>7.2}%",
            r.layer,
            r.busy_s,
            r.self_s,
            r.share * 100.0
        );
    }
    let total: f64 = rows.iter().map(|r| r.self_s).sum();
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10.4} {:>7.2}%",
        "sum",
        "",
        total,
        total / wall.as_secs_f64().max(f64::MIN_POSITIVE) * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_busy_counts_outermost_spans() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("bench.root", 0, |rec| {
            rec.span("dbt.run", 1, |rec| {
                std::thread::sleep(Duration::from_millis(4));
                rec.span("store.write", 1, |_| {
                    std::thread::sleep(Duration::from_millis(4))
                });
            });
        });
        let wall = rec.spans()[0].duration();
        let rows = rec.layer_table(wall);
        let row = |l| rows.iter().find(|r| r.layer == l).unwrap().clone();
        assert!(row("dbt").busy_s >= 0.008);
        assert!(row("dbt").self_s < row("dbt").busy_s - 0.003);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - wall.as_secs_f64()).abs() < 1e-6, "{sum} vs {wall:?}");
    }
}
