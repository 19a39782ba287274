//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into the program's public functions
//! in spans (name, start, end, parent); nothing inside the program is
//! instrumented. Spans stay in memory until the run ends, then
//! [`Spans::to_jsonl`] writes them out in one piece.

use std::time::Instant;

/// One timed call. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Unit of work the span belongs to (engine run, serve round, job id).
    pub unit: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span store for one thread. A disabled recorder still times every call
/// (the end-to-end metrics need the durations) but keeps nothing.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span and return its result, its duration in
    /// seconds and the span id (`None` when recording is off). `f` gets the
    /// recorder and the span id, to nest child spans under it.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, Option<usize>) -> R,
    ) -> (R, f64, Option<usize>) {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                id: self.spans.len(),
                parent,
                name,
                unit: unit.to_string(),
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        let out = f(self, id);
        let end_ns = self.now_ns();
        if let Some(i) = id {
            self.spans[i].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e9, id)
    }

    /// Take over another recorder's spans (a client thread's), renumbering
    /// ids and parents so they stay unique. Its top-level spans are hung
    /// under `parent`.
    pub fn absorb(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// One JSON object per line: id, parent, name, unit, start/end in ns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"unit\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.name, s.unit, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_keep_parents_and_disabled_keeps_nothing() {
        let mut sp = Spans::new(Instant::now(), true);
        let ((_, inner, inner_id), outer, outer_id) = sp.time("outer", "u", None, |sp, id| {
            sp.time("inner", "u", id, |_, _| 7)
        });
        assert_eq!(outer_id, Some(0));
        assert_eq!(inner_id, Some(1));
        assert!(outer >= inner);
        assert_eq!(sp.all()[1].parent, Some(0));
        let line = sp.to_jsonl();
        assert_eq!(line.lines().count(), 2);
        assert!(line.contains("\"name\":\"inner\""));

        let mut off = Spans::new(Instant::now(), false);
        let (v, _, id) = off.time("x", "u", None, |_, _| 3);
        assert_eq!((v, id), (3, None));
        assert!(off.all().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, true);
        a.time("a", "u", None, |_, _| ());
        let mut b = Spans::new(epoch, true);
        b.time("b", "u", None, |sp, id| sp.time("c", "u", id, |_, _| ()));
        a.absorb(b, Some(0));
        let ids: Vec<_> = a.all().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, Some(0)), (2, Some(1))]);
    }
}
