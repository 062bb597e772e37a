//! Benchmark-side spans around calls into the repo's layers.
//!
//! Spans are recorded from here, not from inside the program: each wraps
//! one public call. They stay in memory until the run ends, then go to
//! `benchmark/out/<workload>.trace.json`. A layer's time is its span's
//! self time: duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans one tracer retains; later ones are still timed (so the overhead
/// stays uniform) but only counted.
const RETAINED_SPANS: usize = 20_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one operation.
    pub chain: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_id: u32,
    chain: u32,
    dropped: u64,
    last_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
            chain: 0,
            dropped: 0,
            last_ns: 0,
        }
    }

    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. A span with no parent starts a new operation chain.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.chain += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        self.last_ns = end_ns - start_ns;
        if self.spans.len() < RETAINED_SPANS {
            self.spans.push(Span {
                id,
                parent,
                chain: self.chain,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Duration of the span that closed last.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of the parts of
/// it that its children cover (children may overlap each other and may
/// stick out of the parent; both are clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(k, s)| (s.id, k)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Median self time per span name, in nanoseconds, with the span count.
pub fn median_self_ns(tracers: &[&Tracer]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans.iter().zip(self_times(&t.spans)) {
            by_name.entry(s.name).or_default().push(own as f64);
        }
    }
    by_name
        .into_iter()
        .map(|(name, v)| {
            let v = crate::stats::sorted(v);
            (name, (crate::stats::median(&v), v.len()))
        })
        .collect()
}

/// `true` when every child lies inside its parent and shares its chain.
pub fn children_fit(spans: &[Span]) -> bool {
    let index: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans.iter().all(|s| match s.parent {
        None => true,
        Some(p) => index
            .get(&p)
            .is_none_or(|p| p.start_ns <= s.start_ns && s.end_ns <= p.end_ns && p.chain == s.chain),
    })
}

/// Writes the spans of all tracers as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    tracers: &[&Tracer],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"dropped\":{dropped},\"spans\":["
    )?;
    let mut first = true;
    for t in tracers {
        for s in &t.spans {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            write!(
                out,
                "\n{{\"thread\":{},\"id\":{},\"parent\":{},\"chain\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                t.thread,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.chain,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            chain: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps child 1 by 10
            span(3, Some(0), 35, 38),  // inside both
            span(4, Some(0), 90, 120), // sticks out of the parent by 20
            span(5, Some(1), 10, 20),  // grandchild: counts against 1 only
        ];
        let own = self_times(&spans);
        // Children cover [10,60) and [90,100): 60 of the parent's 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30);
        assert_eq!(own[5], 10);
        assert!(!children_fit(&spans), "span 4 leaves its parent");
        assert!(children_fit(&spans[..4]));
    }

    #[test]
    fn tracer_nests_and_chains() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("op", |t| {
            t.span("prepare", |_| ());
            t.span("execute", |_| ());
        });
        t.span("op", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["prepare", "execute", "op", "op"]);
        assert_eq!(s[0].parent, Some(s[2].id));
        assert_eq!(s[0].chain, s[2].chain);
        assert_ne!(s[2].chain, s[3].chain);
        assert!(children_fit(s));

        let mut off = Tracer::off();
        assert_eq!(off.span("op", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
