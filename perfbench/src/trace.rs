//! In-memory span recorder for the traced pass.
//!
//! A span has a name, a start and an end (seconds since the recorder was
//! created), an optional parent, and the id of the group it belongs to:
//! every span of one traced embed shares one group id, and so does every
//! span of one probe pass. Stage spans come from the engine's progress
//! hook and carry the stage's `RunStats` counters; probe spans are opened
//! and closed by the benchmark around public kernel calls. A span's self
//! time is its duration minus the durations of its children, so the self
//! times of a tree sum to its root's duration.

use lightne::core::engine::{ProgressHook, StageEvent};
use lightne::core::pipeline::{STAGE_NETMF, STAGE_PROPAGATION, STAGE_RSVD, STAGE_SPARSIFIER};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub group: u64,
    pub parent: Option<usize>,
    pub start: f64,
    /// NaN while the span is open.
    pub end: f64,
    pub counters: Vec<(String, u64)>,
}

impl Span {
    /// Wall seconds covered by the span (NaN while open).
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder: spans in the order they were opened.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Trace {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span starting now and returns its index.
    pub fn open(&mut self, name: &str, group: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(Span {
            name: name.to_string(),
            group,
            parent,
            start,
            end: f64::NAN,
            counters: Vec::new(),
        })
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Appends a finished (or open) span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn span_mut(&mut self, id: usize) -> &mut Span {
        &mut self.spans[id]
    }

    /// Direct children of `id`, in opening order.
    pub fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// The first direct child of `id` named `name`.
    pub fn child(&self, id: usize, name: &str) -> Option<usize> {
        self.children(id).find(|&c| self.spans[c].name == name)
    }

    /// Self time of `id`: its duration minus its children's durations.
    pub fn self_secs(&self, id: usize) -> f64 {
        self.spans[id].secs() - self.children(id).map(|c| self.spans[c].secs()).sum::<f64>()
    }

    /// `id` and all of its descendants.
    pub fn subtree(&self, id: usize) -> Vec<usize> {
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            let next: Vec<usize> = self.children(out[i]).collect();
            out.extend(next);
            i += 1;
        }
        out
    }

    /// Checks the tree under `root`: every span closed and inside its
    /// parent's interval, and the self times summing to the root's
    /// duration within `tol` seconds.
    pub fn well_formed(&self, root: usize, tol: f64) -> bool {
        let ids = self.subtree(root);
        let nested = ids.iter().all(|&id| {
            let s = &self.spans[id];
            let inside = match s.parent {
                Some(p) if id != root => {
                    let p = &self.spans[p];
                    s.start >= p.start && s.end <= p.end
                }
                _ => true,
            };
            s.end.is_finite() && s.end >= s.start && inside
        });
        let total: f64 = ids.iter().map(|&id| self.self_secs(id)).sum();
        nested && (total - self.spans[root].secs()).abs() <= tol
    }

    /// All spans as a JSON array (index = position in the array).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let counters: Vec<String> = s
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", crate::stats::json_str(k)))
                    .collect();
                format!(
                    "  {{\"id\": {id}, \"name\": {}, \"group\": {}, \"parent\": {}, \"start\": {}, \
                     \"end\": {}, \"self\": {}, \"counters\": {{{}}}}}",
                    crate::stats::json_str(&s.name),
                    s.group,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    crate::stats::num(s.start),
                    crate::stats::num(s.end),
                    crate::stats::num(self.self_secs(id)),
                    counters.join(", ")
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// An indented text rendering of the tree under `root` (to stderr).
    pub fn render(&self, root: usize) -> String {
        let mut out = String::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let s = &self.spans[id];
            out.push_str(&format!(
                "{:indent$}{:<28} {:>10.4}s  self {:>10.4}s\n",
                "",
                s.name,
                s.secs(),
                self.self_secs(id),
                indent = 2 * depth
            ));
            let kids: Vec<usize> = self.children(id).collect();
            stack.extend(kids.into_iter().rev().map(|c| (c, depth + 1)));
        }
        out
    }
}

/// Short span name of an engine stage.
pub fn stage_key(name: &str) -> &str {
    match name {
        STAGE_SPARSIFIER => "sparsify",
        STAGE_NETMF => "netmf",
        STAGE_RSVD => "rsvd",
        STAGE_PROPAGATION => "propagate",
        other => other,
    }
}

/// A progress hook that records each engine stage as a child span of
/// `root` in group `group`, attaching the stage's counters and its
/// self-reported `heap_bytes` when it finishes.
pub fn stage_hook(trace: Arc<Mutex<Trace>>, group: u64, root: usize) -> ProgressHook {
    Box::new(move |ev| {
        let mut t = trace.lock().expect("trace lock poisoned: a stage hook panicked");
        match ev {
            StageEvent::Started { name } => {
                t.open(stage_key(name), group, Some(root));
            }
            StageEvent::Finished { record } => {
                let key = stage_key(&record.name);
                let open = (0..t.spans.len())
                    .rev()
                    .find(|&i| t.spans[i].name == key && t.spans[i].end.is_nan());
                if let Some(id) = open {
                    t.close(id);
                    let span = t.span_mut(id);
                    span.counters = record.counters.clone();
                    span.counters.push(("heap_bytes".to_string(), record.heap_bytes as u64));
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name: name.into(), group: 1, parent, start, end, counters: vec![] }
    }

    #[test]
    fn self_times_on_a_hand_built_tree() {
        // embed [0, 10]
        //   sparsify [0.5, 2.5]
        //   rsvd     [2.5, 8.0]
        //     spmm   [3.0, 4.0]
        //     qr     [4.0, 6.5]
        //   propagate [8.0, 9.75]
        let mut t = Trace::default();
        let root = t.push(span("embed", None, 0.0, 10.0));
        let sp = t.push(span("sparsify", Some(root), 0.5, 2.5));
        let rs = t.push(span("rsvd", Some(root), 2.5, 8.0));
        let spmm = t.push(span("spmm", Some(rs), 3.0, 4.0));
        let qr = t.push(span("qr", Some(rs), 4.0, 6.5));
        let pr = t.push(span("propagate", Some(root), 8.0, 9.75));

        assert_eq!(t.self_secs(root), 10.0 - 2.0 - 5.5 - 1.75);
        assert_eq!(t.self_secs(sp), 2.0);
        assert_eq!(t.self_secs(rs), 5.5 - 1.0 - 2.5);
        assert_eq!(t.self_secs(spmm), 1.0);
        assert_eq!(t.self_secs(qr), 2.5);
        assert_eq!(t.self_secs(pr), 1.75);
        assert_eq!(t.subtree(root), vec![root, sp, rs, pr, spmm, qr]);
        assert_eq!(t.child(root, "rsvd"), Some(rs));
        let total: f64 = t.subtree(root).iter().map(|&i| t.self_secs(i)).sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert!(t.well_formed(root, 1e-9));
        assert_eq!(t.self_secs(rs) + t.self_secs(spmm) + t.self_secs(qr), t.span(rs).secs());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let mut t = Trace::default();
        let root = t.push(span("embed", None, 0.0, 1.0));
        t.push(span("late", Some(root), 0.5, 1.5)); // ends after its parent
        assert!(!t.well_formed(root, 1e-9));

        let mut t = Trace::default();
        let root = t.push(span("embed", None, 0.0, 1.0));
        t.push(span("open", Some(root), 0.5, f64::NAN)); // never closed
        assert!(!t.well_formed(root, 1e-9));
    }

    #[test]
    fn hook_records_stage_spans_with_counters() {
        use lightne::core::StageRecord;
        let trace = Arc::new(Mutex::new(Trace::default()));
        let root = trace.lock().unwrap().open("embed", 7, None);
        let hook = stage_hook(trace.clone(), 7, root);
        hook(&StageEvent::Started { name: STAGE_RSVD });
        let record = StageRecord {
            name: STAGE_RSVD.into(),
            secs: 0.0,
            heap_bytes: 64,
            counters: vec![("flops".into(), 10)],
        };
        hook(&StageEvent::Finished { record: &record });
        let mut t = trace.lock().unwrap();
        t.close(root);
        let rs = t.child(root, "rsvd").expect("stage span");
        assert_eq!(t.span(rs).group, 7);
        assert_eq!(
            t.span(rs).counters,
            vec![("flops".to_string(), 10), ("heap_bytes".to_string(), 64)]
        );
        assert!(t.well_formed(root, 1e-9));
    }
}
