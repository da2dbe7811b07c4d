//! Spans recorded by the benchmark around its own calls into the stack.
//!
//! A span has a name, a start and an end (µs since the tracer started), the
//! span that was open when it began, and the id of the workload operation
//! (instance, request, city solve) it belongs to. Spans stay in memory and
//! are written out once, when the workload ends. With tracing off, `span`
//! runs the closure and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` that belongs to operation `op`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent,
                op,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_us();
        self.spans.borrow_mut()[idx].end_us = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-name totals: count, total duration and self time (duration minus the
/// part covered by child spans), all in ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = s.end_us - s.start_us;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += d / 1e3;
        e.self_ms += (d - child_us[i]).max(0.0) / 1e3;
    }
    out
}

/// Cost of recording one span, in µs, measured on this host by recording a
/// batch of empty spans into a throwaway tracer.
pub fn span_cost_us() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..N {
        t.span("calibrate", i as u64, || std::hint::black_box(i));
    }
    t0.elapsed().as_secs_f64() * 1e6 / N as f64
}

pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "  {{\"id\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"op\":{}}}{}",
            i,
            sp.name,
            sp.start_us,
            sp.end_us,
            parent,
            sp.op,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push(']');
    s
}
