//! The harness's own spans: each timed call into a layer's public function
//! is one span (name, start, end, the span that caused it, and how many
//! operations it covered). Spans stay in memory and are written out as
//! Chrome trace-event JSON when the run ends (`--trace-out`).
//!
//! A disabled tracer records nothing; callers still get their results.

use osarch_telemetry::SpanChain;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name: `<layer>.<what>`.
    pub name: &'static str,
    /// This span's id (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// Recording thread (a small dense number).
    pub tid: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Operations the span covers (per-operation time is `dur / count`).
    pub count: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Tracer {
    /// A tracer that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the tracer's creation to `at`.
    #[must_use]
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span covering `start..end`; returns its id (0 when off).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            name,
            id,
            parent,
            tid: thread_id(),
            start_ns: self.offset_ns(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            count: count.max(1),
        };
        self.spans.lock().expect("span list").push(span);
        id
    }

    /// Run `f` as one span of `count` operations; returns its result.
    pub fn time<T>(&self, name: &'static str, parent: u64, count: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), count);
        out
    }

    /// Reserve an id for a span whose children are recorded before it ends
    /// (pass it to [`Tracer::record_with_id`] when it does).
    #[must_use]
    pub fn reserve(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a span under an id from [`Tracer::reserve`].
    pub fn record_with_id(&self, id: u64, name: &'static str, parent: u64, start: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            id,
            parent,
            tid: thread_id(),
            start_ns: self.offset_ns(start),
            dur_ns: start.elapsed().as_nanos() as u64,
            count: 1,
        };
        self.spans.lock().expect("span list").push(span);
    }

    /// Per-operation time in microseconds of every span named `name`.
    #[must_use]
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list")
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.dur_ns as f64 / 1000.0 / span.count as f64)
            .collect()
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }
}

/// The harness spans (pid 1, one track per thread) and the server's
/// sampled request chains (pid 2, one track per event loop) as one Chrome
/// trace-event document. Server chain times are microseconds since the
/// server started; `server_offset_us` places that start on the harness
/// clock.
#[must_use]
pub fn chrome_json(spans: &[Span], chains: &[SpanChain], server_offset_us: u64) -> String {
    let mut events = vec![
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"perf harness"}}"#
            .to_string(),
        r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"osarch-serve"}}"#
            .to_string(),
    ];
    for span in spans {
        events.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":{},",
                "\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"count\":{}}}}}"
            ),
            span.name,
            span.tid,
            span.start_ns as f64 / 1000.0,
            span.dur_ns as f64 / 1000.0,
            span.id,
            span.parent,
            span.count
        ));
    }
    for chain in chains {
        events.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\"pid\":2,\"tid\":{},",
                "\"ts\":{},\"dur\":{},\"args\":{{\"trace_id\":\"{:016x}\"}}}}"
            ),
            chain.op,
            chain.loop_index,
            chain.start_us + server_offset_us,
            chain.total_us,
            chain.trace_id
        ));
        for stage in &chain.spans {
            events.push(format!(
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":2,\"tid\":{},",
                    "\"ts\":{},\"dur\":{},\"args\":{{\"trace_id\":\"{:016x}\"}}}}"
                ),
                stage.stage,
                chain.loop_index,
                stage.start_us + server_offset_us,
                stage.dur_us,
                chain.trace_id
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        events.join(",\n")
    )
}
