//! Per-request trace contexts: deterministic 64-bit ids, stage spans,
//! and completed span chains.
//!
//! Ids come from a seeded SplitMix64 stream per loop shard, so the nth
//! sampled request on a given loop draws the same id on every same-seed
//! run — the property the chaos-replay telemetry test asserts. All
//! timestamps are microseconds since the server started (the caller's
//! monotonic clock); nothing here reads a clock.

use osarch_trace::{mix64, SplitMix64, GAMMA};

/// Seeded deterministic 64-bit id generator: one SplitMix64 stream per
/// loop shard.
#[derive(Debug, Clone)]
pub struct TraceIdGen(SplitMix64);

impl TraceIdGen {
    /// A generator seeded for one loop shard: `seed` is the telemetry
    /// seed, `stream` the shard index (each shard gets a disjoint
    /// stream).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> TraceIdGen {
        TraceIdGen(SplitMix64::new(seed ^ mix64(stream.wrapping_add(GAMMA))))
    }

    /// The next id in the stream. Never returns zero (zero is reserved
    /// as "untraced").
    pub fn next_id(&mut self) -> u64 {
        loop {
            let id = self.0.next_u64();
            if id != 0 {
                return id;
            }
        }
    }
}

/// One recorded stage of a request's journey through the serve stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Stage label: `decode`, `queue`, `cache`, `compute`, or `write`.
    pub stage: &'static str,
    /// Stage start, microseconds since server start.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// A sampled request's in-flight trace context. Allocated once at frame
/// decode (only for sampled requests — the unsampled hot path never
/// constructs one) and carried through ticket queue, offload pool and
/// write batch until the reply bytes are buffered.
#[derive(Debug, Clone)]
pub struct PendingTrace {
    /// Trace id (deterministic per seed × shard × sample ordinal).
    pub trace_id: u64,
    /// Root span id for this request.
    pub span_id: u64,
    /// Op name being served.
    pub op: &'static str,
    /// Loop shard that owns the connection.
    pub loop_index: usize,
    /// Request start (frame decode), microseconds since server start.
    pub start_us: u64,
    /// Completed stage spans, in order.
    pub spans: Vec<SpanRec>,
    /// Pending stage start mark (set by `mark`, consumed by
    /// `stage_from_mark`).
    mark_us: u64,
}

impl PendingTrace {
    /// Start a trace for one sampled request.
    #[must_use]
    pub fn start(
        ids: &mut TraceIdGen,
        op: &'static str,
        loop_index: usize,
        start_us: u64,
    ) -> Box<PendingTrace> {
        let trace_id = ids.next_id();
        let span_id = ids.next_id();
        Box::new(PendingTrace {
            trace_id,
            span_id,
            op,
            loop_index,
            start_us,
            spans: Vec::with_capacity(6),
            mark_us: start_us,
        })
    }

    /// Record a completed stage `[start_us, start_us + dur_us)`.
    pub fn stage(&mut self, stage: &'static str, start_us: u64, dur_us: u64) {
        self.spans.push(SpanRec {
            stage,
            start_us,
            dur_us,
        });
    }

    /// Remember a stage boundary (e.g. enqueue time) for a later
    /// `stage_from_mark`.
    pub fn mark(&mut self, now_us: u64) {
        self.mark_us = now_us;
    }

    /// Record a stage running from the last `mark` to `now_us`, and
    /// advance the mark (so consecutive stages chain).
    pub fn stage_from_mark(&mut self, stage: &'static str, now_us: u64) {
        let start = self.mark_us;
        self.stage(stage, start, now_us.saturating_sub(start));
        self.mark_us = now_us;
    }

    /// Finish the chain: the root span covers decode to reply-buffered.
    #[must_use]
    pub fn finish(self, end_us: u64) -> SpanChain {
        SpanChain {
            trace_id: self.trace_id,
            span_id: self.span_id,
            op: self.op,
            loop_index: self.loop_index,
            start_us: self.start_us,
            total_us: end_us.saturating_sub(self.start_us),
            spans: self.spans,
        }
    }
}

/// One completed per-request span chain.
#[derive(Debug, Clone)]
pub struct SpanChain {
    /// Trace id.
    pub trace_id: u64,
    /// Root span id.
    pub span_id: u64,
    /// Op name served.
    pub op: &'static str,
    /// Loop shard that served the request.
    pub loop_index: usize,
    /// Request start, microseconds since server start.
    pub start_us: u64,
    /// Decode-to-reply-buffered duration in microseconds.
    pub total_us: u64,
    /// Stage spans in recorded order.
    pub spans: Vec<SpanRec>,
}

impl SpanChain {
    /// Whether the chain contains a stage by name.
    #[must_use]
    pub fn has_stage(&self, stage: &str) -> bool {
        self.spans.iter().any(|span| span.stage == stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_streams_are_bit_identical() {
        let mut a = TraceIdGen::new(42, 3);
        let mut b = TraceIdGen::new(42, 3);
        let ids_a: Vec<u64> = (0..1000).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..1000).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn streams_and_seeds_diverge() {
        let mut a = TraceIdGen::new(42, 0);
        let mut b = TraceIdGen::new(42, 1);
        let mut c = TraceIdGen::new(43, 0);
        let first = a.next_id();
        assert_ne!(first, b.next_id());
        assert_ne!(first, c.next_id());
        // 1000 draws from one stream never collide or hit zero.
        let mut seen = std::collections::HashSet::new();
        seen.insert(first);
        for _ in 0..999 {
            let id = a.next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "collision at {id:#x}");
        }
    }

    #[test]
    fn stages_chain_through_marks() {
        let mut ids = TraceIdGen::new(7, 0);
        let mut trace = PendingTrace::start(&mut ids, "measure", 2, 1000);
        trace.stage("decode", 1000, 5);
        trace.mark(1005);
        trace.stage_from_mark("queue", 1040);
        trace.stage_from_mark("compute", 1140);
        let chain = trace.finish(1150);
        assert_eq!(chain.op, "measure");
        assert_eq!(chain.loop_index, 2);
        assert_eq!(chain.total_us, 150);
        assert_eq!(chain.spans.len(), 3);
        assert_eq!(
            chain.spans[1],
            SpanRec {
                stage: "queue",
                start_us: 1005,
                dur_us: 35
            }
        );
        assert_eq!(
            chain.spans[2],
            SpanRec {
                stage: "compute",
                start_us: 1040,
                dur_us: 100
            }
        );
        assert!(chain.has_stage("decode") && !chain.has_stage("write"));
    }
}
