//! The failpoint vocabulary: every place the serving stack can be made
//! to misbehave on purpose.
//!
//! Failpoints are named after *where* the fault fires, not what the test
//! hopes to observe — the same naming discipline as the lint rule codes
//! and the counter registry. Server-side points fire inside the serving
//! process; client-side points fire in the driving client, simulating a
//! hostile or unlucky network peer.

use std::fmt;

/// One injectable fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Failpoint {
    /// Server: drop an accepted connection before queueing it (the peer
    /// sees an immediate reset — a listener under SYN-flood shedding).
    AcceptDrop,
    /// Server: panic inside a cached computation (the single-flight
    /// leader dies mid-flight; waiters must not hang).
    ComputePanic,
    /// Server: stall a computation past the service deadline.
    ComputeDelay,
    /// Server: write only a prefix of the response, then drop the
    /// connection (a truncated reply must never parse as a valid one).
    WritePartial,
    /// Server: stall before writing the response (drives the client's
    /// per-attempt timeout).
    WriteStall,
    /// Server: kill the worker thread after it finishes a connection
    /// (the pool must respawn it).
    WorkerDeath,
    /// Client: close the socket right after sending a request, before
    /// reading the reply.
    ConnReset,
    /// Client: send only a prefix of the request, then close.
    RequestTruncate,
    /// Client: send the request one byte per `write()` call (a framing
    /// stressor, not a failure — the reply must still be correct).
    RequestSplit,
    /// Client: pause mid-request between two halves of the line.
    RequestStall,
    /// Harness: kill a whole cluster node (stop its server process) and
    /// respawn it later with a bumped incarnation. Fires in the soak
    /// harness, between requests — neither side of one connection.
    NodeKill,
    /// Server: panic while probing a candidate spec during `spec-activate`
    /// (the spec "corrupts" mid-measurement); the registry must roll back
    /// to last-good automatically.
    CorruptSpec,
    /// Server: kill the event loop that just committed a spec swap,
    /// before it writes the admin reply (the client loses the reply; the
    /// committed epoch must survive the respawn).
    SwapLoopDeath,
}

impl Failpoint {
    /// Number of failpoints.
    pub const COUNT: usize = 13;

    /// Every failpoint, in stable schedule order.
    pub const ALL: [Failpoint; Failpoint::COUNT] = [
        Failpoint::AcceptDrop,
        Failpoint::ComputePanic,
        Failpoint::ComputeDelay,
        Failpoint::WritePartial,
        Failpoint::WriteStall,
        Failpoint::WorkerDeath,
        Failpoint::ConnReset,
        Failpoint::RequestTruncate,
        Failpoint::RequestSplit,
        Failpoint::RequestStall,
        Failpoint::NodeKill,
        Failpoint::CorruptSpec,
        Failpoint::SwapLoopDeath,
    ];

    /// Stable index into per-failpoint counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Failpoint::AcceptDrop => 0,
            Failpoint::ComputePanic => 1,
            Failpoint::ComputeDelay => 2,
            Failpoint::WritePartial => 3,
            Failpoint::WriteStall => 4,
            Failpoint::WorkerDeath => 5,
            Failpoint::ConnReset => 6,
            Failpoint::RequestTruncate => 7,
            Failpoint::RequestSplit => 8,
            Failpoint::RequestStall => 9,
            Failpoint::NodeKill => 10,
            Failpoint::CorruptSpec => 11,
            Failpoint::SwapLoopDeath => 12,
        }
    }

    /// The stable `site/fault` label used in reports and counters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Failpoint::AcceptDrop => "accept/drop",
            Failpoint::ComputePanic => "compute/panic",
            Failpoint::ComputeDelay => "compute/delay",
            Failpoint::WritePartial => "write/partial",
            Failpoint::WriteStall => "write/stall",
            Failpoint::WorkerDeath => "worker/death",
            Failpoint::ConnReset => "conn/reset",
            Failpoint::RequestTruncate => "request/truncate",
            Failpoint::RequestSplit => "request/split",
            Failpoint::RequestStall => "request/stall",
            Failpoint::NodeKill => "node/kill",
            Failpoint::CorruptSpec => "admin/corrupt-spec",
            Failpoint::SwapLoopDeath => "swap/mid-swap-loop-death",
        }
    }
}

impl fmt::Display for Failpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_a_permutation_of_the_table_order() {
        for (position, fp) in Failpoint::ALL.iter().enumerate() {
            assert_eq!(fp.index(), position, "{fp}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Failpoint::ALL.iter().map(|fp| fp.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Failpoint::COUNT);
    }
}
