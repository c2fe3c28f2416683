//! Abstract domains for the dataflow verifier.
//!
//! The engine runs over a *product* domain: interval lattices for the
//! numeric resources the paper's primitives stress (register-window depth,
//! write-buffer occupancy, trap nesting, state words saved/restored), a
//! three-valued lattice for per-resource maintenance residue (are stale
//! TLB/cache entries possibly live?), and the same three-valued lattice for
//! the interrupt mask. `Option<AbsState>` plays bottom: `None` means "no
//! path reaches here yet".
//!
//! All components are finite-height except the intervals, which get the
//! classical widening (an unstable bound jumps straight to ±∞) so the
//! worklist fixpoint in [`crate::absint`] terminates on any CFG.

/// Symbolic −∞ for interval bounds.
pub const NEG_INF: i64 = i64::MIN;
/// Symbolic +∞ for interval bounds.
pub const POS_INF: i64 = i64::MAX;

/// A closed integer interval `[lo, hi]` with ±∞ sentinels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (`NEG_INF` = unbounded below).
    pub lo: i64,
    /// Upper bound (`POS_INF` = unbounded above).
    pub hi: i64,
}

impl Interval {
    /// The singleton interval `[n, n]`.
    #[must_use]
    pub fn exact(n: i64) -> Interval {
        Interval { lo: n, hi: n }
    }

    /// The interval `[lo, hi]`.
    #[must_use]
    pub fn range(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// The full interval `[−∞, +∞]`.
    #[must_use]
    pub fn top() -> Interval {
        Interval {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// Least upper bound: the convex hull of the two intervals.
    #[must_use]
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Classical interval widening: any bound that moved since `self` goes
    /// straight to its infinity, guaranteeing a finite ascending chain.
    #[must_use]
    pub fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { NEG_INF } else { self.lo },
            hi: if newer.hi > self.hi { POS_INF } else { self.hi },
        }
    }

    /// Shift both bounds by `delta`, keeping infinities absorbing.
    #[must_use]
    pub fn shift(self, delta: i64) -> Interval {
        let bump = |bound: i64| {
            if bound == NEG_INF || bound == POS_INF {
                bound
            } else {
                bound.saturating_add(delta)
            }
        };
        Interval {
            lo: bump(self.lo),
            hi: bump(self.hi),
        }
    }

    /// Whether `n` lies inside the interval.
    #[must_use]
    pub fn contains(self, n: i64) -> bool {
        self.lo <= n && n <= self.hi
    }

    /// Whether some value above `limit` is feasible.
    #[must_use]
    pub fn may_exceed(self, limit: i64) -> bool {
        self.hi > limit
    }

    /// Whether some value below `limit` is feasible.
    #[must_use]
    pub fn may_drop_below(self, limit: i64) -> bool {
        self.lo < limit
    }

    /// Both bounds raised to at least `floor` — the cascade control the
    /// transfer function applies after an underflowing decrement, mirroring
    /// the pattern rules' reset-to-zero.
    #[must_use]
    pub fn clamp_min(self, floor: i64) -> Interval {
        Interval {
            lo: self.lo.max(floor),
            hi: self.hi.max(floor),
        }
    }

    /// Whether the upper bound was widened away entirely.
    #[must_use]
    pub fn unbounded_above(self) -> bool {
        self.hi == POS_INF
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.lo, self.hi) {
            (NEG_INF, POS_INF) => write!(f, "[-inf, +inf]"),
            (NEG_INF, hi) => write!(f, "[-inf, {hi}]"),
            (lo, POS_INF) => write!(f, "[{lo}, +inf]"),
            (lo, hi) => write!(f, "[{lo}, {hi}]"),
        }
    }
}

/// A three-valued lattice: definitely `No`, definitely `Yes`, or `Maybe`
/// (the top, reached when paths disagree). Finite height, so `join`
/// doubles as its own widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// The property holds on no path reaching this point.
    No,
    /// The property holds on every path reaching this point.
    Yes,
    /// Paths disagree.
    Maybe,
}

impl Tri {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Maybe
        }
    }

    /// Short label for artifacts and messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tri::No => "no",
            Tri::Yes => "yes",
            Tri::Maybe => "maybe",
        }
    }
}

/// Maintenance residue per flushable resource: could stale entries still
/// be live? This is the finite-map component of the product domain — the
/// map's keys are the two resources, its values the [`Tri`] lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintMap {
    /// Stale TLB entries possibly live.
    pub tlb_stale: Tri,
    /// Stale cache lines possibly live.
    pub cache_stale: Tri,
}

impl MaintMap {
    /// Entry state: conservatively assume both resources hold stale state
    /// (the previous context's), so the first flush is never "redundant".
    #[must_use]
    pub fn entry() -> MaintMap {
        MaintMap {
            tlb_stale: Tri::Yes,
            cache_stale: Tri::Yes,
        }
    }

    /// Componentwise least upper bound.
    #[must_use]
    pub fn join(self, other: MaintMap) -> MaintMap {
        MaintMap {
            tlb_stale: self.tlb_stale.join(other.tlb_stale),
            cache_stale: self.cache_stale.join(other.cache_stale),
        }
    }
}

/// The product abstract state at a program point. `None` (at the engine
/// level) is bottom; this struct is always a reachable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Register-window depth relative to entry (`SaveWindow` +1,
    /// `RestoreWindow` −1).
    pub window_depth: Interval,
    /// Write-buffer occupancy in pending stores (`DrainWriteBuffer`
    /// resets to 0).
    pub wb_pending: Interval,
    /// A representative op index of a store that may still sit in the
    /// write buffer — the witness anchor for OA203. Joins take the
    /// earliest site; this is a reporting aid, not a lattice refinement.
    pub last_store: Option<usize>,
    /// Trap nesting depth (`TrapEnter` +1, `TrapReturn` −1).
    pub trap_depth: Interval,
    /// State words saved so far on this path.
    pub saved_words: Interval,
    /// State words restored so far on this path.
    pub restored_words: Interval,
    /// Cache/TLB maintenance residue.
    pub maint: MaintMap,
    /// Interrupts disabled? (`TrapEnter` → yes, `TrapReturn` → no.)
    pub int_disabled: Tri,
}

impl AbsState {
    /// The state at program entry: everything balanced and empty, stale
    /// maintenance residue assumed, interrupts per the trap convention
    /// (handlers enter with interrupts off).
    #[must_use]
    pub fn entry() -> AbsState {
        AbsState {
            window_depth: Interval::exact(0),
            wb_pending: Interval::exact(0),
            last_store: None,
            trap_depth: Interval::exact(0),
            saved_words: Interval::exact(0),
            restored_words: Interval::exact(0),
            maint: MaintMap::entry(),
            int_disabled: Tri::No,
        }
    }

    /// Componentwise least upper bound.
    #[must_use]
    pub fn join(&self, other: &AbsState) -> AbsState {
        AbsState {
            window_depth: self.window_depth.join(other.window_depth),
            wb_pending: self.wb_pending.join(other.wb_pending),
            last_store: match (self.last_store, other.last_store) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            trap_depth: self.trap_depth.join(other.trap_depth),
            saved_words: self.saved_words.join(other.saved_words),
            restored_words: self.restored_words.join(other.restored_words),
            maint: self.maint.join(other.maint),
            int_disabled: self.int_disabled.join(other.int_disabled),
        }
    }

    /// Componentwise widening against a newer state. Only the interval
    /// components can climb forever, so only they widen; the finite
    /// components just join.
    #[must_use]
    pub fn widen(&self, newer: &AbsState) -> AbsState {
        AbsState {
            window_depth: self.window_depth.widen(newer.window_depth),
            wb_pending: self.wb_pending.widen(newer.wb_pending),
            last_store: match (self.last_store, newer.last_store) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            trap_depth: self.trap_depth.widen(newer.trap_depth),
            saved_words: self.saved_words.widen(newer.saved_words),
            restored_words: self.restored_words.widen(newer.restored_words),
            maint: self.maint.join(newer.maint),
            int_disabled: self.int_disabled.join(newer.int_disabled),
        }
    }

    /// Number of components in the product domain (reported in proof
    /// artifacts as `domain_width`).
    pub const COMPONENTS: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_join_is_the_convex_hull() {
        let a = Interval::range(1, 3);
        let b = Interval::range(5, 9);
        assert_eq!(a.join(b), Interval::range(1, 9));
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(a.join(a), a);
    }

    #[test]
    fn widening_jumps_moving_bounds_to_infinity() {
        let old = Interval::range(0, 2);
        let grown = Interval::range(0, 5);
        let widened = old.widen(grown);
        assert_eq!(widened.lo, 0);
        assert!(widened.unbounded_above());
        // Stable bounds stay put, so re-widening is a no-op.
        assert_eq!(widened.widen(widened), widened);
    }

    #[test]
    fn add_preserves_infinities() {
        assert_eq!(Interval::top().shift(7), Interval::top());
        assert_eq!(Interval::exact(2).shift(-5), Interval::exact(-3));
    }

    #[test]
    fn tri_join_tops_out_at_maybe() {
        assert_eq!(Tri::No.join(Tri::Yes), Tri::Maybe);
        assert_eq!(Tri::Yes.join(Tri::Yes), Tri::Yes);
        assert_eq!(Tri::Maybe.join(Tri::No), Tri::Maybe);
    }

    #[test]
    fn state_widen_stabilizes_in_one_step() {
        let mut a = AbsState::entry();
        a.window_depth = Interval::range(0, 1);
        let mut b = a.clone();
        b.window_depth = Interval::range(0, 2);
        b.maint.tlb_stale = Tri::No;
        let w = a.widen(&b);
        assert!(w.window_depth.unbounded_above());
        assert_eq!(w.maint.tlb_stale, Tri::Maybe);
        // A second widening against any larger state is stationary above.
        assert_eq!(w.widen(&b).window_depth, w.window_depth);
    }

    #[test]
    fn join_keeps_the_earliest_store_witness() {
        let mut a = AbsState::entry();
        a.last_store = Some(7);
        let mut b = AbsState::entry();
        b.last_store = Some(3);
        assert_eq!(a.join(&b).last_store, Some(3));
        assert_eq!(a.join(&AbsState::entry()).last_store, Some(7));
    }
}
