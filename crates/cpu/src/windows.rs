//! SPARC-style register-window engine.
//!
//! Section 4.1: register windows speed procedure calls at the expense of
//! context switches. This engine tracks window occupancy across calls and
//! returns, reporting the spill/fill traps a real SPARC would take; the
//! threads crate uses it to price user-level context switches, which on
//! SPARC additionally require a kernel trap because "SPARC's current window
//! pointer is in a privileged register".

use crate::arch::WindowConfig;

/// What happened to the window file on a call or return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEvent {
    /// The operation fit in the register file.
    Fit,
    /// A window had to be spilled to memory (overflow trap).
    Spill,
    /// A window had to be filled from memory (underflow trap).
    Fill,
}

/// Tracks occupancy of a register-window file.
///
/// # Example
///
/// ```
/// use osarch_cpu::{Arch, WindowEngine};
///
/// let config = Arch::Sparc.spec().windows.expect("SPARC has windows");
/// let mut windows = WindowEngine::new(config);
/// // Call deeper than the file is large: overflow traps appear.
/// let spills = (0..10).filter(|_| windows.call() == osarch_cpu::WindowEvent::Spill).count();
/// assert!(spills > 0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowEngine {
    config: WindowConfig,
    /// Windows currently holding live frames (including the active one).
    occupied: u32,
    spills: u64,
    fills: u64,
}

impl WindowEngine {
    /// A fresh engine with one occupied window (the running frame).
    #[must_use]
    pub fn new(config: WindowConfig) -> WindowEngine {
        WindowEngine {
            config,
            occupied: 1,
            spills: 0,
            fills: 0,
        }
    }

    /// The window configuration.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Windows currently live.
    #[must_use]
    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    /// Usable windows: one is always reserved for the trap handler, as SPARC
    /// hardware requires.
    #[must_use]
    pub fn usable(&self) -> u32 {
        self.config.windows - 1
    }

    /// A procedure call: advance to a new window, spilling if none is free.
    pub fn call(&mut self) -> WindowEvent {
        if self.occupied < self.usable() {
            self.occupied += 1;
            WindowEvent::Fit
        } else {
            self.spills += 1;
            WindowEvent::Spill
        }
    }

    /// A procedure return: retreat a window, filling from memory if the
    /// caller's frame was spilled.
    pub fn ret(&mut self) -> WindowEvent {
        if self.occupied > 1 {
            self.occupied -= 1;
            WindowEvent::Fit
        } else {
            self.fills += 1;
            WindowEvent::Fill
        }
    }

    /// Flush every live window to memory (a context switch must do this).
    /// Returns how many windows were written out.
    ///
    /// The active frame is not a spill: the switch path saves it through
    /// the PCB like any register state, so only the frames *beneath* it —
    /// `occupied - 1` of them — take overflow-style window writes. A fresh
    /// engine therefore flushes nothing.
    pub fn flush_for_switch(&mut self) -> u32 {
        let flushed = self.occupied - 1;
        self.spills += u64::from(flushed);
        self.occupied = 1;
        flushed
    }

    /// Total overflow traps taken.
    #[must_use]
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Total underflow traps taken.
    #[must_use]
    pub fn fills(&self) -> u64 {
        self.fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WindowConfig {
        WindowConfig {
            windows: 8,
            words_per_window: 16,
            cwp_privileged: true,
            spill_overhead_instrs: 26,
            spill_overhead_cycles: 36,
        }
    }

    #[test]
    fn shallow_call_chains_fit() {
        let mut engine = WindowEngine::new(config());
        for _ in 0..6 {
            assert_eq!(engine.call(), WindowEvent::Fit);
        }
        assert_eq!(engine.occupied(), 7);
    }

    #[test]
    fn deep_call_chain_spills_past_capacity() {
        let mut engine = WindowEngine::new(config());
        let mut spills = 0;
        for _ in 0..20 {
            if engine.call() == WindowEvent::Spill {
                spills += 1;
            }
        }
        // 6 calls fit (1 occupied + 6 = 7 usable); the remaining 14 spill.
        assert_eq!(spills, 14);
        assert_eq!(engine.spills(), 14);
    }

    #[test]
    fn returns_balance_calls_without_fills() {
        let mut engine = WindowEngine::new(config());
        for _ in 0..5 {
            engine.call();
        }
        for _ in 0..5 {
            assert_eq!(engine.ret(), WindowEvent::Fit);
        }
        assert_eq!(engine.fills(), 0);
        assert_eq!(engine.occupied(), 1);
    }

    #[test]
    fn returning_past_spilled_frames_fills() {
        let mut engine = WindowEngine::new(config());
        for _ in 0..10 {
            engine.call(); // some spill
        }
        // Unwind everything live, then keep returning into spilled frames.
        let mut fills = 0;
        for _ in 0..10 {
            if engine.ret() == WindowEvent::Fill {
                fills += 1;
            }
        }
        assert!(fills > 0);
        assert_eq!(engine.fills(), fills);
    }

    #[test]
    fn flush_for_switch_writes_all_live_windows_but_the_active_one() {
        let mut engine = WindowEngine::new(config());
        engine.call();
        engine.call();
        let flushed = engine.flush_for_switch();
        assert_eq!(flushed, 2);
        assert_eq!(engine.spills(), 2);
        assert_eq!(engine.occupied(), 1);
    }

    /// Regression: the always-resident active frame must not be counted as
    /// a spill — a switch away from a thread that made no calls writes no
    /// windows at all.
    #[test]
    fn flushing_a_fresh_engine_spills_nothing() {
        let mut engine = WindowEngine::new(config());
        assert_eq!(engine.flush_for_switch(), 0);
        assert_eq!(engine.spills(), 0);
        assert_eq!(engine.occupied(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut engine = WindowEngine::new(config());
        for _ in 0..100 {
            engine.call();
            assert!(engine.occupied() <= engine.usable());
        }
    }
}
