//! Panic-noise suppression for injected faults.
//!
//! Chaos-injected panics (`panic!("chaos: …")`) are *expected* — they are
//! the fault being injected — but the default panic hook prints a
//! backtrace for each one, burying real output under screens of noise.
//! [`QuietChaosPanics`] swaps in a hook that swallows panics whose
//! payload mentions `chaos` and reports everything else, then restores
//! the previous hook on drop.
//!
//! The panic hook is process-global state, so the guard also holds a
//! global lock: two fault-injected harnesses (say, two soaks under
//! `cargo test`) serialize instead of clobbering each other's hooks.

use std::panic::PanicHookInfo;
use std::sync::{Mutex, MutexGuard};

/// Marker that identifies an injected panic's payload.
const CHAOS_MARKER: &str = "chaos";

static HOOK_GATE: Mutex<()> = Mutex::new(());

type Hook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send + 'static>;

/// RAII guard: while alive, panics whose payload contains `chaos` are
/// silenced; all other panics are still reported. Dropping the guard
/// restores the previous hook.
pub struct QuietChaosPanics {
    _gate: MutexGuard<'static, ()>,
    previous: Option<Hook>,
}

impl std::fmt::Debug for QuietChaosPanics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuietChaosPanics").finish_non_exhaustive()
    }
}

impl QuietChaosPanics {
    /// Install the silencing hook (blocking until any other guard in the
    /// process has been dropped).
    #[must_use]
    pub fn install() -> QuietChaosPanics {
        let gate = HOOK_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            if !payload_text(info).contains(CHAOS_MARKER) {
                eprintln!("unexpected panic under chaos: {info}");
            }
        }));
        QuietChaosPanics {
            _gate: gate,
            previous: Some(previous),
        }
    }
}

impl Drop for QuietChaosPanics {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            // Discard our silencing hook, then put the original back.
            let _ = std::panic::take_hook();
            std::panic::set_hook(previous);
        }
    }
}

/// Best-effort extraction of a panic payload as text.
fn payload_text(info: &PanicHookInfo<'_>) -> String {
    if let Some(message) = info.payload().downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = info.payload().downcast_ref::<String>() {
        message.clone()
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_panics_are_contained_and_hook_is_restored() {
        {
            let _quiet = QuietChaosPanics::install();
            let caught = std::panic::catch_unwind(|| {
                panic!("chaos: injected for the hook test");
            });
            assert!(caught.is_err(), "the panic still unwinds");
        }
        // After the guard drops, panicking still works normally.
        let caught = std::panic::catch_unwind(|| panic!("chaos: after restore"));
        assert!(caught.is_err());
    }
}
