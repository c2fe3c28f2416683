//! Seeded inputs. Every workload draws its requests, swap stream and
//! what-if specs from here, so one `--seed` reproduces one input stream and
//! the program under test only ever sees the generated inputs.

use osarch_core::{Arch, ArchSpec, Primitive};
use osarch_telemetry::mix64;

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: small, fast, and bit-identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; streams keep the draws of
    /// independent consumers (threads, swap stream, specs) apart.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(GOLDEN))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Fisher–Yates shuffle.
fn shuffle(items: &mut [usize], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// What a `measure` request names: a built-in architecture or one of the
/// registry spec slots (one per base machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// A built-in architecture.
    Builtin(Arch),
    /// Registry spec slot `0..7`, named [`slot_name`].
    Spec(usize),
}

/// One cacheable `measure` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// The machine measured.
    pub target: Target,
    /// The primitive measured.
    pub primitive: Primitive,
}

impl Key {
    /// The request line for this key with request id `id`, newline included.
    pub fn write_line(&self, id: u64, out: &mut Vec<u8>) {
        use std::io::Write;
        let primitive = self.primitive.tag();
        let _ = match self.target {
            Target::Builtin(arch) => writeln!(
                out,
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{primitive}\",\"id\":{id}}}"
            ),
            Target::Spec(slot) => writeln!(
                out,
                "{{\"op\":\"measure\",\"spec\":\"{}\",\"primitive\":\"{primitive}\",\"id\":{id}}}",
                slot_name(slot)
            ),
        };
    }
}

/// The 28 built-in `arch × primitive` keys.
#[must_use]
pub fn builtin_keys() -> Vec<Key> {
    Arch::all()
        .into_iter()
        .flat_map(|arch| {
            Primitive::all().into_iter().map(move |primitive| Key {
                target: Target::Builtin(arch),
                primitive,
            })
        })
        .collect()
}

/// The 28 built-in keys followed by the 28 `measure`+`spec` keys.
#[must_use]
pub fn churn_keys() -> Vec<Key> {
    let mut keys = builtin_keys();
    for slot in 0..Arch::COUNT {
        for primitive in Primitive::all() {
            keys.push(Key {
                target: Target::Spec(slot),
                primitive,
            });
        }
    }
    keys
}

/// The registry name of spec slot `slot`: one per base machine.
#[must_use]
pub fn slot_name(slot: usize) -> String {
    format!(
        "churn-{}",
        Arch::all()[slot].to_string().to_ascii_lowercase()
    )
}

/// How requests pick keys.
#[derive(Debug, Clone)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// Key of rank `r` drawn with weight `1/r`, ranks a seeded permutation.
    Harmonic,
}

/// A seeded key sampler.
#[derive(Debug, Clone)]
pub struct Mix {
    keys: Vec<Key>,
    /// Cumulative weights, one per key, in `keys` order.
    cumulative: Vec<f64>,
}

impl Mix {
    /// A sampler over `keys` with the given skew; the rank permutation of
    /// a harmonic mix comes from `seed`.
    #[must_use]
    pub fn new(keys: Vec<Key>, skew: &Skew, seed: u64) -> Mix {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        shuffle(&mut order, &mut Rng::new(seed, 0x006d_6978));
        let mut weights = vec![0.0; keys.len()];
        for (rank, &index) in order.iter().enumerate() {
            weights[index] = match skew {
                Skew::Uniform => 1.0,
                Skew::Harmonic => 1.0 / (rank + 1) as f64,
            };
        }
        let mut total = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        Mix { keys, cumulative }
    }

    /// Every key of the mix.
    #[must_use]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Draw one key index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("a mix has keys");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.keys.len() - 1)
    }
}

/// Scale a count by a factor in `[lo, hi)`, keeping it at least 1 when it
/// was nonzero (a zero count stays zero: the base machine has no such
/// state, so there is nothing to reshape).
fn scale_count(value: u32, lo: f64, hi: f64, rng: &mut Rng) -> u32 {
    if value == 0 {
        return 0;
    }
    ((f64::from(value) * rng.range(lo, hi)).round() as u32).max(1)
}

/// One field override: applies a seeded change to a spec.
type Override = fn(&mut ArchSpec, &mut Rng);

/// Overrides that reshape the generated handler programs: saved state,
/// software dispatch, fault decoding, window flushing and cache sweeps.
/// Trap-saved registers and window traffic only shrink and special state
/// only grows: the other directions describe a context switch that moves
/// less state than the machine has, which the lint gate rightly refuses.
const HANDLER_OVERRIDES: [Override; 7] = [
    |s, r| s.trap_saved_registers = scale_count(s.trap_saved_registers, 0.5, 1.0, r),
    |s, r| s.misc_state_words = scale_count(s.misc_state_words, 1.0, 2.0, r),
    |s, r| s.fp_state_words = scale_count(s.fp_state_words, 0.5, 2.0, r),
    |s, r| s.trap_dispatch_instrs = scale_count(s.trap_dispatch_instrs, 0.5, 2.0, r),
    |s, r| s.fault_decode_instrs = scale_count(s.fault_decode_instrs, 0.5, 2.0, r),
    |s, r| s.avg_windows_on_switch = scale_count(s.avg_windows_on_switch, 0.5, 1.0, r),
    |s, r| s.flush_instrs_per_line = scale_count(s.flush_instrs_per_line, 0.5, 2.0, r),
];

/// Overrides that change per-operation cycle costs only.
const COST_OVERRIDES: [Override; 8] = [
    |s, r| s.alu_cycles = scale_count(s.alu_cycles, 0.5, 2.0, r),
    |s, r| s.load_cycles = scale_count(s.load_cycles, 0.5, 2.0, r),
    |s, r| s.store_cycles = scale_count(s.store_cycles, 0.5, 2.0, r),
    |s, r| s.branch_cycles = scale_count(s.branch_cycles, 0.5, 2.0, r),
    |s, r| s.control_read_cycles = scale_count(s.control_read_cycles, 0.5, 2.0, r),
    |s, r| s.control_write_cycles = scale_count(s.control_write_cycles, 0.5, 2.0, r),
    |s, r| s.tlb_write_cycles = scale_count(s.tlb_write_cycles, 0.5, 2.0, r),
    |s, r| s.trap_entry_cycles = scale_count(s.trap_entry_cycles, 0.5, 2.0, r),
];

/// Apply `count` distinct overrides drawn from `table`.
fn apply_overrides(spec: &mut ArchSpec, table: &[Override], count: usize, rng: &mut Rng) {
    let mut order: Vec<usize> = (0..table.len()).collect();
    for i in 0..count.min(table.len()) {
        let pick = i + rng.below(table.len() - i);
        order.swap(i, pick);
        table[order[i]](spec, rng);
    }
}

/// The spec document a `spec_churn` swap (or the set-up load) installs in
/// `slot`: the slot's base machine with one to three handler-shaping
/// overrides and a distinct clock, so every document is new content.
#[must_use]
pub fn churn_doc(slot: usize, rng: &mut Rng) -> String {
    let mut spec = Arch::all()[slot].spec();
    let count = 1 + rng.below(3);
    apply_overrides(&mut spec, &HANDLER_OVERRIDES, count, rng);
    spec.clock_mhz = (spec.clock_mhz * rng.range(0.8, 1.25) * 1000.0).round() / 1000.0;
    spec.to_json(&slot_name(slot))
}

/// One scheduled swap of the `spec_churn` write stream.
#[derive(Debug, Clone)]
pub struct Swap {
    /// Registry slot reloaded.
    pub slot: usize,
    /// The `osarch-spec/1` document loaded and activated.
    pub doc: String,
}

/// The seven set-up documents (one per slot) followed by `count` swaps.
/// Swaps visit the slots in seeded rounds that reload each slot once, so
/// every seed swaps each base machine equally often: a swap's cost depends
/// strongly on its base, and an unbalanced draw would make one seed's run
/// slower than another's for that reason alone.
#[must_use]
pub fn churn_stream(seed: u64, count: usize) -> (Vec<String>, Vec<Swap>) {
    let mut rng = Rng::new(seed, 0x7377_6170);
    let initial = (0..Arch::COUNT)
        .map(|slot| churn_doc(slot, &mut rng))
        .collect();
    let mut round: Vec<usize> = Vec::new();
    let swaps = (0..count)
        .map(|_| {
            if round.is_empty() {
                round = (0..Arch::COUNT).collect();
                shuffle(&mut round, &mut rng);
            }
            let slot = round.pop().expect("refilled above");
            Swap {
                slot,
                doc: churn_doc(slot, &mut rng),
            }
        })
        .collect();
    (initial, swaps)
}

/// What-if spec `index` of the sweep for `seed`: a base machine, a random
/// clock, and two to five scalar overrides. Bases come in seeded rounds
/// that use each machine once, so any stretch of the sweep holds every
/// base equally often: vetting and measuring a spec costs up to nine times
/// more on one base than on another, and a run of costly bases would read
/// as a slow host.
#[must_use]
pub fn whatif_doc(seed: u64, index: usize) -> String {
    let mut round: Vec<usize> = (0..Arch::COUNT).collect();
    shuffle(
        &mut round,
        &mut Rng::new(seed, 0x726f_756e_6400_0000 ^ (index / Arch::COUNT) as u64),
    );
    let base = Arch::all()[round[index % Arch::COUNT]];
    let mut rng = Rng::new(seed, 0x7768_6174_0000_0000 ^ index as u64);
    let mut spec = base.spec();
    spec.clock_mhz = (rng.range(5.0, 100.0) * 1000.0).round() / 1000.0;
    let count = 2 + rng.below(4);
    let handler_count = rng.below(count + 1);
    apply_overrides(&mut spec, &HANDLER_OVERRIDES, handler_count, &mut rng);
    apply_overrides(&mut spec, &COST_OVERRIDES, count - handler_count, &mut rng);
    spec.to_json(&format!("whatif-{index}"))
}
