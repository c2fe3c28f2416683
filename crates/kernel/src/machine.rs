//! A complete simulated machine: CPU + memory system + kernel address map.

use crate::layout::KernelLayout;
use osarch_cpu::{Arch, ArchSpec, Cpu, ExecOutcome, ExecStats, Program};
use osarch_mem::{Asid, MemorySystem, Mode, Protection, VirtAddr, KERNEL_ASID};
use osarch_trace::Tracer;

/// The ASID of the primary user process on a freshly built machine.
pub const USER_ASID: Asid = Asid(1);

/// The ASID of the second user process (the context-switch partner).
pub const USER2_ASID: Asid = Asid(2);

/// A ready-to-measure machine for one architecture.
///
/// Construction maps the kernel working set (save areas, stacks, PCBs, page
/// tables) and one user process with a test page, then warms the caches the
/// way the paper's repeated-invocation methodology does.
///
/// # Example
///
/// ```
/// use osarch_kernel::Machine;
/// use osarch_cpu::{Arch, Program};
///
/// let mut machine = Machine::new(Arch::R3000);
/// let mut b = Program::builder("probe");
/// b.alu(4);
/// let stats = machine.measure(&b.build());
/// assert_eq!(stats.instructions, 4);
/// ```
#[derive(Debug)]
pub struct Machine {
    spec: ArchSpec,
    cpu: Cpu,
    mem: MemorySystem,
    layout: KernelLayout,
}

impl Machine {
    /// Build and initialise a machine for `arch`.
    #[must_use]
    pub fn new(arch: Arch) -> Machine {
        Machine::with_spec(arch.spec())
    }

    /// Build a machine from an explicit (possibly modified) specification —
    /// the entry point for architectural what-if studies.
    #[must_use]
    pub fn with_spec(spec: ArchSpec) -> Machine {
        let layout = KernelLayout::for_spec(&spec);
        let mut mem = MemorySystem::new(spec.mem.clone());
        // Map the kernel working set (pages in mapped segments only; the
        // memory system ignores translation for unmapped segments anyway,
        // and mapping them in the kernel table is harmless).
        for page in layout.kernel_pages() {
            mem.map_page(KERNEL_ASID, page, Protection::RWX);
        }
        // One user process with code, stack and the trap-benchmark test page.
        mem.create_space(USER_ASID);
        for page in [VirtAddr(0x0001_0000), VirtAddr(0x7fff_e000)] {
            mem.map_page(USER_ASID, page, Protection::RWX);
        }
        mem.map_page(USER_ASID, layout.user_page, Protection::RW);
        // The second process the context-switch benchmark ping-pongs with.
        mem.create_space(USER2_ASID);
        for page in [VirtAddr(0x0001_0000), VirtAddr(0x7fff_e000)] {
            mem.map_page(USER2_ASID, page, Protection::RWX);
        }
        mem.switch_to(USER_ASID);
        let cpu = Cpu::new(spec.clone());
        Machine {
            spec,
            cpu,
            mem,
            layout,
        }
    }

    /// The architecture specification.
    #[must_use]
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The kernel address layout.
    #[must_use]
    pub fn layout(&self) -> &KernelLayout {
        &self.layout
    }

    /// The memory system.
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Run a program once in kernel mode.
    pub fn run(&mut self, program: &Program) -> ExecOutcome {
        self.cpu.run(program, &mut self.mem, Mode::Kernel)
    }

    /// Run a program once in user mode.
    pub fn run_user(&mut self, program: &Program) -> ExecOutcome {
        self.cpu.run(program, &mut self.mem, Mode::User)
    }

    /// Run a program once in kernel mode with a tracer attached.
    pub fn run_with<T: Tracer>(&mut self, program: &Program, tracer: &mut T) -> ExecOutcome {
        self.cpu
            .run_with(program, &mut self.mem, Mode::Kernel, tracer)
    }

    /// Perform one warm-up iteration of the steady-state measurement
    /// protocol: run the handler once, then let the write buffer drain
    /// during the inter-invocation gap. Two of these followed by a
    /// measured run is exactly what [`Machine::measure`] reports.
    ///
    /// # Panics
    ///
    /// Panics if the program faults.
    pub fn warm_up(&mut self, program: &Program) {
        let out = self.run(program);
        assert!(
            out.completed(),
            "handler {program} faulted during warm-up: {:?}",
            out.fault
        );
        let drain = self.mem.write_buffer_drain_time();
        self.mem.advance(u64::from(drain) + 32);
    }

    /// Measure a handler in the steady state the paper's methodology
    /// produces: run it twice to warm caches and TLB, let the write buffer
    /// drain, then report the third run.
    ///
    /// # Panics
    ///
    /// Panics if the program faults — handler programs are expected to touch
    /// only pre-mapped kernel memory.
    pub fn measure(&mut self, program: &Program) -> ExecStats {
        self.measure_with(program, &mut osarch_trace::NullTracer)
    }

    /// [`Machine::measure`] with a tracer attached to the measured (third)
    /// run. The two warm-up runs are never traced — they exist only to
    /// reach the steady state — so with an [`osarch_trace::EventTracer`]
    /// the recorded events describe exactly the run whose stats are
    /// returned, and with [`osarch_trace::NullTracer`] this is
    /// bit-identical to [`Machine::measure`].
    ///
    /// # Panics
    ///
    /// Panics if the program faults.
    pub fn measure_with<T: Tracer>(&mut self, program: &Program, tracer: &mut T) -> ExecStats {
        // Inter-invocation gap after each warm-up: the benchmark loop's own
        // overhead lets the write buffer drain.
        self.warm_up(program);
        self.warm_up(program);
        let out = self.run_with(program, tracer);
        assert!(
            out.completed(),
            "handler {program} faulted: {:?}",
            out.fault
        );
        out.stats
    }

    /// Convert a cycle count into microseconds on this machine.
    #[must_use]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        self.spec.cycles_to_us(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_cpu::MicroOp;

    #[test]
    fn machines_build_for_every_arch() {
        for arch in Arch::all() {
            let machine = Machine::new(arch);
            assert_eq!(machine.spec().arch, arch);
        }
    }

    #[test]
    fn kernel_save_area_is_usable() {
        for arch in Arch::all() {
            let mut machine = Machine::new(arch);
            let base = machine.layout().save_area;
            let mut b = Program::builder("saves");
            b.store_run(base, 8).load_run(base, 8);
            let out = machine.run(&b.build());
            assert!(out.completed(), "{arch}: {:?}", out.fault);
        }
    }

    #[test]
    fn user_page_is_mapped_for_user_mode() {
        let mut machine = Machine::new(Arch::R3000);
        let page = machine.layout().user_page;
        machine.mem_mut().switch_to(USER_ASID);
        let mut b = Program::builder("touch");
        b.load(page);
        let out = machine.run_user(&b.build());
        assert!(out.completed());
    }

    #[test]
    fn user_mode_cannot_touch_kernel_data_on_mips() {
        let mut machine = Machine::new(Arch::R3000);
        let addr = machine.layout().save_area;
        machine.mem_mut().switch_to(USER_ASID);
        let mut b = Program::builder("violate");
        b.load(addr);
        let out = machine.run_user(&b.build());
        assert!(!out.completed(), "kseg0 must be kernel-only");
    }

    #[test]
    fn measure_returns_steady_state() {
        let mut machine = Machine::new(Arch::R2000);
        let base = machine.layout().save_area;
        let mut b = Program::builder("steady");
        b.store_run(base, 16).load_run(base, 16);
        let program = b.build();
        let warm = machine.measure(&program);
        let again = machine.measure(&program);
        assert_eq!(
            warm.cycles, again.cycles,
            "steady-state must be reproducible"
        );
    }

    #[test]
    #[should_panic(expected = "faulted")]
    fn measuring_a_faulting_program_panics() {
        let mut machine = Machine::new(Arch::R3000);
        let mut b = Program::builder("bad");
        b.op(MicroOp::Load(VirtAddr(0x7000_0000)));
        let _ = machine.measure(&b.build());
    }
}
