//! The experiment registry: one function per paper table, each returning a
//! rendered [`Table`] with paper-vs-measured columns.

use crate::paper;
use crate::report::{fmt_f, fmt_pct, Table};
use crate::session::shared as session;
use osarch_cpu::{Arch, MicroOp, Program};
use osarch_ipc::{
    cpu_scaling_forecast, lrpc_breakdown, lrpc_component, message_rpc_us, rpc_component,
    rpc_scaling, src_rpc_breakdown, RpcConfig,
};
use osarch_kernel::{HandlerSet, Machine, Primitive};
use osarch_mach::{simulate, syscall_switch_overhead_s, OsStructure};
use osarch_mem::{Asid, Protection, Pte, Tlb, TlbConfig, TlbEntry};
use osarch_threads::{
    lock_pair_us, parthenon_run, synapse_report, thread_state_table, LockStrategy, ThreadCosts,
    SYNAPSE_RATIO_RANGE,
};
use osarch_workloads::standard_workloads;

/// Table 1: relative performance of primitive OS functions (paper µs,
/// simulated µs, and the simulated RISC:CVAX relative speed).
#[must_use]
pub fn table1() -> Table {
    let mut table = Table::new("Table 1: Relative Performance of Primitive OS Functions");
    table.headers([
        "Operation",
        "CVAX",
        "sim",
        "88000",
        "sim",
        "R2000",
        "sim",
        "R3000",
        "sim",
        "SPARC",
        "sim",
    ]);
    let measured: Vec<_> = paper::TABLE1_US
        .iter()
        .map(|(arch, _)| session().measurement(*arch))
        .collect();
    for (row, primitive) in Primitive::all().into_iter().enumerate() {
        let mut cells = vec![primitive.label().to_string()];
        for ((_, paper_row), m) in paper::TABLE1_US.iter().zip(&measured) {
            cells.push(fmt_f(paper_row[row], 1));
            cells.push(fmt_f(m.times_us().time(primitive), 2));
        }
        table.row(cells);
    }
    // Relative speed (simulated) and the application-performance row.
    let cvax = measured[0].times_us();
    let mut rel = vec![
        "Relative speed (sim, CVAX=1)".to_string(),
        String::new(),
        String::new(),
    ];
    for m in &measured[1..] {
        rel.push(String::new());
        rel.push(fmt_f(cvax.null_syscall / m.times_us().null_syscall, 1));
    }
    table.row(rel);
    let mut app = vec![
        "Application performance".to_string(),
        "1.0".to_string(),
        String::new(),
    ];
    for (arch, _) in &paper::TABLE1_US[1..] {
        app.push(fmt_f(arch.spec().application_speedup, 1));
        app.push(String::new());
    }
    table.row(app);
    table.note("paper columns from Table 1; sim columns from the calibrated machines");
    table.note("relative-speed row shown for the null system call");
    table
}

/// Table 2: instructions executed for primitive OS functions.
#[must_use]
pub fn table2() -> Table {
    let mut table = Table::new("Table 2: Instructions Executed for Primitive OS Functions");
    table.headers([
        "Operation",
        "CVAX",
        "sim",
        "88000",
        "sim",
        "R2/3000",
        "sim",
        "SPARC",
        "sim",
        "i860",
        "sim",
    ]);
    let measured: Vec<[u64; 4]> = paper::TABLE2_INSTRUCTIONS
        .iter()
        .map(|(arch, _)| session().measurement(*arch).instruction_counts())
        .collect();
    for (row, primitive) in Primitive::all().into_iter().enumerate() {
        let mut cells = vec![primitive.label().to_string()];
        for ((_, paper_row), sim) in paper::TABLE2_INSTRUCTIONS.iter().zip(&measured) {
            cells.push(paper_row[row].to_string());
            cells.push(sim[row].to_string());
        }
        table.row(cells);
    }
    table.note("simulated counts are pinned to the paper's by the handler generators");
    table
}

/// Table 3: SRC RPC processing time, small and large packets.
#[must_use]
pub fn table3() -> Table {
    let small = src_rpc_breakdown(Arch::Cvax, RpcConfig::null_call());
    let large = src_rpc_breakdown(Arch::Cvax, RpcConfig::large_result());
    let mut table = Table::new("Table 3: RPC Processing Time in SRC-style RPC (CVAX)");
    table.headers(["Component", "74B us", "74B %", "1500B us", "1500B %"]);
    for component in &small.components {
        let name = component.name;
        table.row([
            name.to_string(),
            fmt_f(small.micros(name), 1),
            fmt_pct(small.share(name)),
            fmt_f(large.micros(name), 1),
            fmt_pct(large.share(name)),
        ]);
    }
    table.row([
        "Total".to_string(),
        fmt_f(small.total_us(), 1),
        "100%".to_string(),
        fmt_f(large.total_us(), 1),
        "100%".to_string(),
    ]);
    table.note(format!(
        "paper (prose): wire {} small / ~{} large; simulated {} / {}",
        fmt_pct(paper::table3::WIRE_SHARE_SMALL),
        fmt_pct(paper::table3::WIRE_SHARE_LARGE),
        fmt_pct(small.share(rpc_component::WIRE)),
        fmt_pct(large.share(rpc_component::WIRE)),
    ));
    table.note("table body reconstructed: the published scan of Table 3 is corrupted");
    table
}

/// Table 4: LRPC processing time on the CVAX.
#[must_use]
pub fn table4() -> Table {
    let breakdown = lrpc_breakdown(Arch::Cvax);
    let mut table = Table::new("Table 4: LRPC Processing Time (CVAX)");
    table.headers(["Component", "us", "%", "hardware minimum"]);
    for component in &breakdown.components {
        table.row([
            component.name.to_string(),
            fmt_f(component.micros, 1),
            fmt_pct(breakdown.share(component.name)),
            if component.hardware_minimum {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    table.row([
        "Total".to_string(),
        fmt_f(breakdown.total_us(), 1),
        "100%".to_string(),
        fmt_f(breakdown.hardware_minimum_us(), 1),
    ]);
    table.note(format!(
        "paper/LRPC-paper reference: {} us total, {} us minimum, TLB share {}; simulated TLB share {}",
        paper::table4::CVAX_LRPC_US,
        paper::table4::CVAX_MINIMUM_US,
        fmt_pct(paper::table4::CVAX_TLB_SHARE),
        fmt_pct(breakdown.share(lrpc_component::TLB)),
    ));
    table.note("table body reconstructed: the published scan of Table 4 is corrupted");
    table
}

/// Table 5: time in the null system call, by phase.
#[must_use]
pub fn table5() -> Table {
    let mut table = Table::new("Table 5: Time in Null System Call (us)");
    table.headers(["Function", "CVAX", "sim", "R2000", "sim", "SPARC", "sim"]);
    let measured: Vec<(f64, f64, f64)> = paper::TABLE5_US
        .iter()
        .map(|(arch, _)| session().measurement(*arch).syscall_phases_us())
        .collect();
    let rows = ["Kernel entry/exit", "Call preparation", "Call/return to C"];
    for (i, label) in rows.iter().enumerate() {
        let mut cells = vec![(*label).to_string()];
        for ((_, paper_row), sim) in paper::TABLE5_US.iter().zip(&measured) {
            let sim_value = match i {
                0 => sim.0,
                1 => sim.1,
                _ => sim.2,
            };
            cells.push(fmt_f(paper_row[i], 1));
            cells.push(fmt_f(sim_value, 2));
        }
        table.row(cells);
    }
    let mut total = vec!["Total".to_string()];
    for ((_, paper_row), sim) in paper::TABLE5_US.iter().zip(&measured) {
        total.push(fmt_f(paper_row.iter().sum::<f64>(), 1));
        total.push(fmt_f(sim.0 + sim.1 + sim.2, 2));
    }
    table.row(total);
    table
}

/// Table 6: processor thread state.
#[must_use]
pub fn table6() -> Table {
    let mut table = Table::new("Table 6: Processor Thread State (32-bit words)");
    table.headers(["", "VAX", "88000", "R2/3000", "SPARC", "i860", "RS6000"]);
    let rows = thread_state_table();
    type RowGetter = fn(&osarch_threads::ThreadStateRow) -> u32;
    let labels: [(&str, RowGetter); 3] = [
        ("Registers", |r| r.registers),
        ("F.P. State", |r| r.fp_state),
        ("Misc. State", |r| r.misc_state),
    ];
    for (label, get) in labels {
        let mut cells = vec![label.to_string()];
        cells.extend(rows.iter().map(|r| get(r).to_string()));
        table.row(cells);
    }
    let mut totals = vec!["Total".to_string()];
    totals.extend(rows.iter().map(|r| r.total().to_string()));
    table.row(totals);
    table.note("identical to the paper's Table 6 by construction (architecture facts)");
    table
}

/// Table 7: application reliance on OS primitives, monolithic versus
/// decomposed, with the paper's measured Mach 3.0 values alongside.
#[must_use]
pub fn table7() -> Table {
    let mut table =
        Table::new("Table 7: Application Reliance on Operating System Primitives (R3000)");
    table.headers([
        "Workload / system",
        "Time s",
        "AS sw",
        "Thr sw",
        "Syscalls",
        "Emul",
        "KTLB",
        "Other",
        "% prims",
    ]);
    for workload in standard_workloads() {
        let mono = simulate(&workload, OsStructure::Monolithic, Arch::R3000);
        let micro = simulate(&workload, OsStructure::Microkernel, Arch::R3000);
        let reference = &workload.mach3_reference;
        let fmt_run = |name: String, time: f64, d: &osarch_workloads::ServiceDemand, share: f64| {
            vec![
                name,
                fmt_f(time, 1),
                d.as_switches.to_string(),
                d.thread_switches.to_string(),
                d.syscalls.to_string(),
                d.emulated_instructions.to_string(),
                d.kernel_tlb_misses.to_string(),
                d.other_exceptions.to_string(),
                fmt_pct(share),
            ]
        };
        table.row(fmt_run(
            format!("{} / Mach 2.5 sim", workload.name),
            mono.time_s,
            &mono.demand,
            mono.primitive_share(),
        ));
        table.row(fmt_run(
            format!("{} / Mach 3.0 sim", workload.name),
            micro.time_s,
            &micro.demand,
            micro.primitive_share(),
        ));
        table.row(fmt_run(
            format!("{} / Mach 3.0 paper", workload.name),
            reference.time_s,
            &reference.demand,
            reference.primitive_share,
        ));
    }
    table.note("Mach 2.5 counters are the workload definitions (= the paper's 2.5 rows)");
    table.note("Mach 3.0 sim rows are derived structurally; paper rows shown for comparison");
    table
}

/// Window-processing share of a measured handler: the cycles of an isolated
/// spill+fill sequence over the handler's total.
fn sparc_window_share(windows_ops: u32, total_cycles: u64) -> f64 {
    let mut machine = Machine::new(Arch::Sparc);
    let base = machine.layout().window_save;
    let mut b = Program::builder("isolated-windows");
    for i in 0..windows_ops {
        b.op(MicroOp::SaveWindow(base.offset(64 * i)));
    }
    for i in 0..windows_ops {
        b.op(MicroOp::RestoreWindow(base.offset(64 * i)));
    }
    let cycles = machine.measure(&b.build()).cycles;
    cycles as f64 / total_cycles as f64
}

/// The in-text results: one row per claim, paper value vs measured value.
#[must_use]
pub fn intext_results() -> Table {
    let mut table = Table::new("In-text results: paper vs simulation");
    table.headers(["Result", "Paper", "Simulated"]);

    let sparc = session().measurement(Arch::Sparc);
    table.row([
        "SPARC syscall: window-processing share".to_string(),
        fmt_pct(paper::intext::SPARC_SYSCALL_WINDOW_SHARE),
        fmt_pct(sparc_window_share(1, sparc.syscall.cycles)),
    ]);
    table.row([
        "SPARC ctx switch: window save/restore share".to_string(),
        fmt_pct(paper::intext::SPARC_CTXSW_WINDOW_SHARE),
        fmt_pct(sparc_window_share(3, sparc.context_switch.cycles)),
    ]);

    let r2000 = session().measurement(Arch::R2000);
    table.row([
        "R2000 trap: write-buffer stall share".to_string(),
        fmt_pct(paper::intext::R2000_TRAP_WB_SHARE),
        fmt_pct(r2000.trap.wb_stall_cycles as f64 / r2000.trap.cycles as f64),
    ]);
    let machine = Machine::new(Arch::R2000);
    let handlers = HandlerSet::generate(machine.spec(), machine.layout());
    let nops = handlers
        .syscall
        .ops()
        .iter()
        .filter(|(_, op)| matches!(op, MicroOp::DelayNop))
        .count() as f64;
    table.row([
        "R2000 syscall: unfilled-delay-slot share".to_string(),
        fmt_pct(paper::intext::R2000_SYSCALL_NOP_SHARE),
        fmt_pct(nops / r2000.syscall.cycles as f64),
    ]);

    let i860 = session().measurement(Arch::I860);
    table.row([
        "i860 PTE change: cache-flush instructions".to_string(),
        paper::intext::I860_FLUSH_INSTRS.to_string(),
        (i860.pte_change.instructions - 23).to_string(),
    ]);
    table.row([
        "i860 fault-address reconstruction instrs".to_string(),
        paper::intext::I860_FAULT_DECODE_INSTRS.to_string(),
        Arch::I860.spec().fault_decode_instrs.to_string(),
    ]);

    let costs = ThreadCosts::measure(Arch::Sparc);
    table.row([
        "SPARC thread switch / procedure call".to_string(),
        fmt_f(paper::intext::SPARC_SWITCH_CALL_RATIO, 0),
        fmt_f(costs.switch_to_call_ratio(), 0),
    ]);
    let synapse = synapse_report(Arch::Sparc, SYNAPSE_RATIO_RANGE.1);
    table.row([
        format!(
            "Synapse at {}:1 — switch time exceeds call time",
            SYNAPSE_RATIO_RANGE.1
        ),
        "yes".to_string(),
        if synapse.switches_dominate() {
            "yes"
        } else {
            "no"
        }
        .to_string(),
    ]);

    let parthenon = parthenon_run(Arch::R3000, 10, LockStrategy::KernelTrap);
    table.row([
        "parthenon (MIPS): share of time in kernel sync".to_string(),
        fmt_pct(paper::intext::PARTHENON_SYNC_SHARE),
        fmt_pct(parthenon.sync_share()),
    ]);
    table.row([
        "MIPS kernel lock vs Lamport software lock (us)".to_string(),
        "n/a".to_string(),
        format!(
            "{} vs {}",
            fmt_f(lock_pair_us(Arch::R3000, LockStrategy::KernelTrap), 1),
            fmt_f(lock_pair_us(Arch::R3000, LockStrategy::LamportFast), 1)
        ),
    ]);

    table.row([
        "SPARC andrew-remote syscall+switch overhead (s)".to_string(),
        fmt_f(paper::intext::SPARC_ANDREW_OVERHEAD_S, 1),
        fmt_f(syscall_switch_overhead_s(Arch::Sparc, "andrew-remote"), 1),
    ]);

    let sprite = rpc_scaling(Arch::Cvax, Arch::Sparc);
    table.row([
        "RPC speedup when integer speed rises ~4-5x".to_string(),
        format!("~{:.0}x (Sprite)", paper::intext::SPRITE_RPC_SPEEDUP),
        format!(
            "{:.1}x (app {:.1}x)",
            sprite.rpc_speedup, sprite.application_speedup
        ),
    ]);
    let forecast = cpu_scaling_forecast(Arch::Cvax, 3.0);
    table.row([
        "3x CPU: naive vs delivered RPC latency cut".to_string(),
        "50% naive".to_string(),
        format!(
            "{} naive, {} delivered",
            fmt_pct(forecast.naive_reduction),
            fmt_pct(forecast.delivered_reduction)
        ),
    ]);
    table.row([
        "LRPC improvement over message-based local RPC".to_string(),
        format!("{:.0}x", paper::intext::LRPC_IMPROVEMENT),
        format!(
            "{:.1}x",
            message_rpc_us(Arch::Cvax) / lrpc_breakdown(Arch::Cvax).total_us()
        ),
    ]);

    let workload = standard_workloads()
        .into_iter()
        .find(|w| w.name == "andrew-remote")
        .unwrap();
    let micro = simulate(&workload, OsStructure::Microkernel, Arch::R3000);
    table.row([
        "andrew-remote context-switch blow-up (2.5 -> 3.0)".to_string(),
        format!("{:.0}x", paper::intext::ANDREW_REMOTE_SWITCH_BLOWUP),
        format!(
            "{:.0}x",
            micro.demand.as_switches as f64 / workload.demand.as_switches as f64
        ),
    ]);
    table
}

/// The Section 3 "overloaded uses of virtual memory": garbage collection,
/// checkpointing, recoverable virtual memory and transaction locking all
/// ride on user-level handling of protection faults. This table prices one
/// reflected fault (kernel dispatch + upcall + user decision + re-protect)
/// per architecture and the CPU share a runtime generating such faults at a
/// given rate would lose.
#[must_use]
pub fn vm_overloading() -> Table {
    use osarch_kernel::user_fault_reflection_us;
    let mut table = Table::new("Overloading virtual memory (Section 3): user-level fault handling");
    table.headers([
        "Arch",
        "reflect us",
        "re-protect us",
        "event us",
        "GC @5k/s",
        "ckpt @1k/s",
    ]);
    for arch in Arch::timed() {
        let reflect = user_fault_reflection_us(arch);
        let pte = session().measurement(arch).times_us().pte_change;
        let event = reflect + pte;
        table.row([
            arch.to_string(),
            fmt_f(reflect, 1),
            fmt_f(pte, 1),
            fmt_f(event, 1),
            fmt_pct(event * 5_000.0 / 1e6),
            fmt_pct(event * 1_000.0 / 1e6),
        ]);
    }
    table.note("event = fault reflected to a user-level handler + PTE re-protection");
    table.note("GC = write-barrier collector; ckpt = incremental checkpoint dirty tracking");
    table
}

/// The TLB-effectiveness study of Section 3.2.
///
/// Two results in one table. First, Clark & Emer's VAX-11/780 observation —
/// "while the VMS operating system accounts for only one fifth of all
/// references, it accounts for more than two thirds of all TLB misses" —
/// regenerated by running a mixed user/system reference stream through a
/// TLB: system references are sparse and switch-riddled, user references
/// have locality. Second, the paper's warning that "kernelized operating
/// systems will increase the demand for tag bits and TLB size": miss rate
/// versus the number of communicating address spaces.
#[must_use]
pub fn tlb_effectiveness() -> Table {
    let mut table = Table::new("TLB effectiveness (Section 3.2)");
    table.headers(["Experiment", "Config", "Result"]);
    let [user, system] = clark_emer_counts();
    let system_ref_share = system.refs as f64 / (user.refs + system.refs) as f64;
    let system_miss_share = system.misses as f64 / (user.misses + system.misses) as f64;
    table.row([
        "Clark & Emer reference share".to_string(),
        "VAX-like, 64-entry TLB".to_string(),
        format!("system = {} of references", fmt_pct(system_ref_share)),
    ]);
    table.row([
        "Clark & Emer miss share".to_string(),
        "paper: >2/3 of misses".to_string(),
        format!("system = {} of misses", fmt_pct(system_miss_share)),
    ]);
    for spaces in KERNELIZED_SPACES {
        let run = kernelized_counts(spaces);
        table.row([
            "kernelized TLB pressure".to_string(),
            format!("{spaces} address spaces x 12 pages"),
            format!("miss rate {}", fmt_pct(run.misses as f64 / run.refs as f64)),
        ]);
    }
    table.note("past ~5 communicating spaces the 64-entry TLB no longer holds the union");
    table
}

/// References and misses of one class of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    refs: u64,
    misses: u64,
}

/// One reference of a stream: its page, its context and the class it is
/// counted in.
type Reference = (u32, u16, usize);

/// Send `len` references through `tlb`, refilling each miss as a
/// software-refilled TLB does, and count references and misses per class.
/// Reference `step` is `stream(step % period)`, so the stream repeats
/// every `period` steps by construction.
///
/// The counts are those of simulating every step, but only the steps up to
/// the first repeat and a tail are simulated. The TLB is deterministic, so
/// its contents at a period boundary fix everything after it. A clone is
/// kept at each boundary; once the TLB holds what it held at an earlier
/// boundary ([`Tlb::same_contents`]), the stretch between the two recurs
/// whole until the end, so its counts are added once for each whole
/// recurrence left, and only the remainder, which starts at phase 0 from
/// the same contents, is simulated.
fn run_periodic<const CLASSES: usize>(
    mut tlb: Tlb,
    len: u32,
    period: u32,
    stream: impl Fn(u32) -> Reference,
) -> [Tally; CLASSES] {
    let mut counts = [Tally::default(); CLASSES];
    let simulate = |tlb: &mut Tlb, counts: &mut [Tally; CLASSES], steps| {
        for step in steps {
            let (vpn, asid, class) = stream(step % period);
            counts[class].refs += 1;
            counts[class].misses += u64::from(touch(tlb, vpn, asid));
        }
    };
    let mut boundaries: Vec<(Tlb, [Tally; CLASSES])> = Vec::new();
    let mut step = 0;
    while step < len {
        if let Some(first) = boundaries
            .iter()
            .position(|(then, _)| then.same_contents(&tlb))
        {
            let cycle = (boundaries.len() - first) as u32 * period;
            let repeats = (len - step) / cycle;
            for (now, then) in counts.iter_mut().zip(boundaries[first].1) {
                now.refs += u64::from(repeats) * (now.refs - then.refs);
                now.misses += u64::from(repeats) * (now.misses - then.misses);
            }
            step += repeats * cycle;
            break;
        }
        boundaries.push((tlb.clone(), counts));
        let end = len.min(step + period);
        simulate(&mut tlb, &mut counts, step..end);
        step = end;
    }
    simulate(&mut tlb, &mut counts, step..len);
    counts
}

/// Look `vpn` up in context `asid`, refilling the entry on a miss as a
/// software-refilled TLB does. Returns whether it missed.
fn touch(tlb: &mut Tlb, vpn: u32, asid: u16) -> bool {
    let missed = tlb.lookup(vpn, Asid(asid)).is_none();
    if missed {
        tlb.insert(TlbEntry {
            vpn,
            asid: Some(Asid(asid)),
            pte: Pte::new(vpn, Protection::RWX),
            locked: false,
        });
    }
    missed
}

/// Clark & Emer's stream repeats every 48,000 steps: the least common
/// multiple of the system share (5), the system working set (300), the
/// context-switch cycle (4 × 4,000) and the user working set (16).
const CLARK_EMER_PERIOD: u32 = 48_000;

/// Clark & Emer's references, a little over four periods.
const CLARK_EMER_LEN: u32 = 200_000;

/// Clark & Emer's classes, in [`clark_emer_counts`] order.
const USER: usize = 0;
const SYSTEM: usize = 1;

/// One reference of Clark & Emer's stream, at `phase` of its period.
fn clark_emer_reference(phase: u32) -> Reference {
    if phase.is_multiple_of(5) {
        // System reference: a sparse, wide working set (buffers, PCBs,
        // page tables of whichever process is running).
        (0x80_000 + (phase * 7919) % 300, 0, SYSTEM)
    } else {
        // User reference: tight locality within the current process.
        let process = (phase / 4000) % 4; // occasional context switch
        let vpn = process * 0x1000 + (phase * 31) % 16;
        (vpn, process as u16 + 1, USER)
    }
}

/// Clark & Emer: user and system references and misses through a
/// 64-entry tagged TLB.
fn clark_emer_counts() -> [Tally; 2] {
    run_periodic(
        Tlb::new(TlbConfig::tagged(64)),
        CLARK_EMER_LEN,
        CLARK_EMER_PERIOD,
        clark_emer_reference,
    )
}

/// The kernelized sweep's numbers of communicating address spaces.
const KERNELIZED_SPACES: [u16; 5] = [2, 4, 6, 8, 16];

/// The kernelized sweep's references: 2,000 rounds of 36.
const KERNELIZED_LEN: u32 = 2_000 * 36;

/// One reference of the kernelized sweep, at `phase` of its period: RPC
/// among the servers, round-robin, each visit touching its 12-page
/// working set three times (dispatch, work, reply). With `spaces` servers
/// the stream repeats every 36 × `spaces` steps, and the phase names the
/// server it is visiting.
fn kernelized_reference(phase: u32) -> Reference {
    let space = phase / 36;
    (space * 0x100 + phase % 12, space as u16, 0)
}

/// Kernelized structure: references and misses with `spaces` address
/// spaces.
fn kernelized_counts(spaces: u16) -> Tally {
    let [tally] = run_periodic(
        Tlb::new(TlbConfig::tagged(64)),
        KERNELIZED_LEN,
        36 * u32::from(spaces),
        kernelized_reference,
    );
    tally
}

/// Kernel threads vs user threads vs scheduler activations (Section 4).
#[must_use]
pub fn thread_models() -> Table {
    use osarch_threads::{model_overhead_us, ThreadModel, ThreadWorkload};
    let mut table = Table::new("Thread-model overhead (Section 4): ms per workload");
    table.headers(["Arch", "Workload", "kernel", "user", "activations"]);
    for arch in [Arch::Cvax, Arch::R3000, Arch::Sparc] {
        for (name, workload) in [
            ("fine-grained", ThreadWorkload::fine_grained()),
            ("I/O-bound", ThreadWorkload::io_bound()),
        ] {
            let ms = |model| model_overhead_us(arch, model, &workload) / 1000.0;
            table.row([
                arch.to_string(),
                name.to_string(),
                fmt_f(ms(ThreadModel::KernelThreads), 1),
                fmt_f(ms(ThreadModel::UserThreads), 1),
                fmt_f(ms(ThreadModel::SchedulerActivations), 1),
            ]);
        }
    }
    table.note("plain user threads stall the whole address space on blocking events;");
    table.note("scheduler activations keep user-level costs and handle blocking via upcalls");
    table
}

/// The paper's closing warning, quantified: next-generation implementations
/// whose clocks rise while memory latency (in nanoseconds) stands still.
/// Integer code keeps scaling; the OS primitives do not.
#[must_use]
pub fn future_machines() -> Table {
    use osarch_kernel::measure_with_spec;
    let mut table =
        Table::new("Next-generation machines (Section 6): clock scaling vs the memory wall");
    table.headers([
        "Machine",
        "MHz",
        "app speedup",
        "syscall us",
        "trap us",
        "ctxsw us",
        "primitive speedup",
    ]);
    for arch in [Arch::R3000, Arch::Sparc] {
        let base = measure_with_spec(arch.spec());
        let base_times = base.times_us();
        for factor in [1.0, 2.0, 4.0] {
            let spec = arch.spec().with_scaled_clock(factor);
            let m = measure_with_spec(spec.clone());
            let times = m.times_us();
            let primitive_speedup = base_times.null_syscall / times.null_syscall;
            table.row([
                format!("{arch} x{factor:.0}"),
                fmt_f(spec.clock_mhz, 0),
                format!("{:.1}x", factor * if factor > 1.0 { 0.9 } else { 1.0 }),
                fmt_f(times.null_syscall, 2),
                fmt_f(times.trap, 2),
                fmt_f(times.context_switch, 2),
                format!("{primitive_speedup:.1}x"),
            ]);
        }
    }
    table.note("memory keeps its nanosecond latency, so memory-bound primitive work");
    table.note("grows in cycles: primitives scale sublinearly with the clock");
    table
}

/// Decomposition-depth study: "the performance of operating system
/// primitives on current architectures may limit the extent to which
/// systems such as Mach can be further decomposed" (Section 5). Sweep the
/// number of servers each service request crosses.
#[must_use]
pub fn decomposition_depth() -> Table {
    use osarch_mach::OsStructure;
    let mut table = Table::new("Decomposition depth (Section 5): andrew-local as servers multiply");
    table.headers([
        "Servers per service",
        "Time s",
        "Syscalls",
        "AS switches",
        "% prims",
    ]);
    let base = standard_workloads()
        .into_iter()
        .find(|w| w.name == "andrew-local")
        .expect("standard workload");
    let mono = simulate(&base, OsStructure::Monolithic, Arch::R3000);
    table.row([
        "0 (monolithic)".to_string(),
        fmt_f(mono.time_s, 1),
        mono.demand.syscalls.to_string(),
        mono.demand.as_switches.to_string(),
        fmt_pct(mono.primitive_share()),
    ]);
    for depth in [1.0, 2.0, 3.0, 4.0] {
        let mut workload = base.clone();
        workload.rpcs_per_service = base.rpcs_per_service * depth;
        let run = simulate(&workload, OsStructure::Microkernel, Arch::R3000);
        table.row([
            format!("{depth:.0}"),
            fmt_f(run.time_s, 1),
            run.demand.syscalls.to_string(),
            run.demand.as_switches.to_string(),
            fmt_pct(run.primitive_share()),
        ]);
    }
    table.note("each extra server a request crosses adds RPCs, switches and TLB pressure");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_mem::Replacement;
    use osarch_trace::SplitMix64;
    use std::cell::Cell;

    #[test]
    fn table1_has_four_primitive_rows_plus_summary() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("Null system call"));
    }

    #[test]
    fn table2_sim_equals_paper() {
        let text = table2().render();
        // Spot-check a couple of pinned counts: paper and sim adjacent.
        assert!(text.contains("559"));
        assert!(text.contains("326"));
    }

    #[test]
    fn table3_and_4_render_with_notes() {
        assert!(table3().render().contains("reconstructed"));
        assert!(table4().render().contains("hardware minimum"));
    }

    #[test]
    fn table5_totals_present() {
        let text = table5().render();
        assert!(text.contains("Call preparation"));
        assert!(text.contains("Total"));
    }

    #[test]
    fn table6_matches_paper_exactly() {
        let text = table6().render();
        assert!(text.contains("136"));
        assert!(text.contains("Misc. State"));
    }

    #[test]
    fn table7_contains_all_workloads_three_ways() {
        let t = table7();
        assert_eq!(t.len(), 21, "7 workloads x (2.5 sim, 3.0 sim, 3.0 paper)");
    }

    #[test]
    fn intext_covers_the_headline_claims() {
        let text = intext_results().render();
        for needle in [
            "window",
            "write-buffer",
            "Synapse",
            "parthenon",
            "andrew-remote",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn future_machines_show_sublinear_primitive_scaling() {
        use osarch_kernel::measure_with_spec;
        // The SPARC's memory-bound window traffic caps its primitive
        // scaling hard; the R3000's leaner path scales better but still
        // below the clock.
        let sparc_base = measure_with_spec(Arch::Sparc.spec()).times_us();
        let sparc_fast = measure_with_spec(Arch::Sparc.spec().with_scaled_clock(4.0)).times_us();
        let sparc_speedup = sparc_base.null_syscall / sparc_fast.null_syscall;
        assert!(
            sparc_speedup < 2.6,
            "4x clock should deliver well under 3x on SPARC syscalls: {sparc_speedup:.1}"
        );
        assert!(sparc_speedup > 1.0, "still faster in absolute terms");
        let r3000_base = measure_with_spec(Arch::R3000.spec()).times_us();
        let r3000_fast = measure_with_spec(Arch::R3000.spec().with_scaled_clock(4.0)).times_us();
        let r3000_speedup = r3000_base.null_syscall / r3000_fast.null_syscall;
        assert!(r3000_speedup < 4.0, "never superlinear");
        assert!(
            r3000_speedup > sparc_speedup,
            "leaner kernel paths scale better"
        );
        // Context switches, the most memory-bound primitive, scale worst.
        let ctx_speedup = sparc_base.context_switch / sparc_fast.context_switch;
        assert!(
            ctx_speedup < sparc_speedup,
            "ctx {ctx_speedup:.1} vs syscall {sparc_speedup:.1}"
        );
    }

    #[test]
    fn decomposition_depth_raises_the_primitive_share() {
        let table = decomposition_depth();
        assert_eq!(table.len(), 5);
        // The rendered shares must be monotone by construction; spot-check
        // via the underlying model.
        let base = standard_workloads()
            .into_iter()
            .find(|w| w.name == "andrew-local")
            .unwrap();
        let mut shallow = base.clone();
        shallow.rpcs_per_service = base.rpcs_per_service;
        let mut deep = base.clone();
        deep.rpcs_per_service = base.rpcs_per_service * 4.0;
        let s = simulate(&shallow, osarch_mach::OsStructure::Microkernel, Arch::R3000);
        let d = simulate(&deep, osarch_mach::OsStructure::Microkernel, Arch::R3000);
        assert!(d.primitive_share() > s.primitive_share() * 1.5);
    }

    /// Every step of `len`, simulated in order: the oracle for
    /// [`run_periodic`].
    fn every_step<const CLASSES: usize>(
        mut tlb: Tlb,
        len: u32,
        period: u32,
        stream: impl Fn(u32) -> Reference,
    ) -> [Tally; CLASSES] {
        let mut counts = [Tally::default(); CLASSES];
        for step in 0..len {
            let (vpn, asid, class) = stream(step % period);
            counts[class].refs += 1;
            counts[class].misses += u64::from(touch(&mut tlb, vpn, asid));
        }
        counts
    }

    /// Clark & Emer's stream as a plain loop over its steps: user, system.
    fn clark_emer_every_step() -> [Tally; 2] {
        let mut tlb = Tlb::new(TlbConfig::tagged(64));
        let mut counts = [Tally::default(); 2];
        for step in 0..200_000u32 {
            let (vpn, asid, class) = if step.is_multiple_of(5) {
                (0x80_000 + (step * 7919) % 300, 0, SYSTEM)
            } else {
                let process = (step / 4000) % 4;
                let vpn = process * 0x1000 + (step * 31) % 16;
                (vpn, process as u16 + 1, USER)
            };
            counts[class].refs += 1;
            counts[class].misses += u64::from(touch(&mut tlb, vpn, asid));
        }
        counts
    }

    /// The kernelized sweep as a plain loop over its rounds.
    fn kernelized_every_step(spaces: u16) -> Tally {
        let mut tlb = Tlb::new(TlbConfig::tagged(64));
        let mut tally = Tally::default();
        for round in 0..2_000u32 {
            let space = (round % u32::from(spaces)) as u16;
            for _pass in 0..3 {
                for page in 0..12u32 {
                    tally.refs += 1;
                    tally.misses +=
                        u64::from(touch(&mut tlb, u32::from(space) * 0x100 + page, space));
                }
            }
        }
        tally
    }

    #[test]
    fn tlb_counts_equal_the_plain_loops_and_the_paper_shape() {
        let tally = |refs, misses| Tally { refs, misses };
        let clark_emer = clark_emer_counts();
        assert_eq!(clark_emer, clark_emer_every_step());
        assert_eq!(clark_emer, [tally(160_000, 12_800), tally(40_000, 40_000)]);
        // Section 3.2: the system makes one fifth of the references but
        // more than two thirds of the misses.
        let [user, system] = clark_emer;
        assert_eq!(5 * system.refs, user.refs + system.refs);
        assert!(3 * system.misses > 2 * (user.misses + system.misses));
        for (spaces, misses) in KERNELIZED_SPACES
            .into_iter()
            .zip([24, 48, 24_000, 24_000, 24_000])
        {
            let kernelized = kernelized_counts(spaces);
            assert_eq!(kernelized, kernelized_every_step(spaces));
            assert_eq!(kernelized, tally(72_000, misses));
        }
    }

    /// How many references `run_periodic` simulates for a stream.
    fn simulated<const CLASSES: usize>(len: u32, period: u32, stream: fn(u32) -> Reference) -> u32 {
        let calls = Cell::new(0);
        run_periodic::<CLASSES>(Tlb::new(TlbConfig::tagged(64)), len, period, |phase| {
            calls.set(calls.get() + 1);
            stream(phase)
        });
        calls.get()
    }

    #[test]
    fn tlb_streams_are_simulated_only_until_they_repeat() {
        // Clark & Emer's TLB at step 96,000 holds what it held at 48,000:
        // two periods, then 2 whole cycles skipped and an 8,000-step tail.
        assert_eq!(
            simulated::<2>(CLARK_EMER_LEN, CLARK_EMER_PERIOD, clark_emer_reference),
            104_000
        );
        let kernelized: Vec<u32> = KERNELIZED_SPACES
            .into_iter()
            .map(|spaces| {
                simulated::<1>(KERNELIZED_LEN, 36 * u32::from(spaces), kernelized_reference)
            })
            .collect();
        assert_eq!(kernelized, [144, 288, 2_880, 1_152, 1_152]);
    }

    #[test]
    fn run_periodic_counts_what_every_step_counts_on_random_streams() {
        let mut rng = SplitMix64::new(0x7157_ab1e);
        let (mut fitting, mut overflowing) = (0, 0);
        for case in 0..4_000 {
            let entries = [2usize, 3, 4, 8, 64][rng.range(5) as usize];
            let replacement = if rng.chance(0.25) {
                Replacement::PseudoRandom
            } else {
                Replacement::Fifo
            };
            let config = TlbConfig {
                replacement,
                ..TlbConfig::tagged(entries)
            };
            // Page-and-context sets that fit the TLB, and sets that
            // overflow it by up to twice its size.
            let contexts = 1 + rng.range(3) as u32;
            let keys = if rng.chance(0.5) {
                1 + rng.range(entries as u64)
            } else {
                entries as u64 + 1 + rng.range(2 * entries as u64)
            } as u32;
            let pages = keys.div_ceil(contexts);
            let period = 1 + rng.range(48) as u32;
            let stream: Vec<Reference> = (0..period)
                .map(|_| {
                    (
                        rng.range(u64::from(pages)) as u32,
                        rng.range(u64::from(contexts)) as u16,
                        rng.range(2) as usize,
                    )
                })
                .collect();
            // Mostly not a whole number of periods.
            let len = period * rng.range(40) as u32 + rng.range(u64::from(period)) as u32;
            let calls = Cell::new(0);
            let driven = run_periodic::<2>(Tlb::new(config), len, period, |phase| {
                calls.set(calls.get() + 1);
                stream[phase as usize]
            });
            let plain = every_step::<2>(Tlb::new(config), len, period, |phase| {
                stream[phase as usize]
            });
            assert_eq!(
                driven, plain,
                "case {case}: {config:?}, {pages} pages x {contexts} contexts, \
                 period {period}, {len} steps"
            );
            if calls.get() < len {
                if pages * contexts <= entries as u32 {
                    fitting += 1;
                } else {
                    overflowing += 1;
                }
            }
        }
        // Both kinds of set reach the fast-forward often.
        assert!(
            fitting >= 1_000 && overflowing >= 1_000,
            "{fitting} and {overflowing} cases skipped steps"
        );
    }

    #[test]
    fn thread_models_render() {
        let t = thread_models();
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("activations"));
    }

    #[test]
    fn vm_overloading_covers_the_timed_archs() {
        let t = vm_overloading();
        assert_eq!(t.len(), 5);
        let text = t.render();
        assert!(text.contains("GC"));
        assert!(text.contains("SPARC"));
    }
}
