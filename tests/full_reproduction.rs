//! End-to-end reproduction tests: every table regenerates with the paper's
//! shape.

use osarch::paper;
use osarch::session;
use osarch::{measure, Arch, Primitive};

#[test]
fn all_reports_render_nonempty() {
    let reports = session::all_tables();
    assert_eq!(reports.len(), session::REPORTS.len());
    for report in &reports {
        let text = report.render();
        assert!(text.len() > 100, "{} looks empty", report.title());
        assert!(!report.is_empty(), "{} has no rows", report.title());
    }
}

#[test]
fn table1_reproduces_within_twenty_percent() {
    for (arch, row) in paper::TABLE1_US {
        let times = measure(arch).times_us();
        for (primitive, paper_us) in Primitive::all().into_iter().zip(row) {
            let ratio = times.time(primitive) / paper_us;
            assert!(
                (0.78..=1.22).contains(&ratio),
                "{arch} {primitive}: ratio {ratio:.2}"
            );
        }
    }
}

#[test]
fn table2_reproduces_exactly() {
    for (arch, row) in paper::TABLE2_INSTRUCTIONS {
        let counts = measure(arch).instruction_counts();
        assert_eq!(counts, row, "{arch}");
    }
}

#[test]
fn table5_phases_reproduce_the_inversion() {
    // The structural story: CVAX entry/exit slow, prep cheap; RISCs the
    // reverse.
    for (arch, row) in paper::TABLE5_US {
        let (entry, prep, call) = measure(arch).syscall_phases_us();
        let sim = [entry, prep, call];
        for (component, (sim_us, paper_us)) in ["entry/exit", "prep", "call/ret"]
            .iter()
            .zip(sim.iter().zip(row))
        {
            let ratio = sim_us / paper_us;
            assert!(
                (0.3..=1.6).contains(&ratio),
                "{arch} {component}: sim {sim_us:.2} vs paper {paper_us} (ratio {ratio:.2})"
            );
        }
    }
}

#[test]
fn table6_reproduces_exactly() {
    for (arch, [regs, fp, misc]) in paper::TABLE6_WORDS {
        let spec = arch.spec();
        assert_eq!(
            [
                spec.int_registers,
                spec.fp_state_words,
                spec.misc_state_words
            ],
            [regs, fp, misc],
            "{arch}"
        );
    }
}

#[test]
fn rpc_wire_shares_match_the_prose() {
    use osarch::ipc::{rpc_component, src_rpc_breakdown, RpcConfig};
    let small = src_rpc_breakdown(Arch::Cvax, RpcConfig::null_call());
    let large = src_rpc_breakdown(Arch::Cvax, RpcConfig::large_result());
    let small_wire = small.share(rpc_component::WIRE);
    let large_wire = large.share(rpc_component::WIRE);
    assert!(
        (small_wire - paper::table3::WIRE_SHARE_SMALL).abs() < 0.07,
        "{small_wire:.2}"
    );
    assert!(
        (large_wire - paper::table3::WIRE_SHARE_LARGE).abs() < 0.12,
        "{large_wire:.2}"
    );
}

#[test]
fn lrpc_tlb_share_matches_the_prose() {
    use osarch::ipc::{lrpc_breakdown, lrpc_component};
    let breakdown = lrpc_breakdown(Arch::Cvax);
    let share = breakdown.share(lrpc_component::TLB);
    assert!(
        (share - paper::table4::CVAX_TLB_SHARE).abs() < 0.08,
        "{share:.2}"
    );
}

#[test]
fn table7_shares_match_the_paper_bands() {
    use osarch::{simulate, standard_workloads, OsStructure};
    for w in standard_workloads() {
        let run = simulate(&w, OsStructure::Microkernel, Arch::R3000);
        let share = run.primitive_share();
        let paper_share = w.mach3_reference.primitive_share;
        assert!(
            (share - paper_share).abs() < 0.10,
            "{}: sim {share:.2} vs paper {paper_share:.2}",
            w.name
        );
    }
}

#[test]
fn sparc_projection_matches_the_prose() {
    use osarch::mach::syscall_switch_overhead_s;
    let projected = syscall_switch_overhead_s(Arch::Sparc, "andrew-remote");
    let ratio = projected / paper::intext::SPARC_ANDREW_OVERHEAD_S;
    assert!((0.6..=1.4).contains(&ratio), "projected {projected:.1} s");
}

#[test]
fn reproduction_is_fully_deterministic() {
    let a: Vec<String> = session::all_tables()
        .iter()
        .map(osarch::Table::render)
        .collect();
    let b: Vec<String> = session::all_tables()
        .iter()
        .map(osarch::Table::render)
        .collect();
    assert_eq!(a, b);
}
