//! `osarch` — command-line front end for the ASPLOS 1991 reproduction.
//!
//! ```text
//! osarch tables [NAME] [--json]  print reproduction tables (default: all)
//! osarch bench-json [PATH]       write machine-readable measurements
//! osarch measure ARCH            measure the four primitives on one machine
//! osarch listing ARCH OP         print a handler program listing
//! osarch compare ARCH ARCH       compare two machines primitive by primitive
//! osarch lint [ARCH] [--json] [--deny-warnings]
//!                                statically verify the generated handlers
//! osarch analyze [ARCH] [--json] [--deny-warnings] [--out PATH]
//!                                prove/refute dataflow invariants per program
//! osarch trace ARCH OP [--out PATH] [--counters]
//!                                cycle-level trace of one primitive
//! osarch archs                   list the modelled architectures
//! ```
//!
//! plus the serving commands `serve`, `loadgen`, `chaos` and `top` from
//! `osarch-serve`. Every command reads its arguments through one reader,
//! [`Args`], over its [`Synopsis`], and refuses with exit 2 and
//! one line on stderr what it will not use. `osarch` with no command, or
//! an unknown one, prints the usage text rendered from every synopsis.

use osarch::kernel::{HandlerSet, Machine};
use osarch::names::{Args, Synopsis};
use osarch::{
    measure, metrics, serve, session, trace_primitive, AbsintAnalyzer, Analyzer, Arch, Primitive,
};
use std::process::ExitCode;

const TABLES: Synopsis = Synopsis {
    command: "tables",
    grammar: &["[NAME] [--json]"],
    about: &[
        "print reproduction tables (table1..table7,",
        "intext, ablations, vm, tlb, threads, future, depth)",
    ],
};

const BENCH_JSON: Synopsis = Synopsis {
    command: "bench-json",
    grammar: &["[PATH]"],
    about: &[
        "write per-primitive measurements as JSON",
        "(default BENCH_repro.json; `-` for stdout)",
    ],
};

const MEASURE: Synopsis = Synopsis {
    command: "measure",
    grammar: &["ARCH"],
    about: &["measure the four primitives on one machine"],
};

const LISTING: Synopsis = Synopsis {
    command: "listing",
    grammar: &["ARCH OP"],
    about: &["print a handler listing (syscall|trap|pte|ctxsw)"],
};

const COMPARE: Synopsis = Synopsis {
    command: "compare",
    grammar: &["ARCH ARCH"],
    about: &["compare two machines"],
};

const LINT: Synopsis = Synopsis {
    command: "lint",
    grammar: &["[ARCH] [--json] [--deny-warnings]"],
    about: &["statically verify the generated handler programs"],
};

const ANALYZE: Synopsis = Synopsis {
    command: "analyze",
    grammar: &["[ARCH] [--json] [--deny-warnings] [--out PATH]"],
    about: &[
        "abstract-interpretation verifier: prove or refute",
        "the dataflow invariants, with proof artifacts",
    ],
};

const TRACE: Synopsis = Synopsis {
    command: "trace",
    grammar: &["ARCH OP [--out PATH] [--counters]"],
    about: &[
        "cycle-level trace of one primitive: phase profile",
        "to stdout, Chrome-trace JSON to PATH, counters JSON",
    ],
};

const ARCHS: Synopsis = Synopsis {
    command: "archs",
    grammar: &[],
    about: &["list the modelled architectures"],
};

/// Every command, in usage-text order.
const COMMANDS: [&Synopsis; 13] = [
    &TABLES,
    &BENCH_JSON,
    &MEASURE,
    &LISTING,
    &COMPARE,
    &LINT,
    &ANALYZE,
    &TRACE,
    &serve::server::SYNOPSIS,
    &serve::loadgen::SYNOPSIS,
    &serve::soak::SYNOPSIS,
    &serve::top::SYNOPSIS,
    &ARCHS,
];

fn usage() -> ExitCode {
    let entries: Vec<String> = COMMANDS.iter().map(|c| c.usage_entry()).collect();
    eprintln!(
        "usage: osarch <command>\n\ncommands:\n{}",
        entries.join("\n")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let outcome = match command.as_str() {
        "archs" => archs(rest),
        "tables" => tables(rest),
        "bench-json" => bench_json(rest),
        "measure" => measure_one(rest),
        "listing" => listing(rest),
        "compare" => compare(rest),
        "lint" => lint(rest),
        "analyze" => analyze(rest),
        "trace" => trace(rest),
        "serve" => serve::server::cli(rest),
        "loadgen" => serve::loadgen::cli(rest),
        "chaos" => serve::soak::cli(rest),
        "top" => serve::top::cli(rest),
        _ => return usage(),
    };
    outcome.unwrap_or_else(|refusal| {
        eprintln!("{refusal}");
        ExitCode::from(2)
    })
}

/// Exit 0 when a verifier's report passes, else 1.
fn verdict(passes: bool) -> ExitCode {
    if passes {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write `doc` to `path`, printing `wrote PATH: WHAT, N bytes`; exit 1
/// with a one-line reason when it cannot be written.
fn write_file(path: &str, doc: &str, what: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, doc) {
        Ok(()) => {
            println!("wrote {path}: {what}, {} bytes", doc.len());
            Ok(())
        }
        Err(err) => {
            eprintln!("cannot write {path}: {err}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Exports exist to be consumed by other tools: validate unconditionally
/// and never write a malformed document.
fn checked(doc: &str, what: &str) -> Result<(), ExitCode> {
    metrics::validate_json(doc).map_err(|offset| {
        eprintln!("internal error: {what} JSON invalid at byte {offset}");
        ExitCode::FAILURE
    })
}

fn archs(args: &[String]) -> Result<ExitCode, String> {
    Args::new(&ARCHS, args).finish()?;
    for arch in Arch::all() {
        let spec = arch.spec();
        println!(
            "{:8} {:>6.2} MHz  app {:>3.1}x  {} + {} + {} state words",
            arch.to_string(),
            spec.clock_mhz,
            spec.application_speedup,
            spec.int_registers,
            spec.fp_state_words,
            spec.misc_state_words,
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn tables(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&TABLES, args);
    let json = args.switch("--json");
    let selector = args.report()?;
    args.finish()?;
    let reports = session::resolve_reports(selector).expect("the selector was validated");
    if json {
        print!("{}", metrics::tables_json(&reports));
    } else {
        for report in reports {
            println!("{report}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn bench_json(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&BENCH_JSON, args);
    let path = args.positional().unwrap_or("BENCH_repro.json");
    args.finish()?;
    let doc = metrics::bench_json();
    debug_assert_eq!(metrics::validate_json(&doc), Ok(()));
    if path == "-" {
        print!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }
    let what = format!("{} architectures", Arch::all().len());
    Ok(write_file(path, &doc, &what)
        .err()
        .unwrap_or(ExitCode::SUCCESS))
}

fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&MEASURE, args);
    let arch = args.arch()?;
    args.finish()?;
    let m = measure(arch);
    let times = m.times_us();
    let counts = m.instruction_counts();
    println!("{arch} ({:.2} MHz):", m.clock_mhz);
    for (primitive, count) in Primitive::all().into_iter().zip(counts) {
        println!(
            "  {:26} {:>8.2} us  {:>4} instructions",
            primitive.label(),
            times.time(primitive),
            count
        );
    }
    let (entry, prep, call) = m.syscall_phases_us();
    println!(
        "  syscall phases: entry/exit {entry:.2} us, prep {prep:.2} us, call/ret {call:.2} us"
    );
    Ok(ExitCode::SUCCESS)
}

fn listing(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&LISTING, args);
    let arch = args.arch()?;
    let primitive = args.primitive()?;
    args.finish()?;
    let machine = Machine::new(arch);
    let handlers = HandlerSet::generate(machine.spec(), machine.layout());
    print!("{}", handlers.program(primitive).listing());
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&COMPARE, args);
    let a = args.arch()?;
    let b = args.arch()?;
    args.finish()?;
    let (ma, mb) = (measure(a), measure(b));
    println!(
        "{:26} {:>10} {:>10} {:>8}",
        "operation",
        a.to_string(),
        b.to_string(),
        "ratio"
    );
    for primitive in Primitive::all() {
        let (ta, tb) = (ma.times_us().time(primitive), mb.times_us().time(primitive));
        println!(
            "{:26} {:>8.2}us {:>8.2}us {:>7.2}x",
            primitive.label(),
            ta,
            tb,
            ta / tb
        );
    }
    println!(
        "{:26} {:>10.1} {:>10.1} {:>7.2}x",
        "application performance",
        a.spec().application_speedup,
        b.spec().application_speedup,
        a.spec().application_speedup / b.spec().application_speedup
    );
    Ok(ExitCode::SUCCESS)
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&LINT, args);
    let json = args.switch("--json");
    let deny_warnings = args.switch("--deny-warnings");
    let arch = args.optional_arch()?;
    args.finish()?;
    let analyzer = Analyzer::new();
    let report = match arch {
        Some(arch) => analyzer.analyze_spec(&arch.spec()),
        None => analyzer.analyze_all(),
    };
    if json {
        let doc = metrics::lint_json(&report);
        debug_assert_eq!(metrics::validate_json(&doc), Ok(()));
        print!("{doc}");
    } else {
        for diagnostic in report.diagnostics() {
            println!("{diagnostic}");
        }
        println!("{}", report.summary());
    }
    Ok(verdict(report.passes(deny_warnings)))
}

fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&ANALYZE, args);
    let out: Option<String> = args.value("--out", "a path", |_| true)?;
    let json = args.switch("--json");
    let deny_warnings = args.switch("--deny-warnings");
    let arch = args.optional_arch()?;
    args.finish()?;
    let analyzer = AbsintAnalyzer::new();
    let report = match arch {
        Some(arch) => analyzer.analyze_spec(&arch.spec()),
        None => analyzer.analyze_all(),
    };
    let doc = metrics::absint_json(&report);
    debug_assert_eq!(metrics::validate_json(&doc), Ok(()));
    if json {
        print!("{doc}");
    } else {
        for finding in report.findings() {
            println!("{finding}");
        }
        println!("{}", report.summary());
    }
    if let Some(path) = out {
        let what = format!("{} programs", report.programs_checked());
        if let Err(code) = checked(&doc, "analyze").and_then(|()| write_file(&path, &doc, &what)) {
            return Ok(code);
        }
    }
    Ok(verdict(report.passes(deny_warnings)))
}

fn trace(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&TRACE, args);
    let out: Option<String> = args.value("--out", "a path", |_| true)?;
    let counters = args.switch("--counters");
    let arch = args.arch()?;
    let primitive = args.primitive()?;
    args.finish()?;
    let trace = trace_primitive(arch, primitive);
    println!(
        "{arch} {} — {} cycles, {} instructions, {} events ({:.2} us at {:.2} MHz)",
        primitive.label(),
        trace.stats.cycles,
        trace.stats.instructions,
        trace.events.len(),
        trace.micros(),
        trace.clock_mhz
    );
    print!("{}", trace.profile().render(10));
    if counters {
        let doc = metrics::counters_json(&trace.counters);
        if let Err(code) = checked(&doc, "counters") {
            return Ok(code);
        }
        print!("{doc}");
    }
    if let Some(path) = out {
        let doc = metrics::chrome_trace_json(&trace);
        let what = format!("{} events", trace.events.len());
        if let Err(code) = checked(&doc, "trace").and_then(|()| write_file(&path, &doc, &what)) {
            return Ok(code);
        }
    }
    Ok(ExitCode::SUCCESS)
}
