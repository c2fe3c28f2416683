//! `osarch` — command-line front end for the ASPLOS 1991 reproduction.
//!
//! ```text
//! osarch tables [NAME] [--json]  print reproduction tables (default: all)
//! osarch bench-json [PATH]       write machine-readable measurements
//! osarch measure <ARCH>          measure the four primitives on one machine
//! osarch listing <ARCH> <OP>     print a handler program listing
//! osarch compare <A> <B>         compare two machines primitive by primitive
//! osarch lint [ARCH] [--json] [--deny-warnings]
//!                                statically verify the generated handlers
//! osarch analyze [ARCH] [--json] [--deny-warnings] [--out PATH]
//!                                prove/refute dataflow invariants per program
//! osarch trace <ARCH> <OP> [--out PATH] [--counters]
//!                                cycle-level trace of one primitive
//! osarch archs                   list the modelled architectures
//! ```

use osarch::kernel::{HandlerSet, Machine};
use osarch::{
    measure, metrics, names, serve, session, trace_primitive, AbsintAnalyzer, Analyzer, Arch,
    Primitive,
};
use std::process::ExitCode;

/// Exit loudly on a bad name: one line on stderr listing every valid
/// spelling (including the `mips-r2000`/`mips-r3000` aliases), exit 2.
fn bad_name(message: String) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// Parse a required architecture argument, distinguishing "missing" from
/// "unknown" — both are fatal, both list the valid names.
fn require_arch(arg: Option<&String>) -> Result<Arch, ExitCode> {
    match arg {
        None => Err(bad_name(format!(
            "missing architecture; valid names: {}",
            names::arch_names()
        ))),
        Some(name) => names::parse_arch(name).ok_or_else(|| bad_name(names::unknown_arch(name))),
    }
}

/// Parse a required primitive argument, same discipline as [`require_arch`].
fn require_primitive(arg: Option<&String>) -> Result<Primitive, ExitCode> {
    match arg {
        None => Err(bad_name(format!(
            "missing primitive; valid names: {}",
            names::primitive_names()
        ))),
        Some(name) => {
            names::parse_primitive(name).ok_or_else(|| bad_name(names::unknown_primitive(name)))
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: osarch <command>\n\
         \n\
         commands:\n\
         \x20 tables [NAME] [--json]  print reproduction tables (table1..table7,\n\
         \x20                         intext, ablations, vm, tlb, threads, future, depth)\n\
         \x20 bench-json [PATH]       write per-primitive measurements as JSON\n\
         \x20                         (default BENCH_repro.json; `-` for stdout)\n\
         \x20 measure ARCH            measure the four primitives on one machine\n\
         \x20 listing ARCH OP         print a handler listing (syscall|trap|pte|ctxsw)\n\
         \x20 compare ARCH ARCH       compare two machines\n\
         \x20 lint [ARCH] [--json] [--deny-warnings]\n\
         \x20                         statically verify the generated handler programs\n\
         \x20 analyze [ARCH] [--json] [--deny-warnings] [--out PATH]\n\
         \x20                         abstract-interpretation verifier: prove or refute\n\
         \x20                         the dataflow invariants, with proof artifacts\n\
         \x20 trace ARCH OP [--out PATH] [--counters]\n\
         \x20                         cycle-level trace of one primitive: phase profile\n\
         \x20                         to stdout, Chrome-trace JSON to PATH, counters JSON\n\
         \x20 serve [--addr A] [--workers N] [--shards N] [--queue N] [--deadline-ms N]\n\
         \x20       [--sample N] [--metrics-addr A] [--admin-token T]\n\
         \x20       [--cluster --peers A,B,C [--replicas R] [--vnodes N]\n\
         \x20        [--incarnation N] [--gossip-ms N] [--no-proxy]]\n\
         \x20                         run the event-driven measurement-query service\n\
         \x20                         (one poll loop per worker; --queue bounds open conns;\n\
         \x20                         --sample traces 1/N requests, --metrics-addr binds a\n\
         \x20                         Prometheus/JSON scrape listener; --admin-token enables\n\
         \x20                         the live spec-swap admin op — without it the control\n\
         \x20                         plane does not exist; --cluster joins a consistent-\n\
         \x20                         hash ring over the --peers seed list)\n\
         \x20 loadgen [--addr A] [--conns N] [--pipeline N] [--secs S] [--skew] [--rate R]\n\
         \x20         [--workers N] [--seed N] [--sample N] [--out PATH] [--force]\n\
         \x20         [--cluster [--nodes N] [--replicas R] [--node-rate RPS]]\n\
         \x20                         drive a server (self-hosted without --addr) and\n\
         \x20                         write BENCH_serve.json; --rate R offers R req/s\n\
         \x20                         per connection; --cluster benches an N-node ring\n\
         \x20                         against a single-node baseline and writes\n\
         \x20                         BENCH_cluster.json\n\
         \x20 chaos [--seed N] [--rate P] [--duration S] [--conns N] [--workers N]\n\
         \x20       [--sample N] [--metrics-addr A] [--metrics-out PATH] [--trace-out PATH]\n\
         \x20       [--cluster [--nodes N] [--replicas R]]\n\
         \x20       [--swap [--swaps N] [--transcript-out PATH]]\n\
         \x20                         deterministic fault-injection soak: clients vs a\n\
         \x20                         chaos server, asserting resilience invariants\n\
         \x20                         (telemetry on; exports validated metrics + trace);\n\
         \x20                         --cluster soaks an N-node ring through a seeded\n\
         \x20                         whole-node kill + respawn; --swap drives live spec\n\
         \x20                         hot-swaps through the admin plane asserting zero\n\
         \x20                         drops, byte-identical epochs and replayable\n\
         \x20                         rollbacks (with --cluster: gossip convergence\n\
         \x20                         through a mid-swap node kill)\n\
         \x20 top ADDR [--interval-ms N] [--iterations N] [--retry-secs N] [--once]\n\
         \x20                         live dashboard over a running server's metrics op:\n\
         \x20                         throughput, per-op tails, loop lag, cache counters;\n\
         \x20                         reconnects with backoff across node restarts\n\
         \x20 archs                   list the modelled architectures"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("archs") => {
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
            ExitCode::SUCCESS
        }
        Some("tables") => {
            let mut selector: Option<&str> = None;
            let mut json = false;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => json = true,
                    name if selector.is_none() => selector = Some(name),
                    other => {
                        eprintln!("unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
            let Some(reports) = session::resolve_reports(selector) else {
                return bad_name(names::unknown_report(selector.unwrap_or_default()));
            };
            if json {
                print!("{}", metrics::tables_json(&reports));
            } else {
                for report in reports {
                    println!("{report}");
                }
            }
            ExitCode::SUCCESS
        }
        Some("bench-json") => {
            let path = args.get(1).map_or("BENCH_repro.json", String::as_str);
            let doc = metrics::bench_json();
            debug_assert_eq!(metrics::validate_json(&doc), Ok(()));
            if path == "-" {
                print!("{doc}");
                return ExitCode::SUCCESS;
            }
            match std::fs::write(path, &doc) {
                Ok(()) => {
                    println!(
                        "wrote {path}: {} architectures, {} bytes",
                        Arch::all().len(),
                        doc.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("cannot write {path}: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("measure") => {
            let arch = match require_arch(args.get(1)) {
                Ok(arch) => arch,
                Err(code) => return code,
            };
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
            ExitCode::SUCCESS
        }
        Some("listing") => {
            let (arch, primitive) =
                match (require_arch(args.get(1)), require_primitive(args.get(2))) {
                    (Ok(arch), Ok(primitive)) => (arch, primitive),
                    (Err(code), _) | (_, Err(code)) => return code,
                };
            let machine = Machine::new(arch);
            let handlers = HandlerSet::generate(machine.spec(), machine.layout());
            print!("{}", handlers.program(primitive).listing());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let (a, b) = match (require_arch(args.get(1)), require_arch(args.get(2))) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
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
            ExitCode::SUCCESS
        }
        Some("lint") => {
            let mut arch: Option<Arch> = None;
            let mut json = false;
            let mut deny_warnings = false;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => json = true,
                    "--deny-warnings" => deny_warnings = true,
                    name if arch.is_none() => match names::parse_arch(name) {
                        Some(parsed) => arch = Some(parsed),
                        None => return bad_name(names::unknown_arch(name)),
                    },
                    other => {
                        eprintln!("unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
            let analyzer = Analyzer::new();
            let report = match arch {
                Some(arch) => analyzer.analyze_arch(arch),
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
            if report.passes(deny_warnings) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("analyze") => {
            let mut arch: Option<Arch> = None;
            let mut json = false;
            let mut deny_warnings = false;
            let mut out: Option<&str> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--deny-warnings" => deny_warnings = true,
                    "--out" => match rest.next() {
                        Some(path) => out = Some(path),
                        None => {
                            eprintln!("--out requires a path");
                            return usage();
                        }
                    },
                    name if !name.starts_with('-') && arch.is_none() => {
                        match names::parse_arch(name) {
                            Some(parsed) => arch = Some(parsed),
                            None => return bad_name(names::unknown_arch(name)),
                        }
                    }
                    other => {
                        eprintln!("unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
            let analyzer = AbsintAnalyzer::new();
            let report = match arch {
                Some(arch) => analyzer.analyze_arch(arch),
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
                // Validate unconditionally: proof artifacts exist to be
                // consumed by other tools, so never write a malformed file.
                if let Err(offset) = metrics::validate_json(&doc) {
                    eprintln!("internal error: analyze JSON invalid at byte {offset}");
                    return ExitCode::FAILURE;
                }
                match std::fs::write(path, &doc) {
                    Ok(()) => println!(
                        "wrote {path}: {} programs, {} bytes",
                        report.programs_checked(),
                        doc.len()
                    ),
                    Err(err) => {
                        eprintln!("cannot write {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if report.passes(deny_warnings) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("trace") => {
            let (arch, primitive) =
                match (require_arch(args.get(1)), require_primitive(args.get(2))) {
                    (Ok(arch), Ok(primitive)) => (arch, primitive),
                    (Err(code), _) | (_, Err(code)) => return code,
                };
            let mut out: Option<&str> = None;
            let mut counters = false;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--counters" => counters = true,
                    "--out" => match rest.next() {
                        Some(path) => out = Some(path),
                        None => {
                            eprintln!("--out requires a path");
                            return usage();
                        }
                    },
                    other => {
                        eprintln!("unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
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
                if let Err(offset) = metrics::validate_json(&doc) {
                    eprintln!("internal error: counters JSON invalid at byte {offset}");
                    return ExitCode::FAILURE;
                }
                print!("{doc}");
            }
            if let Some(path) = out {
                let doc = metrics::chrome_trace_json(&trace);
                // Validate unconditionally: the export exists to be loaded
                // into external viewers, so never write a malformed file.
                if let Err(offset) = metrics::validate_json(&doc) {
                    eprintln!("internal error: trace JSON invalid at byte {offset}");
                    return ExitCode::FAILURE;
                }
                match std::fs::write(path, &doc) {
                    Ok(()) => println!(
                        "wrote {path}: {} events, {} bytes",
                        trace.events.len(),
                        doc.len()
                    ),
                    Err(err) => {
                        eprintln!("cannot write {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Some("serve") => {
            let mut config = serve::ServerConfig::default();
            let mut cluster = false;
            let mut cluster_config = serve::ClusterConfig::default();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                let value = |flag: &str, value: Option<&String>| -> Result<String, ExitCode> {
                    value.cloned().ok_or_else(|| {
                        eprintln!("{flag} requires a value");
                        ExitCode::from(2)
                    })
                };
                match arg.as_str() {
                    "--addr" => match value("--addr", rest.next()) {
                        Ok(addr) => config.addr = addr,
                        Err(code) => return code,
                    },
                    "--workers" => match value("--workers", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--workers")))
                    {
                        Ok(workers) => config.workers = workers,
                        Err(code) => return code,
                    },
                    "--shards" => match value("--shards", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--shards")))
                    {
                        Ok(shards) => config.shards = shards,
                        Err(code) => return code,
                    },
                    "--queue" => match value("--queue", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--queue")))
                    {
                        Ok(depth) => config.queue_depth = depth,
                        Err(code) => return code,
                    },
                    "--deadline-ms" => match value("--deadline-ms", rest.next())
                        .and_then(|v| v.parse::<u64>().map_err(|_| bad_flag("--deadline-ms")))
                    {
                        Ok(ms) => config.deadline = std::time::Duration::from_millis(ms),
                        Err(code) => return code,
                    },
                    "--sample" => match value("--sample", rest.next())
                        .and_then(|v| v.parse::<u64>().map_err(|_| bad_flag("--sample")))
                    {
                        Ok(sample) => config.sample_every = sample,
                        Err(code) => return code,
                    },
                    "--metrics-addr" => match value("--metrics-addr", rest.next()) {
                        Ok(addr) => config.metrics_addr = Some(addr),
                        Err(code) => return code,
                    },
                    "--admin-token" => match value("--admin-token", rest.next()) {
                        Ok(token) if token.is_empty() => {
                            eprintln!("--admin-token must not be empty");
                            return ExitCode::from(2);
                        }
                        Ok(token) => config.admin_token = Some(token),
                        Err(code) => return code,
                    },
                    "--cluster" => cluster = true,
                    "--peers" => match value("--peers", rest.next()) {
                        Ok(list) => {
                            cluster_config.peers = list
                                .split(',')
                                .filter(|peer| !peer.is_empty())
                                .map(str::to_string)
                                .collect();
                        }
                        Err(code) => return code,
                    },
                    "--replicas" => match value("--replicas", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--replicas")))
                    {
                        Ok(replicas) => cluster_config.replicas = replicas,
                        Err(code) => return code,
                    },
                    "--vnodes" => match value("--vnodes", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--vnodes")))
                    {
                        Ok(vnodes) => cluster_config.vnodes = vnodes,
                        Err(code) => return code,
                    },
                    "--incarnation" => match value("--incarnation", rest.next())
                        .and_then(|v| v.parse().map_err(|_| bad_flag("--incarnation")))
                    {
                        Ok(incarnation) => cluster_config.incarnation = incarnation,
                        Err(code) => return code,
                    },
                    "--gossip-ms" => match value("--gossip-ms", rest.next())
                        .and_then(|v| v.parse::<u64>().map_err(|_| bad_flag("--gossip-ms")))
                    {
                        Ok(ms) => {
                            cluster_config.gossip_interval = std::time::Duration::from_millis(ms);
                        }
                        Err(code) => return code,
                    },
                    "--no-proxy" => cluster_config.proxy = false,
                    other => {
                        eprintln!("unexpected argument {other:?}");
                        return usage();
                    }
                }
            }
            if cluster {
                // The ring address must be dialable by peers; an
                // ephemeral `:0` bind could never appear in a seed list.
                if config.addr.ends_with(":0") {
                    eprintln!(
                        "--cluster requires an explicit --addr (the node's dialable ring address)"
                    );
                    return ExitCode::from(2);
                }
                cluster_config.self_addr = config.addr.clone();
                config.cluster = Some(cluster_config);
            }
            let handle = match serve::Server::start(&config) {
                Ok(handle) => handle,
                Err(err) => {
                    eprintln!("cannot bind {}: {err}", config.addr);
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "osarch-serve listening on {} ({} workers, {} shards); \
                 send {{\"op\":\"shutdown\"}} to stop",
                handle.addr(),
                config.workers,
                config.shards
            );
            if let Some(cluster_config) = &config.cluster {
                println!(
                    "cluster mode: {} peers, R={}, {} vnodes, proxy={} \
                     (query {{\"op\":\"cluster\"}} for ring + membership)",
                    cluster_config.peers.len(),
                    cluster_config.replicas,
                    cluster_config.vnodes,
                    cluster_config.proxy
                );
            }
            if config.admin_token.is_some() {
                println!(
                    "admin plane enabled: spec-load / spec-activate / spec-rollback / spec-list \
                     via {{\"op\":\"admin\",...}} with the configured token"
                );
            }
            if let Some(scrape) = handle.metrics_addr() {
                println!("metrics scrape listener on {scrape} (text; /json for the snapshot)");
            }
            handle.wait();
            println!("osarch-serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Some("loadgen") => match serve::loadgen::cli(&args[1..], "osarch loadgen") {
            Ok(code) => code,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        Some("chaos") => match serve::soak::cli(&args[1..], "osarch chaos") {
            Ok(code) => code,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        Some("top") => match serve::top::cli(&args[1..], "osarch") {
            Ok(code) => code,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}

/// Exit-code error for a malformed numeric flag value.
fn bad_flag(flag: &str) -> ExitCode {
    eprintln!("{flag} expects a positive integer");
    ExitCode::from(2)
}
