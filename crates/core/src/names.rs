//! The CLI/protocol name registry and the one command-line reader.
//!
//! Names: one place maps user-facing spellings to [`Arch`],
//! [`Primitive`] and report names, and renders the one-line "valid
//! names" errors every front end prints on a bad name. The `osarch`
//! binary and the `osarch-serve` protocol both parse the same spellings
//! through these functions, so an unknown name fails loudly and
//! identically everywhere: nonzero exit (or an error envelope) plus a
//! single line listing every accepted name, including the `mips-r2000` /
//! `mips-r3000` vendor aliases.
//!
//! Arguments: every `osarch` subcommand reads its arguments through one
//! [`Args`] reader over its [`Synopsis`]. The synopsis is written once:
//! it renders the command's entry in `osarch`'s usage text and the tail
//! of every refusal line, and it tells the reader which flags take a
//! value. The reader gives switches, typed values checked by a predicate
//! with an "expects …" text, and positional arch, primitive and report
//! names parsed through the `parse_*` functions here; [`Args::finish`]
//! refuses, in one line, any argument nobody read. A refusal is always
//! one line, and the caller exits 2 with it before doing any work.

use osarch_cpu::Arch;
use osarch_kernel::Primitive;

/// Parse an architecture name. Case-insensitive; accepts the display names
/// (`CVAX`, `88000`, `R2000`, `R3000`, `SPARC`, `i860`, `RS6000`) plus the
/// vendor-prefixed `mips-r2000` / `mips-r3000` aliases.
#[must_use]
pub fn parse_arch(name: &str) -> Option<Arch> {
    let lowered = name.to_ascii_lowercase();
    let canonical = match lowered.as_str() {
        "mips-r2000" => "r2000",
        "mips-r3000" => "r3000",
        other => other,
    };
    Arch::all()
        .into_iter()
        .find(|a| a.to_string().to_ascii_lowercase() == canonical)
}

/// Parse a primitive name. Case-insensitive; accepts the short CLI forms
/// (`syscall`, `trap`, `pte`, `ctxsw`), the long forms (`null-syscall`,
/// `pte-change`, `context-switch`) and the snake_case JSON tags.
#[must_use]
pub fn parse_primitive(name: &str) -> Option<Primitive> {
    match name.to_ascii_lowercase().as_str() {
        "syscall" | "null-syscall" | "null_syscall" => Some(Primitive::NullSyscall),
        "trap" => Some(Primitive::Trap),
        "pte" | "pte-change" | "pte_change" => Some(Primitive::PteChange),
        "ctxsw" | "context-switch" | "context_switch" => Some(Primitive::ContextSwitch),
        _ => None,
    }
}

/// Every accepted architecture spelling, for error messages: the display
/// names in table order with the MIPS vendor aliases attached.
#[must_use]
pub fn arch_names() -> String {
    Arch::all()
        .into_iter()
        .map(|arch| match arch {
            Arch::R2000 => "R2000 (alias mips-r2000)".to_string(),
            Arch::R3000 => "R3000 (alias mips-r3000)".to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every accepted primitive spelling, for error messages.
#[must_use]
pub fn primitive_names() -> &'static str {
    "syscall (null-syscall), trap, pte (pte-change), ctxsw (context-switch)"
}

/// Every registered report name, for error messages (plus `all`).
#[must_use]
pub fn report_names() -> String {
    let mut names: Vec<&str> = crate::session::REPORTS
        .iter()
        .map(|spec| spec.name)
        .collect();
    names.push("all");
    names.join(", ")
}

/// Every serve-protocol op, in protocol order: the one op table. The
/// telemetry hub keys its per-op latency windows by index into it
/// ([`op_slot`]), and [`op_names`] lists it in error messages.
pub const OP_NAMES: [&str; 14] = [
    "ping",
    "measure",
    "table",
    "lint",
    "analyze",
    "trace",
    "counters",
    "spans",
    "metrics",
    "health",
    "cluster",
    "shutdown",
    "admin",
    "spec-fetch",
];

/// The [`OP_NAMES`] index of an op name. Unknown names (only possible if
/// a new op forgets to register) fold into slot 0 rather than panic.
#[must_use]
pub fn op_slot(op: &str) -> usize {
    OP_NAMES.iter().position(|name| *name == op).unwrap_or(0)
}

/// Every serve-protocol op name, in protocol order. The CLI subcommands of
/// the same names parse identically, so the one-line unknown-op error is
/// shared between front ends.
#[must_use]
pub fn op_names() -> String {
    OP_NAMES.join(", ")
}

/// One-line error for an unknown serve-protocol op.
#[must_use]
pub fn unknown_op(name: &str) -> String {
    format!("unknown op {name:?}; valid ops: {}", op_names())
}

/// One-line error for an unknown architecture name.
#[must_use]
pub fn unknown_arch(name: &str) -> String {
    format!(
        "unknown architecture {name:?}; valid names: {}",
        arch_names()
    )
}

/// One-line error for an unknown primitive name.
#[must_use]
pub fn unknown_primitive(name: &str) -> String {
    format!(
        "unknown primitive {name:?}; valid names: {}",
        primitive_names()
    )
}

/// One-line error for an unknown report name.
#[must_use]
pub fn unknown_report(name: &str) -> String {
    format!("unknown report {name:?}; valid names: {}", report_names())
}

/// A report selector: `all` or a registered report name, as
/// [`crate::session::resolve_reports`] takes it.
#[must_use]
pub fn parse_report(name: &str) -> Option<&'static str> {
    if name == "all" {
        return Some("all");
    }
    crate::session::report_by_name(name).map(|spec| spec.name)
}

/// One `osarch` subcommand's synopsis, written once: the command, its
/// argument grammar and what it does. It renders the command's entry in
/// `osarch`'s usage text ([`Synopsis::usage_entry`]) and the
/// `usage: osarch …` tail of the one-line refusals [`Args`] returns
/// ([`Synopsis::line`]), so the two cannot drift.
///
/// The grammar also tells [`Args`] which flags take a value: a flag
/// followed by a metavariable inside its brackets (`[--out PATH]`,
/// `--peers A,B,C`) takes one; a flag closed by its own bracket
/// (`[--json]`) or followed by another flag or bracket is a switch.
#[derive(Debug, Clone, Copy)]
pub struct Synopsis {
    /// The subcommand, as typed after `osarch`.
    pub command: &'static str,
    /// The argument grammar, one usage-text line per entry (a
    /// continuation line's leading space is kept in the usage text).
    pub grammar: &'static [&'static str],
    /// What the command does, one usage-text line per entry.
    pub about: &'static [&'static str],
}

/// The column where a usage-text entry's description starts.
const ABOUT_COLUMN: usize = 26;

impl Synopsis {
    /// The grammar's tokens, brackets and all.
    fn tokens(&self) -> impl Iterator<Item = &'static str> {
        self.grammar.iter().flat_map(|line| line.split_whitespace())
    }

    /// The whole synopsis on one line: `osarch tables [NAME] [--json]`.
    #[must_use]
    pub fn line(&self) -> String {
        let mut line = format!("osarch {}", self.command);
        for token in self.tokens() {
            line.push(' ');
            line.push_str(token);
        }
        line
    }

    /// This command's entry in `osarch`'s usage text: the grammar
    /// wrapped after the command name, then the description from
    /// column 26 (on the grammar's own line when a one-line grammar
    /// leaves room for it).
    #[must_use]
    pub fn usage_entry(&self) -> String {
        let indent = " ".repeat(self.command.len() + 3);
        let mut lines: Vec<String> = self
            .grammar
            .iter()
            .enumerate()
            .map(|(index, grammar)| match index {
                0 => format!("  {} {grammar}", self.command),
                _ => format!("{indent}{grammar}"),
            })
            .collect();
        if lines.is_empty() {
            lines.push(format!("  {}", self.command));
        }
        let mut about = self.about.iter();
        if let [only] = lines.as_mut_slice() {
            if only.len() < ABOUT_COLUMN - 1 {
                if let Some(first) = about.next() {
                    *only = format!("{only:<ABOUT_COLUMN$}{first}");
                }
            }
        }
        for line in about {
            lines.push(format!("{:ABOUT_COLUMN$}{line}", ""));
        }
        lines.join("\n")
    }

    /// Whether the grammar gives `flag` a value.
    fn takes_value(&self, flag: &str) -> bool {
        let tokens: Vec<&str> = self.tokens().collect();
        tokens.windows(2).any(|pair| {
            pair[0].trim_start_matches('[') == flag
                && !pair[0].ends_with(']')
                && !pair[1].starts_with(['[', '-'])
        })
    }

    /// Whether the grammar names `flag` at all.
    fn names(&self, flag: &str) -> bool {
        self.tokens()
            .any(|token| token.trim_matches(['[', ']']) == flag)
    }
}

/// One argument as the reader sees it: a positional, a switch, or a
/// value-taking flag paired with the argument after it (`None` when it
/// came last).
#[derive(Debug)]
struct Item<'a> {
    arg: &'a str,
    value: Option<&'a str>,
    read: bool,
}

/// Whether `arg` is spelled as a flag rather than a positional.
fn is_flag(arg: &str) -> bool {
    arg.starts_with("--")
}

/// The one command-line reader: a subcommand's arguments, read against
/// its [`Synopsis`]. Every read marks what it consumed; [`Args::finish`]
/// refuses whatever is left. A flag given twice is read twice, and the
/// last value wins. Errors are one line, for the caller to print before
/// exiting 2.
#[derive(Debug)]
pub struct Args<'a> {
    synopsis: &'a Synopsis,
    items: Vec<Item<'a>>,
}

impl<'a> Args<'a> {
    /// Split `args` (the arguments after the subcommand) into positionals,
    /// switches, and value-taking flags paired with their values, as
    /// `synopsis`'s grammar says.
    #[must_use]
    pub fn new(synopsis: &'a Synopsis, args: &'a [String]) -> Args<'a> {
        let mut items = Vec::with_capacity(args.len());
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let value = if is_flag(arg) && synopsis.takes_value(arg) {
                rest.next().map(String::as_str)
            } else {
                None
            };
            items.push(Item {
                arg,
                value,
                read: false,
            });
        }
        Args { synopsis, items }
    }

    /// A one-line refusal: `message`, then the command's synopsis.
    #[must_use]
    pub fn refusal(&self, message: &str) -> String {
        format!("{message}; usage: {}", self.synopsis.line())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        debug_assert!(
            self.synopsis.names(flag) && !self.synopsis.takes_value(flag),
            "{flag} is not a switch in `{}`",
            self.synopsis.line()
        );
        let mut given = false;
        for item in self.items.iter_mut().filter(|item| item.arg == flag) {
            item.read = true;
            given = true;
        }
        given
    }

    /// The value of `flag`, or `None` when it is absent: parsed as a `T`
    /// and accepted by `valid`, else the one-line error `FLAG expects
    /// EXPECTS, got "RAW"` (or `FLAG requires a value` when it came last).
    pub fn value<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        expects: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        debug_assert!(
            self.synopsis.takes_value(flag),
            "{flag} takes no value in `{}`",
            self.synopsis.line()
        );
        let mut last = None;
        for item in self.items.iter_mut().filter(|item| item.arg == flag) {
            item.read = true;
            let raw = item
                .value
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let parsed = raw
                .parse()
                .ok()
                .filter(&valid)
                .ok_or_else(|| format!("{flag} expects {expects}, got {raw:?}"))?;
            last = Some(parsed);
        }
        Ok(last)
    }

    /// The next unread positional argument (one not spelled `--flag`
    /// and not a flag's value), if any.
    pub fn positional(&mut self) -> Option<&'a str> {
        let item = self
            .items
            .iter_mut()
            .find(|item| !item.read && !is_flag(item.arg))?;
        item.read = true;
        Some(item.arg)
    }

    /// An optional positional architecture name ([`unknown_arch`] if it
    /// is not one).
    pub fn optional_arch(&mut self) -> Result<Option<Arch>, String> {
        self.positional()
            .map(|name| parse_arch(name).ok_or_else(|| unknown_arch(name)))
            .transpose()
    }

    /// A required positional architecture name; missing or unknown, the
    /// error lists every valid name.
    pub fn arch(&mut self) -> Result<Arch, String> {
        self.optional_arch()?
            .ok_or_else(|| format!("missing architecture; valid names: {}", arch_names()))
    }

    /// A required positional primitive name; missing or unknown, the
    /// error lists every valid name.
    pub fn primitive(&mut self) -> Result<Primitive, String> {
        let name = self
            .positional()
            .ok_or_else(|| format!("missing primitive; valid names: {}", primitive_names()))?;
        parse_primitive(name).ok_or_else(|| unknown_primitive(name))
    }

    /// An optional positional report selector ([`parse_report`];
    /// [`unknown_report`] if it is not one).
    pub fn report(&mut self) -> Result<Option<&'static str>, String> {
        self.positional()
            .map(|name| parse_report(name).ok_or_else(|| unknown_report(name)))
            .transpose()
    }

    /// Refuse, in one line naming it, the first argument nobody read.
    pub fn finish(self) -> Result<(), String> {
        match self.items.iter().find(|item| !item.read) {
            None => Ok(()),
            Some(item) if is_flag(item.arg) => {
                Err(self.refusal(&format!("unknown argument {:?}", item.arg)))
            }
            Some(item) => Err(self.refusal(&format!("unexpected argument {:?}", item.arg))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_display_name_and_alias_parses() {
        for arch in Arch::all() {
            assert_eq!(parse_arch(&arch.to_string()), Some(arch));
            assert_eq!(parse_arch(&arch.to_string().to_lowercase()), Some(arch));
        }
        assert_eq!(parse_arch("mips-r2000"), Some(Arch::R2000));
        assert_eq!(parse_arch("MIPS-R3000"), Some(Arch::R3000));
        assert_eq!(parse_arch("vax"), None);
        assert_eq!(parse_arch(""), None);
    }

    #[test]
    fn primitive_spellings_parse() {
        for (name, primitive) in [
            ("syscall", Primitive::NullSyscall),
            ("null_syscall", Primitive::NullSyscall),
            ("TRAP", Primitive::Trap),
            ("pte-change", Primitive::PteChange),
            ("context_switch", Primitive::ContextSwitch),
            ("ctxsw", Primitive::ContextSwitch),
        ] {
            assert_eq!(parse_primitive(name), Some(primitive), "{name}");
        }
        assert_eq!(parse_primitive("fork"), None);
    }

    #[test]
    fn op_registry_lists_analyze_between_lint_and_trace() {
        let ops = op_names();
        assert!(ops.contains("lint, analyze, trace"), "{ops}");
        let err = unknown_op("frobnicate");
        assert!(err.contains("analyze") && !err.contains('\n'), "{err}");
    }

    #[test]
    fn op_slots_index_the_op_table() {
        assert_eq!(op_slot("ping"), 0);
        assert_eq!(op_slot("measure"), 1);
        assert_eq!(op_slot("table"), 2);
        assert_eq!(op_slot("metrics"), 8);
        assert_eq!(op_slot("spec-fetch"), OP_NAMES.len() - 1);
        assert_eq!(op_slot("nonsense"), 0, "unknown ops fold into slot 0");
    }

    /// A synopsis with every grammar shape the subcommands use.
    const DEMO: Synopsis = Synopsis {
        command: "demo",
        grammar: &[
            "ARCH [--json] [--out PATH]",
            "[--cluster --peers A,B,C [--replicas R]]",
        ],
        about: &["one", "two"],
    };

    fn args_of(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_grammar_says_which_flags_take_a_value() {
        for flag in ["--out", "--peers", "--replicas"] {
            assert!(DEMO.takes_value(flag), "{flag}");
        }
        for flag in ["--json", "--cluster", "ARCH", "--bogus"] {
            assert!(!DEMO.takes_value(flag), "{flag}");
        }
        assert!(DEMO.names("--cluster") && !DEMO.names("--bogus"));
    }

    #[test]
    fn one_synopsis_renders_the_refusal_tail_and_the_usage_entry() {
        assert_eq!(
            DEMO.line(),
            "osarch demo ARCH [--json] [--out PATH] [--cluster --peers A,B,C [--replicas R]]"
        );
        assert_eq!(
            DEMO.usage_entry(),
            "  demo ARCH [--json] [--out PATH]\n\
             \x20      [--cluster --peers A,B,C [--replicas R]]\n\
             \x20                         one\n\
             \x20                         two"
        );
        let short = Synopsis {
            command: "measure",
            grammar: &["ARCH"],
            about: &["measure it"],
        };
        assert_eq!(short.usage_entry(), "  measure ARCH            measure it");
        let bare = Synopsis {
            command: "archs",
            grammar: &[],
            about: &["list them"],
        };
        assert_eq!(bare.usage_entry(), "  archs                   list them");
        assert_eq!(bare.line(), "osarch archs");
    }

    #[test]
    fn the_reader_pairs_values_reads_switches_and_skips_them_for_positionals() {
        let raw = args_of(&["--out", "-", "sparc", "--json", "--out", "p.json"]);
        let mut args = Args::new(&DEMO, &raw);
        let out: Option<String> = args.value("--out", "a path", |_| true).unwrap();
        assert_eq!(out.as_deref(), Some("p.json"), "the last value wins");
        assert!(args.switch("--json"));
        assert!(!args.switch("--cluster"));
        assert_eq!(args.arch(), Ok(Arch::Sparc), "`-` was --out's value");
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn the_reader_refuses_in_one_line() {
        let raw = args_of(&["sparc", "--replicas", "0"]);
        let mut args = Args::new(&DEMO, &raw);
        let err = args
            .value::<usize>("--replicas", "a positive integer", |n| *n >= 1)
            .unwrap_err();
        assert_eq!(err, "--replicas expects a positive integer, got \"0\"");
        let raw = args_of(&["sparc", "--out"]);
        let err = Args::new(&DEMO, &raw)
            .value::<String>("--out", "a path", |_| true)
            .unwrap_err();
        assert_eq!(err, "--out requires a value");
        for (parts, named) in [
            (&["sparc", "--bogus"][..], "unknown argument \"--bogus\""),
            (&["sparc", "extra"], "unexpected argument \"extra\""),
            (&["sparc", "--peers", "a,b"], "unknown argument \"--peers\""),
        ] {
            let raw = args_of(parts);
            let mut args = Args::new(&DEMO, &raw);
            args.arch().unwrap();
            let err = args.finish().unwrap_err();
            assert!(err.starts_with(named), "{err}");
            assert!(err.ends_with(&DEMO.line()) && !err.contains('\n'), "{err}");
        }
        let empty: Vec<String> = Vec::new();
        let err = Args::new(&DEMO, &empty).arch().unwrap_err();
        assert!(err.starts_with("missing architecture") && err.contains("mips-r3000"));
        let raw = args_of(&["vax"]);
        assert_eq!(Args::new(&DEMO, &raw).arch(), Err(unknown_arch("vax")));
    }

    #[test]
    fn positional_names_parse_through_the_registry() {
        let raw = args_of(&["mips-r3000", "ctxsw", "table5"]);
        let mut args = Args::new(&DEMO, &raw);
        assert_eq!(args.arch(), Ok(Arch::R3000));
        assert_eq!(args.primitive(), Ok(Primitive::ContextSwitch));
        assert_eq!(args.report(), Ok(Some("table5")));
        assert_eq!(args.report(), Ok(None));
        let raw = args_of(&["fork", "table99"]);
        let mut args = Args::new(&DEMO, &raw);
        assert_eq!(args.primitive(), Err(unknown_primitive("fork")));
        assert_eq!(args.report(), Err(unknown_report("table99")));
        assert_eq!(parse_report("all"), Some("all"));
    }

    #[test]
    fn error_lines_list_the_aliases() {
        let err = unknown_arch("vax");
        assert!(
            err.contains("mips-r2000") && err.contains("mips-r3000"),
            "{err}"
        );
        assert!(!err.contains('\n'), "one line: {err}");
        let err = unknown_primitive("fork");
        assert!(err.contains("ctxsw") && !err.contains('\n'), "{err}");
        let err = unknown_report("table99");
        assert!(err.contains("table1") && err.contains("all"), "{err}");
    }
}
