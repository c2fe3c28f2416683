//! `osarch-spec/1` — architectures as data.
//!
//! A spec document is a *flat* JSON object deriving a complete
//! [`ArchSpec`] from one of the seven built-in machines: a `base`
//! architecture plus scalar overrides. Every numeric and boolean knob the
//! paper's analysis turns on is overridable (clocks, per-op cycle costs,
//! trap vectoring, delay slots, state sizes); the structured parts —
//! register-window geometry, microcode tables, the memory system — are
//! inherited from the base machine, which keeps a hostile document from
//! describing an unboundedly expensive simulation.
//!
//! Documents are read with the workspace's one JSON parser
//! ([`osarch_trace::json`]) and written *canonically*:
//! [`ArchSpec::to_json`] emits every overridable field in declaration
//! order, so two specs with equal documents are byte-identical — the
//! property the serve layer's registry digests and the cluster's spec
//! gossip rely on.

use crate::arch::{Arch, ArchSpec};
use osarch_trace::json::{self, Value};
use std::fmt::Write as _;

/// The schema tag stamped into every spec document.
pub const SPEC_SCHEMA: &str = "osarch-spec/1";

/// Longest accepted spec name.
pub const SPEC_NAME_MAX: usize = 64;

/// Ceiling for every numeric override — generous for any plausible
/// machine, small enough that a handler program stays cheap to simulate.
const FIELD_CAP: f64 = 1_000_000.0;

impl ArchSpec {
    /// Render this spec as a canonical `osarch-spec/1` document under
    /// `name`. Every overridable field is emitted explicitly, so
    /// [`ArchSpec::from_json`] round-trips the spec exactly even when it
    /// no longer matches its base machine.
    #[must_use]
    pub fn to_json(&self, name: &str) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":\"{SPEC_SCHEMA}\",\"name\":\"{}\",\"base\":\"{}\"",
            json::escape(name),
            self.arch
        );
        for (key, value) in self.scalar_fields() {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        out.push('}');
        out
    }

    /// Parse an `osarch-spec/1` document into `(name, spec)`.
    ///
    /// # Errors
    ///
    /// Returns a one-line reason when the document is not a flat JSON
    /// object (duplicate fields, nested values and non-finite numbers are
    /// all refused), the schema tag or base architecture is wrong, the
    /// name is unusable, a key is unknown, or a value is out of range.
    pub fn from_json(doc: &str) -> Result<(String, ArchSpec), String> {
        let root = json::parse(doc).map_err(|e| e.to_string())?;
        let fields = root
            .as_object()
            .ok_or_else(|| format!("a spec document must be an object, not a {}", root.kind()))?;
        for (index, (key, value)) in fields.iter().enumerate() {
            if fields[..index].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            match value {
                Value::Array(_) | Value::Object(_) => {
                    return Err(format!(
                        "nested values are not allowed in a spec document (field {key:?})"
                    ))
                }
                Value::Number(token) if !value.as_f64().is_some_and(f64::is_finite) => {
                    return Err(format!("non-finite number {token:?} in field {key:?}"))
                }
                _ => {}
            }
        }
        let mut schema = None;
        let mut name = None;
        let mut base = None;
        let mut overrides = Vec::new();
        for (key, value) in fields {
            match &**key {
                "schema" => schema = Some(expect_str(key, value)?),
                "name" => name = Some(expect_str(key, value)?),
                "base" => base = Some(expect_str(key, value)?),
                _ => overrides.push((key, value)),
            }
        }
        match schema {
            Some(tag) if tag == SPEC_SCHEMA => {}
            Some(tag) => {
                return Err(format!(
                    "unsupported schema {tag:?}; expected {SPEC_SCHEMA:?}"
                ))
            }
            None => return Err(format!("missing \"schema\" (expected {SPEC_SCHEMA:?})")),
        }
        let name = name.ok_or_else(|| "missing \"name\"".to_string())?;
        validate_name(name)?;
        let base = base.ok_or_else(|| "missing \"base\"".to_string())?;
        let arch = parse_base(base).ok_or_else(|| format!("unknown base architecture {base:?}"))?;
        let mut spec = arch.spec();
        for (key, value) in overrides {
            spec.apply_override(key, value)?;
        }
        Ok((name.to_string(), spec))
    }

    /// Every overridable field as `(key, value)` in declaration order.
    fn scalar_fields(&self) -> Vec<(&'static str, Value<'static>)> {
        let n = |v: u32| Value::Number(v.to_string().into());
        let f = |v: f64| {
            // Every emitted number is finite (fields are validated on the
            // way in and the built-ins are finite by construction).
            debug_assert!(v.is_finite());
            Value::Number(format!("{v}").into())
        };
        vec![
            ("clock_mhz", f(self.clock_mhz)),
            ("application_speedup", f(self.application_speedup)),
            ("int_registers", n(self.int_registers)),
            ("fp_state_words", n(self.fp_state_words)),
            ("misc_state_words", n(self.misc_state_words)),
            ("trap_saved_registers", n(self.trap_saved_registers)),
            ("avg_windows_on_switch", n(self.avg_windows_on_switch)),
            ("exposed_pipelines", Value::Bool(self.exposed_pipelines)),
            ("pipeline_control_regs", n(self.pipeline_control_regs)),
            ("fpu_freeze_on_fault", Value::Bool(self.fpu_freeze_on_fault)),
            ("fpu_pipeline_save_instrs", n(self.fpu_pipeline_save_instrs)),
            ("fpu_drain_cycles", n(self.fpu_drain_cycles)),
            ("precise_interrupts", Value::Bool(self.precise_interrupts)),
            ("vectored_traps", Value::Bool(self.vectored_traps)),
            ("trap_dispatch_instrs", n(self.trap_dispatch_instrs)),
            ("trap_entry_cycles", n(self.trap_entry_cycles)),
            (
                "provides_fault_address",
                Value::Bool(self.provides_fault_address),
            ),
            ("fault_decode_instrs", n(self.fault_decode_instrs)),
            ("has_delay_slots", Value::Bool(self.has_delay_slots)),
            ("unfilled_slot_period", n(self.unfilled_slot_period)),
            ("has_atomic_tas", Value::Bool(self.has_atomic_tas)),
            ("tas_cycles", n(self.tas_cycles)),
            ("alu_cycles", n(self.alu_cycles)),
            ("load_cycles", n(self.load_cycles)),
            ("store_cycles", n(self.store_cycles)),
            ("branch_cycles", n(self.branch_cycles)),
            ("control_read_cycles", n(self.control_read_cycles)),
            ("control_write_cycles", n(self.control_write_cycles)),
            ("tlb_write_cycles", n(self.tlb_write_cycles)),
            ("asid_switch_cycles", n(self.asid_switch_cycles)),
            ("flush_instrs_per_line", n(self.flush_instrs_per_line)),
        ]
    }

    /// Apply one override onto this spec, validating type and range.
    fn apply_override(&mut self, key: &str, value: &Value<'_>) -> Result<(), String> {
        match key {
            "clock_mhz" => self.clock_mhz = expect_pos(key, value)?,
            "application_speedup" => self.application_speedup = expect_pos(key, value)?,
            "int_registers" => self.int_registers = expect_u32(key, value)?,
            "fp_state_words" => self.fp_state_words = expect_u32(key, value)?,
            "misc_state_words" => self.misc_state_words = expect_u32(key, value)?,
            "trap_saved_registers" => self.trap_saved_registers = expect_u32(key, value)?,
            "avg_windows_on_switch" => self.avg_windows_on_switch = expect_u32(key, value)?,
            "exposed_pipelines" => self.exposed_pipelines = expect_bool(key, value)?,
            "pipeline_control_regs" => self.pipeline_control_regs = expect_u32(key, value)?,
            "fpu_freeze_on_fault" => self.fpu_freeze_on_fault = expect_bool(key, value)?,
            "fpu_pipeline_save_instrs" => self.fpu_pipeline_save_instrs = expect_u32(key, value)?,
            "fpu_drain_cycles" => self.fpu_drain_cycles = expect_u32(key, value)?,
            "precise_interrupts" => self.precise_interrupts = expect_bool(key, value)?,
            "vectored_traps" => self.vectored_traps = expect_bool(key, value)?,
            "trap_dispatch_instrs" => self.trap_dispatch_instrs = expect_u32(key, value)?,
            "trap_entry_cycles" => self.trap_entry_cycles = expect_u32(key, value)?,
            "provides_fault_address" => self.provides_fault_address = expect_bool(key, value)?,
            "fault_decode_instrs" => self.fault_decode_instrs = expect_u32(key, value)?,
            "has_delay_slots" => self.has_delay_slots = expect_bool(key, value)?,
            "unfilled_slot_period" => self.unfilled_slot_period = expect_u32(key, value)?,
            "has_atomic_tas" => self.has_atomic_tas = expect_bool(key, value)?,
            "tas_cycles" => self.tas_cycles = expect_u32(key, value)?,
            "alu_cycles" => self.alu_cycles = expect_u32(key, value)?,
            "load_cycles" => self.load_cycles = expect_u32(key, value)?,
            "store_cycles" => self.store_cycles = expect_u32(key, value)?,
            "branch_cycles" => self.branch_cycles = expect_u32(key, value)?,
            "control_read_cycles" => self.control_read_cycles = expect_u32(key, value)?,
            "control_write_cycles" => self.control_write_cycles = expect_u32(key, value)?,
            "tlb_write_cycles" => self.tlb_write_cycles = expect_u32(key, value)?,
            "asid_switch_cycles" => self.asid_switch_cycles = expect_u32(key, value)?,
            "flush_instrs_per_line" => self.flush_instrs_per_line = expect_u32(key, value)?,
            other => return Err(format!("unknown spec field {other:?}")),
        }
        Ok(())
    }
}

fn expect_str<'v>(key: &str, value: &'v Value<'_>) -> Result<&'v str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string, not a {}", value.kind()))
}

fn expect_bool(key: &str, value: &Value<'_>) -> Result<bool, String> {
    value
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean, not a {}", value.kind()))
}

fn expect_num(key: &str, value: &Value<'_>) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number, not a {}", value.kind()))
}

fn expect_pos(key: &str, value: &Value<'_>) -> Result<f64, String> {
    match expect_num(key, value)? {
        v if v > 0.0 && v <= FIELD_CAP => Ok(v),
        v => Err(format!(
            "field {key:?} must be in (0, {FIELD_CAP:.0}], got {v}"
        )),
    }
}

fn expect_u32(key: &str, value: &Value<'_>) -> Result<u32, String> {
    match expect_num(key, value)? {
        v if (0.0..=FIELD_CAP).contains(&v) && v.fract() == 0.0 => Ok(v as u32),
        v => Err(format!(
            "field {key:?} must be an integer in [0, {FIELD_CAP:.0}], got {v}"
        )),
    }
}

/// Spec names are registry keys, cache-key components and gossip payload:
/// a tight charset keeps them safe in every one of those places.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > SPEC_NAME_MAX {
        return Err(format!(
            "spec name must be 1..={SPEC_NAME_MAX} characters, got {} in {name:?}",
            name.len()
        ));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
    {
        return Err(format!(
            "spec name {name:?} may only use ASCII letters, digits, '-', '_', '.'"
        ));
    }
    if parse_base(name).is_some() {
        return Err(format!(
            "spec name {name:?} shadows a built-in architecture"
        ));
    }
    Ok(())
}

/// Resolve a base-architecture name (case-insensitive; accepts the
/// `mips-` aliases the CLI takes).
fn parse_base(name: &str) -> Option<Arch> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "cvax" => Some(Arch::Cvax),
        "88000" | "m88000" => Some(Arch::M88000),
        "r2000" | "mips-r2000" => Some(Arch::R2000),
        "r3000" | "mips-r3000" => Some(Arch::R3000),
        "sparc" => Some(Arch::Sparc),
        "i860" => Some(Arch::I860),
        "rs6000" => Some(Arch::Rs6000),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_bit_exactly() {
        for arch in Arch::all() {
            let name = format!("copy-of-{}", arch.to_string().to_ascii_lowercase());
            let doc = arch.spec().to_json(&name);
            let (parsed_name, parsed) = ArchSpec::from_json(&doc).expect(&doc);
            assert_eq!(parsed_name, name);
            assert_eq!(
                format!("{parsed:?}"),
                format!("{:?}", arch.spec()),
                "{arch}"
            );
            // Canonical: re-emission is byte-identical.
            assert_eq!(parsed.to_json(&name), doc, "{arch}");
        }
    }

    #[test]
    fn overrides_apply_over_the_base() {
        let doc = concat!(
            "{\"schema\":\"osarch-spec/1\",\"name\":\"fast-r3000\",",
            "\"base\":\"R3000\",\"clock_mhz\":50.0,\"vectored_traps\":true,",
            "\"trap_dispatch_instrs\":0}"
        );
        let (name, spec) = ArchSpec::from_json(doc).unwrap();
        assert_eq!(name, "fast-r3000");
        assert_eq!(spec.arch, Arch::R3000);
        assert!((spec.clock_mhz - 50.0).abs() < 1e-9);
        assert!(spec.vectored_traps);
        assert_eq!(spec.trap_dispatch_instrs, 0);
        // Untouched fields keep the base values.
        assert_eq!(spec.int_registers, 32);
    }

    #[test]
    fn base_names_accept_cli_spellings() {
        for (alias, arch) in [
            ("cvax", Arch::Cvax),
            ("m88000", Arch::M88000),
            ("mips-r2000", Arch::R2000),
            ("MIPS-R3000", Arch::R3000),
            ("sparc", Arch::Sparc),
            ("I860", Arch::I860),
            ("rs6000", Arch::Rs6000),
        ] {
            let doc =
                format!("{{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"{alias}\"}}");
            let (_, spec) = ArchSpec::from_json(&doc).expect(alias);
            assert_eq!(spec.arch, arch, "{alias}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: [(&str, &str); 10] = [
            ("{}", "missing \"schema\""),
            (
                "{\"schema\":\"osarch-spec/2\",\"name\":\"x\",\"base\":\"R3000\"}",
                "unsupported schema",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"base\":\"R3000\"}",
                "missing \"name\"",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\"}",
                "missing \"base\"",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"Z80\"}",
                "unknown base",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\"mem\":{}}",
                "nested values",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\"bogus\":1}",
                "unknown spec field",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\"clock_mhz\":0}",
                "must be in",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\
                 \"alu_cycles\":1.5}",
                "must be an integer",
            ),
            (
                "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\
                 \"alu_cycles\":1,\"alu_cycles\":2}",
                "duplicate field",
            ),
        ];
        for (doc, needle) in cases {
            let err = ArchSpec::from_json(doc).unwrap_err();
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }

    #[test]
    fn names_are_constrained() {
        for bad in ["", "a b", "x/y", "r3000", "MIPS-R2000", &"x".repeat(65)] {
            let doc =
                format!("{{\"schema\":\"osarch-spec/1\",\"name\":\"{bad}\",\"base\":\"R3000\"}}");
            assert!(
                ArchSpec::from_json(&doc).is_err(),
                "{bad:?} must be rejected"
            );
        }
        for good in ["hot-1", "a.b_c", "X9"] {
            let doc =
                format!("{{\"schema\":\"osarch-spec/1\",\"name\":\"{good}\",\"base\":\"R3000\"}}");
            assert!(ArchSpec::from_json(&doc).is_ok(), "{good:?} must parse");
        }
    }

    #[test]
    fn numeric_caps_bound_hostile_documents() {
        let doc = concat!(
            "{\"schema\":\"osarch-spec/1\",\"name\":\"big\",\"base\":\"R3000\",",
            "\"int_registers\":2000000}"
        );
        assert!(ArchSpec::from_json(doc).is_err());
        let doc = concat!(
            "{\"schema\":\"osarch-spec/1\",\"name\":\"big\",\"base\":\"R3000\",",
            "\"clock_mhz\":1e300}"
        );
        assert!(ArchSpec::from_json(doc).is_err());
    }

    #[test]
    fn documents_nested_past_the_parser_cap_are_refused() {
        let deep = format!(
            "{{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",\"mem\":{}{}}}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        let err = ArchSpec::from_json(&deep).unwrap_err();
        assert!(err.contains("nested deeper than"), "{err}");
        // One level shallower parses, and is then refused as nested.
        let shallow = deep.replacen('[', "", 1).replacen(']', "", 1);
        let err = ArchSpec::from_json(&shallow).unwrap_err();
        assert!(err.contains("nested values"), "{err}");
    }

    #[test]
    fn non_finite_numbers_are_refused() {
        let doc = concat!(
            "{\"schema\":\"osarch-spec/1\",\"name\":\"x\",\"base\":\"R3000\",",
            "\"clock_mhz\":1e999}"
        );
        let err = ArchSpec::from_json(doc).unwrap_err();
        assert!(err.contains("non-finite number \"1e999\""), "{err}");
    }

    #[test]
    fn escaped_strings_decode() {
        let doc = "{\"schema\":\"osarch-spec\\/1\",\"name\":\"u\\u0041\",\"base\":\"R3000\"}";
        let (name, _) = ArchSpec::from_json(doc).unwrap();
        assert_eq!(name, "uA");
    }
}
