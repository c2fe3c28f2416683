//! Properties of the one JSON layer (`osarch::json`) and the readers
//! built on it: the compact emitter round-trips through the parser, no
//! byte string can panic the request parser, and the schema validators
//! look keys up at their paths rather than anywhere in the text.

use osarch::json::{self, Value};
use osarch::metrics::{self, ClusterBenchReport};
use osarch::serve::protocol::parse_request;
use osarch::LatencySummary;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters a generated string draws from: plain ASCII, every escape
/// the escaper emits, multi-byte UTF-8 and a character beyond the BMP.
const STRING_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '😀',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(6))
        .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len())])
        .collect()
}

fn digits(rng: &mut TestRng) -> String {
    (0..1 + rng.below(4))
        .map(|_| char::from(b'0' + rng.below(10) as u8))
        .collect()
}

/// A token in JSON number syntax: sign, integer, fraction, exponent.
fn number(rng: &mut TestRng) -> String {
    let mut token = String::new();
    if rng.below(2) == 0 {
        token.push('-');
    }
    token.push_str(&digits(rng));
    if rng.below(2) == 0 {
        token.push('.');
        token.push_str(&digits(rng));
    }
    if rng.below(3) == 0 {
        token.push(['e', 'E'][rng.below(2)]);
        token.push_str(["", "+", "-"][rng.below(3)]);
        token.push_str(&digits(rng));
    }
    token
}

fn value(rng: &mut TestRng, depth: usize) -> Value<'static> {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Number(number(rng).into()),
        3 => Value::String(string(rng).into()),
        4 => Value::Array((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (string(rng).into(), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// JSON values nested at most `depth` containers deep.
struct Values {
    depth: usize,
}

impl Strategy for Values {
    type Value = Value<'static>;

    fn generate(&self, rng: &mut TestRng) -> Value<'static> {
        value(rng, self.depth)
    }
}

/// Well-formed request lines, one per query kind and id shape.
const REQUESTS: &[&str] = &[
    r#"{"op":"ping","id":1}"#,
    r#"{"op":"measure","arch":"mips-r3000","primitive":"syscall","id":2}"#,
    r#"{"op":"measure","spec":"hot","primitive":"trap","id":"a\/bA"}"#,
    r#"{"op":"table","table":"table1","id":1.50}"#,
    r#"{"op":"lint","arch":"SPARC","id":null}"#,
    r#"{"op":"spans","filter":"chrome","id":true}"#,
    r#"{"op":"health","gossip":"127.0.0.1:1=2/alive","id":-3e2}"#,
    r#"{"op":"admin","action":"spec-load","token":"t","spec":"{\"schema\":\"osarch-spec/1\"}"}"#,
    r#" { "op" : "ping" , "fwd" : "1" } "#,
];

/// Bytes a mutation splices in: the grammar's structural characters
/// plus anything at all.
fn mutant_byte(rng: &mut TestRng) -> u8 {
    const STRUCTURAL: &[u8] = b"{}[]\",:\\u0123456789eE.-+ tfn\n\x00";
    if rng.below(2) == 0 {
        STRUCTURAL[rng.below(STRUCTURAL.len())]
    } else {
        rng.next_u64() as u8
    }
}

/// A request line with up to eight random insertions, deletions,
/// replacements or bracket runs.
struct MutatedRequests;

impl Strategy for MutatedRequests {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut bytes = REQUESTS[rng.below(REQUESTS.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 => bytes.insert(at, mutant_byte(rng)),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 if at < bytes.len() => bytes[at] = mutant_byte(rng),
                _ => {
                    let run = if rng.below(2) == 0 { b'[' } else { b'{' };
                    let count = rng.below(3 * json::MAX_DEPTH);
                    bytes.splice(at..at, std::iter::repeat_n(run, count));
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact emitter and the parser are inverses: re-emitting a
    /// value and parsing it back yields the same tree, numbers' tokens
    /// and duplicate members included.
    #[test]
    fn parse_inverts_display(v in Values { depth: 4 }) {
        let text = v.to_string();
        prop_assert_eq!(json::parse(&text), Ok(v.clone()));
        prop_assert_eq!(metrics::validate_json(&text), Ok(()));
    }

    /// Arbitrary bytes never panic the request parser.
    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&line);
    }

    /// Mutated request lines never panic the request parser, and every
    /// refusal is a one-line message.
    #[test]
    fn mutated_requests_never_panic_the_request_parser(line in MutatedRequests) {
        if let Err((message, id)) = parse_request(&line) {
            prop_assert!(!message.contains('\n'), "{message}");
            prop_assert_eq!(metrics::validate_json(&id), Ok(()));
        }
    }
}

#[test]
fn request_corpus_parses() {
    for line in REQUESTS {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}

#[test]
fn cluster_bench_validator_finds_keys_at_their_paths() {
    let report = ClusterBenchReport {
        workload: "skewed".to_string(),
        nodes: 3,
        replicas: 2,
        conns_per_node: 8,
        pipeline_depth: 4,
        secs: 3.0,
        requests: 3600,
        errors: 0,
        corrupt: 0,
        throughput_rps: 1200.0,
        baseline_rps: 400.0,
        speedup: 3.0,
        latency: LatencySummary {
            count: 3,
            samples: 3,
            sampled: false,
            p50: 200,
            p90: 300,
            p99: 300,
            p999: 300,
            max: 300,
            mean: 200.0,
        },
        per_node: vec![
            ("127.0.0.1:4101".to_string(), 1180),
            ("127.0.0.1:4102".to_string(), 2420),
        ],
    };
    let doc = metrics::cluster_bench_json(&report);
    assert_eq!(metrics::validate_cluster_bench(&doc), Ok(()));
    // `per_node[]` rows carry `requests` too; the top-level total is
    // still missing, and a substring check could not tell.
    let truncated = doc.replacen("\"requests\":3600,", "", 1);
    assert!(truncated.contains("\"requests\":"), "{truncated}");
    let error = metrics::validate_cluster_bench(&truncated).unwrap_err();
    assert!(error.contains("\"requests\""), "{error}");
    // A row without its `addr` fails the `per_node[].addr` path.
    let anonymous = doc.replacen("\"addr\":\"127.0.0.1:4102\",", "", 1);
    let error = metrics::validate_cluster_bench(&anonymous).unwrap_err();
    assert!(error.contains("per_node[].addr"), "{error}");
}
