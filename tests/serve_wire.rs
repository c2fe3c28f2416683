//! The serve protocol's wire golden: one scripted session against an
//! in-process server, every reply compared byte for byte with
//! `tests/golden/serve_replies.txt`, `"micros":N` masked.
//!
//! The session covers the 28 built-in `measure`s, first as misses and
//! then as hits, spelled in mixed ASCII case and through the `mips-`
//! aliases; a registry-spec `measure` and one each of `table`, `lint`,
//! `analyze`, `trace`, `counters` and `ping`; the refusals (bad JSON, a
//! nested field, a non-string field, unknown architectures including
//! non-ASCII look-alikes, an unknown primitive, op, spec and table, and
//! `arch` together with `spec`); and id echoes of `1.50`, an escaped
//! string and `true`. Envelopes, cache flags, epochs and every payload
//! are pinned, so a change to how requests are decoded, keyed or
//! answered cannot alter a byte unnoticed.
//!
//! On a mismatch the test writes the session it saw to
//! `serve_replies.actual.txt` in the system temp directory; replace the
//! golden with it only for an intended wire change.

use osarch::serve::{Server, ServerConfig};
use osarch::Arch;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/serve_replies.txt");

const TOKEN: &str = "wire-token";

/// The registry spec the session measures by name.
const SPEC_NAME: &str = "wire-sparc";

/// One connected client that sends a line and reads one reply line.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(reply.ends_with('\n'), "{line}: torn reply {reply:?}");
        reply.trim_end().to_string()
    }
}

/// The envelope's service time, `"micros":<digits>`, as `"micros":N`.
/// Only the envelope's own field is masked: the payload after `"result":`
/// (where a measurement's `"micros"` is simulated time) stays pinned.
fn mask_micros(reply: &str) -> String {
    const FIELD: &str = "\"micros\":";
    let envelope = reply.find("\"result\":").unwrap_or(reply.len());
    let Some(at) = reply[..envelope].find(FIELD).map(|at| at + FIELD.len()) else {
        return reply.to_string();
    };
    let digits = reply[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}N{}", &reply[..at], &reply[at + digits..])
}

fn measure(arch: &str, primitive: &str, id: usize) -> String {
    format!("{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{primitive}\",\"id\":{id}}}")
}

/// The scripted session's request lines, in order.
fn session() -> Vec<String> {
    // Each built-in key once as a miss, then once as a hit under another
    // spelling of the same architecture and primitive.
    let miss_archs = ["cvax", "88000", "r2000", "R3000", "sparc", "I860", "rs6000"];
    let hit_archs = [
        "CvAx",
        "88000",
        "MIPS-R2000",
        "mips-R3000",
        "SpArC",
        "i860",
        "Rs6000",
    ];
    let miss_primitives = ["syscall", "trap", "pte", "ctxsw"];
    let hit_primitives = ["NULL_SYSCALL", "Trap", "PTE-CHANGE", "Context-Switch"];
    assert_eq!(miss_archs.len(), Arch::COUNT);
    let mut lines = Vec::new();
    for (archs, primitives) in [(miss_archs, miss_primitives), (hit_archs, hit_primitives)] {
        for arch in archs {
            for primitive in primitives {
                lines.push(measure(arch, primitive, lines.len() + 1));
            }
        }
    }
    let spec_measure = format!(
        "{{\"op\":\"measure\",\"spec\":\"{SPEC_NAME}\",\"primitive\":\"trap\",\"id\":\"spec\"}}"
    );
    lines.extend(
        [
            spec_measure.as_str(),
            spec_measure.as_str(),
            "{\"op\":\"table\",\"table\":\"table6\",\"id\":\"table\"}",
            "{\"op\":\"lint\",\"arch\":\"mips-r2000\",\"id\":\"lint\"}",
            "{\"op\":\"analyze\",\"arch\":\"i860\",\"id\":\"analyze\"}",
            "{\"op\":\"trace\",\"arch\":\"CVAX\",\"primitive\":\"trap\",\"id\":\"trace\"}",
            "{\"op\":\"counters\",\"arch\":\"RS6000\",\"id\":\"counters\"}",
            "{\"op\":\"ping\",\"id\":\"ping\"}",
            // Id echoes.
            "{\"op\":\"ping\",\"id\":1.50}",
            "{\"op\":\"ping\",\"id\":\"a\\\"b\\\\c\\u00e9\\/\"}",
            "{\"id\":true,\"op\":\"measure\",\"arch\":\"R3000\",\"primitive\":\"trap\"}",
            "{\"op\":\"ping\",\"id\":-2e3}",
            // Refusals.
            "not json",
            "{\"op\":\"measure\",",
            "[1,2]",
            "{\"op\":\"measure\",\"arch\":{\"name\":\"R3000\"},\"primitive\":\"trap\",\"id\":1}",
            "{\"op\":\"measure\",\"arch\":3000,\"primitive\":\"trap\",\"id\":2}",
            "{\"op\":\"measure\",\"arch\":\"vax\",\"primitive\":\"trap\",\"id\":3}",
            "{\"op\":\"measure\",\"arch\":\"\u{405}PARC\",\"primitive\":\"trap\",\"id\":4}",
            "{\"op\":\"measure\",\"arch\":\"R\u{ff13}000\",\"primitive\":\"trap\",\"id\":5}",
            "{\"op\":\"measure\",\"arch\":\"\u{17f}parc\",\"primitive\":\"trap\",\"id\":6}",
            "{\"op\":\"measure\",\"arch\":\"r300\",\"primitive\":\"trap\",\"id\":7}",
            "{\"op\":\"measure\",\"arch\":\"\",\"primitive\":\"trap\",\"id\":8}",
            "{\"op\":\"measure\",\"arch\":\"R3000\",\"primitive\":\"fork\",\"id\":9}",
            "{\"op\":\"measure\",\"arch\":\"R3000\",\"primitive\":\"sysca\",\"id\":10}",
            "{\"op\":\"measure\",\"arch\":\"R3000\",\"id\":11}",
            "{\"op\":\"warp\",\"id\":12}",
            "{\"id\":13}",
            "{\"op\":\"measure\",\"arch\":\"R3000\",\"spec\":\"wire-sparc\",\"primitive\":\"trap\",\"id\":14}",
            "{\"op\":\"measure\",\"spec\":\"nope\",\"primitive\":\"trap\",\"id\":15}",
            "{\"op\":\"table\",\"table\":\"table99\",\"id\":16}",
            "{\"op\":\"spans\",\"filter\":\"perfetto\",\"id\":17}",
            "{\"op\":\"ping\",\"fwd\":1,\"id\":18}",
            "{\"op\":\"ping\",\"id\":19}",
        ]
        .map(str::to_string),
    );
    lines
}

/// Load and activate the session's registry spec over the admin op.
fn install_spec(client: &mut Client) {
    let doc = Arch::Sparc.spec().to_json(SPEC_NAME);
    let load = format!(
        "{{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"{TOKEN}\",\"spec\":\"{}\"}}",
        osarch::json::escape(&doc)
    );
    let activate = format!(
        "{{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"{TOKEN}\",\"name\":\"{SPEC_NAME}\"}}"
    );
    for line in [load, activate] {
        let reply = client.round_trip(&line);
        assert!(reply.contains("\"ok\":true"), "{line} -> {reply}");
    }
}

#[test]
fn the_scripted_session_replies_match_the_golden_transcript() {
    let server = Server::start(&ServerConfig {
        admin_token: Some(TOKEN.to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr());
    install_spec(&mut client);
    let mut transcript = String::new();
    for line in session() {
        let reply = client.round_trip(&line);
        transcript.push_str(&format!("> {line}\n< {}\n", mask_micros(&reply)));
    }
    server.stop();
    if transcript != GOLDEN {
        let actual = std::env::temp_dir().join("serve_replies.actual.txt");
        std::fs::write(&actual, &transcript).expect("write the actual transcript");
        let line = transcript
            .lines()
            .zip(GOLDEN.lines())
            .position(|(seen, want)| seen != want)
            .unwrap_or_else(|| transcript.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "the wire transcript differs from tests/golden/serve_replies.txt at line {}; \
             the session as served is in {}",
            line + 1,
            actual.display()
        );
    }
}

#[test]
fn masking_touches_only_the_envelope_service_time() {
    assert_eq!(
        mask_micros("{\"id\":1,\"micros\":812,\"result\":{\"micros\":15.8}}"),
        "{\"id\":1,\"micros\":N,\"result\":{\"micros\":15.8}}"
    );
    let refusal = "{\"id\":1,\"ok\":false,\"error\":\"x\"}";
    assert_eq!(mask_micros(refusal), refusal);
}
