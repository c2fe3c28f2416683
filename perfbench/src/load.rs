//! Load generation over loopback TCP.
//!
//! A closed loop sends a batch of requests per connection and waits for
//! every reply before sending the next batch. An open loop sends on a fixed
//! schedule and reads the (in-order) replies as they come; every request is
//! timed from when it was *due*, so a stall anywhere — server, socket or
//! generator — shows as latency on every request that was due during it,
//! not only on the one in flight.

use crate::gen::{Key, Mix, Rng, Target};
use osarch_core::metrics;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th reply has its `result` compared byte for byte.
pub const SAMPLE_EVERY: u64 = 32;

/// Requests per closed-loop batch. At depth 1 a closed loop on a 2-core
/// host measures thread wake-ups, which the scheduler makes vary by ±30%
/// run to run; pipelined batches measure the server's work per request.
pub const PIPELINE_DEPTH: usize = 32;

/// Batches each closed-loop connection keeps written ahead of the replies
/// it reads, so the server always finds the next batch waiting and never
/// sleeps on the client. Waking a sleeping core on a shared VM took from
/// microseconds to milliseconds depending on the other tenants: with one
/// batch at a time, `hot_builtin` throughput fell to a third while other
/// tenants were busy, with four to two thirds.
const BATCHES_AHEAD: usize = 4;

/// A connection that stays silent this long is counted as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The number after the first occurrence of `needle` (a quoted key and
/// its colon, such as `"id":`) in a reply envelope.
#[must_use]
pub fn field_u64(line: &str, needle: &str) -> Option<u64> {
    let at = line.find(needle)? + needle.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok()
}

/// The `result` payload of a success envelope: everything after
/// `"result":` up to the envelope's closing brace.
#[must_use]
pub fn result_of(line: &str) -> Option<&str> {
    let line = line.trim_end();
    let at = line.find("\"result\":")? + "\"result\":".len();
    line.get(at..line.len().checked_sub(1)?)
}

/// Whether a reply is a plain success: not an error, busy refusal or
/// degraded (stale-on-error) reply.
#[must_use]
pub fn is_success(line: &str) -> bool {
    line.contains("\"ok\":true") && !line.contains("\"degraded\":true")
}

/// Judges replies to `measure` requests: success, echoed id, and every
/// [`SAMPLE_EVERY`]-th `result` byte for byte. Built-in results are known
/// up front; registry-spec results depend on the epoch that served them,
/// so each distinct `(epoch, key)` result is kept for verification after
/// the run (and later samples of it must equal the first).
#[derive(Debug)]
pub struct Checker {
    keys: Vec<Key>,
    /// Expected `result` per key index; `None` for spec keys.
    expected: Vec<Option<String>>,
    spec_results: Mutex<HashMap<(u64, usize), String>>,
    mismatches: Mutex<Vec<String>>,
    compared: AtomicU64,
}

impl Checker {
    /// A checker for `keys`, pricing built-in expectations through the same
    /// emitter the server uses.
    #[must_use]
    pub fn new(keys: &[Key]) -> Checker {
        let expected = keys
            .iter()
            .map(|key| match key.target {
                Target::Builtin(arch) => Some(metrics::measure_json(arch, key.primitive)),
                Target::Spec(_) => None,
            })
            .collect();
        Checker::with_expected(keys, expected)
    }

    /// A checker with explicit expectations (`None` skips the comparison
    /// for that key).
    #[must_use]
    pub fn with_expected(keys: &[Key], expected: Vec<Option<String>>) -> Checker {
        Checker {
            keys: keys.to_vec(),
            expected,
            spec_results: Mutex::new(HashMap::new()),
            mismatches: Mutex::new(Vec::new()),
            compared: AtomicU64::new(0),
        }
    }

    /// Record a correctness failure.
    pub fn mismatch(&self, what: String) {
        let mut list = self.mismatches.lock().expect("mismatch list");
        if list.len() < 16 {
            list.push(what);
        } else if list.len() == 16 {
            list.push("(further mismatches suppressed)".to_string());
        }
    }

    /// Judge one reply to request `id` for key index `key`. Returns whether
    /// the request succeeded; a wrong id or result is also a mismatch.
    pub fn check(&self, key: usize, id: u64, reply: &str, sample: bool) -> bool {
        if !is_success(reply) {
            return false;
        }
        if field_u64(reply, "\"id\":") != Some(id) {
            self.mismatch(format!("reply to request {id} carries another id: {reply}"));
            return true;
        }
        if !sample {
            return true;
        }
        self.compared.fetch_add(1, Ordering::Relaxed);
        let Some(result) = result_of(reply) else {
            self.mismatch(format!("reply without a result: {reply}"));
            return true;
        };
        match &self.expected[key] {
            Some(expected) if result != expected => {
                self.mismatch(format!("result for {:?} differs: {result}", self.keys[key]));
            }
            Some(_) => {}
            None if matches!(self.keys[key].target, Target::Spec(_)) => {
                let epoch = field_u64(reply, "\"epoch\":").unwrap_or(0);
                let mut seen = self.spec_results.lock().expect("spec results");
                match seen.get(&(epoch, key)) {
                    Some(first) if first != result => self.mismatch(format!(
                        "two results for {:?} at epoch {epoch}",
                        self.keys[key]
                    )),
                    Some(_) => {}
                    None => {
                        seen.insert((epoch, key), result.to_string());
                    }
                }
            }
            None => {}
        }
        true
    }

    /// Replies whose `result` was compared.
    #[must_use]
    pub fn compared(&self) -> u64 {
        self.compared.load(Ordering::Relaxed)
    }

    /// The registry-spec results seen, by `(epoch, key index)`.
    #[must_use]
    pub fn spec_results(&self) -> HashMap<(u64, usize), String> {
        self.spec_results.lock().expect("spec results").clone()
    }

    /// Every mismatch recorded.
    #[must_use]
    pub fn mismatches(&self) -> Vec<String> {
        self.mismatches.lock().expect("mismatch list").clone()
    }
}

/// The `spec_churn` write stream: seeded spec documents loaded and
/// activated at a fixed rate on the first connection.
#[derive(Debug)]
pub struct Swapper {
    token: String,
    /// Every document in issue order, with the slot it reloads.
    docs: Vec<(usize, String)>,
    next: AtomicUsize,
    /// Time between swaps.
    pub interval: Duration,
    /// `(epoch, index into docs)` of every activation, in order.
    log: Mutex<Vec<(u64, usize)>>,
    /// Server-side swap time (`swap_us`) of every activation.
    server_us: Mutex<Vec<u64>>,
}

/// The two request lines of one swap.
#[derive(Debug)]
pub struct SwapLines {
    /// Index of the document in the stream.
    pub doc: usize,
    /// `spec-load` then `spec-activate`, newline-terminated.
    pub bytes: Vec<u8>,
}

impl Swapper {
    /// A stream over `docs` (`(slot, document)` pairs) at `per_second`.
    #[must_use]
    pub fn new(token: &str, docs: Vec<(usize, String)>, per_second: f64) -> Swapper {
        Swapper {
            token: token.to_string(),
            docs,
            next: AtomicUsize::new(0),
            interval: Duration::from_secs_f64(1.0 / per_second),
            log: Mutex::new(Vec::new()),
            server_us: Mutex::new(Vec::new()),
        }
    }

    /// The next swap's request lines, ids `id` and `id + 1`.
    ///
    /// # Panics
    ///
    /// Panics when the seeded stream is exhausted (it is sized for the run).
    #[must_use]
    pub fn next_lines(&self, id: u64) -> SwapLines {
        let doc = self.next.fetch_add(1, Ordering::Relaxed);
        let (slot, text) = self.docs.get(doc).expect("swap stream sized for the run");
        let mut bytes = Vec::with_capacity(text.len() + 256);
        let _ = writeln!(
            bytes,
            "{{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"{}\",\"spec\":\"{}\",\"id\":{id}}}",
            self.token,
            metrics::json_escape(text)
        );
        let _ = writeln!(
            bytes,
            "{{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"{}\",\"name\":\"{}\",\"id\":{}}}",
            self.token,
            crate::gen::slot_name(*slot),
            id + 1
        );
        SwapLines { doc, bytes }
    }

    /// Judge the `spec-load` and `spec-activate` replies of swap `doc`;
    /// records the activation epoch and server-side time. Returns success.
    pub fn settle(&self, doc: usize, load: &str, activate: &str) -> bool {
        if !is_success(load) || !is_success(activate) {
            return false;
        }
        let Some(result) = result_of(activate) else {
            return false;
        };
        if !result.contains("\"activated\":true") {
            return false;
        }
        let (Some(epoch), Some(swap_us)) = (
            field_u64(result, "\"epoch\":"),
            field_u64(result, "\"swap_us\":"),
        ) else {
            return false;
        };
        self.log.lock().expect("swap log").push((epoch, doc));
        self.server_us.lock().expect("swap times").push(swap_us);
        true
    }

    /// `(epoch, (slot, document))` of every activation, in order.
    #[must_use]
    pub fn activations(&self) -> Vec<(u64, usize, String)> {
        self.log
            .lock()
            .expect("swap log")
            .iter()
            .map(|&(epoch, doc)| (epoch, self.docs[doc].0, self.docs[doc].1.clone()))
            .collect()
    }

    /// Server-side `swap_us` of every activation.
    #[must_use]
    pub fn server_us(&self) -> Vec<u64> {
        self.server_us.lock().expect("swap times").clone()
    }
}

/// What one loop run measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Wall time of the send window.
    pub elapsed: Duration,
    /// Read requests sent.
    pub sent: u64,
    /// Read requests answered successfully.
    pub ok: u64,
    /// Read requests that failed: error, busy or degraded reply, or none.
    pub failed: u64,
    /// Open loop: read latency from due, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Open loop: the server's own `micros` of every successful read.
    pub service_us: Vec<u64>,
    /// Open loop: how late each request left the generator, nanoseconds.
    pub gen_lag_ns: Vec<u64>,
    /// Open loop: requests still unanswered when the send window closed.
    pub outstanding_at_end: u64,
    /// Swaps attempted.
    pub swaps: u64,
    /// Swaps that failed.
    pub swaps_failed: u64,
    /// Swap latency from due to the activation reply, nanoseconds.
    pub swap_ns: Vec<u64>,
}

impl LoopStats {
    /// Fold another run's counts and samples into this one.
    pub fn absorb(&mut self, other: LoopStats) {
        self.elapsed += other.elapsed;
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_ns.extend(other.latency_ns);
        self.service_us.extend(other.service_us);
        self.gen_lag_ns.extend(other.gen_lag_ns);
        self.outstanding_at_end += other.outstanding_at_end;
        self.swaps += other.swaps;
        self.swaps_failed += other.swaps_failed;
        self.swap_ns.extend(other.swap_ns);
    }
}

/// The traffic a loop sends: reads drawn from a key mix, optionally with a
/// swap stream riding the first connection.
#[derive(Debug, Clone, Copy)]
pub struct Traffic<'a> {
    /// Read keys and their distribution.
    pub mix: &'a Mix,
    /// Reply judge.
    pub checker: &'a Checker,
    /// The write stream, if any.
    pub swaps: Option<&'a Swapper>,
    /// Seed for the read draws.
    pub seed: u64,
}

/// A request/reply connection: the write half and a buffered read half.
///
/// # Errors
///
/// Returns the connect or socket-option error.
pub fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Read one reply line; `false` on EOF, timeout or a torn line.
pub fn read_reply(reader: &mut BufReader<TcpStream>, line: &mut String) -> bool {
    line.clear();
    matches!(reader.read_line(line), Ok(n) if n > 0) && line.ends_with('\n')
}

/// Run `conns` closed-loop connections for `duration`, one thread each.
/// Each connection keeps [`BATCHES_AHEAD`] batches of [`PIPELINE_DEPTH`]
/// requests written ahead of the replies it reads, and writes the next
/// batch as each one is answered; swaps ride the first connection, alone
/// on it once its batches are answered. Request ids never repeat across
/// connections or streams.
///
/// # Errors
///
/// Returns the connect error when the server cannot be reached.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    traffic: Traffic<'_>,
    stream_id: u64,
) -> std::io::Result<LoopStats> {
    let links = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let end = start + duration;
    let mut total = LoopStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(conn, link)| {
                let traffic = Traffic {
                    swaps: traffic.swaps.filter(|_| conn == 0),
                    ..traffic
                };
                scope.spawn(move || closed_connection(link, traffic, stream_id, conn, start, end))
            })
            .collect();
        for worker in workers {
            total.absorb(worker.join().expect("closed-loop connection thread"));
        }
    });
    total.elapsed = start.elapsed();
    Ok(total)
}

/// One connection of [`closed_loop`], from `start` until `end`.
fn closed_connection(
    (mut stream, mut reader): (TcpStream, BufReader<TcpStream>),
    traffic: Traffic<'_>,
    stream_id: u64,
    conn: usize,
    start: Instant,
    end: Instant,
) -> LoopStats {
    let mut rng = Rng::new(traffic.seed, stream_id * 64 + conn as u64);
    let mut stats = LoopStats::default();
    let mut out = Vec::with_capacity(PIPELINE_DEPTH * 96);
    let mut in_flight: VecDeque<(usize, u64)> =
        VecDeque::with_capacity(BATCHES_AHEAD * PIPELINE_DEPTH);
    let mut line = String::with_capacity(1024);
    let mut replies = 0u64;
    let mut id = (stream_id << 40) | ((conn as u64) << 32);
    let mut swap_due = traffic.swaps.map(|s| start + s.interval / 2);
    loop {
        let now = Instant::now();
        let swap = traffic
            .swaps
            .zip(swap_due)
            .filter(|&(_, due)| due <= now && now < end);
        if now < end && swap.is_none() {
            while in_flight.len() < BATCHES_AHEAD * PIPELINE_DEPTH {
                out.clear();
                for _ in 0..PIPELINE_DEPTH {
                    id += 1;
                    let key = traffic.mix.draw(&mut rng);
                    traffic.mix.keys()[key].write_line(id, &mut out);
                    in_flight.push_back((key, id));
                }
                stats.sent += PIPELINE_DEPTH as u64;
                if stream.write_all(&out).is_err() {
                    stats.failed += in_flight.len() as u64;
                    return stats;
                }
            }
        }
        if in_flight.is_empty() {
            // Every reply is in: run the due swap, or stop when the window
            // has closed.
            let Some((swapper, due)) = swap else {
                break;
            };
            swap_due = Some(due + swapper.interval);
            let lines = swapper.next_lines(id + 1);
            id += 2;
            stats.swaps += 1;
            let ok = stream.write_all(&lines.bytes).is_ok() && {
                let mut load = String::new();
                read_reply(&mut reader, &mut load)
                    && read_reply(&mut reader, &mut line)
                    && swapper.settle(lines.doc, &load, &line)
            };
            if ok {
                stats.swap_ns.push(due.elapsed().as_nanos() as u64);
            } else {
                stats.swaps_failed += 1;
            }
            continue;
        }
        for _ in 0..PIPELINE_DEPTH {
            let Some((key, id)) = in_flight.pop_front() else {
                break;
            };
            if !read_reply(&mut reader, &mut line) {
                stats.failed += 1 + in_flight.len() as u64;
                return stats;
            }
            replies += 1;
            if traffic
                .checker
                .check(key, id, &line, replies.is_multiple_of(SAMPLE_EVERY))
            {
                stats.ok += 1;
            } else {
                stats.failed += 1;
            }
        }
    }
    stats
}

/// One scheduled request of an open loop, awaiting its reply.
struct Pending {
    due: Instant,
    id: u64,
    kind: Kind,
}

enum Kind {
    Read(usize),
    SwapLoad,
    SwapActivate(usize),
}

/// Run one open loop at `rate` requests per second for `duration` on one
/// connection, then drain every outstanding reply. Reads still unanswered
/// after the reply timeout count as failed.
///
/// One thread sends and receives on a nonblocking socket and spins between
/// the two (yielding the core whenever another thread wants it), so it
/// sends each request when it falls due and sees each reply as it lands: a
/// sleeping sender and a blocked receiver would add two thread wake-ups to
/// every request, and on a shared 2-core VM where the scheduler put them
/// moved the 90th percentile by 2.5x between runs.
///
/// # Errors
///
/// Returns the connect error when the server cannot be reached.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    traffic: Traffic<'_>,
    stream_id: u64,
) -> std::io::Result<LoopStats> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let end = start + duration;
    let mut stats = LoopStats::default();
    let mut rng = Rng::new(traffic.seed, stream_id * 64);
    let mut id = stream_id << 40;
    let mut next_read = 0u64;
    let mut next_swap = traffic.swaps.map(|s| start + s.interval / 2);
    let mut pending = VecDeque::new();
    let (mut out, mut written) = (Vec::with_capacity(64 * 1024), 0);
    let (mut input, mut chunk) = (Vec::with_capacity(64 * 1024), vec![0u8; 64 * 1024]);
    let mut load_reply = String::new();
    let mut reads = 0u64;
    // When bytes last arrived: the reply time of every line they complete.
    let mut heard = Instant::now();
    let mut closed = false;
    loop {
        let now = Instant::now();
        // Schedule every request that has fallen due, timed from its due
        // time: a late send counts against the request (coordinated
        // omission), and `gen_lag_ns` records how late.
        loop {
            let read_due = start + period.mul_f64(next_read as f64);
            let swap_due = next_swap.filter(|&due| due < read_due);
            let due = swap_due.unwrap_or(read_due);
            if due >= end || due > now {
                break;
            }
            stats
                .gen_lag_ns
                .push(now.duration_since(due).as_nanos() as u64);
            if pending.is_empty() {
                // The reply timeout runs from the first request awaited.
                heard = now;
            }
            if let (Some(swapper), Some(_)) = (traffic.swaps, swap_due) {
                next_swap = Some(due + swapper.interval);
                let lines = swapper.next_lines(id + 1);
                stats.swaps += 1;
                pending.push_back(Pending {
                    due,
                    id: id + 1,
                    kind: Kind::SwapLoad,
                });
                pending.push_back(Pending {
                    due,
                    id: id + 2,
                    kind: Kind::SwapActivate(lines.doc),
                });
                id += 2;
                out.extend_from_slice(&lines.bytes);
            } else {
                next_read += 1;
                id += 1;
                let key = traffic.mix.draw(&mut rng);
                traffic.mix.keys()[key].write_line(id, &mut out);
                pending.push_back(Pending {
                    due,
                    id,
                    kind: Kind::Read(key),
                });
                stats.sent += 1;
            }
        }
        if !closed && now >= end {
            closed = true;
            stats.elapsed = now.duration_since(start);
            stats.outstanding_at_end = pending.len() as u64;
        }
        if written < out.len() {
            match stream.write(&out[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            if written == out.len() {
                out.clear();
                written = 0;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                input.extend_from_slice(&chunk[..n]);
                heard = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
        let mut consumed = 0;
        while let Some(newline) = input[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&input[consumed..consumed + newline + 1]);
            consumed += newline + 1;
            let Some(request) = pending.pop_front() else {
                traffic
                    .checker
                    .mismatch(format!("a reply nobody asked for: {line}"));
                continue;
            };
            let latency = heard.duration_since(request.due).as_nanos() as u64;
            match request.kind {
                Kind::Read(key) => {
                    reads += 1;
                    stats.latency_ns.push(latency);
                    if traffic.checker.check(
                        key,
                        request.id,
                        &line,
                        reads.is_multiple_of(SAMPLE_EVERY),
                    ) {
                        stats.ok += 1;
                        stats.service_us.extend(field_u64(&line, "\"micros\":"));
                    } else {
                        stats.failed += 1;
                    }
                }
                Kind::SwapLoad => load_reply = line.into_owned(),
                Kind::SwapActivate(doc) => {
                    let swapper = traffic.swaps.expect("swap replies only with a swapper");
                    if swapper.settle(doc, &load_reply, &line) {
                        stats.swap_ns.push(latency);
                    } else {
                        stats.swaps_failed += 1;
                    }
                }
            }
        }
        input.drain(..consumed);
        if closed && pending.is_empty() {
            break;
        }
        if !pending.is_empty() && now.duration_since(heard) > REPLY_TIMEOUT {
            break;
        }
        std::thread::yield_now();
    }
    // Whatever is still pending got no reply: the connection died or went
    // silent.
    for request in pending {
        match request.kind {
            Kind::Read(_) => stats.failed += 1,
            Kind::SwapActivate(_) => stats.swaps_failed += 1,
            Kind::SwapLoad => {}
        }
    }
    if !closed {
        stats.elapsed = start.elapsed();
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_are_read_from_the_envelope() {
        let reply = "{\"schema\":\"osarch-serve/1\",\"id\":17,\"ok\":true,\"cached\":true,\"epoch\":3,\"micros\":12,\"result\":{\"epoch\":9}}\n";
        assert_eq!(field_u64(reply, "\"id\":"), Some(17));
        assert_eq!(field_u64(reply, "\"epoch\":"), Some(3));
        assert_eq!(result_of(reply), Some("{\"epoch\":9}"));
        assert!(is_success(reply));
        assert!(!is_success("{\"ok\":true,\"degraded\":true}"));
        assert!(!is_success("{\"ok\":false,\"error\":\"busy\"}"));
    }
}
