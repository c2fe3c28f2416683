//! Multi-node cluster integration: consistent-hash routing with R-way
//! replicas, proxy forwarding, `not_owner` redirects, gossip membership
//! convergence (and down-marking of a killed node), and the shard-aware
//! routing client failing over when a replica dies.

use osarch_serve::protocol::parse_request;
use osarch_serve::server::reserve_loopback_addrs;
use osarch_serve::soak::{self, Scenario};
use osarch_serve::{
    ClientConfig, ClusterClient, ClusterConfig, Server, ServerConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start_cluster(
    addrs: &[String],
    replicas: usize,
    proxy: bool,
    gossip: Duration,
) -> Vec<ServerHandle> {
    addrs
        .iter()
        .map(|addr| {
            Server::start(&ServerConfig {
                addr: addr.clone(),
                workers: 2,
                cluster: Some(ClusterConfig {
                    self_addr: addr.clone(),
                    peers: addrs.to_vec(),
                    replicas,
                    proxy,
                    gossip_interval: gossip,
                    ..ClusterConfig::default()
                }),
                ..ServerConfig::default()
            })
            .expect("cluster node starts")
        })
        .collect()
}

fn round_trip(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writeln!(writer, "{line}").expect("send");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

/// Data-query lines spanning the key space: 5 arches × 4 primitives
/// plus two tables, enough that a 3-node ring places keys on every
/// node. All carry `"id":1`, so the id token is always `"1"`.
fn sample_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for arch in ["mips-r3000", "i860", "SPARC", "CVAX", "R2000"] {
        for primitive in ["syscall", "trap", "ctxsw", "pte"] {
            lines.push(format!(
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{primitive}\",\"id\":1}}"
            ));
        }
    }
    for table in ["table1", "table5"] {
        lines.push(format!(
            "{{\"op\":\"table\",\"table\":\"{table}\",\"id\":1}}"
        ));
    }
    lines
}

/// The server-side routing key for a request line — the same parse +
/// `routing_key` the event loop runs, so tests route exactly as it does.
/// (Routing is epoch-free on purpose: a live spec swap must not migrate
/// keys around the ring.)
fn key_of(line: &str) -> String {
    parse_request(line)
        .expect("line parses")
        .query
        .routing_key()
        .expect("data query has a key")
}

#[test]
fn every_key_answers_through_one_node_with_proxying() {
    let addrs = reserve_loopback_addrs(3).expect("reserve loopback ports");
    let handles = start_cluster(&addrs, 1, true, Duration::from_millis(200));

    // R=1: node 0 owns ~1/3 of the keys, so most of these must be
    // relayed — yet every one must come back ok through the one dial.
    for line in sample_lines() {
        let reply = round_trip(&addrs[0], &line);
        assert!(reply.contains("\"ok\":true"), "line {line} got: {reply}");
        assert!(
            !reply.contains("\"error\":\"not_owner\""),
            "proxy mode must never redirect: {reply}"
        );
    }

    let (forwarded, _, redirected, _) = handles[0].cluster_counters().expect("cluster mode");
    assert!(forwarded > 0, "no request was relayed off-node");
    assert_eq!(redirected, 0, "proxy mode must not redirect");
    let proxied_total: u64 = handles
        .iter()
        .map(|h| h.cluster_counters().expect("cluster mode").1)
        .sum();
    assert!(proxied_total > 0, "no peer served a forwarded request");
    assert!(
        forwarded >= proxied_total,
        "more proxied ({proxied_total}) than forwarded ({forwarded})"
    );

    // The cluster status document validates, both in-process and as the
    // `cluster` op's result payload over the socket.
    let status = handles[0].cluster_status_json().expect("cluster status");
    osarch_core::metrics::validate_cluster_status(&status).expect("valid osarch-cluster/1");
    let reply = round_trip(&addrs[0], "{\"op\":\"cluster\",\"id\":9}");
    assert!(reply.contains("\"ok\":true"), "got: {reply}");
    assert!(
        reply.contains("\"schema\":\"osarch-cluster/1\""),
        "got: {reply}"
    );

    for handle in handles {
        handle.stop();
    }
}

#[test]
fn non_replica_redirects_with_not_owner_when_proxying_is_off() {
    let addrs = reserve_loopback_addrs(3).expect("reserve loopback ports");
    let handles = start_cluster(&addrs, 1, false, Duration::from_millis(200));
    let ring = osarch_cluster::Ring::new(&addrs, osarch_cluster::DEFAULT_VNODES);

    // Pick a key node 0 does not own; with R=1 the reply must be a
    // `not_owner` redirect naming the actual owner.
    let (line, owner) = sample_lines()
        .into_iter()
        .find_map(|line| {
            let owner = ring
                .owner(&key_of(&line))
                .expect("ring has nodes")
                .to_string();
            (owner != addrs[0]).then_some((line, owner))
        })
        .expect("some key lives on another node");

    let reply = round_trip(&addrs[0], &line);
    assert!(reply.contains("\"ok\":false"), "got: {reply}");
    assert!(reply.contains("\"error\":\"not_owner\""), "got: {reply}");
    assert!(
        reply.contains(&format!("\"owner\":\"{owner}\"")),
        "redirect must name the ring owner: {reply}"
    );
    assert!(
        reply.contains(&format!("\"key\":\"{}\"", key_of(&line))),
        "redirect must echo the key: {reply}"
    );
    let (_, _, redirected, _) = handles[0].cluster_counters().expect("cluster mode");
    assert!(redirected > 0, "redirect counter did not move");

    // Following the redirect to the stated owner succeeds.
    let direct = round_trip(&owner, &line);
    assert!(direct.contains("\"ok\":true"), "got: {direct}");

    for handle in handles {
        handle.stop();
    }
}

#[test]
fn gossip_converges_and_marks_a_killed_node_down() {
    let addrs = reserve_loopback_addrs(3).expect("reserve loopback ports");
    let mut handles = start_cluster(&addrs, 2, true, Duration::from_millis(50));

    // Phase 1: every node's digest names all three peers alive, and all
    // three digests agree byte-for-byte.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let digests: Vec<String> = handles
            .iter()
            .map(|h| h.membership_digest().expect("cluster mode"))
            .collect();
        let converged = digests.windows(2).all(|pair| pair[0] == pair[1])
            && addrs.iter().all(|a| digests[0].contains(&format!("{a}=")))
            && !digests[0].contains("/suspect")
            && !digests[0].contains("/down");
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "membership never converged: {digests:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Phase 2: kill node 2; the survivors' gossip must flag it.
    let victim = handles.pop().expect("three nodes");
    victim.stop();
    let dead = &addrs[2];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let digest = handles[0].membership_digest().expect("cluster mode");
        let flagged = digest.split(';').any(|entry| {
            entry.starts_with(&format!("{dead}="))
                && (entry.ends_with("/suspect") || entry.ends_with("/down"))
        });
        if flagged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed node never flagged: {digest}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    for handle in handles {
        handle.stop();
    }
}

#[test]
fn cluster_soak_kill_and_respawn_passes_and_replays_its_schedule() {
    let scenario = Scenario::cluster(7, Duration::from_secs(2));
    let report = soak::run(&scenario).expect("cluster soak starts");
    assert!(
        report.passed(),
        "cluster soak violations: {:?}",
        report.violations
    );
    assert_eq!(report.resilience.corrupt, 0);
    assert!(report.oks > 0);
    assert!(report.converged_before_kill);
    assert!(report.reconverged);

    // Same seed, same victim: the kill decision is a pure function of
    // the seed, never of the run.
    let replay = soak::run(&scenario).expect("cluster soak replays");
    assert_eq!(replay.victim, report.victim, "kill schedule must replay");
}

#[test]
fn cluster_client_fails_over_when_a_replica_dies() {
    let addrs = reserve_loopback_addrs(3).expect("reserve loopback ports");
    let mut handles = start_cluster(&addrs, 2, true, Duration::from_millis(50));
    let mut client = ClusterClient::new(
        &addrs,
        2,
        &ClientConfig {
            attempts: 2,
            attempt_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    );

    // Warm pass: all nodes up, every key answers at its primary.
    for line in sample_lines() {
        let reply = client
            .call(&key_of(&line), &line, "1")
            .expect("healthy cluster answers");
        assert!(reply.ok, "got: {}", reply.raw);
    }
    assert!(client.route_counters().routed_primary > 0);

    // Kill one node. With R=2, every key keeps a live replica, so the
    // router must still answer 100% of the key space.
    let victim = handles.pop().expect("three nodes");
    victim.stop();
    for line in sample_lines() {
        let reply = client
            .call(&key_of(&line), &line, "1")
            .expect("R=2 keeps every key answerable with one node dead");
        assert!(reply.ok, "got: {}", reply.raw);
    }
    let routes = client.route_counters();
    assert!(
        routes.failovers > 0,
        "some keys' primary was the dead node; failover counter must move: {routes:?}"
    );

    for handle in handles {
        handle.stop();
    }
}
