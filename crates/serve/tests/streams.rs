//! Every seeded stream, pinned to fixed values.
//!
//! The tables, chaos schedules, swap transcripts, trace ids, ring
//! placement and loadgen key draws all replay from seeded SplitMix64
//! streams and FNV-1a hashes. The other tests compare one run with
//! another run of the same build, so a change that moved a stream would
//! still pass them. The values below were printed once and must not
//! change: a mismatch here means some replayable output moved.

use osarch_chaos::{ChaosConfig, ChaosController, Failpoint};
use osarch_cluster::{key_hash, Ring};
use osarch_core::mach::simulate_events;
use osarch_core::workloads::{find_workload, ServiceEvent, TraceGenerator};
use osarch_core::Arch;
use osarch_serve::SpecSnapshot;
use osarch_telemetry::{mix64, TraceIdGen};
use osarch_trace::{SplitMix64, GAMMA};
use std::time::Duration;

fn bits(mut draw: impl FnMut() -> bool, n: usize) -> String {
    (0..n).map(|_| if draw() { '1' } else { '0' }).collect()
}

/// The first three outputs of `next`, in hex.
fn first3(mut next: impl FnMut() -> u64) -> String {
    let words: Vec<String> = (0..3).map(|_| format!("{:016x}", next())).collect();
    words.join(" ")
}

#[test]
fn generator_streams_start_where_they_always_did() {
    // The workload, Mach event and loadgen streams start at `seed ^ GAMMA`.
    let std = |seed: u64| {
        let mut rng = SplitMix64::new(seed ^ GAMMA);
        first3(|| rng.next_u64())
    };
    assert_eq!(std(1), "e99ff867dbf682c9 382ff84cb27281e9 6d1db36ccba982d2");
    assert_eq!(
        std(0xC0FFEE),
        "2b8a1965fe6061f0 53c9d2dce0e6e709 91bd6c0416adacb1"
    );
    // The client backoff and soak victim streams start at `seed + GAMMA`.
    let chaos = |seed: u64| {
        let mut rng = SplitMix64::new(seed.wrapping_add(GAMMA));
        first3(|| rng.next_u64())
    };
    assert_eq!(
        chaos(1),
        "beeb8da1658eec67 f893a2eefb32555e 71c18690ee42c90b"
    );
    assert_eq!(
        chaos(0xC0FFEE),
        "ece45babce870479 87be93a4a16a73cb 5a71c08957a50d44"
    );
    let mut rng = SplitMix64::new(7u64.wrapping_add(GAMMA));
    let draws: Vec<u64> = (0..8).map(|_| rng.range(1000)).collect();
    assert_eq!(draws, [16, 900, 582, 452, 249, 467, 328, 134]);
    let ids = |seed, stream| {
        let mut ids = TraceIdGen::new(seed, stream);
        first3(|| ids.next_id())
    };
    assert_eq!(
        ids(42, 0),
        "4d9b3f1ec9cf6b1b 78c2d7cd08dbb11f 4a4d831399ccfc4e"
    );
    assert_eq!(
        ids(42, 3),
        "43aa8652ad94b3a2 57d58a8a5a8075de 3dde2c09fc39c00b"
    );
}

#[test]
fn weighted_and_bernoulli_draws_replay() {
    // Weights 3, 0, 5, 1.
    let mut rng = SplitMix64::new(9 ^ GAMMA);
    let picks: String = (0..24)
        .map(|_| char::from(b'0' + rng.pick(&[3, 3, 8, 9]) as u8))
        .collect();
    assert_eq!(picks, "202222232022202030220202");
    let mut rng = SplitMix64::new(11 ^ GAMMA);
    assert_eq!(
        bits(|| rng.chance(0.3), 32),
        "01011001001010001000100000100011"
    );
    // The same draws, as the workload and Mach event simulators make them.
    let spellcheck = find_workload("spellcheck-1").unwrap();
    let events: Vec<ServiceEvent> = TraceGenerator::new(&spellcheck.demand, 42)
        .take(8)
        .collect();
    use ServiceEvent::{KernelTlbMiss, OtherException, Syscall, ThreadSwitch};
    assert_eq!(
        events,
        [
            KernelTlbMiss,
            ThreadSwitch,
            OtherException,
            Syscall,
            OtherException,
            KernelTlbMiss,
            OtherException,
            KernelTlbMiss
        ]
    );
    let mix = TraceGenerator::new(&spellcheck.demand, 7).sample_counts(1000);
    assert_eq!(
        [
            mix.as_switches,
            mix.thread_switches,
            mix.syscalls,
            mix.emulated_instructions,
            mix.kernel_tlb_misses,
            mix.other_exceptions
        ],
        [27, 46, 118, 6, 469, 361]
    );
    let run = simulate_events(&spellcheck, 500, 7);
    assert_eq!(
        [run.syscalls, run.thread_switches, run.as_switches],
        [1190, 1191, 1191]
    );
}

#[test]
fn chaos_decisions_replay() {
    let chaos = ChaosController::new(ChaosConfig {
        seed: 42,
        rate: 0.2,
        horizon: 1000,
    });
    assert_eq!(
        bits(|| chaos.should_inject(Failpoint::ComputePanic), 32),
        "01000010001010100000000000000100"
    );
    let (min, max) = (Duration::from_millis(1), Duration::from_millis(9));
    let stalls: Vec<u128> = (0..40)
        .filter_map(|_| chaos.inject_delay(Failpoint::WriteStall, min, max))
        .map(|stall| stall.as_micros())
        .collect();
    assert_eq!(stalls, [3719, 3173, 6172, 7764, 3175, 1865]);
    assert_eq!(chaos.schedule_total(), 2611);
}

#[test]
fn hashes_placement_and_digests_replay() {
    assert_eq!(mix64(0), 0);
    assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
    assert_eq!(mix64(0xdead_beef), 0x4e06_2702_ec92_9eea);
    assert_eq!(key_hash(""), 0xf52a_15e9_a9b5_e89b);
    assert_eq!(key_hash("measure/R3000/trap"), 0x324d_aa3e_d64d_5383);
    let nodes: Vec<String> = (1..=3).map(|i| format!("127.0.0.1:4721{i}")).collect();
    let ring = Ring::new(&nodes, 128);
    assert_eq!(
        ring.replicas("measure/R3000/trap", 2),
        ["127.0.0.1:47212", "127.0.0.1:47211"]
    );
    assert_eq!(
        ring.replicas("measure/SPARC/ctxsw", 2),
        ["127.0.0.1:47211", "127.0.0.1:47212"]
    );
    assert_eq!(
        ring.replicas("table/2", 2),
        ["127.0.0.1:47213", "127.0.0.1:47211"]
    );
    assert_eq!(SpecSnapshot::builtins().digest(), "1:cbf29ce484222325");
    let mut spec = Arch::R3000.spec();
    spec.clock_mhz = 25.0;
    let loaded = SpecSnapshot::builtins()
        .with_spec(&spec.to_json("hot"), 2)
        .unwrap();
    assert_eq!(loaded.digest(), "2:dba207afba17b9f7");
}
