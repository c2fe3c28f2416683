//! The parallel report engine, `session::parallel_ordered`: results in
//! task order whatever the schedule, nested calls, panics, and at most one
//! running task per available core.

use osarch_core::session::{self, parallel_ordered, Task};
use osarch_core::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// With many more tasks than workers, and tasks finishing out of order,
/// task `i`'s result is still element `i`.
#[test]
fn results_land_in_task_order_when_tasks_outnumber_workers() {
    let count = 8 * cores() + 3;
    let tasks: Vec<Task<'_, usize>> = (0..count)
        .map(|i| {
            Box::new(move || {
                // Earlier tasks work longer, so later ones finish first.
                let mut spin = 0u64;
                for k in 0..((count - i) * 2_000) as u64 {
                    spin = std::hint::black_box(spin.wrapping_add(k));
                }
                std::hint::black_box(spin);
                i
            }) as Task<'_, usize>
        })
        .collect();
    assert_eq!(parallel_ordered(tasks), (0..count).collect::<Vec<_>>());
    assert!(parallel_ordered::<u8>(Vec::new()).is_empty());
}

/// A task may call the engine again, three levels deep, and every level
/// completes with its results in order.
#[test]
fn nested_calls_complete() {
    let outer: Vec<Task<'_, Vec<Vec<usize>>>> = (0..6usize)
        .map(|i| {
            Box::new(move || {
                let middle: Vec<Task<'_, Vec<usize>>> = (0..5usize)
                    .map(|j| {
                        Box::new(move || {
                            let inner: Vec<Task<'_, usize>> = (0..4usize)
                                .map(|k| Box::new(move || 100 * i + 10 * j + k) as Task<'_, usize>)
                                .collect();
                            parallel_ordered(inner)
                        }) as Task<'_, Vec<usize>>
                    })
                    .collect();
                parallel_ordered(middle)
            }) as Task<'_, Vec<Vec<usize>>>
        })
        .collect();
    let results = parallel_ordered(outer);
    for (i, middle) in results.iter().enumerate() {
        for (j, inner) in middle.iter().enumerate() {
            let expected: Vec<usize> = (0..4).map(|k| 100 * i + 10 * j + k).collect();
            assert_eq!(inner, &expected);
        }
    }
}

/// The `tlb` and `ablations` builders split their own work through the
/// engine; run inside the table engine, twice each, they render exactly
/// as when built on their own.
#[test]
fn tlb_and_ablations_nest_inside_the_table_engine() {
    let tlb = session::report_by_name("tlb")
        .expect("tlb is registered")
        .build;
    let ablations = session::report_by_name("ablations")
        .expect("ablations is registered")
        .build;
    let alone = [tlb().render(), ablations().render()];
    let nested: Vec<String> = session::parallel_tables(&[tlb, ablations, tlb, ablations])
        .iter()
        .map(Table::render)
        .collect();
    assert_eq!(nested, [&alone[..], &alone[..]].concat());
}

/// A task that panics panics the caller, whichever worker ran it.
#[test]
fn a_panicking_task_panics_the_caller() {
    for doomed in [0, 1, 5] {
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(|| {
            let tasks: Vec<Task<'_, ()>> = (0..6)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        assert_ne!(i, doomed, "task {i} fails");
                    }) as Task<'_, ()>
                })
                .collect();
            parallel_ordered(tasks)
        });
        assert!(
            outcome.is_err(),
            "task {doomed} panicked but the caller returned"
        );
        assert!(ran.load(Ordering::SeqCst) >= 1);
    }
}

/// However many tasks a flat call has, no more of them run at once than
/// the process has cores.
#[test]
fn a_flat_call_runs_at_most_one_task_per_core() {
    let running = AtomicUsize::new(0);
    let high_water = AtomicUsize::new(0);
    let tasks: Vec<Task<'_, ()>> = (0..4 * cores() + 2)
        .map(|_| {
            let (running, high_water) = (&running, &high_water);
            Box::new(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            }) as Task<'_, ()>
        })
        .collect();
    parallel_ordered(tasks);
    let peak = high_water.load(Ordering::SeqCst);
    assert!(
        (1..=cores()).contains(&peak),
        "{peak} tasks ran at once on {} cores",
        cores()
    );
}
