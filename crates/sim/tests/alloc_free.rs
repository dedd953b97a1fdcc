//! Counting-allocator proofs that neither graph construction nor the
//! event loop of [`Simulation::run`] allocates per task.
//!
//! The same contended task graph is built and run at about 2k and about
//! 20k tasks. Every allocation the run makes must come from sizing its
//! bookkeeping once: the dependents list, the event heap, the `started`
//! buffer, the resource queues and the final report. With a fixed agent
//! and resource count those are bounded by the graph's width, not its
//! length, so the two sizes may differ by at most the handful of
//! reallocations a longer run can cost. One allocation per finished task
//! (a cloned resource list, say) would add some 18k.
//!
//! Construction is held to the same standard: `add_task` copies a task's
//! resources and dependencies into the simulation's flat vectors, so
//! adding 20k tasks costs only the few extra doublings those vectors
//! need, where a per-task `Vec` would again cost some 18k.

use enkf_sim::{Kind, Simulation, Task};
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS};

const AGENTS: usize = 24;
const RESOURCES: usize = 4;

/// A simulation with the agents and resources registered, and `tasks`
/// tasks built but not yet added: round-robin over a fixed set of agents,
/// each holding one or two of a few capacity-2 resources (so queues form
/// and drain all run long), with a cross-agent dependency on a task one
/// round back.
fn contended_tasks(tasks: usize) -> (Simulation, Vec<Task>) {
    let mut sim = Simulation::new();
    let agents = sim.add_agents(AGENTS);
    let res: Vec<_> = (0..RESOURCES).map(|_| sim.add_resource(2)).collect();
    let built = (0..tasks)
        .map(|i| {
            let kind = [Kind::Read, Kind::Comm, Kind::Compute][i % 3];
            let service = 0.25 + (i % 7) as f64 * 0.125;
            let mut held = vec![res[i % RESOURCES]];
            if i % 5 == 0 {
                held.push(res[(i + 1) % RESOURCES]);
            }
            let mut task = Task::new(agents[i % AGENTS], kind, service).with_resources(held);
            if i > AGENTS {
                task = task.with_deps(vec![i - AGENTS - 1]);
            }
            task
        })
        .collect();
    (sim, built)
}

fn contended_graph(tasks: usize) -> Simulation {
    let (mut sim, built) = contended_tasks(tasks);
    for task in built {
        sim.add_task(task).unwrap();
    }
    sim
}

/// Allocations made by `add_task` alone (building the `Task`s excluded).
fn construction_allocations(tasks: usize) -> usize {
    let (mut sim, built) = contended_tasks(tasks);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for task in built {
        sim.add_task(task).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(sim.num_tasks(), tasks);
    after - before
}

/// Allocations made inside `run` alone (graph construction excluded).
fn run_allocations(tasks: usize) -> usize {
    let mut sim = contended_graph(tasks);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(report.tasks_executed, tasks);
    after - before
}

#[test]
fn event_loop_allocations_do_not_grow_with_event_count() {
    let _x = exclusive();
    let small = run_allocations(2_000);
    let large = run_allocations(20_000);
    assert!(
        large <= small + 8,
        "Simulation::run allocated {small} times for 2k tasks but {large} for 20k: \
         the event loop allocates per event"
    );
}

#[test]
fn graph_construction_allocations_do_not_grow_with_task_count() {
    let _x = exclusive();
    let small = construction_allocations(2_000);
    let large = construction_allocations(20_000);
    assert!(
        large <= small + 32,
        "add_task allocated {small} times for 2k tasks but {large} for 20k: \
         graph construction allocates per task"
    );
}
