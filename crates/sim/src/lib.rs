//! A discrete-event simulation (DES) engine for modeling parallel EnKF runs
//! at scales (12,000 ranks) far beyond what can be executed as real threads.
//!
//! ## Model
//!
//! A simulated workload is a DAG of [`Task`]s. Each task
//!
//! * belongs to an **agent** — a serial execution context (a rank's main
//!   thread, a rank's helper thread, an I/O processor). Tasks of one agent
//!   run in insertion (program) order: the engine adds an implicit
//!   dependency on the agent's previous task.
//! * may name **resources** — contention points with finite capacity (an
//!   OST of the parallel file system, a NIC). A task acquires its resources
//!   in ascending id order (deadlock-free) with FIFO queueing per resource,
//!   holds them for its service time, then releases them all.
//! * has a **service time** (virtual seconds once all resources are held)
//!   and a [`Kind`] used for per-phase accounting (read / communication /
//!   computation), the quantities plotted in the paper's Figures 1, 9 and 11.
//!
//! The engine records, per agent, busy time by kind and *wait* time (from
//! the moment a task's dependencies finish until its service starts —
//! dependency stalls plus resource queueing), which is exactly the "time for
//! waiting" of Figure 9.
//!
//! The engine is deterministic: ties in the event queue are broken by
//! insertion sequence.
//!
//! Tasks are kept in a compact store: one small record per task for what
//! the event loop touches, and flat side vectors for resources, dependency
//! edges and operation tags, so adding a task allocates nothing of its
//! own. Indices are kept in 32 bits; a graph that outgrows them is refused
//! with a typed [`SimError::Overflow`](engine::SimError::Overflow), never
//! truncated.
//!
//! A run's [`SimReport`] carries every per-agent phase total. Spans are
//! built only on request: after a run,
//! [`Simulation::export_trace`](engine::Simulation::export_trace) yields
//! the execution as `enkf_trace` spans in virtual time — the same
//! vocabulary the real executors record in wall time — so real-vs-modeled
//! operation structure can be compared digest-for-digest. The report's
//! totals are exact projections of those spans, so a caller that needs
//! only times (the capacity planner) reads the report and never exports.

pub mod engine;
pub mod report;
pub mod task;

pub use engine::Simulation;
pub use report::{AgentReport, KindTotals, SimReport};
pub use task::{AgentId, Kind, ResourceId, Task, TaskId};
