//! The discrete-event scheduler.
//!
//! Tasks live in a compact store. The state the event loop touches on
//! every event (service, ready and start times, agent, remaining
//! dependencies, acquired resources, kind and state) sits in one small
//! record per task. Everything else is side data in flat vectors: the
//! operation tags, every task's resources in one list addressed by a
//! `(start, len)` range, and the dependency edges, which are appended in
//! insertion order and turned into a compressed dependents list once, when
//! the run starts. Adding a task therefore allocates nothing of its own,
//! and indices are kept in 32 bits (16 for a task's resource count); a
//! graph that outgrows them is refused with [`SimError::Overflow`].

use crate::report::{AgentReport, SimReport};
use crate::task::{AgentId, Kind, ResourceId, Task, TaskId};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A count the compact task store keeps narrower than `usize`; named by
/// [`SimError::Overflow`] when a graph outgrows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreLimit {
    /// Tasks: their count, and so every task id and start sequence
    /// number (32 bits).
    Tasks,
    /// Agent ids (32 bits).
    Agents,
    /// Resource ids (32 bits).
    Resources,
    /// Dependency edges over the whole graph (32 bits).
    Edges,
    /// Resource holdings over the whole graph (32 bits).
    Holdings,
    /// Distinct resources one task holds (16 bits).
    TaskResources,
    /// A stage, peer or member index in an operation tag (32 bits, with
    /// `u32::MAX` reserved for "none").
    OpIndex,
}

/// Errors from running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The task graph never ran some tasks (dependency cycle or a
    /// dependency on a task id that was never satisfiable).
    Stuck {
        /// Number of tasks that never started.
        unfinished: usize,
    },
    /// A task named a resource id that was never registered.
    UnknownResource(ResourceId),
    /// A task named a dependency id that does not exist (forward edges are
    /// not allowed: dependencies must be created before dependents).
    UnknownDependency(TaskId),
    /// A service time was negative or non-finite.
    BadService(TaskId),
    /// Adding the task would overflow a count of the compact task store.
    /// The simulation is left as it was before the call.
    Overflow(StoreLimit),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stuck { unfinished } => {
                write!(f, "simulation stuck: {unfinished} tasks never ran (cycle?)")
            }
            SimError::UnknownResource(r) => write!(f, "unknown resource id {:?}", r),
            SimError::UnknownDependency(t) => write!(f, "unknown dependency task id {t}"),
            SimError::BadService(t) => write!(f, "task {t} has a negative/non-finite service time"),
            SimError::Overflow(what) => {
                write!(f, "task graph outgrew the compact store: too many {what:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    WaitingDeps,
    Acquiring,
    Running,
    Done,
}

/// The per-task state the event loop reads and writes. A task finishes at
/// `start + service`: the finish time is derived, never stored.
struct TaskState {
    service: f64,
    ready: f64,
    start: f64,
    agent: u32,
    remaining_deps: u32,
    acquired: u16,
    kind: Kind,
    state: State,
}

impl TaskState {
    fn finish(&self) -> f64 {
        self.start + self.service
    }
}

/// A task's operation tag with its indices kept in 32 bits, `u32::MAX`
/// standing for `None`. An untagged task stores the default tag, which is
/// what the export reads for it.
#[derive(Clone, Copy)]
struct PackedOp {
    bytes: u64,
    seeks: u64,
    stage: u32,
    peer: u32,
    member: u32,
    io: bool,
}

const NO_INDEX: u32 = u32::MAX;

impl PackedOp {
    fn pack(tag: Option<enkf_trace::OpTag>) -> Result<Self, SimError> {
        let tag = tag.unwrap_or_default();
        let index = |i: Option<usize>| match i {
            None => Ok(NO_INDEX),
            Some(i) => u32::try_from(i)
                .ok()
                .filter(|&i| i != NO_INDEX)
                .ok_or(SimError::Overflow(StoreLimit::OpIndex)),
        };
        Ok(PackedOp {
            bytes: tag.bytes,
            seeks: tag.seeks,
            stage: index(tag.stage)?,
            peer: index(tag.peer)?,
            member: index(tag.member)?,
            io: tag.io,
        })
    }

    fn unpack(self) -> enkf_trace::OpTag {
        let index = |i: u32| (i != NO_INDEX).then_some(i as usize);
        enkf_trace::OpTag {
            io: self.io,
            stage: index(self.stage),
            bytes: self.bytes,
            seeks: self.seeks,
            peer: index(self.peer),
            member: index(self.member),
        }
    }
}

struct ResourceState {
    capacity: usize,
    free: usize,
    queue: VecDeque<u32>,
}

/// A pending completion: `task` finishes at `time`. `seq` numbers
/// completions in the order their tasks started, breaking time ties
/// deterministically; each task starts once, so it stays below the task
/// count. Ordered so that the max-heap pops the earliest.
struct Event {
    time: f64,
    seq: u32,
    task: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest time first, then lowest sequence number.
        // Times are finite and never `-0.0` (they are sums of non-negative
        // services starting from `+0.0`), where `total_cmp` agrees with
        // the numeric order.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Each task's dependents, in the order the edges were added: the
/// dependents of task `t` are `targets[offsets[t]..offsets[t + 1]]`.
struct Dependents {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Dependents {
    /// Group `(dep, dependent)` edges by `dep` with a stable counting
    /// sort, so each task wakes its dependents in edge-insertion order.
    fn from_edges(tasks: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; tasks + 1];
        for &(dep, _) in edges {
            offsets[dep as usize + 1] += 1;
        }
        for t in 0..tasks {
            offsets[t + 1] += offsets[t];
        }
        // Fill with `offsets[t]` as task t's cursor; afterwards it has
        // advanced to t's end, which is t + 1's start, so shift back.
        let mut targets = vec![0u32; edges.len()];
        for &(dep, dependent) in edges {
            let slot = &mut offsets[dep as usize];
            targets[*slot as usize] = dependent;
            *slot += 1;
        }
        offsets.copy_within(0..tasks, 1);
        offsets[0] = 0;
        Dependents { offsets, targets }
    }

    fn of(&self, task: usize) -> &[u32] {
        &self.targets[self.offsets[task] as usize..self.offsets[task + 1] as usize]
    }
}

/// A discrete-event simulation under construction (and, after [`Simulation::run`],
/// its recorded timings).
///
/// ```
/// use enkf_sim::{Kind, Simulation, Task};
///
/// // Two readers contend for a single-slot disk; a consumer computes after
/// // the first read completes.
/// let mut sim = Simulation::new();
/// let disk = sim.add_resource(1);
/// let reader_a = sim.add_agent();
/// let reader_b = sim.add_agent();
/// let consumer = sim.add_agent();
/// let ra = sim.add_task(Task::new(reader_a, Kind::Read, 1.0).with_resources(vec![disk])).unwrap();
/// sim.add_task(Task::new(reader_b, Kind::Read, 1.0).with_resources(vec![disk])).unwrap();
/// sim.add_task(Task::new(consumer, Kind::Compute, 0.5).with_deps(vec![ra])).unwrap();
/// let report = sim.run().unwrap();
/// assert_eq!(report.makespan, 2.0); // reads serialize; compute hides behind read B
/// ```
pub struct Simulation {
    tasks: Vec<TaskState>,
    /// Operation tags, indexed by task.
    ops: Vec<PackedOp>,
    /// Each task's `(start, len)` range in `holdings`.
    held: Vec<(u32, u16)>,
    /// Every task's resources (each task's sorted ascending), back to back.
    holdings: Vec<u32>,
    /// `(dep, dependent)` pairs in insertion order, grouped into
    /// [`Dependents`] when the run starts.
    edges: Vec<(u32, u32)>,
    resources: Vec<ResourceState>,
    num_agents: usize,
    last_task_of_agent: Vec<Option<TaskId>>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("tasks", &self.tasks.len())
            .field("agents", &self.num_agents)
            .field("resources", &self.resources.len())
            .finish_non_exhaustive()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Simulation {
            tasks: Vec::new(),
            ops: Vec::new(),
            held: Vec::new(),
            holdings: Vec::new(),
            edges: Vec::new(),
            resources: Vec::new(),
            num_agents: 0,
            last_task_of_agent: Vec::new(),
        }
    }

    /// Register a serial execution context (rank thread, helper thread,
    /// I/O processor).
    pub fn add_agent(&mut self) -> AgentId {
        let id = AgentId(self.num_agents);
        self.num_agents += 1;
        self.last_task_of_agent.push(None);
        id
    }

    /// Register `n` agents, returning their ids in order.
    pub fn add_agents(&mut self, n: usize) -> Vec<AgentId> {
        (0..n).map(|_| self.add_agent()).collect()
    }

    /// Register a finite-capacity resource (OST, NIC). `capacity` is the
    /// number of tasks that may hold the resource simultaneously.
    pub fn add_resource(&mut self, capacity: usize) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be positive");
        let id = ResourceId(self.resources.len());
        self.resources.push(ResourceState {
            capacity,
            free: capacity,
            queue: VecDeque::new(),
        });
        id
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Capacity a resource was registered with.
    pub fn resource_capacity(&self, r: ResourceId) -> usize {
        self.resources[r.0].capacity
    }

    /// Add a task; returns its id. Dependencies must already exist. An
    /// implicit dependency on the agent's previous task enforces program
    /// order. On error the simulation is unchanged.
    pub fn add_task(&mut self, task: Task) -> Result<TaskId, SimError> {
        let id = self.tasks.len();
        if !(task.service >= 0.0 && task.service.is_finite()) {
            return Err(SimError::BadService(id));
        }
        for &r in &task.resources {
            if r.0 >= self.resources.len() {
                return Err(SimError::UnknownResource(r));
            }
        }
        for &d in &task.deps {
            if d >= id {
                return Err(SimError::UnknownDependency(d));
            }
        }
        assert!(task.agent.0 < self.num_agents, "unknown agent");
        let narrow = |n: usize, what| u32::try_from(n).map_err(|_| SimError::Overflow(what));
        let task_id = narrow(id + 1, StoreLimit::Tasks)? - 1;
        let agent = narrow(task.agent.0, StoreLimit::Agents)?;
        let prev = self.last_task_of_agent[task.agent.0].filter(|p| !task.deps.contains(p));
        let num_deps = task.deps.len() + usize::from(prev.is_some());
        let remaining_deps = narrow(num_deps, StoreLimit::Edges)?;
        narrow(self.edges.len() + num_deps, StoreLimit::Edges)?;
        let mut resources = task.resources;
        resources.sort_unstable();
        resources.dedup();
        if let Some(&last) = resources.last() {
            narrow(last.0, StoreLimit::Resources)?;
        }
        let num_held = u16::try_from(resources.len())
            .map_err(|_| SimError::Overflow(StoreLimit::TaskResources))?;
        let held_start = narrow(self.holdings.len(), StoreLimit::Holdings)?;
        narrow(self.holdings.len() + resources.len(), StoreLimit::Holdings)?;
        let op = PackedOp::pack(task.op)?;

        // Validated: from here on nothing fails.
        self.last_task_of_agent[task.agent.0] = Some(id);
        // Dependency ids are below `id`, so they fit as well.
        for &d in task.deps.iter().chain(&prev) {
            self.edges.push((d as u32, task_id));
        }
        // The largest resource id was checked to fit above.
        self.holdings.extend(resources.iter().map(|r| r.0 as u32));
        self.held.push((held_start, num_held));
        self.ops.push(op);
        self.tasks.push(TaskState {
            service: task.service,
            ready: 0.0,
            start: 0.0,
            agent,
            remaining_deps,
            acquired: 0,
            kind: task.kind,
            state: State::WaitingDeps,
        });
        Ok(id)
    }

    /// Run to completion and return the per-agent phase report. A
    /// simulation runs once.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        let n = self.tasks.len();
        let dependents = Dependents::from_edges(n, &std::mem::take(&mut self.edges));
        let mut events: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq: u32 = 0;
        let mut started: Vec<u32> = Vec::new();

        // Seed: tasks with no dependencies are ready at t = 0. Readiness
        // only moves resources, never dependency counts, so marking while
        // scanning sees the same set a scan-then-mark would.
        for t in 0..n {
            if self.tasks[t].remaining_deps == 0 {
                self.mark_ready(t, 0.0, &mut started);
            }
        }
        events.extend(started.drain(..).map(|t| self.completion(t, 0.0, &mut seq)));

        let mut finished = 0usize;
        let mut makespan = 0.0f64;
        loop {
            let Some(mut top) = events.peek_mut() else {
                break;
            };
            // Task `tid` finishes at `now`, which is its start + service.
            let (now, tid) = (top.time, top.task as usize);
            debug_assert_eq!(self.tasks[tid].state, State::Running);
            self.tasks[tid].state = State::Done;
            makespan = makespan.max(now);
            finished += 1;

            // Release resources and wake queued tasks (FIFO). Waking a
            // waiter never touches the finished task's holdings, and the
            // loop stays allocation-free.
            for i in self.held_range(tid) {
                let r = self.holdings[i] as usize;
                self.resources[r].free += 1;
                loop {
                    let rs = &mut self.resources[r];
                    if rs.free == 0 {
                        break;
                    }
                    let Some(next) = rs.queue.pop_front() else {
                        break;
                    };
                    rs.free -= 1;
                    let next = next as usize;
                    self.tasks[next].acquired += 1;
                    self.try_advance(next, now, &mut started);
                }
            }

            // Notify dependents.
            for &d in dependents.of(tid) {
                let d = d as usize;
                self.tasks[d].remaining_deps -= 1;
                if self.tasks[d].remaining_deps == 0 {
                    self.mark_ready(d, now, &mut started);
                }
            }

            // The first task this completion started takes the completion's
            // place in the heap: one sift instead of a pop and a push. Keys
            // are unique, so the heap pops the same sequence either way.
            let mut newly = started.drain(..);
            match newly.next() {
                Some(first) => {
                    *top = self.completion(first, now, &mut seq);
                    drop(top);
                }
                None => {
                    PeekMut::pop(top);
                }
            }
            events.extend(newly.map(|t| self.completion(t, now, &mut seq)));
        }

        if finished != n {
            return Err(SimError::Stuck {
                unfinished: n - finished,
            });
        }

        let mut agents = vec![AgentReport::default(); self.num_agents];
        let mut resource_busy = vec![0.0; self.resources.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let a = &mut agents[t.agent as usize];
            a.busy.add(t.kind, t.service);
            a.wait += t.start - t.ready;
            a.finish = a.finish.max(t.finish());
            for &r in &self.holdings[self.held_range(i)] {
                resource_busy[r as usize] += t.service;
            }
        }
        Ok(SimReport {
            makespan,
            agents,
            tasks_executed: finished,
            resource_busy,
        })
    }

    /// `(ready, start, finish)` times of a task — valid after [`Simulation::run`].
    pub fn task_times(&self, id: TaskId) -> (f64, f64, f64) {
        let t = &self.tasks[id];
        (t.ready, t.start, t.finish())
    }

    /// Export the run as an execution trace — valid after
    /// [`Simulation::run`]. Every task becomes one span in virtual time
    /// (`Read` → read, `Comm` → send, `Compute` → compute; `Control` tasks
    /// emit no operation span), plus a wait span covering `ready → start`
    /// whenever the task stalled on program order, dependencies or resource
    /// queues. [`SimReport`](crate::SimReport)'s busy/wait totals are exact
    /// projections of these spans: per agent, busy time by kind equals the
    /// span durations by operation and wait time equals the wait-span sum.
    ///
    /// The report already holds those totals, so callers that only need
    /// phase totals or the makespan read the report and skip this call;
    /// the spans are built only here, for callers that want the trace.
    pub fn export_trace(&self, label: &str) -> enkf_trace::Trace {
        use enkf_trace::{Op, Role, Span};
        let mut trace = enkf_trace::Trace::new(label);
        for (i, t) in self.tasks.iter().enumerate() {
            debug_assert_eq!(
                t.state,
                State::Done,
                "export_trace requires a completed run"
            );
            let tag = self.ops[i].unpack();
            let rank = t.agent as usize;
            let role = if tag.io { Role::Io } else { Role::Compute };
            let wait = t.start - t.ready;
            if wait > 0.0 {
                trace.push(Span {
                    rank,
                    role,
                    stage: tag.stage,
                    op: Op::Wait,
                    start: t.ready,
                    dur: wait,
                    bytes: 0,
                    seeks: 0,
                    peer: None,
                    member: None,
                    res: None,
                    tenant: None,
                    job: None,
                });
            }
            let op = match t.kind {
                Kind::Read => Op::Read,
                Kind::Comm => Op::Send,
                Kind::Compute => Op::Compute,
                Kind::Fault => Op::Fault,
                Kind::Control => continue,
            };
            trace.push(Span {
                rank,
                role,
                stage: tag.stage,
                op,
                start: t.start,
                // The service, not `finish - start`: identical by
                // construction, but the service is what busy accounting
                // sums, keeping the projection exact.
                dur: t.service,
                bytes: tag.bytes,
                seeks: tag.seeks,
                peer: tag.peer,
                member: tag.member,
                res: self.holdings[self.held_range(i)]
                    .first()
                    .map(|&r| r as usize),
                tenant: None,
                job: None,
            });
        }
        trace
    }

    /// Where task `tid`'s resources sit in `holdings`.
    fn held_range(&self, tid: usize) -> std::ops::Range<usize> {
        let (start, len) = self.held[tid];
        start as usize..start as usize + usize::from(len)
    }

    fn mark_ready(&mut self, tid: usize, now: f64, started: &mut Vec<u32>) {
        let t = &mut self.tasks[tid];
        debug_assert_eq!(t.state, State::WaitingDeps);
        t.state = State::Acquiring;
        t.ready = now;
        // Acquire the first resource (or start immediately when none).
        self.try_advance(tid, now, started);
    }

    /// Advance a task through its (sorted) resource list. The task has
    /// already acquired `acquired` resources; try to take the rest. Blocks
    /// (enqueues) on the first resource without a free slot. When all
    /// resources are held, records the start time and pushes to `started`.
    fn try_advance(&mut self, tid: usize, now: f64, started: &mut Vec<u32>) {
        let held = self.held_range(tid);
        loop {
            let next_idx = usize::from(self.tasks[tid].acquired);
            if next_idx == held.len() {
                let t = &mut self.tasks[tid];
                t.state = State::Running;
                t.start = now;
                // Task ids were checked to fit when the task was added.
                started.push(tid as u32);
                return;
            }
            let r = self.holdings[held.start + next_idx] as usize;
            let rs = &mut self.resources[r];
            if rs.free > 0 && rs.queue.is_empty() {
                rs.free -= 1;
                self.tasks[tid].acquired += 1;
            } else {
                rs.queue.push_back(tid as u32);
                return;
            }
        }
    }

    /// The completion of `task`, which started at `now`, numbered next in
    /// start order. Its time is the same `start + service` sum
    /// [`TaskState::finish`] derives.
    fn completion(&self, task: u32, now: f64, seq: &mut u32) -> Event {
        let event = Event {
            time: now + self.tasks[task as usize].service,
            seq: *seq,
            task,
        };
        *seq += 1;
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_runs_at_zero() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let t = sim.add_task(Task::new(a, Kind::Compute, 2.5)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 2.5);
        assert_eq!(sim.task_times(t), (0.0, 0.0, 2.5));
        assert_eq!(rep.agents[0].busy.compute, 2.5);
        assert_eq!(rep.agents[0].wait, 0.0);
    }

    #[test]
    fn program_order_serializes_an_agent() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Read, 1.0)).unwrap();
        let t2 = sim.add_task(Task::new(a, Kind::Compute, 2.0)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 3.0);
        assert_eq!(sim.task_times(t1).2, 1.0);
        assert_eq!(sim.task_times(t2).1, 1.0);
    }

    #[test]
    fn independent_agents_run_in_parallel() {
        let mut sim = Simulation::new();
        for _ in 0..4 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Compute, 5.0)).unwrap();
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 5.0);
        assert_eq!(rep.tasks_executed, 4);
    }

    #[test]
    fn explicit_dependency_across_agents() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let b = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Read, 3.0)).unwrap();
        let t2 = sim
            .add_task(Task::new(b, Kind::Compute, 1.0).with_deps(vec![t1]))
            .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(sim.task_times(t2).0, 3.0, "ready when dep finishes");
        assert_eq!(rep.makespan, 4.0);
        assert_eq!(rep.agents[b.0].wait, 0.0, "started as soon as ready");
    }

    #[test]
    fn capacity_one_resource_serializes_contenders() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        for _ in 0..3 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Read, 2.0).with_resources(vec![r]))
                .unwrap();
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 6.0);
        // Total wait = 0 + 2 + 4.
        let wait: f64 = rep.agents.iter().map(|a| a.wait).sum();
        assert_eq!(wait, 6.0);
    }

    #[test]
    fn capacity_two_resource_allows_two_at_once() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(2);
        for _ in 0..4 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Read, 2.0).with_resources(vec![r]))
                .unwrap();
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 4.0);
    }

    #[test]
    fn fifo_order_on_contended_resource() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let a = sim.add_agent();
            ids.push(
                sim.add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![r]))
                    .unwrap(),
            );
        }
        sim.run().unwrap();
        let starts: Vec<f64> = ids.iter().map(|&t| sim.task_times(t).1).collect();
        assert_eq!(starts, vec![0.0, 1.0, 2.0], "grants follow arrival order");
    }

    #[test]
    fn multi_resource_task_holds_both() {
        let mut sim = Simulation::new();
        let r1 = sim.add_resource(1);
        let r2 = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        let c = sim.add_agent();
        // Task A holds both for 2s; B wants r1, C wants r2: both must wait.
        sim.add_task(Task::new(a, Kind::Comm, 2.0).with_resources(vec![r1, r2]))
            .unwrap();
        let tb = sim
            .add_task(Task::new(b, Kind::Read, 1.0).with_resources(vec![r1]))
            .unwrap();
        let tc = sim
            .add_task(Task::new(c, Kind::Read, 1.0).with_resources(vec![r2]))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.task_times(tb).1, 2.0);
        assert_eq!(sim.task_times(tc).1, 2.0);
    }

    #[test]
    fn overlap_io_and_compute_on_separate_agents() {
        // The essence of the multi-stage design: reads for stage l+1 proceed
        // while stage l computes.
        let mut sim = Simulation::new();
        let ost = sim.add_resource(1);
        let io = sim.add_agent();
        let cpu = sim.add_agent();
        let read0 = sim
            .add_task(Task::new(io, Kind::Read, 1.0).with_resources(vec![ost]))
            .unwrap();
        let read1 = sim
            .add_task(Task::new(io, Kind::Read, 1.0).with_resources(vec![ost]))
            .unwrap();
        let _comp0 = sim
            .add_task(Task::new(cpu, Kind::Compute, 1.5).with_deps(vec![read0]))
            .unwrap();
        let comp1 = sim
            .add_task(Task::new(cpu, Kind::Compute, 1.5).with_deps(vec![read1]))
            .unwrap();
        let rep = sim.run().unwrap();
        // read1 (1..2) overlaps comp0 (1..2.5); comp1 runs 2.5..4.
        assert_eq!(sim.task_times(comp1).1, 2.5);
        assert_eq!(rep.makespan, 4.0);
    }

    #[test]
    fn zero_service_barrier() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let b = sim.add_agent();
        let ctrl = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Compute, 1.0)).unwrap();
        let t2 = sim.add_task(Task::new(b, Kind::Compute, 2.0)).unwrap();
        let bar = sim
            .add_task(Task::new(ctrl, Kind::Control, 0.0).with_deps(vec![t1, t2]))
            .unwrap();
        let after = sim
            .add_task(Task::new(a, Kind::Compute, 1.0).with_deps(vec![bar]))
            .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(sim.task_times(after).1, 2.0);
        assert_eq!(rep.makespan, 3.0);
        assert_eq!(
            rep.agents[ctrl.0].busy.total(),
            0.0,
            "control excluded from busy totals"
        );
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let err = sim
            .add_task(Task::new(a, Kind::Compute, 1.0).with_deps(vec![5]))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownDependency(5)));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let err = sim
            .add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![ResourceId(3)]))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownResource(ResourceId(3))));
    }

    #[test]
    fn bad_service_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        assert!(matches!(
            sim.add_task(Task::new(a, Kind::Compute, f64::NAN)),
            Err(SimError::BadService(0))
        ));
        assert!(matches!(
            sim.add_task(Task::new(a, Kind::Compute, -1.0)),
            Err(SimError::BadService(0))
        ));
    }

    #[test]
    fn wait_time_includes_resource_queueing() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.add_task(Task::new(a, Kind::Read, 4.0).with_resources(vec![r]))
            .unwrap();
        let t = sim
            .add_task(Task::new(b, Kind::Read, 1.0).with_resources(vec![r]))
            .unwrap();
        let rep = sim.run().unwrap();
        let (ready, start, finish) = sim.task_times(t);
        assert_eq!(ready, 0.0);
        assert_eq!(start, 4.0);
        assert_eq!(finish, 5.0);
        assert_eq!(rep.agents[b.0].wait, 4.0);
    }

    #[test]
    fn exported_trace_projects_report_exactly() {
        use enkf_trace::OpTag;
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.add_task(
            Task::new(a, Kind::Read, 2.0)
                .with_resources(vec![r])
                .with_op(OpTag {
                    io: true,
                    bytes: 64,
                    seeks: 4,
                    ..OpTag::default()
                }),
        )
        .unwrap();
        sim.add_task(
            Task::new(b, Kind::Read, 1.0)
                .with_resources(vec![r])
                .with_op(OpTag {
                    bytes: 32,
                    seeks: 2,
                    ..OpTag::default()
                }),
        )
        .unwrap();
        sim.add_task(Task::new(b, Kind::Compute, 0.5)).unwrap();
        let rep = sim.run().unwrap();
        let trace = sim.export_trace("unit");
        let phases = trace.per_rank_phases();
        for (agent, report) in rep.agents.iter().enumerate() {
            let p = phases[&agent];
            assert_eq!(p.read, report.busy.read);
            assert_eq!(p.comm, report.busy.comm);
            assert_eq!(p.compute, report.busy.compute);
            assert_eq!(p.wait, report.wait);
        }
        // Rank b queued 2.0s on the disk: a wait span precedes its read.
        assert!(trace
            .spans()
            .iter()
            .any(|s| s.rank == 1 && s.op == enkf_trace::Op::Wait && s.dur == 2.0));
        // Tags survive into spans; the digest sees both reads.
        assert!(trace.digest().contains("role=io"));
        assert!(trace.digest().contains("bytes=32 seeks=2"));
    }

    #[test]
    fn fault_tasks_project_to_fault_spans_and_busy() {
        use enkf_trace::OpTag;
        let mut sim = Simulation::new();
        let ost = sim.add_resource(1);
        let a = sim.add_agent();
        // Failed attempt on the OST, backoff off-resource, then the read.
        sim.add_task(
            Task::new(a, Kind::Fault, 2.0)
                .with_resources(vec![ost])
                .with_op(OpTag {
                    bytes: 64,
                    seeks: 4,
                    member: Some(1),
                    ..OpTag::default()
                }),
        )
        .unwrap();
        sim.add_task(Task::new(a, Kind::Fault, 0.5).with_op(OpTag {
            member: Some(1),
            ..OpTag::default()
        }))
        .unwrap();
        sim.add_task(
            Task::new(a, Kind::Read, 1.0)
                .with_resources(vec![ost])
                .with_op(OpTag {
                    bytes: 64,
                    seeks: 4,
                    member: Some(1),
                    ..OpTag::default()
                }),
        )
        .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 3.5);
        assert_eq!(rep.agents[0].busy.fault, 2.5);
        assert_eq!(rep.agents[0].busy.read, 1.0);
        let trace = sim.export_trace("faulted");
        let p = trace.per_rank_phases()[&0];
        assert_eq!(p.fault, rep.agents[0].busy.fault, "exact projection");
        assert!(trace.digest().contains("op=fault"));
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical runs give identical timings.
        let build = || {
            let mut sim = Simulation::new();
            let r = sim.add_resource(2);
            let mut ids = Vec::new();
            for _ in 0..6 {
                let a = sim.add_agent();
                ids.push(
                    sim.add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![r]))
                        .unwrap(),
                );
            }
            sim.run().unwrap();
            ids.iter().map(|&t| sim.task_times(t)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn too_many_resources_on_one_task_is_a_typed_error() {
        // A task's resource count is kept in 16 bits: 65,536 distinct
        // resources on one task overflow it.
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let res: Vec<_> = (0..=u16::MAX as usize)
            .map(|_| sim.add_resource(1))
            .collect();
        let err = sim
            .add_task(Task::new(a, Kind::Read, 1.0).with_resources(res.clone()))
            .unwrap_err();
        assert_eq!(err, SimError::Overflow(StoreLimit::TaskResources));
        assert_eq!(sim.num_tasks(), 0, "a refused task leaves no trace");
        // One fewer fits, and the refused call left nothing half-added.
        let t = sim
            .add_task(Task::new(a, Kind::Read, 1.0).with_resources(res[1..].to_vec()))
            .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 1.0);
        assert_eq!(sim.task_times(t), (0.0, 0.0, 1.0));
        assert_eq!(rep.resource_busy[0], 0.0);
        assert_eq!(rep.resource_busy[1], 1.0);
    }

    #[test]
    fn hot_task_record_stays_compact() {
        assert_eq!(std::mem::size_of::<TaskState>(), 40);
        assert_eq!(std::mem::size_of::<PackedOp>(), 32);
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn op_index_beyond_32_bits_is_a_typed_error() {
        use enkf_trace::OpTag;
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let tagged = |member| {
            Task::new(a, Kind::Read, 1.0).with_op(OpTag {
                member: Some(member),
                ..OpTag::default()
            })
        };
        // `u32::MAX` is the packed store's "none".
        assert_eq!(
            sim.add_task(tagged(u32::MAX as usize)).unwrap_err(),
            SimError::Overflow(StoreLimit::OpIndex)
        );
        assert_eq!(sim.num_tasks(), 0);
        sim.add_task(tagged(u32::MAX as usize - 1)).unwrap();
        sim.run().unwrap();
        let spans = sim.export_trace("t");
        assert_eq!(spans.spans()[0].member, Some(u32::MAX as usize - 1));
    }

    #[test]
    fn dependents_wake_in_edge_insertion_order() {
        // Three consumers of one producer, added out of agent order, all
        // contend for one slot: the grant order is the order their edges
        // were added.
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let p = sim.add_agent();
        let producer = sim.add_task(Task::new(p, Kind::Compute, 1.0)).unwrap();
        let agents = sim.add_agents(3);
        let ids: Vec<_> = [2, 0, 1]
            .iter()
            .map(|&i| {
                sim.add_task(
                    Task::new(agents[i], Kind::Read, 1.0)
                        .with_resources(vec![r])
                        .with_deps(vec![producer, producer]),
                )
                .unwrap()
            })
            .collect();
        sim.run().unwrap();
        let starts: Vec<f64> = ids.iter().map(|&t| sim.task_times(t).1).collect();
        assert_eq!(starts, vec![1.0, 2.0, 3.0]);
    }
}
