//! Mapping Kahn application graphs onto an Eclipse instance.
//!
//! Paper Figure 3 / Section 3: applications are configured at run time by
//! software — stream buffers are allocated in the shared memory and the
//! shells' stream and task tables are programmed over the PI bus. This
//! module is that configuration step: given an [`AppGraph`] and the set
//! of instantiated coprocessors, it
//!
//! 1. assigns every task to a coprocessor implementing its function
//!    (explicit assignments override the automatic choice),
//! 2. allocates a cyclic buffer per stream from the SRAM,
//! 3. programs one stream-table row per access point, wiring the
//!    `putspace` message routes between shells, and
//! 4. programs the task tables, with space hints and budgets.
//!
//! **Port numbering convention:** a task's shell ports are its graph
//! input ports first (in declaration order), then its output ports. A
//! coprocessor with 2 inputs and 1 output sees ports 0, 1 (inputs) and
//! 2 (output).
//!
//! Step (1) — *placement* — is a pluggable pass behind the [`Placement`]
//! trait. [`FirstFitPlacement`] reproduces the historical first-fit
//! choice byte-for-byte (the default); [`TopologyAwarePlacement`]
//! balances shell load, breaking ties by mesh hop distance between
//! communicating tasks on the active data fabric's [`FabricTopology`].
//! Every stream buffer is aligned to [`BUFFER_ALIGN`].

use std::collections::{BTreeMap, HashMap};

use eclipse_kpn::graph::{AppGraph, StreamId, TaskDecl, TaskId};
use eclipse_mem::alloc::AllocError;
use eclipse_mem::{CyclicBuffer, FabricTopology};
use eclipse_shell::stream_table::{AccessPoint, PortDir, StreamRowConfig};
use eclipse_shell::task_table::TaskConfig;
use eclipse_shell::{RowIdx, TaskIdx};

use crate::coproc::Coprocessor;

/// Buffer alignment for stream buffers in SRAM (one bus word).
pub const BUFFER_ALIGN: u32 = 16;

/// Errors from mapping an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No instantiated coprocessor supports this function.
    NoCoprocessor {
        /// The task that could not be placed.
        task: String,
        /// Its function name.
        function: String,
    },
    /// The SRAM has no room for a stream buffer.
    BufferAlloc {
        /// The stream whose buffer failed to allocate.
        stream: String,
        /// The allocator's diagnosis.
        cause: AllocError,
    },
    /// An explicit assignment names an unknown coprocessor index.
    BadAssignment {
        /// The task with the bad assignment.
        task: String,
        /// The out-of-range coprocessor index.
        coproc: usize,
    },
    /// An explicit assignment placed a task on a coprocessor that does
    /// not implement its function.
    UnsupportedFunction {
        /// The task with the bad assignment.
        task: String,
        /// Its function name.
        function: String,
        /// The assigned coprocessor's name.
        coproc: String,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::NoCoprocessor { task, function } => {
                write!(
                    f,
                    "no coprocessor implements function '{function}' (task '{task}')"
                )
            }
            MapError::BufferAlloc { stream, cause } => {
                write!(f, "cannot allocate buffer for stream '{stream}': {cause}")
            }
            MapError::BadAssignment { task, coproc } => {
                write!(f, "task '{task}' assigned to unknown coprocessor {coproc}")
            }
            MapError::UnsupportedFunction {
                task,
                function,
                coproc,
            } => {
                write!(f, "task '{task}' ('{function}') assigned to coprocessor '{coproc}', which does not implement it")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Handles to a mapped application: where every task landed and where
/// every stream buffer lives. Ordered maps so iteration (reports,
/// debugging dumps) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct AppHandles {
    /// Task instance name → (coprocessor/shell index, shell task id).
    pub tasks: BTreeMap<String, (usize, TaskIdx)>,
    /// Stream name → allocated buffer.
    pub streams: BTreeMap<String, CyclicBuffer>,
}

/// Everything a [`Placement`] pass may consult when assigning the tasks
/// of one application graph to shells.
pub struct PlacementCtx<'a> {
    /// The application being mapped.
    pub graph: &'a AppGraph,
    /// The instantiated coprocessors, indexed by shell id.
    pub coprocs: &'a [Box<dyn Coprocessor>],
    /// Explicit task→shell pins (by task name) that override any
    /// automatic choice. Always validated.
    pub assignments: &'a HashMap<String, usize>,
    /// Static descriptor of the active data fabric.
    pub topology: FabricTopology,
    /// Tasks already resident on each shell (earlier apps), indexed by
    /// shell id.
    pub load: &'a [usize],
}

impl PlacementCtx<'_> {
    /// Validate an explicit assignment for `t`, if one exists.
    fn explicit(&self, t: &TaskDecl) -> Result<Option<usize>, MapError> {
        match self.assignments.get(&t.name) {
            Some(&s) => {
                if s >= self.coprocs.len() {
                    return Err(MapError::BadAssignment {
                        task: t.name.clone(),
                        coproc: s,
                    });
                }
                if !self.coprocs[s].supports(&t.function) {
                    return Err(MapError::UnsupportedFunction {
                        task: t.name.clone(),
                        function: t.function.clone(),
                        coproc: self.coprocs[s].name().to_string(),
                    });
                }
                Ok(Some(s))
            }
            None => Ok(None),
        }
    }
}

/// A placement pass: decides which shell every task of a graph runs on.
/// Pure — reads the [`PlacementCtx`], returns one shell index per task
/// in graph order. Explicit assignments in the context always win; a
/// pass only chooses for the unpinned tasks.
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// Short name for reports ("first-fit", "topology-aware").
    fn kind(&self) -> &'static str;

    /// One shell index per task, in graph task order.
    fn assign(&self, ctx: &PlacementCtx<'_>) -> Result<Vec<usize>, MapError>;
}

/// The historical default: every unpinned task goes to the *first*
/// coprocessor supporting its function, regardless of load or
/// topology. Byte-identical to the pre-trait mapping pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitPlacement;

impl Placement for FirstFitPlacement {
    fn kind(&self) -> &'static str {
        "first-fit"
    }

    fn assign(&self, ctx: &PlacementCtx<'_>) -> Result<Vec<usize>, MapError> {
        let mut assign = Vec::with_capacity(ctx.graph.tasks().len());
        for (_tid, t) in ctx.graph.task_ids() {
            let shell = match ctx.explicit(t)? {
                Some(s) => s,
                None => ctx
                    .coprocs
                    .iter()
                    .position(|c| c.supports(&t.function))
                    .ok_or_else(|| MapError::NoCoprocessor {
                        task: t.name.clone(),
                        function: t.function.clone(),
                    })?,
            };
            assign.push(shell);
        }
        Ok(assign)
    }
}

/// A load-balancing greedy placer with a mesh hop tie-breaker: for each
/// task (in graph order) it scores every supporting shell as
///
/// ```text
/// cost(s) = LOAD_WEIGHT · tasks_on(s)
///         + Σ distance(node(s), node(partner))
/// ```
///
/// where the sum ranges over the already-placed tasks sharing a stream
/// with this one, and `node`/`distance` come from the fabric's
/// [`FabricTopology`] (distance is 0 on flat fabrics, collapsing the
/// pass to load balancing). Lowest cost wins; ties break to the lowest
/// shell index, keeping the pass fully deterministic.
///
/// Load balancing is where the measured win comes from: it is just as
/// large on the distance-free shared bus. The hop term earns its place
/// on the 4x2 mesh only (−3.3% cycles; DESIGN.md §17.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopologyAwarePlacement;

/// Cost per task already resident on a candidate shell, in mesh hops:
/// one more resident task outweighs up to three extra hops.
const LOAD_WEIGHT: u64 = 4;

impl Placement for TopologyAwarePlacement {
    fn kind(&self) -> &'static str {
        "topology-aware"
    }

    fn assign(&self, ctx: &PlacementCtx<'_>) -> Result<Vec<usize>, MapError> {
        // Stream → tasks touching it (graph order), for the hop term.
        let mut touch: BTreeMap<StreamId, Vec<usize>> = BTreeMap::new();
        for (tid, t) in ctx.graph.task_ids() {
            for &sid in t.inputs.iter().chain(t.outputs.iter()) {
                touch.entry(sid).or_default().push(tid.0 as usize);
            }
        }
        let mut load: Vec<u64> = ctx.load.iter().map(|&l| l as u64).collect();
        let mut assign: Vec<usize> = Vec::with_capacity(ctx.graph.tasks().len());
        for (tid, t) in ctx.graph.task_ids() {
            let shell = match ctx.explicit(t)? {
                Some(s) => s,
                None => {
                    let me = tid.0 as usize;
                    let mut best: Option<(u64, usize)> = None;
                    for (s, c) in ctx.coprocs.iter().enumerate() {
                        if !c.supports(&t.function) {
                            continue;
                        }
                        let node = ctx.topology.requester_node(s);
                        let mut cost = LOAD_WEIGHT * load[s];
                        for &sid in t.inputs.iter().chain(t.outputs.iter()) {
                            for &other in &touch[&sid] {
                                if other < me {
                                    let theirs = ctx.topology.requester_node(assign[other]);
                                    cost += ctx.topology.distance(node, theirs);
                                }
                            }
                        }
                        if best.is_none_or(|(bc, _)| cost < bc) {
                            best = Some((cost, s));
                        }
                    }
                    best.ok_or_else(|| MapError::NoCoprocessor {
                        task: t.name.clone(),
                        function: t.function.clone(),
                    })?
                    .1
                }
            };
            load[shell] += 1;
            assign.push(shell);
        }
        Ok(assign)
    }
}

/// The per-access-point row plan produced by [`plan_rows`]: which shell
/// gets which rows, with labels for tracing.
#[derive(Debug)]
pub(crate) struct RowPlan {
    /// Stream rows to program, per shell: (config, label).
    pub rows: Vec<Vec<(StreamRowConfig, String)>>,
    /// Task rows to program, per shell: (graph task, ports, label).
    pub tasks: Vec<Vec<PlannedTask>>,
    /// Buffers allocated per stream (graph order).
    pub buffers: Vec<CyclicBuffer>,
}

#[derive(Debug)]
pub(crate) struct PlannedTask {
    pub graph_task: TaskId,
    pub ports: Vec<RowIdx>,
    pub name: String,
}

/// Compute the complete table-programming plan for `graph`.
///
/// `assign[task] = shell index` for every task (resolved by the builder);
/// `alloc(size)` carves the stream buffers; `next_slot(s)` predicts the row
/// index the next stream-row add on shell `s` will return — successive
/// calls must return successive slots (the builder closes over per-shell
/// append counters; the live path also replays retired-slot free lists,
/// so recycled rows are predicted exactly).
pub(crate) fn plan_rows(
    graph: &AppGraph,
    assign: &[usize],
    n_shells: usize,
    mut next_slot: impl FnMut(usize) -> RowIdx,
    mut alloc: impl FnMut(u32) -> Result<CyclicBuffer, AllocError>,
) -> Result<RowPlan, MapError> {
    let mut buffers = Vec::with_capacity(graph.streams().len());
    for s in graph.streams() {
        let buf = alloc(s.buffer_size).map_err(|cause| MapError::BufferAlloc {
            stream: s.name.clone(),
            cause,
        })?;
        buffers.push(buf);
    }

    // First pass: assign a (shell, row) access point to every port.
    // Row order within a shell follows (task order, inputs then outputs).
    // Ordered maps: stream iteration order never depends on hashing.
    let mut producer_ap: BTreeMap<StreamId, AccessPoint> = BTreeMap::new();
    let mut consumer_aps: BTreeMap<StreamId, Vec<AccessPoint>> = BTreeMap::new();
    let mut port_rows: Vec<Vec<RowIdx>> = Vec::with_capacity(graph.tasks().len());
    for (tid, t) in graph.task_ids() {
        let shell = assign[tid.0 as usize];
        let mut rows = Vec::with_capacity(t.inputs.len() + t.outputs.len());
        for &sid in &t.inputs {
            let row = next_slot(shell);
            rows.push(row);
            consumer_aps.entry(sid).or_default().push(AccessPoint {
                shell: eclipse_shell::ShellId(shell as u16),
                row,
            });
        }
        for &sid in &t.outputs {
            let row = next_slot(shell);
            rows.push(row);
            producer_ap.insert(
                sid,
                AccessPoint {
                    shell: eclipse_shell::ShellId(shell as u16),
                    row,
                },
            );
        }
        port_rows.push(rows);
    }

    // Second pass: emit row configs with remotes resolved.
    let mut rows: Vec<Vec<(StreamRowConfig, String)>> = (0..n_shells).map(|_| Vec::new()).collect();
    let mut tasks: Vec<Vec<PlannedTask>> = (0..n_shells).map(|_| Vec::new()).collect();
    for (tid, t) in graph.task_ids() {
        let shell = assign[tid.0 as usize];
        for (pi, &sid) in t.inputs.iter().enumerate() {
            let s = graph.stream(sid);
            let cfg = StreamRowConfig {
                buffer: buffers[sid.0 as usize],
                dir: PortDir::Consumer,
                remotes: vec![producer_ap[&sid]],
            };
            let label = format!("{}:{}.in{}", s.name, t.name, pi);
            rows[shell].push((cfg, label));
        }
        for (pi, &sid) in t.outputs.iter().enumerate() {
            let s = graph.stream(sid);
            let cfg = StreamRowConfig {
                buffer: buffers[sid.0 as usize],
                dir: PortDir::Producer,
                remotes: consumer_aps[&sid].clone(),
            };
            let label = format!("{}:{}.out{}", s.name, t.name, pi);
            rows[shell].push((cfg, label));
        }
        tasks[shell].push(PlannedTask {
            graph_task: tid,
            ports: port_rows[tid.0 as usize].clone(),
            name: t.name.clone(),
        });
    }
    Ok(RowPlan {
        rows,
        tasks,
        buffers,
    })
}

/// Build the shell [`TaskConfig`] for a planned task given the
/// coprocessor's space hints.
pub(crate) fn task_config(
    planned: &PlannedTask,
    decl: &eclipse_kpn::graph::TaskDecl,
    budget: u64,
    in_hints: Vec<u32>,
    out_hints: Vec<u32>,
) -> TaskConfig {
    let n_ports = planned.ports.len();
    let mut hints = Vec::with_capacity(n_ports);
    for i in 0..decl.inputs.len() {
        hints.push(in_hints.get(i).copied().unwrap_or(0));
    }
    for i in 0..decl.outputs.len() {
        hints.push(out_hints.get(i).copied().unwrap_or(0));
    }
    debug_assert_eq!(hints.len(), n_ports);
    TaskConfig {
        name: planned.name.clone(),
        budget,
        task_info: decl.task_info,
        ports: planned.ports.clone(),
        space_hints: hints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_kpn::GraphBuilder;
    use eclipse_mem::{BufferAllocator, MeshGeometry};

    /// Test stand-in for the builder's append counters: successive slots
    /// per shell starting from `base`.
    fn bump(base: &[u16]) -> impl FnMut(usize) -> RowIdx {
        let mut next = base.to_vec();
        move |s| {
            let r = RowIdx(next[s]);
            next[s] += 1;
            r
        }
    }

    fn simple_graph() -> AppGraph {
        let mut g = GraphBuilder::new("t");
        let a = g.stream("a", 256);
        let b = g.stream("b", 128);
        g.task("src", "gen", 0, &[], &[a]);
        g.task("mid", "map", 0, &[a], &[b]);
        g.task("dst", "collect", 0, &[b], &[]);
        g.build().unwrap()
    }

    #[test]
    fn plans_rows_and_wires_remotes() {
        let g = simple_graph();
        let mut alloc = BufferAllocator::new(0, 4096);
        // src -> shell 0, mid -> shell 1, dst -> shell 0 (multi-tasking).
        let plan = plan_rows(&g, &[0, 1, 0], 2, bump(&[0, 0]), |size| {
            alloc.alloc(size, BUFFER_ALIGN)
        })
        .unwrap();
        // Shell 0 rows: src.out0 (stream a), dst.in0 (stream b).
        assert_eq!(plan.rows[0].len(), 2);
        // Shell 1 rows: mid.in0 (a), mid.out0 (b).
        assert_eq!(plan.rows[1].len(), 2);
        // src.out0's remote must be mid.in0 = shell 1 row 0.
        let (src_out, label) = &plan.rows[0][0];
        assert_eq!(label, "a:src.out0");
        assert_eq!(src_out.dir, PortDir::Producer);
        assert_eq!(
            src_out.remotes,
            vec![AccessPoint {
                shell: eclipse_shell::ShellId(1),
                row: RowIdx(0)
            }]
        );
        // mid.in0's remote is src.out0 = shell 0 row 0.
        let (mid_in, _) = &plan.rows[1][0];
        assert_eq!(mid_in.dir, PortDir::Consumer);
        assert_eq!(
            mid_in.remotes,
            vec![AccessPoint {
                shell: eclipse_shell::ShellId(0),
                row: RowIdx(0)
            }]
        );
        // Buffers are disjoint.
        assert_ne!(plan.buffers[0].base, plan.buffers[1].base);
        // Tasks grouped per shell.
        assert_eq!(plan.tasks[0].len(), 2);
        assert_eq!(plan.tasks[1].len(), 1);
    }

    #[test]
    fn row_base_offsets_multi_app_rows() {
        let g = simple_graph();
        let mut alloc = BufferAllocator::new(0, 4096);
        let plan = plan_rows(&g, &[0, 0, 0], 1, bump(&[5]), |size| {
            alloc.alloc(size, BUFFER_ALIGN)
        })
        .unwrap();
        // With 5 preexisting rows, the first new row is index 5.
        assert_eq!(plan.tasks[0][0].ports, vec![RowIdx(5)]);
    }

    #[test]
    fn forked_stream_gets_all_consumers_as_remotes() {
        let mut g = GraphBuilder::new("fork");
        let s = g.stream("s", 64);
        g.task("p", "gen", 0, &[], &[s]);
        g.task("c1", "collect", 0, &[s], &[]);
        g.task("c2", "collect", 0, &[s], &[]);
        let g = g.build().unwrap();
        let mut alloc = BufferAllocator::new(0, 4096);
        let plan = plan_rows(&g, &[0, 1, 1], 2, bump(&[0, 0]), |size| {
            alloc.alloc(size, BUFFER_ALIGN)
        })
        .unwrap();
        let (p_out, _) = &plan.rows[0][0];
        assert_eq!(p_out.remotes.len(), 2);
    }

    #[test]
    fn alloc_failure_is_reported_with_stream_name() {
        let g = simple_graph();
        let mut alloc = BufferAllocator::new(0, 100); // too small
        let err = plan_rows(&g, &[0, 0, 0], 1, bump(&[0]), |size| {
            alloc.alloc(size, BUFFER_ALIGN)
        })
        .unwrap_err();
        match err {
            MapError::BufferAlloc { stream, .. } => assert_eq!(stream, "a"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn task_config_combines_hints_in_port_order() {
        let g = simple_graph();
        let decl = g.task(g.task_by_name("mid").unwrap());
        let planned = PlannedTask {
            graph_task: TaskId(1),
            ports: vec![RowIdx(0), RowIdx(1)],
            name: "mid".into(),
        };
        let cfg = task_config(&planned, decl, 1000, vec![128], vec![64]);
        assert_eq!(cfg.space_hints, vec![128, 64]);
        assert_eq!(cfg.budget, 1000);
    }

    /// Minimal coprocessor stand-in for placement tests: a name and a
    /// supported-function list, never stepped.
    #[derive(Debug)]
    struct StubCoproc(&'static str);

    impl Coprocessor for StubCoproc {
        fn name(&self) -> &str {
            self.0
        }
        fn supports(&self, function: &str) -> bool {
            function == "f"
        }
        fn configure_task(
            &mut self,
            _task: TaskIdx,
            _decl: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (Vec::new(), Vec::new())
        }
        fn step(
            &mut self,
            _task: TaskIdx,
            _task_info: u32,
            _ctx: &mut crate::coproc::StepCtx<'_>,
        ) -> crate::coproc::StepResult {
            unreachable!("placement tests never run tasks")
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn stubs(n: usize) -> Vec<Box<dyn Coprocessor>> {
        (0..n)
            .map(|_| Box::new(StubCoproc("stub")) as Box<dyn Coprocessor>)
            .collect()
    }

    /// `src → mid → dst`, every task function "f".
    fn shared_fn_chain() -> AppGraph {
        let mut g = GraphBuilder::new("chain");
        let a = g.stream("a", 256);
        let b = g.stream("b", 128);
        g.task("src", "f", 0, &[], &[a]);
        g.task("mid", "f", 0, &[a], &[b]);
        g.task("dst", "f", 0, &[b], &[]);
        g.build().unwrap()
    }

    fn ctx<'a>(
        graph: &'a AppGraph,
        coprocs: &'a [Box<dyn Coprocessor>],
        assignments: &'a HashMap<String, usize>,
        topology: FabricTopology,
        load: &'a [usize],
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            graph,
            coprocs,
            assignments,
            topology,
            load,
        }
    }

    #[test]
    fn first_fit_piles_shared_functions_onto_shell_zero() {
        let g = shared_fn_chain();
        let cp = stubs(3);
        let none = HashMap::new();
        let c = ctx(&g, &cp, &none, FabricTopology::default(), &[0; 3]);
        assert_eq!(FirstFitPlacement.assign(&c).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn topology_aware_balances_load_without_a_mesh() {
        // Distance-free topology: the hop term vanishes and the pass
        // reduces to deterministic load balancing.
        let g = shared_fn_chain();
        let cp = stubs(2);
        let none = HashMap::new();
        let c = ctx(&g, &cp, &none, FabricTopology::default(), &[0; 2]);
        let p = TopologyAwarePlacement;
        assert_eq!(p.assign(&c).unwrap(), vec![0, 1, 0]);
        // Pre-existing load (2 resident tasks on shell 0) tips the
        // first two choices to the idle shell, then ties break low.
        let c = ctx(&g, &cp, &none, FabricTopology::default(), &[2, 0]);
        assert_eq!(p.assign(&c).unwrap(), vec![1, 1, 0]);
    }

    #[test]
    fn topology_aware_keeps_partners_near_on_a_mesh() {
        let g = shared_fn_chain();
        let cp = stubs(4);
        let none = HashMap::new();
        let topo = FabricTopology {
            mesh: Some(MeshGeometry::new(2, 2)),
        };
        let c = ctx(&g, &cp, &none, topo, &[0; 4]);
        let assign = TopologyAwarePlacement.assign(&c).unwrap();
        // src → node 0; mid prefers the adjacent idle node 1; dst then
        // prefers node 3 (1 hop from mid) over node 2 (2 hops).
        assert_eq!(assign, vec![0, 1, 3]);
        // Every stream crosses exactly one mesh link.
        for w in assign.windows(2) {
            assert_eq!(
                topo.distance(topo.requester_node(w[0]), topo.requester_node(w[1])),
                1
            );
        }
    }

    #[test]
    fn placement_validates_explicit_assignments() {
        let g = shared_fn_chain();
        let cp = stubs(2);
        let pins = HashMap::from([("mid".to_string(), 1usize)]);
        let c = ctx(&g, &cp, &pins, FabricTopology::default(), &[0; 2]);
        assert_eq!(FirstFitPlacement.assign(&c).unwrap(), vec![0, 1, 0]);
        let bad = HashMap::from([("mid".to_string(), 9usize)]);
        let c = ctx(&g, &cp, &bad, FabricTopology::default(), &[0; 2]);
        match TopologyAwarePlacement.assign(&c).unwrap_err() {
            MapError::BadAssignment { task, coproc } => {
                assert_eq!(task, "mid");
                assert_eq!(coproc, 9);
            }
            other => panic!("{other:?}"),
        }
    }
}
