//! System construction: [`SystemBuilder`], build-time application
//! mapping, and the shared plan-installation path used by both
//! build-time and live admission.

use std::collections::HashMap;

use eclipse_kpn::graph::AppGraph;
use eclipse_mem::alloc::AllocError;
use eclipse_mem::{BufferAllocator, Bus, DataFabricConfig, Dram, FabricTopology};
use eclipse_shell::stream_table::RowIdx;
use eclipse_shell::task_table::TaskIdx;
use eclipse_shell::{MemSys, Shell, ShellConfig, ShellId};
use eclipse_sim::stats::{Histogram, Utilization};
use eclipse_sim::Calendar;

use crate::config::EclipseConfig;
use crate::coproc::Coprocessor;
use crate::mapping::{
    plan_rows, task_config, AppHandles, FirstFitPlacement, MapError, Placement, PlacementCtx,
    RowPlan, BUFFER_ALIGN,
};
use crate::trace::TraceLog;

use super::lifecycle::AppRecord;
use super::{AppState, CpuSyncConfig, EclipseSystem, PendingSyncs};

/// Overflow-checked bump allocation: round `next` up to `align`, advance
/// past `size` bytes, and check against a `capacity` ceiling. Returns
/// `(base, new_next)`.
pub(crate) fn checked_bump(
    next: u32,
    size: u32,
    align: u32,
    capacity: u32,
) -> Result<(u32, u32), AllocError> {
    assert!(align.is_power_of_two());
    let base = (next as u64 + align as u64 - 1) & !(align as u64 - 1);
    let end = base + size as u64;
    if end > u32::MAX as u64 {
        return Err(AllocError::AddressOverflow { requested: size });
    }
    if end > capacity as u64 {
        return Err(AllocError::OutOfMemory {
            requested: size,
            largest_free: capacity.saturating_sub(next),
        });
    }
    Ok((base as u32, end as u32))
}

/// Resolve a shell assignment for every task of `graph` through the
/// active [`Placement`] pass, with explicit assignments (validated)
/// always overriding the automatic choice. `shells` supplies the
/// current per-shell task load; `topology` describes the active data
/// fabric.
pub(crate) fn resolve_assignments(
    placement: &dyn Placement,
    coprocs: &[Box<dyn Coprocessor>],
    shells: &[Shell],
    topology: FabricTopology,
    graph: &AppGraph,
    assignments: &HashMap<String, usize>,
) -> Result<Vec<usize>, MapError> {
    let load: Vec<usize> = shells.iter().map(|sh| sh.tasks().len()).collect();
    let ctx = PlacementCtx {
        graph,
        coprocs,
        assignments,
        topology,
        load: &load,
    };
    let assign = placement.assign(&ctx)?;
    debug_assert_eq!(assign.len(), graph.tasks().len());
    debug_assert!(assign.iter().all(|&s| s < coprocs.len()));
    Ok(assign)
}

/// Program a computed [`RowPlan`] into the shells: stream rows first
/// (recycling retired slots, with the labels updated in place), then the
/// task tables. Shared by build-time mapping and live admission — the
/// build path sees empty free lists, so its behavior is unchanged.
#[allow(clippy::type_complexity)]
pub(crate) fn install_plan(
    shells: &mut [Shell],
    row_labels: &mut [Vec<String>],
    coprocs: &mut [Box<dyn Coprocessor>],
    default_budget: u64,
    graph: &AppGraph,
    plan: &RowPlan,
) -> (AppHandles, Vec<(usize, RowIdx)>, Vec<(usize, TaskIdx)>) {
    let mut app_rows = Vec::new();
    let mut app_tasks = Vec::new();
    for (shell_idx, rows) in plan.rows.iter().enumerate() {
        for (cfg, label) in rows {
            let idx = shells[shell_idx].add_stream_row(cfg.clone());
            let slot = idx.0 as usize;
            if slot < row_labels[shell_idx].len() {
                row_labels[shell_idx][slot] = label.clone();
            } else {
                debug_assert_eq!(slot, row_labels[shell_idx].len());
                row_labels[shell_idx].push(label.clone());
            }
            app_rows.push((shell_idx, idx));
        }
    }
    let mut handles = AppHandles::default();
    for (shell_idx, tasks) in plan.tasks.iter().enumerate() {
        for planned in tasks {
            let decl = graph.task(planned.graph_task);
            // Pre-assign the shell task id (append or recycled slot) so
            // the coprocessor can key its per-task state by it.
            let task_idx = shells[shell_idx].next_task_slot();
            let (in_hints, out_hints) = coprocs[shell_idx].configure_task(task_idx, decl);
            let cfg = task_config(planned, decl, default_budget, in_hints, out_hints);
            let actual = shells[shell_idx].add_task(cfg);
            debug_assert_eq!(actual, task_idx);
            handles
                .tasks
                .insert(decl.name.clone(), (shell_idx, task_idx));
            app_tasks.push((shell_idx, task_idx));
        }
    }
    for (sid, s) in graph.stream_ids() {
        handles
            .streams
            .insert(s.name.clone(), plan.buffers[sid.0 as usize]);
    }
    (handles, app_rows, app_tasks)
}

/// Builds an [`EclipseSystem`]: instantiate coprocessors, map
/// applications, then [`SystemBuilder::build`].
pub struct SystemBuilder {
    cfg: EclipseConfig,
    coprocs: Vec<Box<dyn Coprocessor>>,
    shells: Vec<Shell>,
    shell_names: Vec<String>,
    row_labels: Vec<Vec<String>>,
    alloc: BufferAllocator,
    dram_next: u32,
    cpu_sync: Option<CpuSyncConfig>,
    apps: HashMap<String, AppRecord>,
    data_fabric: Option<DataFabricConfig>,
    placement: Box<dyn Placement>,
}

impl SystemBuilder {
    /// Start building an instance with the given template parameters.
    pub fn new(cfg: EclipseConfig) -> Self {
        SystemBuilder {
            alloc: BufferAllocator::new(0, cfg.sram.size),
            cfg,
            coprocs: Vec::new(),
            shells: Vec::new(),
            shell_names: Vec::new(),
            row_labels: Vec::new(),
            dram_next: 0,
            cpu_sync: None,
            apps: HashMap::new(),
            data_fabric: None,
            placement: Box::new(FirstFitPlacement),
        }
    }

    /// Instantiate a coprocessor with the default shell parameters.
    /// Returns its index (also its shell id).
    pub fn add_coprocessor(&mut self, coproc: Box<dyn Coprocessor>) -> usize {
        let shell_cfg = self.cfg.shell;
        self.add_coprocessor_with_shell(coproc, shell_cfg)
    }

    /// Instantiate a coprocessor with shell-specific parameters (e.g. the
    /// media processor's software shell with higher handshake costs).
    pub fn add_coprocessor_with_shell(
        &mut self,
        coproc: Box<dyn Coprocessor>,
        shell_cfg: ShellConfig,
    ) -> usize {
        let idx = self.coprocs.len();
        self.shells.push(Shell::new(ShellId(idx as u16), shell_cfg));
        self.shell_names.push(coproc.name().to_string());
        self.row_labels.push(Vec::new());
        self.coprocs.push(coproc);
        idx
    }

    /// Enable the CPU-centric synchronization baseline (experiment E10).
    pub fn with_cpu_sync(&mut self, cfg: CpuSyncConfig) -> &mut Self {
        self.cpu_sync = Some(cfg);
        self
    }

    /// Select the shell↔SRAM data-transport fabric. The default is the
    /// paper instance's shared read/write bus pair built from
    /// `cfg.read_bus` / `cfg.write_bus` (timing-identical to the
    /// pre-fabric model); the private-port and mesh fabrics give every
    /// shell its own port into the SRAM.
    pub fn with_data_fabric(&mut self, fabric: DataFabricConfig) -> &mut Self {
        self.data_fabric = Some(fabric);
        self
    }

    /// Select the placement pass that assigns tasks to shells during
    /// mapping (build-time and live). The default is
    /// [`FirstFitPlacement`] — byte-identical to the historical
    /// hard-wired choice. Select it *before* mapping apps; it does not
    /// re-place apps that are already mapped.
    pub fn with_placement(&mut self, placement: Box<dyn Placement>) -> &mut Self {
        self.placement = placement;
        self
    }

    /// The topology descriptor the active (or default) data fabric
    /// publishes — what the placement pass will read.
    pub fn topology(&self) -> FabricTopology {
        self.data_fabric
            .map_or_else(FabricTopology::default, |f| f.topology())
    }

    /// Reserve `size` bytes of off-chip memory (bitstreams, frame
    /// stores). A simple bump allocator — off-chip layout is static per
    /// experiment. Panics on exhaustion; see
    /// [`SystemBuilder::try_dram_alloc`] for the fallible form.
    pub fn dram_alloc(&mut self, size: u32, align: u32) -> u32 {
        let capacity = self.cfg.dram.size;
        match self.try_dram_alloc(size, align) {
            Ok(base) => base,
            Err(e) => panic!("off-chip memory exhausted: {e} (capacity {capacity})"),
        }
    }

    /// Fallible off-chip reservation: reports exhaustion and 32-bit
    /// address-space overflow in the `(next + align - 1)` round-up as
    /// typed errors instead of wrapping or panicking.
    pub fn try_dram_alloc(&mut self, size: u32, align: u32) -> Result<u32, AllocError> {
        let (base, next) = checked_bump(self.dram_next, size, align, self.cfg.dram.size)?;
        self.dram_next = next;
        Ok(base)
    }

    /// Map an application graph, assigning every task to the first
    /// coprocessor that supports its function.
    pub fn map_app(&mut self, graph: &AppGraph) -> Result<AppHandles, MapError> {
        self.map_app_with(graph, &std::collections::HashMap::new())
    }

    /// Map an application graph with explicit task→coprocessor
    /// assignments (by task name) overriding the automatic choice.
    pub fn map_app_with(
        &mut self,
        graph: &AppGraph,
        assignments: &std::collections::HashMap<String, usize>,
    ) -> Result<AppHandles, MapError> {
        let assign = resolve_assignments(
            self.placement.as_ref(),
            &self.coprocs,
            &self.shells,
            self.topology(),
            graph,
            assignments,
        )?;

        // Build-time mapping only ever appends rows (nothing has been
        // retired yet), so slot prediction is a plain per-shell counter.
        let mut next_row: Vec<u16> = self.shells.iter().map(|s| s.rows().len() as u16).collect();
        let alloc = &mut self.alloc;
        let plan = plan_rows(
            graph,
            &assign,
            self.shells.len(),
            |s| {
                let r = RowIdx(next_row[s]);
                next_row[s] += 1;
                r
            },
            |size| alloc.alloc(size, BUFFER_ALIGN),
        )?;

        let (handles, rows, tasks) = install_plan(
            &mut self.shells,
            &mut self.row_labels,
            &mut self.coprocs,
            self.cfg.default_budget,
            graph,
            &plan,
        );
        // Register the app so a built system can pause/drain/unmap it
        // exactly like a live-mapped one.
        self.apps.insert(
            graph.name.clone(),
            AppRecord {
                state: AppState::Running,
                tasks,
                rows,
                buffers: plan.buffers.clone(),
            },
        );
        Ok(handles)
    }

    /// Override one task's scheduler budget (by its handles entry).
    pub fn set_budget(&mut self, handles: &AppHandles, task_name: &str, budget: u64) {
        let &(shell, task) = handles.tasks.get(task_name).expect("unknown task");
        // Rebuild the task row's budget in place.
        let shell = &mut self.shells[shell];
        // TaskRow exposes cfg publicly via tasks(); mutate through a
        // dedicated setter to keep the borrow simple.
        shell.set_task_budget(task, budget);
    }

    /// Finish construction.
    pub fn build(self) -> EclipseSystem {
        let n = self.coprocs.len();
        let data = self.data_fabric.unwrap_or(DataFabricConfig::SharedBus {
            read: self.cfg.read_bus,
            write: self.cfg.write_bus,
        });
        EclipseSystem {
            mem: MemSys::with_fabric(self.cfg.sram, data),
            dram: Dram::new(self.cfg.dram),
            system_bus: Bus::new("system", self.cfg.system_bus),
            cfg: self.cfg,
            coprocs: self.coprocs,
            shells: self.shells,
            shell_names: self.shell_names,
            row_labels: self.row_labels,
            alloc: self.alloc,
            dram_next: self.dram_next,
            apps: self.apps,
            pending_syncs: PendingSyncs::new(n),
            started: false,
            cal: Calendar::new(),
            step_msgs: Vec::new(),
            sample_name: String::new(),
            idle_since: vec![None; n],
            utilization: vec![Utilization::default(); n],
            trace: TraceLog::new(),
            trace_sink: None,
            sys_trace: None,
            sync_latency: Histogram::new(24),
            cpu_sync: self.cpu_sync,
            cpu_next_free: 0,
            cpu_sync_busy: 0,
            sync_messages: 0,
            pi_accesses: 0,
            pi_next_free: 0,
            pi_busy_cycles: 0,
            fault: None,
            watchdog_cycles: None,
            last_progress: 0,
            credit_check: false,
            in_flight: HashMap::new(),
            credits_lost: HashMap::new(),
            recovery_log: Vec::new(),
            placement: self.placement,
        }
    }
}
