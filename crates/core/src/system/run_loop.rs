//! The discrete-event loop: coprocessor steps, `putspace` delivery,
//! sampling, deadlock diagnosis, and the credit-conservation checker.

use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx};
use eclipse_shell::task_table::TaskIdx;
use eclipse_shell::{GetTaskResult, ShellId};
use eclipse_sim::trace::TraceEventKind;
use eclipse_sim::{Cycle, SyncAction};

use crate::coproc::{StepCtx, StepResult};

use super::wedge::{StreamSpaceView, WedgeDiagnosis, WedgeReason};
use super::{event_key, EclipseSystem, Event, RunOutcome, RunSummary};

impl EclipseSystem {
    /// Schedule `ev` at absolute `time` under its content key (see
    /// [`event_key`]) — the only way the run loop ever inserts events,
    /// so every run pops in one content-defined total order.
    #[inline]
    pub(crate) fn schedule_event(&mut self, time: Cycle, ev: Event) {
        self.cal.schedule_keyed_at(time, event_key(&ev), ev);
    }

    /// Schedule the kickoff events (one step per shell, the sampler, and
    /// the RunStart mark) exactly once per system lifetime; resumed runs
    /// continue from the live calendar instead.
    pub(crate) fn kickoff(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let t0 = self.cal.now();
        for s in 0..self.shells.len() {
            self.schedule_event(t0, Event::Step(s));
        }
        self.schedule_event(t0 + self.cfg.sample_interval, Event::Sample);
        if let Some(t) = &self.sys_trace {
            t.emit(t0, TraceEventKind::RunStart);
        }
    }

    /// Process one popped calendar event (shared by [`EclipseSystem::run`],
    /// [`EclipseSystem::run_until`], and the drain pump).
    pub(crate) fn handle_event(&mut self, now: Cycle, ev: Event) {
        match ev {
            Event::Step(s) => self.do_step(s, now),
            Event::Sync(msg) => {
                let dst = msg.dst.shell.0 as usize;
                self.pending_syncs.dec(dst, msg.dst.row.0);
                self.sync_messages += 1;
                let latency = now.saturating_sub(msg.send_at);
                self.sync_latency.record(latency);
                if let Some(t) = &self.sys_trace {
                    t.emit(
                        now,
                        TraceEventKind::SyncDeliver {
                            bytes: msg.bytes,
                            latency,
                        },
                    );
                }
                // The delivery may unblock a task or satisfy a space
                // hint; an idle shell re-evaluates its scheduler on
                // every message (spurious wakeups just re-idle).
                if self.credit_check {
                    let slot = self.in_flight.entry((msg.dst, msg.src)).or_insert(0);
                    *slot = slot.saturating_sub(msg.bytes as u64);
                }
                self.shells[dst].deliver_putspace(&msg, now);
                self.wake(dst, now);
            }
            Event::Sample => {
                self.sample(now);
                if let Some(t) = &self.sys_trace {
                    t.emit(now, TraceEventKind::Sample);
                }
                // Keep sampling while anything can still happen.
                if !self.cal.is_empty() {
                    self.schedule_event(now + self.cfg.sample_interval, Event::Sample);
                }
            }
        }
    }

    /// Advance the simulation until `stop_at` (inclusive), every task
    /// finishing, or deadlock. Returns `None` when the stop time was
    /// reached with events still pending — the caller may reconfigure
    /// (map/pause/drain/unmap apps) and resume with another
    /// `run_until` or a final [`EclipseSystem::run`], which also
    /// produces the summary. Unlike `run`, the event at the stop
    /// boundary is left in the calendar, not discarded.
    pub fn run_until(&mut self, stop_at: Cycle) -> Option<RunOutcome> {
        self.kickoff();
        loop {
            if self.shells.iter().all(|sh| sh.all_tasks_finished()) {
                return Some(RunOutcome::AllFinished);
            }
            match self.cal.peek_time() {
                None => return Some(RunOutcome::Deadlock(self.blocked_tasks())),
                Some(t) if t > stop_at => return None,
                Some(_) => {
                    let (now, ev) = self.cal.pop().expect("peeked event");
                    self.handle_event(now, ev);
                    if self.credit_check {
                        self.verify_credits(now);
                    }
                    if let Some(k) = self.watchdog_cycles {
                        if now.saturating_sub(self.last_progress) > k {
                            return Some(RunOutcome::Deadlock(self.blocked_tasks()));
                        }
                    }
                }
            }
        }
    }

    /// Run until every task finishes, deadlock, or `max_cycles`.
    pub fn run(&mut self, max_cycles: Cycle) -> RunSummary {
        // Kick off: one step event per shell, plus the sampler.
        self.kickoff();

        let mut outcome = RunOutcome::MaxCycles;
        while let Some((now, ev)) = self.cal.pop() {
            if now > max_cycles {
                outcome = RunOutcome::MaxCycles;
                break;
            }
            self.handle_event(now, ev);
            if self.credit_check {
                self.verify_credits(now);
            }
            if self.shells.iter().all(|sh| sh.all_tasks_finished()) {
                outcome = RunOutcome::AllFinished;
                break;
            }
            if self.cal.is_empty() {
                outcome = RunOutcome::Deadlock(self.blocked_tasks());
                break;
            }
            if let Some(k) = self.watchdog_cycles {
                if now.saturating_sub(self.last_progress) > k {
                    outcome = RunOutcome::Deadlock(self.blocked_tasks());
                    break;
                }
            }
        }
        self.finish_run(outcome)
    }

    /// Assert the credit-conservation invariant on every
    /// producer→consumer link (see [`EclipseSystem::enable_credit_check`]).
    pub(crate) fn verify_credits(&self, now: Cycle) {
        for (s, shell) in self.shells.iter().enumerate() {
            for (r, row) in shell.rows().iter().enumerate() {
                if row.dir != PortDir::Producer || row.retired {
                    continue;
                }
                let prod = AccessPoint {
                    shell: ShellId(s as u16),
                    row: RowIdx(r as u16),
                };
                let cap = row.buffer.size as u64;
                for (ci, remote) in row.remotes.iter().enumerate() {
                    let cons = &self.shells[remote.shell.0 as usize].rows()[remote.row.0 as usize];
                    let p_view = row.space_toward(ci) as u64;
                    let c_view = cons.space_toward(0) as u64;
                    let fly = self.in_flight.get(&(*remote, prod)).copied().unwrap_or(0)
                        + self.in_flight.get(&(prod, *remote)).copied().unwrap_or(0);
                    let lost = self
                        .credits_lost
                        .get(&(*remote, prod))
                        .copied()
                        .unwrap_or(0)
                        + self
                            .credits_lost
                            .get(&(prod, *remote))
                            .copied()
                            .unwrap_or(0);
                    assert_eq!(
                        p_view + c_view + fly + lost,
                        cap,
                        "credit conservation violated at cycle {now} on {}: \
                         producer view {p_view} + consumer view {c_view} + \
                         in-flight {fly} + lost {lost} != capacity {cap}",
                        self.row_labels[s][r]
                    );
                }
            }
        }
    }

    pub(crate) fn blocked_tasks(&self) -> Vec<WedgeDiagnosis> {
        let mut out = Vec::new();
        for (s, shell) in self.shells.iter().enumerate() {
            for (ti, t) in shell.tasks().iter().enumerate() {
                if t.retired || t.finished {
                    continue;
                }
                let view = |ri: RowIdx| {
                    let row = &shell.rows()[ri.0 as usize];
                    StreamSpaceView {
                        label: self.row_labels[s][ri.0 as usize].clone(),
                        space: row.effective_space(),
                        capacity: row.buffer.size,
                    }
                };
                let reason = if !t.enabled {
                    // Paused (or admin-disabled) tasks are not deadlock
                    // suspects, but they explain why a drain stalls.
                    WedgeReason::Paused
                } else {
                    match t.blocked_on {
                        // Name the stream and show the local space view so
                        // a deadlock diagnosis pinpoints the starved link.
                        Some((port, n)) => WedgeReason::BlockedOnPort {
                            port,
                            needed: n,
                            stream: t.cfg.ports.get(port as usize).map(|&ri| view(ri)),
                        },
                        // Never denied a GetSpace, but the best-guess
                        // scheduler may be gating the task on an unmet
                        // space hint — diagnose the starved port anyway.
                        None => match t.cfg.ports.iter().zip(&t.cfg.space_hints).enumerate().find(
                            |(_, (&row, &hint))| {
                                hint != 0 && shell.rows()[row.0 as usize].effective_space() < hint
                            },
                        ) {
                            Some((port, (&ri, &hint))) => WedgeReason::HintStarved {
                                port: port as u8,
                                hint,
                                stream: view(ri),
                            },
                            None => WedgeReason::Starved,
                        },
                    }
                };
                out.push(WedgeDiagnosis {
                    shell: s,
                    task: TaskIdx(ti as u8),
                    task_name: t.cfg.name.clone(),
                    reason,
                });
            }
        }
        out
    }

    pub(crate) fn wake(&mut self, s: usize, now: Cycle) {
        if let Some(since) = self.idle_since[s].take() {
            self.utilization[s].idle += now - since;
            self.schedule_event(now, Event::Step(s));
        }
    }

    fn do_step(&mut self, s: usize, now: Cycle) {
        match self.shells[s].get_task(now) {
            GetTaskResult::Idle => {
                if self.idle_since[s].is_none() {
                    self.idle_since[s] = Some(now);
                }
            }
            GetTaskResult::Run {
                task,
                info,
                switched,
            } => {
                let shell_cfg = self.shells[s].cfg;
                let initial = shell_cfg.gettask_cost
                    + if switched {
                        shell_cfg.task_switch_penalty
                    } else {
                        0
                    };
                // The step appends its putspace messages to the system's
                // reusable buffer, which is drained below and kept.
                let mut msgs = std::mem::take(&mut self.step_msgs);
                let mut ctx = StepCtx::new(
                    &mut self.shells[s],
                    &mut self.mem,
                    &mut self.dram,
                    &mut self.system_bus,
                    task,
                    now,
                    initial,
                    self.fault.as_mut(),
                    &mut msgs,
                );
                let result = self.coprocs[s].step(task, info, &mut ctx);
                let (cost, stall, put_called) = ctx.finish();
                let mut cost = cost.max(1); // forbid zero-cost livelock
                let mut stall = stall;
                // Injected coprocessor stall: the unit freezes mid-step.
                if let Some(inj) = &mut self.fault {
                    let extra = inj.step_stall(s);
                    if extra > 0 {
                        cost += extra;
                        stall += extra;
                        if let Some(t) = &self.sys_trace {
                            t.emit_with(now, |sink| TraceEventKind::Fault {
                                class: sink.intern("stall"),
                                magnitude: extra,
                            });
                        }
                    }
                }
                if put_called || matches!(result, StepResult::Finished) {
                    self.last_progress = now + cost;
                }
                self.shells[s].charge(task, cost);
                let step_stall = match result {
                    StepResult::Blocked => cost,
                    _ => stall.min(cost),
                };
                if let Some(tr) = self.shells[s].trace_handle() {
                    let name = self.shells[s].tasks()[task.0 as usize].cfg.name.clone();
                    tr.emit_with(now, |sink| TraceEventKind::Step {
                        task: sink.intern(&name),
                        busy: cost - step_stall,
                        stall: step_stall,
                    });
                }
                match result {
                    StepResult::Done => {
                        self.shells[s].note_step(task, false);
                        self.utilization[s].busy += cost - stall;
                        self.utilization[s].stalled += stall;
                    }
                    StepResult::Blocked => {
                        self.shells[s].note_step(task, true);
                        self.utilization[s].stalled += cost;
                    }
                    StepResult::Finished => {
                        self.shells[s].note_step(task, false);
                        self.utilization[s].busy += cost - stall;
                        self.utilization[s].stalled += stall;
                        self.shells[s].finish_task(task);
                    }
                }
                // Dispatch putspace messages over the sync network (or
                // through the CPU in the E10 baseline, reached over the
                // same network). An active fault injector may drop or
                // delay individual messages.
                let sync_latency = shell_cfg.sync_latency;
                for mut msg in msgs.drain(..) {
                    let mut extra_delay = 0u64;
                    if let Some(inj) = &mut self.fault {
                        // Keyed by the *sender* shell: the dice for a
                        // message are rolled where it originates, on that
                        // shell's own fault lane.
                        match inj.sync_action(msg.src.shell.0 as usize, msg.bytes) {
                            SyncAction::Deliver => {}
                            SyncAction::Delay(d) => {
                                extra_delay = d;
                                if let Some(t) = &self.sys_trace {
                                    t.emit_with(now, |sink| TraceEventKind::Fault {
                                        class: sink.intern("sync_delay"),
                                        magnitude: d,
                                    });
                                }
                            }
                            SyncAction::Drop => {
                                if let Some(t) = &self.sys_trace {
                                    t.emit_with(now, |sink| TraceEventKind::Fault {
                                        class: sink.intern("sync_drop"),
                                        magnitude: msg.bytes as u64,
                                    });
                                }
                                if self.credit_check {
                                    *self.credits_lost.entry((msg.dst, msg.src)).or_insert(0) +=
                                        msg.bytes as u64;
                                }
                                continue;
                            }
                        }
                    }
                    // The paper's message network charges a flat
                    // per-message latency (Section 5.1). The CPU-centric
                    // baseline routes the message to the CPU first,
                    // serializes through its service loop, then pays the
                    // network latency once more for the forwarded message.
                    let routed = msg.send_at.max(now) + sync_latency;
                    let arrive = match self.cpu_sync {
                        None => routed,
                        Some(cpu) => {
                            let start = routed.max(self.cpu_next_free);
                            self.cpu_next_free = start + cpu.service_cycles;
                            self.cpu_sync_busy += cpu.service_cycles;
                            start + cpu.service_cycles + sync_latency
                        }
                    } + extra_delay;
                    if self.credit_check {
                        *self.in_flight.entry((msg.dst, msg.src)).or_insert(0) += msg.bytes as u64;
                    }
                    // Stamp the destination row's current generation so the
                    // receiver can reject the message if the row is retired
                    // and recycled while this sync is in flight. The sender
                    // can't know this (hardware shells don't either) — the
                    // sync network stamps at injection time.
                    msg.dst_gen = self.shells[msg.dst.shell.0 as usize].row_generation(msg.dst.row);
                    self.pending_syncs
                        .add(msg.dst.shell.0 as usize, msg.dst.row.0, 1);
                    self.schedule_event(arrive, Event::Sync(msg));
                }
                self.step_msgs = msgs;
                self.schedule_event(now + cost, Event::Step(s));
            }
        }
    }

    pub(crate) fn sample(&mut self, now: Cycle) {
        use std::fmt::Write as _;
        // One scratch buffer for all the series names below, kept across
        // samples: sampling runs every couple thousand cycles over every
        // row and task, and a `format!` per record was a measurable share
        // of host allocations.
        let mut name = std::mem::take(&mut self.sample_name);
        for (s, shell) in self.shells.iter().enumerate() {
            for (r, row) in shell.rows().iter().enumerate() {
                if row.retired {
                    continue;
                }
                let label = &self.row_labels[s][r];
                // Only consumer-side rows report "available data" (the
                // paper's Figure 10 quantity); producer rows report room.
                name.clear();
                let _ = write!(name, "space/{label}");
                self.trace.record(&name, now, row.effective_space() as f64);
                // Mirror the fill level onto the structured trace spine as
                // a Chrome counter track (ph:"C"), so chaos runs visualize
                // backpressure building up behind injected faults.
                if let Some(t) = &self.sys_trace {
                    let space = row.effective_space() as u64;
                    t.emit_with(now, |sink| TraceEventKind::Counter {
                        track: sink.intern(&name),
                        value: space,
                    });
                }
            }
            let u = &self.utilization[s];
            name.clear();
            let _ = write!(name, "busy/{}", self.shell_names[s]);
            self.trace.record(&name, now, u.busy as f64);
            name.clear();
            let _ = write!(name, "stall/{}", self.shell_names[s]);
            self.trace.record(&name, now, u.stalled as f64);
            // Per-task views (paper Figure 9's "stall time of tasks"):
            // cumulative busy cycles and GetSpace denials per task.
            for t in shell.tasks() {
                if t.retired {
                    continue;
                }
                name.clear();
                let _ = write!(name, "taskbusy/{}", t.cfg.name);
                self.trace.record(&name, now, t.stats.busy_cycles as f64);
                name.clear();
                let _ = write!(name, "taskdenied/{}", t.cfg.name);
                self.trace.record(&name, now, t.stats.denials as f64);
            }
        }
        self.sample_name = name;
    }
}
