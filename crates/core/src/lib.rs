#![warn(missing_docs)]

//! # eclipse-core — the Eclipse architecture template
//!
//! This crate is the paper's contribution proper: a *template* for
//! heterogeneous media-processing subsystems. It combines the substrates
//! (`eclipse-sim`, `eclipse-mem`, `eclipse-shell`) into a configurable,
//! runnable system:
//!
//! * [`config`] — the template parameters (paper Section 2.3: "memory
//!   size, bus width, number and type of (co)processors, ...");
//! * [`coproc`] — the coprocessor side of the task-level interface: the
//!   [`coproc::Coprocessor`] trait with its processing-step execution
//!   model and the [`coproc::StepCtx`] exposing the five primitives
//!   (paper Sections 3.2, 4);
//! * [`mapping`] — run-time configuration of a Kahn application graph
//!   onto the instantiated coprocessors: buffer allocation in the shared
//!   SRAM and programming of the shells' stream and task tables (paper
//!   Figure 3, Section 3);
//! * [`system`] — the simulation top level: the discrete-event loop
//!   driving coprocessor processing steps, `putspace` message delivery,
//!   and periodic measurement sampling;
//! * [`model`] — the analytical area/power/performance model that
//!   reproduces the paper's Section 6 silicon estimates;
//! * [`trace`] — time-series measurement collection (the data behind the
//!   paper's Figures 9 and 10).

pub mod config;
pub mod coproc;
pub mod mapping;
pub mod model;
pub mod system;
pub mod trace;

pub use config::EclipseConfig;
pub use coproc::{Coprocessor, StepCtx, StepResult};
pub use mapping::{
    AppHandles, FirstFitPlacement, MapError, Placement, PlacementCtx, TopologyAwarePlacement,
};
pub use system::{
    AppHealth, AppState, DrainReport, EclipseSystem, QosContract, ReconfigError, RecoveryAction,
    RecoveryReport, RecoveryTrigger, RunOutcome, RunSummary, StreamSpaceView, Supervisor,
    SupervisorConfig, SystemBuilder, WedgeDiagnosis, WedgeReason,
};
pub use trace::{TraceLog, TraceSeries};
