#![warn(missing_docs)]

//! # eclipse-kpn — Kahn Process Network application model
//!
//! Eclipse specifies media applications as Kahn Process Networks (paper
//! Section 2.1): a set of concurrently executing tasks that exchange
//! information solely through unidirectional, FIFO-buffered data streams.
//! Kahn proved that the *functional* behaviour of such a network — the
//! sequence of bytes on every edge — is independent of the order in which
//! tasks execute.
//!
//! This crate provides:
//!
//! * [`graph`] — the application graph description ([`graph::AppGraph`],
//!   [`graph::GraphBuilder`]): tasks, ports, streams with buffer sizes.
//!   The same description is consumed by the Eclipse architecture
//!   simulator (`eclipse-core`) when mapping tasks onto coprocessors, and
//!   by the host runtime below.
//! * [`fifo`] — a bounded, windowed FIFO implementing Eclipse's
//!   GetSpace/Read/Write/PutSpace discipline on host memory with real
//!   blocking synchronization (std mutex + condvars). Unlike a
//!   plain channel, synchronization granularity is decoupled from
//!   transport granularity, exactly as the paper's Section 2.2 prescribes.
//! * [`runtime`] — a multi-threaded host executor that runs every task of
//!   a graph on its own OS thread. This is the "all tasks in software"
//!   reference point: it demonstrates the programming model at host
//!   speed.
//! * [`process`] — the [`process::Process`] trait plus reusable
//!   source/map/sink combinators.
//!
//! The central Kahn property — scheduling-independent stream contents — is
//! verified by property tests that run the same graph under different
//! thread interleavings and assert bit-identical sink output.

pub mod fifo;
pub mod graph;
pub mod process;
pub mod runtime;

pub use fifo::{Fifo, FifoConfig};
pub use graph::{AppGraph, GraphBuilder, GraphError, PortIndex, StreamId, TaskId};
pub use process::{Port, Process, ProcessCtx};
pub use runtime::{HostRuntime, RunReport};
