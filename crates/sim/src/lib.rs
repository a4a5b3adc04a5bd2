#![warn(missing_docs)]

//! # eclipse-sim — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation kernel used by the
//! Eclipse architecture simulator (`eclipse-core`). The kernel is
//! deliberately generic: it knows nothing about coprocessors, shells, or
//! buses — it only provides
//!
//! * a cycle-resolution notion of simulated time ([`Cycle`], [`Clock`]),
//! * a stable-ordered event calendar ([`Calendar`]) generic over the event
//!   payload type,
//! * deterministic pseudo-random number generation ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`]) so simulation runs are bit-reproducible
//!   without pulling an RNG dependency into the kernel, and
//! * lightweight statistics accumulators ([`stats::RunningStat`],
//!   [`stats::Histogram`], [`stats::TimeWeighted`]) shared by all
//!   architecture components, and
//! * deterministic fault injection ([`fault::FaultPlan`],
//!   [`fault::FaultInjector`]) for chaos experiments — off by default
//!   and bit-transparent when disabled.
//!
//! ## Determinism
//!
//! Events scheduled for the same cycle are delivered in FIFO order of their
//! scheduling (each entry carries a monotonically increasing sequence
//! number). Together with the seeded RNGs this makes every Eclipse
//! simulation run reproducible bit-for-bit, which the integration tests
//! rely on.

pub mod calendar;
pub mod fault;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;

pub use calendar::{BaselineCalendar, Calendar};
pub use fault::{corrupt_bytes, FaultInjector, FaultPlan, FaultStats, SyncAction};
pub use snapshot::{fnv1a_64, FnvState, SnapError, SnapReader, SnapWriter, Snapshot};
pub use stats::{Histogram, HistogramStat, RunningStat};
pub use time::{Clock, Cycle, Frequency};
pub use trace::{
    SamplePolicy, SharedTraceSink, TraceEvent, TraceEventKind, TraceHandle, TraceSink,
};
