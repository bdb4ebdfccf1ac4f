//! **Alphonse** — incremental computation as a programming abstraction.
//!
//! This crate is the runtime half of a reproduction of Roger Hoover's PLDI
//! 1992 paper *Alphonse: Incremental Computation as a Programming
//! Abstraction*. Programs establish *properties* over mutable data with
//! plain exhaustive code; the runtime records which storage each incremental
//! procedure instance read (**dynamic dependence analysis**, paper
//! Section 4), caches results per argument vector (**function caching**,
//! extended to procedures that read global state), and after mutations
//! re-executes only what changed (**quiescence propagation**).
//!
//! The paper expresses this as a source-to-source transformation over an
//! imperative language (see the companion `alphonse-lang` crate). This crate
//! provides the same machinery as a library:
//!
//! | Paper concept | Library form |
//! |---|---|
//! | top-level storage location | [`Var<T>`] |
//! | `access(v)` (Algorithm 3) | [`Var::get`] / [`Var::with`] / [`Runtime::with_value`] |
//! | `modify(l, v)` (Algorithm 4) | [`Var::set`] / [`Runtime::raw_write`] |
//! | batched `modify` sequence | [`Runtime::batch`] + [`Var::set_in`] / [`Batch::write`] |
//! | `(*CACHED*)` / `(*MAINTAINED*)` procedure | [`Memo<A, R>`] |
//! | `call(p, a…)` (Algorithm 5) | [`Memo::call`] |
//! | `DEMAND` / `EAGER` evaluation | [`Strategy`] |
//! | evaluation routine (Section 4.5) | [`Runtime::propagate`] + automatic pre-call evaluation |
//! | graph partitioning (Section 6.3) | [`RuntimeBuilder::partitioning`] |
//! | `(*UNCHECKED*)` (Section 6.4) | [`Runtime::untracked`] / [`Var::get_untracked`] |
//! | dependency information for debugging (Section 1) | [`Runtime::explain`] / [`trace`] sinks ([`Runtime::set_sink`]) |
//!
//! # Quickstart
//!
//! ```
//! use alphonse::Runtime;
//!
//! let rt = Runtime::new();
//! let price = rt.var(12i64);
//! let qty = rt.var(3i64);
//! let total = rt.memo("total", move |rt, &(): &()| price.get(rt) * qty.get(rt));
//!
//! assert_eq!(total.call(&rt, ()), 36);   // first call: executes
//! assert_eq!(total.call(&rt, ()), 36);   // cached
//! qty.set(&rt, 4);
//! assert_eq!(total.call(&rt, ()), 48);   // only now recomputed
//! ```
//!
//! # Restrictions (paper Section 3.5)
//!
//! Incremental procedure bodies must be **deterministic** (DET): given the
//! same arguments and the same tracked reads they must produce the same
//! result and effects. They may read and write tracked state freely —
//! writes record dependence edges and may re-trigger the writer, converging
//! by determinism, exactly as the paper's AVL `balance` method does. Eager
//! procedures must additionally keep their side effects unobservable (OBS).
//! Violations are detected where possible (dependency cycles panic with a
//! diagnostic) but cannot be checked in general, mirroring the paper.
//! A body may fail by panicking (a host's typed payload carries its own
//! errors): the execution is rolled back and the panic reaches the caller
//! with the runtime still usable (see [`Runtime`]'s panic contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod exec_pool;
pub mod fxhash;
mod memo;
pub mod metrics;
mod runtime;
mod stats;
pub mod trace;
mod value;
mod var;

pub use batch::Batch;
pub use memo::{Memo, MemoArgs, MemoResult};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot};
pub use runtime::{NodeKind, Runtime, RuntimeBuilder, Scheduling, Strategy};
pub use stats::Stats;
pub use value::Value;
pub use var::Var;

pub use alphonse_graph::NodeId;

/// Subsystem-tagged memory accounting (re-export of `alphonse-mem`).
///
/// Install [`mem::TrackingAlloc`] as the binary's `#[global_allocator]`
/// and every runtime allocation is billed to a subsystem [`mem::Tag`];
/// per-tag live/HWM bytes then appear in [`MetricsSnapshot::mem`].
pub use alphonse_mem as mem;
