//! Batched write transactions.
//!
//! Every [`Var::set`](crate::Var::set) takes its own acquisition of the
//! runtime's lock, performs its own cutoff comparison, and seeds its own
//! dirty insertion. Bulk mutators — a spreadsheet paste, a tree rebalance, an
//! interpreter heap update — pay those constants once per write.
//! [`Runtime::batch`] amortizes them: writes submitted through the [`Batch`]
//! handle are buffered, repeated writes to the same location coalesce
//! (last write wins), and commit takes the lock **once**, performs a
//! single equality check per distinct location against its pre-batch value,
//! and enqueues one deduplicated dirty frontier.
//!
//! A batch is observationally equivalent to issuing the same writes with
//! [`Var::set`](crate::Var::set) one by one — same final values, same
//! quiescent state — except that it can only do *less* propagation work:
//! a location written several times is compared (and possibly dirtied) once,
//! and a location transiently changed but restored to its pre-batch value
//! never dirties at all, which the per-write path cannot know.

use crate::runtime::{PendingWrites, Runtime};
use crate::value::Value;
use alphonse_graph::NodeId;
use alphonse_mem as mem;

/// A write transaction created by [`Runtime::batch`].
///
/// Writes go through [`Var::set_in`](crate::Var::set_in) and are buffered
/// until the closure returns; the runtime itself stays fully readable
/// inside the closure, but reads through the plain APIs observe
/// *pre-batch* state. Use [`Var::get_in`](crate::Var::get_in) for
/// read-your-writes visibility of pending values.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let a = rt.var(1i64);
/// let b = rt.var(2i64);
/// rt.batch(|tx| {
///     a.set_in(tx, 10);
///     b.set_in(tx, 20);
///     a.set_in(tx, 30); // coalesces with the first write: last write wins
/// });
/// assert_eq!(a.get(&rt), 30);
/// assert_eq!(rt.stats().coalesced_writes, 1);
/// ```
pub struct Batch<'rt> {
    rt: &'rt Runtime,
    /// One entry per distinct written location, in first-write order.
    pending: PendingWrites,
    /// Indexed by `NodeId`: `slot + 1` into `pending` for locations with a
    /// buffered write, `0` otherwise — last-write-wins coalescing with a
    /// plain array index instead of a hash lookup. Only entries for written
    /// locations are reset at commit, so the cost stays O(distinct writes).
    slot_of: Vec<usize>,
    /// Writes submitted (before coalescing).
    submitted: u64,
}

impl<'rt> Batch<'rt> {
    /// The runtime this transaction writes to.
    pub(crate) fn runtime(&self) -> &'rt Runtime {
        self.rt
    }

    /// Buffers a write of `value` to location `n`; a later write to the
    /// same location within this batch replaces it, without boxing when
    /// both have the same concrete type (the new value is stored into the
    /// existing allocation). [`Var::set_in`](crate::Var::set_in) routes
    /// through this, so a bulk mutator that hammers a small set of
    /// locations allocates once per *location*, not once per write.
    pub(crate) fn write_typed<T: Value>(&mut self, n: NodeId, value: T) {
        self.submitted += 1;
        let _mem = mem::scope(mem::Tag::ValueSlab);
        match self.slot(n) {
            None => {
                self.pending.push((n, Box::new(value)));
                self.slot_of[n.index()] = self.pending.len(); // slot + 1
            }
            Some(s) => match self.pending[s].1.as_any_mut().downcast_mut::<T>() {
                Some(old) => *old = value,
                None => self.pending[s].1 = Box::new(value),
            },
        }
    }

    /// Index into `pending` for `n`'s buffered write, growing `slot_of` so
    /// a subsequent insert can record itself without a second bounds check.
    fn slot(&mut self, n: NodeId) -> Option<usize> {
        let i = n.index();
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, 0);
        }
        match self.slot_of[i] {
            0 => None,
            s => Some(s - 1),
        }
    }

    /// The pending (not yet committed) value buffered for `n`, if any.
    pub(crate) fn pending_value(&self, n: NodeId) -> Option<&dyn Value> {
        match self.slot_of.get(n.index()).copied().unwrap_or(0) {
            0 => None,
            s => Some(&*self.pending[s - 1].1),
        }
    }
}

impl Runtime {
    /// Runs `f` with a write-transaction handle and commits the buffered
    /// writes when it returns — the batched form of the paper's `modify`
    /// (Algorithm 4).
    ///
    /// Commit applies each distinct written location in first-write order
    /// under a single runtime borrow: record the writer's dependence,
    /// compare the final buffered value against the pre-batch stored value
    /// (one cutoff comparison per location, however many times it was
    /// written), and dirty the location's readers only when the value
    /// actually changed. Reader-less locations skip dirtying exactly as
    /// [`Var::set`](crate::Var::set) does.
    ///
    /// Batches do not nest usefully: an inner `batch` commits when *it*
    /// returns, so an outer batch's buffered write to the same location
    /// lands later and wins. Writes issued inside the closure through the
    /// non-transactional APIs ([`Var::set`](crate::Var::set)) bypass the
    /// buffer and commit immediately.
    pub fn batch<R>(&self, f: impl FnOnce(&mut Batch<'_>) -> R) -> R {
        // Bookkeeping buffers are runtime-owned and reused across batches,
        // so a steady-state batch allocates nothing of its own.
        let (pending, slot_of) = self.take_batch_buffers();
        let mut tx = Batch {
            rt: self,
            pending,
            slot_of,
            submitted: 0,
        };
        let result = f(&mut tx);
        let Batch {
            pending,
            slot_of,
            submitted,
            ..
        } = tx;
        let coalesced = submitted - pending.len() as u64;
        self.commit_batch(pending, slot_of, submitted, coalesced);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_writes_commit_on_return() {
        let rt = Runtime::new();
        let a = rt.var(1i64);
        let inside = rt.batch(|tx| {
            a.set_in(tx, 5);
            a.get(&rt) // plain reads observe pre-batch state
        });
        assert_eq!(inside, 1, "plain reads see pre-batch state");
        assert_eq!(a.get(&rt), 5);
    }

    #[test]
    fn coalescing_keeps_last_write() {
        let rt = Runtime::new();
        let a = rt.var(0i64);
        rt.batch(|tx| {
            for i in 1..=4 {
                a.set_in(tx, i);
            }
        });
        assert_eq!(a.get(&rt), 4);
        let s = rt.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_writes, 4);
        assert_eq!(s.coalesced_writes, 3);
        assert_eq!(s.writes, 1, "one committed write per distinct location");
    }

    #[test]
    fn empty_batch_is_a_counted_noop() {
        let rt = Runtime::new();
        let out = rt.batch(|_| 7);
        assert_eq!(out, 7);
        let s = rt.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.writes, 0);
        assert_eq!(s.dirtied, 0);
    }

    #[test]
    fn get_in_reads_through_pending_writes() {
        let rt = Runtime::new();
        let a = rt.var(1i64);
        rt.batch(|tx| {
            assert_eq!(a.get_in(tx), 1, "falls back to stored value");
            a.set_in(tx, 2);
            assert_eq!(a.get_in(tx), 2, "sees the buffered value");
            a.set_in(tx, a.get_in(tx) * 10);
            assert_eq!(a.get_in(tx), 20);
        });
        assert_eq!(a.get(&rt), 20);
    }
}
