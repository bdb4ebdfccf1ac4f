//! Typed handles to tracked storage locations.

use crate::batch::Batch;
use crate::runtime::Runtime;
use crate::value::{downcast_ref, Value};
use alphonse_graph::NodeId;
use alphonse_mem as mem;
use std::fmt;
use std::marker::PhantomData;

/// A typed, tracked storage location — the paper's *top-level abstract
/// location* (Section 4.3).
///
/// Reading a `Var` inside an incremental procedure records a dependence
/// edge; writing one compares against the stored value and seeds quiescence
/// propagation when the value actually changed (Algorithms 3 and 4). The
/// handle itself is a small `Copy` token; the value lives in the
/// [`Runtime`].
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let x = rt.var(1i64);
/// assert_eq!(x.get(&rt), 1);
/// x.set(&rt, 2);
/// assert_eq!(x.get(&rt), 2);
/// ```
pub struct Var<T> {
    node: NodeId,
    rt_id: u64,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T> Clone for Var<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Var<T> {}

impl<T> PartialEq for Var<T> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node && self.rt_id == other.rt_id
    }
}
impl<T> Eq for Var<T> {}

impl<T> std::hash::Hash for Var<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.node.hash(state);
        self.rt_id.hash(state);
    }
}

impl<T> fmt::Debug for Var<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var<{}>({})", std::any::type_name::<T>(), self.node)
    }
}

impl<T: Value + PartialEq + Clone> Var<T> {
    fn check(&self, rt: &Runtime) {
        assert_eq!(
            self.rt_id, rt.root.id,
            "Var used with a different Runtime than it was created in"
        );
    }

    /// Reads the current value, recording a dependence if an incremental
    /// procedure is executing.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime this variable was created in.
    pub fn get(&self, rt: &Runtime) -> T {
        self.check(rt);
        // Borrow-based read: one typed clone out of the cache, no boxing.
        rt.with_value(self.node, |v| downcast_ref::<T>(v, "Var::get").clone())
    }

    /// Runs `f` on the current value in place — no clone at all — recording
    /// a dependence exactly like [`Var::get`]. This is the zero-allocation
    /// read for values that do not need to escape (e.g. summing a field of
    /// a large struct).
    ///
    /// The runtime's lock is held while `f` runs: the closure must not
    /// read or write tracked state, call memos or run propagation, or the
    /// lock's fail-stop re-entrancy check panics. Use [`Var::get`] when
    /// the value must escape.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let v = rt.var(vec![1i64, 2, 3]);
    /// let sum: i64 = v.with(&rt, |xs| xs.iter().sum());
    /// assert_eq!(sum, 6);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime this variable was created in.
    pub fn with<R>(&self, rt: &Runtime, f: impl FnOnce(&T) -> R) -> R {
        self.check(rt);
        rt.with_value(self.node, |v| f(downcast_ref::<T>(v, "Var::with")))
    }

    /// Reads the current value without recording a dependence — the
    /// `(*UNCHECKED*)` pragma applied to a single read (Section 6.4).
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime this variable was created in.
    pub fn get_untracked(&self, rt: &Runtime) -> T {
        rt.untracked(|| self.get(rt))
    }

    /// Writes a new value. If it differs from the stored one, dependents are
    /// scheduled for re-evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime this variable was created in.
    pub fn set(&self, rt: &Runtime, value: T) {
        self.check(rt);
        rt.raw_write(
            self.node,
            mem::with(mem::Tag::ValueSlab, || Box::new(value)),
        );
    }

    /// Applies `f` to the current value and stores the result.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime this variable was created in.
    pub fn update(&self, rt: &Runtime, f: impl FnOnce(T) -> T) {
        let v = self.get(rt);
        self.set(rt, f(v));
    }

    /// Buffers a write of `value` in the transaction `tx` — the batched form
    /// of [`Var::set`]. Repeated writes to the same variable within one
    /// batch coalesce (last write wins); the surviving value is compared
    /// against the pre-batch stored value once, at commit.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let x = rt.var(1i64);
    /// rt.batch(|tx| {
    ///     x.set_in(tx, 2);
    ///     x.set_in(tx, 3);
    /// });
    /// assert_eq!(x.get(&rt), 3);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `tx` belongs to a different runtime than this variable.
    pub fn set_in(&self, tx: &mut Batch<'_>, value: T) {
        self.check(tx.runtime());
        tx.write_typed(self.node, value);
    }

    /// Reads this variable *through* the transaction: the pending buffered
    /// value if `tx` has one, otherwise the committed value (read exactly
    /// like [`Var::get`], including dependence recording). This gives bulk
    /// mutators read-your-writes visibility inside a batch.
    ///
    /// # Panics
    ///
    /// Panics if `tx` belongs to a different runtime than this variable.
    pub fn get_in(&self, tx: &Batch<'_>) -> T {
        self.check(tx.runtime());
        match tx.pending_value(self.node) {
            Some(v) => downcast_ref::<T>(v, "Var::get_in").clone(),
            None => self.get(tx.runtime()),
        }
    }

    /// The dependency-graph node backing this variable.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl Runtime {
    /// Allocates a fresh tracked variable holding `initial`.
    pub fn var<T: Value + PartialEq + Clone>(&self, initial: T) -> Var<T> {
        Var {
            node: self.raw_alloc(mem::with(mem::Tag::ValueSlab, || Box::new(initial))),
            rt_id: self.root.id,
            _marker: PhantomData,
        }
    }

    /// Allocates a fresh tracked variable holding `initial` *and* records
    /// the executing incremental procedure's dependence on it, as one
    /// operation — the lazy-promotion read of Algorithm 3. Embedded hosts
    /// (Section 6.1) use this when a plain storage location is read for the
    /// first time inside a tracked context: the location's graph node and
    /// its first dependence edge are created together, for the cost of a
    /// single runtime lock round-trip. Outside a tracked context it is
    /// simply [`Runtime::var`] (there is no frame to record against).
    pub fn var_accessed<T: Value + PartialEq + Clone>(&self, initial: T) -> Var<T> {
        Var {
            node: self.alloc_accessed(mem::with(mem::Tag::ValueSlab, || Box::new(initial))),
            rt_id: self.root.id,
            _marker: PhantomData,
        }
    }

    /// Allocates a tracked variable with a diagnostic label, shown by
    /// [`Runtime::node_label`], error messages and the trace stream
    /// ([`crate::trace`]), from which `alphonse-trace why|dot` name it.
    /// Substrates that create many variables should guard label
    /// construction with [`Runtime::tracing`] to keep their build paths
    /// allocation-lean when nothing is listening.
    pub fn var_named<T: Value + PartialEq + Clone>(&self, name: &str, initial: T) -> Var<T> {
        let v = self.var(initial);
        self.set_label(v.node, name);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let rt = Runtime::new();
        let v = rt.var(String::from("a"));
        assert_eq!(v.get(&rt), "a");
        v.set(&rt, "b".into());
        assert_eq!(v.get(&rt), "b");
    }

    #[test]
    fn update_applies_function() {
        let rt = Runtime::new();
        let v = rt.var(10i64);
        v.update(&rt, |x| x * 2);
        assert_eq!(v.get(&rt), 20);
    }

    #[test]
    fn var_is_copy_and_hashable() {
        let rt = Runtime::new();
        let v = rt.var(1i32);
        let w = v; // copy
        assert_eq!(v, w);
        let mut set = std::collections::HashSet::new();
        set.insert(v);
        assert!(set.contains(&w));
        let u = rt.var(1i32);
        assert_ne!(v, u);
    }

    #[test]
    #[should_panic(expected = "different Runtime")]
    fn cross_runtime_use_panics() {
        let a = Runtime::new();
        let b = Runtime::new();
        let v = a.var(1i64);
        let _ = v.get(&b);
    }

    #[test]
    fn debug_mentions_type() {
        let rt = Runtime::new();
        let v = rt.var(1u8);
        assert!(format!("{v:?}").contains("u8"));
    }
}
