//! Dynamically-typed cached values.

use alphonse_mem as mem;
use std::any::Any;
use std::fmt;

/// A value that can be cached in the dependency graph.
///
/// Quiescence propagation (paper Section 2) requires comparing a newly
/// computed result against the previously cached one to decide whether
/// dependents must be notified, so every cached value must support equality;
/// function caching requires handing out copies of cached results, so it
/// must support cloning. Sessions are movable across threads
/// ([`Runtime`](crate::Runtime) is `Send`), so every cached value must be
/// `Send` too; and the claimants of a pooled level (see
/// [`Runtime::set_parallelism`](crate::Runtime::set_parallelism)) read one
/// cached value from two threads at once through their views of the
/// runtime state, so it must be `Sync` as well. The blanket implementation covers every
/// `'static` type that is `Debug + PartialEq + Clone + Send + Sync`, which
/// is what user code should rely on — implementing this trait by hand is
/// never necessary.
pub trait Value: Any + fmt::Debug + Send + Sync {
    /// Compares against another cached value; values of different concrete
    /// types are unequal.
    fn dyn_eq(&self, other: &dyn Value) -> bool;
    /// Clones into a fresh box.
    fn dyn_clone(&self) -> Box<dyn Value>;
    /// Upcast used for downcasting to the concrete type.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast: lets a buffered value be overwritten in place when a
    /// later write of the same concrete type coalesces onto it, reusing the
    /// existing allocation instead of boxing a fresh one.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + fmt::Debug + PartialEq + Clone + Send + Sync> Value for T {
    fn dyn_eq(&self, other: &dyn Value) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn dyn_clone(&self) -> Box<dyn Value> {
        // Clones of cached results (handed out by `Memo::call` etc.) are
        // value-slab memory, including the clone's own heap payload.
        mem::with(mem::Tag::ValueSlab, || Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Downcasts a cached value to its concrete type, cloning it out.
///
/// The production read paths are borrow-based ([`downcast_ref`]); this
/// cloning form survives for tests.
///
/// # Panics
///
/// Panics if the cached value has a different concrete type, which indicates
/// a typed handle (`Var`/`Memo`) was forged for the wrong node.
#[cfg(test)]
pub(crate) fn downcast_value<T: Clone + 'static>(v: &dyn Value, what: &str) -> T {
    downcast_ref::<T>(v, what).clone()
}

/// Downcasts a borrowed cached value to its concrete type without cloning —
/// the borrow-based read path.
///
/// # Panics
///
/// Panics if the cached value has a different concrete type, which indicates
/// a typed handle (`Var`/`Memo`) was forged for the wrong node.
pub(crate) fn downcast_ref<'a, T: 'static>(v: &'a dyn Value, what: &str) -> &'a T {
    v.as_any().downcast_ref::<T>().unwrap_or_else(|| {
        panic!(
            "type mismatch reading {what}: expected {}, found {v:?}",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_same_type() {
        let a: Box<dyn Value> = Box::new(42i64);
        let b: Box<dyn Value> = Box::new(42i64);
        let c: Box<dyn Value> = Box::new(7i64);
        assert!(a.dyn_eq(&*b));
        assert!(!a.dyn_eq(&*c));
    }

    #[test]
    fn eq_across_types_is_false() {
        let a: Box<dyn Value> = Box::new(42i64);
        let b: Box<dyn Value> = Box::new(42i32);
        assert!(!a.dyn_eq(&*b));
        assert!(!b.dyn_eq(&*a));
    }

    #[test]
    fn clone_preserves_value() {
        let a: Box<dyn Value> = Box::new(String::from("hi"));
        let b = a.dyn_clone();
        assert!(a.dyn_eq(&*b));
        assert_eq!(downcast_value::<String>(&*b, "test"), "hi");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn downcast_wrong_type_panics() {
        let a: Box<dyn Value> = Box::new(1u8);
        let _: i64 = downcast_value(&*a, "test");
    }

    #[test]
    fn structs_work_via_blanket_impl() {
        #[derive(Debug, PartialEq, Clone)]
        struct P(i32, i32);
        let a: Box<dyn Value> = Box::new(P(1, 2));
        assert!(a.dyn_eq(&*a.dyn_clone()));
    }
}
