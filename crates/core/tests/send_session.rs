//! Compile-time and runtime proof that a whole session crosses threads.
//!
//! `Runtime` is a `Send` value — the struct-of-arrays node store, every
//! cached `Box<dyn Value>`, every executor closure and every handle
//! (`Var`, `Memo`) move together. These assertions are the API contract
//! the `alphonse-serve` session pool builds on; if a field ever regresses to
//! a non-`Send` type (`Rc`, `RefCell`, a non-`Send` trait object), this
//! file stops compiling.

use alphonse::{Memo, Runtime, Var};

fn assert_send<T: Send>() {}

#[test]
fn session_types_are_send() {
    assert_send::<Runtime>();
    assert_send::<Var<i64>>();
    assert_send::<Var<String>>();
    assert_send::<Memo<(), i64>>();
    assert_send::<Memo<String, Vec<i64>>>();
}

/// A session built on one thread keeps full history after moving to
/// another: cached results stay cached, edits propagate.
#[test]
fn session_moves_across_threads() {
    let rt = Runtime::new();
    let x = rt.var(2i64);
    let sq = rt.memo("sq", move |rt, &(): &()| x.get(rt) * x.get(rt));
    assert_eq!(sq.call(&rt, ()), 4);
    let execs_before = rt.stats().executions;

    let handle = std::thread::spawn(move || {
        // Cache survives the move: this call must not re-execute.
        assert_eq!(sq.call(&rt, ()), 4);
        assert_eq!(rt.stats().executions, execs_before);
        x.set(&rt, 3);
        assert_eq!(sq.call(&rt, ()), 9);
        rt
    });
    let rt = handle
        .join()
        .expect("moved session works on the new thread");
    // And back again.
    assert_eq!(rt.stats().executions, execs_before + 1);
}
