//! Property-based differential testing of the runtime.
//!
//! The central correctness claim of the paper is Theorem 5.1: Alphonse
//! execution produces the same output as conventional execution. For the
//! library embedding that means: after any sequence of mutations, querying a
//! memo must return exactly what recomputing its definition from the current
//! variable values would return. We check that over random dataflow DAGs,
//! random evaluation strategies and random mutation scripts, for every
//! runtime configuration, and again with panics injected into random
//! executions.

use alphonse::{Memo, Runtime, Scheduling, Strategy as EvalStrategy, Var};
use proptest::prelude::*;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One input of a derived computation.
#[derive(Debug, Clone, Copy)]
enum Input {
    Var(usize),
    Memo(usize),
}

/// Specification of one memo: a wrapping linear combination of inputs.
#[derive(Debug, Clone)]
struct MemoSpec {
    inputs: Vec<(Input, i64)>,
    offset: i64,
    eager: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Set { var: usize, value: i64 },
    Query { memo: usize },
    Propagate,
}

#[derive(Debug, Clone)]
struct Case {
    n_vars: usize,
    init: Vec<i64>,
    memos: Vec<MemoSpec>,
    script: Vec<Op>,
    partitioning: bool,
    fifo: bool,
    /// `1`: the driver runs every level alone; `2`: levels of two or more
    /// eager executions run beside a pool helper.
    parallelism: usize,
}

/// Injected executor faults: every memo execution counts `countdown` down
/// after its first input read, and the one that takes it from 1 to 0
/// panics. Zero means disarmed.
#[derive(Default)]
struct Fault {
    countdown: AtomicUsize,
}

impl Fault {
    /// Makes the `after`-th execution from now (`after >= 1`) panic.
    fn arm(&self, after: usize) {
        self.countdown.store(after, Ordering::SeqCst);
    }

    fn strikes(&self) -> bool {
        self.countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            == Ok(1)
    }
}

const INJECTED: &str = "injected executor fault";

/// Ground truth: evaluate memo `k` directly from variable values.
fn oracle(memos: &[MemoSpec], vars: &[i64], k: usize) -> i64 {
    let spec = &memos[k];
    let mut acc = spec.offset;
    for &(input, coeff) in &spec.inputs {
        let v = match input {
            Input::Var(i) => vars[i],
            Input::Memo(j) => oracle(memos, vars, j),
        };
        acc = acc.wrapping_add(v.wrapping_mul(coeff));
    }
    acc
}

/// A runtime configured as `case` says, with one var per `init` value and
/// every memo of the case defined (none called yet). Every execution
/// consults `fault`.
fn build(
    case: &Case,
    init: &[i64],
    fault: &Arc<Fault>,
) -> (Runtime, Vec<Var<i64>>, Vec<Memo<(), i64>>) {
    let rt = Runtime::builder()
        .partitioning(case.partitioning)
        .scheduling(if case.fifo {
            Scheduling::Fifo
        } else {
            Scheduling::HeightOrder
        })
        .build();
    rt.set_parallelism(case.parallelism);
    let vars: Vec<_> = init.iter().map(|&v| rt.var(v)).collect();
    // Memos can call earlier memos; closures resolve callees through this
    // shared registry (and keep it alive via their captured Arc).
    let registry: Arc<Mutex<Vec<Memo<(), i64>>>> = Arc::new(Mutex::new(Vec::new()));
    for (k, spec) in case.memos.iter().enumerate() {
        let spec = spec.clone();
        let vars = vars.clone();
        let reg = Arc::clone(&registry);
        let fault = Arc::clone(fault);
        let strategy = if spec.eager {
            EvalStrategy::Eager
        } else {
            EvalStrategy::Demand
        };
        let memo = rt.memo_with(&format!("m{k}"), strategy, move |rt, &(): &()| {
            let mut acc = spec.offset;
            for (idx, &(input, coeff)) in spec.inputs.iter().enumerate() {
                let v = match input {
                    Input::Var(i) => vars[i].get(rt),
                    Input::Memo(j) => {
                        let callee = reg.lock().unwrap()[j].clone();
                        callee.call(rt, ())
                    }
                };
                if idx == 0 && fault.strikes() {
                    panic!("{INJECTED} in m{k}");
                }
                acc = acc.wrapping_add(v.wrapping_mul(coeff));
            }
            acc
        });
        registry.lock().unwrap().push(memo);
    }
    let memos = registry.lock().unwrap().clone();
    (rt, vars, memos)
}

fn run_case(case: &Case) {
    let (rt, vars, memos) = build(case, &case.init, &Arc::default());
    let mut shadow = case.init.clone();
    // Query everything once so the dependency graph is fully populated.
    for (k, m) in memos.iter().enumerate() {
        assert_eq!(m.call(&rt, ()), oracle(&case.memos, &shadow, k));
    }
    for op in &case.script {
        match *op {
            Op::Set { var, value } => {
                let i = var % case.n_vars;
                vars[i].set(&rt, value);
                shadow[i] = value;
            }
            Op::Query { memo } => {
                let k = memo % case.memos.len();
                let got = memos[k].call(&rt, ());
                let want = oracle(&case.memos, &shadow, k);
                assert_eq!(
                    got, want,
                    "memo m{k} diverged from conventional execution (cfg: part={}, fifo={}, par={})",
                    case.partitioning, case.fifo, case.parallelism
                );
            }
            Op::Propagate => rt.propagate(),
        }
    }
    // Final full audit.
    rt.propagate();
    for (k, m) in memos.iter().enumerate() {
        assert_eq!(m.call(&rt, ()), oracle(&case.memos, &shadow, k));
    }
    // Retained edges are exactly the latest executions' reads: the graph
    // has as many edges as a fresh runtime built by the same calls.
    assert_edges_match_fresh_build(case, &rt, &shadow);
    rt.check_invariants();
}

/// Retained edges are exactly the latest executions' reads: the graph has
/// as many edges as a fresh runtime built by the same calls.
fn assert_edges_match_fresh_build(case: &Case, rt: &Runtime, vars: &[i64]) {
    let (fresh, _, fresh_memos) = build(case, vars, &Arc::default());
    for m in &fresh_memos {
        m.call(&fresh, ());
    }
    assert_eq!(
        rt.edge_count(),
        fresh.edge_count(),
        "retained edges diverged from a fresh build (cfg: part={}, fifo={}, par={})",
        case.partitioning,
        case.fifo,
        case.parallelism
    );
}

/// Runs `op` with faults armed, catching an injected panic (any other
/// panic is passed on). After a caught fault the runtime must satisfy its
/// invariants at once, and once the fault is cleared, `propagate` must
/// succeed and every memo must match the oracle again.
fn faulty<T>(
    case: &Case,
    rt: &Runtime,
    memos: &[Memo<(), i64>],
    shadow: &[i64],
    op: impl FnOnce() -> T,
) -> Option<T> {
    let payload = match catch_unwind(AssertUnwindSafe(op)) {
        Ok(out) => return Some(out),
        Err(payload) => payload,
    };
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    if !message.starts_with(INJECTED) {
        resume_unwind(payload);
    }
    rt.check_invariants();
    rt.propagate();
    for (k, m) in memos.iter().enumerate() {
        assert_eq!(
            m.call(rt, ()),
            oracle(&case.memos, shadow, k),
            "memo m{k} diverged after a rolled-back fault (cfg: part={}, fifo={}, par={})",
            case.partitioning,
            case.fifo,
            case.parallelism
        );
    }
    rt.check_invariants();
    None
}

/// `run_case` with a panic armed before the build (`build_fault`) and
/// before each script step (`faults[i]`): each names how many executions
/// from then on the fault fires, and stays armed until it does.
fn run_faulty_case(case: &Case, build_fault: Option<usize>, faults: &[Option<usize>]) {
    let fault = Arc::new(Fault::default());
    let (rt, vars, memos) = build(case, &case.init, &fault);
    let mut shadow = case.init.clone();
    if let Some(after) = build_fault {
        fault.arm(after);
    }
    for (k, m) in memos.iter().enumerate() {
        if let Some(got) = faulty(case, &rt, &memos, &shadow, || m.call(&rt, ())) {
            assert_eq!(got, oracle(&case.memos, &shadow, k));
        }
    }
    for (op, armed) in case.script.iter().zip(faults) {
        if let Some(after) = *armed {
            fault.arm(after);
        }
        match *op {
            Op::Set { var, value } => {
                let i = var % case.n_vars;
                vars[i].set(&rt, value);
                shadow[i] = value;
            }
            Op::Query { memo } => {
                let k = memo % case.memos.len();
                if let Some(got) = faulty(case, &rt, &memos, &shadow, || memos[k].call(&rt, ())) {
                    assert_eq!(got, oracle(&case.memos, &shadow, k), "memo m{k}");
                }
            }
            Op::Propagate => {
                faulty(case, &rt, &memos, &shadow, || rt.propagate());
            }
        }
    }
    fault.arm(0);
    rt.propagate();
    for (k, m) in memos.iter().enumerate() {
        assert_eq!(m.call(&rt, ()), oracle(&case.memos, &shadow, k));
    }
    assert_edges_match_fresh_build(case, &rt, &shadow);
    rt.check_invariants();
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..6,
        1usize..10,
        any::<bool>(),
        any::<bool>(),
        1usize..=2,
    )
        .prop_flat_map(|(n_vars, n_memos, partitioning, fifo, parallelism)| {
            let memo_spec = move |k: usize| {
                let input = prop_oneof![
                    (0..n_vars).prop_map(Input::Var),
                    if k == 0 {
                        (0..n_vars).prop_map(Input::Var).boxed()
                    } else {
                        (0..k).prop_map(Input::Memo).boxed()
                    }
                ];
                (
                    proptest::collection::vec((input, -3i64..4), 1..4),
                    -10i64..10,
                    any::<bool>(),
                )
                    .prop_map(|(inputs, offset, eager)| MemoSpec {
                        inputs,
                        offset,
                        eager,
                    })
            };
            let memos: Vec<_> = (0..n_memos).map(memo_spec).collect();
            let op = prop_oneof![
                4 => (any::<usize>(), -100i64..100).prop_map(|(var, value)| Op::Set { var, value }),
                4 => any::<usize>().prop_map(|memo| Op::Query { memo }),
                1 => Just(Op::Propagate),
            ];
            (
                proptest::collection::vec(-100i64..100, n_vars),
                memos,
                proptest::collection::vec(op, 1..40),
            )
                .prop_map(move |(init, memos, script)| Case {
                    n_vars,
                    init,
                    memos,
                    script,
                    partitioning,
                    fifo,
                    parallelism,
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 5.1 for the library embedding: incremental results always
    /// match conventional from-scratch evaluation.
    #[test]
    fn incremental_matches_conventional(case in case_strategy()) {
        run_case(&case);
    }

    /// Rollback: a panic injected into a random execution during the build
    /// or a mutation script unwinds with no frame, mark or stack depth
    /// left behind, and once the fault is cleared every memo matches the
    /// from-scratch oracle again.
    #[test]
    fn injected_panics_roll_back_their_executions(
        case in case_strategy(),
        build_fault in proptest::option::of(1usize..12),
        faults in proptest::collection::vec(proptest::option::of(1usize..6), 40),
    ) {
        run_faulty_case(&case, build_fault, &faults);
    }

    /// Vars behave like plain storage under arbitrary write sequences.
    #[test]
    fn var_read_your_writes(writes in proptest::collection::vec(any::<i64>(), 1..50)) {
        let rt = Runtime::new();
        let v = rt.var(0i64);
        for &w in &writes {
            v.set(&rt, w);
            prop_assert_eq!(v.get(&rt), w);
        }
        prop_assert_eq!(v.get(&rt), *writes.last().unwrap());
    }

    /// Memoization is transparent for pure functions of the argument.
    #[test]
    fn pure_memo_is_function_of_argument(args in proptest::collection::vec(-1000i64..1000, 1..60)) {
        let rt = Runtime::new();
        let square = rt.memo("square", |_rt, x: &i64| x.wrapping_mul(*x));
        for &a in &args {
            prop_assert_eq!(square.call(&rt, a), a.wrapping_mul(a));
        }
        // Instances never exceed distinct argument count.
        let distinct: std::collections::HashSet<_> = args.iter().collect();
        prop_assert_eq!(square.instance_count(), distinct.len());
    }

    /// The typed and untyped in-place reads return every written value,
    /// for both scalar and heap-allocated types.
    #[test]
    fn in_place_reads_return_written_values(writes in proptest::collection::vec(any::<i64>(), 1..40)) {
        let rt = Runtime::new();
        let v = rt.var(0i64);
        let s = rt.var(String::new());
        for &w in &writes {
            v.set(&rt, w);
            s.set(&rt, w.to_string());
            prop_assert_eq!(v.with(&rt, |&x| x), w);
            prop_assert_eq!(v.get(&rt), w);
            prop_assert!(rt.with_value(v.node(), |val| val.dyn_eq(&w)));
            prop_assert_eq!(s.with(&rt, |x| x.len()), w.to_string().len());
            prop_assert!(rt.with_value(s.node(), |val| val.dyn_eq(&w.to_string())));
        }
    }
}
