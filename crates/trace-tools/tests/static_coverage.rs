//! Dynamic ⊆ static: cross-validation of the runtime dependence graph
//! against the compiler's abstract dependency graph.
//!
//! Two suites share one generic driver ([`drive`]):
//!
//! * the whole lint corpus (the paper's programs plus every lint fixture)
//!   is executed under a `JsonlSink` and the recorded trace is checked
//!   against `depgraph::build` output via the same
//!   [`staticgraph::check`] logic the `alphonse-trace check-static` CLI
//!   runs in CI;
//! * a proptest harness generates hundreds of random Alphonse-L programs
//!   (globals, plain/cached procedures, checked/unchecked reads, tracked
//!   writes, calls) and asserts the over-approximation holds for every
//!   one — any dynamic edge without static cover is a soundness bug in
//!   the abstract interpretation.

mod common;

use alphonse::Runtime;
use alphonse_lang::hir::Ty;
use alphonse_lang::{compile, depgraph, effects, Interp, Val};
use alphonse_trace_tools::model::TraceFile;
use alphonse_trace_tools::staticgraph::{self, StaticGraphFile};
use common::Capture;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Executes `source` under a JSONL trace with a generic mutator script:
/// call every all-INTEGER-parameter procedure, try every zero-argument
/// method on object-valued results (so maintained methods like `height()`
/// run too), bump every INTEGER global, and repeat with shifted arguments.
/// Runtime errors and panics (fuel exhaustion and F_ON_STACK aborts on
/// deliberately-divergent lint fixtures, NIL dereferences in
/// partially-driven programs) are ignored — whatever trace was produced
/// up to that point is still a valid sample of the dynamic graph.
///
/// Returns the parsed trace and the program's static graph, round-tripped
/// through its JSON serialization so the document format is exercised too.
fn drive(source: &str) -> (TraceFile, StaticGraphFile) {
    let program = compile(source).expect("program compiles");
    let table = effects::infer(&program);
    let graph_json = depgraph::build(&program, &table).to_json(&program, "test.alf");
    let graph = StaticGraphFile::parse(&graph_json).expect("graph round-trips");

    let capture = Capture::new();
    let rt = Runtime::new();
    rt.set_sink(Some(capture.sink()));
    let interp = Interp::with_runtime(Arc::clone(&program), rt).expect("interp builds");
    // Deliberately-divergent fixtures (W05) must fail fast, not hang.
    interp.set_fuel(200_000);

    let callable: Vec<(String, usize)> = program
        .procs
        .iter()
        .filter(|p| p.params.iter().all(|(_, t)| *t == Ty::Integer))
        .map(|p| (p.name.clone(), p.params.len()))
        .collect();
    let int_globals: Vec<String> = program
        .globals
        .iter()
        .filter(|g| g.ty == Ty::Integer)
        .map(|g| g.name.clone())
        .collect();

    let mut method_names: Vec<String> = program
        .types
        .iter()
        .flat_map(|t| t.methods.iter())
        .filter(|m| m.params.is_empty())
        .map(|m| m.name.clone())
        .collect();
    method_names.sort();
    method_names.dedup();

    let mut pool: Vec<Val> = Vec::new();
    for round in 0..3i64 {
        for (name, arity) in &callable {
            let args: Vec<Val> = (0..*arity as i64).map(|i| Val::Int(round + i)).collect();
            // The runtime aborts F_ON_STACK violations (w05_bad) with a
            // panic by design; the trace up to the abort is still valid.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| interp.call(name, args)));
            if let Ok(Ok(v @ Val::Obj(_))) = outcome {
                if pool.len() < 64 {
                    pool.push(v);
                }
            }
        }
        for obj in pool.clone() {
            for m in &method_names {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    interp.call_method(obj.clone(), m, vec![])
                }));
                if let Ok(Ok(v @ Val::Obj(_))) = outcome {
                    if pool.len() < 64 {
                        pool.push(v);
                    }
                }
            }
        }
        for g in &int_globals {
            if let Ok(Val::Int(v)) = interp.global(g) {
                let _ = interp.set_global(g, Val::Int(v + 1));
            }
        }
    }
    drop(interp);

    let trace = TraceFile::parse(&capture.text()).expect("trace parses");
    (trace, graph)
}

fn assert_covered(name: &str, source: &str) {
    let (trace, graph) = drive(source);
    let report = staticgraph::check(&trace, &graph);
    assert!(
        report.is_covered(),
        "{name}: dynamic edge without static cover\n{}",
        report.render()
    );
}

#[test]
fn lint_corpus_dynamic_edges_are_statically_covered() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lang/tests/lint");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("lint corpus exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "alf"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 22, "corpus shrank: {paths:?}");
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = fs::read_to_string(&path).expect("fixture is readable");
        assert_covered(&name, &source);
    }
}

// ---------------------------------------------------------------------------
// Random-program generation
// ---------------------------------------------------------------------------

/// A random expression over `n_globals` globals, `n_params` parameters of
/// the current procedure, and calls to the first `n_callees` procedures
/// (lower-indexed only, so generated programs never recurse and always
/// terminate). `depth` bounds nesting.
#[derive(Debug, Clone)]
enum GenExpr {
    Lit(i64),
    Param(usize),
    Global(usize),
    UncheckedGlobal(usize),
    Bin(char, Box<GenExpr>, Box<GenExpr>),
    Call(usize, Vec<GenExpr>),
}

/// One generated procedure: cached or plain, arity, body statements
/// (assignments to globals) and a return expression.
#[derive(Debug, Clone)]
struct GenProc {
    cached: bool,
    arity: usize,
    writes: Vec<(usize, GenExpr)>,
    ret: GenExpr,
}

#[derive(Debug, Clone)]
struct GenProgram {
    n_globals: usize,
    procs: Vec<GenProc>,
}

fn expr_strategy(
    n_globals: usize,
    n_params: usize,
    arities: Vec<usize>,
    depth: u32,
) -> BoxedStrategy<GenExpr> {
    let leaf = {
        let mut arms: Vec<(u32, BoxedStrategy<GenExpr>)> =
            vec![(1, (-9i64..10).prop_map(GenExpr::Lit).boxed())];
        if n_params > 0 {
            arms.push((1, (0..n_params).prop_map(GenExpr::Param).boxed()));
        }
        if n_globals > 0 {
            arms.push((2, (0..n_globals).prop_map(GenExpr::Global).boxed()));
            arms.push((1, (0..n_globals).prop_map(GenExpr::UncheckedGlobal).boxed()));
        }
        proptest::strategy::Union::new(arms).boxed()
    };
    if depth == 0 {
        return leaf;
    }
    let sub = expr_strategy(n_globals, n_params, arities.clone(), depth - 1);
    let mut arms: Vec<(u32, BoxedStrategy<GenExpr>)> = vec![
        (2, leaf.clone()),
        (
            2,
            (
                prop_oneof![Just('+'), Just('-'), Just('*')],
                sub.clone(),
                sub.clone(),
            )
                .prop_map(|(op, a, b)| GenExpr::Bin(op, Box::new(a), Box::new(b)))
                .boxed(),
        ),
    ];
    if !arities.is_empty() {
        arms.push((
            2,
            (0..arities.len())
                .prop_flat_map(move |callee| {
                    let argc = arities[callee];
                    (
                        Just(callee),
                        proptest::collection::vec(sub.clone(), argc..argc + 1),
                    )
                })
                .prop_map(|(callee, args)| GenExpr::Call(callee, args))
                .boxed(),
        ));
    }
    proptest::strategy::Union::new(arms).boxed()
}

fn program_strategy() -> BoxedStrategy<GenProgram> {
    (2usize..5, 1usize..5)
        .prop_flat_map(|(n_globals, n_procs)| {
            // Arities are fixed first so call sites can match them.
            proptest::collection::vec(0usize..3, n_procs..n_procs + 1)
                .prop_flat_map(move |arities| {
                    let procs: Vec<BoxedStrategy<GenProc>> = (0..arities.len())
                        .map(|i| {
                            let arity = arities[i];
                            let callees: Vec<usize> = arities[..i].to_vec();
                            let expr = expr_strategy(n_globals, arity, callees, 2);
                            (
                                any::<bool>(),
                                proptest::collection::vec(((0..n_globals), expr.clone()), 0..3),
                                expr,
                            )
                                .prop_map(move |(cached, writes, ret)| GenProc {
                                    cached,
                                    arity,
                                    writes,
                                    ret,
                                })
                                .boxed()
                        })
                        .collect();
                    procs
                })
                .prop_map(move |procs| GenProgram { n_globals, procs })
        })
        .boxed()
}

fn render_expr(e: &GenExpr, out: &mut String) {
    match e {
        GenExpr::Lit(v) => {
            if *v < 0 {
                out.push_str(&format!("(0 - {})", -v));
            } else {
                out.push_str(&v.to_string());
            }
        }
        GenExpr::Param(i) => out.push_str(&format!("a{i}")),
        GenExpr::Global(g) => out.push_str(&format!("g{g}")),
        GenExpr::UncheckedGlobal(g) => out.push_str(&format!("((*UNCHECKED*) g{g})")),
        GenExpr::Bin(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            out.push_str(&format!(" {op} "));
            render_expr(b, out);
            out.push(')');
        }
        GenExpr::Call(p, args) => {
            out.push_str(&format!("P{p}("));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, out);
            }
            out.push(')');
        }
    }
}

fn render_program(p: &GenProgram) -> String {
    let mut out = String::new();
    let names: Vec<String> = (0..p.n_globals).map(|g| format!("g{g}")).collect();
    out.push_str(&format!("VAR {} : INTEGER;\n", names.join(", ")));
    for (i, proc) in p.procs.iter().enumerate() {
        if proc.cached {
            out.push_str("(*CACHED*) ");
        }
        let params: Vec<String> = (0..proc.arity).map(|a| format!("a{a}")).collect();
        let sig = if params.is_empty() {
            String::new()
        } else {
            format!("{} : INTEGER", params.join(", "))
        };
        out.push_str(&format!("PROCEDURE P{i}({sig}) : INTEGER =\nBEGIN\n"));
        for (g, e) in &proc.writes {
            out.push_str(&format!("    g{g} := "));
            render_expr(e, &mut out);
            out.push_str(";\n");
        }
        out.push_str("    RETURN ");
        render_expr(&proc.ret, &mut out);
        out.push_str(&format!(";\nEND P{i};\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The abstract graph is a sound over-approximation: for every random
    /// program and a generic mutation script, every dependence edge the
    /// runtime records is covered by a static read/write/call edge.
    #[test]
    fn random_programs_dynamic_subset_of_static(p in program_strategy()) {
        let source = render_program(&p);
        let (trace, graph) = drive(&source);
        let report = staticgraph::check(&trace, &graph);
        prop_assert!(
            report.is_covered(),
            "dynamic edge without static cover in:\n{source}\n{}",
            report.render()
        );
    }
}
