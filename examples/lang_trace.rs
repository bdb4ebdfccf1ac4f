//! Record a dynamic dependence trace for any Alphonse-L program.
//!
//! Run with `cargo run --example lang_trace -- <file.alf> <out.jsonl>`.
//!
//! The program is compiled and executed under a JSONL trace sink with a
//! generic mutation script: every procedure whose parameters are all
//! INTEGER is called for three rounds with shifting arguments, and every
//! INTEGER global is bumped between rounds so incremental propagation
//! fires. This is the same driver the `static_coverage` integration test
//! uses, exposed as a binary so CI can cross-validate the recorded trace
//! against the compiler's abstract graph through the real file formats:
//!
//! ```text
//! cargo run --example lang_trace -- prog.alf TRACE_prog.jsonl
//! alphonse-check graph --out GRAPH_prog.json prog.alf
//! alphonse-trace check-static TRACE_prog.jsonl GRAPH_prog.json
//! ```
//!
//! Runtime errors and panics (fuel exhaustion, F_ON_STACK aborts on
//! deliberately-divergent lint fixtures) are tolerated: the trace recorded
//! up to the failure is still a valid sample of the dynamic graph.

use alphonse::trace::ActiveTrace;
use alphonse::Runtime;
use alphonse_lang::hir::Ty;
use alphonse_lang::{compile, Interp, Val};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [file, out] = args.as_slice() else {
        eprintln!("usage: lang_trace <file.alf> <out.jsonl>");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lang_trace: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("lang_trace: {file}: {e}");
            return ExitCode::from(1);
        }
    };
    let active = match ActiveTrace::create(out) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lang_trace: {out}: {e}");
            return ExitCode::from(2);
        }
    };

    let rt = Runtime::new();
    rt.set_sink(Some(active.sink()));
    let interp = Interp::with_runtime(Arc::clone(&program), rt).expect("interp builds");
    // Divergent fixtures must fail fast, not hang CI.
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

    // Zero-argument method names across all types: object-valued results
    // get each one tried (dynamic dispatch sorts out which apply), so
    // maintained methods like `height()` and `value()` run too.
    let mut method_names: Vec<String> = program
        .types
        .iter()
        .flat_map(|t| t.methods.iter())
        .filter(|m| m.params.is_empty())
        .map(|m| m.name.clone())
        .collect();
    method_names.sort();
    method_names.dedup();

    let mut calls = 0usize;
    let mut failures = 0usize;
    let mut pool: Vec<Val> = Vec::new();
    for round in 0..3i64 {
        for (name, arity) in &callable {
            let args: Vec<Val> = (0..*arity as i64).map(|i| Val::Int(round + i)).collect();
            // The runtime aborts F_ON_STACK violations with a panic by
            // design; the trace up to the abort is still valid.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| interp.call(name, args)));
            calls += 1;
            match outcome {
                Ok(Ok(v @ Val::Obj(_))) if pool.len() < 64 => pool.push(v),
                Ok(Ok(_)) => {}
                _ => failures += 1,
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
    drop(interp); // flushes the sink

    eprintln!("lang_trace: {file}: {calls} calls driven ({failures} failed), trace in {out}");
    ExitCode::SUCCESS
}
