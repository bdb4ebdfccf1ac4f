//! The paper's spreadsheet (Section 7.2) as a small REPL.
//!
//! Run a scripted demo:        `cargo run --example spreadsheet_repl`
//! Run interactively:          `cargo run --example spreadsheet_repl -- --repl`
//!
//! Commands: `A1 = 42`, `B2 = =A1*2+SUM(A1:A9)`, `print A1`, `show`,
//! `stats`, `quit`.
//!
//! Tracing: `ALPHONSE_TRACE=sheet.jsonl cargo run --example
//! spreadsheet_repl` records every runtime event for the `alphonse-trace`
//! CLI (`why B2 sheet.jsonl`, `waves`, `waste`, and the `chrome`, `dot`
//! and `hot` renderers). `ALPHONSE_TRACE=1` dumps the events to stderr.

use alphonse::trace::{ActiveTrace, TraceConfig};
use alphonse::Runtime;
use alphonse_sheet::{Addr, CellValue, Sheet};
use std::io::{self, BufRead, Write};

const W: u32 = 8;
const H: u32 = 12;

/// Starts the trace session requested via `ALPHONSE_TRACE`, if any.
fn trace_from_env() -> Option<ActiveTrace> {
    let config = match TraceConfig::from_env("sheet")? {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ALPHONSE_TRACE: {e}; tracing disabled");
            return None;
        }
    };
    match config.start() {
        Ok(active) => Some(active),
        Err(e) => {
            eprintln!("ALPHONSE_TRACE: {e}; tracing disabled");
            None
        }
    }
}

fn main() {
    let trace = trace_from_env();
    let rt = Runtime::new();
    if let Some(active) = &trace {
        rt.set_sink(Some(active.sink()));
    }
    let sheet = Sheet::new(&rt, W, H);
    let interactive = std::env::args().any(|a| a == "--repl");
    if interactive {
        println!(
            "alphonse spreadsheet ({W}x{H}) — `A1 = =B2+1`, `print A1`, `show`, `stats`, `quit`"
        );
        let stdin = io::stdin();
        loop {
            print!("> ");
            io::stdout().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if !exec(&rt, &sheet, line.trim()) {
                break;
            }
        }
    } else {
        let script = [
            "A1 = 100",
            "A2 = 250",
            "A3 = 400",
            "B1 = =A1+A2+A3",
            "B2 = =SUM(A1:A3)",
            "B3 = =B1-B2",
            "C1 = =B2*2",
            "show",
            "stats",
            "A2 = 1000",
            "print B2",
            "print C1",
            "stats",
            "D1 = =D1+1",
            "show",
        ];
        for cmd in script {
            println!("> {cmd}");
            exec(&rt, &sheet, cmd);
        }
    }
    if let Some(active) = trace {
        rt.set_sink(None);
        match active.finish() {
            Ok(Some(msg)) => eprintln!("ALPHONSE_TRACE: {msg}"),
            Ok(None) => {}
            Err(e) => eprintln!("ALPHONSE_TRACE: failed to flush trace: {e}"),
        }
    }
}

/// Executes one command; returns `false` on `quit`.
fn exec(rt: &Runtime, sheet: &Sheet, line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return true;
    }
    if line == "quit" || line == "exit" {
        return false;
    }
    if line == "show" {
        show(sheet);
        return true;
    }
    if line == "stats" {
        let s = rt.stats();
        println!(
            "  nodes={} edges={} executions={} cache_hits={} propagation_steps={}",
            rt.node_count(),
            rt.edge_count(),
            s.executions,
            s.cache_hits,
            s.propagation_steps
        );
        return true;
    }
    if let Some(addr) = line.strip_prefix("print ") {
        match sheet.value(addr.trim()) {
            Ok(v) => println!("  {addr} = {v}"),
            Err(e) => println!("  error: {e}"),
        }
        return true;
    }
    if let Some((addr, src)) = line.split_once('=') {
        // `A1 = =B2+1` — the first `=` separates address from entry.
        match sheet.set(addr.trim(), src.trim()) {
            Ok(()) => {}
            Err(e) => println!("  error: {e}"),
        }
        return true;
    }
    println!("  ? unrecognized command");
    true
}

fn show(sheet: &Sheet) {
    print!("      ");
    for col in 0..W {
        print!("{:>8}", Addr::new(col, 0).to_string().trim_end_matches('1'));
    }
    println!();
    for row in 0..H {
        print!("{:>4}  ", row + 1);
        for col in 0..W {
            match sheet.value_at(Addr::new(col, row)) {
                CellValue::Num(v) => print!("{v:>8}"),
                CellValue::Error => print!("{:>8}", "#ERROR"),
            }
        }
        println!();
    }
}
