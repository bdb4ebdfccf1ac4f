//! The Alphonse-L front end never panics: seeded mutants of the
//! `tests/lint/*.alf` corpus go through every static stage — `parse`,
//! `unparse` and a re-parse, `compile`, effect inference, the lints, the
//! instrumentation analysis and the static dependency graph. A stage may
//! reject a mutant with an error; none may panic.
//!
//! The interpreter is left out: a mutant may not terminate.
//!
//! Mutations are byte deletions, span cuts, token insertions and
//! duplicated chunks. Each case picks a corpus file and applies one to three
//! of them; the case RNG is seeded from the test's name, so a failure
//! reproduces and its message carries the mutant.

use alphonse_lang::{analysis, compile, depgraph, effects, lints, parse, unparse};
use proptest::prelude::*;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The lint corpus, sorted by file name.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint");
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)
            .expect("tests/lint exists")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "alf"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "lint corpus is empty");
        (paths.iter())
            .map(|p| fs::read_to_string(p).expect("fixture is readable"))
            .collect()
    })
}

/// Tokens and fragments spliced in by [`Edit::Insert`]: keywords, pragmas,
/// punctuation, an unterminated comment and string, and an integer literal
/// past `i64`.
const TOKENS: &[&str] = &[
    "BEGIN",
    "END",
    "PROCEDURE",
    "VAR",
    "TYPE",
    "OBJECT",
    "METHODS",
    "OVERRIDES",
    "IF",
    "THEN",
    "ELSIF",
    "ELSE",
    "WHILE",
    "DO",
    "FOR",
    "TO",
    "BY",
    "RETURN",
    "NEW",
    "NIL",
    "TRUE",
    "ARRAY",
    "OF",
    "DIV",
    "MOD",
    "NOT",
    "INTEGER",
    "(*CACHED*)",
    "(*MAINTAINED*)",
    "(*UNCHECKED*)",
    "(*EAGER*)",
    "(*",
    "*)",
    "\"",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    ":",
    ":=",
    "=",
    "#",
    "<",
    ">=",
    "+",
    "-",
    "*",
    "&",
    "^",
    "x",
    "0",
    "99999999999999999999999",
    " ",
    "\n",
];

/// One mutation. Offsets and lengths are reduced modulo the current
/// source length when applied.
#[derive(Debug, Clone)]
enum Edit {
    /// Delete the byte at an offset.
    DeleteByte(usize),
    /// Cut a span of up to 40 bytes.
    Cut(usize, usize),
    /// Insert a token of [`TOKENS`] at an offset.
    Insert(usize, usize),
    /// Copy a chunk of up to 80 bytes to another offset.
    Duplicate(usize, usize, usize),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<usize>().prop_map(Edit::DeleteByte),
        (any::<usize>(), 1usize..40).prop_map(|(at, len)| Edit::Cut(at, len)),
        (any::<usize>(), 0..TOKENS.len()).prop_map(|(at, t)| Edit::Insert(at, t)),
        (any::<usize>(), 1usize..80, any::<usize>())
            .prop_map(|(from, len, to)| Edit::Duplicate(from, len, to)),
    ]
}

/// Applies `edit` to the bytes of a source text.
fn apply(src: &mut Vec<u8>, edit: &Edit) {
    let n = src.len();
    match *edit {
        Edit::DeleteByte(at) if n > 0 => {
            src.remove(at % n);
        }
        Edit::Cut(at, len) if n > 0 => {
            let at = at % n;
            src.drain(at..(at + len).min(n));
        }
        Edit::Insert(at, t) => {
            let at = at % (n + 1);
            src.splice(at..at, TOKENS[t].bytes());
        }
        Edit::Duplicate(from, len, to) if n > 0 => {
            let from = from % n;
            let chunk = src[from..(from + len).min(n)].to_vec();
            let to = to % (n + 1);
            src.splice(to..to, chunk);
        }
        _ => {}
    }
}

/// Runs every static stage on `src`, stopping at the first one that
/// rejects it.
fn front_end(src: &str) {
    let Ok(module) = parse(src) else {
        return;
    };
    let printed = unparse(&module);
    let _ = parse(&printed);
    let Ok(program) = compile(src) else {
        return;
    };
    let effects = effects::infer(&program);
    let _ = lints::lint_with(&program, &effects);
    let _ = analysis::analyze_with(&program, &effects);
    let _ = depgraph::build(&program, &effects);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8_000))]

    #[test]
    fn front_end_never_panics_on_corpus_mutants(
        file in any::<usize>(),
        edits in proptest::collection::vec(edit_strategy(), 1..4),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[file % corpus.len()].clone().into_bytes();
        for edit in &edits {
            apply(&mut bytes, edit);
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| front_end(&src)));
        prop_assert!(outcome.is_ok(), "front end panicked on mutant {edits:?}:\n{src}");
    }
}

/// The unmutated corpus passes every stage too, so the mutants start from
/// programs that reach the back half of the pipeline.
#[test]
fn corpus_compiles_unmutated() {
    for src in corpus() {
        let program = compile(src).expect("corpus fixture compiles");
        let effects = effects::infer(&program);
        let _ = lints::lint_with(&program, &effects);
        let _ = analysis::analyze_with(&program, &effects);
        let _ = depgraph::build(&program, &effects);
    }
}
