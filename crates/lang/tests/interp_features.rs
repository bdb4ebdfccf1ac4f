//! Feature-level coverage of the Alphonse-L interpreter: control flow,
//! text handling, arrays, inheritance, output, strategies, and failure
//! modes — each in both execution models where meaningful.

use alphonse_lang::{compile, Interp, LangError, Mode, Val};

fn run(src: &str, mode: Mode) -> Interp {
    Interp::new(compile(src).expect("program compiles"), mode).unwrap()
}

fn both(src: &str) -> [Interp; 2] {
    [run(src, Mode::Conventional), run(src, Mode::Alphonse)]
}

#[test]
fn loops_and_arithmetic() {
    let src = r#"
        PROCEDURE SumTo(n : INTEGER) : INTEGER =
        VAR s : INTEGER := 0;
        BEGIN
            FOR i := 1 TO n DO s := s + i; END;
            RETURN s;
        END SumTo;
        PROCEDURE CountDown(n : INTEGER) : INTEGER =
        VAR c : INTEGER := 0;
        BEGIN
            FOR i := n TO 1 BY -1 DO c := c + 1; END;
            RETURN c;
        END CountDown;
        PROCEDURE Collatz(n : INTEGER) : INTEGER =
        VAR steps : INTEGER := 0;
        BEGIN
            WHILE n # 1 DO
                IF n MOD 2 = 0 THEN n := n DIV 2;
                ELSE n := 3 * n + 1;
                END;
                steps := steps + 1;
            END;
            RETURN steps;
        END Collatz;
    "#;
    for interp in both(src) {
        assert_eq!(
            interp.call("SumTo", vec![Val::Int(100)]).unwrap(),
            Val::Int(5050)
        );
        assert_eq!(
            interp.call("SumTo", vec![Val::Int(0)]).unwrap(),
            Val::Int(0)
        );
        assert_eq!(
            interp.call("CountDown", vec![Val::Int(5)]).unwrap(),
            Val::Int(5)
        );
        assert_eq!(
            interp.call("Collatz", vec![Val::Int(27)]).unwrap(),
            Val::Int(111)
        );
    }
}

#[test]
fn text_operations_and_print() {
    let src = r#"
        PROCEDURE Greet(name : TEXT) : TEXT =
        BEGIN RETURN "hello, " & name & "!"; END Greet;
        PROCEDURE Shout(n : INTEGER) =
        BEGIN
            FOR i := 1 TO n DO Print("hi"); END;
            Print(n * 10);
            Print(TRUE);
        END Shout;
    "#;
    for interp in both(src) {
        assert_eq!(
            interp.call("Greet", vec![Val::text("world")]).unwrap(),
            Val::text("hello, world!")
        );
        interp.call("Shout", vec![Val::Int(2)]).unwrap();
        assert_eq!(interp.take_output(), "hi\nhi\n20\nTRUE\n");
        assert_eq!(interp.output(), "", "take_output drains");
    }
}

#[test]
fn arrays_read_write_len() {
    let src = r#"
        VAR data : ARRAY OF INTEGER;
        PROCEDURE Init(n : INTEGER) =
        BEGIN
            data := NEW(ARRAY OF INTEGER, n);
            FOR i := 0 TO n - 1 DO data[i] := i * i; END;
        END Init;
        PROCEDURE Get(i : INTEGER) : INTEGER =
        BEGIN RETURN data[i]; END Get;
        PROCEDURE Size() : INTEGER =
        BEGIN RETURN LEN(data); END Size;
        (*CACHED*) PROCEDURE SumAll() : INTEGER =
        VAR s : INTEGER := 0;
        BEGIN
            FOR i := 0 TO LEN(data) - 1 DO s := s + data[i]; END;
            RETURN s;
        END SumAll;
    "#;
    for interp in both(src) {
        interp.call("Init", vec![Val::Int(10)]).unwrap();
        assert_eq!(interp.call("Size", vec![]).unwrap(), Val::Int(10));
        assert_eq!(interp.call("Get", vec![Val::Int(7)]).unwrap(), Val::Int(49));
        assert_eq!(interp.call("SumAll", vec![]).unwrap(), Val::Int(285));
    }
    // Incremental: SumAll caches; element writes invalidate it.
    let interp = run(src, Mode::Alphonse);
    interp.call("Init", vec![Val::Int(10)]).unwrap();
    assert_eq!(interp.call("SumAll", vec![]).unwrap(), Val::Int(285));
    let rt = interp.runtime().unwrap().clone();
    let before = rt.stats();
    assert_eq!(interp.call("SumAll", vec![]).unwrap(), Val::Int(285));
    assert_eq!(rt.stats().delta_since(&before).executions, 0, "cached");
}

#[test]
fn array_errors() {
    let src = r#"
        VAR data : ARRAY OF INTEGER;
        PROCEDURE MakeIt(n : INTEGER) =
        BEGIN data := NEW(ARRAY OF INTEGER, n); END MakeIt;
        PROCEDURE Get(i : INTEGER) : INTEGER =
        BEGIN RETURN data[i]; END Get;
    "#;
    let interp = run(src, Mode::Alphonse);
    // Indexing a NIL array.
    let err = interp.call("Get", vec![Val::Int(0)]).unwrap_err();
    assert!(err.to_string().contains("NIL array"), "{err}");
    interp.call("MakeIt", vec![Val::Int(3)]).unwrap();
    for bad in [-1i64, 3, 1000] {
        let err = interp.call("Get", vec![Val::Int(bad)]).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }
    let err = interp.call("MakeIt", vec![Val::Int(-5)]).unwrap_err();
    assert!(err.to_string().contains("negative array size"), "{err}");
}

#[test]
fn method_inheritance_three_levels() {
    let src = r#"
        TYPE A = OBJECT
            tag : INTEGER;
        METHODS
            describe() : TEXT := DescA;
            id() : INTEGER := IdImpl;
        END;
        TYPE B = A OBJECT
        OVERRIDES
            describe := DescB;
        END;
        TYPE C = B OBJECT
        OVERRIDES
            describe := DescC;
        END;
        PROCEDURE DescA(o : A) : TEXT = BEGIN RETURN "A"; END DescA;
        PROCEDURE DescB(o : B) : TEXT = BEGIN RETURN "B"; END DescB;
        PROCEDURE DescC(o : C) : TEXT = BEGIN RETURN "C"; END DescC;
        PROCEDURE IdImpl(o : A) : INTEGER = BEGIN RETURN o.tag; END IdImpl;

        PROCEDURE Describe(o : A) : TEXT =
        BEGIN RETURN o.describe(); END Describe;
    "#;
    for interp in both(src) {
        for (ty, expect) in [("A", "A"), ("B", "B"), ("C", "C")] {
            let o = interp.new_object(ty).unwrap();
            interp.set_field(&o, "tag", Val::Int(7)).unwrap();
            assert_eq!(
                interp.call("Describe", vec![o.clone()]).unwrap(),
                Val::text(expect)
            );
            // Inherited (non-overridden) method works on subtypes.
            assert_eq!(interp.call_method(o, "id", vec![]).unwrap(), Val::Int(7));
        }
    }
}

#[test]
fn runtime_errors_are_reported() {
    let src = r#"
        PROCEDURE DivBy(n : INTEGER) : INTEGER =
        BEGIN RETURN 100 DIV n; END DivBy;
        PROCEDURE ModBy(n : INTEGER) : INTEGER =
        BEGIN RETURN 100 MOD n; END ModBy;
        TYPE T = OBJECT x : INTEGER; END;
        PROCEDURE Deref(o : T) : INTEGER =
        BEGIN RETURN o.x; END Deref;
        PROCEDURE NoReturn(n : INTEGER) : INTEGER =
        BEGIN
            IF n > 0 THEN RETURN n; END;
        END NoReturn;
        PROCEDURE Spin() =
        BEGIN WHILE TRUE DO END; END Spin;
    "#;
    for interp in both(src) {
        assert_eq!(
            interp.call("DivBy", vec![Val::Int(4)]).unwrap(),
            Val::Int(25)
        );
        assert!(matches!(
            interp.call("DivBy", vec![Val::Int(0)]),
            Err(LangError::Runtime { .. })
        ));
        assert!(matches!(
            interp.call("ModBy", vec![Val::Int(0)]),
            Err(LangError::Runtime { .. })
        ));
        assert!(interp
            .call("Deref", vec![Val::Nil])
            .unwrap_err()
            .to_string()
            .contains("NIL"));
        assert!(interp
            .call("NoReturn", vec![Val::Int(0)])
            .unwrap_err()
            .to_string()
            .contains("without RETURN"));
        interp.set_fuel(10_000);
        assert!(interp
            .call("Spin", vec![])
            .unwrap_err()
            .to_string()
            .contains("fuel"));
    }
}

#[test]
fn eager_maintained_method_updates_on_propagate() {
    let src = r#"
        TYPE Box = OBJECT
            v : INTEGER;
        METHODS
            (*MAINTAINED EAGER*) doubled() : INTEGER := Doubled;
        END;
        PROCEDURE Doubled(b : Box) : INTEGER =
        BEGIN RETURN b.v * 2; END Doubled;
    "#;
    let interp = run(src, Mode::Alphonse);
    let b = interp.new_object("Box").unwrap();
    interp.set_field(&b, "v", Val::Int(5)).unwrap();
    assert_eq!(
        interp.call_method(b.clone(), "doubled", vec![]).unwrap(),
        Val::Int(10)
    );
    interp.set_field(&b, "v", Val::Int(9)).unwrap();
    interp.propagate().unwrap(); // eager: updates now
    let rt = interp.runtime().unwrap().clone();
    let before = rt.stats();
    assert_eq!(
        interp.call_method(b, "doubled", vec![]).unwrap(),
        Val::Int(18)
    );
    assert_eq!(
        rt.stats().delta_since(&before).executions,
        0,
        "already updated during propagate"
    );
}

#[test]
fn host_api_errors() {
    let src = "VAR g : INTEGER; TYPE T = OBJECT x : INTEGER; END;";
    let interp = run(src, Mode::Alphonse);
    assert!(interp.call("Nope", vec![]).is_err());
    assert!(interp.global("nope").is_err());
    assert!(interp.set_global("nope", Val::Int(1)).is_err());
    assert!(interp.new_object("Nope").is_err());
    let t = interp.new_object("T").unwrap();
    assert!(interp.field(&t, "nope").is_err());
    assert!(interp.field(&Val::Int(3), "x").is_err());
    assert!(interp.call_method(Val::Nil, "m", vec![]).is_err());
    assert!(interp.call_method(t, "nope", vec![]).is_err());
    assert_eq!(interp.global("g").unwrap(), Val::Int(0), "default value");
}

#[test]
fn tracked_slots_grow_only_under_incremental_reads() {
    let src = r#"
        TYPE P = OBJECT x, y : INTEGER; END;
        VAR p : P;
        PROCEDURE Mk() = BEGIN p := NEW(P); p.x := 1; p.y := 2; END Mk;
        (*CACHED*) PROCEDURE GetX() : INTEGER = BEGIN RETURN p.x; END GetX;
        PROCEDURE GetYPlain() : INTEGER = BEGIN RETURN p.y; END GetYPlain;
    "#;
    let interp = run(src, Mode::Alphonse);
    interp.call("Mk", vec![]).unwrap();
    assert_eq!(interp.tracked_slots(), 0, "no tracked slots before reads");
    interp.call("GetYPlain", vec![]).unwrap();
    assert_eq!(interp.tracked_slots(), 0, "plain proc reads do not promote");
    interp.call("GetX", vec![]).unwrap();
    assert_eq!(interp.tracked_slots(), 1, "only p.x promoted (Algorithm 3)");
}

#[test]
fn bulk_global_writes_commit_as_one_batch() {
    let src = r#"
        VAR a, b, c : INTEGER;
        (*CACHED*) PROCEDURE Sum() : INTEGER = BEGIN RETURN a + b + c; END Sum;
    "#;
    for interp in both(src) {
        interp.call("Sum", vec![]).unwrap();
        interp
            .set_globals([
                ("a", Val::Int(1)),
                ("b", Val::Int(2)),
                ("a", Val::Int(10)), // last write wins
                ("c", Val::Int(3)),
            ])
            .unwrap();
        assert_eq!(interp.call("Sum", vec![]).unwrap(), Val::Int(15));
        assert_eq!(interp.global("a").unwrap(), Val::Int(10));
        if let Some(rt) = interp.runtime() {
            let s = rt.stats();
            assert_eq!(s.batches, 1);
            assert_eq!(s.batched_writes, 4);
            assert_eq!(s.coalesced_writes, 1);
        }
    }
}

#[test]
fn bulk_global_writes_are_atomic_on_unknown_names() {
    let src = "VAR a : INTEGER;";
    let interp = run(src, Mode::Alphonse);
    assert!(interp
        .set_globals([("a", Val::Int(5)), ("nope", Val::Int(1))])
        .is_err());
    assert_eq!(
        interp.global("a").unwrap(),
        Val::Int(0),
        "failed bulk write must not apply any edit"
    );
}

#[test]
fn bulk_field_writes_match_sequential_writes() {
    let src = r#"
        TYPE P = OBJECT x, y : INTEGER; END;
        VAR p : P;
        PROCEDURE Mk() = BEGIN p := NEW(P); END Mk;
        (*CACHED*) PROCEDURE Mag() : INTEGER =
        BEGIN RETURN p.x * p.x + p.y * p.y; END Mag;
    "#;
    for interp in both(src) {
        interp.call("Mk", vec![]).unwrap();
        interp.call("Mag", vec![]).unwrap(); // promotes p.x / p.y if tracked
        let p = interp.global("p").unwrap();
        interp
            .set_fields([(&p, "x", Val::Int(3)), (&p, "y", Val::Int(4))])
            .unwrap();
        assert_eq!(interp.call("Mag", vec![]).unwrap(), Val::Int(25));
        assert!(interp
            .set_fields([(&p, "x", Val::Int(9)), (&p, "nope", Val::Int(0))])
            .is_err());
        assert_eq!(
            interp.field(&p, "x").unwrap(),
            Val::Int(3),
            "failed bulk write must not apply any edit"
        );
    }
}

#[test]
fn bulk_element_writes_match_sequential_writes() {
    let src = r#"
        VAR data : ARRAY OF INTEGER;
        PROCEDURE Init(n : INTEGER) =
        BEGIN data := NEW(ARRAY OF INTEGER, n); END Init;
        (*CACHED*) PROCEDURE SumAll() : INTEGER =
        VAR s : INTEGER := 0;
        BEGIN
            FOR i := 0 TO LEN(data) - 1 DO s := s + data[i]; END;
            RETURN s;
        END SumAll;
    "#;
    for interp in both(src) {
        interp.call("Init", vec![Val::Int(4)]).unwrap();
        interp.call("SumAll", vec![]).unwrap(); // promotes elements if tracked
        let data = interp.global("data").unwrap();
        interp
            .set_elements(
                &data,
                [(0, Val::Int(1)), (2, Val::Int(2)), (0, Val::Int(10))],
            )
            .unwrap();
        assert_eq!(interp.call("SumAll", vec![]).unwrap(), Val::Int(12));
        // A bad index leaves the array untouched.
        assert!(interp
            .set_elements(&data, [(1, Val::Int(50)), (99, Val::Int(0))])
            .is_err());
        assert_eq!(interp.call("SumAll", vec![]).unwrap(), Val::Int(12));
    }
    // Non-array target.
    let interp = run(src, Mode::Alphonse);
    let err = interp
        .set_elements(&Val::Int(5), [(0, Val::Int(0))])
        .unwrap_err();
    assert!(err.to_string().contains("non-array"), "{err}");
}

#[test]
fn steps_counter_and_debug() {
    let src = "PROCEDURE F() : INTEGER = BEGIN RETURN 1; END F;";
    let interp = run(src, Mode::Conventional);
    let s0 = interp.steps();
    interp.call("F", vec![]).unwrap();
    assert!(interp.steps() > s0);
    assert!(format!("{interp:?}").contains("Conventional"));
    assert_eq!(interp.mode(), Mode::Conventional);
    assert!(interp.runtime().is_none());
    assert_eq!(interp.heap_objects(), 0);
}

#[test]
fn cached_lru_pragma_bounds_the_value_cache() {
    // The paper (§3.3): "Additional pragma arguments allow the
    // specification of the caching technique, cache size, and the
    // replacement algorithm."
    let src = r#"
        (*CACHED LRU 2*) PROCEDURE Square(n : INTEGER) : INTEGER =
        BEGIN
            RETURN n * n;
        END Square;
    "#;
    let interp = run(src, Mode::Alphonse);
    let rt = interp.runtime().unwrap().clone();
    // Three distinct arguments with capacity 2: the first gets evicted.
    for k in [1i64, 2, 3] {
        assert_eq!(
            interp.call("Square", vec![Val::Int(k)]).unwrap(),
            Val::Int(k * k)
        );
    }
    assert_eq!(rt.stats().executions, 3);
    // 2 and 3 are live (no recomputation)…
    interp.call("Square", vec![Val::Int(3)]).unwrap();
    assert_eq!(rt.stats().executions, 3);
    // …1 was evicted and recomputes.
    interp.call("Square", vec![Val::Int(1)]).unwrap();
    assert_eq!(rt.stats().executions, 4);
}

#[test]
fn lru_pragma_round_trips_through_unparse() {
    use alphonse_lang::{parse, unparse};
    let src = "(*CACHED LRU 16*) PROCEDURE F(n : INTEGER) : INTEGER =\nBEGIN RETURN n; END F;";
    let printed = unparse(&parse(src).unwrap());
    assert!(printed.contains("(*CACHED LRU 16*)"), "{printed}");
    let reparsed = unparse(&parse(&printed).unwrap());
    assert_eq!(printed, reparsed);
}

#[test]
fn bad_lru_capacity_is_a_lex_error() {
    for bad in ["(*CACHED LRU 0*)", "(*CACHED LRU nope*)", "(*CACHED LRU*)"] {
        let src = format!("{bad} PROCEDURE F() = BEGIN RETURN; END F;");
        assert!(compile(&src).is_err(), "{bad} should be rejected");
    }
}

#[test]
fn errors_do_not_poison_the_cache() {
    // A failing cached call must fail again on the next identical call —
    // not replay a sentinel NIL from the memo.
    let src = r#"
        VAR d : INTEGER := 0;
        (*CACHED*) PROCEDURE Div(n : INTEGER) : INTEGER =
        BEGIN RETURN n DIV d; END Div;
    "#;
    let interp = run(src, Mode::Alphonse);
    for _ in 0..3 {
        let err = interp.call("Div", vec![Val::Int(10)]).unwrap_err();
        assert!(err.to_string().contains("DIV by zero"), "{err}");
    }
    // After the mutator repairs the state, the call succeeds.
    interp.set_global("d", Val::Int(5)).unwrap();
    assert_eq!(interp.call("Div", vec![Val::Int(10)]).unwrap(), Val::Int(2));
}

#[test]
fn propagate_surfaces_eager_errors_and_recovers() {
    let src = r#"
        VAR d : INTEGER := 5;
        (*CACHED EAGER*) PROCEDURE Div() : INTEGER =
        BEGIN RETURN 100 DIV d; END Div;
    "#;
    let interp = run(src, Mode::Alphonse);
    assert_eq!(interp.call("Div", vec![]).unwrap(), Val::Int(20));
    interp.set_global("d", Val::Int(0)).unwrap();
    let err = interp.propagate().unwrap_err();
    assert!(err.to_string().contains("DIV by zero"), "{err}");
    // Repair and re-demand: the poisoned instance re-executes.
    interp.set_global("d", Val::Int(4)).unwrap();
    assert_eq!(interp.call("Div", vec![]).unwrap(), Val::Int(25));
}

#[test]
fn new_static_rejections() {
    // Duplicate parameter names.
    assert!(compile("PROCEDURE F(x : INTEGER; x : INTEGER) = BEGIN RETURN; END F;").is_err());
    // Local duplicating a parameter.
    assert!(compile("PROCEDURE F(x : INTEGER) = VAR x : INTEGER; BEGIN RETURN; END F;").is_err());
    // Builtin name collision.
    assert!(compile("PROCEDURE MAX(a : INTEGER) : INTEGER = BEGIN RETURN a; END MAX;").is_err());
    // Forward reference in a global initializer.
    assert!(compile("VAR a : INTEGER := b + 1; VAR b : INTEGER := 10;").is_err());
    // Backward reference is fine.
    assert!(compile("VAR b : INTEGER := 10; VAR a : INTEGER := b + 1;").is_ok());
    // FOR variable is read-only.
    assert!(compile("PROCEDURE F() = BEGIN FOR i := 1 TO 3 DO i := 5; END; END F;").is_err());
    // Mismatched END trailer is diagnosed by name.
    let err = compile("PROCEDURE Foo() = BEGIN RETURN; END Fo0;").unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn static_strata_seed_instance_heights() {
    // The diamond Total(Left, Right): the compiler's SCC condensation puts
    // Left/Right at stratum 1 and Total at 2, so every instance node is
    // born at its final height and the online height-raise cascade never
    // fires for the bottom-up first evaluation.
    let src = r#"
        VAR base : INTEGER := 10;
        VAR rate : INTEGER := 3;
        (*CACHED*) PROCEDURE Left() : INTEGER =
        BEGIN RETURN base * 2; END Left;
        (*CACHED*) PROCEDURE Right() : INTEGER =
        BEGIN RETURN rate + 1; END Right;
        (*CACHED*) PROCEDURE Total() : INTEGER =
        BEGIN RETURN Left() + Right(); END Total;
    "#;
    let interp = run(src, Mode::Alphonse);
    assert_eq!(interp.call("Total", vec![]).unwrap(), Val::Int(24));
    let s = interp.runtime().unwrap().stats();
    assert_eq!(s.height_seeded, 3, "all three instances took a static hint");
    assert_eq!(s.height_raises, 0, "seeded heights preempt online raises");

    // And seeding is invisible to semantics: mutate, recompute.
    interp.set_global("base", Val::Int(1)).unwrap();
    assert_eq!(interp.call("Total", vec![]).unwrap(), Val::Int(6));
}

/// An `ALPHONSE_TRACE` path that cannot be created is reported on stderr
/// and the program runs untraced. The variable is process-wide, so the
/// test re-runs itself in a child process that has it set.
#[test]
fn unwritable_trace_path_warns_and_runs_untraced() {
    const NAME: &str = "unwritable_trace_path_warns_and_runs_untraced";
    if std::env::var_os("ALPHONSE_TRACE").is_some() {
        let interp = run(
            "(*CACHED*) PROCEDURE Double(n : INTEGER) : INTEGER =
             BEGIN RETURN n + n; END Double;",
            Mode::Alphonse,
        );
        assert_eq!(
            interp.call("Double", vec![Val::Int(21)]).unwrap(),
            Val::Int(42)
        );
        return;
    }
    let unwritable = std::env::temp_dir()
        .join(format!("alphonse-no-such-dir-{}", std::process::id()))
        .join("trace.jsonl");
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", NAME, "--nocapture"])
        .env("ALPHONSE_TRACE", &unwritable)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child run failed:\n{stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 passed"),
        "the child did not run the test"
    );
    assert!(
        stderr.contains("tracing disabled"),
        "no warning on stderr:\n{stderr}"
    );
}
