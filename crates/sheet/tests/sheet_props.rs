//! Differential testing: the incremental sheet must agree with the
//! full-recalculation baseline under arbitrary edit/query interleavings,
//! and its batch cycle check with a topological-sort oracle.

use alphonse::Runtime;
use alphonse_sheet::{Addr, CellValue, Formula, Op, RecalcSheet, Sheet, SheetError};
use proptest::prelude::*;
use std::sync::Arc;

const W: u32 = 6;
const H: u32 = 6;

#[derive(Debug, Clone)]
enum SheetOp {
    SetNum(u32, u32, i64),
    SetRef(u32, u32, u32, u32),
    SetSum(u32, u32, u32, u32),
    SetExpr(u32, u32, u32, u32, u32, u32),
    Query(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = SheetOp> {
    let cell = || (0..W, 0..H);
    prop_oneof![
        3 => (cell(), -100i64..100).prop_map(|((c, r), v)| SheetOp::SetNum(c, r, v)),
        2 => (cell(), cell()).prop_map(|((c, r), (c2, r2))| SheetOp::SetRef(c, r, c2, r2)),
        1 => (cell(), cell()).prop_map(|((c, r), (c2, r2))| SheetOp::SetSum(c, r, c2, r2)),
        2 => (cell(), cell(), cell())
            .prop_map(|((c, r), (a, b), (d, e))| SheetOp::SetExpr(c, r, a, b, d, e)),
        4 => cell().prop_map(|(c, r)| SheetOp::Query(c, r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_sheet_matches_recalc(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let rt = Runtime::new();
        let inc = Sheet::new(&rt, W, H);
        let base = RecalcSheet::new(W, H);
        for op in ops {
            match op {
                SheetOp::SetNum(c, r, v) => {
                    let a = Addr::new(c, r).to_string();
                    let src = v.to_string();
                    let ir = inc.set(&a, &src);
                    let br = base.set(&a, &src);
                    prop_assert_eq!(ir.is_ok(), br.is_ok());
                }
                SheetOp::SetRef(c, r, c2, r2) => {
                    let a = Addr::new(c, r).to_string();
                    let src = format!("={}", Addr::new(c2, r2));
                    // The incremental sheet rejects cycles eagerly; mirror
                    // the edit on the baseline only when accepted.
                    if inc.set(&a, &src).is_ok() {
                        base.set(&a, &src).unwrap();
                    }
                }
                SheetOp::SetSum(c, r, c2, r2) => {
                    let from = Addr::new(c.min(c2), r.min(r2));
                    let to = Addr::new(c.max(c2), r.max(r2));
                    let a = Addr::new(c, r).to_string();
                    let src = format!("=SUM({from}:{to})");
                    if inc.set(&a, &src).is_ok() {
                        base.set(&a, &src).unwrap();
                    }
                }
                SheetOp::SetExpr(c, r, a1, b1, a2, b2) => {
                    let a = Addr::new(c, r).to_string();
                    let src = format!(
                        "={} * 2 - {} / 3",
                        Addr::new(a1, b1),
                        Addr::new(a2, b2)
                    );
                    if inc.set(&a, &src).is_ok() {
                        base.set(&a, &src).unwrap();
                    }
                }
                SheetOp::Query(c, r) => {
                    let addr = Addr::new(c, r);
                    prop_assert_eq!(
                        inc.value_at(addr),
                        base.value_at(addr),
                        "cell {} diverged",
                        addr
                    );
                }
            }
        }
        // Final audit of the full grid.
        for c in 0..W {
            for r in 0..H {
                let addr = Addr::new(c, r);
                prop_assert_eq!(inc.value_at(addr), base.value_at(addr));
            }
        }
    }
}

// ---- Batch cycle check against a topological-sort oracle ----------------

/// Side of the square sheet the batch tests edit: small, so that random
/// references close cycles often.
const SIDE: u32 = 4;

fn cell_index(a: Addr) -> usize {
    (a.row * SIDE + a.col) as usize
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    (0..SIDE, 0..SIDE).prop_map(|(c, r)| Addr::new(c, r))
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    prop_oneof![
        2 => (-100i64..100).prop_map(Formula::Num),
        3 => addr_strategy().prop_map(Formula::Ref),
        1 => (addr_strategy(), addr_strategy()).prop_map(|(a, b)| Formula::Sum {
            from: Addr::new(a.col.min(b.col), a.row.min(b.row)),
            to: Addr::new(a.col.max(b.col), a.row.max(b.row)),
        }),
        2 => (addr_strategy(), addr_strategy(), -9i64..9).prop_map(|(a, b, k)| Formula::Bin {
            op: Op::Add,
            lhs: Arc::new(Formula::Ref(a)),
            rhs: Arc::new(Formula::Bin {
                op: Op::Mul,
                lhs: Arc::new(Formula::Ref(b)),
                rhs: Arc::new(Formula::Num(k)),
            }),
        }),
    ]
}

/// A batch: single edits mixed with pairs that point two cells at each
/// other, so cross-edit cycles show up in most runs. Addresses repeat
/// freely on a 16-cell sheet, exercising last-write-wins.
fn batch_strategy() -> impl Strategy<Value = Vec<(Addr, Formula)>> {
    let group = prop_oneof![
        4 => (addr_strategy(), formula_strategy()).prop_map(|e| vec![e]),
        1 => (addr_strategy(), addr_strategy())
            .prop_map(|(a, b)| vec![(a, Formula::Ref(b)), (b, Formula::Ref(a))]),
    ];
    proptest::collection::vec(group, 1..5).prop_map(|gs| gs.into_iter().flatten().collect())
}

/// In-bounds references of `f`, as cell indices.
fn refs(f: &Formula) -> Vec<usize> {
    f.references()
        .into_iter()
        .filter(|a| a.col < SIDE && a.row < SIDE)
        .map(cell_index)
        .collect()
}

/// Kahn's algorithm over the reference graph: a topological order (every
/// cell after the cells it references), or `None` if the graph has a cycle.
fn topo_order(formulas: &[Formula]) -> Option<Vec<usize>> {
    let n = formulas.len();
    let mut indegree = vec![0usize; n];
    let mut dependents = vec![Vec::new(); n];
    for (cell, f) in formulas.iter().enumerate() {
        for r in refs(f) {
            indegree[cell] += 1;
            dependents[r].push(cell);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&c| indegree[c] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(c) = ready.pop() {
        order.push(c);
        for &d in &dependents[c] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Whether `cell` reaches itself through one or more references.
fn on_cycle(formulas: &[Formula], cell: usize) -> bool {
    let mut seen = vec![false; formulas.len()];
    let mut work = refs(&formulas[cell]);
    while let Some(c) = work.pop() {
        if c == cell {
            return true;
        }
        if !std::mem::replace(&mut seen[c], true) {
            work.extend(refs(&formulas[c]));
        }
    }
    false
}

/// Evaluates `f` given the values of the cells it references.
fn eval(f: &Formula, values: &[i64]) -> i64 {
    match f {
        Formula::Num(v) => *v,
        Formula::Ref(a) => values[cell_index(*a)],
        Formula::Neg(e) => eval(e, values).wrapping_neg(),
        Formula::Bin { op, lhs, rhs } => {
            let (l, r) = (eval(lhs, values), eval(rhs, values));
            match op {
                Op::Add => l.wrapping_add(r),
                Op::Sub => l.wrapping_sub(r),
                Op::Mul => l.wrapping_mul(r),
                Op::Div => unreachable!("the generator makes no division"),
            }
        }
        Formula::Sum { .. } => refs(f)
            .into_iter()
            .fold(0i64, |acc, c| acc.wrapping_add(values[c])),
    }
}

fn all_values(sheet: &Sheet) -> Vec<CellValue> {
    (0..SIDE * SIDE)
        .map(|i| sheet.value_at(Addr::new(i % SIDE, i / SIDE)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batch_cycle_check_matches_topological_oracle(
        batches in proptest::collection::vec(batch_strategy(), 1..10)
    ) {
        let rt = Runtime::new();
        let sheet = Sheet::new(&rt, SIDE, SIDE);
        // The formulas the sheet holds, mirrored.
        let mut stored = vec![Formula::Num(0); (SIDE * SIDE) as usize];
        for batch in batches {
            let mut post = stored.clone();
            for (a, f) in &batch {
                post[cell_index(*a)] = f.clone();
            }
            let order = topo_order(&post);
            let before = all_values(&sheet);
            match sheet.set_formulas(batch.clone()) {
                Ok(()) => {
                    let order = order.expect("accepted a cyclic batch");
                    let mut want = vec![0i64; post.len()];
                    for c in order {
                        want[c] = eval(&post[c], &want);
                    }
                    let want: Vec<_> = want.into_iter().map(CellValue::Num).collect();
                    prop_assert_eq!(all_values(&sheet), want);
                    stored = post;
                }
                Err(SheetError::Cycle(a)) => {
                    prop_assert!(order.is_none(), "rejected an acyclic batch at {}", a);
                    prop_assert!(batch.iter().any(|(e, _)| *e == a), "{} was not edited", a);
                    prop_assert!(on_cycle(&post, cell_index(a)), "{} is on no cycle", a);
                    prop_assert_eq!(all_values(&sheet), before, "a rejected batch wrote");
                }
                Err(e) => prop_assert!(false, "unexpected error {}", e),
            }
        }
    }
}
