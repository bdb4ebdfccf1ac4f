//! `sheet_bulk`: deep reference chains plus a row of `SUM` ranges, built in
//! one `Sheet::set_formulas` transaction, then waves of k-cell edits.

use crate::harness::{phase, Checker, Setup, Workload};
use crate::oracle::Grid;
use crate::spans::Tracer;
use alphonse::Runtime;
use alphonse_sheet::{Addr, CellValue, Formula, Op, RecalcSheet, Sheet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells edited per wave.
const WAVE_EDITS: usize = 8;
/// One edit in this many re-points a reference instead of setting a head.
const REPOINT_ONE_IN: u32 = 8;

pub struct Inputs {
    grid: Grid,
    /// Every cell as (address, formula) source text.
    texts: Vec<(String, String)>,
    seed: u64,
}

pub struct SheetBulk {
    rt: Runtime,
    sheet: Sheet,
    grid: Grid,
    rng: SmallRng,
}

/// Row of column `col`'s switch cell, whose reference toggles between its
/// own column and the next one. One switch per column, at evenly spaced
/// depths, keeps the graph's shape stationary over a run and the same for
/// every seed.
fn switch_row(g: &Grid, col: u32) -> u32 {
    1 + col * (g.depth - 1) / g.width
}

fn formula(g: &Grid, col: u32, row: u32) -> Formula {
    if row == 0 {
        return Formula::Num(g.heads[col as usize]);
    }
    let i = g.idx(col, row);
    Formula::Bin {
        op: Op::Add,
        lhs: Arc::new(Formula::Ref(Addr::new(g.src[i], row - 1))),
        rhs: Arc::new(Formula::Num(g.add[i])),
    }
}

fn sum_formula(g: &Grid, s: usize) -> Formula {
    let start = g.sum_starts[s];
    Formula::Sum {
        from: Addr::new(start, g.depth - 1),
        to: Addr::new(start + g.sum_width - 1, g.depth - 1),
    }
}

fn all_formulas(g: &Grid) -> Vec<(Addr, Formula)> {
    let mut edits = Vec::with_capacity((g.width * g.depth) as usize + g.sum_starts.len());
    for row in 0..g.depth {
        for col in 0..g.width {
            edits.push((Addr::new(col, row), formula(g, col, row)));
        }
    }
    for s in 0..g.sum_starts.len() {
        edits.push((Addr::new(s as u32, g.depth), sum_formula(g, s)));
    }
    edits
}

fn num(v: CellValue) -> i64 {
    v.num().unwrap_or(i64::MIN)
}

impl Workload for SheetBulk {
    type Inputs = Inputs;

    fn inputs(seed: u64, small: bool) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Chain depth makes the per-cell cycle walk of a bulk build cost
        // O(cells x depth): deep enough that it shows.
        let (width, depth, sums, sum_width) = if small {
            (8, 16, 4, 4)
        } else {
            (64, 256, 16, 16)
        };
        let grid = Grid::random(width, depth, sums, sum_width, &mut rng);
        // The full-recalculation sheet takes source text, so its time
        // includes parsing each formula.
        let texts = all_formulas(&grid)
            .into_iter()
            .map(|(a, f)| (a.to_string(), formula_text(&f)))
            .collect();
        Inputs { grid, texts, seed }
    }

    fn setup(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> (SheetBulk, Setup) {
        let g = &inp.grid;
        let edits = all_formulas(g);
        let (rt, construct) = phase(tr, "setup.construct", |_| Runtime::new());
        let (sheet, build) = phase(tr, "setup.build", |tr| {
            let sheet = tr.span("sheet.new", || Sheet::new(&rt, g.width, g.depth + 1));
            tr.span("sheet.set_formulas", || sheet.set_formulas(edits))
                .expect("generated grid is acyclic and in bounds");
            sheet
        });
        let bottoms = g.bottoms();
        let sums = g.sums(&bottoms);
        let (got, first_query) = phase(tr, "setup.first_query", |tr| {
            let mut got = Vec::with_capacity(bottoms.len() + sums.len());
            for c in 0..g.width {
                got.push(tr.span("sheet.value_at", || {
                    sheet.value_at(Addr::new(c, g.depth - 1))
                }));
            }
            for s in 0..sums.len() {
                got.push(tr.span("sheet.value_at", || {
                    sheet.value_at(Addr::new(s as u32, g.depth))
                }));
            }
            got
        });
        for (v, want) in got.into_iter().zip(bottoms.iter().chain(&sums)) {
            ck.check(num(v), *want);
        }
        let w = SheetBulk {
            rt,
            sheet,
            grid: g.clone(),
            rng: SmallRng::seed_from_u64(inp.seed ^ 0x5EED_0001),
        };
        (
            w,
            Setup {
                construct,
                build,
                first_query,
            },
        )
    }

    fn conventional(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> f64 {
        let g = &inp.grid;
        let bottoms = g.bottoms();
        let sums = g.sums(&bottoms);
        let ((got, _), secs) = phase(tr, "setup.conventional", |_| {
            let s = RecalcSheet::new(g.width, g.depth + 1);
            for (a, f) in &inp.texts {
                s.set(a, f).expect("generated formula parses");
            }
            let mut got: Vec<CellValue> = (0..g.width)
                .map(|c| s.value_at(Addr::new(c, g.depth - 1)))
                .collect();
            got.extend((0..sums.len()).map(|i| s.value_at(Addr::new(i as u32, g.depth))));
            (got, s)
        });
        for (v, want) in got.into_iter().zip(bottoms.iter().chain(&sums)) {
            ck.check(num(v), *want);
        }
        secs
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn update(&mut self, tr: &mut Tracer, ck: &mut Checker) -> Duration {
        let g = &mut self.grid;
        let mut edits = Vec::with_capacity(WAVE_EDITS);
        let mut cols: Vec<u32> = Vec::with_capacity(WAVE_EDITS);
        for _ in 0..WAVE_EDITS {
            let repoint = self.rng.gen_range(0..REPOINT_ONE_IN) == 0;
            let c = self.rng.gen_range(0..g.width);
            let r = if repoint {
                let r = switch_row(g, c);
                let i = g.idx(c, r);
                g.src[i] = if g.src[i] == c { (c + 1) % g.width } else { c };
                r
            } else {
                g.heads[c as usize] = self.rng.gen_range(0..1000);
                0
            };
            edits.push((Addr::new(c, r), formula(g, c, r)));
            cols.push(c);
        }
        cols.sort_unstable();
        cols.dedup();
        let bottoms = g.bottoms();
        let sums = g.sums(&bottoms);
        let (depth, n_sums) = (g.depth, sums.len());
        let mut got = Vec::with_capacity(cols.len() + n_sums);

        let t = Instant::now();
        tr.begin("update");
        let sheet = &self.sheet;
        let ok = tr.span("sheet.set_formulas", || sheet.set_formulas(edits));
        tr.span("core.propagate", || self.rt.propagate());
        for &c in &cols {
            got.push(tr.span("sheet.value_at", || sheet.value_at(Addr::new(c, depth - 1))));
        }
        for s in 0..n_sums {
            got.push(tr.span("sheet.value_at", || {
                sheet.value_at(Addr::new(s as u32, depth))
            }));
        }
        tr.end();
        let dt = t.elapsed();

        if ok.is_err() {
            ck.fail();
        }
        let want = cols.iter().map(|&c| bottoms[c as usize]).chain(sums);
        for (v, w) in got.into_iter().zip(want) {
            ck.check(num(v), w);
        }
        dt
    }
}

/// Source text of a generated formula, for the text-only baseline sheet.
fn formula_text(f: &Formula) -> String {
    match f {
        Formula::Num(v) => v.to_string(),
        Formula::Bin { lhs, rhs, .. } => match (&**lhs, &**rhs) {
            (Formula::Ref(a), Formula::Num(v)) => format!("={a}+{v}"),
            _ => unreachable!("generated chain cells are Ref + Num"),
        },
        Formula::Sum { from, to } => format!("=SUM({from}:{to})"),
        _ => unreachable!("the generator emits no other formula"),
    }
}
