//! The incremental spreadsheet (paper Section 7.2).
//!
//! Each cell holds its formula in a tracked variable; cell values are a
//! maintained method keyed by the cell address. The paper's construction
//! — "a Cell object consisting of an expression tree … and a maintained
//! method value that simply returns the value of the expression tree",
//! with `CellExp` productions reaching across the grid — maps to a formula
//! evaluator that calls the value memo recursively for references. Editing
//! one formula re-evaluates exactly the cells whose values can change,
//! with quiescence cutoff where recomputed values are equal.

use crate::addr::Addr;
use crate::formula::{CellValue, Formula, Op};
use alphonse::fxhash::FxHashMap;
use alphonse::{Memo, Runtime, Var};
use alphonse_mem as mem;
use std::fmt;
use std::sync::Arc;

/// Errors raised by sheet mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SheetError {
    /// Address outside the sheet bounds.
    OutOfBounds(Addr),
    /// Formula text failed to parse.
    Parse(String),
    /// The new formula would create a reference cycle through the named
    /// cell.
    Cycle(Addr),
}

impl fmt::Display for SheetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SheetError::OutOfBounds(a) => write!(f, "cell {a} is outside the sheet"),
            SheetError::Parse(m) => write!(f, "formula error: {m}"),
            SheetError::Cycle(a) => write!(f, "formula would create a cycle through {a}"),
        }
    }
}

impl std::error::Error for SheetError {}

struct Cells {
    width: u32,
    height: u32,
    formulas: Vec<Var<Formula>>,
}

impl Cells {
    fn index(&self, a: Addr) -> Option<usize> {
        (a.col < self.width && a.row < self.height).then(|| (a.row * self.width + a.col) as usize)
    }

    /// Inverse of [`Cells::index`].
    fn addr(&self, i: usize) -> Addr {
        Addr::new(i as u32 % self.width, i as u32 / self.width)
    }
}

/// An incremental spreadsheet.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// use alphonse_sheet::Sheet;
///
/// let rt = Runtime::new();
/// let sheet = Sheet::new(&rt, 10, 10);
/// sheet.set("A1", "2").unwrap();
/// sheet.set("A2", "3").unwrap();
/// sheet.set("B1", "=A1*A2 + 1").unwrap();
/// assert_eq!(sheet.value("B1").unwrap().num(), Some(7));
/// sheet.set("A1", "10").unwrap();                     // one edit…
/// assert_eq!(sheet.value("B1").unwrap().num(), Some(31)); // …propagates
/// ```
pub struct Sheet {
    rt: Runtime,
    cells: Arc<Cells>,
    value: Memo<Addr, CellValue>,
}

impl fmt::Debug for Sheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.cells;
        f.debug_struct("Sheet")
            .field("width", &c.width)
            .field("height", &c.height)
            .finish()
    }
}

/// Labels the `cell_value` instance of `addr` with the address, once.
fn label_instance(rt: &Runtime, value: &Memo<Addr, CellValue>, addr: Addr) {
    let Some(node) = value.instance_node(&addr) else {
        return;
    };
    let label = addr.to_string();
    if rt.node_label(node).as_deref() != Some(label.as_str()) {
        rt.set_label(node, &label);
    }
}

impl Sheet {
    /// Creates a `width × height` sheet of empty (`0`) cells tracked in
    /// `rt`.
    pub fn new(rt: &Runtime, width: u32, height: u32) -> Sheet {
        let _mem = mem::scope(mem::Tag::Substrate);
        // Trace labels carry the cell address so exporters and `why` name
        // cells, not bare node ids: a cell's computed value is labeled
        // "B2" and its formula variable "B2.formula". Skipped entirely on
        // untraced runtimes.
        let tracing = rt.tracing();
        let formulas = (0..width as usize * height as usize)
            .map(|i| {
                if tracing {
                    let a = Addr::new(i as u32 % width, i as u32 / width);
                    rt.var_named(&format!("{a}.formula"), Formula::Num(0))
                } else {
                    rt.var(Formula::Num(0))
                }
            })
            .collect();
        let cells = Arc::new(Cells {
            width,
            height,
            formulas,
        });
        let c = Arc::clone(&cells);
        let value = rt.memo_recursive("cell_value", move |rt, me, &addr: &Addr| {
            if tracing {
                label_instance(rt, me, addr);
            }
            let formula = {
                let cells = &c;
                match cells.index(addr) {
                    Some(i) => cells.formulas[i].get(rt),
                    None => return CellValue::Error,
                }
            };
            eval_formula(&formula, &mut |a| me.call(rt, a))
        });
        Sheet {
            rt: rt.clone(),
            cells,
            value,
        }
    }

    /// Sheet width in columns.
    pub fn width(&self) -> u32 {
        self.cells.width
    }

    /// Sheet height in rows.
    pub fn height(&self) -> u32 {
        self.cells.height
    }

    /// Sets a cell from source text (`"42"` or `"=A1+B2"`).
    ///
    /// # Errors
    ///
    /// Returns [`SheetError`] on bad addresses, bad formulas, or reference
    /// cycles.
    pub fn set(&self, addr: &str, src: &str) -> Result<(), SheetError> {
        let addr: Addr = addr
            .parse()
            .map_err(|e: crate::addr::ParseAddrError| SheetError::Parse(e.to_string()))?;
        let formula = crate::formula::parse_formula(src).map_err(SheetError::Parse)?;
        self.set_formula(addr, formula)
    }

    /// Sets a cell to an already-parsed formula.
    ///
    /// Costs O(cells reachable from `addr` + their references) for the
    /// cycle check, like a one-edit [`Sheet::set_formulas`].
    ///
    /// # Errors
    ///
    /// Returns [`SheetError`] on out-of-bounds addresses or cycles.
    pub fn set_formula(&self, addr: Addr, formula: Formula) -> Result<(), SheetError> {
        let idx = self
            .cells
            .index(addr)
            .ok_or(SheetError::OutOfBounds(addr))?;
        self.check_acyclic(&FxHashMap::from_iter([(idx, &formula)]))?;
        self.cells.formulas[idx].set(&self.rt, formula);
        Ok(())
    }

    /// Sets many cells from source text in one write transaction — the bulk
    /// form of [`Sheet::set`]. All edits are validated (bounds, parse,
    /// cycles) against the *post-batch* sheet before anything is written, so
    /// the batch is atomic: either every edit lands or none does. Repeated
    /// edits to the same address follow last-write-wins, matching the
    /// runtime's transaction semantics.
    ///
    /// Validation costs O(edited cells + cells reachable from them + their
    /// references): one cycle walk serves the whole batch.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// use alphonse_sheet::Sheet;
    /// let rt = Runtime::new();
    /// let sheet = Sheet::new(&rt, 10, 10);
    /// sheet
    ///     .set_bulk([("A1", "2"), ("A2", "3"), ("B1", "=A1*A2")])
    ///     .unwrap();
    /// assert_eq!(sheet.value("B1").unwrap().num(), Some(6));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first [`SheetError`] encountered; no cell is modified on
    /// error.
    pub fn set_bulk<'a>(
        &self,
        edits: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), SheetError> {
        let _mem = mem::scope(mem::Tag::Substrate);
        let mut parsed = Vec::new();
        for (addr, src) in edits {
            let addr: Addr = addr
                .parse()
                .map_err(|e: crate::addr::ParseAddrError| SheetError::Parse(e.to_string()))?;
            let formula = crate::formula::parse_formula(src).map_err(SheetError::Parse)?;
            parsed.push((addr, formula));
        }
        self.set_formulas(parsed)
    }

    /// Sets many cells to already-parsed formulas in one write transaction.
    /// See [`Sheet::set_bulk`] for the atomicity and last-write-wins rules;
    /// validation costs O(edited cells + cells reachable from them + their
    /// references).
    ///
    /// # Errors
    ///
    /// Returns [`SheetError`] on out-of-bounds addresses or cycles in the
    /// post-batch sheet; no cell is modified on error.
    pub fn set_formulas(&self, edits: Vec<(Addr, Formula)>) -> Result<(), SheetError> {
        let _mem = mem::scope(mem::Tag::Substrate);
        let cells = &self.cells;
        // Last-write-wins overlay: the formulas the sheet would hold after
        // the batch, so cross-edit cycles (A1=B1 and B1=A1 in one batch) are
        // caught even though neither formula is stored yet.
        let mut overlay = FxHashMap::default();
        for (addr, formula) in &edits {
            let idx = cells.index(*addr).ok_or(SheetError::OutOfBounds(*addr))?;
            overlay.insert(idx, formula);
        }
        self.check_acyclic(&overlay)?;
        self.rt.batch(|tx| {
            for (addr, formula) in edits {
                let idx = cells.index(addr).expect("validated above");
                cells.formulas[idx].set_in(tx, formula);
            }
        });
        Ok(())
    }

    /// Static cycle rejection for the sheet with `overlay` (cell index →
    /// pending formula) applied on top of the stored formulas.
    ///
    /// One iterative three-colour DFS rooted at every edited cell, with one
    /// colour array shared by all roots, so each cell reachable from an edit
    /// is expanded once. Reaching a grey cell closes a cycle. The stored
    /// sheet is acyclic, so every new cycle passes through an edit; the
    /// error names the first edited cell on the grey path from the cycle's
    /// back-edge target.
    fn check_acyclic(&self, overlay: &FxHashMap<usize, &Formula>) -> Result<(), SheetError> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let cells = &self.cells;
        let mut colour = vec![WHITE; cells.formulas.len()];
        // DFS frames `(cell, refs_base)`: the cell's not-yet-followed
        // references are `refs[refs_base..]`.
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut refs: Vec<Addr> = Vec::new();
        let expand = |cell: usize, refs: &mut Vec<Addr>| match overlay.get(&cell) {
            Some(f) => f.collect_refs(refs),
            // Untracked peek, in place: cycle checking is mutator
            // bookkeeping, so it records no dependence and clones no formula.
            None => cells.formulas[cell].with(&self.rt, |f| f.collect_refs(refs)),
        };
        // One untracked scope for the whole walk, not one per peek.
        self.rt.untracked(|| {
            for &root in overlay.keys() {
                let mut pending = (colour[root] == WHITE).then_some(root);
                loop {
                    if let Some(cell) = pending.take() {
                        colour[cell] = GREY;
                        frames.push((cell, refs.len()));
                        expand(cell, &mut refs);
                    }
                    let Some(&(cell, base)) = frames.last() else {
                        break;
                    };
                    if refs.len() == base {
                        colour[cell] = BLACK;
                        frames.pop();
                        continue;
                    }
                    let Some(next) = refs.pop().and_then(|a| cells.index(a)) else {
                        continue;
                    };
                    match colour[next] {
                        WHITE => pending = Some(next),
                        GREY => {
                            let edited = frames
                                .iter()
                                .map(|&(c, _)| c)
                                .skip_while(|&c| c != next)
                                .find(|c| overlay.contains_key(c))
                                .unwrap_or(next);
                            return Err(SheetError::Cycle(cells.addr(edited)));
                        }
                        _ => {}
                    }
                }
            }
            Ok(())
        })
    }

    /// Current value of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`SheetError::Parse`] for unparseable addresses; evaluation
    /// problems surface as [`CellValue::Error`] instead.
    pub fn value(&self, addr: &str) -> Result<CellValue, SheetError> {
        let addr: Addr = addr
            .parse()
            .map_err(|e: crate::addr::ParseAddrError| SheetError::Parse(e.to_string()))?;
        Ok(self.value_at(addr))
    }

    /// Current value by coordinate.
    pub fn value_at(&self, addr: Addr) -> CellValue {
        self.value.call(&self.rt, addr)
    }

    /// The runtime backing this sheet.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Number of distinct cell-value instances materialized so far.
    pub fn materialized_cells(&self) -> usize {
        self.value.instance_count()
    }
}

/// Evaluates a formula, resolving references through `deref`.
pub(crate) fn eval_formula(f: &Formula, deref: &mut impl FnMut(Addr) -> CellValue) -> CellValue {
    match f {
        Formula::Num(v) => CellValue::Num(*v),
        Formula::Ref(a) => deref(*a),
        Formula::Neg(e) => match eval_formula(e, deref) {
            CellValue::Num(v) => CellValue::Num(v.wrapping_neg()),
            CellValue::Error => CellValue::Error,
        },
        Formula::Bin { op, lhs, rhs } => {
            let (l, r) = (eval_formula(lhs, deref), eval_formula(rhs, deref));
            match (l, r) {
                (CellValue::Num(l), CellValue::Num(r)) => match op {
                    Op::Add => CellValue::Num(l.wrapping_add(r)),
                    Op::Sub => CellValue::Num(l.wrapping_sub(r)),
                    Op::Mul => CellValue::Num(l.wrapping_mul(r)),
                    Op::Div => {
                        if r == 0 {
                            CellValue::Error
                        } else {
                            CellValue::Num(l.wrapping_div(r))
                        }
                    }
                },
                _ => CellValue::Error,
            }
        }
        Formula::Sum { from, to } => {
            let mut acc = 0i64;
            for col in from.col..=to.col {
                for row in from.row..=to.row {
                    match deref(Addr::new(col, row)) {
                        CellValue::Num(v) => acc = acc.wrapping_add(v),
                        CellValue::Error => return CellValue::Error,
                    }
                }
            }
            CellValue::Num(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet() -> Sheet {
        Sheet::new(&Runtime::new(), 20, 20)
    }

    #[test]
    fn empty_cells_are_zero() {
        let s = sheet();
        assert_eq!(s.value("A1").unwrap(), CellValue::Num(0));
        assert_eq!(s.width(), 20);
        assert_eq!(s.height(), 20);
    }

    #[test]
    fn arithmetic_chains() {
        let s = sheet();
        s.set("A1", "5").unwrap();
        s.set("A2", "=A1*A1").unwrap();
        s.set("A3", "=A2-A1").unwrap();
        assert_eq!(s.value("A3").unwrap(), CellValue::Num(20));
        s.set("A1", "3").unwrap();
        assert_eq!(s.value("A3").unwrap(), CellValue::Num(6));
    }

    #[test]
    fn sum_over_range() {
        let s = sheet();
        for row in 1..=5 {
            s.set(&format!("B{row}"), &row.to_string()).unwrap();
        }
        s.set("C1", "=SUM(B1:B5)").unwrap();
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(15));
        s.set("B3", "30").unwrap();
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(42));
    }

    #[test]
    fn division_by_zero_propagates_error() {
        let s = sheet();
        s.set("A1", "=1/0").unwrap();
        s.set("A2", "=A1+1").unwrap();
        assert_eq!(s.value("A1").unwrap(), CellValue::Error);
        assert_eq!(s.value("A2").unwrap(), CellValue::Error);
        s.set("A1", "7").unwrap();
        assert_eq!(s.value("A2").unwrap(), CellValue::Num(8));
    }

    #[test]
    fn out_of_bounds_reference_is_error() {
        let s = sheet();
        s.set("A1", "=ZZ99").unwrap();
        assert_eq!(s.value("A1").unwrap(), CellValue::Error);
        assert!(matches!(
            s.set("ZZ99", "1"),
            Err(SheetError::OutOfBounds(_))
        ));
    }

    #[test]
    fn direct_and_indirect_cycles_rejected() {
        let s = sheet();
        assert!(matches!(s.set("A1", "=A1"), Err(SheetError::Cycle(_))));
        s.set("A1", "=A2").unwrap();
        s.set("A2", "=A3").unwrap();
        assert!(matches!(s.set("A3", "=A1"), Err(SheetError::Cycle(_))));
        // The rejected edit must not have corrupted anything.
        s.set("A3", "5").unwrap();
        assert_eq!(s.value("A1").unwrap(), CellValue::Num(5));
    }

    #[test]
    fn one_edit_recomputes_only_dependents() {
        let s = sheet();
        // Column A: 10 independent numbers; column B: B_i = A_i * 2;
        // C1 = SUM(B1:B10).
        for i in 1..=10 {
            s.set(&format!("A{i}"), &i.to_string()).unwrap();
            s.set(&format!("B{i}"), &format!("=A{i}*2")).unwrap();
        }
        s.set("C1", "=SUM(B1:B10)").unwrap();
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(110));
        let rt = s.runtime().clone();
        let before = rt.stats();
        s.set("A4", "100").unwrap();
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(302));
        let d = rt.stats().delta_since(&before);
        assert!(
            d.executions <= 4,
            "only A4, B4 and C1 should re-evaluate, got {}",
            d.executions
        );
    }

    #[test]
    fn cutoff_stops_at_unchanged_values() {
        let s = sheet();
        s.set("A1", "7").unwrap();
        s.set("B1", "=A1/2").unwrap(); // integer division
        s.set("C1", "=B1*100").unwrap();
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(300));
        let rt = s.runtime().clone();
        let before = rt.stats();
        s.set("A1", "6").unwrap(); // 6/2 == 7/2? no: 3 == 3 ✓ unchanged
        assert_eq!(s.value("C1").unwrap(), CellValue::Num(300));
        let d = rt.stats().delta_since(&before);
        // B1 re-evaluates (3 again); C1 re-evaluates only in demand mode
        // because dirtying is conservative — but A1's own value instance
        // changes. Keep the bound loose but far below full recalc.
        assert!(d.executions <= 3, "got {}", d.executions);
    }

    #[test]
    fn bulk_edit_matches_sequential_edits() {
        let seq = sheet();
        let bulk = sheet();
        let edits = [
            ("A1", "4"),
            ("A2", "=A1+1"),
            ("A3", "=A2*A1"),
            ("A1", "6"), // last write wins
        ];
        for (a, src) in edits {
            seq.set(a, src).unwrap();
        }
        bulk.set_bulk(edits).unwrap();
        for a in ["A1", "A2", "A3"] {
            assert_eq!(bulk.value(a).unwrap(), seq.value(a).unwrap(), "{a}");
        }
        let s = bulk.runtime().stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_writes, 4);
        assert_eq!(s.coalesced_writes, 1);
    }

    #[test]
    fn bulk_edit_rejects_cross_edit_cycles_atomically() {
        let s = sheet();
        s.set("A1", "1").unwrap();
        // Neither formula alone is cyclic against the stored sheet; together
        // they are. The whole batch must be rejected and nothing written.
        assert!(matches!(
            s.set_bulk([("B1", "=C1"), ("C1", "=B1"), ("A1", "99")]),
            Err(SheetError::Cycle(_))
        ));
        assert_eq!(s.value("A1").unwrap(), CellValue::Num(1));
        assert_eq!(s.value("B1").unwrap(), CellValue::Num(0));
    }

    #[test]
    fn bulk_edit_overlay_shadows_stored_formulas() {
        let s = sheet();
        s.set("A1", "=A2").unwrap();
        s.set("A2", "3").unwrap();
        // Stored sheet has A1 -> A2; the batch rewrites A1 away from A2 and
        // points A2 at A1's *new* formula — acyclic post-batch, so allowed.
        s.set_bulk([("A1", "5"), ("A2", "=A1+1")]).unwrap();
        assert_eq!(s.value("A2").unwrap(), CellValue::Num(6));
    }

    #[test]
    fn batch_cycle_check_reads_each_reachable_cell_once() {
        // A stored chain A1 <- A2 <- … <- A512, then one batch pointing all
        // of B1..B512 at its bottom. A per-edit walk would peek the whole
        // chain once per edited cell (~512^2 reads); one shared walk peeks
        // each reachable cell once.
        const N: u32 = 512;
        let s = Sheet::new(&Runtime::new(), 2, N);
        let chain = (0..N).map(|r| {
            let f = if r == 0 {
                Formula::Num(1)
            } else {
                Formula::Ref(Addr::new(0, r - 1))
            };
            (Addr::new(0, r), f)
        });
        s.set_formulas(chain.collect()).unwrap();
        let rt = s.runtime().clone();
        let before = rt.stats();
        let fan = (0..N).map(|r| (Addr::new(1, r), Formula::Ref(Addr::new(0, N - 1))));
        s.set_formulas(fan.collect()).unwrap();
        let reads = rt.stats().delta_since(&before).reads;
        assert!(
            reads <= 2 * (u64::from(N) + u64::from(N)),
            "cycle check made {reads} reads"
        );
        assert_eq!(s.value("B7").unwrap(), CellValue::Num(1));
    }

    #[test]
    fn cycle_error_names_an_edited_cell_on_the_cycle() {
        let s = sheet();
        s.set_bulk([("A2", "=A3"), ("A3", "=A4")]).unwrap();
        // A1 only leads into the cycle A4 -> A2 -> A3 -> A4; the error must
        // name A4, the one edited cell on it.
        assert_eq!(
            s.set_bulk([("A1", "=A2"), ("A4", "=A2")]),
            Err(SheetError::Cycle("A4".parse().unwrap()))
        );
        assert_eq!(
            s.set("A4", "=A2+1"),
            Err(SheetError::Cycle("A4".parse().unwrap()))
        );
    }

    #[test]
    fn formula_text_round_trip_via_display() {
        let s = sheet();
        s.set("A1", "=1+2*3").unwrap();
        assert_eq!(s.value("A1").unwrap(), CellValue::Num(7));
    }
}
