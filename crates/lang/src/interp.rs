//! The Alphonse-L interpreter.
//!
//! One program, two execution models (paper Theorem 5.1 promises they agree):
//!
//! * [`Mode::Conventional`] — pragmas are ignored; every call runs its body.
//!   This is the paper's "conventional execution", the baseline for
//!   experiment E2.
//! * [`Mode::Alphonse`] — the instrumented semantics of Section 5: reads and
//!   writes of heap fields and top-level variables go through `access` /
//!   `modify` (with lazy `nodeptr` creation), and calls to incremental
//!   procedures go through `call` (Algorithm 5) via the `alphonse` runtime.
//!
//! The host program plays the *mutator*: it calls procedures, reads and
//! writes globals and fields through the [`Interp`] API, and the Maintained
//! portion reacts incrementally.

use crate::analysis::{analyze_with, Instrumentation};
use crate::depgraph;
use crate::effects::infer;
use crate::error::{LangError, Result};
use crate::heap::{default_val, Heap, Slot};
use crate::hir::*;
use crate::value::{ObjId, Val};
use alphonse::trace::ActiveTrace;
use alphonse::{Memo, Runtime, Strategy as RtStrategy};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError, Weak};

/// Locks one piece of interpreter state, with the same fail-stop contract
/// the runtime uses for its own interior lock: interpreter state is only
/// ever re-entered on a bug (a procedure body calling back into a held
/// structure), so contention panics instead of deadlocking. A poisoned
/// lock (a panic elsewhere) is entered anyway — interpreter state stays
/// memory-safe and the program is already unwinding.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            panic!("interpreter state re-entered while held")
        }
    }
}

/// Execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ignore pragmas; exhaustive re-execution (the paper's conventional
    /// execution of an Alphonse-L program).
    Conventional,
    /// Incremental execution through the Alphonse runtime.
    Alphonse,
}

/// Default execution fuel (statements + expressions + calls).
const DEFAULT_FUEL: u64 = 500_000_000;

enum Flow {
    Normal,
    Return(Val),
}

/// Per-procedure argument table (paper Section 4.2), created lazily.
type ProcMemo = Memo<Vec<Val>, Val>;

/// The panic payload a failing memo body unwinds with: its error and the
/// failing instance. The runtime rolls back every execution the unwind
/// passes through; [`Shared::boundary`] turns it back into the error.
struct Failure {
    error: LangError,
    pid: ProcId,
    args: Vec<Val>,
}

struct Shared {
    program: Arc<Program>,
    mode: Mode,
    rt: Option<Runtime>,
    /// Section 6.1 instrumentation decisions: accesses the analysis proved
    /// irrelevant bypass the runtime entirely (`None` handles below).
    instr: Instrumentation,
    /// Per-procedure static stratum from the abstract dependency graph's
    /// SCC condensation (zero for non-incremental procedures and in
    /// conventional mode). Seeded into each memo so instance nodes are
    /// born at their final height instead of cascading online raises.
    static_heights: Vec<u32>,
    /// `ALPHONSE_TRACE` JSONL trace (with its live provenance index), flushed
    /// when the interpreter drops.
    trace: Option<ActiveTrace>,
    heap: Mutex<Heap>,
    globals: Mutex<Vec<Slot>>,
    memos: Mutex<Vec<Option<ProcMemo>>>,
    output: Mutex<String>,
    steps: AtomicU64,
    fuel: AtomicU64,
}

/// An executable Alphonse-L program instance.
///
/// # Example
///
/// ```
/// use alphonse_lang::{compile, Interp, Mode, Val};
///
/// let program = compile(
///     "(*CACHED*) PROCEDURE Double(n : INTEGER) : INTEGER =
///      BEGIN RETURN n + n; END Double;",
/// ).unwrap();
/// let interp = Interp::new(program, Mode::Alphonse).unwrap();
/// assert_eq!(interp.call("Double", vec![Val::Int(21)]).unwrap(), Val::Int(42));
/// ```
pub struct Interp {
    shared: Arc<Shared>,
}

impl fmt::Debug for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("mode", &self.shared.mode)
            .field("objects", &lock(&self.shared.heap).len())
            .finish()
    }
}

impl Interp {
    /// Creates an interpreter for `program`, running top-level variable
    /// initializers. In [`Mode::Alphonse`] a default [`Runtime`] is built.
    ///
    /// # Errors
    ///
    /// Returns a runtime error if a global initializer fails.
    pub fn new(program: Arc<Program>, mode: Mode) -> Result<Interp> {
        let rt = match mode {
            Mode::Conventional => None,
            Mode::Alphonse => Some(Runtime::new()),
        };
        Self::build(program, mode, rt)
    }

    /// Creates an Alphonse-mode interpreter over a caller-configured
    /// runtime (partitioning, scheduling, …).
    ///
    /// # Errors
    ///
    /// Returns a runtime error if a global initializer fails.
    pub fn with_runtime(program: Arc<Program>, rt: Runtime) -> Result<Interp> {
        Self::build(program, Mode::Alphonse, Some(rt))
    }

    fn build(program: Arc<Program>, mode: Mode, rt: Option<Runtime>) -> Result<Interp> {
        let n_procs = program.procs.len();
        let globals = program
            .globals
            .iter()
            .map(|g| Slot::new(default_val(g.ty)))
            .collect();
        // `ALPHONSE_TRACE=<path>` streams the run to a JSONL file, teed with
        // a live provenance index that runtime error messages quote.
        let trace = rt.as_ref().and_then(|rt| {
            let active = ActiveTrace::from_env()?;
            rt.set_sink(Some(active.sink()));
            Some(active)
        });
        let effects = infer(&program);
        let instr = analyze_with(&program, &effects);
        // Static strata only matter when the runtime will build a graph.
        // Cached on the program: the graph is a pure function of it, and
        // re-deriving it on every interpreter construction would tax the
        // instantiate-per-request pattern (and the E2 init measurements).
        let static_heights = match mode {
            Mode::Alphonse => program
                .static_heights
                .get_or_init(|| {
                    let graph = depgraph::build(&program, &effects);
                    (0..n_procs)
                        .map(|p| graph.proc_height(p).unwrap_or(0))
                        .collect()
                })
                .clone(),
            Mode::Conventional => vec![0; n_procs],
        };
        let shared = Arc::new(Shared {
            program,
            mode,
            rt,
            instr,
            static_heights,
            trace,
            heap: Mutex::new(Heap::new()),
            globals: Mutex::new(globals),
            memos: Mutex::new(vec![None; n_procs]),
            output: Mutex::new(String::new()),
            steps: AtomicU64::new(0),
            fuel: AtomicU64::new(DEFAULT_FUEL),
        });
        // Run global initializers in declaration order (mutator context).
        shared.boundary(|| {
            for (i, g) in shared.program.globals.iter().enumerate() {
                if let Some(init) = &g.init {
                    let v = shared.eval_expr(init, &mut Vec::new())?;
                    lock(&shared.globals)[i].write(shared.rt_global(i), v);
                }
            }
            Ok(())
        })?;
        Ok(Interp { shared })
    }

    /// The execution model in use.
    pub fn mode(&self) -> Mode {
        self.shared.mode
    }

    /// The resolved program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.shared.program
    }

    /// The Alphonse runtime ([`None`] in conventional mode).
    pub fn runtime(&self) -> Option<&Runtime> {
        self.shared.rt.as_ref()
    }

    /// The Section 6.1 instrumentation decisions this interpreter executes
    /// under (computed for every program, in both modes).
    pub fn instrumentation(&self) -> &Instrumentation {
        &self.shared.instr
    }

    /// Statements/expressions/calls executed so far — the
    /// machine-independent `T` of the paper's Section 9.2.
    pub fn steps(&self) -> u64 {
        self.shared.steps.load(Ordering::Relaxed)
    }

    /// Sets the remaining execution fuel (guards against runaway programs).
    pub fn set_fuel(&self, fuel: u64) {
        self.shared.fuel.store(fuel, Ordering::Relaxed);
    }

    /// Everything `Print` produced so far.
    pub fn output(&self) -> String {
        lock(&self.shared.output).clone()
    }

    /// Returns and clears the accumulated output.
    pub fn take_output(&self) -> String {
        std::mem::take(&mut *lock(&self.shared.output))
    }

    /// Number of heap objects allocated.
    pub fn heap_objects(&self) -> usize {
        lock(&self.shared.heap).len()
    }

    /// Number of storage locations promoted to tracked status (Alphonse
    /// mode only; 0 otherwise).
    pub fn tracked_slots(&self) -> usize {
        lock(&self.shared.heap).tracked_slots()
    }

    /// Runs pending change propagation (no-op in conventional mode).
    ///
    /// # Errors
    ///
    /// Surfaces any runtime error raised by an eager procedure during
    /// propagation; the failing executions are rolled back, so they
    /// re-execute on the next demand.
    pub fn propagate(&self) -> Result<()> {
        match &self.shared.rt {
            Some(rt) => self.shared.boundary(|| {
                rt.propagate();
                Ok(())
            }),
            None => Ok(()),
        }
    }

    /// Calls a top-level procedure by name (mutator → Maintained portion).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Resolve`] for unknown names and
    /// [`LangError::Runtime`] for execution failures.
    pub fn call(&self, name: &str, args: Vec<Val>) -> Result<Val> {
        let pid = *self
            .shared
            .program
            .proc_by_name
            .get(name)
            .ok_or_else(|| LangError::resolve(format!("unknown procedure {name}")))?;
        self.shared.boundary(|| self.shared.call_proc(pid, args))
    }

    /// Calls a method on an object by name, with dynamic dispatch.
    ///
    /// # Errors
    ///
    /// Returns an error if `recv` is not an object, the method is unknown,
    /// or execution fails.
    pub fn call_method(&self, recv: Val, method: &str, mut args: Vec<Val>) -> Result<Val> {
        let Val::Obj(o) = recv else {
            return Err(LangError::runtime(format!(
                "method call .{method}() on non-object {recv}"
            )));
        };
        let ty = lock(&self.shared.heap).type_of(o);
        let slot = self.shared.program.method_slot(ty, method).ok_or_else(|| {
            LangError::resolve(format!(
                "type {} has no method {method}",
                self.shared.program.types[ty].name
            ))
        })?;
        let pid = self.shared.program.types[ty].methods[slot].impl_proc;
        args.insert(0, Val::Obj(o));
        self.shared.boundary(|| self.shared.call_proc(pid, args))
    }

    /// Reads a top-level variable (mutator read: never records dependence).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Resolve`] for unknown names.
    pub fn global(&self, name: &str) -> Result<Val> {
        let idx = self.global_index(name)?;
        let shared = &self.shared;
        Ok(lock(&shared.globals)[idx].read(shared.rt_global(idx), || {
            format!("g:{}", shared.program.globals[idx].name)
        }))
    }

    /// Writes a top-level variable (a mutator state change; seeds change
    /// propagation in Alphonse mode).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Resolve`] for unknown names.
    pub fn set_global(&self, name: &str, v: Val) -> Result<()> {
        let idx = self.global_index(name)?;
        lock(&self.shared.globals)[idx].write(self.shared.rt_global(idx), v);
        Ok(())
    }

    /// Writes several top-level variables in one write transaction — the
    /// bulk form of [`Interp::set_global`]. All names are resolved before
    /// anything is written, so an unknown name leaves every global
    /// untouched. In Alphonse mode the tracked writes commit as a single
    /// coalesced dirty frontier (repeated writes to one global follow
    /// last-write-wins); in conventional mode this is a plain loop.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Resolve`] for unknown names.
    pub fn set_globals<'a>(&self, edits: impl IntoIterator<Item = (&'a str, Val)>) -> Result<()> {
        let mut resolved = Vec::new();
        for (name, v) in edits {
            resolved.push((self.global_index(name)?, v));
        }
        let mut globals = lock(&self.shared.globals);
        match self.shared.rt.as_ref() {
            Some(rt) => rt.batch(|tx| {
                for (idx, v) in resolved {
                    globals[idx].write_in(tx, v);
                }
            }),
            None => {
                for (idx, v) in resolved {
                    globals[idx].write(None, v);
                }
            }
        }
        Ok(())
    }

    fn global_index(&self, name: &str) -> Result<usize> {
        self.shared
            .program
            .global_by_name
            .get(name)
            .copied()
            .ok_or_else(|| LangError::resolve(format!("unknown global {name}")))
    }

    /// Allocates an object of the named type (host-side `NEW`).
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Resolve`] for unknown types.
    pub fn new_object(&self, type_name: &str) -> Result<Val> {
        let ty = *self
            .shared
            .program
            .type_by_name
            .get(type_name)
            .ok_or_else(|| LangError::resolve(format!("unknown type {type_name}")))?;
        Ok(Val::Obj(self.shared.alloc(ty)))
    }

    /// Reads `obj.field` (mutator read).
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` is not an object or has no such field.
    pub fn field(&self, obj: &Val, field: &str) -> Result<Val> {
        let (o, off) = self.field_ref(obj, field)?;
        Ok(lock(&self.shared.heap).read_field(self.shared.rt_field(off), o, off))
    }

    /// Writes `obj.field` (a mutator state change).
    ///
    /// # Errors
    ///
    /// Returns an error if `obj` is not an object or has no such field.
    pub fn set_field(&self, obj: &Val, field: &str, v: Val) -> Result<()> {
        let (o, off) = self.field_ref(obj, field)?;
        lock(&self.shared.heap).write_field(self.shared.rt_field(off), o, off, v);
        Ok(())
    }

    /// Writes several object fields in one write transaction — the bulk
    /// form of [`Interp::set_field`]. All targets are resolved before
    /// anything is written, so a bad target leaves the heap untouched.
    /// Fields already promoted to tracked storage commit as one coalesced
    /// dirty frontier; still-plain fields are stored immediately (writes
    /// never create dependency-graph nodes, per Algorithm 4).
    ///
    /// # Errors
    ///
    /// Returns an error if any target is not an object or has no such
    /// field.
    pub fn set_fields<'a>(
        &self,
        edits: impl IntoIterator<Item = (&'a Val, &'a str, Val)>,
    ) -> Result<()> {
        let mut resolved = Vec::new();
        for (obj, field, v) in edits {
            let (o, off) = self.field_ref(obj, field)?;
            resolved.push((o, off, v));
        }
        let mut heap = lock(&self.shared.heap);
        match self.shared.rt.as_ref() {
            Some(rt) => rt.batch(|tx| {
                for (o, off, v) in resolved {
                    heap.write_field_in(tx, o, off, v);
                }
            }),
            None => {
                for (o, off, v) in resolved {
                    heap.write_field(None, o, off, v);
                }
            }
        }
        Ok(())
    }

    /// Writes several elements of one array in one write transaction. All
    /// indices are bounds-checked before anything is written, so a bad
    /// index leaves the array untouched. Elements already promoted to
    /// tracked storage commit as one coalesced dirty frontier; still-plain
    /// elements are stored immediately.
    ///
    /// # Errors
    ///
    /// Returns an error if `arr` is not an array or any index is out of
    /// bounds.
    pub fn set_elements(
        &self,
        arr: &Val,
        edits: impl IntoIterator<Item = (i64, Val)>,
    ) -> Result<()> {
        let Val::Arr(a) = arr else {
            return Err(LangError::runtime(format!(
                "element assignment on non-array {arr}"
            )));
        };
        let mut heap = lock(&self.shared.heap);
        let len = heap.array_len(*a);
        let mut resolved = Vec::new();
        for (i, v) in edits {
            if usize::try_from(i).ok().filter(|&i| i < len).is_none() {
                return Err(LangError::runtime(format!(
                    "element index {i} out of bounds for array of length {len}"
                )));
            }
            resolved.push((i, v));
        }
        match self.shared.rt.as_ref() {
            Some(rt) => rt.batch(|tx| {
                for (i, v) in resolved {
                    heap.write_element_in(tx, *a, i, v);
                }
            }),
            None => {
                for (i, v) in resolved {
                    heap.write_element(None, *a, i, v);
                }
            }
        }
        Ok(())
    }

    fn field_ref(&self, obj: &Val, field: &str) -> Result<(ObjId, usize)> {
        let Val::Obj(o) = obj else {
            return Err(LangError::runtime(format!(
                "field access .{field} on non-object {obj}"
            )));
        };
        let ty = lock(&self.shared.heap).type_of(*o);
        let off = self.shared.program.field_offset(ty, field).ok_or_else(|| {
            LangError::resolve(format!(
                "type {} has no field {field}",
                self.shared.program.types[ty].name
            ))
        })?;
        Ok((*o, off))
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        if let Some(active) = self.trace.take() {
            if let Some(rt) = self.rt.as_ref() {
                rt.set_sink(None);
            }
            match active.finish() {
                Ok(path) => eprintln!("ALPHONSE_TRACE: wrote {}", path.display()),
                Err(e) => eprintln!("ALPHONSE_TRACE: failed to write trace: {e}"),
            }
        }
    }
}

impl Shared {
    /// Runtime handle for an access to global `idx` — `None` when the
    /// Section 6.1 analysis proved the access can never involve a node.
    fn rt_global(&self, idx: usize) -> Option<&Runtime> {
        self.rt
            .as_ref()
            .filter(|_| self.instr.global_needs_check(idx))
    }

    /// Runtime handle for an access to a field at `offset` (see
    /// [`Shared::rt_global`]).
    fn rt_field(&self, offset: usize) -> Option<&Runtime> {
        self.rt
            .as_ref()
            .filter(|_| self.instr.field_offset_needs_check(offset))
    }

    /// Runtime handle for an array element access (see
    /// [`Shared::rt_global`]).
    fn rt_arrays(&self) -> Option<&Runtime> {
        self.rt.as_ref().filter(|_| self.instr.tracked_arrays)
    }

    /// True if a read performed right now would record a dependence edge.
    /// A statically pruned read must never happen in such a context (only
    /// consulted by debug assertions; optimized out of release builds).
    fn recording(&self) -> bool {
        self.rt.as_ref().is_some_and(Runtime::recording_context)
    }

    fn alloc(&self, ty: TypeId) -> ObjId {
        let field_types: Vec<Ty> = self.program.types[ty].fields.iter().map(|f| f.ty).collect();
        lock(&self.heap).alloc(ty, &field_types)
    }

    fn burn(&self) -> Result<()> {
        self.steps.fetch_add(1, Ordering::Relaxed);
        let f = self.fuel.load(Ordering::Relaxed);
        if f == 0 {
            return Err(LangError::runtime("execution fuel exhausted"));
        }
        self.fuel.store(f - 1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs a host entry point `f`. A failing memo body unwinds to here
    /// with its [`Failure`] payload, which becomes `f`'s error again; with
    /// tracing active, a runtime error gains the failing instance's causal
    /// `why` chain (input write → fan-out → re-execution). Any other panic
    /// passes on.
    fn boundary<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let payload = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => return result,
            Err(payload) => payload,
        };
        let Failure { error, pid, args } = *payload.downcast().unwrap_or_else(|p| resume_unwind(p));
        let report = self.trace.as_ref().and_then(|active| {
            let memo = lock(&self.memos)[pid].clone()?;
            active.provenance().why_report(memo.instance_node(&args)?)
        });
        Err(match (error, report) {
            (LangError::Runtime { message }, Some(report)) => LangError::runtime(format!(
                "{message}\nprovenance of the failing call:\n{report}"
            )),
            (error, _) => error,
        })
    }

    /// Calls a procedure: through its memo (Algorithm 5) when it is an
    /// incremental procedure and the mode is Alphonse, directly otherwise.
    fn call_proc(self: &Arc<Self>, pid: ProcId, args: Vec<Val>) -> Result<Val> {
        self.burn()?;
        if self.mode == Mode::Alphonse && self.program.procs[pid].incremental.is_some() {
            let memo = self.memo_for(pid);
            let rt = self.rt.as_ref().expect("Alphonse mode has a runtime");
            // A pure combinator depends only on its arguments: no state
            // change can ever invalidate its instances, so the caller need
            // not record a dependence on them. The memo still runs the call
            // (preserving caching, LRU bounds, and cycle detection); only
            // the caller→instance edge is suppressed.
            Ok(if self.instr.pure_procs[pid] {
                rt.untracked(|| memo.call(rt, args))
            } else {
                memo.call(rt, args)
            })
        } else {
            self.execute_proc(pid, args)
        }
    }

    /// Gets or creates the memo (argument table) for an incremental
    /// procedure.
    fn memo_for(self: &Arc<Self>, pid: ProcId) -> ProcMemo {
        if let Some(m) = &lock(&self.memos)[pid] {
            return m.clone();
        }
        let info = &self.program.procs[pid];
        let (_, strategy) = info.incremental.expect("memo_for on incremental proc");
        let rt_strategy = match strategy {
            Strategy::Demand => RtStrategy::Demand,
            Strategy::Eager => RtStrategy::Eager,
        };
        let weak: Weak<Shared> = Arc::downgrade(self);
        let rt = self.rt.as_ref().expect("Alphonse mode has a runtime");
        let body = move |_rt: &Runtime, args: &Vec<Val>| {
            let shared = weak.upgrade().expect("interpreter dropped during call");
            match shared.execute_proc(pid, args.clone()) {
                Ok(v) => v,
                // The runtime rolls back this execution and every caller's
                // the unwind passes through, up to the host boundary.
                Err(error) => resume_unwind(Box::new(Failure {
                    error,
                    pid,
                    args: args.clone(),
                })),
            }
        };
        let memo = match info.cache_capacity {
            Some(capacity) => rt.memo_bounded(&info.name, rt_strategy, capacity, body),
            None => rt.memo_with(&info.name, rt_strategy, body),
        };
        // Seed instance nodes at their static stratum (experiment E2):
        // correctness-neutral, but skips the online height-raise cascade.
        memo.set_height_hint(self.static_heights[pid]);
        lock(&self.memos)[pid] = Some(memo.clone());
        memo
    }

    /// Runs a procedure body in a fresh frame.
    fn execute_proc(self: &Arc<Self>, pid: ProcId, args: Vec<Val>) -> Result<Val> {
        let info = &self.program.procs[pid];
        debug_assert_eq!(args.len(), info.params.len(), "arity checked statically");
        let mut frame = args;
        frame.resize(info.frame_size, Val::Nil);
        for (slot, ty, init) in &info.local_inits {
            let v = match init {
                Some(e) => self.eval_expr(e, &mut frame)?,
                None => default_val(*ty),
            };
            frame[*slot] = v;
        }
        match self.eval_stmts(&info.body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => {
                if info.ret.is_some() {
                    Err(LangError::runtime(format!(
                        "function procedure {} finished without RETURN",
                        info.name
                    )))
                } else {
                    Ok(Val::Nil)
                }
            }
        }
    }

    fn eval_stmts(self: &Arc<Self>, stmts: &[HStmt], frame: &mut Vec<Val>) -> Result<Flow> {
        for s in stmts {
            if let Flow::Return(v) = self.eval_stmt(s, frame)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn eval_stmt(self: &Arc<Self>, stmt: &HStmt, frame: &mut Vec<Val>) -> Result<Flow> {
        self.burn()?;
        match stmt {
            HStmt::AssignLocal { slot, value } => {
                let v = self.eval_expr(value, frame)?;
                frame[*slot] = v;
                Ok(Flow::Normal)
            }
            HStmt::AssignGlobal { index, value, .. } => {
                let v = self.eval_expr(value, frame)?;
                lock(&self.globals)[*index].write(self.rt_global(*index), v);
                Ok(Flow::Normal)
            }
            HStmt::AssignIndex {
                arr, index, value, ..
            } => {
                let a = self.eval_expr(arr, frame)?;
                let i = self.eval_expr(index, frame)?.as_int();
                let v = self.eval_expr(value, frame)?;
                let Val::Arr(a) = a else {
                    return Err(LangError::runtime("element assignment to NIL array"));
                };
                if !lock(&self.heap).write_element(self.rt_arrays(), a, i, v) {
                    return Err(LangError::runtime(format!("array index {i} out of bounds")));
                }
                Ok(Flow::Normal)
            }
            HStmt::AssignField {
                obj, field, value, ..
            } => {
                let o = self.eval_expr(obj, frame)?;
                let v = self.eval_expr(value, frame)?;
                let Val::Obj(o) = o else {
                    return Err(LangError::runtime("field assignment to NIL"));
                };
                lock(&self.heap).write_field(self.rt_field(*field), o, *field, v);
                Ok(Flow::Normal)
            }
            HStmt::If { arms, else_body } => {
                for (cond, body) in arms {
                    if self.eval_expr(cond, frame)?.as_bool() {
                        return self.eval_stmts(body, frame);
                    }
                }
                self.eval_stmts(else_body, frame)
            }
            HStmt::While { cond, body } => {
                while self.eval_expr(cond, frame)?.as_bool() {
                    self.burn()?;
                    if let Flow::Return(v) = self.eval_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            HStmt::For {
                slot,
                from,
                to,
                by,
                body,
            } => {
                let from = self.eval_expr(from, frame)?.as_int();
                let to = self.eval_expr(to, frame)?.as_int();
                let step = match by {
                    Some(e) => self.eval_expr(e, frame)?.as_int(),
                    None => 1,
                };
                if step == 0 {
                    return Err(LangError::runtime("FOR step of 0"));
                }
                let mut i = from;
                while (step > 0 && i <= to) || (step < 0 && i >= to) {
                    self.burn()?;
                    frame[*slot] = Val::Int(i);
                    if let Flow::Return(v) = self.eval_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                    i = match i.checked_add(step) {
                        Some(next) => next,
                        None => break,
                    };
                }
                Ok(Flow::Normal)
            }
            HStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_expr(e, frame)?,
                    None => Val::Nil,
                };
                Ok(Flow::Return(v))
            }
            HStmt::Expr(e) => {
                self.eval_expr(e, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_expr(self: &Arc<Self>, e: &HExpr, frame: &mut Vec<Val>) -> Result<Val> {
        self.burn()?;
        match e {
            HExpr::Int(v) => Ok(Val::Int(*v)),
            HExpr::Text(s) => Ok(Val::Text(Arc::clone(s))),
            HExpr::Bool(b) => Ok(Val::Bool(*b)),
            HExpr::Nil => Ok(Val::Nil),
            HExpr::Local(slot) => Ok(frame[*slot].clone()),
            HExpr::Global(idx) => {
                let rt = self.rt_global(*idx);
                debug_assert!(rt.is_some() || !self.recording(), "pruned a recorded read");
                Ok(lock(&self.globals)[*idx]
                    .read(rt, || format!("g:{}", self.program.globals[*idx].name)))
            }
            HExpr::Field { obj, field } => {
                let o = self.eval_expr(obj, frame)?;
                let Val::Obj(o) = o else {
                    return Err(LangError::runtime("field access on NIL"));
                };
                let rt = self.rt_field(*field);
                debug_assert!(rt.is_some() || !self.recording(), "pruned a recorded read");
                Ok(lock(&self.heap).read_field(rt, o, *field))
            }
            HExpr::New(ty) => Ok(Val::Obj(self.alloc(*ty))),
            HExpr::NewArray { elem, size } => {
                let n = self.eval_expr(size, frame)?.as_int();
                let n = usize::try_from(n)
                    .map_err(|_| LangError::runtime(format!("negative array size {n}")))?;
                Ok(Val::Arr(lock(&self.heap).alloc_array(*elem, n)))
            }
            HExpr::Index { arr, index } => {
                let a = self.eval_expr(arr, frame)?;
                let i = self.eval_expr(index, frame)?.as_int();
                let Val::Arr(a) = a else {
                    return Err(LangError::runtime("indexing NIL array"));
                };
                let rt = self.rt_arrays();
                debug_assert!(rt.is_some() || !self.recording(), "pruned a recorded read");
                lock(&self.heap)
                    .read_element(rt, a, i)
                    .ok_or_else(|| LangError::runtime(format!("array index {i} out of bounds")))
            }
            HExpr::CallProc { proc, args } => {
                let argv = self.eval_args(args, frame)?;
                self.call_proc(*proc, argv)
            }
            HExpr::CallMethod {
                obj, slot, args, ..
            } => {
                let recv = self.eval_expr(obj, frame)?;
                let Val::Obj(o) = recv else {
                    return Err(LangError::runtime("method call on NIL"));
                };
                let ty = lock(&self.heap).type_of(o);
                let pid = self.program.types[ty].methods[*slot].impl_proc;
                let mut argv = self.eval_args(args, frame)?;
                argv.insert(0, Val::Obj(o));
                self.call_proc(pid, argv)
            }
            HExpr::CallBuiltin { builtin, args } => {
                let argv = self.eval_args(args, frame)?;
                self.builtin(*builtin, argv)
            }
            HExpr::Unary { op, expr } => {
                let v = self.eval_expr(expr, frame)?;
                Ok(match op {
                    crate::ast::UnOp::Neg => Val::Int(v.as_int().wrapping_neg()),
                    crate::ast::UnOp::Not => Val::Bool(!v.as_bool()),
                })
            }
            HExpr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, frame),
            HExpr::Unchecked { expr: inner, .. } => match &self.rt {
                Some(rt) => {
                    let rt = rt.clone();
                    rt.untracked(|| self.eval_expr(inner, frame))
                }
                None => self.eval_expr(inner, frame),
            },
        }
    }

    fn eval_args(self: &Arc<Self>, args: &[HExpr], frame: &mut Vec<Val>) -> Result<Vec<Val>> {
        args.iter().map(|a| self.eval_expr(a, frame)).collect()
    }

    fn binary(
        self: &Arc<Self>,
        op: crate::ast::BinOp,
        lhs: &HExpr,
        rhs: &HExpr,
        frame: &mut Vec<Val>,
    ) -> Result<Val> {
        use crate::ast::BinOp as B;
        // Short-circuit forms first.
        match op {
            B::And => {
                return Ok(Val::Bool(
                    self.eval_expr(lhs, frame)?.as_bool() && self.eval_expr(rhs, frame)?.as_bool(),
                ))
            }
            B::Or => {
                return Ok(Val::Bool(
                    self.eval_expr(lhs, frame)?.as_bool() || self.eval_expr(rhs, frame)?.as_bool(),
                ))
            }
            _ => {}
        }
        let l = self.eval_expr(lhs, frame)?;
        let r = self.eval_expr(rhs, frame)?;
        Ok(match op {
            B::Add => Val::Int(l.as_int().wrapping_add(r.as_int())),
            B::Sub => Val::Int(l.as_int().wrapping_sub(r.as_int())),
            B::Mul => Val::Int(l.as_int().wrapping_mul(r.as_int())),
            B::Div => {
                let d = r.as_int();
                if d == 0 {
                    return Err(LangError::runtime("DIV by zero"));
                }
                Val::Int(l.as_int().wrapping_div(d))
            }
            B::Mod => {
                let d = r.as_int();
                if d == 0 {
                    return Err(LangError::runtime("MOD by zero"));
                }
                Val::Int(l.as_int().wrapping_rem(d))
            }
            B::Concat => match (l, r) {
                (Val::Text(a), Val::Text(b)) => Val::Text(Arc::from(format!("{a}{b}").as_str())),
                _ => return Err(LangError::runtime("& on non-text values")),
            },
            B::Eq => Val::Bool(l == r),
            B::Ne => Val::Bool(l != r),
            B::Lt => Val::Bool(l.as_int() < r.as_int()),
            B::Le => Val::Bool(l.as_int() <= r.as_int()),
            B::Gt => Val::Bool(l.as_int() > r.as_int()),
            B::Ge => Val::Bool(l.as_int() >= r.as_int()),
            B::And | B::Or => unreachable!("handled above"),
        })
    }

    fn builtin(&self, b: Builtin, args: Vec<Val>) -> Result<Val> {
        Ok(match b {
            Builtin::Max => Val::Int(args[0].as_int().max(args[1].as_int())),
            Builtin::Min => Val::Int(args[0].as_int().min(args[1].as_int())),
            Builtin::Abs => Val::Int(args[0].as_int().wrapping_abs()),
            Builtin::Len => {
                let Val::Arr(a) = args[0] else {
                    return Err(LangError::runtime("LEN of NIL array"));
                };
                Val::Int(lock(&self.heap).array_len(a) as i64)
            }
            Builtin::Print => {
                use std::fmt::Write;
                let _ = writeln!(lock(&self.output), "{}", args[0]);
                Val::Nil
            }
        })
    }
}
