//! `lang_height`: the Alphonse-L maintained-height program, run from scratch
//! in both modes, then edited by cutting and restoring random subtrees.

use crate::harness::{phase, Checker, Setup, Workload};
use crate::oracle::{Shape, NIL};
use crate::spans::Tracer;
use alphonse::Runtime;
use alphonse_bench::workloads::HEIGHT_PROGRAM;
use alphonse_lang::{compile, hir::Program, Interp, Mode, Val};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most subtrees cut at once; past this every update restores one.
const MAX_CUTS: usize = 16;

pub struct Inputs {
    shape: Shape,
    seed: u64,
}

pub struct LangHeight {
    rt: Runtime,
    interp: Interp,
    nil: Val,
    /// Interpreter objects, indexed like `shape`'s nodes.
    objs: Vec<Val>,
    original: Shape,
    shape: Shape,
    /// Cut links: (node, is_left).
    cuts: Vec<(u32, bool)>,
    rng: SmallRng,
}

/// Builds the tree bottom-up through `MakeNode` and returns one object per
/// node. Pre-order numbering puts children after parents, so a reverse
/// sweep builds every child first.
fn build_tree(interp: &Interp, shape: &Shape, tr: &mut Tracer) -> Option<(Val, Vec<Val>)> {
    tr.span("lang.call", || interp.call("Init", vec![])).ok()?;
    let nil = interp.global("nil").ok()?;
    let mut objs = vec![Val::Nil; shape.len()];
    for i in (0..shape.len()).rev() {
        let child = |c: u32| {
            if c == NIL {
                nil.clone()
            } else {
                objs[c as usize].clone()
            }
        };
        let args = vec![child(shape.left[i]), child(shape.right[i])];
        objs[i] = tr
            .span("lang.call", || interp.call("MakeNode", args))
            .ok()?;
    }
    Some((nil, objs))
}

fn height(interp: &Interp, root: &Val, tr: &mut Tracer) -> Option<i64> {
    match tr.span("lang.call_method", || {
        interp.call_method(root.clone(), "height", vec![])
    }) {
        Ok(Val::Int(h)) => Some(h),
        _ => None,
    }
}

fn check_height(ck: &mut Checker, got: Option<i64>, want: i64) {
    match got {
        Some(h) => ck.check(h, want),
        None => ck.fail(),
    }
}

impl Workload for LangHeight {
    type Inputs = Inputs;

    fn inputs(seed: u64, small: bool) -> Inputs {
        // The shape is fixed; the seed picks the links each update cuts and
        // restores.
        Inputs {
            shape: Shape::balanced(if small { 64 } else { 8_192 }),
            seed,
        }
    }

    fn setup(inp: &Inputs, tr: &mut Tracer, ck: &mut Checker) -> (LangHeight, Setup) {
        let ((program, rt), construct) = phase(tr, "setup.construct", |tr| {
            let program = tr
                .span("lang.compile", || compile(HEIGHT_PROGRAM))
                .expect("the height program compiles");
            (program, Runtime::new())
        });
        let ((interp, built), build) = phase(tr, "setup.build", |tr| {
            let interp = tr
                .span("lang.interp_new", || {
                    Interp::with_runtime(program, rt.clone())
                })
                .expect("the height program has no failing initializer");
            let built = build_tree(&interp, &inp.shape, tr);
            (interp, built)
        });
        let (nil, objs) = built.expect("MakeNode cannot fail on a well-formed shape");
        let (h, first_query) = phase(tr, "setup.first_query", |tr| height(&interp, &objs[0], tr));
        check_height(ck, h, inp.shape.height());
        let w = LangHeight {
            rt,
            interp,
            nil,
            objs,
            original: inp.shape.clone(),
            shape: inp.shape.clone(),
            cuts: Vec::new(),
            rng: SmallRng::seed_from_u64(inp.seed ^ 0x5EED_0003),
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
        // Compiled outside the timed phase: both modes share the front end,
        // and init_overhead_x compares only the from-scratch runs.
        let program: Arc<Program> = compile(HEIGHT_PROGRAM).expect("the height program compiles");
        // Its calls are left out of the `lang.*` spans, which time the
        // Alphonse-mode interpreter only.
        let (h, secs) = phase(tr, "setup.conventional", |_| {
            let quiet = &mut Tracer::new(false);
            let interp = Interp::new(program, Mode::Conventional).ok()?;
            let (_, objs) = build_tree(&interp, &inp.shape, quiet)?;
            height(&interp, &objs[0], quiet)
        });
        // Theorem 5.1: both modes compute the same answer.
        check_height(ck, h, inp.shape.height());
        secs
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn update(&mut self, tr: &mut Tracer, ck: &mut Checker) -> Duration {
        let restore =
            !self.cuts.is_empty() && (self.cuts.len() >= MAX_CUTS || self.rng.gen_bool(0.5));
        let (node, left) = if restore {
            self.cuts
                .swap_remove(self.rng.gen_range(0..self.cuts.len()))
        } else {
            // A random link that is still attached.
            loop {
                let node = self.rng.gen_range(0..self.shape.len() as u32);
                let left = self.rng.gen_bool(0.5);
                let side = if left {
                    &self.shape.left
                } else {
                    &self.shape.right
                };
                if side[node as usize] != NIL {
                    self.cuts.push((node, left));
                    break (node, left);
                }
            }
        };
        let (links, orig) = if left {
            (&mut self.shape.left, &self.original.left)
        } else {
            (&mut self.shape.right, &self.original.right)
        };
        let i = node as usize;
        links[i] = if restore { orig[i] } else { NIL };
        let value = if restore {
            self.objs[orig[i] as usize].clone()
        } else {
            self.nil.clone()
        };
        let field = if left { "left" } else { "right" };
        let want = self.shape.height();

        let (interp, obj) = (&self.interp, &self.objs[i]);
        let t = Instant::now();
        tr.begin("update");
        let ok = tr.span("lang.set_field", || interp.set_field(obj, field, value));
        tr.span("core.propagate", || self.rt.propagate());
        let h = height(interp, &self.objs[0], tr);
        tr.end();
        let dt = t.elapsed();

        if ok.is_err() {
            ck.fail();
        }
        check_height(ck, h, want);
        dt
    }
}
