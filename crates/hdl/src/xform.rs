//! Netlist transformation passes with trace back-mapping.
//!
//! The verification instances this workspace builds are *products*: two
//! machine copies plus monitor logic, and every engine pays for their
//! size on every SAT query. [`Aig::and`] already hash-conses at build
//! time, but build-time hashing cannot fold logic across the two copies
//! once their latches diverge, and it never removes state that cannot
//! reach a property. This module adds a post-build reduction layer — a
//! [`Pass`] trait over [`Aig`] plus a [`Pipeline`] runner — with four
//! standard passes:
//!
//! * [`CoiPass`] — cone-of-influence reduction w.r.t. the verification
//!   roots (assume and bad bits, plus probes when configured): latches,
//!   inputs and gates that cannot affect any root are dropped.
//! * [`ConstSweepPass`] — stuck-at-reset latch detection to a fixpoint
//!   (a concretely-initialised latch whose next-state function evaluates
//!   to its own reset value under the accumulated constants is replaced
//!   by that constant), followed by a full re-strash rebuild. The
//!   rebuild is where cross-copy sharing happens: once constants
//!   propagate, logic in the two machine copies that became structurally
//!   identical is merged by the construction-time hash-consing that
//!   missed it the first time.
//! * [`DeadLatchPass`] — removes latches orphaned by earlier passes
//!   (no longer reachable from any root through next-state functions),
//!   re-walking reachability over latches only.
//! * [`CompactPass`] — probe-preserving node compaction: drops
//!   unreachable AND nodes and inputs with no remaining fanout and
//!   renumbers the survivors densely.
//!
//! Every pass emits a [`Rewrite`] — the map from old nodes, latches and
//! inputs to their images — and the pipeline composes them into a
//! [`Reconstruction`], which can lift any model-checking artifact on the
//! reduced netlist (a counterexample's latch/input indices, a probe
//! value) back to the original netlist's names and indices. The
//! guarantees the passes maintain:
//!
//! * **Root preservation**: every assume, bad and (when kept) probe of
//!   the input netlist exists in the output under the same name, even
//!   when its function folded to a constant.
//! * **Behaviour preservation on the cone**: the reduced netlist is
//!   bisimilar to the original on every surviving latch/input — a
//!   counterexample on the reduced netlist, lifted through the
//!   [`Reconstruction`], replays to the same bad-state hit on the
//!   original, and a proof on the reduced netlist implies the original
//!   is safe (a stuck latch's constant is a true invariant of the
//!   original).
//! * **Candidate/root threading**: extra root bits handed to
//!   [`Pipeline::run`] (e.g. Houdini candidate invariants) are kept
//!   alive through every pass and returned as their final images.

use std::fmt;

use crate::aig::{Aig, Bit, Init, Node};

/// The size of a netlist, as recorded in per-pass statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub nodes: usize,
    pub ands: usize,
    pub latches: usize,
    pub inputs: usize,
}

impl Shape {
    /// Measures `aig`.
    pub fn of(aig: &Aig) -> Shape {
        Shape {
            nodes: aig.num_nodes(),
            ands: aig.num_ands(),
            latches: aig.num_latches(),
            inputs: aig.num_inputs(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ands, {} latches, {} inputs",
            self.ands, self.latches, self.inputs
        )
    }
}

/// Before/after sizes for one executed pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// [`Pass::name`] of the pass that ran.
    pub pass: String,
    pub before: Shape,
    pub after: Shape,
}

impl PassStats {
    /// AND gates removed by this pass (saturating: a pass never grows
    /// the netlist, but stay defensive).
    pub fn ands_removed(&self) -> usize {
        self.before.ands.saturating_sub(self.after.ands)
    }

    pub fn latches_removed(&self) -> usize {
        self.before.latches.saturating_sub(self.after.latches)
    }
}

/// The per-pass statistics of one [`Pipeline::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    pub passes: Vec<PassStats>,
}

impl PipelineStats {
    /// Shape before the first pass ran (None when the pipeline was
    /// empty).
    pub fn original(&self) -> Option<Shape> {
        self.passes.first().map(|p| p.before)
    }

    /// Shape after the last pass ran.
    pub fn reduced(&self) -> Option<Shape> {
        self.passes.last().map(|p| p.after)
    }

    /// Total AND gates removed across the pipeline.
    pub fn ands_removed(&self) -> usize {
        match (self.original(), self.reduced()) {
            (Some(b), Some(a)) => b.ands.saturating_sub(a.ands),
            _ => 0,
        }
    }

    /// Total latches removed across the pipeline.
    pub fn latches_removed(&self) -> usize {
        match (self.original(), self.reduced()) {
            (Some(b), Some(a)) => b.latches.saturating_sub(a.latches),
            _ => 0,
        }
    }

    /// One-line human summary for notes and logs.
    pub fn summary(&self) -> String {
        match (self.original(), self.reduced()) {
            (Some(b), Some(a)) => format!(
                "prepare: {} -> {} ({} ands, {} latches removed over {} passes)",
                b,
                a,
                self.ands_removed(),
                self.latches_removed(),
                self.passes.len()
            ),
            _ => "prepare: no passes ran".to_string(),
        }
    }
}

/// The node/latch/input map one pass emits: where every surviving piece
/// of the old netlist went.
#[derive(Clone, Debug)]
pub struct Rewrite {
    /// Image of each old node's positive literal (`None` = dropped).
    forward: Vec<Option<Bit>>,
    /// New latch index -> old latch index.
    latch_back: Vec<u32>,
    /// New input index -> old input index.
    input_back: Vec<u32>,
}

impl Rewrite {
    /// The identity rewrite over `aig` (every node its own image).
    pub fn identity(aig: &Aig) -> Rewrite {
        Rewrite {
            forward: (0..aig.num_nodes() as u32)
                .map(|n| Some(Bit::from_packed(n << 1)))
                .collect(),
            latch_back: (0..aig.num_latches() as u32).collect(),
            input_back: (0..aig.num_inputs() as u32).collect(),
        }
    }

    /// The image of an old-netlist bit, composing the edge complement.
    /// Constants are their own image in every netlist (a pass that no
    /// longer references the constant node would otherwise drop it from
    /// the map, breaking composition for bits folded by earlier passes).
    pub fn forward(&self, b: Bit) -> Option<Bit> {
        if b.is_const() {
            return Some(b);
        }
        let img = (*self.forward.get(b.node() as usize)?)?;
        Some(if b.is_complemented() { img.not() } else { img })
    }

    /// Old latch index behind a new one.
    pub fn original_latch(&self, new_latch: u32) -> Option<u32> {
        self.latch_back.get(new_latch as usize).copied()
    }

    /// Old input index behind a new one.
    pub fn original_input(&self, new_input: u32) -> Option<u32> {
        self.input_back.get(new_input as usize).copied()
    }

    /// `first` applied to the original netlist, then `second` to its
    /// output.
    pub fn compose(first: &Rewrite, second: &Rewrite) -> Rewrite {
        Rewrite {
            forward: first
                .forward
                .iter()
                .map(|img| img.and_then(|b| second.forward(b)))
                .collect(),
            latch_back: second
                .latch_back
                .iter()
                .map(|&mid| first.latch_back[mid as usize])
                .collect(),
            input_back: second
                .input_back
                .iter()
                .map(|&mid| first.input_back[mid as usize])
                .collect(),
        }
    }
}

/// The composed rewrite of a whole pipeline, with the lifting-oriented
/// API model-checking layers use to express reduced-netlist artifacts in
/// original-netlist vocabulary.
///
/// Latches and inputs the pipeline removed simply have no image: a
/// lifted counterexample leaves them unconstrained, which is sound
/// because a removed latch either cannot influence any assume/bad bit
/// (cone-of-influence, dead-latch, compaction) or provably holds its
/// reset value forever (constant sweep) — in both cases the original
/// netlist reproduces the behaviour from reset on its own.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    rewrite: Rewrite,
}

impl Reconstruction {
    /// The identity reconstruction (preparation disabled / empty
    /// pipeline).
    pub fn identity(aig: &Aig) -> Reconstruction {
        Reconstruction {
            rewrite: Rewrite::identity(aig),
        }
    }

    pub(crate) fn new(rewrite: Rewrite) -> Reconstruction {
        Reconstruction { rewrite }
    }

    /// Original latch index behind reduced latch `new_latch`.
    pub fn original_latch(&self, new_latch: u32) -> Option<u32> {
        self.rewrite.original_latch(new_latch)
    }

    /// Original input index behind reduced input `new_input`.
    pub fn original_input(&self, new_input: u32) -> Option<u32> {
        self.rewrite.original_input(new_input)
    }

    /// Image of an original-netlist bit in the reduced netlist, if it
    /// survived.
    pub fn forward(&self, original: Bit) -> Option<Bit> {
        self.rewrite.forward(original)
    }

    /// Number of latches in the reduced netlist.
    pub fn reduced_latches(&self) -> usize {
        self.rewrite.latch_back.len()
    }

    /// Number of inputs in the reduced netlist.
    pub fn reduced_inputs(&self) -> usize {
        self.rewrite.input_back.len()
    }

    /// The restore map for constant-folded state: original latches the
    /// pipeline replaced by a constant, as `(original_latch_index,
    /// constant_value)` pairs.
    ///
    /// Only [`ConstSweepPass`] folds latches to constants, and only when
    /// the stuck-at-reset fixpoint proves the latch holds its (concrete)
    /// reset value in every reachable state — so each returned pair is a
    /// true invariant of `original`, independently re-checkable by
    /// induction on the raw netlist. Certificate checkers use this to
    /// reconstruct the part of an inductive invariant that the
    /// preparation pipeline discharged before the engines ever ran.
    ///
    /// Latches the pipeline merely dropped (cone-of-influence, dead
    /// latch, compaction) have no image at all and do not appear here.
    pub fn restored_constants(&self, original: &Aig) -> Vec<(u32, bool)> {
        original
            .latches()
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match self.rewrite.forward(l.output) {
                Some(b) if b == Bit::FALSE => Some((i as u32, false)),
                Some(b) if b == Bit::TRUE => Some((i as u32, true)),
                _ => None,
            })
            .collect()
    }
}

/// Options shared by every pass of a pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassOpts {
    /// Treat probes as roots (keep their cones and re-register them on
    /// the output netlist). With `false`, probes are dropped entirely —
    /// matching the engines' `keep_probes = false` encoding.
    pub keep_probes: bool,
}

impl Default for PassOpts {
    fn default() -> PassOpts {
        PassOpts { keep_probes: true }
    }
}

/// One netlist transformation. Implementations must preserve every
/// assume/bad (by name, even when folded to a constant), preserve probes
/// per [`PassOpts::keep_probes`], keep `roots` alive, and emit a
/// [`Rewrite`] consistent with the output netlist.
pub trait Pass {
    /// Short stable name, used in statistics and report JSON.
    fn name(&self) -> &'static str;

    /// Transforms `aig`, keeping `roots` alive, returning the new
    /// netlist and the old→new map.
    fn run(&self, aig: &Aig, roots: &[Bit], opts: &PassOpts) -> (Aig, Rewrite);
}

// ---------------------------------------------------------------------------
// The shared rebuild engine.
// ---------------------------------------------------------------------------

/// How a rebuild treats latches/inputs that nothing references: `Lazy`
/// creates them only on first use (so unreferenced ones vanish), `Eager`
/// pre-creates every one in original order (so the pass cannot drop
/// them).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Creation {
    Lazy,
    Eager,
}

/// Rebuilds a netlist bottom-up through [`Aig::and`] (re-strashing and
/// constant-folding as it goes), translating only what the roots and
/// kept latches reach.
struct Rebuilder<'a> {
    old: &'a Aig,
    new: Aig,
    /// Image of each old node's positive literal.
    map: Vec<Option<Bit>>,
    latch_back: Vec<u32>,
    input_back: Vec<u32>,
    /// Constant substitution per old latch index.
    subst: Vec<Option<Bit>>,
    /// Latches created whose next-state still needs translation.
    pending: Vec<(u32, Bit)>,
    /// Work list of [`Rebuilder::translate`], kept to reuse its buffer.
    stack: Vec<u32>,
}

impl<'a> Rebuilder<'a> {
    fn new(
        old: &'a Aig,
        subst: Vec<Option<Bit>>,
        latches: Creation,
        inputs: Creation,
    ) -> Rebuilder<'a> {
        // A rebuild creates at most one node per old node.
        let mut r = Rebuilder {
            old,
            new: Aig::with_capacity(old.num_nodes()),
            map: vec![None; old.num_nodes()],
            latch_back: Vec::new(),
            input_back: Vec::new(),
            subst,
            pending: Vec::new(),
            stack: Vec::new(),
        };
        if inputs == Creation::Eager {
            for i in 0..old.num_inputs() as u32 {
                r.touch_input(i);
            }
        }
        if latches == Creation::Eager {
            for l in 0..old.num_latches() as u32 {
                if r.subst[l as usize].is_none() {
                    r.touch_latch(l);
                }
            }
        }
        r
    }

    fn touch_input(&mut self, idx: u32) -> Bit {
        let node = self.old.inputs()[idx as usize].output.node();
        if let Some(b) = self.map[node as usize] {
            return b;
        }
        let name = self.old.inputs()[idx as usize].name.clone();
        let b = self.new.input(name);
        self.map[node as usize] = Some(b);
        self.input_back.push(idx);
        b
    }

    fn touch_latch(&mut self, idx: u32) -> Bit {
        let node = self.old.latches()[idx as usize].output.node();
        if let Some(b) = self.map[node as usize] {
            return b;
        }
        if let Some(c) = self.subst[idx as usize] {
            self.map[node as usize] = Some(c);
            return c;
        }
        let info = &self.old.latches()[idx as usize];
        let (name, init) = (info.name.clone(), info.init);
        let b = self.new.latch(name, init);
        self.map[node as usize] = Some(b);
        self.latch_back.push(idx);
        self.pending.push((idx, b));
        b
    }

    /// Translates an old bit into the new netlist, creating everything
    /// its cone needs. Iterative, so product-machine depth cannot blow
    /// the stack.
    fn translate(&mut self, b: Bit) -> Bit {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(b.node());
        while let Some(&n) = stack.last() {
            if self.map[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match self.old.node(Bit::from_packed(n << 1)) {
                Node::Const => {
                    self.map[n as usize] = Some(Bit::FALSE);
                    stack.pop();
                }
                Node::Input(i) => {
                    self.touch_input(i);
                    stack.pop();
                }
                Node::Latch(l) => {
                    self.touch_latch(l);
                    stack.pop();
                }
                Node::And(x, y) => {
                    let ix = self.map[x.node() as usize];
                    let iy = self.map[y.node() as usize];
                    match (ix, iy) {
                        (Some(ix), Some(iy)) => {
                            let ix = if x.is_complemented() { ix.not() } else { ix };
                            let iy = if y.is_complemented() { iy.not() } else { iy };
                            let img = self.new.and(ix, iy);
                            self.map[n as usize] = Some(img);
                            stack.pop();
                        }
                        _ => {
                            if ix.is_none() {
                                stack.push(x.node());
                            }
                            if iy.is_none() {
                                stack.push(y.node());
                            }
                        }
                    }
                }
            }
        }
        self.stack = stack;
        let img = self.map[b.node() as usize].expect("just translated");
        if b.is_complemented() {
            img.not()
        } else {
            img
        }
    }

    /// Translates the verification roots and every reached latch's
    /// next-state, registers assumes/bads/probes on the output, and
    /// returns the netlist, the rewrite and the images of `extra_roots`.
    fn finish(mut self, opts: &PassOpts, extra_roots: &[Bit]) -> (Aig, Rewrite, Vec<Bit>) {
        let assumes: Vec<Bit> = self.old.assumes().to_vec();
        for a in assumes {
            let img = self.translate(a);
            self.new.add_assume(img);
        }
        let bads: Vec<(String, Bit)> = self
            .old
            .bads()
            .iter()
            .map(|b| (b.name.clone(), b.bit))
            .collect();
        for (name, bit) in bads {
            let img = self.translate(bit);
            self.new.add_bad(name, img);
        }
        if opts.keep_probes {
            let probes: Vec<(String, Vec<Bit>)> = self
                .old
                .probes()
                .iter()
                .map(|p| (p.name.clone(), p.bits.clone()))
                .collect();
            for (name, bits) in probes {
                let imgs: Vec<Bit> = bits.into_iter().map(|b| self.translate(b)).collect();
                self.new.add_probe(name, imgs);
            }
        }
        let images: Vec<Bit> = extra_roots.iter().map(|&b| self.translate(b)).collect();
        // Seal every created latch; translating a next-state may create
        // more latches, so drain until quiet.
        while let Some((old_idx, handle)) = self.pending.pop() {
            let next = self.old.latches()[old_idx as usize]
                .next
                .expect("pass input must have sealed latches");
            let img = self.translate(next);
            self.new.set_next(handle, img);
        }
        let rewrite = Rewrite {
            forward: self.map,
            latch_back: self.latch_back,
            input_back: self.input_back,
        };
        (self.new, rewrite, images)
    }
}

// ---------------------------------------------------------------------------
// The standard passes.
// ---------------------------------------------------------------------------

/// Cone-of-influence reduction: latches, inputs and gates that cannot
/// reach any assume/bad bit (or kept probe, or extra root) are dropped.
pub struct CoiPass;

impl Pass for CoiPass {
    fn name(&self) -> &'static str {
        "coi"
    }

    fn run(&self, aig: &Aig, roots: &[Bit], opts: &PassOpts) -> (Aig, Rewrite) {
        let r = Rebuilder::new(
            aig,
            vec![None; aig.num_latches()],
            Creation::Lazy,
            Creation::Lazy,
        );
        let (new, rewrite, _) = r.finish(opts, roots);
        (new, rewrite)
    }
}

/// Constant sweep: stuck-at-reset latches are replaced by their reset
/// constant (computed to a fixpoint), and the whole netlist is rebuilt
/// through the hash-consing constructor so logic that became
/// structurally identical across the two machine copies merges.
pub struct ConstSweepPass;

/// Partial constant evaluation of `bit` under `latch_consts` (unknown
/// inputs/latches are `None`); memoised in `memo` per sweep iteration.
fn const_eval(
    aig: &Aig,
    latch_consts: &[Option<bool>],
    memo: &mut [Option<Option<bool>>],
    bit: Bit,
) -> Option<bool> {
    let mut stack = vec![bit.node()];
    while let Some(&n) = stack.last() {
        if memo[n as usize].is_some() {
            stack.pop();
            continue;
        }
        let value = match aig.node(Bit::from_packed(n << 1)) {
            Node::Const => Some(Some(false)),
            Node::Input(_) => Some(None),
            Node::Latch(l) => Some(latch_consts[l as usize]),
            Node::And(x, y) => {
                let ex = memo[x.node() as usize].map(|v| v.map(|b| b != x.is_complemented()));
                let ey = memo[y.node() as usize].map(|v| v.map(|b| b != y.is_complemented()));
                match (ex, ey) {
                    (Some(ex), Some(ey)) => Some(match (ex, ey) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    }),
                    _ => {
                        if memo[x.node() as usize].is_none() {
                            stack.push(x.node());
                        }
                        if memo[y.node() as usize].is_none() {
                            stack.push(y.node());
                        }
                        None
                    }
                }
            }
        };
        if let Some(v) = value {
            memo[n as usize] = Some(v);
            stack.pop();
        }
    }
    memo[bit.node() as usize]
        .expect("just evaluated")
        .map(|b| b != bit.is_complemented())
}

/// Latches provably stuck at their reset value: start from "every
/// concretely-initialised latch holds its reset value" and drop
/// candidates whose next-state does not evaluate back to it, until
/// stable. Sound: the surviving set is a mutual-induction proof that
/// each member never changes.
fn stuck_latches(aig: &Aig) -> Vec<Option<bool>> {
    let mut cand: Vec<Option<bool>> = aig
        .latches()
        .iter()
        .map(|l| match l.init {
            Init::Zero => Some(false),
            Init::One => Some(true),
            Init::Symbolic => None,
        })
        .collect();
    // One memo for every iteration, cleared as each one starts.
    let mut memo: Vec<Option<Option<bool>>> = vec![None; aig.num_nodes()];
    loop {
        memo.fill(None);
        let mut changed = false;
        for (i, l) in aig.latches().iter().enumerate() {
            let Some(v) = cand[i] else { continue };
            let next = l.next.expect("pass input must have sealed latches");
            if const_eval(aig, &cand, &mut memo, next) != Some(v) {
                cand[i] = None;
                changed = true;
            }
        }
        if !changed {
            return cand;
        }
    }
}

impl Pass for ConstSweepPass {
    fn name(&self) -> &'static str {
        "const-sweep"
    }

    fn run(&self, aig: &Aig, roots: &[Bit], opts: &PassOpts) -> (Aig, Rewrite) {
        let subst: Vec<Option<Bit>> = stuck_latches(aig)
            .into_iter()
            .map(|c| c.map(|v| if v { Bit::TRUE } else { Bit::FALSE }))
            .collect();
        // Eager: this pass only substitutes and re-strashes; orphan
        // removal is DeadLatchPass/CompactPass territory (so the per-pass
        // stats attribute each reduction to the pass that earned it).
        let r = Rebuilder::new(aig, subst, Creation::Eager, Creation::Eager);
        let (new, rewrite, _) = r.finish(opts, roots);
        (new, rewrite)
    }
}

/// Dead-latch elimination: latches no longer reachable from any root
/// through next-state functions — typically orphaned by the constant
/// sweep — are removed, along with their private logic cones. Inputs are
/// left in place ([`CompactPass`] collects dead ones).
pub struct DeadLatchPass;

impl Pass for DeadLatchPass {
    fn name(&self) -> &'static str {
        "dead-latch"
    }

    fn run(&self, aig: &Aig, roots: &[Bit], opts: &PassOpts) -> (Aig, Rewrite) {
        let r = Rebuilder::new(
            aig,
            vec![None; aig.num_latches()],
            Creation::Lazy,
            Creation::Eager,
        );
        let (new, rewrite, _) = r.finish(opts, roots);
        (new, rewrite)
    }
}

/// Probe-preserving node compaction: every latch survives, probes are
/// re-registered, but unreachable AND nodes and fanout-free inputs are
/// dropped and the survivors renumbered densely.
pub struct CompactPass;

impl Pass for CompactPass {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn run(&self, aig: &Aig, roots: &[Bit], opts: &PassOpts) -> (Aig, Rewrite) {
        let r = Rebuilder::new(
            aig,
            vec![None; aig.num_latches()],
            Creation::Eager,
            Creation::Lazy,
        );
        let (new, rewrite, _) = r.finish(opts, roots);
        (new, rewrite)
    }
}

// ---------------------------------------------------------------------------
// The pipeline runner.
// ---------------------------------------------------------------------------

/// What a [`Pipeline`] run produced: the reduced netlist, the composed
/// back-map, per-pass statistics, and the images of the extra roots.
pub struct Prepared {
    pub aig: Aig,
    pub reconstruction: Reconstruction,
    pub stats: PipelineStats,
    /// Final image of each bit in [`Pipeline::run`]'s `extra_roots`, in
    /// order. Roots are kept alive by every pass, so each has an image
    /// (possibly a constant, when the pipeline folded it).
    pub root_images: Vec<Bit>,
}

/// An ordered list of [`Pass`]es run back to back, composing their
/// rewrites.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
    opts: PassOpts,
}

impl Pipeline {
    /// An empty pipeline (runs produce the identity transformation).
    pub fn new(opts: PassOpts) -> Pipeline {
        Pipeline {
            passes: Vec::new(),
            opts,
        }
    }

    /// The standard reduction order: cone-of-influence, constant sweep,
    /// dead-latch elimination, compaction.
    pub fn standard(opts: PassOpts) -> Pipeline {
        Pipeline::new(opts)
            .with_pass(CoiPass)
            .with_pass(ConstSweepPass)
            .with_pass(DeadLatchPass)
            .with_pass(CompactPass)
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Pipeline {
        self.passes.push(Box::new(pass));
        self
    }

    /// The configured passes, in execution order.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order. `extra_roots` (e.g. candidate invariant
    /// bits) are kept alive through the whole pipeline and returned as
    /// their final images.
    ///
    /// # Panics
    /// Panics if `aig` has unsealed latches.
    pub fn run(&self, aig: &Aig, extra_roots: &[Bit]) -> Prepared {
        aig.validate()
            .unwrap_or_else(|names| panic!("unsealed latches: {names:?}"));
        // The input is only cloned when no pass runs: each pass reads
        // the previous output (or `aig` itself for the first) by
        // reference.
        let mut current: Option<Aig> = None;
        let mut rewrite = Rewrite::identity(aig);
        let mut roots: Vec<Bit> = extra_roots.to_vec();
        let mut stats = PipelineStats::default();
        for pass in &self.passes {
            let input = current.as_ref().unwrap_or(aig);
            let before = Shape::of(input);
            let (next, step) = pass.run(input, &roots, &self.opts);
            roots = roots
                .into_iter()
                .map(|b| step.forward(b).expect("passes must keep extra roots alive"))
                .collect();
            rewrite = Rewrite::compose(&rewrite, &step);
            stats.passes.push(PassStats {
                pass: pass.name().to_string(),
                before,
                after: Shape::of(&next),
            });
            current = Some(next);
        }
        Prepared {
            aig: current.unwrap_or_else(|| aig.clone()),
            reconstruction: Reconstruction::new(rewrite),
            stats,
            root_images: roots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;

    /// live counter asserted-on, dead counter dangling, a stuck latch,
    /// and a probe over the dead counter.
    fn mixed_design() -> Aig {
        let mut d = Design::new("t");
        let live = d.reg("live", 3, Init::Zero);
        let nxt = d.add_const(&live.q(), 1);
        d.set_next(&live, nxt);
        let dead = d.reg("dead", 4, Init::Zero);
        let dnxt = d.add_const(&dead.q(), 3);
        d.set_next(&dead, dnxt);
        let stuck = d.reg("stuck", 1, Init::Zero);
        d.hold(&stuck);
        let x = d.input_bit("x");
        let gated = d.and_bit(stuck.q().bit(0), x);
        let hit = d.eq_const(&live.q(), 5);
        let bad = d.or_bit(hit, gated);
        d.assert_always("bad", bad);
        let dq = dead.q();
        d.probe("dead", &dq);
        d.finish()
    }

    #[test]
    fn coi_drops_dead_state_without_probes() {
        let aig = mixed_design();
        let (reduced, rw) = CoiPass.run(&aig, &[], &PassOpts { keep_probes: false });
        assert!(reduced.validate().is_ok());
        // The dead counter (4 latches) is gone; live (3) + stuck (1) stay.
        assert_eq!(reduced.num_latches(), 4);
        assert!(reduced.latches().iter().all(|l| !l.name.contains("dead")));
        // Back-maps point at the original indices.
        for (new, l) in reduced.latches().iter().enumerate() {
            let old = rw.original_latch(new as u32).unwrap();
            assert_eq!(aig.latches()[old as usize].name, l.name);
        }
        // Bads/assumes preserved by name.
        assert_eq!(reduced.bads().len(), 1);
        assert_eq!(reduced.bads()[0].name, "bad");
    }

    #[test]
    fn coi_keeps_probed_state_when_requested() {
        let aig = mixed_design();
        let (reduced, _) = CoiPass.run(&aig, &[], &PassOpts { keep_probes: true });
        assert!(reduced.latches().iter().any(|l| l.name.contains("dead")));
        assert_eq!(reduced.probes().len(), 1);
    }

    #[test]
    fn const_sweep_folds_stuck_latches() {
        let aig = mixed_design();
        let stuck = stuck_latches(&aig);
        // `stuck` (hold of Zero) is constant; the counters are not.
        let names: Vec<(&str, Option<bool>)> = aig
            .latches()
            .iter()
            .zip(&stuck)
            .map(|(l, s)| (l.name.as_str(), *s))
            .collect();
        for (name, s) in names {
            if name.starts_with("stuck") {
                assert_eq!(s, Some(false), "{name}");
            } else {
                assert_eq!(s, None, "{name}");
            }
        }
        let (reduced, rw) = ConstSweepPass.run(&aig, &[], &PassOpts { keep_probes: true });
        assert!(reduced.validate().is_ok());
        assert!(reduced.latches().iter().all(|l| !l.name.contains("stuck")));
        // The gated path folded away: `stuck & x` became FALSE, so the
        // bad reduces to the live-counter comparison.
        assert!(reduced.num_ands() < aig.num_ands());
        // The stuck latch has no image as a latch, but its output bit
        // maps to the constant.
        let stuck_out = aig
            .latches()
            .iter()
            .find(|l| l.name.starts_with("stuck"))
            .unwrap()
            .output;
        assert_eq!(rw.forward(stuck_out), Some(Bit::FALSE));
    }

    #[test]
    fn const_sweep_merges_cross_copy_duplicates() {
        // Two copies compute `sel ? a : b`; copy 2's selector latch is
        // stuck at 0, copy 1's genuinely toggles. After sweeping, copy
        // 2's mux collapses onto the shared `b` operand.
        let mut d = Design::new("t");
        let a = d.input_bit("a");
        let b = d.input_bit("b");
        let sel1 = d.reg("c1.sel", 1, Init::Symbolic);
        d.hold(&sel1);
        let sel2 = d.reg("c2.sel", 1, Init::Zero);
        d.hold(&sel2);
        let m1 = d.mux_bit(sel1.q().bit(0), a, b);
        let m2 = d.mux_bit(sel2.q().bit(0), a, b);
        let ne = d.xor_bit(m1, m2);
        d.assert_always("diverge", ne);
        let aig = d.finish();
        let (reduced, _) = ConstSweepPass.run(&aig, &[], &PassOpts { keep_probes: false });
        assert!(reduced.num_ands() < aig.num_ands());
        assert!(reduced.latches().iter().all(|l| l.name != "c2.sel"));
    }

    #[test]
    fn dead_latch_removes_orphans_and_compact_drops_inputs() {
        let aig = mixed_design();
        let opts = PassOpts { keep_probes: false };
        // Const sweep leaves the dead counter in place (eager rebuild)…
        let (swept, _) = ConstSweepPass.run(&aig, &[], &opts);
        assert!(swept.latches().iter().any(|l| l.name.contains("dead")));
        // …dead-latch elimination removes it but keeps input x…
        let (deadfree, _) = DeadLatchPass.run(&swept, &[], &opts);
        assert!(deadfree.latches().iter().all(|l| !l.name.contains("dead")));
        assert_eq!(deadfree.num_inputs(), 1);
        // …and compaction drops the now-unreferenced input.
        let (compacted, _) = CompactPass.run(&deadfree, &[], &opts);
        assert_eq!(compacted.num_inputs(), 0);
        assert_eq!(compacted.num_latches(), deadfree.num_latches());
    }

    #[test]
    fn pipeline_composes_back_maps() {
        let aig = mixed_design();
        let prepared = Pipeline::standard(PassOpts { keep_probes: false }).run(&aig, &[]);
        assert!(prepared.aig.validate().is_ok());
        assert_eq!(prepared.stats.passes.len(), 4);
        assert!(prepared.stats.ands_removed() > 0);
        assert!(prepared.stats.latches_removed() > 0);
        // Every surviving latch's back-map resolves to the same name.
        for (new, l) in prepared.aig.latches().iter().enumerate() {
            let old = prepared.reconstruction.original_latch(new as u32).unwrap();
            assert_eq!(aig.latches()[old as usize].name, l.name);
        }
        for (new, i) in prepared.aig.inputs().iter().enumerate() {
            let old = prepared.reconstruction.original_input(new as u32).unwrap();
            assert_eq!(aig.inputs()[old as usize].name, i.name);
        }
    }

    #[test]
    fn extra_roots_survive_every_pass() {
        let mut d = Design::new("t");
        let a = d.reg("a", 2, Init::Zero);
        let b = d.reg("b", 2, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        let bn = d.add_const(&b.q(), 1);
        d.set_next(&a, an);
        d.set_next(&b, bn);
        // Property only mentions `a`; the candidate mentions both.
        let hit = d.eq_const(&a.q(), 3);
        d.assert_always("hit", hit);
        let cand = d.eq(&a.q(), &b.q());
        let aig = d.finish();
        let prepared = Pipeline::standard(PassOpts { keep_probes: false }).run(&aig, &[cand]);
        assert_eq!(prepared.root_images.len(), 1);
        // `b` only survives because the candidate root kept it alive.
        assert_eq!(prepared.aig.num_latches(), 4);
        assert!(!prepared.root_images[0].is_const());
    }

    #[test]
    fn constant_roots_keep_their_named_bads() {
        let mut d = Design::new("t");
        let r = d.reg("stuck", 1, Init::Zero);
        d.hold(&r);
        // `assert_always(ok)` registers `!ok` as the bad bit, so the bad
        // here is the stuck latch output itself — constant false.
        d.assert_always("never", r.q().bit(0).not());
        let aig = d.finish();
        let prepared = Pipeline::standard(PassOpts::default()).run(&aig, &[]);
        // The bad folded to constant false but is still present by name.
        assert_eq!(prepared.aig.bads().len(), 1);
        assert_eq!(prepared.aig.bads()[0].name, "never");
        assert_eq!(prepared.aig.bads()[0].bit, Bit::FALSE);
        assert_eq!(prepared.aig.num_latches(), 0);
    }

    #[test]
    fn restored_constants_name_swept_latches() {
        let aig = mixed_design();
        let prepared = Pipeline::standard(PassOpts { keep_probes: false }).run(&aig, &[]);
        let restored = prepared.reconstruction.restored_constants(&aig);
        // Exactly the stuck latch is restored (at its reset value 0);
        // COI/dead-latch-dropped latches have no image and stay absent.
        assert_eq!(restored.len(), 1);
        let (idx, val) = restored[0];
        assert!(aig.latches()[idx as usize].name.starts_with("stuck"));
        assert!(!val);
        // Identity reconstruction restores nothing.
        assert!(Reconstruction::identity(&aig)
            .restored_constants(&aig)
            .is_empty());
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let aig = mixed_design();
        let prepared = Pipeline::new(PassOpts::default()).run(&aig, &[]);
        assert_eq!(prepared.aig.num_nodes(), aig.num_nodes());
        assert!(prepared.stats.passes.is_empty());
        assert_eq!(prepared.reconstruction.original_latch(0), Some(0));
    }
}
