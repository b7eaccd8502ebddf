//! Netlist reduction with trace back-mapping.
//!
//! The verification instances this workspace builds are *products*: two
//! machine copies plus monitor logic, and every engine pays for their
//! size on every SAT query. [`Aig::and`] already hash-conses at build
//! time, but build-time hashing cannot fold logic across the two copies
//! once their latches diverge, and it never removes state that cannot
//! reach a property. [`reduce`] is the post-build reduction, one rebuild
//! of the netlist:
//!
//! * **Constant sweep**: stuck-at-reset latches are found first, to a
//!   fixpoint. A concretely-initialised latch whose next-state function
//!   evaluates to its own reset value, under the constants of the other
//!   candidates, is replaced by that constant. The evaluation is ternary
//!   and covers the whole netlist, so it also gives every node that is
//!   constant under those latches its constant.
//! * **One lazy rebuild** from the verification roots (assume and bad
//!   bits, probes when kept, extra roots) then translates only what they
//!   reach through [`Aig::and`], which re-strashes and folds as it goes:
//!   a node with a known constant maps straight to it without its cone
//!   being entered, latches and inputs are created on first use, and
//!   logic in the two machine copies that became structurally identical
//!   once constants propagated merges. State and logic outside the cone
//!   of influence, or reachable only through folded logic, is never
//!   created.
//!
//! The rebuild's node map is a [`Reconstruction`], which lifts any
//! model-checking artifact on the reduced netlist (a counterexample's
//! latch/input indices) back to the original netlist's names and
//! indices, and names the constants a certificate must restore. The
//! guarantees:
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
//! * **Candidate/root threading**: extra root bits handed to [`reduce`]
//!   (e.g. Houdini candidate invariants) are kept alive and returned as
//!   their images.

use std::fmt;

use crate::aig::{Aig, Bit, Init, Node};

/// The size of a netlist, as recorded in preparation statistics.
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

/// Before/after sizes of one reduction, as reports record them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// What ran: `"reduce"` for [`reduce`]. Reports written when
    /// preparation ran as four passes carry one entry per pass.
    pub pass: String,
    pub before: Shape,
    pub after: Shape,
}

impl PassStats {
    /// AND gates removed (saturating: a reduction never grows the
    /// netlist, but stay defensive).
    pub fn ands_removed(&self) -> usize {
        self.before.ands.saturating_sub(self.after.ands)
    }

    pub fn latches_removed(&self) -> usize {
        self.before.latches.saturating_sub(self.after.latches)
    }
}

/// Where every surviving piece of an original netlist went in its
/// reduced form, with the lifting-oriented API model-checking layers use
/// to express reduced-netlist artifacts in original-netlist vocabulary.
///
/// Latches and inputs the reduction removed simply have no image: a
/// lifted counterexample leaves them unconstrained, which is sound
/// because a removed latch either cannot influence any assume/bad bit
/// or provably holds its reset value forever — in both cases the
/// original netlist reproduces the behaviour from reset on its own.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    /// Image of each original node's positive literal (`None` = dropped).
    forward: Vec<Option<Bit>>,
    /// Reduced latch index -> original latch index.
    latch_back: Vec<u32>,
    /// Reduced input index -> original input index.
    input_back: Vec<u32>,
}

impl Reconstruction {
    /// The identity reconstruction (preparation disabled).
    pub fn identity(aig: &Aig) -> Reconstruction {
        Reconstruction {
            forward: (0..aig.num_nodes() as u32)
                .map(|n| Some(Bit::from_packed(n << 1)))
                .collect(),
            latch_back: (0..aig.num_latches() as u32).collect(),
            input_back: (0..aig.num_inputs() as u32).collect(),
        }
    }

    /// Original latch index behind reduced latch `new_latch`.
    pub fn original_latch(&self, new_latch: u32) -> Option<u32> {
        self.latch_back.get(new_latch as usize).copied()
    }

    /// Original input index behind reduced input `new_input`.
    pub fn original_input(&self, new_input: u32) -> Option<u32> {
        self.input_back.get(new_input as usize).copied()
    }

    /// Image of an original-netlist bit in the reduced netlist, if it
    /// survived.
    pub fn forward(&self, original: Bit) -> Option<Bit> {
        let img = (*self.forward.get(original.node() as usize)?)?;
        Some(if original.is_complemented() {
            img.not()
        } else {
            img
        })
    }

    /// Number of latches in the reduced netlist.
    pub fn reduced_latches(&self) -> usize {
        self.latch_back.len()
    }

    /// Number of inputs in the reduced netlist.
    pub fn reduced_inputs(&self) -> usize {
        self.input_back.len()
    }

    /// The restore map for constant-folded state: original latches the
    /// reduction replaced by a constant, as `(original_latch_index,
    /// constant_value)` pairs.
    ///
    /// [`reduce`] folds a latch to a constant only when the stuck-at-reset
    /// fixpoint proves it holds its (concrete) reset value in every
    /// reachable state, and restores it when the reduced netlist's
    /// functions were computed from it — so each returned pair is a true
    /// invariant of `original`, independently re-checkable by induction
    /// on the raw netlist. Certificate checkers use this to reconstruct
    /// the part of an inductive invariant that preparation discharged
    /// before the engines ever ran.
    ///
    /// Latches the reduction merely dropped have no image at all and do
    /// not appear here.
    pub fn restored_constants(&self, original: &Aig) -> Vec<(u32, bool)> {
        original
            .latches()
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match self.forward(l.output) {
                Some(b) if b == Bit::FALSE => Some((i as u32, false)),
                Some(b) if b == Bit::TRUE => Some((i as u32, true)),
                _ => None,
            })
            .collect()
    }
}

/// What [`reduce`] produced: the reduced netlist, the map back to the
/// original, the before/after sizes, and the images of the extra roots.
pub struct Prepared {
    pub aig: Aig,
    pub reconstruction: Reconstruction,
    pub stats: PassStats,
    /// Image of each bit in [`reduce`]'s `extra_roots`, in order. Roots
    /// are kept alive, so each has an image (possibly a constant, when
    /// the reduction folded it).
    pub root_images: Vec<Bit>,
}

/// Reduces `aig` in one rebuild: stuck-at-reset latches become their
/// reset constants, every node constant under them maps straight to its
/// constant, and only what the roots (assumes, bads, probes when
/// `keep_probes`, and `extra_roots`) still reach is rebuilt. See the
/// module docs for the guarantees.
///
/// # Panics
/// Panics if `aig` has unsealed latches.
pub fn reduce(aig: &Aig, extra_roots: &[Bit], keep_probes: bool) -> Prepared {
    aig.validate()
        .unwrap_or_else(|names| panic!("unsealed latches: {names:?}"));
    let mut r = Rebuilder::new(aig, &node_constants(aig));
    let root_images = r.finish(keep_probes, extra_roots);
    // Every stuck latch starts with its constant as image; it keeps it
    // only when the reduced netlist was computed from it, i.e. when it is
    // in the combinational fan-in of a root or of a kept latch's
    // next-state function.
    let mut stack = std::mem::take(&mut r.seeds);
    let mut reached = vec![false; aig.num_nodes()];
    while let Some(n) = stack.pop() {
        if !std::mem::replace(&mut reached[n as usize], true) {
            if let Node::And(x, y) = aig.node(Bit::from_packed(n << 1)) {
                stack.extend([x.node(), y.node()]);
            }
        }
    }
    for l in aig.latches() {
        if !reached[l.output.node() as usize] {
            r.map[l.output.node() as usize] = None;
        }
    }
    let stats = PassStats {
        pass: "reduce".to_string(),
        before: Shape::of(aig),
        after: Shape::of(&r.new),
    };
    Prepared {
        aig: r.new,
        reconstruction: Reconstruction {
            forward: r.map,
            latch_back: r.latch_back,
            input_back: r.input_back,
        },
        stats,
        root_images,
    }
}

/// The ternary value of `b` given the values of the nodes below it.
fn value_of(values: &[Option<bool>], b: Bit) -> Option<bool> {
    values[b.node() as usize].map(|v| v != b.is_complemented())
}

/// Each node's constant under the stuck-at-reset latches (`None` where
/// it is not constant). Starts from "every concretely-initialised latch
/// holds its reset value" and drops candidates whose next-state does not
/// evaluate back to it, until stable. Sound: the surviving set is a
/// mutual-induction proof that each member never changes. Nodes are
/// numbered after their operands, so one pass in index order evaluates
/// the whole netlist, and the last pass gives every node's constant.
fn node_constants(aig: &Aig) -> Vec<Option<bool>> {
    let mut stuck: Vec<Option<bool>> = aig
        .latches()
        .iter()
        .map(|l| match l.init {
            Init::Zero => Some(false),
            Init::One => Some(true),
            Init::Symbolic => None,
        })
        .collect();
    let mut values: Vec<Option<bool>> = vec![None; aig.num_nodes()];
    loop {
        for n in 0..values.len() {
            values[n] = match aig.node(Bit::from_packed((n as u32) << 1)) {
                Node::Const => Some(false),
                Node::Input(_) => None,
                Node::Latch(l) => stuck[l as usize],
                Node::And(x, y) => match (value_of(&values, x), value_of(&values, y)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            };
        }
        let mut changed = false;
        for (l, info) in aig.latches().iter().enumerate() {
            let next = info.next.expect("reduce input must have sealed latches");
            if stuck[l].is_some() && value_of(&values, next) != stuck[l] {
                stuck[l] = None;
                changed = true;
            }
        }
        if !changed {
            return values;
        }
    }
}

/// Rebuilds a netlist bottom-up through [`Aig::and`] (re-strashing and
/// constant-folding as it goes), translating only what the roots and
/// created latches reach.
struct Rebuilder<'a> {
    old: &'a Aig,
    new: Aig,
    /// Image of each old node's positive literal, seeded with every
    /// node's known constant.
    map: Vec<Option<Bit>>,
    latch_back: Vec<u32>,
    input_back: Vec<u32>,
    /// Latches created whose next-state still needs translation.
    pending: Vec<(u32, Bit)>,
    /// Old nodes [`Rebuilder::translate`] was asked for: the roots and
    /// every created latch's next-state.
    seeds: Vec<u32>,
    /// Work list of [`Rebuilder::translate`], kept to reuse its buffer.
    stack: Vec<u32>,
}

impl<'a> Rebuilder<'a> {
    fn new(old: &'a Aig, consts: &[Option<bool>]) -> Rebuilder<'a> {
        Rebuilder {
            old,
            // A rebuild creates at most one node per old node.
            new: Aig::with_capacity(old.num_nodes()),
            map: consts
                .iter()
                .map(|c| c.map(|v| if v { Bit::TRUE } else { Bit::FALSE }))
                .collect(),
            latch_back: Vec::new(),
            input_back: Vec::new(),
            pending: Vec::new(),
            seeds: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn touch_input(&mut self, idx: u32) {
        let info = &self.old.inputs()[idx as usize];
        let node = info.output.node();
        let b = self.new.input(info.name.clone());
        self.map[node as usize] = Some(b);
        self.input_back.push(idx);
    }

    fn touch_latch(&mut self, idx: u32) {
        let info = &self.old.latches()[idx as usize];
        let node = info.output.node();
        let b = self.new.latch(info.name.clone(), info.init);
        self.map[node as usize] = Some(b);
        self.latch_back.push(idx);
        self.pending.push((idx, b));
    }

    /// Translates an old bit into the new netlist, creating everything
    /// its cone needs. Iterative, so product-machine depth cannot blow
    /// the stack.
    fn translate(&mut self, b: Bit) -> Bit {
        self.seeds.push(b.node());
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(b.node());
        while let Some(&n) = stack.last() {
            if self.map[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match self.old.node(Bit::from_packed(n << 1)) {
                Node::Const => unreachable!("the constant node is seeded with its value"),
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

    /// Translates the verification roots and every created latch's
    /// next-state, registers assumes/bads/probes on the output, and
    /// returns the images of `extra_roots`.
    fn finish(&mut self, keep_probes: bool, extra_roots: &[Bit]) -> Vec<Bit> {
        let old = self.old;
        for &a in old.assumes() {
            let img = self.translate(a);
            self.new.add_assume(img);
        }
        for b in old.bads() {
            let img = self.translate(b.bit);
            self.new.add_bad(b.name.clone(), img);
        }
        if keep_probes {
            for p in old.probes() {
                let imgs: Vec<Bit> = p.bits.iter().map(|&b| self.translate(b)).collect();
                self.new.add_probe(p.name.clone(), imgs);
            }
        }
        let images: Vec<Bit> = extra_roots.iter().map(|&b| self.translate(b)).collect();
        // Seal every created latch; translating a next-state may create
        // more latches, so drain until quiet.
        while let Some((old_idx, handle)) = self.pending.pop() {
            let next = old.latches()[old_idx as usize]
                .next
                .expect("reduce input must have sealed latches");
            let img = self.translate(next);
            self.new.set_next(handle, img);
        }
        images
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
        let prepared = reduce(&aig, &[], false);
        let (reduced, rc) = (&prepared.aig, &prepared.reconstruction);
        assert!(reduced.validate().is_ok());
        // The dead counter (4 latches) is gone and `stuck` folded; only
        // live (3) stays.
        assert_eq!(reduced.num_latches(), 3);
        assert!(reduced.latches().iter().all(|l| l.name.starts_with("live")));
        // Back-maps point at the original indices.
        for (new, l) in reduced.latches().iter().enumerate() {
            let old = rc.original_latch(new as u32).unwrap();
            assert_eq!(aig.latches()[old as usize].name, l.name);
        }
        // Bads/assumes preserved by name.
        assert_eq!(reduced.bads().len(), 1);
        assert_eq!(reduced.bads()[0].name, "bad");
    }

    #[test]
    fn coi_keeps_probed_state_when_requested() {
        let aig = mixed_design();
        let reduced = reduce(&aig, &[], true).aig;
        assert!(reduced.latches().iter().any(|l| l.name.contains("dead")));
        assert_eq!(reduced.probes().len(), 1);
    }

    #[test]
    fn const_sweep_folds_stuck_latches() {
        let aig = mixed_design();
        let consts = node_constants(&aig);
        // `stuck` (hold of Zero) is constant; the counters are not.
        for l in aig.latches() {
            let c = consts[l.output.node() as usize];
            if l.name.starts_with("stuck") {
                assert_eq!(c, Some(false), "{}", l.name);
            } else {
                assert_eq!(c, None, "{}", l.name);
            }
        }
        let prepared = reduce(&aig, &[], true);
        let reduced = &prepared.aig;
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
        assert_eq!(prepared.reconstruction.forward(stuck_out), Some(Bit::FALSE));
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
        let reduced = reduce(&aig, &[], false).aig;
        assert!(reduced.num_ands() < aig.num_ands());
        assert!(reduced.latches().iter().all(|l| l.name != "c2.sel"));
    }

    #[test]
    fn reduce_drops_state_orphaned_by_folding() {
        // `orphan` and `x` are in the cone, but reach the bad only
        // through `stuck`, which folds to 0; `idle` is stuck too, but
        // outside the cone.
        let mut d = Design::new("t");
        let stuck = d.reg("stuck", 1, Init::Zero);
        d.hold(&stuck);
        let orphan = d.reg("orphan", 1, Init::Symbolic);
        d.hold(&orphan);
        let idle = d.reg("idle", 1, Init::One);
        d.hold(&idle);
        let x = d.input_bit("x");
        let gated = d.and_bit(orphan.q().bit(0), x);
        let hit = d.and_bit(stuck.q().bit(0), gated);
        d.assert_always("never", hit.not());
        let aig = d.finish();
        let prepared = reduce(&aig, &[], false);
        assert_eq!(prepared.aig.num_latches(), 0);
        assert_eq!(prepared.aig.num_inputs(), 0);
        // Only the stuck latch the bad was computed from is restored.
        let restored = prepared.reconstruction.restored_constants(&aig);
        let names: Vec<&str> = restored
            .iter()
            .map(|&(i, _)| aig.latches()[i as usize].name.as_str())
            .collect();
        assert_eq!(names, ["stuck[0]"]);
    }

    #[test]
    fn reduce_maps_back_to_original_names() {
        let aig = mixed_design();
        let prepared = reduce(&aig, &[], false);
        assert!(prepared.aig.validate().is_ok());
        assert_eq!(prepared.stats.pass, "reduce");
        assert_eq!(prepared.stats.before, Shape::of(&aig));
        assert_eq!(prepared.stats.after, Shape::of(&prepared.aig));
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
    fn extra_roots_keep_their_cones() {
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
        let prepared = reduce(&aig, &[cand], false);
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
        let prepared = reduce(&aig, &[], true);
        // The bad folded to constant false but is still present by name.
        assert_eq!(prepared.aig.bads().len(), 1);
        assert_eq!(prepared.aig.bads()[0].name, "never");
        assert_eq!(prepared.aig.bads()[0].bit, Bit::FALSE);
        assert_eq!(prepared.aig.num_latches(), 0);
    }

    #[test]
    fn restored_constants_name_swept_latches() {
        let aig = mixed_design();
        let prepared = reduce(&aig, &[], false);
        let restored = prepared.reconstruction.restored_constants(&aig);
        // Exactly the stuck latch is restored (at its reset value 0);
        // dropped latches have no image and stay absent.
        assert_eq!(restored.len(), 1);
        let (idx, val) = restored[0];
        assert!(aig.latches()[idx as usize].name.starts_with("stuck"));
        assert!(!val);
        // Identity reconstruction restores nothing.
        assert!(Reconstruction::identity(&aig)
            .restored_constants(&aig)
            .is_empty());
    }
}
