//! Two-valued concrete simulation of a netlist.
//!
//! The simulator serves three roles:
//! * cycle-accurate execution of processor generators for co-simulation
//!   against the ISA interpreter (testing the paper's "functional
//!   correctness" assumption, §5.4),
//! * replay of model-checker counterexamples, validating that every
//!   reported attack actually drives the design into the bad state,
//! * waveform extraction for human-readable attack listings.
//!
//! Two evaluators share the vocabulary: the scalar [`Sim`] walks the AIG
//! with one `bool` per node, and [`BatchSim`] walks it with one `u64` per
//! node — 64 independent stimulus lanes evaluated in a single topological
//! pass. The batch form is the engine behind the differential-fuzzing
//! backend: one pass costs essentially the same as a scalar pass (the
//! AND/complement operations are word-wide), so fuzzing throughput in
//! trials/second scales with the lane count.

use csl_hdl::{Aig, Bit, Init, Node};

use crate::trace::Trace;

/// Concrete state of all latches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimState {
    latch_values: Vec<bool>,
}

impl SimState {
    /// Reset state: declared init values, with symbolic latches taking the
    /// provided default (commonly driven from a counterexample's frame 0 or
    /// a random generator).
    pub fn reset_with(aig: &Aig, mut symbolic: impl FnMut(usize, &str) -> bool) -> SimState {
        let latch_values = aig
            .latches()
            .iter()
            .enumerate()
            .map(|(i, l)| match l.init {
                Init::Zero => false,
                Init::One => true,
                Init::Symbolic => symbolic(i, &l.name),
            })
            .collect();
        SimState { latch_values }
    }

    /// Reset state with all symbolic latches at 0.
    pub fn reset(aig: &Aig) -> SimState {
        SimState::reset_with(aig, |_, _| false)
    }

    /// Value of latch `i`.
    pub fn latch(&self, i: usize) -> bool {
        self.latch_values[i]
    }

    /// Overrides latch `i` (used when replaying counterexamples).
    pub fn set_latch(&mut self, i: usize, v: bool) {
        self.latch_values[i] = v;
    }

    pub fn num_latches(&self) -> usize {
        self.latch_values.len()
    }
}

/// Combinational values of every node for one cycle.
#[derive(Clone, Debug)]
pub struct CycleValues {
    values: Vec<bool>,
}

impl CycleValues {
    /// Value of an arbitrary bit this cycle.
    #[inline]
    pub fn bit(&self, b: Bit) -> bool {
        self.values[b.node() as usize] ^ b.is_complemented()
    }

    /// Value of a multi-bit word as an unsigned integer (LSB first).
    pub fn word(&self, bits: &[Bit]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((self.bit(b) as u64) << i))
    }
}

/// The simulator. Holds no mutable state besides scratch buffers; the
/// latch state lives in [`SimState`] so callers can fork/rewind executions.
pub struct Sim<'a> {
    aig: &'a Aig,
    scratch: Vec<bool>,
}

/// Result of one simulated cycle.
pub struct StepResult {
    /// Node values during the cycle (combinational snapshot).
    pub values: CycleValues,
    /// State after the clock edge.
    pub next: SimState,
    /// Indices of assume bits that were violated this cycle.
    pub violated_assumes: Vec<usize>,
    /// Names of bad bits that fired this cycle.
    pub fired_bads: Vec<String>,
}

impl<'a> Sim<'a> {
    pub fn new(aig: &'a Aig) -> Sim<'a> {
        Sim {
            aig,
            scratch: vec![false; aig.num_nodes()],
        }
    }

    /// Evaluates one cycle: combinational settle, then clock edge.
    ///
    /// `inputs(i, name)` supplies each primary input's value.
    pub fn step(
        &mut self,
        state: &SimState,
        mut inputs: impl FnMut(usize, &str) -> bool,
    ) -> StepResult {
        let aig = self.aig;
        let values = &mut self.scratch;
        // Nodes are created in topological order, so a single pass suffices.
        for idx in 0..aig.num_nodes() {
            let b = Bit::from_packed((idx as u32) << 1);
            values[idx] = match aig.node(b) {
                Node::Const => false,
                Node::Input(i) => inputs(i as usize, &aig.inputs()[i as usize].name),
                Node::Latch(l) => state.latch(l as usize),
                Node::And(x, y) => {
                    (values[x.node() as usize] ^ x.is_complemented())
                        && (values[y.node() as usize] ^ y.is_complemented())
                }
            };
        }
        let read = |b: Bit| values[b.node() as usize] ^ b.is_complemented();
        let next = SimState {
            latch_values: aig
                .latches()
                .iter()
                .map(|l| read(l.next.expect("unsealed latch")))
                .collect(),
        };
        let violated_assumes = aig
            .assumes()
            .iter()
            .enumerate()
            .filter(|(_, &a)| !read(a))
            .map(|(i, _)| i)
            .collect();
        let fired_bads = aig
            .bads()
            .iter()
            .filter(|b| read(b.bit))
            .map(|b| b.name.clone())
            .collect();
        StepResult {
            values: CycleValues {
                values: values.clone(),
            },
            next,
            violated_assumes,
            fired_bads,
        }
    }

    /// Replays a [`Trace`]: starts from the trace's initial latch values,
    /// drives its inputs, and reports what happened at each cycle.
    ///
    /// Returns `(all_assumes_held, bad_fired_at_last_cycle)` — a valid
    /// counterexample must yield `(true, true)`. A trace that starts a
    /// latch against its declared reset value
    /// ([`Trace::latch_off_reset`]) is no run from reset, so it yields
    /// `(false, false)` without being simulated.
    pub fn replay(&mut self, trace: &Trace) -> (bool, bool) {
        if trace.latch_off_reset(self.aig).is_some() {
            return (false, false);
        }
        let mut state = SimState::reset(self.aig);
        for (i, v) in &trace.initial_latches {
            state.set_latch(*i as usize, *v);
        }
        let mut assumes_ok = true;
        let mut bad_last = false;
        for cycle in 0..trace.depth() {
            let r = self.step(&state, |i, _| trace.input(cycle, i as u32).unwrap_or(false));
            assumes_ok &= r.violated_assumes.is_empty();
            bad_last = !r.fired_bads.is_empty();
            state = r.next;
        }
        (assumes_ok, bad_last)
    }
}

/// Concrete state of all latches across [`BatchSim::LANES`] parallel
/// lanes: bit `l` of each word is lane `l`'s value of that latch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchState {
    latch_values: Vec<u64>,
}

impl BatchState {
    /// Reset state: declared init values broadcast to every lane, with
    /// symbolic latches taking the provided per-lane word (bit `l` =
    /// lane `l`'s initial value — commonly a per-trial stimulus).
    pub fn reset_with(aig: &Aig, mut symbolic: impl FnMut(usize, &str) -> u64) -> BatchState {
        let latch_values = aig
            .latches()
            .iter()
            .enumerate()
            .map(|(i, l)| match l.init {
                Init::Zero => 0,
                Init::One => !0,
                Init::Symbolic => symbolic(i, &l.name),
            })
            .collect();
        BatchState { latch_values }
    }

    /// Reset state with all symbolic latches at 0 in every lane.
    pub fn reset(aig: &Aig) -> BatchState {
        BatchState::reset_with(aig, |_, _| 0)
    }

    /// All lanes' values of latch `i`.
    pub fn latch(&self, i: usize) -> u64 {
        self.latch_values[i]
    }

    /// Overrides latch `i` in every lane at once.
    pub fn set_latch(&mut self, i: usize, v: u64) {
        self.latch_values[i] = v;
    }

    pub fn num_latches(&self) -> usize {
        self.latch_values.len()
    }

    /// Projects one lane out as a scalar [`SimState`] (used when a lane's
    /// trial becomes a counterexample and needs scalar replay).
    pub fn lane(&self, lane: usize) -> SimState {
        debug_assert!(lane < BatchSim::LANES);
        SimState {
            latch_values: self
                .latch_values
                .iter()
                .map(|&w| (w >> lane) & 1 == 1)
                .collect(),
        }
    }
}

/// Combinational values of every node for one cycle, across all lanes.
#[derive(Clone, Debug)]
pub struct BatchCycleValues {
    values: Vec<u64>,
}

impl BatchCycleValues {
    /// All lanes' values of an arbitrary bit this cycle.
    #[inline]
    pub fn bit(&self, b: Bit) -> u64 {
        let v = self.values[b.node() as usize];
        if b.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// One lane's value of a bit.
    #[inline]
    pub fn lane_bit(&self, b: Bit, lane: usize) -> bool {
        (self.bit(b) >> lane) & 1 == 1
    }

    /// One lane's value of a multi-bit word (LSB first).
    pub fn word(&self, bits: &[Bit], lane: usize) -> u64 {
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| {
            acc | ((self.lane_bit(b, lane) as u64) << i)
        })
    }
}

/// Result of one batch-simulated cycle — the 64-lane mirror of
/// [`StepResult`]. Assume violations and fired bads come back as one
/// lane mask per declared assume/bad: bit `l` set means the assume was
/// violated (or the bad fired) in lane `l`.
pub struct BatchStep {
    /// Node values during the cycle (combinational snapshot, all lanes).
    pub values: BatchCycleValues,
    /// State after the clock edge.
    pub next: BatchState,
    /// Per-assume lane masks, parallel to `aig.assumes()`: bit `l` set =
    /// that assume was *violated* in lane `l` this cycle.
    pub violated_assumes: Vec<u64>,
    /// Per-bad lane masks, parallel to `aig.bads()`: bit `l` set = that
    /// bad bit fired in lane `l` this cycle.
    pub fired_bads: Vec<u64>,
}

impl BatchStep {
    /// Lanes in which *any* assume was violated this cycle.
    pub fn violated_lanes(&self) -> u64 {
        self.violated_assumes.iter().fold(0, |acc, &m| acc | m)
    }

    /// Lanes in which *any* bad bit fired this cycle.
    pub fn fired_lanes(&self) -> u64 {
        self.fired_bads.iter().fold(0, |acc, &m| acc | m)
    }
}

/// [`BatchStep`] without the combinational snapshot — what
/// [`BatchSim::step_masks`] returns for hot loops (the fuzzer) that
/// only consume the assume/bad masks and the next state, where cloning
/// every node's lane word each cycle would dominate the run.
pub struct BatchMasks {
    /// State after the clock edge.
    pub next: BatchState,
    /// Per-assume violation lane masks (see [`BatchStep`]).
    pub violated_assumes: Vec<u64>,
    /// Per-bad fired lane masks (see [`BatchStep`]).
    pub fired_bads: Vec<u64>,
}

impl BatchMasks {
    /// Lanes in which *any* assume was violated this cycle.
    pub fn violated_lanes(&self) -> u64 {
        self.violated_assumes.iter().fold(0, |acc, &m| acc | m)
    }

    /// Lanes in which *any* bad bit fired this cycle.
    pub fn fired_lanes(&self) -> u64 {
        self.fired_bads.iter().fold(0, |acc, &m| acc | m)
    }
}

/// Bit-parallel simulator: evaluates the AIG over `u64` words, one bit
/// per lane, so a single topological pass advances [`BatchSim::LANES`]
/// independent stimuli by one cycle. Lane `l` of every mask/word is an
/// execution that is exactly the scalar [`Sim`] run on lane `l`'s
/// stimulus (see the `batch_sim_equiv` property test).
pub struct BatchSim<'a> {
    aig: &'a Aig,
    scratch: Vec<u64>,
}

impl<'a> BatchSim<'a> {
    /// Stimulus lanes per pass (the word width).
    pub const LANES: usize = 64;

    pub fn new(aig: &'a Aig) -> BatchSim<'a> {
        BatchSim {
            aig,
            scratch: vec![0; aig.num_nodes()],
        }
    }

    /// Evaluates one cycle across all lanes: combinational settle, then
    /// clock edge. `inputs(i, name)` supplies each primary input's
    /// per-lane word (bit `l` = lane `l`'s value). The full per-node
    /// snapshot is cloned into the result; hot loops that only need the
    /// masks should call [`BatchSim::step_masks`].
    pub fn step(
        &mut self,
        state: &BatchState,
        inputs: impl FnMut(usize, &str) -> u64,
    ) -> BatchStep {
        let masks = self.step_masks(state, inputs);
        BatchStep {
            values: BatchCycleValues {
                values: self.scratch.clone(),
            },
            next: masks.next,
            violated_assumes: masks.violated_assumes,
            fired_bads: masks.fired_bads,
        }
    }

    /// All lanes' value of `b` in the cycle the last step evaluated: one
    /// node read after [`BatchSim::step_masks`], without the snapshot.
    #[inline]
    pub(crate) fn bit(&self, b: Bit) -> u64 {
        let v = self.scratch[b.node() as usize];
        if b.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// [`BatchSim::step`] without materialising the combinational
    /// snapshot — no per-node allocation or copy, just the next state
    /// and the assume/bad lane masks.
    pub fn step_masks(
        &mut self,
        state: &BatchState,
        mut inputs: impl FnMut(usize, &str) -> u64,
    ) -> BatchMasks {
        let aig = self.aig;
        let values = &mut self.scratch;
        // Nodes are created in topological order, so a single pass
        // suffices (same invariant the scalar simulator relies on).
        for idx in 0..aig.num_nodes() {
            let b = Bit::from_packed((idx as u32) << 1);
            values[idx] = match aig.node(b) {
                Node::Const => 0,
                Node::Input(i) => inputs(i as usize, &aig.inputs()[i as usize].name),
                Node::Latch(l) => state.latch(l as usize),
                Node::And(x, y) => {
                    let vx = values[x.node() as usize];
                    let vy = values[y.node() as usize];
                    (if x.is_complemented() { !vx } else { vx })
                        & (if y.is_complemented() { !vy } else { vy })
                }
            };
        }
        let read = |b: Bit| {
            let v = values[b.node() as usize];
            if b.is_complemented() {
                !v
            } else {
                v
            }
        };
        let next = BatchState {
            latch_values: aig
                .latches()
                .iter()
                .map(|l| read(l.next.expect("unsealed latch")))
                .collect(),
        };
        let violated_assumes = aig.assumes().iter().map(|&a| !read(a)).collect();
        let fired_bads = aig.bads().iter().map(|b| read(b.bit)).collect();
        BatchMasks {
            next,
            violated_assumes,
            fired_bads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::Design;

    /// A 3-bit counter with wraparound and an `en` input.
    fn counter() -> Aig {
        let mut d = Design::new("counter");
        let en = d.input_bit("en");
        let c = d.reg("c", 3, Init::Zero);
        let inc = d.add_const(&c.q(), 1);
        let next = d.mux(en, &inc, &c.q());
        d.set_next(&c, next);
        let q = c.q();
        d.probe("c", &q);
        let is7 = d.eq_const(&c.q(), 7);
        d.assert_always("never7", is7.not());
        d.finish()
    }

    fn probe_word(aig: &Aig, name: &str) -> Vec<Bit> {
        aig.probes()
            .iter()
            .find(|p| p.name == name)
            .unwrap()
            .bits
            .clone()
    }

    #[test]
    fn counter_counts_when_enabled() {
        let aig = counter();
        let mut sim = Sim::new(&aig);
        let mut state = SimState::reset(&aig);
        let c = probe_word(&aig, "c");
        for expect in 0..7u64 {
            let r = sim.step(&state, |_, _| true);
            assert_eq!(r.values.word(&c), expect);
            assert!(r.fired_bads.is_empty());
            state = r.next;
        }
        // Cycle 7: counter reads 7, the assertion fires.
        let r = sim.step(&state, |_, _| true);
        assert_eq!(r.values.word(&c), 7);
        assert_eq!(r.fired_bads, vec!["never7".to_string()]);
    }

    #[test]
    fn counter_holds_when_disabled() {
        let aig = counter();
        let mut sim = Sim::new(&aig);
        let mut state = SimState::reset(&aig);
        for _ in 0..10 {
            let r = sim.step(&state, |_, _| false);
            state = r.next;
        }
        assert!(!state.latch(0) && !state.latch(1) && !state.latch(2));
    }

    #[test]
    fn symbolic_init_defaults() {
        let mut d = Design::new("t");
        let r = d.reg("r", 2, Init::Symbolic);
        d.hold(&r);
        let aig = d.finish();
        let s = SimState::reset_with(&aig, |i, _| i == 1);
        assert!(!s.latch(0));
        assert!(s.latch(1));
    }

    #[test]
    fn batch_counter_lanes_run_independently() {
        // Lane l enables the counter on cycles where bit l of the mask
        // pattern is set; after k cycles lane l reads popcount of enables.
        let aig = counter();
        let mut sim = BatchSim::new(&aig);
        let mut state = BatchState::reset(&aig);
        let c = probe_word(&aig, "c");
        // Lanes 0..6: lane l enables on every cycle < l (so lane l counts
        // to l over 6 cycles); lane 63 always enabled.
        for cycle in 0..6 {
            let mut en: u64 = 1 << 63;
            for lane in 0..7u64 {
                if cycle < lane {
                    en |= 1 << lane;
                }
            }
            let r = sim.step(&state, |_, _| en);
            state = r.next;
        }
        let r = sim.step(&state, |_, _| 0);
        for lane in 0..7usize {
            assert_eq!(r.values.word(&c, lane), lane.min(6) as u64, "lane {lane}");
        }
        assert_eq!(r.values.word(&c, 63), 6);
    }

    #[test]
    fn batch_bad_and_assume_masks_are_per_lane() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        d.assume(x);
        d.assert_always("x_high", x);
        let aig = d.finish();
        let mut sim = BatchSim::new(&aig);
        let state = BatchState::reset(&aig);
        let pattern: u64 = 0xDEAD_BEEF_0BAD_F00D;
        let r = sim.step(&state, |_, _| pattern);
        // The assume `x` and the assertion `x_high` are both violated
        // exactly in the lanes where the input is low.
        assert_eq!(r.violated_assumes, vec![!pattern]);
        assert_eq!(r.fired_bads, vec![!pattern]);
        assert_eq!(r.violated_lanes(), !pattern);
        assert_eq!(r.fired_lanes(), !pattern);
    }

    #[test]
    fn step_masks_agrees_with_step() {
        let aig = counter();
        let mut a = BatchSim::new(&aig);
        let mut b = BatchSim::new(&aig);
        let mut state = BatchState::reset(&aig);
        for cycle in 0..9 {
            let en: u64 = 0x5555_5555_5555_5555 ^ cycle;
            let full = a.step(&state, |_, _| en);
            let masks = b.step_masks(&state, |_, _| en);
            assert_eq!(masks.next, full.next);
            assert_eq!(masks.violated_assumes, full.violated_assumes);
            assert_eq!(masks.fired_bads, full.fired_bads);
            assert_eq!(masks.violated_lanes(), full.violated_lanes());
            assert_eq!(masks.fired_lanes(), full.fired_lanes());
            state = full.next;
        }
    }

    #[test]
    fn batch_symbolic_init_and_lane_projection() {
        let mut d = Design::new("t");
        let r = d.reg("r", 2, Init::Symbolic);
        let one = d.reg("one", 1, Init::One);
        d.hold(&r);
        d.hold(&one);
        let aig = d.finish();
        let s = BatchState::reset_with(&aig, |i, _| if i == 1 { 0b1010 } else { 0 });
        assert_eq!(s.latch(0), 0);
        assert_eq!(s.latch(1), 0b1010);
        assert_eq!(s.latch(2), !0, "Init::One broadcasts to every lane");
        let lane1 = s.lane(1);
        assert!(!lane1.latch(0) && lane1.latch(1) && lane1.latch(2));
        let lane2 = s.lane(2);
        assert!(!lane2.latch(1) && lane2.latch(2));
    }

    #[test]
    fn assume_violations_reported() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        d.assume(x);
        let aig = d.finish();
        let mut sim = Sim::new(&aig);
        let state = SimState::reset(&aig);
        let r = sim.step(&state, |_, _| false);
        assert_eq!(r.violated_assumes, vec![0]);
        let r = sim.step(&state, |_, _| true);
        assert!(r.violated_assumes.is_empty());
    }
}
