//! Bit-level netlist: an and-inverter graph (AIG) with latches.
//!
//! Every combinational function is expressed with two-input AND gates and
//! complemented edges; sequential state lives in latches with a declared
//! reset behaviour ([`Init`]). Verification intent is attached directly to
//! the netlist: `assume` bits constrain every cycle (SVA `assume`),
//! `bad` bits flag property violations (negated SVA `assert`), mirroring
//! the AIGER 1.9 convention used by hardware model checkers.
//!
//! Nodes are hash-consed, so structurally equal expressions share one node,
//! and simple constant/absorption rules fold at construction time.

use std::fmt;

use crate::fxhash::FxHashMap;

/// A literal in the netlist: a node index plus a complement flag.
///
/// `Bit::FALSE` and `Bit::TRUE` are the two polarities of the constant node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bit(u32);

impl Bit {
    /// Constant false.
    pub const FALSE: Bit = Bit(0);
    /// Constant true.
    pub const TRUE: Bit = Bit(1);

    #[inline]
    fn new(node: u32, complement: bool) -> Bit {
        Bit((node << 1) | complement as u32)
    }

    /// Index of the underlying node.
    #[inline]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// The complemented edge (logical NOT) — free in an AIG.
    /// (Also available as the `!` operator; the method form reads better
    /// in netlist-building chains.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Bit {
        Bit(self.0 ^ 1)
    }

    /// Packed representation, for use as a map key or dense index.
    #[inline]
    pub fn packed(self) -> u32 {
        self.0
    }

    /// Rebuilds a bit from [`Bit::packed`].
    #[inline]
    pub fn from_packed(raw: u32) -> Bit {
        Bit(raw)
    }

    /// True if this is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for Bit {
    type Output = Bit;
    #[inline]
    fn not(self) -> Bit {
        Bit(self.0 ^ 1)
    }
}

impl fmt::Debug for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Bit::FALSE {
            write!(f, "0")
        } else if *self == Bit::TRUE {
            write!(f, "1")
        } else if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// Reset behaviour of a latch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Init {
    /// Starts at 0.
    Zero,
    /// Starts at 1.
    One,
    /// Unconstrained initial value — the model checker explores all of them.
    /// This is how "the instruction memory holds an arbitrary program"
    /// (paper §6, step 2) is expressed.
    Symbolic,
}

/// The kind of a netlist node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Node {
    /// The constant-false node (index 0 only).
    Const,
    /// Primary input; payload is the input index.
    Input(u32),
    /// Latch output; payload is the latch index.
    Latch(u32),
    /// Two-input AND gate.
    And(Bit, Bit),
}

/// Metadata for one latch.
#[derive(Clone, Debug)]
pub struct LatchInfo {
    pub name: String,
    pub init: Init,
    /// Next-state function; `None` until [`Aig::set_next`] is called.
    pub next: Option<Bit>,
    /// The node that reads this latch.
    pub output: Bit,
}

/// Metadata for one primary input.
#[derive(Clone, Debug)]
pub struct InputInfo {
    pub name: String,
    pub output: Bit,
}

/// A named property: `bad` asserted means the property is violated.
#[derive(Clone, Debug)]
pub struct BadInfo {
    pub name: String,
    pub bit: Bit,
}

/// A named observation point for waveforms/traces (not part of the
/// verification semantics).
#[derive(Clone, Debug)]
pub struct ProbeInfo {
    pub name: String,
    pub bits: Vec<Bit>,
}

/// The and-inverter netlist. See the module docs.
#[derive(Default, Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    latches: Vec<LatchInfo>,
    inputs: Vec<InputInfo>,
    assumes: Vec<Bit>,
    bads: Vec<BadInfo>,
    probes: Vec<ProbeInfo>,
    /// Hash-consing table, by ordered operand pair. Only ever looked up,
    /// never iterated, so node numbering does not depend on its hasher.
    strash: FxHashMap<(Bit, Bit), u32>,
}

impl Aig {
    /// Creates an empty netlist (containing only the constant node).
    pub fn new() -> Aig {
        Aig::with_capacity(1)
    }

    /// An empty netlist with room for `nodes` nodes, so a rebuild of a
    /// netlist of known size does not regrow its tables.
    pub(crate) fn with_capacity(nodes: usize) -> Aig {
        let mut aig = Aig {
            nodes: Vec::with_capacity(nodes),
            strash: FxHashMap::with_capacity_and_hasher(nodes, Default::default()),
            ..Aig::default()
        };
        aig.nodes.push(Node::Const);
        aig
    }

    /// Total node count (constant + inputs + latches + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The node behind a bit.
    #[inline]
    pub fn node(&self, b: Bit) -> Node {
        self.nodes[b.node() as usize]
    }

    pub fn latches(&self) -> &[LatchInfo] {
        &self.latches
    }

    pub fn inputs(&self) -> &[InputInfo] {
        &self.inputs
    }

    pub fn assumes(&self) -> &[Bit] {
        &self.assumes
    }

    pub fn bads(&self) -> &[BadInfo] {
        &self.bads
    }

    pub fn probes(&self) -> &[ProbeInfo] {
        &self.probes
    }

    /// Creates a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> Bit {
        let node = self.nodes.len() as u32;
        let idx = self.inputs.len() as u32;
        self.nodes.push(Node::Input(idx));
        let out = Bit::new(node, false);
        self.inputs.push(InputInfo {
            name: name.into(),
            output: out,
        });
        out
    }

    /// Creates a latch with the given reset behaviour. Its next-state
    /// function must be provided later via [`Aig::set_next`].
    pub fn latch(&mut self, name: impl Into<String>, init: Init) -> Bit {
        let node = self.nodes.len() as u32;
        let idx = self.latches.len() as u32;
        self.nodes.push(Node::Latch(idx));
        let out = Bit::new(node, false);
        self.latches.push(LatchInfo {
            name: name.into(),
            init,
            next: None,
            output: out,
        });
        out
    }

    /// Sets the next-state function of `latch` (a bit returned by
    /// [`Aig::latch`], non-complemented).
    ///
    /// # Panics
    /// Panics if `latch` is not an uncomplemented latch output, or if the
    /// next-state function was already set.
    pub fn set_next(&mut self, latch: Bit, next: Bit) {
        assert!(!latch.is_complemented(), "latch handle must be positive");
        let Node::Latch(idx) = self.node(latch) else {
            panic!("set_next target is not a latch: {latch:?}");
        };
        let slot = &mut self.latches[idx as usize].next;
        assert!(slot.is_none(), "latch next-state set twice");
        *slot = Some(next);
    }

    /// Latch index of a latch-output bit, if it is one.
    pub fn latch_index(&self, b: Bit) -> Option<u32> {
        match self.node(b) {
            Node::Latch(i) if !b.is_complemented() => Some(i),
            _ => None,
        }
    }

    /// Two-input AND with constant folding and structural hashing.
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        // Constant / trivial cases.
        if a == Bit::FALSE || b == Bit::FALSE || a == b.not() {
            return Bit::FALSE;
        }
        if a == Bit::TRUE {
            return b;
        }
        if b == Bit::TRUE || a == b {
            return a;
        }
        // Canonical operand order for hashing.
        let (x, y) = if a.packed() <= b.packed() {
            (a, b)
        } else {
            (b, a)
        };
        if let Some(&n) = self.strash.get(&(x, y)) {
            return Bit::new(n, false);
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(Node::And(x, y));
        self.strash.insert((x, y), node);
        Bit::new(node, false)
    }

    /// Logical OR, via De Morgan.
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        self.and(a.not(), b.not()).not()
    }

    /// Logical XOR (two AND gates).
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        // a^b = !(a&b) & !( !a & !b )
        let both = self.and(a, b);
        let neither = self.and(a.not(), b.not());
        self.and(both.not(), neither.not())
    }

    /// Equivalence (XNOR).
    pub fn xnor(&mut self, a: Bit, b: Bit) -> Bit {
        self.xor(a, b).not()
    }

    /// `if sel { t } else { f }`.
    pub fn mux(&mut self, sel: Bit, t: Bit, f: Bit) -> Bit {
        if t == f {
            return t;
        }
        let a = self.and(sel, t);
        let b = self.and(sel.not(), f);
        self.or(a, b)
    }

    /// `a -> b`.
    pub fn implies(&mut self, a: Bit, b: Bit) -> Bit {
        self.and(a, b.not()).not()
    }

    /// AND over many bits.
    pub fn and_many(&mut self, bits: &[Bit]) -> Bit {
        let mut acc = Bit::TRUE;
        for &b in bits {
            acc = self.and(acc, b);
        }
        acc
    }

    /// OR over many bits.
    pub fn or_many(&mut self, bits: &[Bit]) -> Bit {
        let mut acc = Bit::FALSE;
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    /// Adds an environment constraint that must hold at every cycle.
    pub fn add_assume(&mut self, b: Bit) {
        self.assumes.push(b);
    }

    /// Adds a named bad-state property (`b` true = property violated).
    pub fn add_bad(&mut self, name: impl Into<String>, b: Bit) {
        self.bads.push(BadInfo {
            name: name.into(),
            bit: b,
        });
    }

    /// Registers a named observation point for trace rendering.
    pub fn add_probe(&mut self, name: impl Into<String>, bits: Vec<Bit>) {
        self.probes.push(ProbeInfo {
            name: name.into(),
            bits,
        });
    }

    /// Checks that every latch has a next-state function.
    ///
    /// # Errors
    /// Returns the names of unsealed latches.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let missing: Vec<String> = self
            .latches
            .iter()
            .filter(|l| l.next.is_none())
            .map(|l| l.name.clone())
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(missing)
        }
    }

    /// Computes the cone of influence of the verification roots (assumes and
    /// bad bits, plus probes when `keep_probes`): the set of latches and
    /// inputs that can affect them, transitively through next-state
    /// functions. Returns a mark per node.
    pub fn cone_of_influence(&self, keep_probes: bool) -> CoiMarks {
        let mut marked = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        let push = |stack: &mut Vec<u32>, marked: &mut Vec<bool>, b: Bit| {
            let n = b.node();
            if !marked[n as usize] {
                marked[n as usize] = true;
                stack.push(n);
            }
        };
        for &a in &self.assumes {
            push(&mut stack, &mut marked, a);
        }
        for b in &self.bads {
            push(&mut stack, &mut marked, b.bit);
        }
        if keep_probes {
            for p in &self.probes {
                for &b in &p.bits {
                    push(&mut stack, &mut marked, b);
                }
            }
        }
        while let Some(n) = stack.pop() {
            match self.nodes[n as usize] {
                Node::Const | Node::Input(_) => {}
                Node::Latch(i) => {
                    if let Some(next) = self.latches[i as usize].next {
                        push(&mut stack, &mut marked, next);
                    }
                }
                Node::And(a, b) => {
                    push(&mut stack, &mut marked, a);
                    push(&mut stack, &mut marked, b);
                }
            }
        }
        CoiMarks { marked }
    }

    /// Per-name-prefix statistics, used for the Table 1 inventory.
    pub fn stats_by_prefix(&self, prefixes: &[&str]) -> Vec<PrefixStats> {
        prefixes
            .iter()
            .map(|p| {
                let latches = self
                    .latches
                    .iter()
                    .filter(|l| l.name.starts_with(p))
                    .count();
                let inputs = self.inputs.iter().filter(|i| i.name.starts_with(p)).count();
                PrefixStats {
                    prefix: p.to_string(),
                    latches,
                    inputs,
                }
            })
            .collect()
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig {{ nodes: {}, ands: {}, latches: {}, inputs: {}, assumes: {}, bads: {} }}",
            self.num_nodes(),
            self.num_ands(),
            self.num_latches(),
            self.num_inputs(),
            self.assumes.len(),
            self.bads.len()
        )
    }
}

/// Result of [`Aig::cone_of_influence`].
#[derive(Clone, Debug)]
pub struct CoiMarks {
    marked: Vec<bool>,
}

impl CoiMarks {
    /// Whether the node behind `b` is in the cone.
    #[inline]
    pub fn contains(&self, b: Bit) -> bool {
        self.marked[b.node() as usize]
    }

    /// Number of marked nodes.
    pub fn len(&self) -> usize {
        self.marked.iter().filter(|&&m| m).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Latch/input counts under a name prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixStats {
    pub prefix: String,
    pub latches: usize,
    pub inputs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let x = g.input("x");
        assert_eq!(g.and(Bit::FALSE, x), Bit::FALSE);
        assert_eq!(g.and(Bit::TRUE, x), x);
        assert_eq!(g.and(x, x), x);
        assert_eq!(g.and(x, x.not()), Bit::FALSE);
        assert_eq!(g.or(x, Bit::TRUE), Bit::TRUE);
        assert_eq!(g.xor(x, Bit::FALSE), x);
        assert_eq!(g.xor(x, Bit::TRUE), x.not());
        assert_eq!(g.mux(x, Bit::TRUE, Bit::TRUE), Bit::TRUE);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let x = g.input("x");
        let y = g.input("y");
        let a = g.and(x, y);
        let b = g.and(y, x);
        assert_eq!(a, b);
        let before = g.num_nodes();
        let _ = g.and(x, y);
        assert_eq!(g.num_nodes(), before);
    }

    #[test]
    fn latch_roundtrip() {
        let mut g = Aig::new();
        let l = g.latch("r", Init::Zero);
        assert!(g.validate().is_err());
        let n = g.input("in");
        g.set_next(l, n);
        assert!(g.validate().is_ok());
        assert_eq!(g.latch_index(l), Some(0));
        assert_eq!(g.latch_index(l.not()), None);
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_set_next_panics() {
        let mut g = Aig::new();
        let l = g.latch("r", Init::Zero);
        g.set_next(l, Bit::FALSE);
        g.set_next(l, Bit::TRUE);
    }

    #[test]
    fn coi_excludes_unrelated_logic() {
        let mut g = Aig::new();
        let a = g.latch("used", Init::Zero);
        let b = g.latch("unused", Init::Zero);
        let x = g.input("x");
        let y = g.input("y");
        let an = g.and(a, x);
        g.set_next(a, an);
        let bn = g.and(b, y);
        g.set_next(b, bn);
        g.add_bad("p", a);
        let coi = g.cone_of_influence(false);
        assert!(coi.contains(a));
        assert!(coi.contains(x));
        assert!(!coi.contains(b));
        assert!(!coi.contains(y));
    }

    #[test]
    fn prefix_stats() {
        let mut g = Aig::new();
        let l1 = g.latch("cpu1.pc", Init::Zero);
        let l2 = g.latch("cpu2.pc", Init::Zero);
        let l3 = g.latch("shadow.phase", Init::Zero);
        for l in [l1, l2, l3] {
            g.set_next(l, l);
        }
        let stats = g.stats_by_prefix(&["cpu1.", "cpu2.", "shadow."]);
        assert_eq!(stats[0].latches, 1);
        assert_eq!(stats[2].prefix, "shadow.");
        assert_eq!(stats[2].latches, 1);
    }

    #[test]
    fn xor_truth_table_via_consts() {
        let mut g = Aig::new();
        assert_eq!(g.xor(Bit::FALSE, Bit::FALSE), Bit::FALSE);
        assert_eq!(g.xor(Bit::TRUE, Bit::FALSE), Bit::TRUE);
        assert_eq!(g.xor(Bit::TRUE, Bit::TRUE), Bit::FALSE);
        assert_eq!(g.xnor(Bit::TRUE, Bit::TRUE), Bit::TRUE);
    }
}
