//! Counterexample traces.
//!
//! A [`Trace`] is a finite input sequence plus an initial assignment of
//! (symbolic) latches that drives the design to a bad state. Traces come
//! out of the SAT model of a BMC query and can be replayed on the concrete
//! simulator ([`crate::sim::Sim::replay`]) and rendered as a waveform table
//! over the design's probes — this is the "attack listing" the paper shows
//! in §7.1.4.

use std::collections::HashMap;
use std::fmt::Write as _;

use csl_hdl::xform::Reconstruction;
use csl_hdl::{Aig, Init};

use crate::sim::{Sim, SimState};

/// A finite counterexample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Initial values for latches (only those the solver constrained,
    /// typically the cone-of-influence subset; others default to reset).
    pub initial_latches: Vec<(u32, bool)>,
    /// Input assignments per cycle (input index → value).
    pub inputs: Vec<HashMap<u32, bool>>,
    /// Name of the bad bit that fired at the last cycle.
    pub bad_name: String,
}

impl Trace {
    /// Number of cycles (the bad state is observed in the last one).
    pub fn depth(&self) -> usize {
        self.inputs.len()
    }

    /// Input `idx`'s value at `cycle`, if the solver constrained it.
    pub fn input(&self, cycle: usize, idx: u32) -> Option<bool> {
        self.inputs.get(cycle).and_then(|m| m.get(&idx)).copied()
    }

    /// The first latch of `aig` whose initial value here contradicts its
    /// declared reset value: a run from such a state starts outside the
    /// reset state, so it is no attack even if it reaches a bad state, and
    /// [`Sim::replay`] refuses it. Symbolic latches may start anywhere,
    /// and indices `aig` lacks are skipped.
    pub fn latch_off_reset(&self, aig: &Aig) -> Option<u32> {
        self.initial_latches.iter().find_map(|&(i, v)| {
            let reset = match aig.latches().get(i as usize)?.init {
                Init::Zero => false,
                Init::One => true,
                Init::Symbolic => return None,
            };
            (v != reset).then_some(i)
        })
    }

    /// Re-expresses a trace found on a prepared (reduced) netlist in the
    /// original netlist's latch/input indices, via the
    /// [`Reconstruction`] preparation emitted. Latches and
    /// inputs the reduction removed are simply unconstrained in the
    /// lifted trace — sound, because a removed latch either cannot
    /// influence any assume/bad bit or provably holds its reset value,
    /// so the original netlist reproduces the behaviour from reset on
    /// its own (the lifted trace replays to the same bad-state hit).
    pub fn lifted(&self, recon: &Reconstruction) -> Trace {
        Trace {
            initial_latches: self
                .initial_latches
                .iter()
                .filter_map(|&(i, v)| Some((recon.original_latch(i)?, v)))
                .collect(),
            inputs: self
                .inputs
                .iter()
                .map(|cycle| {
                    cycle
                        .iter()
                        .filter_map(|(&i, &v)| Some((recon.original_input(i)?, v)))
                        .collect()
                })
                .collect(),
            bad_name: self.bad_name.clone(),
        }
    }

    /// Renders the trace as a waveform table over the design's probes.
    /// One row per probe, one column per cycle, values in hex.
    pub fn render(&self, aig: &Aig) -> String {
        let mut sim = Sim::new(aig);
        let mut state = SimState::reset(aig);
        for &(i, v) in &self.initial_latches {
            state.set_latch(i as usize, v);
        }
        let mut columns: Vec<Vec<u64>> = Vec::new();
        for cycle in 0..self.depth() {
            let r = sim.step(&state, |i, _| self.input(cycle, i as u32).unwrap_or(false));
            columns.push(
                aig.probes()
                    .iter()
                    .map(|p| r.values.word(&p.bits))
                    .collect(),
            );
            state = r.next;
        }
        let name_w = aig
            .probes()
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(4)
            .max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "counterexample for `{}` ({} cycles)",
            self.bad_name,
            self.depth()
        );
        let _ = write!(out, "{:name_w$} |", "probe");
        for c in 0..self.depth() {
            let _ = write!(out, " c{c:<3}");
        }
        let _ = writeln!(out);
        for (pi, p) in aig.probes().iter().enumerate() {
            let _ = write!(out, "{:name_w$} |", p.name);
            for col in &columns {
                let _ = write!(out, " {:<4x}", col[pi]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::Design;

    #[test]
    fn render_includes_probe_rows() {
        let mut d = Design::new("t");
        let r = d.reg("r", 4, Init::Zero);
        let nxt = d.add_const(&r.q(), 1);
        d.set_next(&r, nxt);
        let q = r.q();
        d.probe("r", &q);
        d.assert_always("x", csl_hdl::Bit::TRUE);
        let aig = d.finish();
        let tr = Trace {
            initial_latches: vec![],
            inputs: vec![HashMap::new(); 3],
            bad_name: "x".into(),
        };
        let text = tr.render(&aig);
        assert!(text.contains("r"));
        assert!(text.contains("c2"));
    }

    #[test]
    fn latch_off_reset_names_the_first_concrete_latch_against_its_reset() {
        let mut aig = Aig::new();
        for (name, init) in [("z", Init::Zero), ("o", Init::One), ("s", Init::Symbolic)] {
            let l = aig.latch(name, init);
            aig.set_next(l, l);
        }
        let starting = |initial_latches: Vec<(u32, bool)>| Trace {
            initial_latches,
            ..Trace::default()
        };
        let at_reset = starting(vec![(0, false), (1, true), (2, true), (7, true)]);
        assert_eq!(at_reset.latch_off_reset(&aig), None);
        assert_eq!(
            starting(vec![(2, false), (1, false), (0, true)]).latch_off_reset(&aig),
            Some(1)
        );
        assert_eq!(starting(vec![(0, true)]).latch_off_reset(&aig), Some(0));
    }

    #[test]
    fn input_lookup() {
        let mut m = HashMap::new();
        m.insert(3u32, true);
        let tr = Trace {
            initial_latches: vec![],
            inputs: vec![m],
            bad_name: String::new(),
        };
        assert_eq!(tr.input(0, 3), Some(true));
        assert_eq!(tr.input(0, 4), None);
        assert_eq!(tr.input(1, 3), None);
    }
}
