//! Random program generation for co-simulation and fuzz testing.
//!
//! Two generators: [`random_program`] draws well-formed instructions with
//! tunable opcode weights (useful for stressing specific pipeline paths),
//! and [`random_imem`] draws raw bit patterns (covering undefined opcodes
//! exactly as the model checker's symbolic instruction memory does).
//!
//! For differential fuzzing, [`random_stimulus`] packages one complete
//! trial — a program plus a public data image and a pair of differing
//! secrets — and [`random_stimulus_batch`] draws N such trials per call,
//! feeding the bit-parallel batch simulator. The batch form consumes the
//! RNG in exactly the per-trial order of repeated scalar calls, so a
//! seed identifies the same stimulus stream regardless of batching.

use rand::Rng;

use crate::config::IsaConfig;
use crate::inst::{encode, Inst};

/// Opcode mix for [`random_program`]. Weights are relative.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    pub li: u32,
    pub add: u32,
    pub ld: u32,
    pub bnz: u32,
    pub mul: u32,
    pub nop: u32,
}

impl Default for OpMix {
    /// A load/branch-heavy mix that exercises speculation paths.
    fn default() -> Self {
        OpMix {
            li: 4,
            add: 3,
            ld: 4,
            bnz: 3,
            mul: 0,
            nop: 1,
        }
    }
}

/// Draws one random well-formed instruction.
pub fn random_inst(cfg: &IsaConfig, mix: &OpMix, rng: &mut impl Rng) -> Inst {
    let mul = if cfg.enable_mul { mix.mul } else { 0 };
    let total = mix.li + mix.add + mix.ld + mix.bnz + mul + mix.nop;
    let mut pick = rng.gen_range(0..total);
    let reg = |rng: &mut dyn rand::RngCore| rng.gen_range(0..cfg.nregs) as u8;
    let mut take = |w: u32| {
        if pick < w {
            true
        } else {
            pick -= w;
            false
        }
    };
    if take(mix.li) {
        Inst::Li {
            rd: reg(rng),
            imm: rng.gen_range(0..(1u32 << cfg.xlen)),
        }
    } else if take(mix.add) {
        Inst::Add {
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        }
    } else if take(mix.ld) {
        Inst::Ld {
            rd: reg(rng),
            rs1: reg(rng),
        }
    } else if take(mix.bnz) {
        Inst::Bnz {
            rs1: reg(rng),
            target: rng.gen_range(0..cfg.imem_size) as u32,
        }
    } else if take(mul) {
        Inst::Mul {
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        }
    } else {
        Inst::Nop
    }
}

/// A full random program, encoded into an instruction memory image.
pub fn random_program(cfg: &IsaConfig, mix: &OpMix, rng: &mut impl Rng) -> Vec<u32> {
    (0..cfg.imem_size)
        .map(|_| encode(cfg, random_inst(cfg, mix, rng)))
        .collect()
}

/// A fully random instruction memory: raw bits, including undefined
/// opcodes (which decode to NOP).
pub fn random_imem(cfg: &IsaConfig, rng: &mut impl Rng) -> Vec<u32> {
    let mask = ((1u64 << cfg.inst_bits()) - 1) as u32;
    (0..cfg.imem_size)
        .map(|_| rng.gen::<u32>() & mask)
        .collect()
}

/// A random data memory image.
pub fn random_dmem(cfg: &IsaConfig, rng: &mut impl Rng) -> Vec<u32> {
    (0..cfg.dmem_size)
        .map(|_| rng.gen::<u32>() & cfg.xmask())
        .collect()
}

/// One complete differential-fuzzing trial: a program over a shared
/// public data image, plus two secret images that differ in at least one
/// word (the threat model's "secrets differ somewhere" side condition).
/// The public image covers the lower half of the data memory and each
/// secret the upper half, matching [`IsaConfig::secret_base`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StimulusPair {
    /// Instruction memory image.
    pub imem: Vec<u32>,
    /// Public (shared) data memory half.
    pub public: Vec<u32>,
    /// First machine's secret half.
    pub secret_a: Vec<u32>,
    /// Second machine's secret half.
    pub secret_b: Vec<u32>,
}

/// Draws one fuzzing trial. `raw` selects the program generator: `false`
/// draws well-formed instructions from `mix`, `true` draws raw bit
/// patterns (undefined opcodes included). The draw order (program,
/// public, secret A, secret B) is part of the stimulus-stream contract:
/// a fixed seed plus a fixed raw/structured alternation reproduces the
/// identical trial sequence everywhere.
pub fn random_stimulus(
    cfg: &IsaConfig,
    mix: &OpMix,
    rng: &mut impl Rng,
    raw: bool,
) -> StimulusPair {
    let imem = if raw {
        random_imem(cfg, rng)
    } else {
        random_program(cfg, mix, rng)
    };
    let half = cfg.dmem_size / 2;
    let word = |rng: &mut dyn rand::RngCore| rng.gen::<u32>() & cfg.xmask();
    let public: Vec<u32> = (0..half).map(|_| word(rng)).collect();
    let secret_a: Vec<u32> = (0..half).map(|_| word(rng)).collect();
    let mut secret_b: Vec<u32> = (0..half).map(|_| word(rng)).collect();
    if secret_a == secret_b {
        // Enforce the threat model's "differ in at least one location".
        secret_b[0] ^= 1;
    }
    StimulusPair {
        imem,
        public,
        secret_a,
        secret_b,
    }
}

/// Draws `n` fuzzing trials, alternating structured and raw programs
/// (even index structured, odd raw — the mix the scalar fuzzer has
/// always used). Consuming trial `i` of the batch advances the RNG
/// exactly as `i + 1` scalar [`random_stimulus`] calls would, so batched
/// and scalar campaigns with the same seed see the same trials as long
/// as every batch but the last has even length.
pub fn random_stimulus_batch(
    cfg: &IsaConfig,
    mix: &OpMix,
    rng: &mut impl Rng,
    n: usize,
) -> Vec<StimulusPair> {
    (0..n)
        .map(|i| random_stimulus(cfg, mix, rng, i % 2 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn programs_fit_and_decode() {
        let cfg = IsaConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let imem = random_program(&cfg, &OpMix::default(), &mut rng);
            assert_eq!(imem.len(), cfg.imem_size);
            for &w in &imem {
                let _ = decode(&cfg, w);
            }
        }
    }

    #[test]
    fn raw_imem_within_width() {
        let cfg = IsaConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let imem = random_imem(&cfg, &mut rng);
        for &w in &imem {
            assert!(w < (1 << cfg.inst_bits()));
        }
    }

    #[test]
    fn mul_absent_unless_enabled() {
        let cfg = IsaConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mix = OpMix {
            mul: 100,
            ..OpMix::default()
        };
        for _ in 0..100 {
            let inst = random_inst(&cfg, &mix, &mut rng);
            assert!(!matches!(inst, Inst::Mul { .. }));
        }
    }

    #[test]
    fn stimulus_batch_matches_scalar_stream() {
        let cfg = IsaConfig::default();
        let mix = OpMix::default();
        let mut batch_rng = StdRng::seed_from_u64(11);
        let mut scalar_rng = StdRng::seed_from_u64(11);
        let batch = random_stimulus_batch(&cfg, &mix, &mut batch_rng, 6);
        for (i, pair) in batch.iter().enumerate() {
            let scalar = random_stimulus(&cfg, &mix, &mut scalar_rng, i % 2 == 1);
            assert_eq!(pair, &scalar, "trial {i} diverged from the scalar stream");
        }
    }

    #[test]
    fn stimulus_secrets_always_differ_and_fit() {
        let cfg = IsaConfig::default();
        let mix = OpMix::default();
        let mut rng = StdRng::seed_from_u64(5);
        for pair in random_stimulus_batch(&cfg, &mix, &mut rng, 50) {
            assert_ne!(pair.secret_a, pair.secret_b);
            assert_eq!(pair.public.len(), cfg.dmem_size / 2);
            assert_eq!(pair.secret_a.len(), cfg.dmem_size / 2);
            assert_eq!(pair.imem.len(), cfg.imem_size);
            for &v in pair
                .public
                .iter()
                .chain(&pair.secret_a)
                .chain(&pair.secret_b)
            {
                assert!(v <= cfg.xmask());
            }
        }
    }

    #[test]
    fn dmem_respects_xlen() {
        let cfg = IsaConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        for v in random_dmem(&cfg, &mut rng) {
            assert!(v <= cfg.xmask());
        }
    }
}
