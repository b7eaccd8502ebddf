//! **Figure 2** — verification time vs structure size.
//!
//! Sweeps the register file, data memory, and reorder buffer over
//! {2, 4, 8, 16} entries (one structure at a time, others at the default
//! 4), for (a) NoFwd-futuristic under sandboxing and (b) Delay-spectre
//! under constant-time — the exact design/contract points of the paper's
//! Figure 2.
//!
//! Paper's shape: ROB size dominates (exponential growth, log-scale axis);
//! the register file is negligible; data memory has limited impact on
//! sandboxing and a larger one on constant-time.
//!
//! Because unbounded proofs exceed any sane bench budget even at the
//! smallest sizes on our from-scratch PDR (the paper's own y-axis tops out
//! near 1000 minutes on JasperGold), each point reports the *bounded
//! verification cost*: wall time for the attack search to sweep the design
//! clean to a fixed BMC depth. That cost tracks the same solver effort the
//! paper's proving time measures, completes within bench budgets, and
//! exposes the same structural scaling (ROB explosive, regfile flat,
//! memory mild and contract-dependent).

use csl_bench::{bmc_depth, budget_secs, header, paper_cell, verifier};
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::{CpuConfig, Defense};
use csl_isa::IsaConfig;

#[derive(Clone, Copy, Debug)]
enum Axis {
    Regfile,
    DataMem,
    Rob,
}

fn configure(base: CpuConfig, axis: Axis, n: usize) -> CpuConfig {
    let mut c = base;
    match axis {
        Axis::Regfile => c.isa.nregs = n,
        Axis::DataMem => c.isa.dmem_size = n,
        Axis::Rob => c.rob_size = n,
    }
    c
}

fn sweep(title: &str, defense: Defense, contract: Contract) {
    println!();
    println!("--- {title} ---");
    println!(
        "{:<10} {:>6} {:>10} {:>10}",
        "axis", "size", "verdict", "secs"
    );
    for axis in [Axis::Regfile, Axis::DataMem, Axis::Rob] {
        for n in [2usize, 4, 8, 16] {
            if matches!(axis, Axis::Regfile) && n == 2 && defense == Defense::DomSpectre {
                continue;
            }
            let base = CpuConfig {
                isa: IsaConfig::default(),
                rob_size: 4,
                width: 1,
                defense,
            };
            let cpu = configure(base, axis, n);
            let report = verifier(&Verifier::new(), budget_secs(120), bmc_depth(8), true)
                .design(DesignKind::SimpleOoo(defense))
                .contract(contract)
                .scheme(Scheme::Shadow)
                .cpu_override(cpu)
                .query()
                .expect("design and contract are set")
                .run();
            println!(
                "{:<10} {:>6} {:>10} {:>10.1}",
                format!("{axis:?}"),
                n,
                paper_cell(&report.verdict),
                report.elapsed.as_secs_f64()
            );
        }
    }
}

fn main() {
    header(
        "FIGURE 2: verification time vs structure size",
        "paper Fig. 2 (a) and (b)",
    );
    sweep(
        "(a) NoFwd-futuristic, sandboxing contract",
        Defense::NoFwdFuturistic,
        Contract::Sandboxing,
    );
    sweep(
        "(b) Delay-spectre, constant-time contract",
        Defense::DelaySpectre,
        Contract::ConstantTime,
    );
}
