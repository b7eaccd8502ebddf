//! **Table 1** — the design inventory: processor configurations and
//! shadow-logic sizes.
//!
//! The paper reports source-code sizes and manual effort; the mechanised
//! equivalents here are netlist statistics per design (latches and AND
//! gates of one processor copy) and the size of the shadow instrumentation
//! (monitor latches), plus the §5.1 observation that shadow complexity
//! tracks the commit width rather than the processor size.

use csl_bench::header;
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::TransitionSystem;

fn main() {
    header(
        "TABLE 1: processor and shadow-logic inventory",
        "paper Table 1",
    );
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>10} {:>8} {:>7}",
        "design", "width", "rob", "cpu-lat", "shadow-lat", "ands", "COI-lat"
    );
    for design in [
        DesignKind::InOrder,
        DesignKind::SimpleOoo(Defense::None),
        DesignKind::SimpleOoo(Defense::DelaySpectre),
        DesignKind::SimpleOoo(Defense::DomSpectre),
        DesignKind::SuperOoo,
        DesignKind::BigOoo,
    ] {
        let query = Verifier::new()
            .design(design)
            .contract(Contract::Sandboxing)
            .scheme(Scheme::Shadow)
            .query()
            .expect("design and contract are set");
        let cpu = query.config().cpu_config();
        // Table 1 inventories the instance as *built*; the reduction
        // preparation achieves is checked by the `prepare_equiv` test.
        let task = query.raw_instance();
        let stats = task.aig.stats_by_prefix(&["cpu1.", "cpu2.", "shadow."]);
        let ts = TransitionSystem::shared(task.aig.clone(), false);
        println!(
            "{:<22} {:>8} {:>9} {:>9} {:>10} {:>8} {:>7}",
            design.name(),
            cpu.width,
            cpu.rob_size,
            stats[0].latches,
            stats[2].latches,
            task.aig.num_ands(),
            ts.active_latches().len(),
        );
    }
    println!();
    println!(
        "note: one shadow-logic implementation serves every design above; \
         only the record width (contract) and FIFO depth (commit width) vary."
    );
}
