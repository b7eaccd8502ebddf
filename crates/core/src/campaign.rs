//! Campaign runner: the scheme × design × contract matrix on a thread pool.
//!
//! Table 2 of the paper evaluates every verification scheme against every
//! processor design under a contract, each cell with its own wall-clock
//! budget. The cells are independent, so a campaign is embarrassingly
//! parallel: `run_cells` (driving `api::Matrix::run_all`) executes them
//! on a pool of worker threads (each cell may itself be a portfolio race
//! — the per-cell [`CheckOptions::mode`] controls that) and reassembles
//! the results in matrix order, so the output table is deterministic
//! regardless of which worker finished first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use csl_contracts::Contract;
use csl_mc::{CheckOptions, CheckReport, ExecMode};

use crate::harness::{DesignKind, InstanceConfig};
use crate::verify::{run_scheme, Scheme};

/// One cell of the evaluation matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignCell {
    pub scheme: Scheme,
    pub design: DesignKind,
    pub contract: Contract,
}

impl CampaignCell {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.scheme.name(),
            self.design.name(),
            self.contract.name()
        )
    }
}

/// The full cross product in deterministic (scheme-major) order.
pub fn matrix(
    schemes: &[Scheme],
    designs: &[DesignKind],
    contracts: &[Contract],
) -> Vec<CampaignCell> {
    let mut cells = Vec::with_capacity(schemes.len() * designs.len() * contracts.len());
    for &contract in contracts {
        for &scheme in schemes {
            for &design in designs {
                cells.push(CampaignCell {
                    scheme,
                    design,
                    contract,
                });
            }
        }
    }
    cells
}

/// Sizes the worker pool from the core count, accounting for the engine
/// lanes each cell spawns in portfolio mode.
fn worker_count(mode: ExecMode, cells: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
    // A portfolio cell spawns up to four engine lanes of its own; sizing
    // the pool to the core count would oversubscribe the CPU 4x and let
    // wall-clock contention flip borderline cells to timeouts. Budget
    // cores to total threads, not to cells.
    let n = match mode {
        ExecMode::Portfolio => (hw / 4).max(1),
        ExecMode::Sequential => hw,
    };
    n.clamp(1, cells.max(1))
}

/// The worker-pool core behind `api::Matrix::run_all`: runs every cell,
/// returns the engine reports in input order plus the measured wall
/// clock. Options are
/// resolved per cell (`make_opts`) because extra lanes — the fuzzing
/// backend — are configured against each cell's design.
pub(crate) fn run_cells(
    cells: &[CampaignCell],
    make_cfg: &(dyn Fn(&CampaignCell) -> InstanceConfig + Sync),
    make_opts: &(dyn Fn(&CampaignCell) -> CheckOptions + Sync),
) -> (Vec<CheckReport>, Duration) {
    let start = Instant::now();
    let mode = cells
        .first()
        .map_or(ExecMode::default(), |c| make_opts(c).mode);
    let workers = worker_count(mode, cells.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CheckReport>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let cell = cells[i];
                let cfg = make_cfg(&cell);
                let report = run_scheme(cell.scheme, &cfg, &make_opts(&cell));
                slots.lock().unwrap()[i] = Some(report);
            });
        }
    });

    let reports = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    (reports, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_mc::ExecMode;

    fn smoke_cells() -> Vec<CampaignCell> {
        matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        )
    }

    #[test]
    fn matrix_order_is_deterministic_and_complete() {
        let cells = matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle, DesignKind::InOrder],
            &[Contract::Sandboxing],
        );
        assert_eq!(cells.len(), 8);
        // Scheme-major within a contract: all designs of a scheme first.
        assert_eq!(cells[0].scheme, cells[1].scheme);
        assert_ne!(cells[0].design, cells[1].design);
        assert_eq!(
            cells,
            matrix(
                &Scheme::ALL,
                &[DesignKind::SingleCycle, DesignKind::InOrder],
                &[Contract::Sandboxing],
            )
        );
    }

    #[test]
    fn campaign_results_follow_input_order_regardless_of_workers() {
        let cells = smoke_cells();
        let opts = CheckOptions {
            total_budget: Duration::from_secs(8),
            bmc_depth: 4,
            mode: ExecMode::Portfolio,
            ..Default::default()
        };
        let make_cfg = |cell: &CampaignCell| InstanceConfig::new(cell.design, cell.contract);
        let make_opts = |_: &CampaignCell| opts.clone();
        let (reports, _wall) = run_cells(&cells, &make_cfg, &make_opts);
        assert_eq!(reports.len(), cells.len());
    }
}
