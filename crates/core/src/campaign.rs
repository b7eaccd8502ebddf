//! Campaign runner: the scheme × design × contract matrix on a thread pool.
//!
//! Table 2 of the paper evaluates every verification scheme against every
//! processor design under a contract, each cell with its own wall-clock
//! budget. The cells are independent, so a campaign is embarrassingly
//! parallel: `api::Matrix::run_all` resolves each cell to an
//! [`api::Query`](crate::api::Query) and hands them to a pool of worker
//! threads, each running one query at a time (through the result cache
//! when one is configured; a query in portfolio mode is itself a race of
//! engine lanes). The pool puts the reports back in matrix order, so the
//! output table is deterministic regardless of which worker finished
//! first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use csl_contracts::Contract;
use csl_mc::ExecMode;

use crate::api::{Query, Report};
use crate::harness::DesignKind;
use crate::verify::Scheme;

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

/// The worker pool behind `api::Matrix::run_all`: runs `run` on every
/// query and returns the reports in input order.
pub(crate) fn run_pool(queries: &[Query], run: impl Fn(&Query) -> Report + Sync) -> Vec<Report> {
    let mode = queries
        .first()
        .map_or(ExecMode::default(), |q| q.options().mode);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Report>>> = Mutex::new(vec![None; queries.len()]);
    std::thread::scope(|scope| {
        for _ in 0..worker_count(mode, queries.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(query) = queries.get(i) else { break };
                let report = run(query);
                slots.lock().expect("no worker panics holding the slots")[i] = Some(report);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panics holding the slots")
        .into_iter()
        .map(|r| r.expect("every query ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_mc::ExecMode;
    use std::time::Duration;

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
        let queries: Vec<Query> = cells
            .iter()
            .map(|cell| {
                crate::api::Verifier::new()
                    .wall(Duration::from_secs(8))
                    .bmc_depth(4)
                    .mode(ExecMode::Portfolio)
                    .design(cell.design)
                    .contract(cell.contract)
                    .scheme(cell.scheme)
                    .query()
                    .unwrap()
            })
            .collect();
        let reports = run_pool(&queries, Query::run);
        assert_eq!(reports.len(), cells.len());
        for (cell, report) in cells.iter().zip(&reports) {
            assert_eq!(
                (report.scheme, report.design, report.contract),
                (cell.scheme, cell.design, cell.contract)
            );
        }
    }
}
