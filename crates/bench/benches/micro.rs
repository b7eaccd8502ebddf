//! Criterion micro-benchmarks for the substrate layers: SAT solving,
//! netlist construction and preparation, simulation throughput, and BMC
//! frame encoding.
//! These track the performance of the infrastructure the experiment
//! harnesses sit on.

use criterion::{criterion_group, criterion_main, Criterion};
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::{build_standalone, CoreKind, CpuConfig, Defense};
use csl_isa::progen;
use csl_mc::{prepare, InitMode, Sim, TransitionSystem, Unroller};
use csl_sat::{Lit, SolveResult, Solver, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random 3-SAT near the phase transition.
fn bench_sat(c: &mut Criterion) {
    c.bench_function("sat/random3sat_100v", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(42);
            let n = 100;
            let mut s = Solver::new();
            for _ in 0..n {
                s.new_var();
            }
            for _ in 0..(42 * n / 10) {
                let cl: Vec<Lit> = (0..3)
                    .map(|_| Var::from_index(rng.gen_range(0..n)).lit(rng.gen_bool(0.5)))
                    .collect();
                s.add_clause(&cl);
            }
            let r = s.solve();
            assert!(matches!(r, SolveResult::Sat | SolveResult::Unsat));
        })
    });
}

fn shadow_query() -> csl_core::api::Query {
    Verifier::new()
        .design(DesignKind::SimpleOoo(Defense::None))
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .query()
        .expect("design and contract are set")
}

fn bench_netlist_build(c: &mut Criterion) {
    c.bench_function("hdl/build_shadow_instance", |b| {
        let query = shadow_query();
        b.iter(|| {
            // Raw build only: preparation is timed apart, below.
            let task = query.raw_instance();
            assert!(task.aig.num_ands() > 1000);
        })
    });
    c.bench_function("mc/prepare_shadow_instance", |b| {
        let query = shadow_query();
        let raw = query.raw_instance();
        let opts = query.options();
        b.iter(|| {
            // The one-rebuild reduction alone, on a prebuilt raw instance.
            let prepared = prepare(&raw, &opts.prepare, opts.keep_probes);
            assert!(prepared.aig().num_ands() < raw.aig.num_ands());
        })
    });
}

fn bench_simulation(c: &mut Criterion) {
    let core = build_standalone(CoreKind::Ooo, &CpuConfig::simple_ooo(Defense::None));
    let mut rng = StdRng::seed_from_u64(7);
    let imem = progen::random_program(&core.cfg.isa, &progen::OpMix::default(), &mut rng);
    let dmem = progen::random_dmem(&core.cfg.isa, &mut rng);
    c.bench_function("sim/simple_ooo_64_cycles", |b| {
        b.iter(|| {
            let events = core.run(&imem, &dmem, 64);
            assert!(!events.is_empty());
        })
    });
}

fn bench_unroll(c: &mut Criterion) {
    let task = shadow_query().instance();
    let ts = TransitionSystem::shared(task.aig().clone(), false);
    c.bench_function("mc/unroll_8_frames", |b| {
        b.iter(|| {
            let mut u = Unroller::new(&ts, InitMode::Reset);
            u.assert_assumes_through(8);
            let _ = u.bad_any_at(8);
            assert!(u.solver.num_clauses() > 1000);
        })
    });
    c.bench_function("sim/replay_throughput", |b| {
        let mut sim = Sim::new(ts.aig());
        let state = csl_mc::SimState::reset(ts.aig());
        b.iter(|| {
            let r = sim.step(&state, |_, _| false);
            assert!(r.values.bit(csl_hdl::Bit::TRUE));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sat, bench_netlist_build, bench_simulation, bench_unroll
}
criterion_main!(benches);
