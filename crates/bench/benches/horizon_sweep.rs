//! Incremental horizon sweeps (DESIGN.md §4f): an [`EngineSession`] grows
//! one exhaustive system across a range of horizons, reusing base view
//! rows and starting a new knowledge cache per horizon, versus the cold
//! path that rebuilds every horizon from scratch. The cold side is the
//! differential oracle (`tests/incremental_equivalence.rs`), so both
//! sides produce identical systems — the bench measures the cost of that
//! identical output.

use criterion::{criterion_group, criterion_main, Criterion};
use eba_core::{Constructor, DecisionPair, EngineSession, FipDecisions};
use eba_model::{FailureMode, Scenario};
use eba_sim::GeneratedSystem;
use std::hint::black_box;

/// Full-space end-to-end sweep: exhaustive n=3, t=1 crash system grown
/// from horizon 2 through 4, with the Theorem 5.2 optimization re-run at
/// every horizon — the `eba-check --horizon-sweep` workload.
fn full_space_sweep_end_to_end(c: &mut Criterion) {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).expect("valid scenario");
    let base = GeneratedSystem::exhaustive(&scenario);
    let horizons = [3u16, 4];

    let mut group = c.benchmark_group("horizon_sweep_full_n3t1");
    group.sample_size(10);

    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut session = EngineSession::from_system(base.clone());
            for h in horizons {
                session.extend_to(h).expect("horizon grows");
                let pair = session.constructor().optimize(&DecisionPair::empty(3));
                black_box(FipDecisions::compute(session.system(), &pair, "F^{Λ,2}"));
            }
        });
    });

    group.bench_function("cold", |b| {
        b.iter(|| {
            for h in horizons {
                let target = scenario.with_horizon(h).expect("valid scenario");
                let system = GeneratedSystem::exhaustive(&target);
                let mut ctor = Constructor::new(&system);
                let pair = ctor.optimize(&DecisionPair::empty(3));
                black_box(FipDecisions::compute(&system, &pair, "F^{Λ,2}"));
            }
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = full_space_sweep_end_to_end
}
criterion_main!(benches);
