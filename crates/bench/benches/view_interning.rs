//! Cost of the full-information view machinery: computing and interning
//! one run's views, at message-level system sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eba_model::sample::{self, PatternSampler};
use eba_model::{ExchangeKind, FailureMode, Scenario, Time};
use eba_sim::ViewTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn view_interning(c: &mut Criterion) {
    let mut group = c.benchmark_group("fip_views_one_run");
    for n in [4usize, 8, 16, 32] {
        let t = n / 4;
        let scenario =
            Scenario::new(n, t, FailureMode::Crash, t as u16 + 2).expect("valid scenario");
        let mut rng = StdRng::seed_from_u64(n as u64);
        let sampler = PatternSampler::new(scenario);
        let config = sample::random_config(n, &mut rng);
        let pattern = sampler.sample(&mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(config, pattern),
            |b, (config, pattern)| {
                b.iter(|| {
                    let mut table = ViewTable::new();
                    black_box(eba_sim::try_exchange_views(
                        ExchangeKind::FullInformation,
                        config,
                        pattern,
                        scenario.horizon(),
                        &mut table,
                    ))
                    .expect("view table overflow");
                });
            },
        );
    }
    group.finish();
}

fn interning_shared_across_runs(c: &mut Criterion) {
    // Interning 100 runs into one shared table: measures hash-consing
    // efficiency (the dedup ratio is asserted in tests; here we time it).
    let n = 8;
    let scenario = Scenario::new(n, 2, FailureMode::Crash, 4).expect("valid scenario");
    let mut rng = StdRng::seed_from_u64(5);
    let sampler = PatternSampler::new(scenario);
    let runs: Vec<_> = (0..100)
        .map(|_| (sample::random_config(n, &mut rng), sampler.sample(&mut rng)))
        .collect();
    c.bench_function("fip_views_100_runs_shared_table", |b| {
        b.iter(|| {
            let mut table = ViewTable::new();
            for (config, pattern) in &runs {
                black_box(eba_sim::try_exchange_views(
                    ExchangeKind::FullInformation,
                    config,
                    pattern,
                    Time::new(4),
                    &mut table,
                ))
                .expect("view table overflow");
            }
            black_box(table.len());
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = view_interning, interning_shared_across_runs
}
criterion_main!(benches);
