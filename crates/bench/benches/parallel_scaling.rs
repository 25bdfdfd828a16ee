//! Thread-scaling sweep for the supervised worker pool: the builder's
//! one pipeline — as a cold build and as a horizon extension — timed at
//! workers ∈ {1, 2, 4, 8} on the same inputs, plus the word-block set
//! kernels against their scalar loops.
//!
//! The output is bit-identical at every worker count (enforced by
//! `tests/parallel_equivalence.rs`), so this sweep is a pure throughput
//! measurement: on a many-core host the medians should drop with the
//! worker count until the stage's item count or the host's core count
//! saturates; on a single-core host all columns coincide (modulo
//! scheduling overhead) and the numbers record that honestly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eba_kripke::Bitset;
use eba_model::{FailureMode, Scenario};
use eba_sim::SystemBuilder;
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_scaling(c: &mut Criterion) {
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).expect("valid scenario");
    let mut group = c.benchmark_group("parallel_scaling_build");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    black_box(
                        SystemBuilder::new(&scenario)
                            .threads(workers)
                            .build()
                            .expect("bench scenario fits the run capacity"),
                    )
                });
            },
        );
    }
    group.finish();
}

fn extend_scaling(c: &mut Criterion) {
    let base_scenario = Scenario::new(3, 1, FailureMode::Omission, 1).expect("valid scenario");
    let target = Scenario::new(3, 1, FailureMode::Omission, 2).expect("valid scenario");
    let base = SystemBuilder::new(&base_scenario)
        .threads(1)
        .build()
        .expect("base build");
    let mut group = c.benchmark_group("parallel_scaling_extend");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let (system, report) = SystemBuilder::new(&target)
                        .threads(workers)
                        .extend(&base)
                        .expect("extension");
                    black_box((system.num_runs(), report.reused_runs))
                });
            },
        );
    }
    group.finish();
}

/// The word-block kernels head to head with the scalar loops they
/// replaced. The end-to-end suites bury the dense set algebra under
/// traversal and interning work (and, on a noisy shared host, under the
/// run-to-run noise floor), so the kernel claim is measured where the
/// kernels run: large dense bitsets, one operation per iteration. The
/// scalar references are verbatim the pre-kernel implementations.
fn word_kernels(c: &mut Criterion) {
    const BITS: usize = 1 << 20;
    let mut group = c.benchmark_group("word_kernels");

    // A pseudo-random word soup, mirrored into a Bitset (kernel side)
    // and a bare Vec<u64> (scalar side) so both operate on identical
    // data of identical length.
    let soup = |seed: u64| -> Vec<u64> {
        let mut state = seed;
        (0..BITS / 64)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    };
    let to_bitset = |words: &[u64]| -> Bitset {
        let mut set = Bitset::new_false(BITS);
        for (w, word) in words.iter().enumerate() {
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    set.set(w * 64 + b, true);
                }
            }
        }
        set
    };
    let a_words = soup(0xEBA);
    let b_words = soup(0x9E37);
    let a_set = to_bitset(&a_words);
    let b_set = to_bitset(&b_words);

    group.bench_function("count_ones/scalar", |b| {
        b.iter(|| {
            black_box(
                black_box(&a_words)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
            )
        });
    });
    group.bench_function("count_ones/kernel", |b| {
        b.iter(|| black_box(black_box(&a_set).count_ones()));
    });

    group.bench_function("and_assign/scalar", |b| {
        let mut dst = a_words.clone();
        b.iter(|| {
            for (d, s) in dst.iter_mut().zip(black_box(&b_words)) {
                *d &= *s;
            }
            black_box(dst[0])
        });
    });
    group.bench_function("and_assign/kernel", |b| {
        let mut dst = a_set.clone();
        b.iter(|| {
            dst &= black_box(&b_set);
            black_box(dst.len())
        });
    });

    group.bench_function("and_implication/scalar", |b| {
        let mut dst = a_words.clone();
        b.iter(|| {
            for ((d, a), c) in dst
                .iter_mut()
                .zip(black_box(&a_words))
                .zip(black_box(&b_words))
            {
                *d &= !*a | *c;
            }
            black_box(dst[0])
        });
    });
    group.bench_function("and_implication/kernel", |b| {
        let mut dst = a_set.clone();
        b.iter(|| {
            dst.and_implication(black_box(&a_set), black_box(&b_set));
            black_box(dst.len())
        });
    });

    // Subset on a worst-case (full scan) pair: self against self.
    group.bench_function("is_subset/scalar", |b| {
        b.iter(|| {
            black_box(
                black_box(&a_words)
                    .iter()
                    .zip(black_box(&a_words))
                    .all(|(x, y)| x & !y == 0),
            )
        });
    });
    group.bench_function("is_subset/kernel", |b| {
        b.iter(|| black_box(black_box(&a_set).is_subset(black_box(&a_set))));
    });

    group.finish();
}

criterion_group!(benches, build_scaling, extend_scaling, word_kernels);
criterion_main!(benches);
