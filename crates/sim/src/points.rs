//! The columnar point store: struct-of-arrays access to the points of a
//! generated system.
//!
//! A *point* is a (run, time) pair, numbered densely as
//! `run × (horizon + 1) + time`.
//! [`GeneratedSystem`](crate::GeneratedSystem) stores views point-major
//! (`views[point][proc]`), which is the natural layout for simulation;
//! the knowledge engine, however, scans *one processor's view across all
//! points* — knowledge of `φ` at a point depends only on that processor's
//! view there. The [`PointStore`] reorganizes the same data into the
//! layout those scans want:
//!
//! * per-processor **view columns** (`column(p)[point] = view of p at
//!   point`), the processor-major transpose of the system's view matrix;
//! * per-processor **CSR bucket partitions**: for each processor, the
//!   points grouped by its view, flattened into `offsets`/`items` arrays
//!   indexed by [`ViewId`]. Two points are indistinguishable to `p` iff
//!   they share a bucket, so every knowledge closure and every
//!   reachability union is a walk over buckets rather than a hash lookup
//!   per point.
//!
//! The store is built once at system-build time (every
//! [`GeneratedSystem`](crate::GeneratedSystem) constructor finishes by
//! calling [`PointStore::build`]) and shared behind an `Arc`, so cloning
//! a system does not duplicate it. Within a bucket, items appear in
//! increasing point order — the same first-encounter order a sequential
//! point scan would produce, which is what keeps CSR-driven union-find
//! bit-identical to the scan-based reference.

use crate::view::{ViewId, ViewTable};
use eba_model::ProcessorId;

/// Struct-of-arrays view of a generated system's points; see the module
/// docs.
#[derive(Debug)]
pub struct PointStore {
    n: usize,
    times: usize,
    num_points: usize,
    /// Processor-major view columns: `view_cols[p * num_points + point]`.
    view_cols: Vec<ViewId>,
    /// Per processor: CSR offsets into `bucket_items`, indexed by view id
    /// (`len = table.len() + 1`). The bucket of view `v` for processor
    /// `p` is `bucket_items[p][offsets[v] .. offsets[v + 1]]`.
    bucket_offsets: Vec<Vec<u32>>,
    /// Per processor: point indices grouped by the processor's view,
    /// in increasing point order within each bucket.
    bucket_items: Vec<Vec<u32>>,
}

impl PointStore {
    /// Builds the store from a system's point-major view matrix
    /// (`views[point * n + p]`).
    ///
    /// # Panics
    ///
    /// Panics if `views.len()` is not `num_runs × times × n` (an internal
    /// inconsistency of the caller).
    #[must_use]
    pub fn build(
        n: usize,
        times: usize,
        num_runs: usize,
        views: &[ViewId],
        table: &ViewTable,
    ) -> Self {
        let num_points = num_runs * times;
        assert_eq!(
            views.len(),
            num_points * n,
            "view matrix does not match the scenario's dimensions"
        );

        // Transpose the point-major matrix into processor-major columns.
        let mut view_cols = Vec::with_capacity(n * num_points);
        for p in 0..n {
            for point in 0..num_points {
                view_cols.push(views[point * n + p]);
            }
        }

        // Counting-sort each processor's points by view id: counts →
        // prefix sums → fill in point order (so buckets preserve the
        // sequential first-encounter order).
        let table_len = table.len();
        let mut bucket_offsets = Vec::with_capacity(n);
        let mut bucket_items = Vec::with_capacity(n);
        for p in 0..n {
            let column = &view_cols[p * num_points..(p + 1) * num_points];
            let mut offsets = vec![0u32; table_len + 1];
            for v in column {
                offsets[v.index() + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut cursor = offsets.clone();
            let mut items = vec![0u32; num_points];
            for (point, v) in column.iter().enumerate() {
                let slot = cursor[v.index()];
                items[slot as usize] = point as u32;
                cursor[v.index()] += 1;
            }
            bucket_offsets.push(offsets);
            bucket_items.push(items);
        }

        PointStore {
            n,
            times,
            num_points,
            view_cols,
            bucket_offsets,
            bucket_items,
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of times per run (`horizon + 1`).
    #[must_use]
    pub fn times(&self) -> usize {
        self.times
    }

    /// Number of points.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Approximate resident heap bytes of the store: the processor-major
    /// view columns and the CSR bucket partitions. Counts lengths rather than capacities (the store is
    /// built once and never grows, so the two agree up to allocator
    /// rounding); used by the serve pool's memory-budgeted eviction.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.view_cols.len() * size_of::<ViewId>()
            + self
                .bucket_offsets
                .iter()
                .chain(self.bucket_items.iter())
                .map(|v| v.len() * size_of::<u32>())
                .sum::<usize>()
    }

    /// Processor `p`'s view column: entry `point` is `p`'s view at that
    /// point. This is the processor-major transpose of
    /// [`crate::GeneratedSystem::view`].
    #[must_use]
    pub fn column(&self, p: ProcessorId) -> &[ViewId] {
        &self.view_cols[p.index() * self.num_points..(p.index() + 1) * self.num_points]
    }

    /// The CSR bucket partition of processor `p`: `(offsets, items)` with
    /// `offsets` indexed by view id. The points where `p` has view `v`
    /// are `items[offsets[v.index()] .. offsets[v.index() + 1]]`, in
    /// increasing point order.
    #[must_use]
    pub fn buckets(&self, p: ProcessorId) -> (&[u32], &[u32]) {
        (
            &self.bucket_offsets[p.index()],
            &self.bucket_items[p.index()],
        )
    }

    /// The points at which processor `p` has view `v`, in increasing
    /// point order (empty when `v` never occurs for `p`).
    #[must_use]
    pub fn bucket(&self, p: ProcessorId, v: ViewId) -> &[u32] {
        let offsets = &self.bucket_offsets[p.index()];
        let items = &self.bucket_items[p.index()];
        &items[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratedSystem;
    use eba_model::{FailureMode, Scenario, Time};

    fn system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn columns_agree_with_point_major_views() {
        let system = system();
        let store = system.points();
        assert_eq!(store.num_points(), system.num_points());
        for run in system.run_ids() {
            for time in Time::upto(system.horizon()) {
                let point = run.index() * store.times() + time.index();
                for p in ProcessorId::all(3) {
                    assert_eq!(store.column(p)[point], system.view(run, p, time));
                }
            }
        }
    }

    #[test]
    fn buckets_partition_the_points_in_point_order() {
        let system = system();
        let store = system.points();
        for p in ProcessorId::all(3) {
            let (offsets, items) = store.buckets(p);
            assert_eq!(offsets.len(), system.table().len() + 1);
            assert_eq!(items.len(), store.num_points());
            // Every point appears exactly once, under its own view's
            // bucket, and buckets are internally sorted.
            let mut seen = vec![false; store.num_points()];
            for v in system.table().ids() {
                let bucket = store.bucket(p, v);
                assert!(bucket.windows(2).all(|w| w[0] < w[1]));
                for &point in bucket {
                    assert!(!seen[point as usize]);
                    seen[point as usize] = true;
                    assert_eq!(store.column(p)[point as usize], v);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
