//! The multi-threaded batch runner: fans seeded runs (or any per-item
//! work) across worker threads with deterministic results.
//!
//! Two properties make parallel sweeps reproducible:
//!
//! 1. **Order-independent seeding** — the seed of run `i` is
//!    [`derive_seed`]`(base, i)`, a pure function of the batch index. No
//!    RNG state is shared across runs, so which thread picks up which run
//!    (and in which order) cannot change any run's randomness.
//! 2. **Index-addressed results** — workers write into the slot of the item
//!    they claimed, and aggregation always walks slots in index order, so
//!    floating-point reductions happen in one fixed order regardless of
//!    thread count. `threads = 1` and `threads = 8` produce byte-identical
//!    reports.

use crate::build::run_one_with;
use crate::checkpoint::CheckpointStore;
use crate::record::{BatchReport, RunRecord};
use crate::spec::ScenarioSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives the simulation seed for batch index `index` under `base`.
///
/// SplitMix64-style finalizer over `base ⊕ golden·(index+1)`: adjacent
/// indices land far apart, and the mapping depends only on `(base, index)`.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fans work for `items` across `threads` workers; returns outputs in item
/// order. The closure receives `(index, &item)`.
///
/// This is the one thread pool in the workspace: scenario batches, baseline
/// sweeps, and empirical-game profile grids all fan out through here.
pub fn par_map<I, O, F>(threads: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let threads = effective_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(i, &items[i]);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Resolves `0` to the machine's available parallelism.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs scenario batches across a fixed-size worker pool.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with `threads` workers (`0` = all cores).
    pub fn new(threads: usize) -> Self {
        BatchRunner { threads }
    }

    /// A runner using every available core.
    pub fn all_cores() -> Self {
        BatchRunner { threads: 0 }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        effective_threads(self.threads)
    }

    /// Runs `seeds` seeded simulations of `spec` and aggregates them: the
    /// one-point cold grid.
    pub fn run(&self, spec: &ScenarioSpec, seeds: u64) -> BatchReport {
        let mut reports = self.run_grid_with(std::slice::from_ref(spec), seeds, None);
        reports.pop().expect("one report per grid point")
    }

    /// Runs every grid point of a scenario, each over `seeds` seeds, with
    /// checkpoint/fork warm starts on (a store scoped to this call).
    /// Equivalent to [`BatchRunner::run_grid_with`] with a fresh
    /// [`CheckpointStore`]; results are byte-identical either way.
    pub fn run_grid(&self, specs: &[ScenarioSpec], seeds: u64) -> Vec<BatchReport> {
        self.run_grid_with(specs, seeds, Some(&CheckpointStore::default()))
    }

    /// Runs every grid point of a scenario, each over `seeds` seeds,
    /// optionally sharing `store` across cells so grid points with a
    /// common timeline prefix fork from one captured state instead of
    /// re-simulating it (`None` = cold, every cell from `t = 0`).
    ///
    /// The whole grid is flattened into **one** `specs × seeds` work list
    /// fanned out through [`par_map`], so a grid of many small points
    /// saturates the pool instead of draining it once per point. Cells
    /// are index-addressed — cell `s·seeds + i` is spec `s` under
    /// [`derive_seed`]`(base_s, i)` — and each grid point aggregates the
    /// moment its last cell lands, in seed-index order, so reports stay
    /// byte-identical at any thread count, with or without warm starts,
    /// *and* byte-identical to the old sequential-per-point schedule.
    ///
    /// Records **stream** into their grid point's aggregation slot and are
    /// dropped as soon as the point completes: peak memory is proportional
    /// to the records of *in-flight* grid points, not the whole
    /// `specs × seeds` grid.
    pub fn run_grid_with(
        &self,
        specs: &[ScenarioSpec],
        seeds: u64,
        store: Option<&CheckpointStore>,
    ) -> Vec<BatchReport> {
        if seeds == 0 || specs.is_empty() {
            return specs
                .iter()
                .map(|s| BatchReport::from_records(s.label.clone(), s.n, Vec::new()))
                .collect();
        }
        // Advertise every cell's event boundaries as capture hints so
        // early-finishing cells capture at their siblings' fork ticks too
        // (suffix captures past their own last event).
        if let Some(store) = store {
            store.set_capture_hints_for(specs.iter());
        }
        struct SpecSlot {
            records: Vec<Option<RunRecord>>,
            remaining: usize,
        }
        let cells: Vec<(usize, u64)> = specs
            .iter()
            .enumerate()
            .flat_map(|(s, _)| (0..seeds).map(move |i| (s, i)))
            .collect();
        let slots: Vec<Mutex<SpecSlot>> = specs
            .iter()
            .map(|_| {
                Mutex::new(SpecSlot {
                    records: (0..seeds).map(|_| None).collect(),
                    remaining: seeds as usize,
                })
            })
            .collect();
        let reports: Vec<Mutex<Option<BatchReport>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        par_map(self.threads, &cells, |_, &(s, i)| {
            let spec = &specs[s];
            let record = run_one_with(spec, derive_seed(spec.base_seed, i), store);
            let finished: Option<Vec<RunRecord>> = {
                let mut slot = slots[s].lock().expect("spec slot");
                slot.records[i as usize] = Some(record);
                slot.remaining -= 1;
                (slot.remaining == 0).then(|| {
                    slot.records
                        .iter_mut()
                        .map(|r| r.take().expect("every seed slot filled"))
                        .collect()
                })
            };
            if let Some(records) = finished {
                let report = BatchReport::from_records(spec.label.clone(), spec.n, records);
                *reports[s].lock().expect("report slot") = Some(report);
            }
        });
        reports
            .into_iter()
            .map(|r| {
                r.into_inner()
                    .expect("report slot")
                    .expect("every grid point completed")
            })
            .collect()
    }

    /// Deterministic parallel map over arbitrary items (see [`par_map`]).
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        par_map(self.threads, items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_pure_and_spread_out() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Not the identity and not small-biased.
        assert!(derive_seed(0, 0) > 1 << 32);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, &items, |i, &x| x * 2 + i as u64);
        let parallel = par_map(8, &items, |i, &x| x * 2 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn par_map_handles_empty_and_tiny() {
        let empty: Vec<u64> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[5u64], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn run_is_the_one_point_cold_grid() {
        let spec = ScenarioSpec::new("tiny", 4, 2);
        let runner = BatchRunner::new(2);
        let json = |r: &BatchReport| r.to_json().render();
        let single = runner.run(&spec, 3);
        let grid = runner.run_grid_with(std::slice::from_ref(&spec), 3, None);
        assert_eq!(grid.len(), 1);
        assert_eq!(json(&single), json(&grid[0]));
        assert_eq!(runner.run(&spec, 0).seeds, 0);
    }

    #[test]
    fn threads_resolve() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        assert_eq!(BatchRunner::new(2).threads(), 2);
    }
}
