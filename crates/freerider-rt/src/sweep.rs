//! The sweep builder: the one idiom every experiment shares — a grid of
//! points, one derived RNG stream per point, a per-point trial function,
//! results collected in point order — written once.
//!
//! ```
//! use freerider_rt::{Executor, Rng64, Sweep};
//!
//! // Mean of 100 Gaussian draws at each of 8 sweep points.
//! let means = Sweep::over((0..8).collect::<Vec<u32>>())
//!     .seed(42)
//!     .executor(Executor::serial())
//!     .run(|point| {
//!         let mut rng = point.rng();
//!         let n = 100;
//!         (0..n).map(|_| rng.gauss()).sum::<f64>() / n as f64
//!     });
//! assert_eq!(means.len(), 8);
//! ```

use crate::executor::Executor;
use crate::rng::{derive_seed, Rng64};

/// One point of a sweep as handed to the trial function: the grid value,
/// its index, and the seed derived for it.
#[derive(Debug, Clone, Copy)]
pub struct Point<'a, T> {
    /// The grid value (distance, SNR, tag count, …).
    pub value: &'a T,
    /// Position of this point in the grid.
    pub index: usize,
    /// Seed derived as `derive_seed(sweep_seed, index)` — feed it to link
    /// configs that take a raw `u64`, or call [`Point::rng`].
    pub seed: u64,
}

impl<T> Point<'_, T> {
    /// A fresh generator for this point's stream.
    pub fn rng(&self) -> Rng64 {
        Rng64::new(self.seed)
    }

    /// A sub-stream of this point (e.g. one per trial within the point).
    pub fn derive(&self, stream: u64) -> Rng64 {
        Rng64::derive(self.seed, stream)
    }
}

/// Builder for a seeded Monte-Carlo sweep over a grid of points.
#[derive(Debug, Clone)]
pub struct Sweep<T> {
    points: Vec<T>,
    seed: u64,
    executor: Executor,
}

impl<T: Sync> Sweep<T> {
    /// Starts a sweep over `points` (seed 0, executor from the
    /// environment — see [`Executor::from_env`]).
    pub fn over(points: Vec<T>) -> Self {
        Sweep {
            points,
            seed: 0,
            executor: Executor::from_env(),
        }
    }

    /// Sets the top-level seed; point `i` runs on stream
    /// `derive_seed(seed, i)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the executor (e.g. [`Executor::serial`] for the
    /// equivalence test).
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Runs `f` on every point, in parallel, returning results in grid
    /// order. Bit-identical for any worker count as long as `f` draws its
    /// randomness from the [`Point`] it is given.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Point<'_, T>) -> R + Sync,
    {
        let seed = self.seed;
        self.executor.map(&self.points, |index, value| {
            f(Point {
                value,
                index,
                seed: derive_seed(seed, index as u64),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let grid: Vec<f64> = (0..24).map(|i| i as f64 * 0.5).collect();
        let run = |ex: Executor| {
            Sweep::over(grid.clone()).seed(1234).executor(ex).run(|p| {
                let mut rng = p.rng();
                (0..200).map(|_| rng.gauss() * p.value).sum::<f64>()
            })
        };
        let serial = run(Executor::serial());
        let parallel = run(Executor::new(4));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn point_seeds_are_the_documented_derivation() {
        let seeds: Vec<u64> = Sweep::over(vec![(); 5])
            .seed(99)
            .executor(Executor::serial())
            .run(|p| p.seed);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, derive_seed(99, i as u64));
        }
    }

    #[test]
    fn sub_streams_within_a_point_differ() {
        Sweep::over(vec![0u8])
            .seed(7)
            .executor(Executor::serial())
            .run(|p| {
                let mut a = p.derive(0);
                let mut b = p.derive(1);
                assert_ne!(a.next_u64(), b.next_u64());
            });
    }
}
