//! Offline shim for `rayon`: the subset used by this workspace, with real
//! parallelism via `std::thread::scope` (no work stealing — items are split
//! into one contiguous chunk per worker, which matches how the kernel
//! drivers here already shape their work into a few chunks per thread).
//!
//! `ThreadPool` does not own threads; `install` scopes a thread-count that
//! [`current_num_threads`] and the parallel iterators observe, so
//! `pool.install(|| ...par_iter...)` runs with the pool's configured width.
//! [`current_thread_index`] tells code whether it runs inside an
//! `install`: the installing thread is the pool's worker 0, while the scoped
//! threads a parallel iterator spawns belong to no pool (as a thread outside
//! any pool in real rayon), so work they run never fans out again.

use std::cell::Cell;
use std::fmt;

pub mod iter;

pub mod prelude {
    //! Glob-importable parallel iterator traits.
    pub use crate::iter::IntoParallelIterator;
}

thread_local! {
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of threads the current scope parallelizes over: the installed
/// pool's width inside [`ThreadPool::install`], host parallelism otherwise.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Index of the current thread within the installed pool: `Some` inside
/// [`ThreadPool::install`], `None` outside it and on the worker threads of a
/// parallel iterator.
pub fn current_thread_index() -> Option<usize> {
    (INSTALLED_THREADS.with(Cell::get) > 0).then_some(0)
}

/// A logical thread pool: a configured width that scopes spawned workers.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count in force.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|c| c.set(self.0));
            }
        }
        let prev = INSTALLED_THREADS.with(|c| {
            let prev = c.get();
            c.set(self.num_threads);
            prev
        });
        let _restore = Restore(prev);
        op()
    }

    /// The configured width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start a builder with the default (host) width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pool width; 0 means host parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool. Infallible here, but keeps rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// Pool construction error (never produced by the shim).
pub struct ThreadPoolBuildError(());

impl fmt::Debug for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ThreadPoolBuildError")
    }
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn thread_index_is_some_only_inside_install() {
        use crate::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(current_thread_index(), None);
        assert!(pool.install(current_thread_index).is_some());
        assert_eq!(current_thread_index(), None);
        // The scoped workers of a parallel iterator are outside the pool.
        let inside = AtomicUsize::new(0);
        pool.install(|| {
            (0..6).into_par_iter().for_each(|_| {
                if current_thread_index().is_some() {
                    inside.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        assert_eq!(inside.load(Ordering::Relaxed), 0);
    }
}
