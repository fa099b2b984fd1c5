use std::fmt;
use std::sync::{Arc, OnceLock};

/// A bijective permutation of the index set `[0, len)`.
///
/// `index(i)` maps *sample-order position* `i` to a *data index*. Because the
/// mapping is bijective, iterating positions `0..len()` visits every data
/// index exactly once — the property the Anytime Automaton relies on to
/// guarantee that diffusive stages eventually reach the precise output
/// (paper §III-B2).
///
/// Implementations must be cheap to clone or share (`Send + Sync`) since the
/// automaton partitions one permutation sequence among worker threads
/// (paper §IV-C1).
pub trait Permutation: Send + Sync {
    /// Number of elements in the permuted index set.
    fn len(&self) -> usize;

    /// Returns `true` if the permutation has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps sample-order position `i` to a data index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn index(&self, i: usize) -> usize;

    /// Iterates data indices in sample order.
    ///
    /// The default implementation calls [`Permutation::index`] for each
    /// position; implementations with cheap sequential stepping (e.g. LFSRs)
    /// override this.
    fn iter(&self) -> Indices<'_> {
        Indices {
            inner: Box::new((0..self.len()).map(move |i| self.index(i))),
        }
    }

    /// Collects the full sample order into a vector of data indices.
    ///
    /// Useful when `index` is expensive (e.g. for [`crate::Restrict`]) and
    /// the order will be consumed repeatedly.
    fn materialize(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Iterator over the data indices of a [`Permutation`], in sample order.
pub struct Indices<'a> {
    pub(crate) inner: Box<dyn Iterator<Item = usize> + Send + 'a>,
}

impl Iterator for Indices<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl fmt::Debug for Indices<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Indices").finish_non_exhaustive()
    }
}

/// A shareable, type-erased permutation.
///
/// Wraps any [`Permutation`] in an [`Arc`] so pipelines can store
/// heterogeneous permutations and clone them into worker threads. Clones
/// also share one materialized sample order ([`DynPermutation::order`]),
/// so an application that builds many automata over the same data shape
/// materializes it once.
#[derive(Clone)]
pub struct DynPermutation {
    inner: Arc<dyn Permutation>,
    order: Arc<OnceLock<Arc<[u32]>>>,
}

impl DynPermutation {
    /// Wraps a concrete permutation.
    pub fn new<P: Permutation + 'static>(perm: P) -> Self {
        Self {
            inner: Arc::new(perm),
            order: Arc::new(OnceLock::new()),
        }
    }

    /// The full sample order as data indices narrowed to `u32`, which
    /// halves the streaming footprint of a sampled stage's hot loop.
    ///
    /// The first call on this permutation or any of its clones
    /// materializes the order; every later call returns the same shared
    /// slice. A concurrent first call waits for the one in progress.
    ///
    /// # Panics
    ///
    /// Panics if a data index does not fit `u32` (a domain of 2³² or more
    /// elements).
    pub fn order(&self) -> Arc<[u32]> {
        Arc::clone(self.order.get_or_init(|| {
            self.inner
                .materialize()
                .into_iter()
                .map(|idx| u32::try_from(idx).expect("index fits u32"))
                .collect()
        }))
    }
}

impl Permutation for DynPermutation {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn index(&self, i: usize) -> usize {
        self.inner.index(i)
    }

    fn iter(&self) -> Indices<'_> {
        self.inner.iter()
    }

    fn materialize(&self) -> Vec<usize> {
        // Delegate so wrapped permutations keep their specialized (tight
        // loop) materialization — the default would re-box through iter().
        self.inner.materialize()
    }
}

impl fmt::Debug for DynPermutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynPermutation")
            .field("len", &self.inner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lfsr, Sequential, Tree2d};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dyn_permutation_delegates() {
        let p = DynPermutation::new(Sequential::new(5));
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.index(3), 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(p.materialize(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dyn_permutation_is_cloneable_and_debuggable() {
        let p = DynPermutation::new(Sequential::new(2));
        let q = p.clone();
        assert_eq!(q.len(), 2);
        assert!(!format!("{p:?}").is_empty());
    }

    #[test]
    fn order_matches_materialize() {
        let perms = [
            DynPermutation::new(Tree2d::new(64, 64).unwrap()),
            // Padded to 256 × 128: cycle walking skips the padding.
            DynPermutation::new(Tree2d::new(160, 96).unwrap()),
            DynPermutation::new(Lfsr::with_seed(1000, 5).unwrap()),
            DynPermutation::new(Sequential::new(37)),
        ];
        for p in perms {
            let wide: Vec<usize> = p.order().iter().map(|&i| i as usize).collect();
            assert_eq!(wide, p.materialize(), "{p:?}");
        }
    }

    #[test]
    fn clones_share_one_order() {
        let p = DynPermutation::new(Tree2d::new(16, 16).unwrap());
        let q = p.clone();
        assert!(Arc::ptr_eq(&q.order(), &p.order()));
        // An independently wrapped permutation has an order of its own.
        let r = DynPermutation::new(Tree2d::new(16, 16).unwrap());
        assert!(!Arc::ptr_eq(&r.order(), &p.order()));
    }

    /// Counts how often the wrapped permutation is materialized.
    struct Counting {
        inner: Sequential,
        materialized: Arc<AtomicUsize>,
    }

    impl Permutation for Counting {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn index(&self, i: usize) -> usize {
            self.inner.index(i)
        }

        fn materialize(&self) -> Vec<usize> {
            // relaxed: a test counter, read after the threads that bump it join
            self.materialized.fetch_add(1, Ordering::Relaxed);
            self.inner.materialize()
        }
    }

    #[test]
    fn order_materializes_once_across_clones_and_threads() {
        let materialized = Arc::new(AtomicUsize::new(0));
        let p = DynPermutation::new(Counting {
            inner: Sequential::new(100),
            materialized: Arc::clone(&materialized),
        });
        let first = p.order();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let clone = p.clone();
                let first = &first;
                s.spawn(move || assert!(Arc::ptr_eq(&clone.order(), first)));
            }
        });
        assert!(Arc::ptr_eq(&p.clone().clone().order(), &first));
        // relaxed: every materializing thread has joined (or was this one)
        assert_eq!(materialized.load(Ordering::Relaxed), 1);
        assert_eq!(&first[..3], &[0, 1, 2]);
    }

    #[test]
    fn traits_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynPermutation>();
    }
}
