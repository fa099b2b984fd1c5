use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A bijective permutation of the index set `[0, len)`.
///
/// `index(i)` maps *sample-order position* `i` to a *data index*. Because the
/// mapping is bijective, iterating positions `0..len()` visits every data
/// index exactly once — the property the Anytime Automaton relies on to
/// guarantee that diffusive stages eventually reach the precise output
/// (paper §III-B2).
///
/// Implementations must be cheap to clone or share (`Send + Sync`) since the
/// automaton divides one permutation sequence among worker threads
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
/// also share one materialized sample order ([`DynPermutation::order`])
/// and one blocked order per window ([`DynPermutation::blocked`]), so an
/// application that builds many automata over the same data shape
/// materializes each once.
#[derive(Clone)]
pub struct DynPermutation {
    inner: Arc<dyn Permutation>,
    order: Arc<OnceLock<Arc<[u32]>>>,
    /// The blocked orders built so far, by window.
    blocked: Arc<Mutex<Vec<(usize, DynPermutation)>>>,
    /// `true` for an order [`DynPermutation::blocked`] built.
    is_blocked: bool,
}

impl DynPermutation {
    /// Wraps a concrete permutation.
    pub fn new<P: Permutation + 'static>(perm: P) -> Self {
        Self {
            inner: Arc::new(perm),
            order: Arc::new(OnceLock::new()),
            blocked: Arc::default(),
            is_blocked: false,
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

    /// This permutation's sample order, *blocked* for a stage that
    /// publishes every `window` samples: sorted by data index within each
    /// segment between two consecutive cut points, which are the
    /// multiples of `window` and the powers of two.
    ///
    /// The samples between two publications may be applied in any order,
    /// and in data order they sweep memory forward instead of scattering
    /// over it (paper §IV-C3). Every prefix that ends at a cut point holds
    /// the same indices as [`DynPermutation::order`]'s prefix of that
    /// length, so a map publishes the same version at every multiple of
    /// `window`, and a tree order completes each power-of-two resolution
    /// level at the same sample count. A prefix that ends between two cut
    /// points holds the lowest data indices of its segment, which a map
    /// may publish but a reduction that samples its input may not: the
    /// order remembers that it is blocked ([`DynPermutation::is_blocked`]),
    /// and a stopped reduction over it keeps its last whole window.
    ///
    /// The first call for a window on this permutation or any of its
    /// clones builds the blocked order from [`DynPermutation::order`];
    /// every later call for that window returns a permutation whose order
    /// is the same shared slice.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, or as [`DynPermutation::order`].
    ///
    /// # Examples
    ///
    /// ```
    /// use anytime_permute::{DynPermutation, Tree1d};
    ///
    /// let tree = DynPermutation::new(Tree1d::new(16).unwrap());
    /// assert_eq!(&tree.order()[8..], &[1, 9, 5, 13, 3, 11, 7, 15]);
    /// // Cut at 1, 2, 4, 8 and at every multiple of 6.
    /// let blocked = tree.blocked(6).order();
    /// assert_eq!(&blocked[8..], &[1, 5, 9, 13, 3, 7, 11, 15]);
    /// ```
    pub fn blocked(&self, window: usize) -> DynPermutation {
        assert!(window > 0, "window must be non-zero");
        // Held while building: a concurrent first call for a window waits.
        // A build that panics pushes nothing, so the list stays valid.
        let mut built = self.blocked.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, perm)) = built.iter().find(|(w, _)| *w == window) {
            return perm.clone();
        }
        let order = sort_between_cuts(&self.order(), window);
        let perm = Self {
            inner: Arc::new(Listed(Arc::clone(&order))),
            order: Arc::new(OnceLock::from(order)),
            blocked: Arc::default(),
            is_blocked: true,
        };
        built.push((window, perm.clone()));
        perm
    }

    /// `true` if [`DynPermutation::blocked`] built this permutation.
    ///
    /// A blocked order's prefixes hold the plain order's sets only at its
    /// cut points. In between, they are sorted parts of a window: for a
    /// reduction that samples its input, a spatially biased sample, which
    /// a stop must not publish (see [`DynPermutation::blocked`]).
    pub fn is_blocked(&self) -> bool {
        self.is_blocked
    }
}

/// `order` sorted by data index between consecutive cut points: the
/// multiples of `window` and the powers of two. One pass marks each data
/// index with its segment, and a pass over the indices in data order
/// appends each to its segment.
fn sort_between_cuts(order: &[u32], window: usize) -> Arc<[u32]> {
    // The segments' first positions, then (as cursors) their next free ones.
    let mut next = vec![0];
    let mut end = 0;
    while end < order.len() {
        let power = (end + 1).next_power_of_two();
        let multiple = (end / window + 1).saturating_mul(window);
        end = power.min(multiple).min(order.len());
        next.push(end);
    }
    // Segment numbers and data indices are below `order.len()`, and an
    // order of `u32` indices has at most 2³² of them: both fit `u32`.
    let mut segment = vec![0u32; order.len()];
    for (s, bounds) in next.windows(2).enumerate() {
        for &idx in &order[bounds[0]..bounds[1]] {
            segment[idx as usize] = s as u32;
        }
    }
    let mut sorted = vec![0u32; order.len()];
    for (idx, &s) in segment.iter().enumerate() {
        let at = &mut next[s as usize];
        sorted[*at] = idx as u32;
        *at += 1;
    }
    sorted.into()
}

/// A materialized sample order, as [`DynPermutation::blocked`] builds it.
struct Listed(Arc<[u32]>);

impl Permutation for Listed {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn index(&self, i: usize) -> usize {
        self.0[i] as usize
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
        let blocked = p.blocked(12).order();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let clone = p.clone();
                let (first, blocked) = (&first, &blocked);
                s.spawn(move || {
                    assert!(Arc::ptr_eq(&clone.order(), first));
                    assert!(Arc::ptr_eq(&clone.blocked(12).order(), blocked));
                });
            }
        });
        assert!(Arc::ptr_eq(&p.clone().clone().order(), &first));
        // Another window builds another blocked order, from the same order.
        let whole = p.blocked(100);
        assert!(!Arc::ptr_eq(&whole.order(), &blocked));
        // relaxed: every materializing thread has joined (or was this one)
        assert_eq!(materialized.load(Ordering::Relaxed), 1);
        assert_eq!(&first[..3], &[0, 1, 2]);
        // A sequential order is sorted already.
        assert_eq!(&*blocked, &*first);
        assert_eq!((whole.len(), whole.index(42)), (100, 42));
        assert_eq!(whole.materialize(), p.materialize());
    }

    #[test]
    fn blocked_orders_say_so() {
        let p = DynPermutation::new(Lfsr::with_len(100).unwrap());
        let blocked = p.blocked(12);
        assert!(!p.is_blocked());
        assert!(blocked.is_blocked());
        assert!(blocked.clone().is_blocked());
        assert!(p.blocked(12).is_blocked(), "the cached copy");
        assert!(blocked.blocked(5).is_blocked());
        assert!(!p.clone().is_blocked());
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn blocked_rejects_an_empty_window() {
        let _ = DynPermutation::new(Sequential::new(4)).blocked(0);
    }

    #[test]
    fn traits_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynPermutation>();
    }
}
