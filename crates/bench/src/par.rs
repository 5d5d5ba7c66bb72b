//! Deterministic fan-out for the corpus drivers.
//!
//! The E6/E7 experiments plan whole query corpora — independent work items
//! with no shared mutable state. [`par_map`] fans them out over
//! `std::thread::scope` workers, one per available core; with one core (or
//! one item) it is a sequential map.
//!
//! Determinism: results are returned **in input order** regardless of which
//! worker finished first, so any left-to-right reduce over the output (e.g.
//! "worst case, earliest query on ties") matches the sequential loop.

/// Order-preserving parallel map.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Work-stealing by atomic cursor; each worker tags results with the
    // input index so the merge restores input order exactly.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("par_map worker panicked")).collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..200).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn left_to_right_reduce_is_deterministic() {
        // A left-to-right tie-break: cheapest cost, earliest index on ties.
        let costs = [5.0, 3.0, 3.0, 9.0];
        let out = par_map(&costs, |&c| c);
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in out.into_iter().enumerate() {
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((i, c));
            }
        }
        assert_eq!(best.unwrap().0, 1, "earliest of the tied members wins");
    }
}
