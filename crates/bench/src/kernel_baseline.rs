//! Seed-era dispatch baseline, preserved for benchmarking.
//!
//! Before the persistent worker pool landed, `sgnn_linalg::par` spawned
//! scoped threads on every call. The pool replaced that; this faithful
//! replica exists so the `benchkernels` bin can measure the pool's
//! dispatch-overhead win against the old design on the same inputs.

use sgnn_linalg::par::num_threads;

/// Seed-era `par_chunks`: spawns scoped threads per call, equal chunks.
pub fn scoped_chunks<F>(len: usize, min_chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = num_threads().min(len / min_chunk.max(1)).max(1);
    if threads <= 1 || len == 0 {
        body(0, len);
        return;
    }
    let chunk = len.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(len);
            if start >= end {
                break;
            }
            let body = &body;
            s.spawn(move || body(start, end));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_chunks_covers_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        scoped_chunks(1_000, 1, |s, e| {
            total.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1_000);
    }
}
