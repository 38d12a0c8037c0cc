//! Seed-era kernel baselines, preserved for benchmarking.
//!
//! Before the persistent worker pool landed, `sgnn_linalg::par` spawned
//! scoped threads on every call and `spmm` partitioned output rows into
//! equal *row-count* chunks with a per-edge `weights.map_or` branch. The
//! production kernels replaced all of that; these faithful replicas exist
//! so the `benchkernels` bin can measure the pool's dispatch-overhead and
//! load-balance wins against the old design on the same inputs.

use sgnn_graph::CsrGraph;
use sgnn_linalg::par::num_threads;
use sgnn_linalg::DenseMatrix;

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

/// Seed-era `par_rows_mut`: one scoped thread per equal-row chunk.
pub fn scoped_rows_mut<T, F>(data: &mut [T], row_width: usize, min_rows: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(data.len() % row_width, 0, "buffer not a whole number of rows");
    let rows = data.len() / row_width;
    let threads = num_threads().min(rows / min_rows.max(1)).max(1);
    if threads <= 1 || rows == 0 {
        body(0, data);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = data;
        let mut row0 = 0usize;
        while !rest.is_empty() {
            let take = (chunk_rows * row_width).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let body = &body;
            let first_row = row0;
            s.spawn(move || body(first_row, head));
            row0 += take / row_width;
        }
    });
}

/// Seed-era `spmm`: equal row-count partitioning (oblivious to the degree
/// distribution, so one hub-heavy chunk stalls the whole call on power-law
/// graphs) and an un-hoisted per-edge weight branch.
pub fn spmm_rowcount(g: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
    assert_eq!(x.rows(), g.num_nodes(), "feature rows must equal node count");
    let d = x.cols();
    let mut y = DenseMatrix::zeros(g.num_nodes(), d);
    let indptr = g.indptr();
    let indices = g.indices();
    let weights = g.weights();
    let xd = x.data();
    scoped_rows_mut(y.data_mut(), d.max(1), 256, |first_row, chunk| {
        if d == 0 {
            return;
        }
        for (local, out_row) in chunk.chunks_mut(d).enumerate() {
            let u = first_row + local;
            for e in indptr[u]..indptr[u + 1] {
                let v = indices[e] as usize;
                let w = weights.map_or(1.0, |ws| ws[e]);
                let src = &xd[v * d..(v + 1) * d];
                sgnn_linalg::vecops::axpy(w, src, out_row);
            }
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;
    use sgnn_graph::normalize::{normalized_adjacency, NormKind};

    #[test]
    fn baseline_spmm_matches_production_kernel() {
        let g = generate::barabasi_albert(2_000, 3, 5);
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let x = DenseMatrix::gaussian(2_000, 8, 1.0, 6);
        for op in [&g, &a] {
            let expect = sgnn_graph::spmm::spmm(op, &x);
            let got = spmm_rowcount(op, &x);
            let diff = expect
                .data()
                .iter()
                .zip(got.data())
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f32, f32::max);
            assert!(diff <= 1e-5, "baseline diverged by {diff}");
        }
    }

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
