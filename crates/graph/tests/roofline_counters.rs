//! Cross-checks the roofline counters against the analytic traffic/flop
//! models (ISSUE 6 satellite). Lives alone in its own test binary because
//! observability state is process-global: any other test calling a kernel
//! while obs is enabled would perturb the exact counts asserted here.

use sgnn_graph::blocked::{spmm_blocked_into, BlockSpec};
use sgnn_graph::generate;
use sgnn_graph::normalize::{normalized_adjacency, NormKind};
use sgnn_graph::spmm::{spmm_bytes, spmm_flops, spmm_into};
use sgnn_linalg::quant::{qmatmul_bytes, qmatmul_into, QuantMatrix};
use sgnn_linalg::DenseMatrix;

fn counter(report: &sgnn_obs::ObsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
        .value
}

#[test]
fn roofline_counters_match_analytic_models() {
    let g =
        normalized_adjacency(&generate::barabasi_albert(200, 3, 5), NormKind::Sym, true).unwrap();
    let d = 8usize;
    let x = DenseMatrix::gaussian(200, d, 1.0, 1);
    let mut y = DenseMatrix::zeros(200, d);

    sgnn_obs::enable();
    sgnn_obs::reset();
    spmm_into(&g, &x, &mut y);
    spmm_blocked_into(&g, &x, &mut y, BlockSpec::auto(g.view(), d));
    let a = DenseMatrix::gaussian(6, 10, 1.0, 2);
    let b = DenseMatrix::gaussian(10, 4, 1.0, 3);
    let mut ab = DenseMatrix::zeros(6, 4);
    a.matmul_into(&b, &mut ab).unwrap();
    let aq = QuantMatrix::quantize_i8(&a);
    let bq = QuantMatrix::quantize_i8(&b);
    qmatmul_into(&aq, &bq, &mut ab).unwrap();
    let report = sgnn_obs::report();
    sgnn_obs::disable();

    // Exact SpMM: one call of each flavor, counters equal the models.
    assert_eq!(counter(&report, "linalg.spmm.flops"), spmm_flops(&g, d));
    assert_eq!(counter(&report, "linalg.spmm.bytes_moved"), spmm_bytes(&g, d));
    assert_eq!(counter(&report, "linalg.spmm_blocked.flops"), spmm_flops(&g, d));
    assert_eq!(counter(&report, "linalg.spmm_blocked.bytes_moved"), spmm_bytes(&g, d));
    // Dense GEMM models.
    assert_eq!(counter(&report, "linalg.matmul.flops"), 2 * 6 * 10 * 4);
    assert_eq!(counter(&report, "linalg.matmul.bytes_moved"), 4 * (6 * 10 + 10 * 4 + 2 * 6 * 4));
    assert_eq!(counter(&report, "linalg.qmatmul.flops"), 2 * 6 * 10 * 4 + 6 * 10);
    assert_eq!(counter(&report, "linalg.qmatmul.bytes_moved"), qmatmul_bytes(&aq, &bq) as u64);
}
