//! # sgnn-bench
//!
//! The benchmark harness regenerating every experiment in EXPERIMENTS.md.
//!
//! Two kinds of entry point:
//! - the `expfig` binary (`cargo run --release -p sgnn-bench --bin expfig
//!   -- e4`) prints the table/series of a single experiment (or `all`);
//! - the gated `bench*` binaries (`benchkernels`, `benchsampling`,
//!   `benchsharding`, `benchrecovery`, `benchserve`) time the
//!   performance-sensitive kernels and write the JSON `benchdiff` checks.
//!
//! Each `e*` function is self-contained: it generates its workload,
//! sweeps its parameter, and prints the same rows EXPERIMENTS.md records.

pub mod diff;
pub mod exp_ablations;
pub mod exp_analytics;
pub mod exp_classic;
pub mod exp_editing;
pub mod jsonv;
pub mod kernel_baseline;

use std::sync::atomic::{AtomicBool, Ordering};

static JSON_MODE: AtomicBool = AtomicBool::new(false);

/// Turns machine-readable output on: experiments additionally emit each
/// [`sgnn_core::trainer::TrainReport`] as one line of JSON. Set by
/// `expfig --json`.
pub fn set_json_mode(on: bool) {
    JSON_MODE.store(on, Ordering::Relaxed);
}

/// Whether `--json` output is active.
pub fn json_mode() -> bool {
    JSON_MODE.load(Ordering::Relaxed)
}

/// Prints `r` as a single JSON line when `--json` is active; no-op
/// otherwise, so experiments can call it unconditionally.
pub fn emit_report(r: &sgnn_core::trainer::TrainReport) {
    if json_mode() {
        println!("{}", serde::json::to_string(r));
    }
}

/// Runs one experiment by id (`"e1"`…`"e13"`, ablations `"a1"`…`"a4"`,
/// `"f1"`), or `"all"`.
///
/// Returns `false` when the id is unknown.
pub fn run(id: &str) -> bool {
    match id {
        "e1" => exp_classic::e1_neighborhood_explosion(),
        "e2" => exp_classic::e2_partition(),
        "e3" => exp_classic::e3_sampling_families(),
        "e4" => exp_classic::e4_decoupled_scaling(),
        "e5" => exp_analytics::e5_spectral_heterophily(),
        "e6" => exp_analytics::e6_similarity(),
        "e7" => exp_analytics::e7_hub_labeling(),
        "e8" => exp_analytics::e8_implicit(),
        "e9" => exp_editing::e9_sparsification(),
        "e10" => exp_editing::e10_sampling_variance(),
        "e11" => exp_editing::e11_walk_extraction(),
        "e12" => exp_editing::e12_coarsening(),
        "e13" => exp_editing::e13_memory_map(),
        "a1" => exp_ablations::a1_reordering(),
        "a2" => exp_ablations::a2_adaptive_inference(),
        "a3" => exp_ablations::a3_restreaming(),
        "a4" => exp_ablations::a4_cross_batch_flow(),
        "f1" => {
            println!("{}", sgnn_core::taxonomy::figure1().render());
            true
        }
        "all" => {
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
                "a1", "a2", "a3", "a4", "f1",
            ] {
                println!("\n=================== {} ===================", id.to_uppercase());
                run(id);
            }
            true
        }
        _ => false,
    }
}

/// Formats a byte count as MiB with one decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(!super::run("e99"));
    }

    #[test]
    fn figure1_runs() {
        assert!(super::run("f1"));
    }
}
