//! Trainer error type: every failure mode the resilience subsystem turns
//! from a panic/abort into a recoverable, matchable value.
//!
//! All trainers return `Result<_, TrainError>`. The variants map onto the
//! recovery policies of DESIGN.md §8: a budget overrun degrades
//! gracefully instead of OOM-killing the process, an injected crash is
//! the resumable kill-point of the differential recovery tests, and
//! checkpoint/halo corruption surfaces with enough detail (byte offsets,
//! exchange indices) to audit.

use crate::memory::BudgetExceeded;
use sgnn_fault::CkptError;

/// Why a trainer stopped without producing a report.
#[derive(Debug)]
pub enum TrainError {
    /// A checked ledger charge would exceed the memory budget
    /// (`SGNN_MEM_BUDGET`, `TrainConfig::mem_budget`, or a fault plan's
    /// budget).
    BudgetExceeded(BudgetExceeded),
    /// An armed [`sgnn_fault::FaultPlan`] kill fired. `site` names the
    /// poll site (`"epoch"`, `"superstep"`); `at` is its logical index.
    InjectedCrash {
        /// Poll site that fired.
        site: &'static str,
        /// Logical index (epoch or superstep number) at which it fired.
        at: u64,
    },
    /// Checkpoint load/save failed (I/O, truncation, CRC mismatch).
    Checkpoint(CkptError),
    /// A checkpoint exists and verifies, but belongs to a different
    /// trainer or model shape.
    CheckpointMismatch {
        /// What the running trainer expected.
        expected: String,
        /// What the checkpoint contains.
        found: String,
    },
    /// A halo exchange failed its checksum and the bounded retry budget
    /// did not repair it.
    HaloCorrupt {
        /// Global exchange index that stayed corrupt.
        exchange: u64,
        /// Retries consumed before giving up.
        retries: u32,
    },
    /// The dataset has zero classes — predictions would have zero
    /// columns and argmax would be undefined.
    EmptyLogits,
    /// Caller input the trainer cannot run: a fanout list that does not
    /// match the layer count, a partition that does not fit the dataset,
    /// or checkpoint settings for a trainer with no checkpointable state.
    InvalidInput(String),
}

/// Trainer result alias.
pub type TrainResult<T> = Result<T, TrainError>;

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::BudgetExceeded(e) => write!(f, "{e}"),
            TrainError::InjectedCrash { site, at } => write!(f, "injected crash at {site} {at}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::CheckpointMismatch { expected, found } => {
                write!(f, "checkpoint mismatch: expected {expected}, found {found}")
            }
            TrainError::HaloCorrupt { exchange, retries } => {
                write!(f, "halo exchange {exchange} still corrupt after {retries} retries")
            }
            TrainError::EmptyLogits => {
                write!(f, "dataset has zero classes; predictions would be empty")
            }
            TrainError::InvalidInput(why) => write!(f, "invalid input: {why}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<BudgetExceeded> for TrainError {
    fn from(e: BudgetExceeded) -> Self {
        TrainError::BudgetExceeded(e)
    }
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        TrainError::Checkpoint(e)
    }
}
