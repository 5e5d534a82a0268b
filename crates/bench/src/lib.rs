//! Experiment harness: shared machinery behind the `table*`/`figure*`
//! binaries that regenerate the paper's evaluation (§V), plus the Criterion
//! micro-benchmarks.
//!
//! Every binary follows the same pattern: build workloads at a scale the
//! host can hold (`--scale` multiplies it), run the measurement path
//! (wall-clock engine, simulated machine, analytical model, or all three),
//! and print a table whose rows mirror the paper's figure. `--json PATH`
//! additionally dumps machine-readable rows for EXPERIMENTS.md.

pub mod args;
pub mod gate;
pub mod report;
pub mod runs;
pub mod table;

pub use args::HarnessArgs;
pub use runs::{scaled_machine, scaled_machine_spec, ScaledSetup};
pub use table::{Table, TableWriter};

/// The factor by which default experiment sizes are reduced relative to the
/// paper (DESIGN.md "Scaling note"): graph sizes and simulated cache sizes
/// shrink together so capacity *ratios* match the paper's regime.
pub const DEFAULT_SHRINK: u64 = 64;
