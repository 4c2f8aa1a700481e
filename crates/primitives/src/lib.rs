//! # bgpq-gpu-primitives — data-parallel building blocks
//!
//! BGPQ's node-level operations are built from three GPU primitives
//! (§4 of the paper):
//!
//! * **Bitonic sort** (Peters et al. \[22\]) — sorting a batch of keys held
//!   in shared memory. Implemented here as the *actual sorting network*:
//!   the same compare-exchange schedule a CUDA thread block executes, so
//!   the simulator can charge cycles per network step.
//! * **GPU Merge Path** (Green, McColl, Bader \[11\]) — merging two sorted
//!   batches by splitting the merge matrix along cross diagonals so that
//!   every thread (partition) merges an independent, equal-sized chunk.
//! * **`SORT_SPLIT`** — the paper's core node operation: merge two sorted
//!   nodes and split the result into the `Ma` smallest and the remaining
//!   largest keys (formal definition in §4). Built on merge path.
//!
//! Each primitive also exposes a *work/step count* so the virtual-time
//! simulator (`gpu-sim`) can charge a faithful cycle cost as a function of
//! batch size and thread-block width, without this crate depending on the
//! simulator.

pub mod bitonic;
pub mod cost;
pub mod merge_path;
pub mod radix;
pub mod simd;
pub mod sort_split;

pub use bitonic::{bitonic_sort, bitonic_sort_padded, bitonic_sort_scalar, is_power_of_two};
pub use cost::{CostModel, PrimitiveCost, SortAlgo};
pub use merge_path::{
    merge_into, merge_into_scalar, merge_into_vec, merge_path_partition, merge_path_search,
    parallel_merge,
};
pub use radix::{merge_sort, radix_sort, radix_sort_by_key, radix_sort_by_key_with, RadixKey};
pub use sort_split::{
    sort_split, sort_split_full, sort_split_full_branchless, sort_split_full_in_place,
    SortSplitResult,
};
