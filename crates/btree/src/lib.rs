//! A disk-resident B+-tree over fixed-size byte keys and values.
//!
//! This is the shared 1-D index substrate of the reproduction: RDB-trees
//! (paper §3.2) are B+-trees whose leaf *values* carry reference-object
//! distances; Multicurves stores full descriptors in leaf values; iDistance
//! and QALSH index scalar keys. All of them need exactly the operations
//! provided here:
//!
//! * **bulk load** from a sorted entry stream (bottom-up packing, the way the
//!   offline construction of Algorithm 1 populates each tree);
//! * **incremental insert** with node splits (paper §3.6, updates);
//! * **positioned bidirectional cursors** over the doubly-linked leaf chain —
//!   the "retrieve the α nearest objects of the query key" primitive of
//!   Algorithm 2 walks outward in both directions from the query position.
//!
//! All page access goes through [`hd_storage::BufferPool`], so every tree
//! traversal is visible in the IO ledger that reproduces the paper's
//! disk-access accounting.

mod node;
mod tree;

pub use node::{internal_capacity, leaf_capacity};
pub use tree::{BTree, Cursor, EntrySource, LeafScan};
