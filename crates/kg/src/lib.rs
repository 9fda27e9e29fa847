//! # xsum-kg
//!
//! The knowledge-based recommendation graph of §III of *"Path-based summary
//! explanations for graph recommenders"* (ICDE 2025):
//!
//! * [`RatingMatrix`]: the sparse `n × m` matrix `M[u, i] = (r, t)` of
//!   positive ratings with timestamps;
//! * [`WeightConfig`] / [`weights`]: the interaction weight
//!   `w_M(u, i) = β1·r + β2·e^{−γ(t0 − t)}` and the attribute weight `w_A`;
//! * [`KnowledgeGraph`] / [`KgBuilder`]: the extended graph
//!   `G(V, E, w)` with `V = U ∪ I ∪ V_A`, plus the id bookkeeping that maps
//!   dataset indices to graph nodes and back;
//! * [`stats`]: the graph statistics reported in Tables II and III
//!   (population sizes, edge counts, degrees, density, average path length,
//!   diameter).

#![forbid(unsafe_code)]

pub mod builder;
pub mod rating;
pub mod stats;
pub mod weights;

pub use builder::{KgBuilder, KnowledgeGraph};
pub use rating::{Interaction, RatingMatrix};
pub use stats::{GraphStats, PathLengthStats};
pub use weights::{attribute_weight, interaction_weight, recency, WeightConfig};
