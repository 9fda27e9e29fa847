//! Core graph storage: typed nodes, weighted directed edges, and an
//! undirected adjacency view.
//!
//! The paper's algorithms (shortest paths between terminals, Steiner/PCST
//! growth) all operate on the *weak* (undirected) view of the knowledge
//! graph — a summary explanation is "a weakly connected subgraph of G"
//! (Problem definitions, §III). Edge direction is retained because the
//! renderers verbalize `u → i` as "u watched i" while `i → a` becomes
//! "i is related to a".

use std::sync::OnceLock;

use crate::fxhash::FxHashMap;
use crate::ids::{EdgeId, NodeId, NodeKind};

/// Classification of edges in the knowledge-based graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A rated user→item interaction from the rating matrix `M` (`E_M`).
    Interaction,
    /// A user/item→entity attribute link (`E_A`).
    Attribute,
}

/// A directed, weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// The paper's weight `w(e)` (`w_M` on interactions, `w_A` on attributes).
    pub weight: f64,
    /// Interaction vs attribute.
    pub kind: EdgeKind,
}

impl Edge {
    /// Given one endpoint, return the opposite one.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.src {
            self.dst
        } else {
            debug_assert_eq!(n, self.dst, "node is not an endpoint of this edge");
            self.src
        }
    }

    /// Whether `n` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        self.src == n || self.dst == n
    }
}

/// Per-edge derived costs, aligned with [`Graph`] edge ids.
///
/// The summarizers never mutate the graph's weights; they derive a cost
/// vector (e.g. the λ-boosted, sign-flipped transform of §IV-A) and hand it
/// to the search primitives.
#[derive(Debug, Clone)]
pub struct EdgeCosts(pub Vec<f64>);

impl EdgeCosts {
    /// Uniform cost (hop counting) for every edge of `g`.
    pub fn uniform(g: &Graph, cost: f64) -> Self {
        EdgeCosts(vec![cost; g.edge_count()])
    }

    /// Cost of one edge.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.0[e.index()]
    }

    /// The whole table as a contiguous edge-id-indexed slice — the form
    /// the search kernels hoist once per run so the relaxation loop
    /// indexes raw memory instead of calling through [`EdgeCosts::get`]
    /// per edge.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cost table is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Frozen compressed-sparse-row (CSR) adjacency: one flat `(neighbor,
/// edge)` array indexed by per-node offsets.
///
/// Built once from the edge list by a counting sort, so a node's slice
/// lists its incident edges in insertion order — exactly the order the
/// legacy per-node `Vec<Vec<_>>` builder produced — while the whole
/// adjacency lives in two contiguous allocations. Dijkstra's inner loop
/// then walks cache-resident slices instead of chasing one heap pointer
/// per node.
#[derive(Debug, Clone, Default)]
struct CsrAdj {
    /// `offsets[v]..offsets[v + 1]` delimits node `v`'s slice of `pairs`.
    offsets: Vec<u32>,
    /// Flat `(neighbor, edge id)` pairs, grouped by node.
    pairs: Vec<(NodeId, EdgeId)>,
}

impl CsrAdj {
    fn build(node_count: usize, edges: &[Edge]) -> Self {
        let mut offsets = vec![0u32; node_count + 1];
        for e in edges {
            offsets[e.src.index() + 1] += 1;
            offsets[e.dst.index() + 1] += 1;
        }
        for v in 0..node_count {
            offsets[v + 1] += offsets[v];
        }
        let mut pairs = vec![(NodeId(0), EdgeId(0)); edges.len() * 2];
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            let s = e.src.index();
            pairs[cursor[s] as usize] = (e.dst, id);
            cursor[s] += 1;
            let d = e.dst.index();
            pairs[cursor[d] as usize] = (e.src, id);
            cursor[d] += 1;
        }
        CsrAdj { offsets, pairs }
    }

    #[inline]
    fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.pairs[self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize]
    }
}

/// Borrowed view of the frozen CSR adjacency: the per-node offset table
/// plus the flat `(neighbor, edge)` pair array, as contiguous slices.
///
/// [`Graph::neighbors`] resolves the lazily-frozen CSR through a
/// `OnceLock` on *every* call — one atomic load and branch per settled
/// node, invisible in isolation but real inside a relaxation loop that
/// settles tens of thousands of nodes per search. Hot kernels grab a
/// `CsrView` once per run ([`Graph::csr_view`]) and stream rows straight
/// out of the two frozen arrays; the view borrows the graph, so the
/// usual aliasing rules guarantee the CSR cannot be invalidated
/// underneath it.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    offsets: &'a [u32],
    pairs: &'a [(NodeId, EdgeId)],
}

impl<'a> CsrView<'a> {
    /// Node `v`'s `(neighbor, edge)` row, in edge insertion order —
    /// identical to [`Graph::neighbors`] without the per-call freeze
    /// check.
    #[inline]
    pub fn row(&self, v: NodeId) -> &'a [(NodeId, EdgeId)] {
        &self.pairs[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }
}

/// One recorded weight overwrite: the edge plus the exact pre- and
/// post-mutation `f64` bit patterns. Bits — not values — so NaN payloads
/// and signed zeros round-trip exactly, and an inverse delta
/// (`new_bits → old_bits`) restores the graph bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightDeltaRec {
    /// The rewritten edge.
    pub edge: EdgeId,
    /// `f64::to_bits` of the weight before the overwrite.
    pub old_bits: u64,
    /// `f64::to_bits` of the weight after the overwrite.
    pub new_bits: u64,
}

impl WeightDeltaRec {
    /// The record undoing this one (swap old/new bits).
    pub fn inverse(&self) -> WeightDeltaRec {
        WeightDeltaRec {
            edge: self.edge,
            old_bits: self.new_bits,
            new_bits: self.old_bits,
        }
    }
}

/// One entry of the graph's weight-delta ledger: the epoch transition a
/// weight-only mutation performed, plus exactly what it rewrote.
#[derive(Debug, Clone)]
struct DeltaRecord {
    /// Epoch the graph held before the mutation.
    from_epoch: u64,
    /// Epoch the mutation stamped (a *delta* epoch — reached from
    /// `from_epoch` without any structural change).
    to_epoch: u64,
    /// The rewritten edges, in write order.
    touched: Vec<WeightDeltaRec>,
}

/// Upper bound on retained ledger records. The ledger exists so
/// downstream caches can patch across *recent* mutations; a consumer
/// older than the window simply rebuilds (exactly what it did before the
/// ledger existed), so truncation is a performance knob, never a
/// correctness one.
const MAX_DELTA_RECORDS: usize = 64;

/// Upper bound on the total rewritten-edge records the ledger retains
/// across all its entries — a delta stream touching huge swaths of the
/// graph should cost rebuilds, not unbounded ledger memory.
const MAX_DELTA_EDGES: usize = 1 << 16;

/// The knowledge-based graph `G(V, E, w)`.
///
/// Storage is index-based: nodes and edges live in contiguous arrays, and
/// adjacency is served from a frozen CSR layout ([`CsrAdj`]) that merges
/// in- and out-edges so traversals see the weak (undirected) view. The
/// CSR is built lazily on the first adjacency query after a mutation and
/// cached until the next mutation, so the build-then-search lifecycle
/// pays exactly one `O(|V| + |E|)` freeze. Parallel edges are permitted
/// (the rating matrix never produces them, but path generators may),
/// self-loops are rejected.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    kinds: Vec<NodeKind>,
    labels: Vec<String>,
    edges: Vec<Edge>,
    /// Lazily frozen undirected CSR adjacency (thread-safe: `OnceLock`
    /// lets concurrent readers share one freeze).
    csr: OnceLock<CsrAdj>,
    /// Mutation epoch: bumped to a process-globally-unique value by every
    /// structure- or weight-changing mutation (see [`Graph::epoch`]).
    epoch: u64,
    /// Epoch of the last *structural* mutation (node/edge insertion or
    /// [`Graph::edge_mut`]). Weight-only mutations move [`Graph::epoch`]
    /// but not this, which is what lets downstream distinguish
    /// "patchable" from "rebuild" (see [`Graph::delta_since`]).
    structural_epoch: u64,
    /// The weight-delta ledger: one record per weight-only mutation
    /// since the last structural mutation (bounded; see
    /// [`MAX_DELTA_RECORDS`]). Structural mutations clear it — there is
    /// no patch path across a structure change.
    delta_log: Vec<DeltaRecord>,
}

/// Process-global epoch source. Drawing every mutation stamp from one
/// counter makes equal epochs a sound cache key *across* graphs: two
/// graphs share an epoch only if one is an unmutated clone of the other
/// (or both are freshly constructed and empty), and in both cases their
/// edge/weight content is identical.
fn next_epoch() -> u64 {
    // xlint: allow(sync-facade) — process-global monotone counter; epoch
    // uniqueness is interleaving-insensitive, so the model keeps it std.
    static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            kinds: Vec::with_capacity(nodes),
            labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            csr: OnceLock::new(),
            epoch: 0,
            structural_epoch: 0,
            delta_log: Vec::new(),
        }
    }

    /// The frozen CSR adjacency, building it on first use after a
    /// mutation.
    #[inline]
    fn csr(&self) -> &CsrAdj {
        self.csr
            .get_or_init(|| CsrAdj::build(self.kinds.len(), &self.edges))
    }

    /// Drop the cached CSR after a structural mutation. Also advances the
    /// structural epoch and clears the weight-delta ledger: no delta
    /// chain crosses a structure change.
    #[inline]
    fn invalidate_csr(&mut self) {
        self.csr = OnceLock::new();
        self.epoch = next_epoch();
        self.structural_epoch = self.epoch;
        self.delta_log.clear();
    }

    /// The graph's mutation epoch.
    ///
    /// Every mutation that can change what a search over the graph
    /// observes — adding nodes or edges, rewriting an edge through
    /// [`Graph::edge_mut`], or reweighting through [`Graph::set_weight`]
    /// — stamps the graph with a fresh process-globally-unique epoch.
    /// `(epoch, …)` is therefore a sound key for caches derived from the
    /// graph's structure and weights (e.g. the Eq. 1 cost-model cache):
    /// equal epochs imply identical edge and weight content, even across
    /// `clone()`d graphs. Label edits do not bump the epoch (no derived
    /// cost depends on labels).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Force the CSR freeze now (e.g. before sharing the graph across
    /// search threads, so workers never contend on the first build).
    pub fn freeze(&self) {
        let _ = self.csr();
    }

    /// Add a node of the given kind with an empty label.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.add_labeled_node(kind, String::new())
    }

    /// Add a node with a human-readable label (used by the renderers).
    pub fn add_labeled_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.labels.push(label.into());
        self.invalidate_csr();
        id
    }

    /// Add a directed edge `src → dst`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64, kind: EdgeKind) -> EdgeId {
        assert!(src.index() < self.kinds.len(), "edge source out of range");
        assert!(
            dst.index() < self.kinds.len(),
            "edge destination out of range"
        );
        assert_ne!(
            src, dst,
            "self-loops are not allowed in the knowledge graph"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src,
            dst,
            weight,
            kind,
        });
        self.invalidate_csr();
        id
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Kind of a node.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Human-readable label of a node (may be empty).
    #[inline]
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[n.index()]
    }

    /// Overwrite a node's label.
    pub fn set_label(&mut self, n: NodeId, label: impl Into<String>) {
        self.labels[n.index()] = label.into();
    }

    /// Edge payload by id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Mutable edge payload (used by weight-policy rebuilds in tests).
    ///
    /// Invalidates the cached CSR: the caller may rewrite endpoints, not
    /// just the weight. Weight-only updates should use
    /// [`Graph::set_weight`], which keeps the CSR.
    #[inline]
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut Edge {
        self.invalidate_csr();
        &mut self.edges[e.index()]
    }

    /// Overwrite one edge's weight without touching the adjacency —
    /// the CSR stores no weights, so reweight sweeps (Fig. 16) keep the
    /// frozen layout. Still bumps the mutation epoch (derived cost
    /// tables do depend on weights), but the bump is a **delta epoch**:
    /// the overwrite is recorded in the weight-delta ledger so caches
    /// can patch in O(1) via [`Graph::delta_since`] instead of
    /// rebuilding.
    #[inline]
    pub fn set_weight(&mut self, e: EdgeId, weight: f64) {
        self.apply_delta(&[(e, weight)]);
    }

    /// Apply a batch of weight overwrites as **one** mutation: one new
    /// delta epoch, one ledger record holding the batch's net effect
    /// (later entries win on duplicate edges, like sequential
    /// [`Graph::set_weight`] calls would). Returns the delta epoch
    /// stamped.
    ///
    /// The stored record is **canonical** — one entry per distinct edge
    /// (first old bits, last new bits), bit-no-op rewrites dropped — so
    /// a single-record [`Graph::delta_since`] chain needs no merge pass.
    ///
    /// This is the batched fast path for live update streams: downstream
    /// caches observe a single epoch transition covering the whole batch
    /// and patch all touched entries at once.
    pub fn apply_delta(&mut self, updates: &[(EdgeId, f64)]) -> u64 {
        let from_epoch = self.epoch;
        let mut touched: Vec<WeightDeltaRec> = Vec::with_capacity(updates.len());
        let mut index: FxHashMap<EdgeId, usize> =
            FxHashMap::with_capacity_and_hasher(updates.len(), Default::default());
        for &(e, weight) in updates {
            let slot = &mut self.edges[e.index()].weight;
            let old_bits = slot.to_bits();
            let new_bits = weight.to_bits();
            *slot = weight;
            match index.entry(e) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    touched[*slot.get()].new_bits = new_bits;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(touched.len());
                    touched.push(WeightDeltaRec {
                        edge: e,
                        old_bits,
                        new_bits,
                    });
                }
            }
        }
        touched.retain(|t| t.old_bits != t.new_bits);
        self.epoch = next_epoch();
        self.delta_log.push(DeltaRecord {
            from_epoch,
            to_epoch: self.epoch,
            touched,
        });
        self.trim_delta_log();
        self.epoch
    }

    /// Keep the ledger within its record and edge budgets by dropping
    /// the oldest records (consumers older than the window rebuild).
    fn trim_delta_log(&mut self) {
        let mut drop_front = self.delta_log.len().saturating_sub(MAX_DELTA_RECORDS);
        let mut edges: usize = self.delta_log[drop_front..]
            .iter()
            .map(|r| r.touched.len())
            .sum();
        while edges > MAX_DELTA_EDGES && drop_front < self.delta_log.len() {
            edges -= self.delta_log[drop_front].touched.len();
            drop_front += 1;
        }
        if drop_front > 0 {
            self.delta_log.drain(..drop_front);
        }
    }

    /// Epoch of the last structural mutation. Weight-only mutations
    /// ([`Graph::set_weight`] / [`Graph::apply_delta`]) advance
    /// [`Graph::epoch`] past this value without moving it; equality of
    /// structural epochs is necessary (not sufficient — the ledger is
    /// bounded) for a patch path to exist between two epochs.
    #[inline]
    pub fn structural_epoch(&self) -> u64 {
        self.structural_epoch
    }

    /// The combined weight delta that takes the graph's content at
    /// `epoch` to its current content, if that transition was
    /// **weight-only** and is still covered by the ledger.
    ///
    /// * `Some(vec![])` — `epoch` is current (or every rewrite between
    ///   the epochs was a bit-level no-op): nothing to patch.
    /// * `Some(touched)` — exactly the edges whose weight bits differ,
    ///   each with its bits at `epoch` (`old_bits`) and now
    ///   (`new_bits`): a consumer holding state keyed at `epoch` patches
    ///   those edges and is bit-identical to a rebuild.
    /// * `None` — a structural mutation intervened, `epoch` predates the
    ///   ledger window, or `epoch` was never this graph's: rebuild.
    ///
    /// Cost: O(|records| + |touched|) — proportional to the delta, never
    /// to `|E|`.
    pub fn delta_since(&self, epoch: u64) -> Option<Vec<WeightDeltaRec>> {
        if epoch == self.epoch {
            return Some(Vec::new());
        }
        let start = self.delta_log.iter().position(|r| r.from_epoch == epoch)?;
        // One-record chain — the steady state of a consumer that keeps
        // itself current after every batch: the record's touched list
        // already is the merged delta (records store only bit-changing
        // writes), so skip the hash merge and hand out a copy.
        if start + 1 == self.delta_log.len() {
            let rec = &self.delta_log[start];
            if rec.to_epoch != self.epoch {
                return None;
            }
            return Some(rec.touched.clone());
        }
        // Merge the chain: first-seen old bits, last-seen new bits per
        // edge, dropping edges that round-tripped back to their start.
        let mut expected = epoch;
        let mut merged: FxHashMap<EdgeId, (usize, WeightDeltaRec)> = FxHashMap::default();
        let mut order = 0usize;
        for rec in &self.delta_log[start..] {
            // Records are appended sequentially, so the chain from
            // `start` is contiguous by construction; the check is
            // defensive.
            if rec.from_epoch != expected {
                return None;
            }
            expected = rec.to_epoch;
            for t in &rec.touched {
                match merged.get_mut(&t.edge) {
                    Some((_, m)) => m.new_bits = t.new_bits,
                    None => {
                        merged.insert(t.edge, (order, *t));
                        order += 1;
                    }
                }
            }
        }
        if expected != self.epoch {
            return None;
        }
        let mut out: Vec<(usize, WeightDeltaRec)> = merged
            .into_values()
            .filter(|(_, t)| t.old_bits != t.new_bits)
            .collect();
        out.sort_unstable_by_key(|&(ord, _)| ord);
        Some(out.into_iter().map(|(_, t)| t).collect())
    }

    /// Weight `w(e)`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight
    }

    /// Undirected neighbors of `n` as `(neighbor, edge)` pairs, in edge
    /// insertion order.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        self.csr().neighbors(n)
    }

    /// Borrow the frozen CSR arrays directly (freezing first if
    /// needed). Search kernels hoist this once per run so their inner
    /// loops stream contiguous rows without re-checking the freeze per
    /// settled node; see [`CsrView`].
    #[inline]
    pub fn csr_view(&self) -> CsrView<'_> {
        let csr = self.csr();
        CsrView {
            offsets: &csr.offsets,
            pairs: &csr.pairs,
        }
    }

    /// Undirected degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        let csr = self.csr();
        (csr.offsets[n.index() + 1] - csr.offsets[n.index()]) as usize
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| **k == kind)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Count of nodes of a given kind.
    pub fn count_kind(&self, kind: NodeKind) -> usize {
        self.kinds.iter().filter(|k| **k == kind).count()
    }

    /// The first edge connecting `a` and `b` in either direction, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        // Scan the smaller adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(probe)
            .iter()
            .find(|(n, _)| *n == target)
            .map(|(_, e)| *e)
    }

    /// Whether any edge connects `a` and `b` (either direction).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.find_edge(a, b).is_some()
    }

    /// Derived positive costs for Steiner search (§IV-A weight transform).
    ///
    /// The paper asks to maximize total weight while minimizing edge count
    /// and suggests negating weights; a positive equivalent is
    /// `cost(e) = (max_w + delta) − w(e)`: each edge pays at least `delta`
    /// (edge-count pressure) and heavier edges are cheaper (weight
    /// pressure). `weights` lets callers pass λ-boosted weights; pass the
    /// graph's own weights via [`Graph::cost_transform_own`].
    pub fn cost_transform(weights: &[f64], delta: f64) -> EdgeCosts {
        assert!(delta > 0.0, "delta must be positive to keep costs positive");
        let max_w = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let max_w = if max_w.is_finite() { max_w } else { 0.0 };
        EdgeCosts(weights.iter().map(|w| (max_w + delta) - w).collect())
    }

    /// [`Graph::cost_transform`] applied to the graph's stored weights.
    pub fn cost_transform_own(&self, delta: f64) -> EdgeCosts {
        let weights: Vec<f64> = self.edges.iter().map(|e| e.weight).collect();
        Self::cost_transform(&weights, delta)
    }
}

/// Convenience builder used by dataset generators and tests.
///
/// Collects nodes and edges and validates once at [`GraphBuilder::build`],
/// giving clearer errors for malformed synthetic corpora than panicking
/// mid-insert.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the underlying graph.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            graph: Graph::with_capacity(nodes, edges),
        }
    }

    /// Add `n` nodes of `kind` labelled `prefix0..prefixN`, returning their ids.
    pub fn add_population(&mut self, kind: NodeKind, n: usize, prefix: &str) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.graph.add_labeled_node(kind, format!("{prefix}{i}")))
            .collect()
    }

    /// Forwarders.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.graph.add_node(kind)
    }

    /// Add a labelled node.
    pub fn add_labeled_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        self.graph.add_labeled_node(kind, label)
    }

    /// Add a directed weighted edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64, kind: EdgeKind) -> EdgeId {
        self.graph.add_edge(src, dst, weight, kind)
    }

    /// Finalize. Verifies edge-kind/endpoint-kind coherence:
    /// interactions must run user→item, attributes must end at an entity.
    pub fn build(self) -> Graph {
        for e in &self.graph.edges {
            match e.kind {
                EdgeKind::Interaction => {
                    debug_assert_eq!(self.graph.kind(e.src), NodeKind::User);
                    debug_assert_eq!(self.graph.kind(e.dst), NodeKind::Item);
                }
                EdgeKind::Attribute => {
                    debug_assert_eq!(self.graph.kind(e.dst), NodeKind::Entity);
                }
            }
        }
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let u = g.add_labeled_node(NodeKind::User, "u0");
        let i1 = g.add_labeled_node(NodeKind::Item, "i1");
        let i2 = g.add_labeled_node(NodeKind::Item, "i2");
        let a = g.add_labeled_node(NodeKind::Entity, "genre");
        g.add_edge(u, i1, 5.0, EdgeKind::Interaction);
        g.add_edge(u, i2, 3.0, EdgeKind::Interaction);
        g.add_edge(i1, a, 0.0, EdgeKind::Attribute);
        g.add_edge(i2, a, 0.0, EdgeKind::Attribute);
        (g, vec![u, i1, i2, a])
    }

    #[test]
    fn counts_and_kinds() {
        let (g, ids) = tiny();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.kind(ids[0]), NodeKind::User);
        assert_eq!(g.count_kind(NodeKind::Item), 2);
        assert_eq!(g.nodes_of_kind(NodeKind::Entity).count(), 1);
        assert_eq!(g.label(ids[3]), "genre");
    }

    #[test]
    fn adjacency_is_undirected() {
        let (g, ids) = tiny();
        let (u, i1, _i2, a) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(g.degree(u), 2);
        assert_eq!(g.degree(a), 2);
        // i1 sees both its in-edge from u and out-edge to a.
        let neigh: Vec<NodeId> = g.neighbors(i1).iter().map(|(n, _)| *n).collect();
        assert!(neigh.contains(&u));
        assert!(neigh.contains(&a));
    }

    #[test]
    fn edge_lookup_and_other() {
        let (g, ids) = tiny();
        let (u, i1) = (ids[0], ids[1]);
        let e = g
            .find_edge(i1, u)
            .expect("edge exists regardless of direction");
        assert_eq!(g.edge(e).other(u), i1);
        assert_eq!(g.edge(e).other(i1), u);
        assert!(g.edge(e).touches(u));
        assert!(g.has_edge(u, i1));
        assert!(!g.has_edge(u, ids[3]));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        let u = g.add_node(NodeKind::User);
        g.add_edge(u, u, 1.0, EdgeKind::Interaction);
    }

    #[test]
    fn cost_transform_orders_inversely() {
        let (g, _) = tiny();
        let costs = g.cost_transform_own(1.0);
        // Heaviest edge (w=5) must be cheapest; zero-weight edges most
        // expensive; all strictly positive.
        assert!(costs.get(EdgeId(0)) < costs.get(EdgeId(1)));
        assert!(costs.get(EdgeId(1)) < costs.get(EdgeId(2)));
        assert!((costs.get(EdgeId(2)) - costs.get(EdgeId(3))).abs() < 1e-12);
        assert!(costs.0.iter().all(|c| *c > 0.0));
        // Exact values: max_w + delta = 6.
        assert!((costs.get(EdgeId(0)) - 1.0).abs() < 1e-12);
        assert!((costs.get(EdgeId(3)) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cost_transform_empty_graph() {
        let costs = Graph::cost_transform(&[], 1.0);
        assert!(costs.is_empty());
        assert_eq!(costs.len(), 0);
    }

    #[test]
    fn uniform_costs() {
        let (g, _) = tiny();
        let costs = EdgeCosts::uniform(&g, 1.0);
        assert_eq!(costs.len(), 4);
        assert!(costs.0.iter().all(|c| (*c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn builder_populations() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let users = b.add_population(NodeKind::User, 3, "u");
        let items = b.add_population(NodeKind::Item, 2, "i");
        b.add_edge(users[0], items[0], 4.0, EdgeKind::Interaction);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.label(users[2]), "u2");
        assert_eq!(g.label(items[1]), "i1");
    }

    #[test]
    fn csr_rebuilds_after_mutation() {
        let (mut g, ids) = tiny();
        // Freeze, then mutate: the CSR must be invalidated and rebuilt.
        assert_eq!(g.degree(ids[0]), 2);
        let i3 = g.add_labeled_node(NodeKind::Item, "i3");
        g.add_edge(ids[0], i3, 1.0, EdgeKind::Interaction);
        assert_eq!(g.degree(ids[0]), 3);
        assert_eq!(g.degree(i3), 1);
        let neigh: Vec<NodeId> = g.neighbors(ids[0]).iter().map(|(n, _)| *n).collect();
        assert_eq!(neigh, vec![ids[1], ids[2], i3], "insertion order preserved");
        // freeze() is idempotent and cheap to repeat.
        g.freeze();
        g.freeze();
        assert_eq!(g.degree(i3), 1);
    }

    #[test]
    fn set_weight_keeps_adjacency_valid() {
        let (mut g, ids) = tiny();
        g.freeze();
        g.set_weight(EdgeId(0), 9.5);
        assert_eq!(g.weight(EdgeId(0)), 9.5);
        // Adjacency unchanged and served from the same frozen CSR.
        assert_eq!(g.degree(ids[0]), 2);
        assert_eq!(g.neighbors(ids[0])[0].0, ids[1]);
    }

    #[test]
    fn csr_clone_is_independent() {
        let (g, ids) = tiny();
        g.freeze();
        let mut h = g.clone();
        let extra = h.add_node(NodeKind::Entity);
        h.add_edge(ids[0], extra, 1.0, EdgeKind::Attribute);
        assert_eq!(g.degree(ids[0]), 2);
        assert_eq!(h.degree(ids[0]), 3);
    }

    #[test]
    fn set_label_overwrites() {
        let (mut g, ids) = tiny();
        g.set_label(ids[0], "alice");
        assert_eq!(g.label(ids[0]), "alice");
    }

    #[test]
    fn epoch_tracks_content_mutations() {
        let (mut g, ids) = tiny();
        let e0 = g.epoch();
        // Weight-only mutation: epoch moves, CSR stays frozen.
        g.set_weight(EdgeId(0), 2.5);
        let e1 = g.epoch();
        assert_ne!(e0, e1);
        // Structural mutations move it too.
        let n = g.add_node(NodeKind::Entity);
        let e2 = g.epoch();
        assert_ne!(e1, e2);
        g.add_edge(ids[0], n, 1.0, EdgeKind::Attribute);
        assert_ne!(g.epoch(), e2);
        // Label edits don't: no derived cost depends on labels.
        let before = g.epoch();
        g.set_label(ids[0], "renamed");
        assert_eq!(g.epoch(), before);
    }

    #[test]
    fn delta_ledger_records_weight_only_transitions() {
        let (mut g, _) = tiny();
        let e0 = g.epoch();
        assert_eq!(g.delta_since(e0), Some(vec![]), "current epoch: no delta");
        g.set_weight(EdgeId(0), 9.5);
        let d = g.delta_since(e0).expect("weight-only chain is patchable");
        assert_eq!(
            d,
            vec![WeightDeltaRec {
                edge: EdgeId(0),
                old_bits: 5.0f64.to_bits(),
                new_bits: 9.5f64.to_bits(),
            }]
        );
        // A second overwrite chains: one merged record, old bits from the
        // original content, new bits from the latest.
        g.set_weight(EdgeId(0), 2.0);
        g.set_weight(EdgeId(1), 4.0);
        let d = g.delta_since(e0).expect("chains merge");
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[0],
            WeightDeltaRec {
                edge: EdgeId(0),
                old_bits: 5.0f64.to_bits(),
                new_bits: 2.0f64.to_bits(),
            }
        );
        assert_eq!(d[1].edge, EdgeId(1));
        // Weight-only transitions leave the structural epoch alone.
        let structural = g.structural_epoch();
        g.set_weight(EdgeId(2), 1.0);
        assert_eq!(g.structural_epoch(), structural);
        assert!(g.epoch() > structural);
    }

    #[test]
    fn structural_mutation_breaks_the_delta_chain() {
        let (mut g, ids) = tiny();
        let e0 = g.epoch();
        g.set_weight(EdgeId(0), 9.5);
        let n = g.add_node(NodeKind::Entity);
        g.add_edge(ids[0], n, 1.0, EdgeKind::Attribute);
        assert_eq!(g.delta_since(e0), None, "structure change ⇒ rebuild");
        assert_eq!(g.structural_epoch(), g.epoch());
        // A fresh weight delta after the structural change chains from
        // the new structural epoch.
        let e1 = g.epoch();
        g.set_weight(EdgeId(0), 1.25);
        assert_eq!(g.delta_since(e1).map(|d| d.len()), Some(1));
        // edge_mut may rewrite endpoints: also structural.
        let e2 = g.epoch();
        g.edge_mut(EdgeId(0)).weight = 3.0;
        assert_eq!(g.delta_since(e2), None);
    }

    #[test]
    fn apply_delta_batches_into_one_epoch() {
        let (mut g, _) = tiny();
        let e0 = g.epoch();
        let stamped = g.apply_delta(&[
            (EdgeId(0), 7.0),
            (EdgeId(1), 8.0),
            (EdgeId(0), 6.0), // later write wins, old bits stay original
        ]);
        assert_eq!(stamped, g.epoch());
        assert_eq!(g.weight(EdgeId(0)), 6.0);
        let d = g.delta_since(e0).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[0],
            WeightDeltaRec {
                edge: EdgeId(0),
                old_bits: 5.0f64.to_bits(),
                new_bits: 6.0f64.to_bits(),
            }
        );
        // Bit-level no-op rewrites merge away entirely.
        let e1 = g.epoch();
        g.apply_delta(&[(EdgeId(0), 6.0)]);
        assert_eq!(g.delta_since(e1), Some(vec![]));
        // A round-trip back to the original bits also merges away.
        g.apply_delta(&[(EdgeId(0), 1.5)]);
        g.apply_delta(&[(EdgeId(0), 6.0)]);
        assert_eq!(g.delta_since(e1), Some(vec![]));
    }

    #[test]
    fn delta_preserves_exact_bits_for_nan_and_negative_zero() {
        let (mut g, _) = tiny();
        let e0 = g.epoch();
        let payload_nan = f64::from_bits(f64::NAN.to_bits() ^ 0x5);
        g.apply_delta(&[(EdgeId(0), payload_nan), (EdgeId(1), -0.0)]);
        let d = g.delta_since(e0).unwrap();
        assert_eq!(d[0].new_bits, payload_nan.to_bits(), "NaN payload kept");
        assert_eq!(d[1].new_bits, (-0.0f64).to_bits(), "-0.0 ≠ 0.0 in bits");
        // Undo via the inverse records: graph content restored exactly.
        let undo: Vec<(EdgeId, f64)> = d
            .iter()
            .rev()
            .map(|r| (r.edge, f64::from_bits(r.inverse().new_bits)))
            .collect();
        g.apply_delta(&undo);
        assert_eq!(g.weight(EdgeId(0)).to_bits(), 5.0f64.to_bits());
        assert_eq!(g.weight(EdgeId(1)).to_bits(), 3.0f64.to_bits());
        assert_eq!(g.delta_since(e0), Some(vec![]), "round-trip is a no-op");
    }

    #[test]
    fn ledger_truncation_forces_rebuild_not_corruption() {
        let (mut g, _) = tiny();
        let e0 = g.epoch();
        for i in 0..(super::MAX_DELTA_RECORDS + 4) {
            g.set_weight(EdgeId(0), i as f64 + 0.5);
        }
        assert_eq!(g.delta_since(e0), None, "window exceeded ⇒ rebuild");
        // Recent epochs are still patchable.
        let recent = g.epoch();
        g.set_weight(EdgeId(1), 42.0);
        assert_eq!(g.delta_since(recent).map(|d| d.len()), Some(1));
    }

    #[test]
    fn epoch_unique_across_graphs_but_shared_by_clones() {
        let (g1, _) = tiny();
        let (g2, _) = tiny();
        // Same construction sequence, different graphs: epochs differ
        // (the counter is process-global), so cost caches keyed on the
        // epoch can never serve one graph's table to the other.
        assert_ne!(g1.epoch(), g2.epoch());
        // An unmutated clone has identical content and keeps the epoch;
        // its first mutation forks it off.
        let mut c = g1.clone();
        assert_eq!(c.epoch(), g1.epoch());
        c.set_weight(EdgeId(0), 7.0);
        assert_ne!(c.epoch(), g1.epoch());
    }
}
