//! Wire protocol for streaming summary serving: versioned
//! request/response records in a compact length-prefixed binary
//! framing, plus [`serve_stream`] — the loop that turns any
//! `Read`/`Write` pair into a front-end over an
//! [`AdmissionQueue`](crate::admission::AdmissionQueue).
//!
//! # Framing
//!
//! Every frame is `[len: u32 LE][payload]`, where the payload is
//! `[version: u8][kind: u8][body]` and `len` counts the payload bytes
//! (version byte onward). Integers are little-endian; every `f64`
//! travels as its [`f64::to_bits`] image, so configs round-trip
//! **bit-exact** — NaN params survive, and `−0.0` stays distinct from
//! `0.0` (the same fingerprint discipline as
//! [`CostModelKey`](crate::steiner::CostModelKey) and the admission
//! coalescer). Strings are `u32` length + UTF-8 bytes; vectors are
//! `u32` length + elements; `Option<EdgeId>` is a one-byte tag.
//!
//! | kind | record |
//! |---|---|
//! | 1 | [`SummaryRequest`] |
//! | 2 | [`MutationRequest`] |
//! | 3 | [`SummaryResponse`] |
//! | 4 | [`MutationResponse`] |
//!
//! # Robustness contract
//!
//! Decoding **never panics**: truncated buffers, unknown versions or
//! kinds, trailing bytes, invalid enum tags, and invalid UTF-8 all
//! surface as typed [`WireError`]s (`tests/prop_wire.rs` pins this
//! under random corruption). Encoding is canonical — decode∘encode is
//! the identity on bytes — so byte equality is the round-trip test
//! even for NaN-carrying configs that `PartialEq` could not compare.
//!
//! # Serving
//!
//! [`serve_stream`] runs two halves over one
//! [`TicketSet`](crate::admission::TicketSet) and one writer:
//!
//! * The **reader** (the calling thread) decodes request frames,
//!   submits summaries through the queue and registers the tickets in
//!   the set, tagged by request id (the id is the correlation
//!   handle). It applies mutation barriers in stream order and writes
//!   their acknowledgements, and any admission refusal, itself —
//!   flushed before it reads the next frame.
//! * The **responder** (a scoped thread, [`xsum_graph::join`]) blocks
//!   on [`TicketSet::wait_ready`](crate::admission::TicketSet::wait_ready),
//!   writes every ready [`SummaryResponse`] in **completion order**
//!   each time it wakes, then flushes once. A response leaves as soon
//!   as its summary completes; it does not wait for another request
//!   frame, so a client may send its next request only after reading
//!   the last answer.
//!
//! Frames go out whole under the writer lock, which is never held
//! across a set or queue call. The responder's wait does not flush the
//! admission linger window, so `linger_tickets` batching is the same as
//! with nobody waiting. At EOF or on a decode error the reader closes
//! the set, the responder answers every admitted request, and the run
//! ends; the first write error ends it with [`WireError::Io`]. Results
//! are bit-identical to direct [`AdmissionQueue::submit`] +
//! [`SummaryTicket::wait`](crate::admission::SummaryTicket::wait).

use std::io::{Read, Write};

use xsum_graph::sync::atomic::{AtomicBool, Ordering};
use xsum_graph::sync::{Mutex, PoisonError};
use xsum_graph::{EdgeId, LoosePath, NodeId};

use crate::admission::{AdmissionQueue, CompletedTicket, TicketSet};
use crate::batch::BatchMethod;
use crate::input::{Scenario, SummaryInput};
use crate::pcst::{PcstConfig, PcstScope};
use crate::steiner::SteinerConfig;
use crate::summary::Summary;

/// The wire format version this build encodes and accepts.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload (64 MiB) — a corrupt length
/// prefix must not drive an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Typed decode/IO failures; decoding never panics.
#[derive(Debug)]
pub enum WireError {
    /// The buffer or stream ended mid-frame.
    Truncated,
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The frame's kind byte names no known record.
    UnknownKind(u8),
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes {
        /// How many payload bytes were left over.
        extra: usize,
    },
    /// A field held an invalid value (bad enum tag, bad UTF-8, a
    /// length prefix past [`MAX_FRAME_LEN`], an empty path, ...).
    Corrupt(&'static str),
    /// The underlying reader/writer failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown wire record kind {k}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "wire frame has {extra} trailing bytes")
            }
            WireError::Corrupt(what) => write!(f, "corrupt wire frame: {what}"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One graph mutation a client may request over the wire.
#[derive(Debug, Clone, Copy)]
pub enum WireMutation {
    /// Set one edge's weight (the Eq. 1 inputs drift as ratings
    /// arrive; applied as a coalescing barrier like
    /// [`AdmissionQueue::mutate`]).
    SetWeight {
        /// The edge to reweight.
        edge: EdgeId,
        /// The new weight (bit-exact over the wire).
        weight: f64,
    },
}

/// Request one summary: `id` is the client's correlation handle,
/// echoed verbatim on the matching [`SummaryResponse`].
#[derive(Debug, Clone)]
pub struct SummaryRequest {
    /// Client-chosen correlation id (need not be unique or ordered).
    pub id: u64,
    /// Method and config, bit-exact.
    pub method: BatchMethod,
    /// The summarization problem.
    pub input: SummaryInput,
}

/// Request one graph mutation (a barrier: requests framed before it
/// serve the pre-mutation graph, requests after it the post-mutation
/// graph).
#[derive(Debug, Clone)]
pub struct MutationRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// What to change.
    pub mutation: WireMutation,
}

/// A summary flattened for the wire: deterministic sorted node/edge
/// lists (the [`Subgraph`](xsum_graph::Subgraph) sort order), so equal
/// summaries encode to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSummary {
    /// The serving method's label (`"ST"`, `"ST-fast"`, `"PCST"`,
    /// `"GW-PCST"`).
    pub method: String,
    /// The request's scenario.
    pub scenario: Scenario,
    /// Sorted subgraph nodes.
    pub nodes: Vec<NodeId>,
    /// Sorted subgraph edges.
    pub edges: Vec<EdgeId>,
    /// The terminal set `T`.
    pub terminals: Vec<NodeId>,
}

impl WireSummary {
    /// Flatten an in-memory [`Summary`] for the wire.
    pub fn from_summary(s: &Summary) -> Self {
        WireSummary {
            method: s.method.to_string(),
            scenario: s.scenario,
            nodes: s.subgraph.sorted_nodes(),
            edges: s.subgraph.sorted_edges(),
            terminals: s.terminals.clone(),
        }
    }
}

/// The response to a [`SummaryRequest`], correlated by `id`.
#[derive(Debug, Clone)]
pub struct SummaryResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The summary, or the serving error rendered as a string.
    pub result: Result<WireSummary, String>,
}

/// The response to a [`MutationRequest`], correlated by `id`.
#[derive(Debug, Clone)]
pub struct MutationResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// `Ok` once the barrier applied, else the error as a string.
    pub result: Result<(), String>,
}

/// Any record that can travel in a frame.
#[derive(Debug, Clone)]
pub enum WireFrame {
    /// Kind 1.
    SummaryRequest(SummaryRequest),
    /// Kind 2.
    MutationRequest(MutationRequest),
    /// Kind 3.
    SummaryResponse(SummaryResponse),
    /// Kind 4.
    MutationResponse(MutationResponse),
}

// ---------------------------------------------------------------------
// Encoding (canonical: one byte image per value).

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire collections fit in u32"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn node(&mut self, n: NodeId) {
        self.u32(n.0);
    }
    fn edge(&mut self, e: EdgeId) {
        self.u32(e.0);
    }
    fn nodes(&mut self, ns: &[NodeId]) {
        self.len(ns.len());
        for &n in ns {
            self.node(n);
        }
    }
    fn edges(&mut self, es: &[EdgeId]) {
        self.len(es.len());
        for &e in es {
            self.edge(e);
        }
    }
    fn scenario(&mut self, s: Scenario) {
        self.u8(match s {
            Scenario::UserCentric => 0,
            Scenario::ItemCentric => 1,
            Scenario::UserGroup => 2,
            Scenario::ItemGroup => 3,
        });
    }
    fn steiner_cfg(&mut self, c: &SteinerConfig) {
        // Exhaustive destructuring: a new config field fails to
        // compile here instead of being silently dropped from the wire.
        let SteinerConfig { lambda, delta } = *c;
        self.f64(lambda);
        self.f64(delta);
    }
    fn pcst_cfg(&mut self, c: &PcstConfig) {
        let PcstConfig {
            terminal_prize,
            nonterminal_prize,
            use_edge_weights,
            scope,
            prune,
        } = *c;
        self.f64(terminal_prize);
        self.f64(nonterminal_prize);
        self.bool(use_edge_weights);
        self.bool(prune);
        match scope {
            PcstScope::UnionOfPaths => self.u8(0),
            PcstScope::ExpandedUnion(h) => {
                self.u8(1);
                self.u32(u32::try_from(h).expect("expansion radius fits in u32"));
            }
            PcstScope::FullGraph => self.u8(2),
        }
    }
    fn method(&mut self, m: &BatchMethod) {
        match m {
            BatchMethod::Steiner(c) => {
                self.u8(0);
                self.steiner_cfg(c);
            }
            BatchMethod::SteinerFast(c) => {
                self.u8(1);
                self.steiner_cfg(c);
            }
            BatchMethod::Pcst(c) => {
                self.u8(2);
                self.pcst_cfg(c);
            }
            BatchMethod::GwPcst(c) => {
                self.u8(3);
                self.pcst_cfg(c);
            }
        }
    }
    fn path(&mut self, p: &LoosePath) {
        self.nodes(p.nodes());
        for hop in p.hops() {
            match hop {
                None => self.u8(0),
                Some(e) => {
                    self.u8(1);
                    self.edge(*e);
                }
            }
        }
    }
    fn input(&mut self, i: &SummaryInput) {
        let SummaryInput {
            scenario,
            terminals,
            paths,
            anchor_count,
        } = i;
        self.scenario(*scenario);
        self.nodes(terminals);
        self.len(paths.len());
        for p in paths {
            self.path(p);
        }
        self.u64(*anchor_count as u64);
    }
    fn result_summary(&mut self, r: &Result<WireSummary, String>) {
        match r {
            Ok(s) => {
                self.u8(1);
                self.str(&s.method);
                self.scenario(s.scenario);
                self.nodes(&s.nodes);
                self.edges(&s.edges);
                self.nodes(&s.terminals);
            }
            Err(msg) => {
                self.u8(0);
                self.str(msg);
            }
        }
    }
}

/// Encode one frame (length prefix included).
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u8(WIRE_VERSION);
    match frame {
        WireFrame::SummaryRequest(r) => {
            e.u8(1);
            e.u64(r.id);
            e.method(&r.method);
            e.input(&r.input);
        }
        WireFrame::MutationRequest(r) => {
            e.u8(2);
            e.u64(r.id);
            match r.mutation {
                WireMutation::SetWeight { edge, weight } => {
                    e.u8(0);
                    e.edge(edge);
                    e.f64(weight);
                }
            }
        }
        WireFrame::SummaryResponse(r) => {
            e.u8(3);
            e.u64(r.id);
            e.result_summary(&r.result);
        }
        WireFrame::MutationResponse(r) => {
            e.u8(4);
            e.u64(r.id);
            match &r.result {
                Ok(()) => e.u8(1),
                Err(msg) => {
                    e.u8(0);
                    e.str(msg);
                }
            }
        }
    }
    let payload = e.buf;
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits in u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decoding (typed errors, no panics, bounded allocation).

struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A collection length; each element needs ≥ `min_elem` more bytes,
    /// so a corrupt count fails `Truncated` here instead of driving a
    /// huge allocation downstream.
    fn len(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("invalid UTF-8 string"))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("invalid bool byte")),
        }
    }
    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.u32()?))
    }
    fn edge(&mut self) -> Result<EdgeId, WireError> {
        Ok(EdgeId(self.u32()?))
    }
    fn nodes(&mut self) -> Result<Vec<NodeId>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.node()).collect()
    }
    fn edges(&mut self) -> Result<Vec<EdgeId>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.edge()).collect()
    }
    fn scenario(&mut self) -> Result<Scenario, WireError> {
        match self.u8()? {
            0 => Ok(Scenario::UserCentric),
            1 => Ok(Scenario::ItemCentric),
            2 => Ok(Scenario::UserGroup),
            3 => Ok(Scenario::ItemGroup),
            _ => Err(WireError::Corrupt("invalid scenario tag")),
        }
    }
    fn steiner_cfg(&mut self) -> Result<SteinerConfig, WireError> {
        Ok(SteinerConfig {
            lambda: self.f64()?,
            delta: self.f64()?,
        })
    }
    fn pcst_cfg(&mut self) -> Result<PcstConfig, WireError> {
        let terminal_prize = self.f64()?;
        let nonterminal_prize = self.f64()?;
        let use_edge_weights = self.bool()?;
        let prune = self.bool()?;
        let scope = match self.u8()? {
            0 => PcstScope::UnionOfPaths,
            1 => PcstScope::ExpandedUnion(self.u32()? as usize),
            2 => PcstScope::FullGraph,
            _ => return Err(WireError::Corrupt("invalid PCST scope tag")),
        };
        Ok(PcstConfig {
            terminal_prize,
            nonterminal_prize,
            use_edge_weights,
            scope,
            prune,
        })
    }
    fn method(&mut self) -> Result<BatchMethod, WireError> {
        match self.u8()? {
            0 => Ok(BatchMethod::Steiner(self.steiner_cfg()?)),
            1 => Ok(BatchMethod::SteinerFast(self.steiner_cfg()?)),
            2 => Ok(BatchMethod::Pcst(self.pcst_cfg()?)),
            3 => Ok(BatchMethod::GwPcst(self.pcst_cfg()?)),
            _ => Err(WireError::Corrupt("invalid method tag")),
        }
    }
    fn path(&mut self) -> Result<LoosePath, WireError> {
        let nodes = self.nodes()?;
        if nodes.is_empty() {
            return Err(WireError::Corrupt("empty path"));
        }
        let hops = (0..nodes.len() - 1)
            .map(|_| {
                Ok(match self.u8()? {
                    0 => None,
                    1 => Some(self.edge()?),
                    _ => return Err(WireError::Corrupt("invalid hop tag")),
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        LoosePath::from_parts(nodes, hops).ok_or(WireError::Corrupt("malformed path"))
    }
    fn input(&mut self) -> Result<SummaryInput, WireError> {
        let scenario = self.scenario()?;
        let terminals = self.nodes()?;
        let n_paths = self.len(4)?;
        let paths = (0..n_paths)
            .map(|_| self.path())
            .collect::<Result<Vec<_>, WireError>>()?;
        let anchor_count = usize::try_from(self.u64()?)
            .map_err(|_| WireError::Corrupt("anchor count exceeds usize"))?;
        Ok(SummaryInput {
            scenario,
            terminals,
            paths,
            anchor_count,
        })
    }
    fn result_summary(&mut self) -> Result<Result<WireSummary, String>, WireError> {
        match self.bool()? {
            false => Ok(Err(self.str()?)),
            true => Ok(Ok(WireSummary {
                method: self.str()?,
                scenario: self.scenario()?,
                nodes: self.nodes()?,
                edges: self.edges()?,
                terminals: self.nodes()?,
            })),
        }
    }
    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len(),
            })
        }
    }
}

/// Decode one frame's payload (version byte onward, length prefix
/// already stripped).
fn decode_payload(payload: &[u8]) -> Result<WireFrame, WireError> {
    let mut d = Dec { buf: payload };
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = d.u8()?;
    let frame = match kind {
        1 => {
            let id = d.u64()?;
            let method = d.method()?;
            let input = d.input()?;
            WireFrame::SummaryRequest(SummaryRequest { id, method, input })
        }
        2 => {
            let id = d.u64()?;
            let mutation = match d.u8()? {
                0 => WireMutation::SetWeight {
                    edge: d.edge()?,
                    weight: d.f64()?,
                },
                _ => return Err(WireError::Corrupt("invalid mutation tag")),
            };
            WireFrame::MutationRequest(MutationRequest { id, mutation })
        }
        3 => {
            let id = d.u64()?;
            let result = d.result_summary()?;
            WireFrame::SummaryResponse(SummaryResponse { id, result })
        }
        4 => {
            let id = d.u64()?;
            let result = match d.bool()? {
                true => Ok(()),
                false => Err(d.str()?),
            };
            WireFrame::MutationResponse(MutationResponse { id, result })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish()?;
    Ok(frame)
}

/// Decode one frame from the front of `bytes`; returns the frame and
/// how many bytes it consumed (length prefix included).
pub fn decode_frame(bytes: &[u8]) -> Result<(WireFrame, usize), WireError> {
    let mut d = Dec { buf: bytes };
    let len = d.u32()?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let payload = d.take(len as usize)?;
    Ok((decode_payload(payload)?, 4 + len as usize))
}

/// Fill `buf` from `r`. `Ok(false)` on clean EOF at the first byte;
/// EOF mid-buffer is [`WireError::Truncated`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame from `r`; `Ok(None)` on clean EOF at a frame
/// boundary (EOF mid-frame is [`WireError::Truncated`]).
pub fn read_frame(r: &mut impl Read) -> Result<Option<WireFrame>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_full(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload)? {
        return Err(WireError::Truncated);
    }
    Ok(Some(decode_payload(&payload)?))
}

/// Write one frame to `w` (no flush; callers batch as they like).
pub fn write_frame(w: &mut impl Write, frame: &WireFrame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Counters of one [`serve_stream`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Summary requests decoded and submitted.
    pub summaries: u64,
    /// Mutation barriers decoded and applied (or refused).
    pub mutations: u64,
    /// Response frames written (summary + mutation).
    pub responses: u64,
}

fn completed_response(done: CompletedTicket) -> WireFrame {
    WireFrame::SummaryResponse(SummaryResponse {
        id: done.tag,
        result: done
            .result
            .map(|s| WireSummary::from_summary(&s))
            .map_err(|e| e.to_string()),
    })
}

/// The writer both halves of [`serve_stream`] share.
struct SharedWriter<W> {
    state: Mutex<WriterState<W>>,
    /// Set when the responder exits, however it exits. The reader polls
    /// it at each frame boundary instead of taking the writer lock, so
    /// a responder blocked mid-write can never stall the read side.
    responder_gone: AtomicBool,
}

struct WriterState<W> {
    writer: W,
    /// The first write or flush error; once set, nothing more is
    /// written.
    error: Option<std::io::Error>,
}

impl<W: Write> SharedWriter<W> {
    /// Write `bytes` (whole frames) and flush, under one lock hold so
    /// frames from the two halves never interleave. `false` once any
    /// write has failed, or a writer panicked mid-frame (poisoning the
    /// lock, and perhaps leaving a torn frame behind): the caller
    /// stops.
    fn send(&self, bytes: &[u8]) -> bool {
        let Ok(mut st) = self.state.lock() else {
            return false;
        };
        if st.error.is_some() {
            return false;
        }
        match st.writer.write_all(bytes).and_then(|()| st.writer.flush()) {
            Ok(()) => true,
            Err(e) => {
                st.error = Some(e);
                false
            }
        }
    }

    /// Pairs with the `Release` store in [`ResponderExit`]. The flag
    /// publishes nothing else: the write error, if any, travels under
    /// the writer lock.
    fn responder_gone(&self) -> bool {
        self.responder_gone.load(Ordering::Acquire)
    }
}

/// Marks the responder gone when it returns or unwinds.
struct ResponderExit<'a>(&'a AtomicBool);

impl Drop for ResponderExit<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Closes the set when the reader returns or unwinds, so the responder
/// always finishes and the join in [`serve_stream`] always returns.
struct CloseOnExit<'a>(&'a TicketSet);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The reader half: decode frames, submit summaries into `set`, apply
/// mutations and answer them (and admission refusals) itself. Stops at
/// EOF, at a decode error, at its own failed write, or at the first
/// frame boundary after the responder is gone.
fn read_requests<R: Read, W: Write>(
    reader: &mut R,
    set: &TicketSet,
    out: &SharedWriter<W>,
    queue: &AdmissionQueue,
    report: &mut ServeReport,
) -> Result<(), WireError> {
    while !out.responder_gone() {
        let Some(frame) = read_frame(reader)? else {
            break;
        };
        let response = match frame {
            WireFrame::SummaryRequest(req) => {
                report.summaries += 1;
                match queue.submit(req.input, req.method) {
                    Ok(ticket) => {
                        set.add(req.id, ticket);
                        continue;
                    }
                    // Refused at admission (shut down / poisoned):
                    // answer immediately, preserving correlation.
                    Err(e) => WireFrame::SummaryResponse(SummaryResponse {
                        id: req.id,
                        result: Err(e.to_string()),
                    }),
                }
            }
            WireFrame::MutationRequest(req) => {
                report.mutations += 1;
                let result = match req.mutation {
                    WireMutation::SetWeight { edge, weight } => {
                        queue.mutate(move |g| g.set_weight(edge, weight))
                    }
                };
                WireFrame::MutationResponse(MutationResponse {
                    id: req.id,
                    result: result.map_err(|e| e.to_string()),
                })
            }
            WireFrame::SummaryResponse(_) | WireFrame::MutationResponse(_) => {
                return Err(WireError::Corrupt("response frame on the request stream"));
            }
        };
        if !out.send(&encode_frame(&response)) {
            break;
        }
        report.responses += 1;
    }
    Ok(())
}

/// The responder half: each time [`TicketSet::wait_ready`] wakes it,
/// encode every ready response, then write and flush them in one go.
/// Returns how many responses it wrote.
fn write_responses<W: Write>(set: &TicketSet, out: &SharedWriter<W>) -> u64 {
    let _exit = ResponderExit(&out.responder_gone);
    let mut written = 0;
    let mut bytes = Vec::new();
    while let Some(first) = set.wait_ready() {
        // Encode outside the writer lock, and take no set call inside it.
        bytes.clear();
        let mut frames = 0;
        let mut next = Some(first);
        while let Some(done) = next {
            bytes.extend_from_slice(&encode_frame(&completed_response(done)));
            frames += 1;
            next = set.poll();
        }
        if !out.send(&bytes) {
            break;
        }
        written += frames;
    }
    written
}

/// Serve a framed request stream against `queue`: decode frames from
/// `reader`, submit summaries (tickets multiplexed through a
/// [`TicketSet`] tagged by request id), apply mutations as barriers,
/// and write responses to `writer` as soon as they are ready, in
/// **completion order**.
///
/// Two halves run concurrently over one [`TicketSet`] and one writer
/// mutex:
///
/// * the **reader**, on the calling thread, decodes frames, submits
///   summaries into the set, applies mutation barriers in stream
///   order, and itself writes (and flushes) each mutation
///   acknowledgement and each admission refusal before it reads the
///   next frame;
/// * the **responder**, on a scoped thread ([`xsum_graph::join`]),
///   blocks on [`TicketSet::wait_ready`] and, each time it wakes,
///   writes every ready [`SummaryResponse`] and flushes once.
///
/// A summary's response therefore leaves when its summary completes,
/// not when the next request frame arrives, so a client may wait for
/// an answer before it sends its next request. Waiting on the set does
/// not flush the admission linger window, so
/// [`AdmissionConfig::linger_tickets`](crate::admission::AdmissionConfig::linger_tickets)
/// batching is unchanged: with a window wider than one ticket, a lone
/// request waits for company (or for the end of the stream) before it
/// dispatches, so a client that waits for each answer needs
/// `linger_tickets = 1`, the default. Frames are written whole under
/// the writer lock, which is never held across a set or queue call.
///
/// Returns after a clean EOF once every admitted ticket's response is
/// written. On a decode error the reader closes the set all the same,
/// so the responder still answers every admitted request before the
/// error is returned — a corrupt frame never strands an admitted
/// request without an answer. The first write (or flush) error ends
/// the run with [`WireError::Io`]: nothing more is written, the reader
/// stops at its next frame boundary, and responses still in flight
/// are dropped unanswered.
///
/// # Panics
/// A panic on either half is resumed on the calling thread after the
/// other half has finished.
pub fn serve_stream<R: Read, W: Write + Send>(
    mut reader: R,
    writer: W,
    queue: &AdmissionQueue,
) -> Result<ServeReport, WireError> {
    let set = TicketSet::new();
    let out = SharedWriter {
        state: Mutex::new(WriterState {
            writer,
            error: None,
        }),
        responder_gone: AtomicBool::new(false),
    };
    let mut report = ServeReport::default();
    let (read, responses) = xsum_graph::join(
        || {
            let _close = CloseOnExit(&set);
            read_requests(&mut reader, &set, &out, queue, &mut report)
        },
        || write_responses(&set, &out),
    );
    report.responses += responses;
    let write_error = out
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .error
        .take();
    match write_error {
        Some(e) => Err(WireError::Io(e)),
        None => read.map(|()| report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::SummaryEngine;
    use crate::render::table1_example;

    fn st_request(id: u64) -> WireFrame {
        let ex = table1_example();
        WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(SteinerConfig::default()),
            input: ex.input(),
        })
    }

    #[test]
    fn frames_round_trip_to_identical_bytes() {
        let ex = table1_example();
        let frames = vec![
            st_request(7),
            WireFrame::MutationRequest(MutationRequest {
                id: 8,
                mutation: WireMutation::SetWeight {
                    edge: EdgeId(3),
                    weight: -0.0,
                },
            }),
            WireFrame::SummaryResponse(SummaryResponse {
                id: 9,
                result: Ok(WireSummary::from_summary(
                    &BatchMethod::Steiner(SteinerConfig::default()).run(&ex.graph, &ex.input()),
                )),
            }),
            WireFrame::SummaryResponse(SummaryResponse {
                id: 10,
                result: Err("engine failure".to_string()),
            }),
            WireFrame::MutationResponse(MutationResponse {
                id: 11,
                result: Ok(()),
            }),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("well-formed frame decodes");
            assert_eq!(consumed, bytes.len());
            assert_eq!(encode_frame(&decoded), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn nan_and_negative_zero_configs_survive_bit_exact() {
        let frame = WireFrame::SummaryRequest(SummaryRequest {
            id: 1,
            method: BatchMethod::Steiner(SteinerConfig {
                lambda: f64::NAN,
                delta: -0.0,
            }),
            input: table1_example().input(),
        });
        let bytes = encode_frame(&frame);
        let (decoded, _) = decode_frame(&bytes).expect("decodes");
        let WireFrame::SummaryRequest(req) = &decoded else {
            panic!("kind preserved");
        };
        let BatchMethod::Steiner(cfg) = req.method else {
            panic!("method preserved");
        };
        assert_eq!(cfg.lambda.to_bits(), f64::NAN.to_bits());
        assert_eq!(cfg.delta.to_bits(), (-0.0f64).to_bits());
        assert_ne!(cfg.delta.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn corrupt_frames_error_without_panicking() {
        let bytes = encode_frame(&st_request(1));
        // Truncations at every prefix length.
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err());
        }
        // Wrong version.
        let mut wrong_version = bytes.clone();
        wrong_version[4] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(WireError::UnsupportedVersion(_))
        ));
        // Unknown kind.
        let mut wrong_kind = bytes.clone();
        wrong_kind[5] = 200;
        assert!(matches!(
            decode_frame(&wrong_kind),
            Err(WireError::UnknownKind(200))
        ));
        // Oversized length prefix: bounded error, no huge allocation.
        let mut huge = bytes;
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn serve_stream_answers_in_completion_order_with_correlation() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        let mut request_bytes = Vec::new();
        for id in [10u64, 11, 12] {
            request_bytes.extend_from_slice(&encode_frame(&st_request(id)));
        }
        let mut response_bytes = Vec::new();
        let report = serve_stream(&request_bytes[..], &mut response_bytes, &queue)
            .expect("clean stream serves");
        assert_eq!(report.summaries, 3);
        assert_eq!(report.responses, 3);
        let want = WireSummary::from_summary(
            &BatchMethod::Steiner(SteinerConfig::default()).run(&ex.graph, &ex.input()),
        );
        let mut rest = &response_bytes[..];
        let mut ids = Vec::new();
        while !rest.is_empty() {
            let (frame, consumed) = decode_frame(rest).expect("valid response frame");
            rest = &rest[consumed..];
            let WireFrame::SummaryResponse(resp) = frame else {
                panic!("summary responses only");
            };
            assert_eq!(resp.result.expect("serves"), want);
            ids.push(resp.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![10, 11, 12]);
    }
}
