//! Property tests for the wire protocol (`xsum::core::wire`):
//!
//! * **canonical round-trips** — decode∘encode is the identity on
//!   bytes for every record kind, including NaN and `−0.0` f64 params
//!   (compared via `to_bits`, since `PartialEq` cannot);
//! * **robust decoding** — truncations at every byte boundary, random
//!   byte flips, wrong versions, and unknown kinds produce typed
//!   [`xsum::core::WireError`]s and never panic; whenever a corrupted
//!   buffer *does* decode, re-encoding reproduces it byte-for-byte
//!   (canonicality survives corruption);
//! * **serving equivalence** — a [`xsum::core::serve_stream`] session
//!   over framed requests (mutation barriers included) answers every
//!   request id with a summary bit-identical to a direct
//!   `SummaryEngine::summarize` over an identically mutated reference
//!   graph;
//! * **live sessions** — over a socket pair, a client that sends its
//!   next request only after reading the previous answer is served
//!   (responses leave when their summary completes, not when another
//!   frame arrives), mutation acks and admission refusals are flushed
//!   through a buffered writer before the client's next send, and a
//!   writer that fails mid-run ends `serve_stream` with
//!   `WireError::Io` instead of a hang.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;

use xsum::core::wire::{
    decode_frame, encode_frame, read_frame, serve_stream, write_frame, MutationRequest,
    MutationResponse, ServeReport, SummaryRequest, SummaryResponse, WireError, WireFrame,
    WireMutation, WireSummary, WIRE_VERSION,
};
use xsum::core::{
    pcst_summary, steiner_summary, AdmissionConfig, AdmissionQueue, BatchMethod, PcstConfig,
    PcstScope, Scenario, SteinerConfig, Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind};

/// The f64 population the protocol must carry bit-exactly: the
/// interesting IEEE corners alongside ordinary magnitudes.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0usize..7, -1000i32..1000).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE,
        _ => v as f64 * 0.125,
    })
}

fn arb_method() -> impl Strategy<Value = BatchMethod> {
    (
        0usize..4,
        arb_f64(),
        arb_f64(),
        any::<bool>(),
        0usize..3,
        0usize..5,
        any::<bool>(),
    )
        .prop_map(|(kind, a, b, use_edge_weights, scope_sel, hops, prune)| {
            let st = SteinerConfig {
                lambda: a,
                delta: b,
            };
            let pcst = PcstConfig {
                terminal_prize: a,
                nonterminal_prize: b,
                use_edge_weights,
                scope: match scope_sel {
                    0 => PcstScope::UnionOfPaths,
                    1 => PcstScope::ExpandedUnion(hops),
                    _ => PcstScope::FullGraph,
                },
                prune,
            };
            match kind {
                0 => BatchMethod::Steiner(st),
                1 => BatchMethod::SteinerFast(st),
                2 => BatchMethod::Pcst(pcst),
                _ => BatchMethod::GwPcst(pcst),
            }
        })
}

/// A structurally valid graph-free input: loose paths with optional
/// (hallucinated) hops, arbitrary ids.
fn arb_input() -> impl Strategy<Value = SummaryInput> {
    let path = (
        proptest::collection::vec(0u32..500, 1..6),
        proptest::collection::vec((any::<bool>(), 0u32..500), 5),
    )
        .prop_map(|(nodes, hops)| {
            let hops: Vec<Option<EdgeId>> = hops
                .into_iter()
                .take(nodes.len() - 1)
                .map(|(known, h)| known.then_some(EdgeId(h)))
                .collect();
            let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
            LoosePath::from_parts(nodes, hops).expect("lengths match by construction")
        });
    (
        0usize..4,
        proptest::collection::vec(0u32..500, 1..6),
        proptest::collection::vec(path, 0..5),
    )
        .prop_map(|(scenario_sel, anchors, paths)| {
            let anchors: Vec<NodeId> = anchors.into_iter().map(NodeId).collect();
            match scenario_sel {
                0 => SummaryInput::user_centric(anchors[0], paths),
                1 => SummaryInput::item_centric(anchors[0], paths),
                2 => SummaryInput::user_group(&anchors, paths),
                _ => SummaryInput::item_group(&anchors, paths),
            }
        })
}

fn arb_frame() -> impl Strategy<Value = WireFrame> {
    (
        0usize..4,
        any::<u64>(),
        arb_method(),
        arb_input(),
        0u32..1000,
        arb_f64(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(kind, id, method, input, edge, weight, ok, msg_sel)| match kind {
                0 => WireFrame::SummaryRequest(SummaryRequest { id, method, input }),
                1 => WireFrame::MutationRequest(MutationRequest {
                    id,
                    mutation: WireMutation::SetWeight {
                        edge: EdgeId(edge),
                        weight,
                    },
                }),
                2 => WireFrame::SummaryResponse(SummaryResponse {
                    id,
                    result: if ok {
                        Ok(WireSummary {
                            method: "ST".to_string(),
                            scenario: Scenario::UserCentric,
                            nodes: vec![NodeId(1), NodeId(2)],
                            edges: vec![EdgeId(0)],
                            terminals: vec![NodeId(1)],
                        })
                    } else {
                        Err(format!("engine error #{msg_sel}"))
                    },
                }),
                _ => WireFrame::MutationResponse(MutationResponse {
                    id,
                    result: if ok {
                        Ok(())
                    } else {
                        Err(format!("barrier error #{msg_sel}"))
                    },
                }),
            },
        )
}

/// The chaos graph of `prop_admission`, in miniature: enough structure
/// that every method serves every input.
fn tiny_kg() -> (Graph, Vec<SummaryInput>) {
    let mut g = Graph::new();
    let u0 = g.add_node(NodeKind::User);
    let u1 = g.add_node(NodeKind::User);
    let items: Vec<NodeId> = (0..4).map(|_| g.add_node(NodeKind::Item)).collect();
    let a = g.add_node(NodeKind::Entity);
    for (i, &item) in items.iter().enumerate() {
        g.add_edge(u0, item, 1.0 + i as f64, EdgeKind::Interaction);
        g.add_edge(item, a, 0.0, EdgeKind::Attribute);
    }
    g.add_edge(u1, items[0], 4.0, EdgeKind::Interaction);
    let p0 = LoosePath::ground(&g, vec![u0, items[0], a, items[1]]);
    let p1 = LoosePath::ground(&g, vec![u0, items[2], a, items[3]]);
    let alt = LoosePath::ground(&g, vec![u1, items[0], a, items[2]]);
    let inputs = vec![
        SummaryInput::user_centric(u0, vec![p0.clone(), p1.clone()]),
        SummaryInput::user_centric(u1, vec![alt.clone()]),
        SummaryInput::user_group(&[u0, u1], vec![p0, p1, alt]),
    ];
    (g, inputs)
}

fn assert_wire_matches(want: &Summary, got: &WireSummary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method.as_str());
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.nodes.clone());
    prop_assert_eq!(want.subgraph.sorted_edges(), got.edges.clone());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_round_trip_to_identical_bytes(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let (decoded, consumed) = decode_frame(&bytes)
            .map_err(|e| TestCaseError::fail(format!("well-formed frame decodes: {e}")))?;
        prop_assert_eq!(consumed, bytes.len());
        // Byte identity subsumes every field — including NaN configs
        // `PartialEq` could never compare — because the encoding is
        // canonical.
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    #[test]
    fn f64_params_survive_bit_exact(lambda in arb_f64(), delta in arb_f64(), id in any::<u64>()) {
        let frame = WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(SteinerConfig { lambda, delta }),
            input: SummaryInput::user_centric(NodeId(0), Vec::new()),
        });
        let (decoded, _) = decode_frame(&encode_frame(&frame)).expect("decodes");
        let WireFrame::SummaryRequest(req) = decoded else {
            return Err(TestCaseError::fail("kind preserved"));
        };
        prop_assert_eq!(req.id, id);
        let BatchMethod::Steiner(cfg) = req.method else {
            return Err(TestCaseError::fail("method preserved"));
        };
        prop_assert_eq!(cfg.lambda.to_bits(), lambda.to_bits());
        prop_assert_eq!(cfg.delta.to_bits(), delta.to_bits());
    }

    #[test]
    fn truncations_error_and_never_panic(frame in arb_frame(), cut_sel in 0usize..10_000) {
        let bytes = encode_frame(&frame);
        let cut = cut_sel % bytes.len();
        // Every strict prefix fails typed — the length prefix promises
        // more payload than remains.
        if decode_frame(&bytes[..cut]).is_ok() {
            return Err(TestCaseError::fail("strict prefix must not decode"));
        }
    }

    #[test]
    fn byte_flips_decode_typed_or_canonical(
        frame in arb_frame(),
        pos_sel in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= xor;
        // A flipped byte may still parse (e.g. inside an f64 image) —
        // then canonicality must hold; otherwise the error is typed
        // and the decoder must not panic.
        match decode_frame(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(encode_frame(&decoded), bytes[..consumed].to_vec());
            }
            Err(
                WireError::Truncated
                | WireError::UnsupportedVersion(_)
                | WireError::UnknownKind(_)
                | WireError::TrailingBytes { .. }
                | WireError::Corrupt(_),
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
    }

    #[test]
    fn wrong_version_and_kind_are_typed(frame in arb_frame(), v in 0u8..=255, k in 5u8..=255) {
        let bytes = encode_frame(&frame);
        if v != WIRE_VERSION {
            let mut wrong = bytes.clone();
            wrong[4] = v;
            match decode_frame(&wrong) {
                Err(WireError::UnsupportedVersion(got)) => prop_assert_eq!(got, v),
                other => return Err(TestCaseError::fail(format!(
                    "expected UnsupportedVersion, got {}",
                    describe(&other)
                ))),
            }
        }
        let mut wrong = bytes;
        wrong[5] = k;
        match decode_frame(&wrong) {
            Err(WireError::UnknownKind(got)) => prop_assert_eq!(got, k),
            other => return Err(TestCaseError::fail(format!(
                "expected UnknownKind, got {}",
                describe(&other)
            ))),
        }
    }
}

fn describe(r: &Result<(WireFrame, usize), WireError>) -> String {
    match r {
        Ok((_, consumed)) => format!("Ok(frame, {consumed})"),
        Err(e) => format!("Err({e})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serve_stream_matches_direct_submission(
        method_sels in proptest::collection::vec(0usize..3, 3..9),
        edge_sel in 0usize..1000,
        new_weight in 1u8..=200,
    ) {
        let (mut g, inputs) = tiny_kg();
        g.freeze();
        let methods = [
            BatchMethod::Steiner(SteinerConfig::default()),
            BatchMethod::SteinerFast(SteinerConfig::default()),
            BatchMethod::Pcst(PcstConfig::default()),
        ];
        // Frame a session: a request wave, one mutation barrier, then a
        // second wave over the post-mutation graph.
        let e = EdgeId((edge_sel % g.edge_count()) as u32);
        let w = new_weight as f64 * 0.05;
        let mut stream = Vec::new();
        let mut pre_ids = Vec::new();
        let mut post_ids = Vec::new();
        for (i, &sel) in method_sels.iter().enumerate() {
            let id = i as u64;
            stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method: methods[sel],
                input: inputs[i % inputs.len()].clone(),
            })));
            pre_ids.push((id, sel, i % inputs.len()));
        }
        stream.extend_from_slice(&encode_frame(&WireFrame::MutationRequest(MutationRequest {
            id: 9_000,
            mutation: WireMutation::SetWeight { edge: e, weight: w },
        })));
        for (i, &sel) in method_sels.iter().enumerate() {
            let id = 100 + i as u64;
            stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method: methods[sel],
                input: inputs[i % inputs.len()].clone(),
            })));
            post_ids.push((id, sel, i % inputs.len()));
        }

        let queue = AdmissionQueue::for_engine(
            g.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig { queue_bound: 64, max_batch: 8, linger_tickets: 2 },
        );
        let mut responses = Vec::new();
        let report = serve_stream(&stream[..], &mut responses, &queue)
            .map_err(|e| TestCaseError::fail(format!("clean stream serves: {e}")))?;
        prop_assert_eq!(report.summaries, 2 * method_sels.len() as u64);
        prop_assert_eq!(report.mutations, 1);
        prop_assert_eq!(report.responses, 2 * method_sels.len() as u64 + 1);

        // Decode the response stream into an id → summary map.
        let mut got: HashMap<u64, WireSummary> = HashMap::new();
        let mut mutation_acked = false;
        let mut rest = &responses[..];
        while !rest.is_empty() {
            let (frame, consumed) = decode_frame(rest)
                .map_err(|e| TestCaseError::fail(format!("valid response frame: {e}")))?;
            rest = &rest[consumed..];
            match frame {
                WireFrame::SummaryResponse(resp) => {
                    let summary = resp.result
                        .map_err(|e| TestCaseError::fail(format!("request serves: {e}")))?;
                    prop_assert!(got.insert(resp.id, summary).is_none(), "ids answer once");
                }
                WireFrame::MutationResponse(resp) => {
                    prop_assert_eq!(resp.id, 9_000);
                    prop_assert!(resp.result.is_ok());
                    mutation_acked = true;
                }
                _ => return Err(TestCaseError::fail("request frame on the response stream")),
            }
        }
        prop_assert!(mutation_acked);
        prop_assert_eq!(got.len(), 2 * method_sels.len());

        // Direct reference: same methods, same inputs, identically
        // mutated reference graph.
        let mut direct = SummaryEngine::with_threads(2);
        for &(id, sel, input) in &pre_ids {
            let want = direct.summarize(&g, &inputs[input], methods[sel]);
            assert_wire_matches(&want, &got[&id])?;
        }
        g.set_weight(e, w);
        for &(id, sel, input) in &post_ids {
            let want = direct.summarize(&g, &inputs[input], methods[sel]);
            assert_wire_matches(&want, &got[&id])?;
        }
    }
}

#[test]
fn corrupt_stream_still_answers_admitted_requests() {
    // A truncated tail must not strand the requests decoded before it:
    // serve_stream drains the ticket set before surfacing the error.
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::with_threads(2),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 8,
            linger_tickets: 2,
        },
    );
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let mut stream = encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
        id: 1,
        method,
        input: inputs[0].clone(),
    }));
    stream.extend_from_slice(&[7, 0, 0]); // torn length prefix
    let mut responses = Vec::new();
    let err = serve_stream(&stream[..], &mut responses, &queue)
        .expect_err("torn frame surfaces an error");
    assert!(matches!(err, WireError::Truncated), "typed: {err}");
    let (frame, _) = decode_frame(&responses).expect("the admitted request was answered");
    let WireFrame::SummaryResponse(resp) = frame else {
        panic!("summary response expected");
    };
    assert_eq!(resp.id, 1);
    let mut direct = SummaryEngine::with_threads(2);
    let want = direct.summarize(&g, &inputs[0], method);
    let got = resp.result.expect("serves");
    assert_eq!(want.method, got.method.as_str());
    assert_eq!(want.subgraph.sorted_edges(), got.edges);
    assert_eq!(want.subgraph.sorted_nodes(), got.nodes);
}

/// How long a live-session client waits for one answer. The old
/// serving loop held every answer until the next request frame, so a
/// client that waits first deadlocked; the timeout turns that into a
/// failure instead of a hung test.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// The client end of a live session: send one frame, read one answer.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn ask(&mut self, frame: &WireFrame) -> Result<WireFrame, String> {
        write_frame(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.reader) {
            Ok(Some(answer)) => Ok(answer),
            Ok(None) => Err("server closed before answering".to_string()),
            Err(e) => Err(format!("no answer within {ANSWER_TIMEOUT:?}: {e}")),
        }
    }
}

/// Run `serve_stream` on one end of a socket pair (its writer wrapped
/// in a `BufWriter` when `buffered`) while `client` drives the other
/// end. The client's write half is shut down afterwards whatever it
/// returned, so the server always sees EOF and the session ends.
fn live_session<T>(
    queue: &AdmissionQueue,
    buffered: bool,
    client: impl FnOnce(&mut Client) -> Result<T, String>,
) -> (Result<T, String>, Result<ServeReport, WireError>) {
    let (near, far) = UnixStream::pair().expect("socket pair");
    near.set_read_timeout(Some(ANSWER_TIMEOUT))
        .expect("read timeout");
    let far_w = far.try_clone().expect("clone server end");
    let mut c = Client {
        reader: BufReader::new(near.try_clone().expect("clone client end")),
        writer: near,
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let writer: Box<dyn Write + Send> = if buffered {
                Box::new(BufWriter::new(far_w))
            } else {
                Box::new(far_w)
            };
            serve_stream(BufReader::new(far), writer, queue)
        });
        let got = client(&mut c);
        let _ = c.writer.shutdown(std::net::Shutdown::Write);
        // Read what is left so the server's writes never block.
        while let Ok(Some(_)) = read_frame(&mut c.reader) {}
        (got, server.join().expect("server thread panicked"))
    })
}

fn summary_answer(frame: WireFrame, id: u64) -> Result<WireSummary, String> {
    match frame {
        WireFrame::SummaryResponse(resp) if resp.id == id => resp.result,
        other => Err(format!(
            "expected the summary answer to {id}, got {other:?}"
        )),
    }
}

fn assert_wire_identical(want: &Summary, got: &WireSummary) {
    assert_eq!(want.method, got.method.as_str());
    assert_eq!(want.scenario, got.scenario);
    assert_eq!(want.terminals, got.terminals);
    assert_eq!(want.subgraph.sorted_nodes(), got.nodes);
    assert_eq!(want.subgraph.sorted_edges(), got.edges);
}

fn live_queue(g: &Graph) -> AdmissionQueue {
    AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::with_threads(2),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 8,
            linger_tickets: 1,
        },
    )
}

#[test]
fn ping_pong_client_gets_each_answer_before_its_next_send() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = live_queue(&g);
    let st = SteinerConfig::default();
    let pcst = PcstConfig::default();
    let requests: Vec<(u64, BatchMethod, usize)> = (0..8u64)
        .map(|k| {
            let method = if k % 2 == 0 {
                BatchMethod::Steiner(st)
            } else {
                BatchMethod::Pcst(pcst)
            };
            (k, method, k as usize % inputs.len())
        })
        .collect();
    let (answers, served) = live_session(&queue, false, |c| {
        let mut answers = Vec::new();
        for &(id, method, input) in &requests {
            let answer = c.ask(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method,
                input: inputs[input].clone(),
            }))?;
            answers.push(summary_answer(answer, id)?);
        }
        Ok(answers)
    });
    let answers = answers.expect("every request answered before the next send");
    let report = served.expect("clean session");
    assert_eq!(report.summaries, 8);
    assert_eq!(report.responses, 8);
    for (&(_, method, input), got) in requests.iter().zip(&answers) {
        let want = match method {
            BatchMethod::Steiner(cfg) => steiner_summary(&g, &inputs[input], &cfg),
            BatchMethod::Pcst(cfg) => pcst_summary(&g, &inputs[input], &cfg),
            _ => unreachable!("the session sends ST and PCST only"),
        };
        assert_wire_identical(&want, got);
    }
}

#[test]
fn buffered_writer_flushes_acks_and_refusals_before_the_next_send() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = live_queue(&g);
    let st = SteinerConfig::default();
    let e = EdgeId(0);
    let w = 7.5;
    let summary = |id: u64| {
        WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(st),
            input: inputs[0].clone(),
        })
    };
    let (answers, served) = live_session(&queue, true, |c| {
        let before = summary_answer(c.ask(&summary(1))?, 1)?;
        match c.ask(&WireFrame::MutationRequest(MutationRequest {
            id: 2,
            mutation: WireMutation::SetWeight { edge: e, weight: w },
        }))? {
            WireFrame::MutationResponse(ack) if ack.id == 2 => ack.result?,
            other => return Err(format!("expected the mutation ack, got {other:?}")),
        }
        let after = summary_answer(c.ask(&summary(3))?, 3)?;
        queue.shutdown();
        let refusal = match c.ask(&summary(4))? {
            WireFrame::SummaryResponse(resp) if resp.id == 4 => resp.result,
            other => return Err(format!("expected the refusal, got {other:?}")),
        };
        Ok((before, after, refusal))
    });
    let (before, after, refusal) = answers.expect("every answer flushed before the next send");
    let report = served.expect("clean session");
    assert_eq!(report.summaries, 3);
    assert_eq!(report.mutations, 1);
    assert_eq!(report.responses, 4);
    assert!(refusal.is_err(), "a shut-down queue refuses: {refusal:?}");
    assert_wire_identical(&steiner_summary(&g, &inputs[0], &st), &before);
    let mut mutated = g.clone();
    mutated.set_weight(e, w);
    assert_wire_identical(&steiner_summary(&mutated, &inputs[0], &st), &after);
}

/// A writer that accepts `budget` bytes, then fails every call.
struct FailAfter {
    budget: usize,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "writer failed on purpose",
            ));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn failing_writer_ends_the_run_with_an_io_error() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = Arc::new(live_queue(&g));
    // A mutation first, so a zero budget fails the reader's own write;
    // larger budgets fail the responder mid-stream.
    let mut stream = encode_frame(&WireFrame::MutationRequest(MutationRequest {
        id: 100,
        mutation: WireMutation::SetWeight {
            edge: EdgeId(0),
            weight: 2.0,
        },
    }));
    for id in 0..16u64 {
        stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(SteinerConfig::default()),
            input: inputs[id as usize % inputs.len()].clone(),
        })));
    }
    for budget in [0usize, 1, 40, 200] {
        let (tx, rx) = mpsc::channel();
        let (queue, stream) = (Arc::clone(&queue), stream.clone());
        // Detached, so a hang fails the test instead of wedging it.
        std::thread::spawn(move || {
            let _ = tx.send(serve_stream(&stream[..], FailAfter { budget }, &queue));
        });
        let result = rx
            .recv_timeout(ANSWER_TIMEOUT)
            .unwrap_or_else(|_| panic!("serve_stream hung on a failed write (budget {budget})"));
        match result {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("budget {budget}: expected WireError::Io, got {other:?}"),
        }
    }
}

/// Hands out one frame per `read` call, pausing before each, so
/// requests trickle in while the server's responder is busy or waiting.
struct TrickleReader {
    frames: std::vec::IntoIter<Vec<u8>>,
    current: Vec<u8>,
    pos: usize,
}

impl std::io::Read for TrickleReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.current.len() {
            let Some(next) = self.frames.next() else {
                return Ok(0);
            };
            std::thread::sleep(Duration::from_millis(5));
            self.current = next;
            self.pos = 0;
        }
        let n = buf.len().min(self.current.len() - self.pos);
        buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that takes its time over every write.
struct SlowWriter {
    out: Vec<u8>,
}

impl Write for SlowWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(12));
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn lingering_stream_coalesces_while_the_responder_writes_and_waits() {
    // Every dispatch but the one the end of the stream forces needs
    // `linger` queued requests, so 2 × linger requests dispatch in at
    // most two batches. The responder goes back to waiting on the set
    // while later requests linger there (its slow writes outlast the
    // gaps between requests); a wait that flushed the window would
    // dispatch them in smaller batches.
    let (g, inputs) = tiny_kg();
    g.freeze();
    let linger = 3;
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::with_threads(2),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 8,
            linger_tickets: linger,
        },
    );
    let frames: Vec<Vec<u8>> = (0..2 * linger as u64)
        .map(|id| {
            encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method: BatchMethod::SteinerFast(SteinerConfig::default()),
                input: inputs[id as usize % inputs.len()].clone(),
            }))
        })
        .collect();
    let reader = TrickleReader {
        frames: frames.into_iter(),
        current: Vec::new(),
        pos: 0,
    };
    let mut writer = SlowWriter { out: Vec::new() };
    let report = serve_stream(reader, &mut writer, &queue).expect("clean stream serves");
    assert_eq!(report.responses, 2 * linger as u64);
    let stats = queue.stats();
    assert!(
        stats.batches_dispatched <= 2,
        "the linger window closed early: {} batches",
        stats.batches_dispatched
    );
    assert!(stats.max_coalesced >= linger);
}
