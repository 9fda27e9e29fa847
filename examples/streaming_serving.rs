//! Streaming serving over the wire protocol: framed requests in,
//! completion-ordered framed responses out, one admission queue in
//! the middle.
//!
//! A remote front-end does not hold `SummaryInput`s — it holds bytes.
//! `xsum::core::wire` gives those bytes a shape (versioned,
//! length-prefixed frames with bit-exact f64 configs) and
//! `serve_stream` runs the whole serving loop: decode each request,
//! submit it through the `AdmissionQueue`, apply mutation frames as
//! barriers, and write responses back in completion order with the
//! client's request id attached. This demo plays the client and the
//! server in one process: first over in-memory buffers, then over a
//! live socket pair, where the client waits for its answer before it
//! sends anything else — each response leaves the server as soon as
//! its summary completes.
//!
//! ```text
//! cargo run --release --example streaming_serving
//! ```

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use xsum::core::wire::{
    decode_frame, encode_frame, read_frame, serve_stream, write_frame, MutationRequest,
    SummaryRequest, WireFrame, WireMutation,
};
use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, PcstConfig, SteinerConfig, SummaryEngine,
    SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::graph::EdgeId;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // ---- client side: frame a session into a byte stream ----------
    let methods = [
        BatchMethod::Steiner(SteinerConfig::default()),
        BatchMethod::SteinerFast(SteinerConfig::default()),
        BatchMethod::Pcst(PcstConfig::default()),
    ];
    let mut stream: Vec<u8> = Vec::new();
    let mut framed = 0u64;
    let mut first_input = None;
    for u in 0..24.min(ds.kg.n_users()) {
        let out = pgpr.recommend(u, 10);
        let paths = out.paths(out.len());
        if paths.is_empty() {
            continue;
        }
        let input = SummaryInput::user_centric(ds.kg.user_node(u), paths);
        first_input.get_or_insert_with(|| input.clone());
        stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
            id: framed,
            method: methods[u % methods.len()],
            input,
        })));
        framed += 1;
        // Every eighth request, a reweighting barrier: requests framed
        // before it are served on the old weights, requests after on
        // the new ones.
        if framed.is_multiple_of(8) {
            stream.extend_from_slice(&encode_frame(&WireFrame::MutationRequest(
                MutationRequest {
                    id: 10_000 + framed,
                    mutation: WireMutation::SetWeight {
                        edge: EdgeId((framed as u32 * 7) % g.edge_count() as u32),
                        weight: 0.5 + (framed as f64) * 0.01,
                    },
                },
            )));
        }
    }
    println!(
        "client framed {framed} summary requests ({} bytes on the wire)",
        stream.len()
    );

    // ---- server side: one call serves the whole session ------------
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 256,
            max_batch: 32,
            linger_tickets: 8,
        },
    );
    let mut responses: Vec<u8> = Vec::new();
    let t0 = Instant::now();
    let report = serve_stream(&stream[..], &mut responses, &queue).expect("clean session");
    println!(
        "served {} summaries + {} mutation barriers in {:.1} ms ({} response bytes)",
        report.summaries,
        report.mutations,
        t0.elapsed().as_secs_f64() * 1e3,
        responses.len()
    );

    // ---- client side again: decode completion-ordered responses ----
    let mut rest = &responses[..];
    let mut shown = 0;
    while !rest.is_empty() {
        let (frame, consumed) = decode_frame(rest).expect("well-formed response");
        rest = &rest[consumed..];
        match frame {
            WireFrame::SummaryResponse(resp) => {
                let s = resp.result.expect("request served");
                if shown < 5 {
                    println!(
                        "  id {:>3} [{}] {:?}: {} nodes / {} edges over {} terminals",
                        resp.id,
                        s.method,
                        s.scenario,
                        s.nodes.len(),
                        s.edges.len(),
                        s.terminals.len()
                    );
                }
                shown += 1;
            }
            WireFrame::MutationResponse(resp) => {
                println!(
                    "  id {:>3} barrier applied: {}",
                    resp.id,
                    resp.result.is_ok()
                );
            }
            _ => unreachable!("the server writes only responses"),
        }
    }
    println!("decoded {shown} summary responses (first 5 shown)");

    // ---- live socket: one request, then wait for its answer --------
    // A lingering coalescer holds a lone request until `linger_tickets`
    // requests are queued, so a client that waits for each answer is
    // served by a queue that dispatches every request at once.
    let Some(input) = first_input else {
        return;
    };
    let live_queue =
        AdmissionQueue::for_engine(g.clone(), SummaryEngine::new(), AdmissionConfig::default());
    let (client, server) = UnixStream::pair().expect("socket pair");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let server_w = server.try_clone().expect("clone server end");
    let mut client_r = BufReader::new(client.try_clone().expect("clone client end"));
    let mut client_w = client;
    let (answer, report) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| serve_stream(BufReader::new(server), server_w, &live_queue));
        let t0 = Instant::now();
        let request = WireFrame::SummaryRequest(SummaryRequest {
            id: 7,
            method: methods[0],
            input,
        });
        // The socket stays open: the answer must come without another
        // request frame behind it.
        let answer = write_frame(&mut client_w, &request)
            .and_then(|()| read_frame(&mut client_r))
            .map(|frame| (frame, t0.elapsed()));
        // Half-close whatever happened, so the server sees EOF and ends.
        let _ = client_w.shutdown(std::net::Shutdown::Write);
        (answer, serving.join().expect("server thread"))
    });
    let (frame, waited) = answer.expect("answer arrives while the socket is still open");
    let Some(WireFrame::SummaryResponse(resp)) = frame else {
        unreachable!("the server answers a summary request with a summary response");
    };
    let s = resp.result.expect("request served");
    println!(
        "live socket: id {} answered in {:.1} ms ({} nodes / {} edges) \
         before the client sent anything else",
        resp.id,
        waited.as_secs_f64() * 1e3,
        s.nodes.len(),
        s.edges.len()
    );
    assert_eq!(report.expect("clean session").responses, 1);
}
