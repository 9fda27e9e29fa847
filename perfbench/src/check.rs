//! Output checks, run outside every timed region: a response must
//! equal, field for field (sorted node and edge ids included), what the
//! sequential free function returns on the graph it was served against.

use std::collections::BTreeMap;

use xsum_core::{
    gw_pcst_summary, pcst_summary, steiner_summary, steiner_summary_fast, BatchMethod,
    SummaryInput, WireSummary,
};
use xsum_graph::Graph;

use crate::trace::MethodKind;

/// What the sequential free function returns for `input` under `method`.
pub fn oracle(g: &Graph, input: &SummaryInput, method: BatchMethod) -> WireSummary {
    let s = match method {
        BatchMethod::Steiner(c) => steiner_summary(g, input, &c),
        BatchMethod::SteinerFast(c) => steiner_summary_fast(g, input, &c),
        BatchMethod::Pcst(c) => pcst_summary(g, input, &c),
        BatchMethod::GwPcst(c) => gw_pcst_summary(g, input, &c),
    };
    WireSummary::from_summary(&s)
}

/// Key of one distinct request: input index and method.
pub type Key = (usize, MethodKind);

/// Oracle outputs for every key in `wanted`, computed on `threads`
/// threads (each sequential free call stays single-threaded).
pub fn oracles(
    g: &Graph,
    inputs: &[SummaryInput],
    wanted: &BTreeMap<Key, BatchMethod>,
    threads: usize,
) -> BTreeMap<Key, WireSummary> {
    let jobs: Vec<(Key, BatchMethod)> = wanted.iter().map(|(k, m)| (*k, *m)).collect();
    let threads = threads.clamp(1, jobs.len().max(1));
    let chunk = jobs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(key, m)| (key, oracle(g, &inputs[key.0], m)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// FNV-1a over every output's key and content, in key order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one output: its key and every field of the summary.
    pub fn add(&mut self, key: Key, s: &WireSummary) {
        self.bytes(&(key.0 as u64).to_le_bytes());
        self.bytes(&[key.1 as u8]);
        self.bytes(s.method.as_bytes());
        self.bytes(format!("{:?}", s.scenario).as_bytes());
        for ids in [&s.terminals, &s.nodes] {
            self.bytes(&[0xff]);
            for n in ids {
                self.bytes(&n.0.to_le_bytes());
            }
        }
        self.bytes(&[0xff]);
        for e in &s.edges {
            self.bytes(&e.0.to_le_bytes());
        }
    }

    /// The digest of one output alone: a 64-bit fingerprint of it.
    pub fn of(key: Key, s: &WireSummary) -> u64 {
        let mut d = Digest::default();
        d.add(key, s);
        d.value()
    }

    pub fn add_u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::st;
    use xsum_core::table1_example;

    #[test]
    fn digest_sees_every_edge() {
        let ex = table1_example();
        let s = oracle(&ex.graph, &ex.input(), st());
        let mut a = Digest::default();
        a.add((0, MethodKind::St), &s);
        let mut t = s.clone();
        t.edges[0].0 ^= 1;
        let mut b = Digest::default();
        b.add((0, MethodKind::St), &t);
        assert_ne!(a.value(), b.value());
    }
}
