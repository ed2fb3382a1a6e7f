//! The workloads: engine settings, load shape and seeded request
//! generators. The engine only ever sees the generated requests; every
//! input is a pure function of the workload and `--seed`.

use opal_model::{KvScheme, ModelConfig, QuantScheme};
use opal_tensor::rng::TensorRng;

/// Requests each timed phase sends at least, so that a p95 has at least
/// ten samples beyond it.
pub const MIN_REQUESTS: usize = 205;

/// The served model: llama7b-proxy128 (d=128, 4 layers, d_ff=344, vocab 192).
pub fn model_config() -> ModelConfig {
    ModelConfig::llama2_7b().proxy(128, 4, 192)
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed offline batches: short unique prompts, long greedy outputs.
    DecodeBatch,
    /// Closed loop of clients sharing long Zipf-picked document prefixes
    /// over a bounded, MX-OPAL-quantized KV pool.
    RagShared,
}

/// How requests reach the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// `size` requests due together; the next batch is due once the engine
    /// drains.
    Waves { size: usize },
    /// `clients` callers, each sending its next request when its previous
    /// one completes.
    Closed { clients: usize },
}

/// Everything fixed about a workload except its seed.
#[derive(Clone, Debug)]
pub struct Shape {
    pub scheme: QuantScheme,
    pub kv: KvScheme,
    pub max_blocks: usize,
    /// Prompt positions the engine prefills per step.
    pub prefill_chunk: usize,
    pub load: Load,
    /// SLO limit on time to first token: 2.5 times the p50 TTFT of seed
    /// runs, fixed once, so that attainment sits just below 1 and falls
    /// with the first few percent of slowdown.
    pub slo_ttft_ms: f64,
    /// SLO limit on a request's mean inter-token time: 2 times the median
    /// per-request mean gap of the same seed runs.
    pub slo_itl_ms: f64,
    /// Requests decoded alone after each run to check the outputs.
    pub checked: usize,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::DecodeBatch, Kind::RagShared];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DecodeBatch => "decode-batch",
            Kind::RagShared => "rag-shared",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's fixed settings.
    pub fn shape(self) -> Shape {
        match self {
            Kind::DecodeBatch => Shape {
                scheme: QuantScheme::bf16(),
                kv: KvScheme::Exact,
                // A full batch of the longest requests with headroom.
                max_blocks: 640,
                prefill_chunk: 32,
                load: Load::Waves { size: 64 },
                slo_ttft_ms: 2750.0,
                slo_itl_ms: 13.5,
                checked: 8,
            },
            Kind::RagShared => Shape {
                scheme: QuantScheme::mxopal_w4a47().with_log2_softmax(5),
                kv: KvScheme::mxopal(),
                // Every document plus a full batch: with fewer blocks,
                // eviction and preemption made the schedule vary by seed.
                max_blocks: 896,
                // Long prompts: at 32 positions per step about half of all
                // inter-token gaps fell in prefill steps, so the ITL median
                // flipped between the decode and the prefill mode.
                prefill_chunk: 128,
                load: Load::Closed { clients: 16 },
                slo_ttft_ms: 660.0,
                slo_itl_ms: 78.0,
                checked: 8,
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Kind::DecodeBatch => 0xdec0,
            Kind::RagShared => 0x4a6,
        }
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    pub prompt: Vec<u32>,
    pub limit: usize,
}

/// Lengths of the documents a RAG prompt may start with, most popular
/// first. Fixed, so that a seed changes the documents' tokens but not how
/// much prefill the popular ones cost.
const RAG_DOC_LENS: [usize; 6] = [288, 224, 352, 192, 384, 256];
/// Zipf exponent of the document popularity.
const RAG_ZIPF_S: f64 = 1.1;
/// Requests per stratified block (see [`Strata`]).
const STRATA: usize = 8;

/// Stratified uniform draws: every block of [`STRATA`] draws takes one
/// value from each of [`STRATA`] equal slices of `[0, 1)`, in a shuffled
/// order. Each block of requests then has nearly the same mix of lengths
/// (and of document picks) whatever the seed, while the seed still sets the
/// order, the exact values and every token.
struct Strata {
    rng: TensorRng,
    order: Vec<usize>,
}

impl Strata {
    fn new(rng: TensorRng) -> Self {
        Strata { rng, order: Vec::with_capacity(STRATA) }
    }

    fn next(&mut self) -> f64 {
        if self.order.is_empty() {
            self.order.extend(0..STRATA);
            for i in (1..STRATA).rev() {
                let j = self.rng.index(i + 1);
                self.order.swap(i, j);
            }
        }
        let k = self.order.pop().unwrap_or(0);
        (k as f64 + f64::from(self.rng.uniform(0.0, 1.0))) / STRATA as f64
    }

    /// A stratified integer in `lo..=hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        (lo + (self.next() * (hi - lo + 1) as f64) as usize).min(hi)
    }
}

/// An endless, seeded stream of requests for one workload.
pub struct Stream {
    kind: Kind,
    vocab: usize,
    tokens: TensorRng,
    prompt_len: Strata,
    limit: Strata,
    doc: Strata,
    docs: Vec<Vec<u32>>,
    /// Cumulative Zipf weights of `docs`, normalised to end at 1.
    doc_cdf: Vec<f64>,
}

impl Stream {
    /// The request stream of `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let vocab = model_config().vocab;
        let mut root = TensorRng::seed(seed ^ kind.salt());
        let mut doc_rng = root.child(1);
        let docs: Vec<Vec<u32>> = if kind == Kind::RagShared {
            RAG_DOC_LENS.iter().map(|&len| random_tokens(&mut doc_rng, vocab, len)).collect()
        } else {
            Vec::new()
        };
        let weights: Vec<f64> = (1..=docs.len()).map(|k| (k as f64).powf(-RAG_ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let doc_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Stream {
            kind,
            vocab,
            tokens: root.child(2),
            prompt_len: Strata::new(root.child(4)),
            limit: Strata::new(root.child(5)),
            doc: Strata::new(root.child(6)),
            docs,
            doc_cdf,
        }
    }

    /// The documents prompts may start with (empty outside rag-shared).
    pub fn documents(&self) -> &[Vec<u32>] {
        &self.docs
    }

    /// The next request.
    pub fn next_spec(&mut self) -> Spec {
        match self.kind {
            Kind::DecodeBatch => {
                let len = self.prompt_len.int(4, 16);
                let prompt = random_tokens(&mut self.tokens, self.vocab, len);
                Spec { prompt, limit: self.limit.int(64, 128) }
            }
            Kind::RagShared => {
                let u = self.doc.next();
                let doc = self.doc_cdf.iter().position(|&c| u < c).unwrap_or(self.docs.len() - 1);
                let question = self.prompt_len.int(16, 64);
                let mut prompt = self.docs[doc].clone();
                prompt.extend(random_tokens(&mut self.tokens, self.vocab, question));
                Spec { prompt, limit: self.limit.int(4, 16) }
            }
        }
    }
}

fn random_tokens(rng: &mut TensorRng, vocab: usize, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.index(vocab) as u32).collect()
}

/// FNV-1a digest of the first `n` requests a seed generates.
pub fn fingerprint(kind: Kind, seed: u64, n: usize) -> u64 {
    let mut h = Fnv::new();
    h.bytes(kind.name().as_bytes());
    let mut stream = Stream::new(kind, seed);
    for _ in 0..n {
        let spec = stream.next_spec();
        h.u64(spec.limit as u64);
        h.u64(spec.prompt.len() as u64);
        for t in spec.prompt {
            h.u64(u64::from(t));
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fingerprint_other_seed_differs() {
        for kind in Kind::ALL {
            assert_eq!(fingerprint(kind, 7, 64), fingerprint(kind, 7, 64), "{}", kind.name());
            assert_ne!(fingerprint(kind, 7, 64), fingerprint(kind, 8, 64), "{}", kind.name());
        }
    }

    #[test]
    fn requests_stay_in_their_ranges() {
        let vocab = model_config().vocab as u32;
        for kind in Kind::ALL {
            let mut s = Stream::new(kind, 3);
            for _ in 0..500 {
                let spec = s.next_spec();
                assert!(spec.prompt.iter().all(|&t| t < vocab));
                let (p, l) = (spec.prompt.len(), spec.limit);
                match kind {
                    Kind::DecodeBatch => assert!((4..=16).contains(&p) && (64..=128).contains(&l)),
                    Kind::RagShared => {
                        assert!((208..=448).contains(&p) && (4..=16).contains(&l))
                    }
                }
            }
        }
    }
}
