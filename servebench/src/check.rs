//! The output check and the `model` layer probe: a request decoded alone,
//! with the same model and KV scheme, must give the engine's token stream.
//! While traced, a timestamping `Recorder` splits each decode step into
//! the ops between its observation sites.

use std::sync::Arc;
use std::time::Instant;

use opal_model::sampling::Sampler;
use opal_model::{Arch, BlockPool, KvScheme, Model, ModelConfig, Recorder, Site};
use opal_tensor::rng::TensorRng;

use crate::trace::Trace;

/// The ops a decode step is split into, in `model.op.<name>_us` order.
pub const OPS: [&str; 6] = ["qkv", "attn", "proj", "fc1", "fc2", "logits"];

/// Span names of the ops (spans need `'static` names).
const OP_SPANS: [&str; 6] =
    ["model.qkv", "model.attn", "model.proj", "model.fc1", "model.fc2", "model.logits"];

/// Host time and analytical MACs of solo decoding, summed over requests.
#[derive(Clone, Debug, Default)]
pub struct SoloTiming {
    pub prefill_s: f64,
    pub prefill_tokens: u64,
    pub decode_s: f64,
    pub decode_tokens: u64,
    /// Seconds per op, summed over every decoded token and layer.
    pub op_s: [f64; 6],
    /// MACs per op (no `logits`: the workload model does not price it).
    pub op_macs: [f64; 6],
}

/// Timestamps every site a decode step reports.
struct SiteClock {
    marks: Vec<(usize, Site, Instant)>,
}

impl Recorder for SiteClock {
    fn record(&mut self, layer: usize, site: Site, _x: &[f32]) {
        self.marks.push((layer, site, Instant::now()));
    }
}

/// Decodes `prompt` greedily for `limit` tokens on a fresh state over a
/// private pool of the engine's block size and KV scheme. With `timing`,
/// the prefill and every decode step are timed (and traced under
/// `parent`); otherwise the plain step runs.
pub fn solo_tokens(
    model: &Model,
    kv: KvScheme,
    block_size: usize,
    prompt: &[u32],
    limit: usize,
    mut timing: Option<(&mut SoloTiming, &mut Trace, usize, u64)>,
) -> Vec<u32> {
    let cfg = model.config();
    let pool = Arc::new(BlockPool::with_scheme(block_size, cfg.d_model, usize::MAX, kv));
    let mut state = model.begin_decode_paged(&pool);
    let mut logits = vec![0.0; cfg.vocab];
    // Greedy never draws from the RNG; the engine passes one all the same.
    let mut rng = TensorRng::seed(0);
    let ts = Instant::now();
    model.prefill_into(&mut state, prompt, &mut logits);
    if let Some((t, tr, parent, req)) = timing.as_mut() {
        let te = Instant::now();
        tr.record("model.prefill", ts, te, Some(*parent), Some(*req));
        t.prefill_s += te.duration_since(ts).as_secs_f64();
        t.prefill_tokens += prompt.len() as u64;
    }
    let mut tokens = Vec::with_capacity(limit);
    let mut clock = SiteClock { marks: Vec::with_capacity(8 * cfg.n_layers) };
    loop {
        let token = Sampler::Greedy.pick(&logits, &mut rng);
        tokens.push(token);
        if tokens.len() == limit {
            return tokens;
        }
        match timing.as_mut() {
            None => model.decode_step_into(&mut state, token, &mut logits),
            Some((t, tr, parent, req)) => {
                clock.marks.clear();
                let context = state.pos() + 1;
                let ts = Instant::now();
                logits = model.decode_step_recorded(&mut state, token, Some(&mut clock));
                let te = Instant::now();
                let span = tr.record("model.decode", ts, te, Some(*parent), Some(*req));
                t.decode_s += te.duration_since(ts).as_secs_f64();
                t.decode_tokens += 1;
                for (op, (a, b)) in op_intervals(&clock.marks, ts, te, cfg.n_layers) {
                    t.op_s[op] += b.duration_since(a).as_secs_f64();
                    tr.record(OP_SPANS[op], a, b, Some(span), Some(*req));
                }
                for (m, macs) in t.op_macs.iter_mut().zip(op_macs(cfg, context)) {
                    *m += macs;
                }
            }
        }
    }
}

/// Splits one decode step into op intervals from its site marks:
/// `qkv` runs from the QKV input to the value vectors, `attn` from there
/// to the projection input, `proj` to the FC1 input, `fc1` to the FC2
/// input and `fc2` to the next layer's QKV input. The last layer's FC2
/// has no closing mark, so it is estimated as the mean of the others and
/// the rest of the step — plus the embedding before the first mark — is
/// `logits`.
fn op_intervals(
    marks: &[(usize, Site, Instant)],
    start: Instant,
    end: Instant,
    layers: usize,
) -> Vec<(usize, (Instant, Instant))> {
    let at =
        |layer: usize, site: Site| marks.iter().find(|m| m.0 == layer && m.1 == site).map(|m| m.2);
    let mut out = Vec::with_capacity(5 * layers + 2);
    let mut fc2_sum = std::time::Duration::ZERO;
    for l in 0..layers {
        let (Some(qi), Some(v), Some(p), Some(f1), Some(f2)) = (
            at(l, Site::QkvInput),
            at(l, Site::Value),
            at(l, Site::ProjInput),
            at(l, Site::Fc1Input),
            at(l, Site::Fc2Input),
        ) else {
            continue;
        };
        if l == 0 {
            out.push((5, (start, qi)));
        }
        out.extend([(0, (qi, v)), (1, (v, p)), (2, (p, f1)), (3, (f1, f2))]);
        match at(l + 1, Site::QkvInput) {
            Some(next) => {
                fc2_sum += next.duration_since(f2);
                out.push((4, (f2, next)));
            }
            None => {
                let est = if l > 0 { fc2_sum / l as u32 } else { std::time::Duration::ZERO };
                let split = (f2 + est).min(end);
                out.push((4, (f2, split)));
                out.push((5, (split, end)));
            }
        }
    }
    out
}

/// MACs of one decode pass at `context` positions, per op and summed over
/// layers — the split behind `TokenWorkload::new`'s total.
pub fn op_macs(cfg: &ModelConfig, context: usize) -> [f64; 6] {
    let (d, ff, s, l) = (cfg.d_model as f64, cfg.d_ff as f64, context as f64, cfg.n_layers as f64);
    let fc1 = match cfg.arch {
        Arch::Llama => 2.0 * d * ff,
        Arch::Opt => d * ff,
    };
    [l * 3.0 * d * d, l * 2.0 * s * d, l * d * d, l * fc1, l * d * ff, 0.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_hw::workload::{DataFormat, TokenWorkload};
    use opal_model::QuantScheme;

    #[test]
    fn op_split_sums_to_the_workload_model() {
        let cfg = crate::workload::model_config();
        for ctx in [1, 17, 300] {
            let total = TokenWorkload::new(&cfg, &DataFormat::bf16(), ctx).macs.total() as f64;
            assert_eq!(op_macs(&cfg, ctx).iter().sum::<f64>(), total);
        }
    }

    #[test]
    fn timed_and_plain_solo_decode_agree_and_cover_the_step() {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab = 192;
        let model = Model::new(cfg, QuantScheme::mxopal_w4a47(), 1).unwrap();
        let prompt: Vec<u32> = (0..20).map(|i| (i * 7 % 192) as u32).collect();
        let plain = solo_tokens(&model, KvScheme::mxopal(), 16, &prompt, 12, None);
        let mut t = SoloTiming::default();
        let mut tr = Trace::new(Instant::now());
        let root = tr.open("model.request", None);
        let timed = solo_tokens(
            &model,
            KvScheme::mxopal(),
            16,
            &prompt,
            12,
            Some((&mut t, &mut tr, root, 0)),
        );
        tr.close(root);
        assert_eq!(plain, timed);
        assert_eq!(t.decode_tokens, 11);
        let ops: f64 = t.op_s.iter().sum();
        assert!(ops <= t.decode_s * 1.0001 && ops >= t.decode_s * 0.5, "{ops} vs {}", t.decode_s);
        assert!(t.op_s.iter().all(|&s| s > 0.0));
    }
}
