//! Kernel probes for the `tensor`, `quant`, `softmax` and `kv` layers:
//! each public kernel is called at the served model's shapes and timed as
//! the median of several batches. Bytes moved are computed from tensor
//! sizes, not measured.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use opal_model::{BlockPool, KvScheme, ModelConfig, QuantScheme};
use opal_numerics::Bf16;
use opal_quant::{EncodeScratch, MxOpalQuantizer};
use opal_softmax::Log2Softmax;
use opal_tensor::rng::TensorRng;
use opal_tensor::{ops, Matrix};

use crate::stats::median;
use crate::trace::Trace;

/// One probe result: `(metric name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

const BATCHES: usize = 7;
const BATCH_TIME: Duration = Duration::from_millis(4);

/// Median nanoseconds per call of `f`, traced as one span named `name`.
fn ns_per_call(tr: &mut Trace, parent: usize, name: &'static str, mut f: impl FnMut()) -> f64 {
    let ts = Instant::now();
    // Calibrate the batch size to roughly `BATCH_TIME`.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= BATCH_TIME / 4 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    tr.record(name, ts, Instant::now(), Some(parent), None);
    median(&per)
}

fn random_row(rng: &mut TensorRng, n: usize) -> Vec<f32> {
    // A few large channels, as the activations MX-OPAL preserves.
    (0..n).map(|i| rng.normal(0.0, 1.0) * if i % 37 == 5 { 30.0 } else { 1.0 }).collect()
}

/// Runs every kernel probe. `chunk` is the prefill chunk, `context` the
/// workload's median decode context, `kv` its KV page scheme.
pub fn kernels(
    cfg: &ModelConfig,
    chunk: usize,
    context: usize,
    kv: KvScheme,
    block_size: usize,
    tr: &mut Trace,
    parent: usize,
) -> Vec<Metric> {
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    let mut rng = TensorRng::seed(11);
    let mut out = Vec::new();

    // tensor: projections at decode (matvec) and prefill (chunked GEMM).
    let w_dd = rng.normal_matrix(d, d, 0.0, 0.1);
    let w_ffd = rng.normal_matrix(ff, d, 0.0, 0.1);
    let x = random_row(&mut rng, d);
    let mut y = vec![0.0; ff];
    let ns = ns_per_call(tr, parent, "tensor.matvec_dxd", || {
        w_dd.matvec_into(black_box(&x), &mut y[..d]);
        black_box(&y);
    });
    out.push(("tensor.matvec_dxd_gmac_s", (d * d) as f64 / ns, "GMAC/s"));
    let ns = ns_per_call(tr, parent, "tensor.matvec_ffxd", || {
        w_ffd.matvec_into(black_box(&x), &mut y);
        black_box(&y);
    });
    out.push(("tensor.matvec_ffxd_gmac_s", (ff * d) as f64 / ns, "GMAC/s"));
    let xs = rng.normal_matrix(chunk, d, 0.0, 1.0);
    let mut ys = Matrix::zeros(chunk, ff);
    let ns = ns_per_call(tr, parent, "tensor.matmul_t", || {
        black_box(&xs).matmul_t_into(&w_ffd, &mut ys);
        black_box(&ys);
    });
    out.push(("tensor.matmul_t_gmac_s", (chunk * ff * d) as f64 / ns, "GMAC/s"));

    // tensor: the attention inner products, exact and over i8 codes.
    let dh = cfg.head_dim();
    let a = random_row(&mut rng, dh);
    let b = random_row(&mut rng, dh);
    let codes: Vec<i8> = (0..dh).map(|i| (i as i32 * 37 % 255 - 127) as i8).collect();
    let ns = ns_per_call(tr, parent, "tensor.dot", || {
        black_box(ops::dot(black_box(&a), black_box(&b)));
    });
    out.push(("tensor.dot_ns", ns, "ns"));
    out.push(("tensor.dot_gb_s", (2 * dh * 4) as f64 / ns, "GB/s"));
    let ns = ns_per_call(tr, parent, "tensor.dot_codes", || {
        black_box(ops::dot_codes(black_box(&a), black_box(&codes)));
    });
    out.push(("tensor.dot_codes_ns", ns, "ns"));
    out.push(("tensor.dot_codes_gb_s", (dh * 4 + dh) as f64 / ns, "GB/s"));

    // quant: the paper's activation encoders, one d_model row per call.
    let acts = QuantScheme::mxopal_w4a47().acts.expect("MX-OPAL quantizes activations");
    let row = random_row(&mut rng, d);
    let mut qrow = vec![0.0; d];
    let mut scratch = EncodeScratch::new();
    for (name, span, q) in [
        ("quant.act_low_ns_row", "quant.act_low", acts.low_quantizer()),
        ("quant.act_high_ns_row", "quant.act_high", acts.high_quantizer()),
    ] {
        let q = q.expect("paper quantizer parameters are valid");
        let ns = ns_per_call(tr, parent, span, || {
            q.quantize_dequantize_scratch(black_box(&row), &mut qrow, &mut scratch);
            black_box(&qrow);
        });
        out.push((name, ns, "ns"));
    }
    // quant: the KV page encoder (the MX-OPAL page scheme, whichever
    // scheme the workload's pages use).
    let KvScheme::MxOpal { bits, qblock, outliers } = KvScheme::mxopal() else {
        unreachable!("the MX-OPAL preset is an MX-OPAL scheme")
    };
    let enc = MxOpalQuantizer::new(bits, qblock, outliers).expect("valid KV preset");
    let blocks = d.div_ceil(qblock);
    let mut kc = vec![0i8; d];
    let mut ks = vec![0i16; blocks];
    let mut ki = vec![0u16; blocks * outliers];
    let mut kvv = vec![Bf16::from_f32(0.0); blocks * outliers];
    let mut kl = vec![0u8; blocks];
    let ns = ns_per_call(tr, parent, "quant.kv_encode", || {
        enc.encode_row_scratch(
            black_box(&row),
            &mut kc,
            &mut ks,
            &mut ki,
            &mut kvv,
            &mut kl,
            &mut scratch,
        );
        black_box(&kc);
    });
    out.push(("quant.kv_encode_ns_row", ns, "ns"));

    // softmax: one attention row at the workload's median context.
    let scores = random_row(&mut rng, context.max(1));
    let mut probs = vec![0.0; scores.len()];
    let log2 = Log2Softmax::new(5);
    let ns = ns_per_call(tr, parent, "softmax.log2", || {
        log2.probs_into(black_box(&scores), &mut probs);
        black_box(&probs);
    });
    out.push(("softmax.log2_ns", ns, "ns"));
    let ns = ns_per_call(tr, parent, "softmax.exact", || {
        ops::softmax_into(black_box(&scores), &mut probs);
        black_box(&probs);
    });
    out.push(("softmax.exact_ns", ns, "ns"));

    // kv: page allocation from a warm free list, freed on drop.
    let pool = Arc::new(BlockPool::with_scheme(block_size, d, usize::MAX, kv));
    const BLOCKS: usize = 32;
    let mut held = Vec::with_capacity(BLOCKS);
    let ns = ns_per_call(tr, parent, "kv.alloc", || {
        for _ in 0..BLOCKS {
            held.push(pool.alloc());
        }
        held.clear();
    });
    out.push(("kv.alloc_ns", ns / BLOCKS as f64, "ns"));
    out
}
