//! `servebench`: the repository's serving benchmark.
//!
//! ```text
//! servebench --workload <decode-batch|rag-shared> --seed <n> --seconds <s>
//!            --trace <0|1>
//! ```
//!
//! It builds llama7b-proxy128 behind an `opal-serve` engine, drives it with
//! the named workload generated from the seed, checks the outputs against
//! solo decoding, and prints every metric by name and unit. The last line
//! of standard output is one JSON object: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run. See `README.md`.

mod check;
mod loadgen;
mod probe;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use opal_hw::accelerator::{Accelerator, AcceleratorKind};
use opal_hw::workload::DataFormat;
use opal_model::Model;
use opal_serve::{ServeConfig, ServeEngine};
use opal_tensor::rng::TensorRng;

use check::{solo_tokens, SoloTiming, OPS};
use loadgen::{run_phase, Outcome, Phase, PhaseOpts};
use stats::{median, percentile};
use trace::Trace;
use workload::{model_config, Kind, Shape, MIN_REQUESTS};

/// Seed of the served model's synthetic weights (the system under test,
/// not an input, so it does not follow `--seed`).
const MODEL_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Host-over-MAC share ratios outside this band name an op as an outlier.
const RECONCILE_BAND: (f64, f64) = (0.5, 2.0);

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The end-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("gen_tok_s", "tok/s"),
    ("prompt_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p95_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("slo_attain", "share"),
    ("ok_frac", "share"),
    ("kv_peak_mib", "MiB"),
    ("rss_peak_mib", "MiB"),
    ("opal_uj_per_tok", "uJ"),
];

/// The per-layer metrics and units of the traced run, in `BENCHMARK.json`
/// order.
const PER_LAYER: [(&str, &str); 52] = [
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p95", "ms"),
    ("serve.rows_per_step", "rows"),
    ("serve.step_over_solo", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.prefix_hit_share", "share"),
    ("serve.preemptions", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("model.decode_us_per_tok", "us"),
    ("model.prefill_us_per_tok", "us"),
    ("model.op.qkv_us", "us"),
    ("model.op.attn_us", "us"),
    ("model.op.proj_us", "us"),
    ("model.op.fc1_us", "us"),
    ("model.op.fc2_us", "us"),
    ("model.op.logits_us", "us"),
    ("model.op.qkv_host_share", "share"),
    ("model.op.attn_host_share", "share"),
    ("model.op.proj_host_share", "share"),
    ("model.op.fc1_host_share", "share"),
    ("model.op.fc2_host_share", "share"),
    ("model.op.logits_host_share", "share"),
    ("model.op.qkv_mac_share", "share"),
    ("model.op.attn_mac_share", "share"),
    ("model.op.proj_mac_share", "share"),
    ("model.op.fc1_mac_share", "share"),
    ("model.op.fc2_mac_share", "share"),
    ("model.gmac_s", "GMAC/s"),
    ("kv.blocks_peak", "blocks"),
    ("kv.slot_fill", "share"),
    ("quant.calls_per_tok", "count"),
    ("tensor.matvec_dxd_gmac_s", "GMAC/s"),
    ("tensor.matvec_ffxd_gmac_s", "GMAC/s"),
    ("tensor.matmul_t_gmac_s", "GMAC/s"),
    ("tensor.dot_ns", "ns"),
    ("tensor.dot_gb_s", "GB/s"),
    ("tensor.dot_codes_ns", "ns"),
    ("tensor.dot_codes_gb_s", "GB/s"),
    ("quant.act_low_ns_row", "ns"),
    ("quant.act_high_ns_row", "ns"),
    ("quant.kv_encode_ns_row", "ns"),
    ("softmax.log2_ns", "ns"),
    ("softmax.exact_ns", "ns"),
    ("kv.alloc_ns", "ns"),
    ("hw.macs_per_tok", "MAC"),
    ("hw.weight_bytes_per_tok", "B"),
    ("hw.kv_bytes_per_tok", "B"),
    ("trace.overhead_gen_tok_s_pct", "%"),
    ("trace.overhead_ttft_p50_pct", "%"),
    ("trace.spans", "count"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <decode-batch|rag-shared> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

fn serve_config(shape: &Shape) -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_tokens: 256,
        // Two cores' worth: the benchmark's own thread is the engine's
        // caller and steps one chunk of the batch itself.
        num_threads: 2,
        prefill_chunk: shape.prefill_chunk,
        kv_scheme: shape.kv,
        max_blocks: shape.max_blocks,
        ..ServeConfig::default()
    }
}

fn new_engine<'m>(model: &'m Model, shape: &Shape) -> ServeEngine<'m> {
    let mut engine = ServeEngine::new(model, serve_config(shape))
        .with_accelerator(Accelerator::new(AcceleratorKind::OpalW4A47));
    // Warm-up: spawn the worker pool and fill the page free list.
    let mut rng = TensorRng::seed(0x5eed);
    for _ in 0..16 {
        let prompt: Vec<u32> = (0..24).map(|_| rng.index(model.config().vocab) as u32).collect();
        let _ = engine.submit_with_limit(&prompt, 8);
    }
    engine.run();
    engine
}

fn build_model(shape: &Shape) -> Result<Model> {
    Ok(Model::new(model_config(), shape.scheme.clone(), MODEL_SEED)?)
}

/// The analytical format the realised schedule is priced in.
fn hw_format(shape: &Shape) -> DataFormat {
    let mut f =
        if shape.scheme.acts.is_some() { DataFormat::opal_w4a47() } else { DataFormat::bf16() };
    if shape.kv.quantized() {
        f.kv_bits = shape.kv.bits_per_element(model_config().d_model);
    }
    f
}

/// One printed metric.
struct Row {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, where it is a statistic over samples.
    n: Option<usize>,
}

fn row(name: &'static str, value: f64, unit: &'static str, n: Option<usize>) -> Row {
    Row { name, value, unit, n }
}

/// Requests sent, served and failed in one phase.
struct Counts {
    sent: usize,
    refused: usize,
    engine_failed: usize,
    mismatched: usize,
    checked: usize,
}

impl Counts {
    fn failed(&self) -> usize {
        self.refused + self.engine_failed + self.mismatched
    }

    fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.refused += o.refused;
        self.engine_failed += o.engine_failed;
        self.mismatched += o.mismatched;
        self.checked += o.checked;
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Checks a seeded sample of the phase's served requests against solo
/// decoding; with `timing`, the solo decode is timed.
/// Returns the number checked and the indices of mismatched requests.
fn check_outputs(
    model: &Model,
    shape: &Shape,
    phase: &Phase,
    seed: u64,
    mut timing: Option<(&mut SoloTiming, &mut Trace, usize)>,
) -> (usize, Vec<usize>) {
    let outcomes = phase.outcomes();
    let served: Vec<&Outcome<'_>> = outcomes.iter().filter(|o| o.served()).collect();
    let picks: Vec<usize> = if served.len() <= shape.checked {
        (0..served.len()).collect()
    } else {
        let mut p = TensorRng::seed(seed).child(9).distinct_indices(served.len(), shape.checked);
        p.sort_unstable();
        p
    };
    let bs = serve_config(shape).block_size;
    let mut mismatched = Vec::new();
    for &i in &picks {
        let o = served[i];
        let report = o.report.expect("served requests have reports");
        let t = timing.as_mut().map(|(t, tr, parent)| (&mut **t, &mut **tr, *parent, i as u64));
        let solo = solo_tokens(model, shape.kv, bs, &o.sent.spec.prompt, o.sent.spec.limit, t);
        if solo != report.tokens {
            mismatched.push(o.index);
            eprintln!(
                "servebench: output mismatch on request due at {:.3}s ({} prompt tokens)",
                o.sent.due,
                o.sent.spec.prompt.len()
            );
        }
    }
    (picks.len(), mismatched)
}

/// The end-to-end metrics of one phase.
fn end_to_end(
    phase: &Phase,
    shape: &Shape,
    engine: &ServeEngine<'_>,
    setup: &[f64],
    counts: &Counts,
    mismatched: &[usize],
) -> Result<Vec<Row>> {
    let outcomes = phase.outcomes();
    let served: Vec<&Outcome<'_>> = outcomes.iter().filter(|o| o.served()).collect();
    let ttft: Vec<f64> = served.iter().filter_map(|o| o.ttft).collect();
    let gaps: Vec<f64> = served.iter().flat_map(|o| o.gaps.iter().copied()).collect();
    let generated: usize = served.iter().map(|o| o.report.map_or(0, |r| r.tokens.len())).sum();
    let prompt: usize = served.iter().map(|o| o.sent.spec.prompt.len()).sum();
    let meets = |o: &Outcome<'_>| {
        let mean_gap =
            if o.gaps.is_empty() { 0.0 } else { o.gaps.iter().sum::<f64>() / o.gaps.len() as f64 };
        o.ttft.is_some_and(|t| ms(t) <= shape.slo_ttft_ms)
            && ms(mean_gap) <= shape.slo_itl_ms
            && !mismatched.contains(&o.index)
    };
    let met = served.iter().filter(|o| meets(o)).count();
    let pool = engine.kv_pool();
    let page = pool.scheme().page_bytes(pool.block_size(), pool.width());
    let energy_j = phase.after.energy_j - phase.before.energy_j;
    let sent = counts.sent as f64;
    Ok(vec![
        row("setup_s", median(setup), "s", Some(setup.len())),
        row("gen_tok_s", generated as f64 / phase.elapsed, "tok/s", Some(served.len())),
        row("prompt_tok_s", prompt as f64 / phase.elapsed, "tok/s", Some(served.len())),
        row("ttft_p50_ms", ms(percentile(&ttft, 0.5)?), "ms", Some(ttft.len())),
        row("ttft_p95_ms", ms(percentile(&ttft, 0.95)?), "ms", Some(ttft.len())),
        row("itl_p50_ms", ms(percentile(&gaps, 0.5)?), "ms", Some(gaps.len())),
        row("itl_p99_ms", ms(percentile(&gaps, 0.99)?), "ms", Some(gaps.len())),
        row("slo_attain", met as f64 / sent, "share", Some(counts.sent)),
        row("ok_frac", 1.0 - counts.failed() as f64 / sent, "share", Some(counts.sent)),
        row("kv_peak_mib", (pool.peak() * 2 * page) as f64 / (1 << 20) as f64, "MiB", None),
        row("rss_peak_mib", peak_rss_mib()?, "MiB", None),
        row("opal_uj_per_tok", energy_j / generated as f64 * 1e6, "uJ", Some(generated)),
    ])
}

/// Which end-to-end metric, on which workload, a per-layer metric should
/// move.
fn moves(name: &str) -> &'static str {
    match name {
        "serve.step_ms_p50" | "serve.step_ms_p95" => {
            "gen_tok_s on decode-batch, itl_p99_ms on rag-shared"
        }
        "serve.rows_per_step" => "gen_tok_s on decode-batch",
        "serve.step_over_solo" => "gen_tok_s on decode-batch; no change on rag-shared",
        "serve.queue_wait_ms_p50" | "serve.queue_wait_ms_p95" => {
            "ttft_p50_ms on decode-batch and rag-shared"
        }
        "serve.prefix_hit_share" => "prompt_tok_s on rag-shared (about 0 on decode-batch)",
        "serve.preemptions" | "serve.rejected" | "serve.failed" => {
            "ok_frac and ttft_p95_ms on rag-shared"
        }
        "model.decode_us_per_tok" => "gen_tok_s and itl_p50_ms",
        "model.prefill_us_per_tok" => "prompt_tok_s and ttft_p50_ms on rag-shared",
        "model.gmac_s" => "gen_tok_s and prompt_tok_s",
        "kv.blocks_peak" | "kv.slot_fill" => "kv_peak_mib",
        "kv.alloc_ns" | "quant.kv_encode_ns_row" => "prompt_tok_s on rag-shared",
        "softmax.log2_ns" | "softmax.exact_ns" => "itl_p50_ms on rag-shared (log2 runs only there)",
        "tensor.matvec_dxd_gmac_s" | "tensor.matvec_ffxd_gmac_s" => "gen_tok_s on decode-batch",
        "tensor.matmul_t_gmac_s" => "prompt_tok_s on rag-shared",
        "tensor.dot_ns" | "tensor.dot_gb_s" => "gen_tok_s on decode-batch (exact q.k)",
        "tensor.dot_codes_ns" | "tensor.dot_codes_gb_s" => {
            "gen_tok_s on rag-shared (quantized q.k)"
        }
        n if n.starts_with("quant.") => {
            "prompt_tok_s and ttft on rag-shared; 0 calls on decode-batch"
        }
        n if n.starts_with("model.op.attn") => "gen_tok_s; grows on rag-shared",
        n if n.starts_with("model.op.") => "gen_tok_s / prompt_tok_s, where the op dominates",
        n if n.starts_with("hw.") => "modeled denominator of the rates above",
        n if n.starts_with("trace.") => "traced minus untraced run",
        _ => "",
    }
}

fn print_rows(title: &str, rows: &[Row], with_moves: bool) {
    println!("{title}");
    for r in rows {
        let n = r.n.map_or(String::new(), |n| format!("  (n={n})"));
        let m = if with_moves { format!("  -> {}", moves(r.name)) } else { String::new() };
        println!("  {:<28} {:>14.4} {:<8}{n}{m}", r.name, r.value, r.unit);
    }
}

fn json_line(
    correct: bool,
    counts: &Counts,
    rows: &[Row],
    declared: &[(&str, &str)],
) -> Result<String> {
    let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.name, r.unit)).collect();
    if got != declared {
        return Err(format!("metrics {got:?} differ from the declared {declared:?}").into());
    }
    let mut metrics = Vec::with_capacity(rows.len());
    for r in rows {
        if !r.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", r.name, r.value).into());
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", r.name, r.value, r.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.sent,
        counts.failed(),
        metrics.join(", ")
    ))
}

fn counts_of(phase: &Phase, checked: usize, mismatched: usize) -> Counts {
    let outcomes = phase.outcomes();
    Counts {
        sent: outcomes.len(),
        refused: outcomes.iter().filter(|o| o.sent.id.is_none()).count(),
        engine_failed: outcomes.iter().filter(|o| o.report.is_some() && !o.served()).count(),
        mismatched,
        checked,
    }
}

fn run(args: &Args) -> Result<bool> {
    let kind = args.kind;
    let shape = kind.shape();
    let opts = PhaseOpts { seconds: args.seconds, min_requests: MIN_REQUESTS, stall: None };
    println!(
        "servebench: workload {} seed {} (fingerprint {:016x}) seconds {} trace {} \
         (llama7b-proxy128, {}, kv {}, {} threads)",
        kind.name(),
        args.seed,
        workload::fingerprint(kind, args.seed, 64),
        args.seconds,
        u8::from(args.trace),
        shape.scheme.name,
        shape.kv.name(),
        serve_config(&shape).num_threads
    );

    // Set-up: model build, engine, warm-up; the last one is kept.
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let t = Instant::now();
        let model = build_model(&shape)?;
        drop(new_engine(&model, &shape));
        setup.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let model = build_model(&shape)?;
    let mut engine = new_engine(&model, &shape);
    setup.push(t.elapsed().as_secs_f64());

    // The timed phase, untraced.
    let phase = run_phase(&mut engine, kind, args.seed, opts, None);
    let (checked, mismatched) = check_outputs(&model, &shape, &phase, args.seed, None);
    let counts = counts_of(&phase, checked, mismatched.len());
    let e2e = end_to_end(&phase, &shape, &engine, &setup, &counts, &mismatched)?;
    drop(engine);

    let mut all = counts;
    let mut rows = Vec::new();
    print_rows(&format!("end-to-end ({})", kind.name()), &e2e, false);

    if args.trace {
        let origin = Instant::now();
        let mut tr = Trace::new(origin);
        let root = tr.open("bench.traced_phase", None);
        let mut engine = new_engine(&model, &shape);
        let phase_t =
            run_phase(&mut engine, kind, args.seed, opts, Some((&mut tr, root, hw_format(&shape))));
        tr.close(root);
        let probe_root = tr.open("bench.solo_decode", None);
        let mut solo = SoloTiming::default();
        let (checked_t, mismatched_t) = check_outputs(
            &model,
            &shape,
            &phase_t,
            args.seed,
            Some((&mut solo, &mut tr, probe_root)),
        );
        tr.close(probe_root);
        let counts_t = counts_of(&phase_t, checked_t, mismatched_t.len());
        let e2e_t = end_to_end(&phase_t, &shape, &engine, &setup, &counts_t, &mismatched_t)?;
        rows = per_layer(&shape, &phase_t, &engine, &solo, &e2e, &e2e_t, &mut tr)?;
        print_rows(&format!("per-layer, traced ({})", kind.name()), &rows, true);
        reconcile(&solo);
        print_layer_times(&tr);
        let path = trace_dir().join(format!("trace-{}-seed{}.jsonl", kind.name(), args.seed));
        tr.write_jsonl(&path)?;
        println!("spans: {} written to {}", tr.len(), path.display());
        all.add(&counts_t);
    }

    let c = &all;
    println!(
        "requests: sent {}, succeeded {}, failed {} (refused {}, engine-failed {}, mismatched {} of {} checked)",
        c.sent,
        c.sent - c.failed(),
        c.failed(),
        c.refused,
        c.engine_failed,
        c.mismatched,
        c.checked
    );
    let correct = c.mismatched == 0;
    let line = if args.trace {
        json_line(correct, c, &rows, &PER_LAYER)?
    } else {
        json_line(correct, c, &e2e, &END_TO_END)?
    };
    println!("{line}");
    Ok(correct)
}

fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("servebench")
}

fn value(rows: &[Row], name: &str) -> f64 {
    rows.iter().find(|r| r.name == name).map_or(f64::NAN, |r| r.value)
}

/// The per-layer metrics of the traced phase.
fn per_layer(
    shape: &Shape,
    phase: &Phase,
    engine: &ServeEngine<'_>,
    solo: &SoloTiming,
    e2e: &[Row],
    e2e_traced: &[Row],
    tr: &mut Trace,
) -> Result<Vec<Row>> {
    let cfg = model_config();
    let (before, after) = (&phase.before, &phase.after);
    let outcomes = phase.outcomes();
    let served: Vec<&Outcome<'_>> = outcomes.iter().filter(|o| o.served()).collect();
    let step_s: Vec<f64> = phase.steps.iter().map(|s| s.end - s.start).collect();
    let waits: Vec<f64> =
        served.iter().filter_map(|o| o.report.map(|r| r.queue_wait.as_secs_f64())).collect();
    let priced = phase.priced.as_ref().ok_or("traced phase carries its priced schedule")?;

    let decode_s_tok = solo.decode_s / solo.decode_tokens.max(1) as f64;
    let prefill_s_tok = solo.prefill_s / solo.prefill_tokens.max(1) as f64;
    let generated = (after.generated_tokens - before.generated_tokens) as f64;
    let prefilled = (after.prefill_tokens - before.prefill_tokens) as f64;
    let shared = (after.shared_prefill_tokens - before.shared_prefill_tokens) as f64;
    let solo_equiv = decode_s_tok * generated + prefill_s_tok * prefilled;

    let mut rows = vec![
        row("serve.step_ms_p50", ms(percentile(&step_s, 0.5)?), "ms", Some(step_s.len())),
        row("serve.step_ms_p95", ms(percentile(&step_s, 0.95)?), "ms", Some(step_s.len())),
        row(
            "serve.rows_per_step",
            phase.steps.iter().map(|s| s.rows).sum::<usize>() as f64 / phase.steps.len() as f64,
            "rows",
            Some(phase.steps.len()),
        ),
        row("serve.step_over_solo", step_s.iter().sum::<f64>() / solo_equiv, "ratio", None),
        row("serve.queue_wait_ms_p50", ms(percentile(&waits, 0.5)?), "ms", Some(waits.len())),
        row("serve.queue_wait_ms_p95", ms(percentile(&waits, 0.95)?), "ms", Some(waits.len())),
        row("serve.prefix_hit_share", shared / (shared + prefilled).max(1.0), "share", None),
        row("serve.preemptions", (after.preemptions - before.preemptions) as f64, "count", None),
        row(
            "serve.rejected",
            (after.rejections.total() - before.rejections.total()) as f64,
            "count",
            None,
        ),
        row("serve.failed", (after.failed - before.failed) as f64, "count", None),
        row("model.decode_us_per_tok", decode_s_tok * 1e6, "us", Some(solo.decode_tokens as usize)),
        row(
            "model.prefill_us_per_tok",
            prefill_s_tok * 1e6,
            "us",
            Some(solo.prefill_tokens as usize),
        ),
    ];
    const OP_US: [&str; 6] = [
        "model.op.qkv_us",
        "model.op.attn_us",
        "model.op.proj_us",
        "model.op.fc1_us",
        "model.op.fc2_us",
        "model.op.logits_us",
    ];
    const OP_HOST: [&str; 6] = [
        "model.op.qkv_host_share",
        "model.op.attn_host_share",
        "model.op.proj_host_share",
        "model.op.fc1_host_share",
        "model.op.fc2_host_share",
        "model.op.logits_host_share",
    ];
    const OP_MAC: [&str; 5] = [
        "model.op.qkv_mac_share",
        "model.op.attn_mac_share",
        "model.op.proj_mac_share",
        "model.op.fc1_mac_share",
        "model.op.fc2_mac_share",
    ];
    let op_total: f64 = solo.op_s.iter().sum();
    let mac_total: f64 = solo.op_macs.iter().sum();
    let tokens = solo.decode_tokens.max(1) as f64;
    for (name, secs) in OP_US.into_iter().zip(solo.op_s) {
        rows.push(row(name, secs / tokens * 1e6, "us", None));
    }
    for (name, secs) in OP_HOST.into_iter().zip(solo.op_s) {
        rows.push(row(name, secs / op_total, "share", None));
    }
    for (name, macs) in OP_MAC.into_iter().zip(solo.op_macs) {
        rows.push(row(name, macs / mac_total, "share", None));
    }
    rows.push(row("model.gmac_s", mac_total / solo.decode_s / 1e9, "GMAC/s", None));

    let pool = engine.kv_pool();
    rows.push(row("kv.blocks_peak", pool.peak() as f64, "blocks", None));
    rows.push(row(
        "kv.slot_fill",
        priced.slot_fill_sum / priced.slot_fill_steps.max(1) as f64,
        "share",
        Some(priced.slot_fill_steps as usize),
    ));
    // Activation quantizer calls per token and layer: two low-bit inputs
    // (QKV, FC1) and the high-bit Q, attention output and FC2 input, plus
    // K and V unless the page encoder quantizes them.
    let per_layer = 5 + if shape.kv.quantized() { 0 } else { 2 };
    let calls = if shape.scheme.acts.is_some() { per_layer * cfg.n_layers } else { 0 };
    rows.push(row("quant.calls_per_tok", calls as f64, "count", None));

    let context = if priced.decode_contexts.is_empty() {
        1
    } else {
        let c: Vec<f64> = priced.decode_contexts.iter().map(|&c| c as f64).collect();
        median(&c) as usize
    };
    let probe_root = tr.open("bench.kernel_probes", None);
    let bs = serve_config(shape).block_size;
    let chunk = shape.prefill_chunk;
    for (name, v, unit) in probe::kernels(&cfg, chunk, context, shape.kv, bs, tr, probe_root) {
        rows.push(row(name, v, unit, None));
    }
    tr.close(probe_root);

    let pos = priced.positions.max(1) as f64;
    rows.push(row("hw.macs_per_tok", priced.work.macs.total() as f64 / pos, "MAC", None));
    rows.push(row("hw.weight_bytes_per_tok", priced.work.weight_bytes / pos, "B", None));
    rows.push(row("hw.kv_bytes_per_tok", priced.work.kv_bytes / pos, "B", None));
    // Overheads are positive when tracing made the metric worse.
    let change = |name| (value(e2e_traced, name) / value(e2e, name) - 1.0) * 100.0;
    rows.push(row("trace.overhead_gen_tok_s_pct", -change("gen_tok_s"), "%", None));
    rows.push(row("trace.overhead_ttft_p50_pct", change("ttft_p50_ms"), "%", None));
    rows.push(row("trace.spans", tr.len() as f64, "count", None));
    Ok(rows)
}

/// Prints host share against MAC share per op, naming outliers.
fn reconcile(solo: &SoloTiming) {
    let op_total: f64 = solo.op_s.iter().sum();
    let mac_total: f64 = solo.op_macs.iter().sum();
    println!(
        "reconciliation (host share / MAC share; outlier outside {:.1}..{:.1}):",
        RECONCILE_BAND.0, RECONCILE_BAND.1
    );
    for (i, op) in OPS.iter().enumerate() {
        let host = solo.op_s[i] / op_total;
        if solo.op_macs[i] == 0.0 {
            println!("  {op:<7} host {host:>6.3}  mac unpriced");
            continue;
        }
        let mac = solo.op_macs[i] / mac_total;
        let ratio = host / mac;
        let verdict =
            if ratio < RECONCILE_BAND.0 || ratio > RECONCILE_BAND.1 { "OUTLIER" } else { "ok" };
        println!("  {op:<7} host {host:>6.3}  mac {mac:>6.3}  ratio {ratio:>6.2}  {verdict}");
    }
}

fn print_layer_times(tr: &Trace) {
    println!("layer self time (from spans):");
    for (layer, t) in tr.layer_times() {
        println!(
            "  {layer:<8} spans {:>7}  total {:>10.3} ms  self {:>10.3} ms",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn metrics(section: &'static str) -> Vec<(&'static str, &'static str)> {
        let field = |t: &'static str, key: &str| -> Option<&'static str> {
            t.split_once(&format!("\"{key}\": \""))?.1.split('"').next()
        };
        section
            .split('{')
            .skip(1)
            .filter_map(|t| Some((field(t, "name")?, field(t, "unit")?)))
            .collect()
    }

    /// The metrics the benchmark prints are exactly the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let (head, layers) = json.split_once("\"per_layer\"").expect("per_layer list");
        let e2e = head.split_once("\"end_to_end\"").expect("end_to_end list").1;
        assert_eq!(metrics(e2e), END_TO_END);
        assert_eq!(metrics(layers), PER_LAYER);
        for (name, _) in PER_LAYER {
            assert!(!moves(name).is_empty(), "{name} names no end-to-end metric it moves");
        }
    }
}
