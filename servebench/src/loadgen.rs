//! The load generator: drives one `ServeEngine` from the caller's thread,
//! timestamping every submit and step, and turns the engine's per-token
//! step stamps into wall-clock TTFT and inter-token gaps.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_serve::{FinishReason, Request, RequestId, RequestReport, ServeEngine, ServeReport};

use crate::trace::Trace;
use crate::workload::{Kind, Load, Spec, Stream};

/// Limits of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseOpts {
    /// Keep issuing requests for this long.
    pub seconds: f64,
    /// ...and until at least this many were sent.
    pub min_requests: usize,
    /// Sleep inside the `n`-th engine step of the phase (a deliberate
    /// stall, for tests).
    pub stall: Option<(usize, Duration)>,
}

/// One request the generator sent (or tried to).
#[derive(Clone, Debug)]
pub struct Sent {
    pub spec: Spec,
    /// When the request was due, in seconds from the phase start.
    pub due: f64,
    /// `None` when the engine refused the submission.
    pub id: Option<RequestId>,
}

/// One engine step that did work.
#[derive(Clone, Copy, Debug)]
pub struct StepRec {
    pub start: f64,
    pub end: f64,
    /// Sequences the step advanced.
    pub rows: usize,
}

/// Schedule statistics gathered while traced: the analytical workload of
/// the realised schedule and the KV slot occupancy.
#[derive(Clone, Debug)]
pub struct Priced {
    pub work: TokenWorkload,
    /// Forward-pass positions (prefilled plus decoded).
    pub positions: u64,
    /// Sum over steps of stored positions over allocated KV slots.
    pub slot_fill_sum: f64,
    pub slot_fill_steps: u64,
    /// Context length of every decode pass.
    pub decode_contexts: Vec<usize>,
}

/// What one timed phase observed.
pub struct Phase {
    pub sent: Vec<Sent>,
    pub steps: Vec<StepRec>,
    base_step: u64,
    /// Seconds from the first due request to the last step's end.
    pub elapsed: f64,
    /// Engine report before and after the phase (counters are cumulative).
    pub before: ServeReport,
    pub after: ServeReport,
    pub priced: Option<Priced>,
}

/// The fate of one sent request, in wall-clock terms.
#[derive(Clone, Debug)]
pub struct Outcome<'a> {
    /// Position in [`Phase::sent`].
    pub index: usize,
    pub sent: &'a Sent,
    /// `None` when refused.
    pub report: Option<&'a RequestReport>,
    pub ttft: Option<f64>,
    pub gaps: Vec<f64>,
}

impl Outcome<'_> {
    /// Whether the engine served the request to its limit.
    pub fn served(&self) -> bool {
        self.report.is_some_and(|r| r.finish == FinishReason::Limit)
    }
}

impl Phase {
    /// End of the step the engine numbered `step`.
    fn step_end(&self, step: u64) -> f64 {
        self.steps[(step - self.base_step - 1) as usize].end
    }

    /// Every sent request with its timing.
    pub fn outcomes(&self) -> Vec<Outcome<'_>> {
        self.sent
            .iter()
            .enumerate()
            .map(|(index, sent)| {
                let report = sent.id.and_then(|id| {
                    let i = self.after.requests.binary_search_by_key(&id, |r| r.id).ok()?;
                    Some(&self.after.requests[i])
                });
                let ends: Vec<f64> = report
                    .map(|r| r.token_steps.iter().map(|&s| self.step_end(s)).collect())
                    .unwrap_or_default();
                Outcome {
                    index,
                    sent,
                    report,
                    ttft: ends.first().map(|&e| e - sent.due),
                    gaps: ends.windows(2).map(|w| w[1] - w[0]).collect(),
                }
            })
            .collect()
    }
}

/// Requests ready to send.
struct Due {
    due: f64,
    spec: Spec,
    client: usize,
}

/// Runs one phase of `kind`'s load against `engine`. With `trace`, every
/// submit and step becomes a span under `parent` and the realised schedule
/// is priced with `format`.
pub fn run_phase(
    engine: &mut ServeEngine<'_>,
    kind: Kind,
    seed: u64,
    opts: PhaseOpts,
    mut trace: Option<(&mut Trace, usize, DataFormat)>,
) -> Phase {
    let mut stream = Stream::new(kind, seed);
    let load = kind.shape().load;
    // Untimed: put every shared document in the prefix cache, so the phase
    // measures the steady state rather than the first few cold prefills.
    for doc in stream.documents() {
        let _ = engine.submit_with_limit(doc, 1);
    }
    engine.run();
    let before = engine.report(Duration::ZERO);
    let base_step = engine.steps();
    let cfg = engine.model().config().clone();
    let block_size = engine.config().block_size;
    let mut priced = trace.as_ref().map(|_| Priced {
        work: TokenWorkload::zero(),
        positions: 0,
        slot_fill_sum: 0.0,
        slot_fill_steps: 0,
        decode_contexts: Vec::new(),
    });

    let mut queue: VecDeque<Due> = VecDeque::new();
    match load {
        Load::Closed { clients } => {
            queue.extend((0..clients).map(|client| Due {
                due: 0.0,
                spec: stream.next_spec(),
                client,
            }));
        }
        Load::Waves { .. } => {}
    }

    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    let mut sent: Vec<Sent> = Vec::new();
    let mut steps: Vec<StepRec> = Vec::new();
    let mut client_of: BTreeMap<RequestId, usize> = BTreeMap::new();
    let mut freed: Vec<usize> = Vec::new();
    let mut contexts: Vec<usize> = Vec::new();
    let keep_issuing = |now: f64, sent: usize| now < opts.seconds || sent < opts.min_requests;

    loop {
        // Every queued request is due: it was queued when it became ready.
        let now = secs(Instant::now());
        while let Some(d) = queue.pop_front() {
            let ts = Instant::now();
            let result =
                engine.submit_request(Request::new(&d.spec.prompt).with_limit(d.spec.limit));
            let id = result.ok();
            if let Some((tr, parent, _)) = trace.as_mut() {
                let req = Some(sent.len() as u64);
                tr.record("serve.submit", ts, Instant::now(), Some(*parent), req);
            }
            match id {
                Some(id) => {
                    client_of.insert(id, d.client);
                }
                None => freed.push(d.client),
            }
            sent.push(Sent { spec: d.spec, due: d.due, id });
        }

        if engine.is_idle() && freed.is_empty() {
            match load {
                Load::Waves { size } if keep_issuing(now, sent.len()) => {
                    queue.extend((0..size).map(|_| Due {
                        due: now,
                        spec: stream.next_spec(),
                        client: 0,
                    }));
                    continue;
                }
                _ => break,
            }
        }

        if !engine.is_idle() {
            let ts = Instant::now();
            if let Some((n, stall)) = opts.stall {
                if n == steps.len() {
                    std::thread::sleep(stall);
                }
            }
            let before_steps = engine.steps();
            let summary = engine.step();
            let te = Instant::now();
            if engine.steps() > before_steps {
                let work = engine.last_step_work();
                steps.push(StepRec { start: secs(ts), end: secs(te), rows: work.len() });
                if let (Some((tr, parent, format)), Some(p)) = (trace.as_mut(), priced.as_mut()) {
                    tr.record("serve.step", ts, te, Some(*parent), None);
                    contexts.clear();
                    let mut stored = 0usize;
                    for w in work {
                        contexts.extend(w.prefill_start + 1..=w.prefill_start + w.prefilled);
                        if let Some(c) = w.decode_context {
                            contexts.push(c);
                            p.decode_contexts.push(c);
                        }
                        stored += w.decode_context.unwrap_or(0).max(w.prefill_start + w.prefilled);
                    }
                    p.work.accumulate(&TokenWorkload::from_schedule(&cfg, format, &contexts));
                    p.positions += contexts.len() as u64;
                    if summary.blocks_in_use > 0 {
                        p.slot_fill_sum += (stored * cfg.n_layers) as f64
                            / (summary.blocks_in_use * block_size) as f64;
                        p.slot_fill_steps += 1;
                    }
                }
            }
            if summary.finished + summary.failed + summary.expired + summary.shed > 0 {
                let live: BTreeSet<RequestId> = engine.in_flight().into_iter().collect();
                client_of.retain(|id, client| {
                    let done = !live.contains(id);
                    if done {
                        freed.push(*client);
                    }
                    !done
                });
            }
        }

        // Closed-loop clients whose request completed (or was refused)
        // send their next one now.
        let now = secs(Instant::now());
        for client in freed.drain(..) {
            if matches!(load, Load::Closed { .. }) && keep_issuing(now, sent.len()) {
                queue.push_back(Due { due: now, spec: stream.next_spec(), client });
            }
        }
    }

    let elapsed = steps.last().map_or(0.0, |s| s.end);
    let after = engine.report(Duration::from_secs_f64(elapsed));
    Phase { sent, steps, base_step, elapsed, before, after, priced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_model::{Model, ModelConfig, QuantScheme};
    use opal_serve::ServeConfig;

    /// A stalled step shows in the TTFT of every request that waits
    /// through it: the requests of a wave queued behind the running batch
    /// are timed from when the wave was due, so their TTFT covers the stall.
    #[test]
    fn stalled_step_shows_in_ttft_of_requests_queued_through_it() {
        // The tiny model with the workload's vocabulary keeps debug builds fast.
        let mut cfg = ModelConfig::tiny();
        cfg.vocab = crate::workload::model_config().vocab;
        let model = Model::new(cfg, QuantScheme::bf16(), 3).unwrap();
        let config = ServeConfig {
            max_batch: 16,
            max_tokens: 8,
            prefill_chunk: 32,
            ..ServeConfig::default()
        };
        // Exactly one wave of 64 requests; the third step sleeps while 48
        // of them are still queued.
        let stall = Duration::from_millis(500);
        let opts = PhaseOpts { seconds: 0.0, min_requests: 64, stall: Some((2, stall)) };
        let mut engine = ServeEngine::new(&model, config);
        let phase = run_phase(&mut engine, Kind::DecodeBatch, 5, opts, None);
        assert_eq!(phase.sent.len(), 64);
        let stalled = phase.steps[2];
        assert!(stalled.end - stalled.start >= stall.as_secs_f64());
        let mut after = 0;
        for o in phase.outcomes() {
            let first = o.sent.due + o.ttft.expect("every request is served");
            assert!(o.sent.due <= stalled.start);
            assert!(first <= stalled.start || first >= stalled.end, "first token inside the stall");
            if first >= stalled.end {
                after += 1;
                assert!(o.ttft.unwrap() >= stall.as_secs_f64());
            }
        }
        assert!(after >= 48, "only {after} requests waited through the stall");
    }
}
