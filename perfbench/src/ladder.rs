//! The per-decision layer ladder.
//!
//! A traced run replays a sample of its workload's own sessions through
//! each layer's public functions in-process, one layer per rung:
//!
//! 1. the player (`Simulator::run_controlled`) and the client-side
//!    `SessionStepper`, capturing every `DecisionRequest`, then `evaluate`;
//! 2. `choose_level` of every scheme in [`SCHEMES`] on those requests;
//! 3. `Decide`/`Decision` frame encode and decode;
//! 4. `SessionStore` open, decide (against a shadow `choose_level` on an
//!    identical instance), close and contended decide;
//! 5. the CAVR recorder, into a `MemoryLog`;
//! 6. a loopback reactor server, recorded, driven one decision per round
//!    trip, and the replay verification of its log;
//! 7. `Population::session` draws.
//!
//! Every answer is checked against the captured decision, so a rung that
//! disagrees with the workload counts as a failed operation. Resident
//! bytes per held session ([`held_bytes`]) are measured separately, before
//! the workload's rounds.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use abr_bench::engine;
use abr_pop::{PopConfig, Population};
use abr_serve::protocol::{self, Frame};
use abr_serve::replay::{self, Event, MemoryLog, Recorder};
use abr_serve::scheme::{build_scheme, vmaf_model_code};
use abr_serve::server::{Backend, DEFAULT_POLL_MS};
use abr_serve::store::{StoreConfig, VideoHandle, VideoProvider};
use abr_serve::{Server, ServerConfig, SessionStore, StatsSnapshot};
use abr_sim::metrics::{evaluate, QoeConfig};
use abr_sim::{
    AbrAlgorithm, DecisionContext, DecisionRequest, DecisionResponse, PlayerConfig, SessionControl,
    SessionStepper, Simulator,
};
use net_trace::Trace;
use vbr_video::quality::VmafModel;
use vbr_video::Classification;

use crate::report::{rss_bytes, Outcome, SCHEMES};
use crate::spans::RequestSpans;
use crate::stats::{percentile, ratio};
use crate::{nproc, ns_since, secs_since, Size};

/// An [`AbrAlgorithm`] wrapper that times every `choose_level` call and,
/// optionally, captures the request each call answered.
pub struct Timed {
    inner: Box<dyn AbrAlgorithm>,
    busy_ns: u64,
    calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
    capture: Option<Vec<DecisionRequest>>,
}

impl Timed {
    /// Wrap `inner`; with `capture`, keep every request.
    pub fn new(inner: Box<dyn AbrAlgorithm>, capture: bool) -> Timed {
        Timed {
            inner,
            busy_ns: 0,
            calls: 0,
            first: None,
            last: None,
            capture: capture.then(Vec::new),
        }
    }

    /// Summed call time, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// The captured requests, in call order.
    pub fn take_requests(&mut self) -> Vec<DecisionRequest> {
        self.capture.take().unwrap_or_default()
    }

    /// Fold the calls into one span of `spans`.
    pub fn fold_into(
        &self,
        spans: &mut RequestSpans,
        epoch: Instant,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
    ) {
        if let (Some(first), Some(last)) = (self.first, self.last) {
            spans.push_folded(
                epoch,
                name,
                parent,
                request,
                first,
                last,
                self.busy_ns,
                self.calls,
            );
        }
    }
}

impl AbrAlgorithm for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose_level(&mut self, ctx: &DecisionContext) -> usize {
        if let Some(c) = self.capture.as_mut() {
            c.push(DecisionRequest::from_context(ctx));
        }
        let t0 = Instant::now();
        let level = self.inner.choose_level(ctx);
        let t1 = Instant::now();
        self.busy_ns += t1.duration_since(t0).as_nanos() as u64;
        self.calls += 1;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
        level
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Span names of folded `choose_level` calls, one per scheme.
const CHOOSE_SPANS: [(&str, &str); 10] = [
    ("cava", "choose_level.cava"),
    ("mpc", "choose_level.mpc"),
    ("robustmpc", "choose_level.robustmpc"),
    ("panda-max-sum", "choose_level.panda-max-sum"),
    ("panda-max-min", "choose_level.panda-max-min"),
    ("bola-e-avg", "choose_level.bola-e-avg"),
    ("bola-e-peak", "choose_level.bola-e-peak"),
    ("bola-e-seg", "choose_level.bola-e-seg"),
    ("bola", "choose_level.bola"),
    ("rba", "choose_level.rba"),
];

/// The span name of `scheme`'s folded `choose_level` calls.
pub fn choose_span_name(scheme: &str) -> &'static str {
    CHOOSE_SPANS
        .iter()
        .find(|(s, _)| *s == scheme)
        .map_or("choose_level.other", |(_, n)| n)
}

/// One sampled session of a workload: everything needed to replay it.
#[derive(Clone)]
pub struct StreamSpec {
    /// Serving-registry scheme name.
    pub scheme: String,
    /// The session's video.
    pub video: VideoHandle,
    /// VMAF model the scheme is built with.
    pub vmaf: VmafModel,
    /// QoE scoring configuration.
    pub qoe: QoeConfig,
    /// Player configuration.
    pub player: PlayerConfig,
    /// Network trace.
    pub trace: Trace,
    /// Viewer behaviour overlay.
    pub control: SessionControl,
}

/// A replayed session: its requests and the levels its scheme chose.
struct Captured {
    spec: usize,
    requests: Vec<DecisionRequest>,
    levels: Vec<usize>,
}

/// The ladder's results, by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// A ladder value (0 if the rung did not run).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Copy every value the workload's own runner has not already set.
    pub fn apply(&self, out: &mut Outcome) {
        for (k, v) in &self.values {
            out.metrics.entry(k.clone()).or_insert(*v);
        }
    }

    /// In-process cost of one served decision whose `choose_level` took
    /// `choose_ns`: both frames encoded and decoded, the store's own share
    /// of `decide`, the choice, and — with `recorded` — the recorder.
    pub fn in_process_ns(&self, recorded: bool, choose_ns: f64) -> f64 {
        let mut ns = self.get("abr-serve.protocol.encode_ns")
            + self.get("abr-serve.protocol.decode_ns")
            + self.get("abr-serve.store.decide_self_ns")
            + choose_ns;
        if recorded {
            ns += self.get("abr-serve.replay.record_ns")
                * self.get("abr-serve.replay.events_per_decision");
        }
        ns
    }

    /// Mean `choose_level` time inside the store rung's decisions.
    pub fn store_choose_ns(&self) -> f64 {
        self.get("abr-serve.store.decide_ns") - self.get("abr-serve.store.decide_self_ns")
    }
}

/// Per-rung time budget: a rung stops starting new sessions past it.
fn budget_s(size: Size) -> f64 {
    match size {
        Size::Full => 0.25,
        Size::Tiny => 0.01,
    }
}

/// A provider over the sampled sessions' videos.
fn provider_of(specs: &[StreamSpec]) -> VideoProvider {
    let mut map: BTreeMap<String, VideoHandle> = BTreeMap::new();
    for s in specs {
        map.entry(s.video.video.name().to_string())
            .or_insert_with(|| s.video.clone());
    }
    Arc::new(move |name: &str| map.get(name).cloned())
}

fn store_config() -> StoreConfig {
    StoreConfig {
        capacity: 1 << 22,
        idle_ticks: u64::MAX,
        ..StoreConfig::default()
    }
}

/// Run every rung over `specs` and return the ledger. Failed checks are
/// counted into `out`.
pub fn run(specs: &[StreamSpec], seed: u64, size: Size, out: &mut Outcome) -> Ledger {
    let mut ledger = Ledger::default();
    let caps = player_rung(specs, &mut ledger, out);
    efficiency_rung(specs, &mut ledger);
    choose_rung(specs, &caps, size, &mut ledger, out);
    protocol_rung(&caps, &mut ledger, out);
    let provider = provider_of(specs);
    store_rung(specs, &caps, &provider, size, &mut ledger, out);
    contended_rung(specs, &caps, &provider, size, &mut ledger);
    record_rung(&caps, size, &mut ledger);
    loopback_rung(specs, &caps, &provider, size, &mut ledger, out);
    population_rung(seed, size, &mut ledger);
    let decisions: usize = caps.iter().map(|c| c.requests.len()).sum();
    out.fact("ladder_sessions", caps.len());
    out.fact("ladder_decisions", decisions);
    ledger
}

fn build(spec: &StreamSpec, scheme: &str, out: &mut Outcome) -> Option<Box<dyn AbrAlgorithm>> {
    match build_scheme(scheme, &spec.video.video, spec.vmaf) {
        Ok(a) => Some(a),
        Err(e) => {
            out.fail(1, format!("ladder: {e}"));
            None
        }
    }
}

/// Rung 1: player, stepper and evaluate; captures the request streams.
fn player_rung(specs: &[StreamSpec], ledger: &mut Ledger, out: &mut Outcome) -> Vec<Captured> {
    let mut caps = Vec::new();
    let mut classes: BTreeMap<String, Classification> = BTreeMap::new();
    let (mut player_ns, mut stepper_ns, mut eval_ns, mut decisions) = (0u64, 0u64, 0u64, 0u64);
    for (i, spec) in specs.iter().enumerate() {
        let Some(algo) = build(spec, &spec.scheme, out) else {
            continue;
        };
        let sim = Simulator::new(spec.player);
        let manifest = &spec.video.manifest;
        let mut timed = Timed::new(algo, true);
        let t0 = Instant::now();
        let result = sim.run_controlled(&mut timed, manifest, &spec.trace, &spec.control);
        player_ns += ns_since(t0).saturating_sub(timed.busy_ns());
        let requests = timed.take_requests();
        let levels = result.levels();

        let t1 = Instant::now();
        let mut stepper = SessionStepper::new(&sim, manifest, &spec.trace, &spec.control);
        let mut k = 0;
        while stepper.next_request().is_some() {
            stepper.apply_level(levels.get(k).copied().unwrap_or(0));
            k += 1;
        }
        let stepped = stepper.into_result(&result.algorithm);
        stepper_ns += ns_since(t1);
        out.attempted += 1;
        out.check(stepped == result, 1, || {
            format!("ladder: session {i}: stepper result differs from run_controlled")
        });

        let class = classes
            .entry(spec.video.video.name().to_string())
            .or_insert_with(|| Classification::from_video(&spec.video.video));
        if !result.records.is_empty() {
            let t2 = Instant::now();
            black_box(evaluate(&result, &spec.video.video, class, &spec.qoe));
            eval_ns += ns_since(t2);
        }
        decisions += requests.len() as u64;
        caps.push(Captured {
            spec: i,
            requests,
            levels,
        });
    }
    let n = caps.len() as f64;
    ledger.set("abr-sim.player_self_us", ratio(player_ns as f64, n) / 1e3);
    ledger.set("abr-sim.evaluate_us", ratio(eval_ns as f64, n) / 1e3);
    ledger.set(
        "abr-sim.stepper_ns",
        ratio(stepper_ns as f64, decisions as f64),
    );
    ledger.set("abr-sim.chunks", decisions as f64);
    caps
}

/// The engine's parallel efficiency on the sampled sessions.
fn efficiency_rung(specs: &[StreamSpec], ledger: &mut Ledger) {
    let threads = nproc();
    let work = |i: usize| {
        let spec = &specs[i];
        build_scheme(&spec.scheme, &spec.video.video, spec.vmaf)
            .ok()
            .map(|mut algo| {
                Simulator::new(spec.player).run_controlled(
                    algo.as_mut(),
                    &spec.video.manifest,
                    &spec.trace,
                    &spec.control,
                )
            })
    };
    let t1 = Instant::now();
    black_box(engine::run_indexed_on(1, specs.len(), work));
    let w1 = secs_since(t1);
    let tn = Instant::now();
    black_box(engine::run_indexed_on(threads, specs.len(), work));
    let wn = secs_since(tn);
    ledger.set(
        "bench.engine.parallel_efficiency",
        ratio(w1, threads as f64 * wn),
    );
}

/// Rung 2: every scheme's `choose_level` on the captured requests.
fn choose_rung(
    specs: &[StreamSpec],
    caps: &[Captured],
    size: Size,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    for scheme in SCHEMES {
        let (mut ns, mut calls) = (0u64, 0u64);
        let t_rung = Instant::now();
        for cap in caps {
            if calls > 0 && secs_since(t_rung) > budget_s(size) {
                break;
            }
            let spec = &specs[cap.spec];
            let Some(mut algo) = build(spec, scheme, out) else {
                break;
            };
            let manifest = &spec.video.manifest;
            let mut history = Vec::with_capacity(cap.requests.len());
            for req in &cap.requests {
                if let Some(tp) = req.latest_throughput_bps {
                    history.push(tp);
                }
                let ctx = req.context(manifest, &history);
                let t0 = Instant::now();
                let level = black_box(algo.choose_level(black_box(&ctx)));
                ns += ns_since(t0);
                calls += 1;
                if level >= manifest.n_tracks() {
                    out.fail(1, format!("ladder: {scheme} chose level {level}"));
                }
            }
        }
        ledger.set(
            &format!("choose_level_ns.{scheme}"),
            ratio(ns as f64, calls as f64),
        );
        ledger.set(&format!("choose_level_calls.{scheme}"), 0.0);
        ledger.set(&format!("choose_level_pct.{scheme}"), 0.0);
    }
}

/// Rung 3: frame encode and decode of every decision, both directions.
fn protocol_rung(caps: &[Captured], ledger: &mut Ledger, out: &mut Outcome) {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let (mut enc, mut dec, mut bytes, mut n) = (0u64, 0u64, 0u64, 0u64);
    let mut bad = 0u64;
    for (i, cap) in caps.iter().enumerate() {
        for (req, &level) in cap.requests.iter().zip(&cap.levels) {
            let session_id = i as u64 + 1;
            let frames = [
                Frame::Decide {
                    session_id,
                    request: *req,
                },
                Frame::Decision {
                    session_id,
                    response: DecisionResponse {
                        level,
                        degraded: false,
                    },
                },
            ];
            for frame in &frames {
                buf.clear();
                let t0 = Instant::now();
                let encoded = protocol::encode_frame_into(&mut buf, black_box(frame));
                enc += ns_since(t0);
                let t1 = Instant::now();
                let decoded = protocol::decode_frame(black_box(&buf[4..]));
                dec += ns_since(t1);
                bytes += buf.len() as u64;
                if encoded.is_err() || decoded.as_ref() != Ok(frame) {
                    bad += 1;
                }
            }
            n += 1;
        }
    }
    out.check(bad == 0, bad, || {
        format!("ladder: {bad} frames failed to round-trip")
    });
    let n = n as f64;
    ledger.set("abr-serve.protocol.encode_ns", ratio(enc as f64, n));
    ledger.set("abr-serve.protocol.decode_ns", ratio(dec as f64, n));
    ledger.set(
        "abr-serve.protocol.bytes_per_decision",
        ratio(bytes as f64, n),
    );
}

fn open_all(
    store: &SessionStore,
    specs: &[StreamSpec],
    caps: &[Captured],
    first_id: u64,
    out: &mut Outcome,
) -> (u64, u64) {
    let mut ns = 0;
    let mut opened = 0;
    for (i, cap) in caps.iter().enumerate() {
        let spec = &specs[cap.spec];
        let t0 = Instant::now();
        let r = store.open(
            1,
            first_id + i as u64,
            spec.video.video.name(),
            &spec.scheme,
            vmaf_model_code(spec.vmaf),
        );
        ns += ns_since(t0);
        match r {
            Ok(o) if !o.degraded => opened += 1,
            Ok(_) => out.fail(1, "ladder: store admitted a session degraded"),
            Err(e) => out.fail(1, format!("ladder: store open failed: {e:?}")),
        }
    }
    (ns, opened)
}

/// Rung 4: the session store, decisions interleaved across sessions as a
/// server sees them, each against a shadow `choose_level`.
fn store_rung(
    specs: &[StreamSpec],
    caps: &[Captured],
    provider: &VideoProvider,
    size: Size,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    let store = SessionStore::new(store_config(), Arc::clone(provider));
    let (open_ns, opened) = open_all(&store, specs, caps, 1, out);
    // One shadow instance and throughput history per session.
    type Shadow = (Option<Box<dyn AbrAlgorithm>>, Vec<f64>);
    let mut shadows: Vec<Shadow> = caps
        .iter()
        .map(|c| {
            let spec = &specs[c.spec];
            (build(spec, &spec.scheme, out), Vec::new())
        })
        .collect();
    let (mut decide_ns, mut shadow_ns, mut n, mut bad) = (0u64, 0u64, 0u64, 0u64);
    let longest = caps.iter().map(|c| c.requests.len()).max().unwrap_or(0);
    let t_rung = Instant::now();
    let mut decided = vec![0u64; caps.len()];
    'waves: for k in 0..longest {
        for (i, cap) in caps.iter().enumerate() {
            let Some(req) = cap.requests.get(k) else {
                continue;
            };
            let (Some(shadow), history) = &mut shadows[i] else {
                continue;
            };
            let t0 = Instant::now();
            let resp = store.decide(i as u64 + 1, black_box(req));
            decide_ns += ns_since(t0);
            if let Some(tp) = req.latest_throughput_bps {
                history.push(tp);
            }
            let ctx = req.context(&specs[cap.spec].video.manifest, history);
            let t1 = Instant::now();
            let level = black_box(shadow.choose_level(&ctx));
            shadow_ns += ns_since(t1);
            n += 1;
            decided[i] += 1;
            let want = cap.levels[k];
            if !matches!(resp, Ok(r) if r.level == want && !r.degraded) || level != want {
                bad += 1;
            }
        }
        if secs_since(t_rung) > 4.0 * budget_s(size) {
            break 'waves;
        }
    }
    out.attempted += n;
    out.check(bad == 0, bad, || {
        format!("ladder: {bad} store decisions differ from the workload's")
    });
    let mut close_ns = 0;
    for (i, &d) in decided.iter().enumerate() {
        let t0 = Instant::now();
        let r = store.close(i as u64 + 1);
        close_ns += ns_since(t0);
        if r.ok() != Some(d) && i < opened as usize {
            out.fail(
                1,
                format!("ladder: store closed session {} with a wrong count", i + 1),
            );
        }
    }
    let nf = n as f64;
    ledger.set("abr-serve.store.decide_ns", ratio(decide_ns as f64, nf));
    ledger.set(
        "abr-serve.store.decide_self_ns",
        ratio(decide_ns as f64 - shadow_ns as f64, nf),
    );
    ledger.set(
        "abr-serve.store.open_us",
        ratio(open_ns as f64, caps.len() as f64) / 1e3,
    );
    ledger.set(
        "abr-serve.store.close_us",
        ratio(close_ns as f64, caps.len() as f64) / 1e3,
    );
}

/// `nproc` threads deciding distinct sessions of one store at once.
fn contended_rung(
    specs: &[StreamSpec],
    caps: &[Captured],
    provider: &VideoProvider,
    size: Size,
    ledger: &mut Ledger,
) {
    let threads = nproc();
    let store = SessionStore::new(store_config(), Arc::clone(provider));
    let mut scratch = Outcome::default();
    for t in 0..threads {
        open_all(
            &store,
            specs,
            caps,
            1 + (t * caps.len()) as u64,
            &mut scratch,
        );
    }
    let barrier = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    let first = 1 + (t * caps.len()) as u64;
                    let longest = caps.iter().map(|c| c.requests.len()).max().unwrap_or(0);
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut n = 0u64;
                    for k in 0..longest {
                        for (i, cap) in caps.iter().enumerate() {
                            if let Some(req) = cap.requests.get(k) {
                                let _ = black_box(store.decide(first + i as u64, req));
                                n += 1;
                            }
                        }
                        if secs_since(t0) > budget_s(size) {
                            break;
                        }
                    }
                    ratio(ns_since(t0) as f64, n as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("contended decide thread"))
            .collect()
    });
    let mean = per_thread.iter().sum::<f64>() / per_thread.len().max(1) as f64;
    ledger.set("abr-serve.store.decide_ns_contended", mean);
}

/// Resident bytes per held session: RSS growth while a fresh store admits
/// many sessions of the sampled mix. Memory the allocator already holds
/// free would hide the growth, so a traced run calls this right after
/// set-up, before its rounds have allocated and freed anything.
pub fn held_bytes(specs: &[StreamSpec], size: Size, out: &mut Outcome) {
    let provider = provider_of(specs);
    let n = match size {
        Size::Full => 16_384,
        Size::Tiny => 64,
    };
    let store = SessionStore::new(store_config(), provider);
    let before = rss_bytes();
    let t0 = Instant::now();
    let mut held = 0u64;
    for j in 0..n {
        let spec = &specs[j % specs.len()];
        if store
            .open(
                1,
                j as u64 + 1,
                spec.video.video.name(),
                &spec.scheme,
                vmaf_model_code(spec.vmaf),
            )
            .is_ok()
        {
            held += 1;
        }
        if secs_since(t0) > 8.0 * budget_s(size) {
            break;
        }
    }
    let after = rss_bytes();
    out.check(held > 0, 1, || {
        "ladder: held rung admitted nothing".to_string()
    });
    out.set(
        "abr-serve.store.bytes_per_held_session",
        ratio((after - before).max(0.0), held as f64),
    );
    out.fact("held_sessions_measured", held);
}

/// Rung 5: the recorder's cost per decision event, into memory.
fn record_rung(caps: &[Captured], size: Size, ledger: &mut Ledger) {
    let Ok(recorder) = Recorder::new(Box::new(MemoryLog::new())) else {
        return;
    };
    let (mut ns, mut n) = (0u64, 0u64);
    let t_rung = Instant::now();
    for (i, cap) in caps.iter().enumerate() {
        for (req, &level) in cap.requests.iter().zip(&cap.levels) {
            let event = Event::Decision {
                session_id: i as u64 + 1,
                retransmit: false,
                request: *req,
                response: DecisionResponse {
                    level,
                    degraded: false,
                },
            };
            let t0 = Instant::now();
            black_box(recorder.record(black_box(&event)));
            ns += ns_since(t0);
            n += 1;
        }
        if secs_since(t_rung) > budget_s(size) {
            break;
        }
    }
    ledger.set("abr-serve.replay.record_ns", ratio(ns as f64, n as f64));
}

fn call(
    w: &mut BufWriter<TcpStream>,
    r: &mut BufReader<TcpStream>,
    frame: &Frame,
) -> Result<Frame, String> {
    protocol::write_frame(w, frame).map_err(|e| format!("{e:?}"))?;
    w.flush().map_err(|e| e.to_string())?;
    protocol::read_frame(r).map_err(|e| format!("{e:?}"))
}

/// Rung 6: a recorded loopback server answering the captured sessions —
/// first one round trip per decision, then all sessions at once in
/// pipelined waves (one flush carries every session's next request) —
/// then the replay of its log.
fn loopback_rung(
    specs: &[StreamSpec],
    caps: &[Captured],
    provider: &VideoProvider,
    size: Size,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    let mem = MemoryLog::new();
    let recorder = match Recorder::new(Box::new(mem.clone())) {
        Ok(r) => Arc::new(r),
        Err(e) => return out.fail(1, format!("ladder: recorder: {e}")),
    };
    let config = ServerConfig {
        backend: Backend::Reactor,
        threads: nproc(),
        store: store_config(),
        poll_ms: DEFAULT_POLL_MS,
        ..ServerConfig::default()
    };
    let bound = match Server::bind_recorded(
        "127.0.0.1:0",
        config,
        Arc::clone(provider),
        Some(Arc::clone(&recorder)),
    ) {
        Ok(b) => b,
        Err(e) => return out.fail(1, format!("ladder: bind: {e}")),
    };
    let addr = bound.addr();
    let server = std::thread::spawn(move || bound.serve());
    let mut rtts: Vec<f64> = Vec::new();
    let mut served_sessions = 0;
    let mut wave_rtts: Vec<f64> = Vec::new();
    let mut piped = 0u64;
    let mut stats = StatsSnapshot::default();
    let client = (|| -> Result<(), String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut r = BufReader::new(stream);
        call(
            &mut w,
            &mut r,
            &Frame::Hello {
                version: protocol::PROTOCOL_VERSION,
            },
        )?;
        let t_rung = Instant::now();
        for (i, cap) in caps.iter().enumerate() {
            if i > 0 && secs_since(t_rung) > budget_s(size) {
                break;
            }
            let spec = &specs[cap.spec];
            let session_id = i as u64 + 1;
            match call(
                &mut w,
                &mut r,
                &Frame::OpenSession {
                    session_id,
                    video: spec.video.video.name().to_string(),
                    scheme: spec.scheme.clone(),
                    vmaf_model: vmaf_model_code(spec.vmaf),
                },
            )? {
                Frame::OpenOk {
                    degraded: false, ..
                } => {}
                other => return Err(format!("open answered {other:?}")),
            }
            served_sessions += 1;
            for (req, &want) in cap.requests.iter().zip(&cap.levels) {
                let t0 = Instant::now();
                let reply = call(
                    &mut w,
                    &mut r,
                    &Frame::Decide {
                        session_id,
                        request: *req,
                    },
                )?;
                rtts.push(secs_since(t0));
                match reply {
                    Frame::Decision { response, .. } if response.level == want => {}
                    other => return Err(format!("decide answered {other:?}, wanted {want}")),
                }
            }
            call(&mut w, &mut r, &Frame::CloseSession { session_id })?;
        }
        piped = pipelined(specs, caps, &mut w, &mut r, size, &mut wave_rtts)?;
        if let Frame::StatsReply(s) = call(&mut w, &mut r, &Frame::StatsReq)? {
            stats = s;
        }
        call(&mut w, &mut r, &Frame::Shutdown)?;
        Ok(())
    })();
    if let Err(e) = client {
        out.fail(1, format!("ladder: loopback client: {e}"));
        // Unblock the server so it can be joined.
        let _ = abr_serve::loadgen::shutdown_server(addr);
    }
    let _ = server.join();
    out.attempted += rtts.len() as u64;
    let events = recorder.finish().unwrap_or(0);
    let decisions = rtts.len() as f64 + piped as f64;
    match replay::decode_log(&mem.contents()) {
        Ok(log) => {
            let t0 = Instant::now();
            let player = replay::verify(log, Arc::clone(provider));
            let dt = secs_since(t0);
            let s = player.summary();
            out.check(s.divergences == 0, s.divergences as u64, || {
                format!(
                    "ladder: loopback log diverged {} times on replay",
                    s.divergences
                )
            });
            ledger.set(
                "abr-serve.replay.verify_decisions_per_s",
                ratio(s.decisions as f64, dt),
            );
        }
        Err(e) => out.fail(1, format!("ladder: loopback log does not decode: {e}")),
    }
    ledger.set(
        "abr-serve.replay.events_per_decision",
        ratio(events as f64, decisions),
    );
    ledger.set(
        "abr-serve.reactor.protocol_errors",
        stats.protocol_errors as f64,
    );
    ledger.set(
        "abr-serve.reactor.connections_reaped",
        stats.connections_reaped as f64,
    );
    ledger.set(
        "abr-serve.reactor.degraded_opens",
        stats.degraded_opens as f64,
    );
    let waves = wave_stats(&wave_rtts);
    ledger.set("abr-serve.loadgen.wave_rtt_p50_ms", waves.p50_s * 1e3);
    ledger.set("abr-serve.loadgen.wave_rtt_p99_ms", waves.p99_s * 1e3);
    ledger.set("abr-serve.loadgen.slow_waves", waves.slow as f64);
    // The same decisions' `choose_level`, timed again on a shadow instance
    // once the server is gone — between round trips it would widen the
    // client's think time and change how often the reactor dozes — so the
    // residual subtracts each decision's own choice cost.
    let mut shadow_ns = 0u64;
    for cap in &caps[..served_sessions] {
        let spec = &specs[cap.spec];
        let Some(mut shadow) = build(spec, &spec.scheme, out) else {
            continue;
        };
        let mut history = Vec::with_capacity(cap.requests.len());
        for req in &cap.requests {
            if let Some(tp) = req.latest_throughput_bps {
                history.push(tp);
            }
            let ctx = req.context(&spec.video.manifest, &history);
            let t0 = Instant::now();
            black_box(shadow.choose_level(&ctx));
            shadow_ns += ns_since(t0);
        }
    }
    let n = rtts.len() as f64;
    let mean_us = ratio(rtts.iter().sum(), n) * 1e6;
    let residual = mean_us - ledger.in_process_ns(true, ratio(shadow_ns as f64, n)) / 1e3;
    ledger.set("abr-serve.reactor.residual_us_per_decision", residual);
}

/// The pipelined half of the loopback rung: every captured session open
/// at once, each wave one flush of every live session's next `Decide`.
/// Returns the decisions served; pushes one RTT per wave.
fn pipelined(
    specs: &[StreamSpec],
    caps: &[Captured],
    w: &mut BufWriter<TcpStream>,
    r: &mut BufReader<TcpStream>,
    size: Size,
    wave_rtts: &mut Vec<f64>,
) -> Result<u64, String> {
    let first = caps.len() as u64 + 1;
    let send = |w: &mut BufWriter<TcpStream>, f: &Frame| {
        protocol::write_frame(w, f).map_err(|e| format!("{e:?}"))
    };
    let flush = |w: &mut BufWriter<TcpStream>| w.flush().map_err(|e| e.to_string());
    let recv = |r: &mut BufReader<TcpStream>| protocol::read_frame(r).map_err(|e| format!("{e:?}"));
    for (i, cap) in caps.iter().enumerate() {
        let spec = &specs[cap.spec];
        send(
            w,
            &Frame::OpenSession {
                session_id: first + i as u64,
                video: spec.video.video.name().to_string(),
                scheme: spec.scheme.clone(),
                vmaf_model: vmaf_model_code(spec.vmaf),
            },
        )?;
    }
    flush(w)?;
    for _ in caps {
        match recv(r)? {
            Frame::OpenOk {
                degraded: false, ..
            } => {}
            other => return Err(format!("pipelined open answered {other:?}")),
        }
    }
    let longest = caps.iter().map(|c| c.requests.len()).max().unwrap_or(0);
    let mut served = 0;
    let t_rung = Instant::now();
    for k in 0..longest {
        let wave: Vec<usize> = (0..caps.len())
            .filter(|&i| k < caps[i].requests.len())
            .collect();
        for &i in &wave {
            send(
                w,
                &Frame::Decide {
                    session_id: first + i as u64,
                    request: caps[i].requests[k],
                },
            )?;
        }
        let t0 = Instant::now();
        flush(w)?;
        for &i in &wave {
            match recv(r)? {
                Frame::Decision { response, .. } if response.level == caps[i].levels[k] => {}
                other => return Err(format!("pipelined decide answered {other:?}")),
            }
        }
        wave_rtts.push(secs_since(t0));
        served += wave.len() as u64;
        if secs_since(t_rung) > 2.0 * budget_s(size) {
            break;
        }
    }
    for i in 0..caps.len() {
        send(
            w,
            &Frame::CloseSession {
                session_id: first + i as u64,
            },
        )?;
    }
    flush(w)?;
    for _ in caps {
        recv(r)?;
    }
    Ok(served)
}

/// Wave round-trip statistics from per-decision latencies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Waves {
    /// Distinct waves.
    pub waves: usize,
    /// Median wave RTT, s.
    pub p50_s: f64,
    /// 99th-percentile wave RTT, s.
    pub p99_s: f64,
    /// Waves at or above one reactor doze (`DEFAULT_POLL_MS`).
    pub slow: usize,
}

/// Every decision of a wave carries the wave's round-trip time, measured
/// to the nanosecond, so distinct values are distinct waves.
pub fn wave_stats(latencies_s: &[f64]) -> Waves {
    let mut waves: Vec<f64> = latencies_s.to_vec();
    waves.sort_by(f64::total_cmp);
    waves.dedup_by(|a, b| a.to_bits() == b.to_bits());
    let doze = DEFAULT_POLL_MS as f64 / 1e3;
    Waves {
        waves: waves.len(),
        p50_s: percentile(&waves, 50.0).unwrap_or(0.0),
        p99_s: percentile(&waves, 99.0).unwrap_or(0.0),
        slow: waves.iter().filter(|&&w| w >= doze).count(),
    }
}

/// Rung 7: `Population::session` draws under the run seed.
fn population_rung(seed: u64, size: Size, ledger: &mut Ledger) {
    let n = match size {
        Size::Full => 4096,
        Size::Tiny => 16,
    };
    let pop = Population::new(PopConfig {
        seed,
        sessions: n,
        ..PopConfig::default()
    });
    let t0 = Instant::now();
    for i in 0..pop.len() {
        black_box(pop.session(i));
    }
    ledger.set(
        "abr-pop.session_us",
        ratio(ns_since(t0) as f64, n as f64) / 1e3,
    );
}
