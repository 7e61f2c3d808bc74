//! Traced replays: the benchmark's own re-enactment of each workload's
//! pass through the layers' public functions, with a span around every
//! call, so that time splits by layer. Every replay delivers
//! measurements through the same correctness gate as the untraced run,
//! so the table describes the same computation bit for bit.
//!
//! * The compute path (`kernels` → `codegen` → `sim`, with the
//!   measurement memo and the disk spill) is replayed by [`ReplayStore`],
//!   which mirrors `oriole_tuner`'s evaluator tiers using the public
//!   functions they call: `KernelId::ast`, `codegen::front_end`,
//!   `FrontEnd::specialize`, `ProgramKey::of_front_end`,
//!   `ModelContext::measure_keyed` and `dynamic_mix_keyed`, and
//!   `persist::emit_measurement` / `seal` for the spill.
//! * Requests are replayed at the protocol level ([`rpc`]): the client's
//!   codec and framing run under spans; the daemon's side of the same
//!   request (frame decode, `parse_request`, the evaluation,
//!   `emit_response`, frame encode) is replayed once the pass is over —
//!   so the replay never competes with the daemons for cores — and
//!   injected into the request's transport span, whose self time is
//!   then the hop.
//! * The fleet is replayed with the public [`StealScheduler`] and one
//!   worker thread per shard, each speaking [`rpc`] to its daemon.

use crate::fig6::{cores, Source, BATCH_POINTS};
use crate::gate::Pair;
use crate::trace::Tracer;
use oriole_arch::{Gpu, OpClass};
use oriole_codegen::{front_end, CompileError, CompilerFlags, FrontEnd, TuningParams};
use oriole_fleet::{FleetSpec, StealScheduler};
use oriole_ir::KernelAst;
use oriole_kernels::KernelId;
use oriole_service::protocol::{
    emit_request, emit_response, parse_request, parse_response, Request, Response,
};
use oriole_sim::memo::ShardedOnceMap;
use oriole_sim::{ModelContext, ProgramKey};
use oriole_tuner::persist::{
    decode_frame, emit_measurement, parse_measurement, seal, unseal, write_frame_tagged,
    FRAME_HEADER_BYTES,
};
use oriole_tuner::{EvalProtocol, Measurement, Objective};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

type FeArtifact = Arc<(Result<FrontEnd, CompileError>, Option<ProgramKey>)>;
type FeMap = ShardedOnceMap<(u64, u32, CompilerFlags), FeArtifact>;
type AstMap = ShardedOnceMap<u64, Arc<KernelAst>>;

/// One measurement tier of the replay: the memo, its fresh-computation
/// count and its spill file.
struct ReplayTier {
    memo: ShardedOnceMap<TuningParams, Arc<Measurement>>,
    unique: AtomicU64,
    spill: Option<Mutex<File>>,
}

/// The replay's artifact store, scoped like `oriole_tuner::ArtifactStore`:
/// ASTs per kernel, front-ends per kernel × device, model contexts per
/// device, measurements per pair.
pub struct ReplayStore {
    asts: Mutex<HashMap<KernelId, Arc<AstMap>>>,
    fes: Mutex<HashMap<(KernelId, Gpu), Arc<FeMap>>>,
    ctxs: Mutex<HashMap<Gpu, Arc<ModelContext>>>,
    tiers: Mutex<HashMap<usize, Arc<ReplayTier>>>,
    spill_dir: Option<PathBuf>,
    parallel: bool,
    /// Records spilled.
    pub encoded: AtomicU64,
}

impl ReplayStore {
    /// An empty replay store spilling under `spill_dir` (when set) and
    /// evaluating batches on all cores (when `parallel`) or on the
    /// calling thread.
    pub fn new(spill_dir: Option<PathBuf>, parallel: bool) -> ReplayStore {
        ReplayStore {
            asts: Mutex::new(HashMap::new()),
            fes: Mutex::new(HashMap::new()),
            ctxs: Mutex::new(HashMap::new()),
            tiers: Mutex::new(HashMap::new()),
            spill_dir,
            parallel,
            encoded: AtomicU64::new(0),
        }
    }

    /// The device's model context.
    pub fn context(&self, gpu: Gpu) -> Arc<ModelContext> {
        let mut m = self.ctxs.lock().expect("replay store lock");
        Arc::clone(
            m.entry(gpu)
                .or_insert_with(|| Arc::new(ModelContext::new(gpu.spec()))),
        )
    }

    /// An evaluator over `pair`'s tiers.
    pub fn evaluator<'a>(&'a self, pair: &Pair, tr: &'a Tracer) -> ReplayEval<'a> {
        let asts = Arc::clone(
            self.asts
                .lock()
                .expect("replay store lock")
                .entry(pair.kernel)
                .or_default(),
        );
        let fes = Arc::clone(
            self.fes
                .lock()
                .expect("replay store lock")
                .entry((pair.kernel, pair.gpu))
                .or_default(),
        );
        let protocol = EvalProtocol::default();
        let tier = Arc::clone(
            self.tiers
                .lock()
                .expect("replay store lock")
                .entry(pair.index)
                .or_insert_with(|| {
                    let spill = self.spill_dir.as_ref().and_then(|d| {
                        let scope = oriole_tuner::persist::scope_text(
                            pair.kernel.name(),
                            pair.gpu.spec(),
                            &pair.sizes(),
                            &protocol,
                        );
                        File::create(d.join(oriole_tuner::persist::tier_file_name(&scope)))
                            .ok()
                            .map(Mutex::new)
                    });
                    Arc::new(ReplayTier {
                        memo: ShardedOnceMap::new(),
                        unique: AtomicU64::new(0),
                        spill,
                    })
                }),
        );
        ReplayEval {
            store: self,
            tr,
            kernel: pair.kernel,
            gpu: pair.gpu,
            sizes: pair.sizes(),
            protocol,
            ctx: self.context(pair.gpu),
            asts,
            fes,
            tier,
        }
    }
}

/// An evaluator of the replay: the library's evaluation loop, spanned.
pub struct ReplayEval<'a> {
    store: &'a ReplayStore,
    tr: &'a Tracer,
    kernel: KernelId,
    gpu: Gpu,
    sizes: Vec<u64>,
    protocol: EvalProtocol,
    ctx: Arc<ModelContext>,
    asts: Arc<AstMap>,
    fes: Arc<FeMap>,
    tier: Arc<ReplayTier>,
}

/// The evaluator's per-variant trial seed (the same mix
/// `oriole_tuner::Evaluator` uses; the gate proves it bit for bit).
fn seed_for(base: u64, p: &TuningParams) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    for v in [
        u64::from(p.tc),
        u64::from(p.bc),
        u64::from(p.uif),
        u64::from(p.pl.kb()),
        u64::from(p.sc),
        u64::from(p.cflags.fast_math),
    ] {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn infeasible(params: TuningParams) -> Measurement {
    Measurement {
        params,
        time_ms: f64::INFINITY,
        per_size_ms: Vec::new(),
        feasible: false,
        occupancy: 0.0,
        regs_allocated: 0,
        reg_instructions: 0.0,
    }
}

impl ReplayEval<'_> {
    fn front_end_for(&self, n: u64, p: TuningParams) -> FeArtifact {
        let tr = self.tr;
        self.fes.get_or_init((n, p.uif, p.cflags), || {
            let ast = self.asts.get_or_init(n, || {
                tr.span("kernels.ast", || Arc::new(self.kernel.ast(n)))
            });
            let fe = tr.span("codegen.front_end", || {
                front_end(&ast, self.gpu.spec(), p.uif, p.cflags)
            });
            let key = fe
                .as_ref()
                .ok()
                .map(|fe| tr.span("sim.program_key", || ProgramKey::of_front_end(fe)));
            Arc::new((fe, key))
        })
    }

    fn compute(&self, params: TuningParams) -> Measurement {
        let tr = self.tr;
        let mut per_size_ms = Vec::with_capacity(self.sizes.len());
        let (mut occupancy, mut regs, mut reg_instructions) = (0.0, 0u32, 0.0);
        for &n in &self.sizes {
            let art = self.front_end_for(n, params);
            let (Ok(fe), Some(key)) = (&art.0, &art.1) else {
                return infeasible(params);
            };
            let Ok(kernel) = tr.span("codegen.specialize", || fe.specialize(params)) else {
                return infeasible(params);
            };
            let seed = seed_for(self.protocol.base_seed, &params) ^ n;
            let Ok(trials) = tr.span("sim.measure", || {
                self.ctx
                    .measure_keyed(key, &kernel, n, self.protocol.trials, seed)
            }) else {
                return infeasible(params);
            };
            per_size_ms.push((n, trials.selected(self.protocol.protocol)));
            occupancy = trials.report.occupancy.occupancy;
            regs = kernel.regs_per_thread();
            reg_instructions += tr
                .span("sim.dynamic_mix", || {
                    self.ctx.dynamic_mix_keyed(key, &kernel, n)
                })
                .get(OpClass::Regs);
        }
        let time_ms = match self.protocol.objective {
            Objective::TotalTime => per_size_ms.iter().map(|(_, t)| t).sum(),
            Objective::LargestSize => per_size_ms.last().map_or(f64::INFINITY, |(_, t)| *t),
        };
        Measurement {
            params,
            time_ms,
            per_size_ms,
            feasible: true,
            occupancy,
            regs_allocated: regs,
            reg_instructions,
        }
    }

    fn evaluate(&self, p: TuningParams) -> Arc<Measurement> {
        self.tier.memo.get_or_init(p, || {
            self.tier.unique.fetch_add(1, Ordering::Relaxed);
            let m = Arc::new(self.compute(p));
            if let Some(file) = &self.tier.spill {
                let line = self.tr.span("tuner.persist.encode", || {
                    let mut l = seal(&format!("r {}", emit_measurement(&m)));
                    l.push('\n');
                    l
                });
                self.tr.span("tuner.persist.write", || {
                    let _ = file.lock().expect("spill lock").write_all(line.as_bytes());
                });
                self.store.encoded.fetch_add(1, Ordering::Relaxed);
            }
            m
        })
    }

    /// Evaluates a batch in input order, on all cores when the store is
    /// parallel, like `Evaluator::evaluate_batch`.
    pub fn batch(&self, points: &[TuningParams]) -> Vec<Arc<Measurement>> {
        let tr = self.tr;
        let threads = cores();
        if !self.store.parallel || points.len() < 8 || threads < 2 {
            return tr.span("tuner.eval.worker", || {
                points.iter().map(|&p| self.evaluate(p)).collect()
            });
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Arc<Measurement>>>> =
            points.iter().map(|_| Mutex::new(None)).collect();
        let (parent, req) = (tr.current(), tr.current_req());
        std::thread::scope(|s| {
            for _ in 0..threads.min(points.len()) {
                s.spawn(|| {
                    tr.worker(parent, req, || {
                        tr.span("tuner.eval.worker", || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= points.len() {
                                break;
                            }
                            *slots[i].lock().expect("slot lock") = Some(self.evaluate(points[i]));
                        })
                    })
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot lock")
                    .expect("every slot filled")
            })
            .collect()
    }

    /// Points this evaluator's tier computed so far.
    pub fn unique(&self) -> u64 {
        self.tier.unique.load(Ordering::Relaxed)
    }
}

impl Source for ReplayEval<'_> {
    type M = Arc<Measurement>;
    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Arc<Measurement>>> {
        Some(self.batch(points))
    }
}

/// Decodes one tier file the way the store's loader does — unseal each
/// record line, parse the measurement — under a `tuner.persist.decode`
/// span. Returns the records decoded.
pub fn decode_tier(tr: &Tracer, path: &Path) -> u64 {
    let text = tr.span("tuner.persist.read", || {
        std::fs::read_to_string(path).unwrap_or_default()
    });
    tr.span("tuner.persist.decode", || {
        text.lines()
            .filter_map(unseal)
            .filter_map(|body| body.strip_prefix("r "))
            .filter(|rec| parse_measurement(rec).is_ok())
            .count() as u64
    })
}

/// A request whose daemon side is replayed after the pass, so that the
/// replay never competes with the daemons for the cores it measures.
pub struct Pending {
    tid: u32,
    t0: u64,
    t1: u64,
    req: u32,
    corr: u64,
    frame: Vec<u8>,
    payload: String,
    /// The points requested.
    pub points: Vec<TuningParams>,
    /// The shard (daemon) that answered.
    pub shard: usize,
    /// The pair requested.
    pub pair: Pair,
}

/// What the protocol replay accumulates over a pass.
#[derive(Default)]
pub struct Wire {
    /// Response payload bytes received.
    pub response_bytes: AtomicU64,
    /// Points those responses carried.
    pub points: AtomicU64,
    /// Next correlation id.
    pub corr: AtomicU64,
    /// Scheduler decisions taken.
    pub tasks: AtomicU64,
    /// Requests whose daemon side awaits its replay.
    pub pending: Mutex<Vec<Pending>>,
}

impl Wire {
    /// Replays the daemon side of every pending request, in the order
    /// the requests were sent, and injects it into each request's
    /// transport span. `server` answers a request's points the way the
    /// daemon's handler did, returning the computed count.
    pub fn replay_server(&self, tr: &Tracer, server: &dyn Fn(&Pending) -> (u64, Vec<Measurement>)) {
        let mut pending = std::mem::take(&mut *self.pending.lock().expect("pending lock"));
        pending.sort_by_key(|p| p.t0);
        for p in &pending {
            tr.request(p.req, || {
                let (_, spans) = tr.capture(|| {
                    tr.span("service.frame.decode", || decode_frame(&p.frame).ok());
                    tr.span("service.codec.parse_request", || {
                        parse_request(&p.payload).ok()
                    });
                    let (computed, measurements) = tr.span("tuner.eval", || server(p));
                    let text = tr.span("service.codec.emit_response", || {
                        emit_response(&Response::Evaluate {
                            computed,
                            measurements,
                        })
                    });
                    tr.span("service.frame.encode", || {
                        write_frame_tagged(&mut Vec::new(), p.corr, &text).ok()
                    });
                });
                tr.inject(p.tid, p.t0, p.t1, spans);
            });
        }
    }
}

/// Sends one framed request and reads one framed reply.
fn exchange(conn: &mut TcpStream, frame: &[u8]) -> std::io::Result<Vec<u8>> {
    conn.write_all(frame)?;
    let mut buf = vec![0u8; FRAME_HEADER_BYTES];
    conn.read_exact(&mut buf)?;
    let len = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    buf.resize(FRAME_HEADER_BYTES + len, 0);
    conn.read_exact(&mut buf[FRAME_HEADER_BYTES..])?;
    Ok(buf)
}

/// Opens a replay connection to a daemon.
pub fn connect(tr: &Tracer, addr: &str) -> Result<TcpStream, String> {
    tr.span("service.connect", || {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).ok();
        Ok(s)
    })
}

/// One 64-point `evaluate` request to `shard` replayed at the protocol
/// level; its daemon side is queued on `wire` for
/// [`Wire::replay_server`].
pub fn rpc(
    tr: &Tracer,
    conn: &mut TcpStream,
    pair: &Pair,
    shard: usize,
    points: &[TuningParams],
    wire: &Wire,
) -> Result<Vec<Measurement>, String> {
    let corr = wire.corr.fetch_add(1, Ordering::Relaxed);
    tr.span("service.request", || {
        let req = Request::Evaluate {
            scope: crate::fig6::scope_of(pair),
            points: points.to_vec(),
            deadline_ms: 0,
        };
        let payload = tr.span("service.codec.emit_request", || emit_request(&req));
        let frame = tr.span("service.frame.encode", || {
            let mut b = Vec::new();
            write_frame_tagged(&mut b, corr, &payload).map(|_| b)
        });
        let frame = frame.map_err(|e| e.to_string())?;
        let t0 = tr.now();
        let (tid, reply) = tr.span_id("service.transport", |id| (id, exchange(conn, &frame)));
        let t1 = tr.now();
        let reply = reply.map_err(|e| format!("transport: {e}"))?;
        let decoded = tr.span("service.frame.decode", || decode_frame(&reply));
        let (_, text, _) = decoded
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "truncated reply frame".to_string())?;
        wire.response_bytes
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        let resp = tr.span("service.codec.parse_response", || parse_response(&text));
        let measurements = match resp.map_err(|e| e.to_string())? {
            Response::Evaluate { measurements, .. } => measurements,
            other => return Err(format!("expected measurements, got {other:?}")),
        };
        wire.points
            .fetch_add(measurements.len() as u64, Ordering::Relaxed);
        wire.pending.lock().expect("pending lock").push(Pending {
            tid,
            t0,
            t1,
            req: tr.current_req(),
            corr,
            frame,
            payload,
            points: points.to_vec(),
            shard,
            pair: *pair,
        });
        Ok(measurements)
    })
}

/// A fleet evaluator replayed from the benchmark: a client-side cache,
/// 64-point chunks queued on the scope's home shard, one worker thread
/// per shard pulling from the public [`StealScheduler`], and each
/// chunk sent with [`rpc`].
pub struct FleetReplay<'a> {
    /// Tracer.
    pub tr: &'a Tracer,
    /// Fleet membership.
    pub spec: &'a FleetSpec,
    /// The pair evaluated.
    pub pair: Pair,
    /// Wire counters.
    pub wire: &'a Wire,
    cache: Mutex<HashMap<TuningParams, Measurement>>,
    error: Mutex<Option<String>>,
}

impl<'a> FleetReplay<'a> {
    /// A fresh fleet replay for `pair`.
    pub fn new(tr: &'a Tracer, spec: &'a FleetSpec, pair: Pair, wire: &'a Wire) -> Self {
        FleetReplay {
            tr,
            spec,
            pair,
            wire,
            cache: Mutex::default(),
            error: Mutex::default(),
        }
    }
}

impl Source for FleetReplay<'_> {
    type M = Measurement;

    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        let tr = self.tr;
        let misses: Vec<TuningParams> = {
            let cache = self.cache.lock().expect("fleet cache lock");
            let mut seen = HashSet::new();
            points
                .iter()
                .filter(|p| !cache.contains_key(p) && seen.insert(**p))
                .copied()
                .collect()
        };
        if !misses.is_empty() {
            let scope = crate::fig6::scope_of(&self.pair);
            let chunks: Vec<&[TuningParams]> = misses.chunks(BATCH_POINTS).collect();
            let n = self.spec.len();
            let home = self.spec.home_shard(&scope);
            let sched = Mutex::new(tr.span("fleet.sched", || {
                let mut s = StealScheduler::new(n);
                for c in 0..chunks.len() {
                    s.enqueue(home, c);
                }
                s
            }));
            let results: Mutex<Vec<Option<Vec<Measurement>>>> =
                Mutex::new(vec![None; chunks.len()]);
            let failed = AtomicBool::new(false);
            let (parent, req) = (tr.current(), tr.current_req());
            std::thread::scope(|s| {
                for shard in 0..n {
                    let (sched, results, failed, chunks) = (&sched, &results, &failed, &chunks);
                    s.spawn(move || {
                        tr.worker(parent, req, || {
                            tr.span("fleet.worker", || {
                                let mut conn: Option<TcpStream> = None;
                                loop {
                                    let task = tr.span("fleet.sched", || {
                                        sched.lock().expect("scheduler lock").next_for(shard)
                                    });
                                    self.wire.tasks.fetch_add(1, Ordering::Relaxed);
                                    let Some(task) = task else { break };
                                    if conn.is_none() {
                                        match connect(tr, &self.spec.shards()[shard]) {
                                            Ok(c) => conn = Some(c),
                                            Err(e) => {
                                                *self.error.lock().expect("error lock") = Some(e);
                                                failed.store(true, Ordering::Relaxed);
                                                break;
                                            }
                                        }
                                    }
                                    let c = conn.as_mut().expect("connected above");
                                    match rpc(
                                        tr,
                                        c,
                                        &self.pair,
                                        shard,
                                        chunks[task.chunk],
                                        self.wire,
                                    ) {
                                        Ok(ms) => {
                                            results.lock().expect("results lock")[task.chunk] =
                                                Some(ms)
                                        }
                                        Err(e) => {
                                            *self.error.lock().expect("error lock") = Some(e);
                                            failed.store(true, Ordering::Relaxed);
                                            break;
                                        }
                                    }
                                }
                            })
                        })
                    });
                }
            });
            if failed.load(Ordering::Relaxed) {
                return None;
            }
            let mut cache = self.cache.lock().expect("fleet cache lock");
            for r in results.into_inner().expect("results lock") {
                for m in r? {
                    cache.insert(m.params, m);
                }
            }
        }
        let cache = self.cache.lock().expect("fleet cache lock");
        Some(points.iter().map(|p| cache[p].clone()).collect())
    }

    fn take_error(&self) -> Option<String> {
        self.error.lock().expect("error lock").take()
    }
}
