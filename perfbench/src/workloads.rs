//! The four workloads, untraced: set-up, the timed Fig. 6 passes, and
//! the 64-point request latency measurement.
//!
//! Request latency is sampled across the whole run: `serve-warm` times
//! the requests its passes are made of; every other workload follows
//! each timed pass with one round of 64-point requests against the state
//! the pass left: all pairs against the in-process store, or a rotating
//! quarter of the pairs against the fleet daemon that is each pair's
//! home shard.
//!
//! Every workload is a closed loop driven from this process by at most
//! two caller threads. Daemons are in-process [`Server`]s on loopback,
//! each admitting no more concurrent evaluations than the box has cores
//! (one daemon: all cores; two fleet daemons: half each).
//!
//! [`Server`]: oriole_service::Server

use crate::fig6::{cores, fleet_pass, local_pass, scope_of, Daemon, Source, Tally, BATCH_POINTS};
use crate::gate::{expected, pairs, permutation, Digest, Expected, Pair};
use oriole_fleet::FleetSpec;
use oriole_service::{Client, RemoteEvaluator};
use oriole_tuner::{ArtifactStore, SearchSpace};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Client threads of the `serve-warm` loop.
pub const CLIENT_THREADS: usize = 2;
/// Daemons of the `fleet-cold` fleet.
pub const FLEET_SHARDS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 6 pass against a fresh disk-backed store.
    Fig6Cold,
    /// The same pass against a store reopened over a filled directory.
    Fig6WarmDisk,
    /// 64-point requests to one daemon over a warm store.
    ServeWarm,
    /// The Fig. 6 pass through a fleet of cold daemons.
    FleetCold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Cold,
        Workload::Fig6WarmDisk,
        Workload::ServeWarm,
        Workload::FleetCold,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Cold => "fig6-cold",
            Workload::Fig6WarmDisk => "fig6-warm-disk",
            Workload::ServeWarm => "serve-warm",
            Workload::FleetCold => "fleet-cold",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall-clock seconds of each timed pass.
    pub sweep_s: Vec<f64>,
    /// Points delivered per second by each timed pass.
    pub points_per_s: Vec<f64>,
    /// Milliseconds of each 64-point request, one round (1,280
    /// requests, all pairs) per timed pass.
    pub rpc_ms: Vec<Vec<f64>>,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Operations, failures and points over the whole run.
    pub tally: Tally,
}

/// The run's inputs: pairs in seeded order, the space, the reference.
pub struct Inputs {
    /// Pairs in the order the seed chose.
    pub order: Vec<Pair>,
    /// The paper's 5,120-variant space.
    pub space: SearchSpace,
    /// The recorded reference, indexed by canonical pair index.
    pub want: Vec<Expected>,
    /// The run's seed.
    pub seed: u64,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let all = pairs();
        let order = permutation(seed, all.len())
            .into_iter()
            .map(|i| all[i])
            .collect();
        Inputs {
            order,
            space: SearchSpace::paper_default(),
            want: expected(),
            seed,
        }
    }

    /// The seeded order of one pair's 64-point requests.
    pub fn request_order(&self, pair: &Pair, requests: usize) -> Vec<usize> {
        let salt = (pair.index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        permutation(self.seed ^ salt, requests)
    }
}

/// Asks for all of a pair's variants in 64-point requests, in the
/// seeded request order, timing each request; the delivered
/// measurements must match the pair's recorded exhaustive digest.
pub fn request_pair<S: Source>(inp: &Inputs, pair: &Pair, src: &S, lat_ms: &mut Vec<f64>) -> Tally {
    let points: Vec<_> = inp.space.iter().collect();
    let chunks: Vec<_> = points.chunks(BATCH_POINTS).collect();
    let digest = Digest::default();
    let mut tally = Tally::default();
    for c in inp.request_order(pair, chunks.len()) {
        tally.attempted += 1;
        let t = Instant::now();
        match src.fetch(chunks[c]) {
            Some(ms) => {
                lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tally.points += ms.len() as u64;
                digest.fold(&ms);
            }
            None => tally.failed += 1,
        }
    }
    let name = format!("{} on {}", pair.kernel.name(), pair.gpu.spec().name);
    if let Some(e) = src.take_error() {
        tally.failed += 1;
        tally.error(format!("{name}: {e}"));
    }
    if digest.value() != inp.want[pair.index].exhaustive {
        tally.failed = tally.attempted;
        tally.error(format!(
            "{name}: request digest does not match the in-process reference"
        ));
    }
    tally
}

/// 64-point requests for every pair against an in-process store.
fn local_requests(inp: &Inputs, store: &ArtifactStore, lat_ms: &mut Vec<f64>) -> Tally {
    let mut tally = Tally::default();
    for pair in &inp.order {
        let sizes = pair.sizes();
        let kid = pair.kernel;
        let builder = move |n: u64| kid.ast(n);
        let ev = store.evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes);
        tally.merge(request_pair(inp, pair, &ev, lat_ms));
    }
    tally
}

/// The `serve-warm` loop: client threads take the next pair, open a
/// fresh [`RemoteEvaluator`] (so nothing is answered from a client
/// cache) and ask for its variants in 64-point requests.
pub fn serve_pass(inp: &Inputs, addr: &str, lat_ms: &mut Vec<f64>) -> Tally {
    let next = AtomicUsize::new(0);
    let out = Mutex::new((Tally::default(), Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS {
            s.spawn(|| {
                let mut lat = Vec::new();
                let mut tally = Tally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(pair) = inp.order.get(i) else { break };
                    match Client::connect(addr) {
                        Ok(client) => {
                            let ev = RemoteEvaluator::new(client, scope_of(pair));
                            tally.merge(request_pair(inp, pair, &ev, &mut lat));
                            tally.retries += ev.client().retries();
                        }
                        Err(e) => {
                            tally.attempted += 1;
                            tally.failed += 1;
                            tally.error(format!("connect {addr}: {e}"));
                        }
                    }
                }
                let mut o = out.lock().expect("serve tally lock");
                o.0.merge(tally);
                o.1.extend(lat);
            });
        }
    });
    let (tally, lat) = out.into_inner().expect("serve tally lock");
    lat_ms.extend(lat);
    tally
}

/// One scope evaluated through a plain [`Client`]: a single `evaluate`
/// RPC per request, as a fleet worker sends each chunk.
struct ClientSource {
    client: Client,
    scope: oriole_service::EvalScope,
}

impl Source for ClientSource {
    type M = oriole_tuner::Measurement;
    fn fetch(&self, points: &[oriole_codegen::TuningParams]) -> Option<Vec<Self::M>> {
        self.client
            .evaluate(&self.scope, points)
            .ok()
            .map(|(_, ms)| ms)
    }
}

/// Pairs per `fleet-cold` request round: a rotating quarter of the 16,
/// so that a round costs a fraction of a pass and a run holds more
/// timed passes.
const FLEET_ROUND_PAIRS: usize = 4;

/// 64-point requests for `pairs` to the fleet daemon that is each pair's
/// home shard, over one connection per pair.
fn fleet_requests(inp: &Inputs, pairs: &[Pair], spec: &FleetSpec, lat_ms: &mut Vec<f64>) -> Tally {
    let mut tally = Tally::default();
    for pair in pairs {
        let scope = scope_of(pair);
        let addr = &spec.shards()[spec.home_shard(&scope)];
        match Client::connect(addr) {
            Ok(client) => tally.merge(request_pair(
                inp,
                pair,
                &ClientSource { client, scope },
                lat_ms,
            )),
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally.error(format!("connect {addr}: {e}"));
            }
        }
    }
    tally
}

/// A scratch directory under the run's work directory, emptied.
pub fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let d = work.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create a scratch directory in the checkout");
    d
}

/// Spawns `n` daemons over fresh memory stores, splitting the cores.
pub fn spawn_fleet(n: usize) -> Result<(Vec<Daemon>, FleetSpec), String> {
    let per = (cores() / n).max(1);
    let mut daemons = Vec::new();
    for _ in 0..n {
        daemons.push(Daemon::spawn(ArtifactStore::new(), per).map_err(|e| e.to_string())?);
    }
    let spec = FleetSpec::from_addrs(daemons.iter().map(|d| d.addr.clone()).collect())?;
    Ok((daemons, spec))
}

/// Stops every daemon, recording failures to stop as failed operations.
pub fn stop_all(daemons: Vec<Daemon>, tally: &mut Tally) {
    for d in daemons {
        tally.attempted += 1;
        if let Err(e) = d.stop() {
            tally.failed += 1;
            tally.error(format!("daemon shutdown: {e}"));
        }
    }
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Fills a fresh in-memory store with every pair's 5,120 measurements.
pub fn warm_store(inp: &Inputs) -> ArtifactStore {
    let store = ArtifactStore::new();
    for pair in &inp.order {
        let sizes = pair.sizes();
        let kid = pair.kernel;
        let builder = move |n: u64| kid.ast(n);
        store
            .evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes)
            .evaluate_space(&inp.space);
    }
    store
}

/// Starts a new round of request latencies.
fn new_round(rounds: &mut Vec<Vec<f64>>) -> &mut Vec<f64> {
    rounds.push(Vec::new());
    rounds.last_mut().expect("a round was just pushed")
}

/// Runs `pass` until `seconds` have been measured (at least
/// [`MIN_PASSES`] times), recording each pass's time and throughput.
fn timed_passes(m: &mut Measured, seconds: f64, mut pass: impl FnMut() -> (Tally, f64)) {
    let start = Instant::now();
    while m.sweep_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (tally, dt) = pass();
        m.sweep_s.push(dt);
        m.points_per_s.push(tally.points as f64 / dt);
        m.tally.merge(tally);
    }
}

/// Fails the run unless the timed store or daemon computed nothing.
fn expect_no_compute(tally: &mut Tally, what: &str, computed: usize) {
    tally.attempted += 1;
    if computed != 0 {
        tally.failed += 1;
        tally.error(format!(
            "{what} computed {computed} points; a warm workload must compute none"
        ));
    }
}

/// Runs workload `w` untraced for `seconds`, using `work` for scratch.
pub fn run(w: Workload, inp: &Inputs, seconds: f64, work: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let cold = |store: &ArtifactStore| local_pass(store, &inp.order, &inp.space, &inp.want, None);
    match w {
        Workload::Fig6Cold => {
            // Set-up: a discarded cold pass warms the process (code,
            // allocator), then an empty store directory is made.
            for _ in 0..SETUPS {
                let (tally, dt) = timed(|| {
                    let dir = fresh_dir(work, "warmup");
                    let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
                    let t = cold(&store);
                    drop(store);
                    let _ = std::fs::remove_dir_all(&dir);
                    fresh_dir(work, "cold");
                    Ok::<_, String>(t)
                });
                m.tally.merge(tally?);
                m.setup_s.push(dt);
            }
            let (mut lat, mut probe) = (Vec::new(), Tally::default());
            timed_passes(&mut m, seconds, || {
                let dir = fresh_dir(work, "cold");
                let ((store, tally), dt) = timed(|| {
                    let store = ArtifactStore::with_disk(&dir).expect("open the cold store");
                    let t = cold(&store);
                    (store, t)
                });
                probe.merge(local_requests(inp, &store, new_round(&mut lat)));
                (tally, dt)
            });
            m.tally.merge(probe);
            m.rpc_ms = lat;
        }
        Workload::Fig6WarmDisk => {
            // Set-up: a cold pass fills the store directory.
            let mut dir = PathBuf::new();
            for i in 0..SETUPS {
                let (tally, dt) = timed(|| {
                    dir = fresh_dir(work, &format!("disk{i}"));
                    let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
                    Ok::<_, String>(cold(&store))
                });
                m.tally.merge(tally?);
                m.setup_s.push(dt);
                if i + 1 < SETUPS {
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            let open = || ArtifactStore::with_disk(&dir).expect("reopen the filled store");
            let store = open();
            let mut pre = cold(&store);
            expect_no_compute(
                &mut pre,
                "the warm disk store",
                store.stats().unique_evaluations,
            );
            m.tally.merge(pre);
            let (mut lat, mut probe) = (Vec::new(), Tally::default());
            timed_passes(&mut m, seconds, || {
                let ((store, mut tally), dt) = timed(|| {
                    let store = open();
                    let t = cold(&store);
                    (store, t)
                });
                expect_no_compute(
                    &mut tally,
                    "the warm disk store",
                    store.stats().unique_evaluations,
                );
                probe.merge(local_requests(inp, &store, new_round(&mut lat)));
                (tally, dt)
            });
            m.tally.merge(probe);
            m.rpc_ms = lat;
        }
        Workload::ServeWarm => {
            // Set-up: warm a store in-process, then put a daemon over it.
            let mut daemon = None;
            for i in 0..SETUPS {
                let (d, dt) = timed(|| {
                    let d = Daemon::spawn(warm_store(inp), cores()).map_err(|e| e.to_string())?;
                    Client::connect(&d.addr)
                        .and_then(|c| c.ping())
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>(d)
                });
                m.setup_s.push(dt);
                let d = d?;
                if i + 1 < SETUPS {
                    stop_all(vec![d], &mut m.tally);
                } else {
                    daemon = Some(d);
                }
            }
            let daemon = daemon.expect("the last set-up keeps its daemon");
            let before = daemon.store.stats().unique_evaluations;
            let mut pre = serve_pass(inp, &daemon.addr, &mut Vec::new());
            let computed = daemon.store.stats().unique_evaluations - before;
            expect_no_compute(&mut pre, "the warm daemon", computed);
            m.tally.merge(pre);
            let shed_before = Client::connect(&daemon.addr)
                .and_then(|c| c.stats())
                .map_err(|e| e.to_string())?
                .shed_busy;
            let mut lat = Vec::new();
            timed_passes(&mut m, seconds, || {
                let round = new_round(&mut lat);
                let (mut tally, dt) = timed(|| serve_pass(inp, &daemon.addr, round));
                let computed = daemon.store.stats().unique_evaluations - before;
                expect_no_compute(&mut tally, "the warm daemon", computed);
                (tally, dt)
            });
            m.rpc_ms = lat;
            let stats = Client::connect(&daemon.addr)
                .and_then(|c| c.stats())
                .map_err(|e| e.to_string())?;
            let shed = stats.shed_busy - shed_before;
            m.tally.attempted += shed;
            m.tally.failed += shed;
            stop_all(vec![daemon], &mut m.tally);
        }
        Workload::FleetCold => {
            // Set-up: spawn the fleet and run a discarded cold pass
            // through it, so the process is warm; every timed pass then
            // gets fresh, empty daemons.
            for _ in 0..SETUPS {
                let (r, dt) = timed(|| {
                    let (daemons, spec) = spawn_fleet(FLEET_SHARDS)?;
                    let mut t = fleet_pass(&spec, &inp.order, &inp.space, &inp.want, |_| {});
                    stop_all(daemons, &mut t);
                    Ok::<_, String>(t)
                });
                m.tally.merge(r?);
                m.setup_s.push(dt);
            }
            let (mut lat, mut probe) = (Vec::new(), Tally::default());
            let mut spawn_err = None;
            timed_passes(&mut m, seconds, || match spawn_fleet(FLEET_SHARDS) {
                Ok((daemons, spec)) => {
                    let (mut t, dt) =
                        timed(|| fleet_pass(&spec, &inp.order, &inp.space, &inp.want, |_| {}));
                    let k = lat.len() * FLEET_ROUND_PAIRS % inp.order.len();
                    let pairs = &inp.order[k..k + FLEET_ROUND_PAIRS];
                    probe.merge(fleet_requests(inp, pairs, &spec, new_round(&mut lat)));
                    stop_all(daemons, &mut t);
                    (t, dt)
                }
                Err(e) => {
                    spawn_err = Some(e);
                    (Tally::default(), f64::NAN)
                }
            });
            if let Some(e) = spawn_err {
                return Err(e);
            }
            m.tally.merge(probe);
            m.rpc_ms = lat;
        }
    }
    Ok(m)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
