//! One Fig. 6 pass — exhaustive, static-pruned and rule-based searches
//! over every pair — driven through any evaluation path (in-process
//! store, one daemon, a fleet, or the traced replay), with every
//! delivered measurement folded into the correctness gate.

use crate::gate::{check_pair, Digest, Expected, Pair, PairOutcome};
use crate::trace::Tracer;
use oriole_arch::OccupancyTable;
use oriole_codegen::{compile, TuningParams};
use oriole_core::{analyze_in, StaticAnalysis};
use oriole_fleet::{FleetEvaluator, FleetSpec};
use oriole_service::{Client, EvalScope, RemoteEvaluator, ServeConfig, ServeSummary, Server};
use oriole_tuner::{
    ArtifactStore, EvalProtocol, Evaluator, ExhaustiveSearch, Measurement, Oracle, PruneLevel,
    SearchSpace, Searcher, StaticSearch,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Points per `evaluate` request: the CLI's default `--batch-points`.
pub const BATCH_POINTS: usize = 64;

/// An evaluation path the gate can read whole measurements from.
pub trait Source: Sync {
    /// The measurement handle the path returns.
    type M: Borrow<Measurement>;
    /// Evaluates `points`, results in input order; `None` on a failure
    /// the path latched.
    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Self::M>>;
    /// The path's latched error, if any, once the search is done.
    fn take_error(&self) -> Option<String> {
        None
    }
}

impl Source for Evaluator<'_> {
    type M = Arc<Measurement>;
    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Arc<Measurement>>> {
        Some(self.evaluate_batch(points))
    }
}

impl Source for RemoteEvaluator {
    type M = Measurement;
    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        self.evaluate_batch(points)
    }
    fn take_error(&self) -> Option<String> {
        RemoteEvaluator::take_error(self)
    }
}

impl Source for FleetEvaluator {
    type M = Measurement;
    fn fetch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        self.evaluate_batch(points)
    }
    fn take_error(&self) -> Option<String> {
        FleetEvaluator::take_error(self)
    }
}

/// The oracle a search queries: forwards to a [`Source`], folds every
/// delivered measurement into a digest and counts requests.
struct GateOracle<'a, S: Source> {
    src: &'a S,
    tr: Option<&'a Tracer>,
    digest: Digest,
    requests: AtomicU64,
    points: AtomicU64,
    failed: AtomicU64,
}

impl<'a, S: Source> GateOracle<'a, S> {
    /// A gate over `src`, tracing each request when `tr` is set.
    fn new(src: &'a S, tr: Option<&'a Tracer>) -> Self {
        GateOracle {
            src,
            tr,
            digest: Digest::default(),
            requests: AtomicU64::new(0),
            points: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }
}

/// Runs `f` inside a span when tracing.
pub fn traced<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

impl<S: Source> Oracle for GateOracle<'_, S> {
    fn eval(&self, params: TuningParams) -> f64 {
        self.eval_many(&[params])[0]
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.points
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        match traced(self.tr, "tuner.eval", || self.src.fetch(points)) {
            Some(ms) => {
                traced(self.tr, "bench.digest", || self.digest.fold(&ms));
                ms.iter().map(|m| m.borrow().time_ms).collect()
            }
            None => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                vec![f64::INFINITY; points.len()]
            }
        }
    }
}

/// What a pass (or part of one) did, for `attempted`/`failed` and the
/// throughput metric.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued: search requests or RPCs.
    pub attempted: u64,
    /// Operations that failed or delivered results the gate rejected.
    pub failed: u64,
    /// Points delivered, counted once per search or request.
    pub points: u64,
    /// Points the static and rule-based searches kept.
    pub pruned_points: u64,
    /// Points of the unpruned spaces behind them.
    pub full_points: u64,
    /// Client retries reported by the service clients.
    pub retries: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one failure message (the first eight are kept).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.points += other.points;
        self.pruned_points += other.pruned_points;
        self.full_points += other.full_points;
        self.retries += other.retries;
        for e in other.errors {
            self.error(e);
        }
    }
}

/// The Fig. 6 probe: compile the mid-size variant at `(128, 48)` and
/// analyze it against the device's occupancy table.
fn probe_analysis(pair: &Pair, table: &OccupancyTable, tr: Option<&Tracer>) -> StaticAnalysis {
    let sizes = pair.sizes();
    let n = sizes[sizes.len() / 2];
    let ast = traced(tr, "kernels.ast", || pair.kernel.ast(n));
    let probe = traced(tr, "codegen.compile", || {
        compile(&ast, pair.gpu.spec(), TuningParams::with_geometry(128, 48))
    })
    .expect("the Fig. 6 probe variant compiles");
    traced(tr, "core.analyze", || analyze_in(table, &probe, n))
}

/// Runs one pair's three searches through fresh sources from `make`,
/// checks the outcome against `want` and tallies it.
pub fn fig6_pair<S: Source>(
    pair: &Pair,
    space: &SearchSpace,
    table: &OccupancyTable,
    want: &Expected,
    tr: Option<&Tracer>,
    make: &dyn Fn() -> S,
    mut done: impl FnMut(&S),
) -> (Tally, PairOutcome) {
    let mut tally = Tally::default();
    let mut out = PairOutcome::default();
    let mut finish = |gate: &GateOracle<'_, S>, src: &S, tally: &mut Tally| {
        tally.attempted += gate.requests.load(Ordering::Relaxed);
        tally.failed += gate.failed.load(Ordering::Relaxed);
        tally.points += gate.points.load(Ordering::Relaxed);
        if let Some(e) = src.take_error() {
            tally.failed += 1;
            tally.error(format!(
                "{} on {}: {e}",
                pair.kernel.name(),
                pair.gpu.spec().name
            ));
        }
        done(src);
        gate.digest.value()
    };

    out.exhaustive = {
        let src = traced(tr, "tuner.store.open", make);
        let gate = GateOracle::new(&src, tr);
        traced(tr, "tuner.search.exhaustive", || {
            ExhaustiveSearch.search(space, &gate, usize::MAX)
        });
        finish(&gate, &src, &mut tally)
    };

    let analysis = probe_analysis(pair, table, tr);
    for (level, name) in [
        (PruneLevel::Static, "tuner.search.static"),
        (PruneLevel::RuleBased, "tuner.search.rules"),
    ] {
        let src = traced(tr, "tuner.store.open", make);
        let gate = GateOracle::new(&src, tr);
        let mut search = StaticSearch::new(analysis.clone(), level);
        traced(tr, name, || search.search(space, &gate, usize::MAX));
        let digest = finish(&gate, &src, &mut tally);
        let report = search.report.expect("the static search ran");
        let kept = report.threads_kept.len();
        tally.pruned_points += report.pruned_space as u64;
        tally.full_points += report.full_space as u64;
        let bits = report.improvement.to_bits();
        match level {
            PruneLevel::Static => {
                (out.static_, out.static_kept, out.static_improvement_bits) = (digest, kept, bits)
            }
            PruneLevel::RuleBased => {
                (out.rules, out.rules_kept, out.rules_improvement_bits) = (digest, kept, bits)
            }
        }
    }
    if let Err(e) = check_pair(pair, &out, want) {
        // Every search of a pair whose results are wrong counts as failed.
        tally.failed = tally.attempted;
        tally.error(e);
    }
    (tally, out)
}

/// One Fig. 6 pass over `pairs` (already in the seeded order) against
/// an in-process store.
pub fn local_pass(
    store: &ArtifactStore,
    pairs: &[Pair],
    space: &SearchSpace,
    want: &[Expected],
    tr: Option<&Tracer>,
) -> Tally {
    let mut tally = Tally::default();
    for pair in pairs {
        let run = || {
            let sizes = pair.sizes();
            let kid = pair.kernel;
            let builder = move |n: u64| kid.ast(n);
            let make = || store.evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes);
            let ctx = store.context(pair.gpu.spec());
            fig6_pair(
                pair,
                space,
                ctx.occupancy_table(),
                &want[pair.index],
                tr,
                &make,
                |_| {},
            )
            .0
        };
        let t = match tr {
            Some(t) => t.request(pair.index as u32, || t.span("bench.pair", run)),
            None => run(),
        };
        tally.merge(t);
    }
    tally
}

/// The measurement scope of a pair under the paper's protocol.
pub fn scope_of(pair: &Pair) -> EvalScope {
    EvalScope {
        kernel: pair.kernel.name().to_string(),
        gpu: pair.gpu.spec().clone(),
        sizes: pair.sizes(),
        protocol: EvalProtocol::default(),
    }
}

/// One Fig. 6 pass through a fleet: each search opens its own
/// [`FleetEvaluator`], as one `tune --fleet` invocation would; the
/// static analysis runs client-side. `done` sees each evaluator's
/// statistics.
pub fn fleet_pass(
    spec: &FleetSpec,
    pairs: &[Pair],
    space: &SearchSpace,
    want: &[Expected],
    mut done: impl FnMut(&FleetEvaluator),
) -> Tally {
    let client = ArtifactStore::new();
    let mut tally = Tally::default();
    for pair in pairs {
        let scope = scope_of(pair);
        let make = || FleetEvaluator::new(spec.clone(), scope.clone());
        let ctx = client.context(pair.gpu.spec());
        tally.merge(
            fig6_pair(
                pair,
                space,
                ctx.occupancy_table(),
                &want[pair.index],
                None,
                &make,
                &mut done,
            )
            .0,
        );
    }
    tally
}

/// A daemon running in this process on a loopback port.
pub struct Daemon {
    /// Its address.
    pub addr: String,
    /// The store it serves (a shared handle).
    pub store: ArtifactStore,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Daemon {
    /// Binds a daemon over `store` with `max_inflight` evaluation slots.
    pub fn spawn(store: ArtifactStore, max_inflight: usize) -> std::io::Result<Daemon> {
        let cfg = ServeConfig {
            max_inflight,
            ..ServeConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", store.clone(), cfg)?;
        let addr = server.local_addr()?.to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            store,
            handle,
        })
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn stop(self) -> Result<ServeSummary, String> {
        let client = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        match self.handle.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
