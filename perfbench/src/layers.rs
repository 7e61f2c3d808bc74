//! The traced run: one untraced pass read through the stats APIs, then
//! traced replay passes for as long as the run lasts, turned into the
//! per-layer table and the per-layer metrics.

use crate::fig6::{cores, fig6_pair, fleet_pass, local_pass, traced, Daemon, Tally, BATCH_POINTS};
use crate::gate::{expected_lowerings, Digest};
use crate::replay::{connect, decode_tier, rpc, FleetReplay, ReplayStore, Wire};
use crate::stats::{median, Ratio};
use crate::trace::{layer_of, self_times, wall_share, write_csv, Span, Tracer};
use crate::workloads::{
    fresh_dir, serve_pass, spawn_fleet, stop_all, timed, warm_store, Inputs, Workload,
    CLIENT_THREADS, FLEET_SHARDS,
};
use oriole_codegen::PhaseTelemetry;
use oriole_service::{Client, ServiceStats};
use oriole_sim::{ModelId, ModelStats};
use oriole_tuner::{ArtifactStore, DiskStats, EvalProtocol, StoreStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers of the table, in pipeline order.
const LAYERS: [&str; 8] = [
    "kernels",
    "codegen",
    "sim",
    "core",
    "tuner",
    "tuner::persist",
    "service",
    "fleet",
];

/// The outcome of a traced run.
pub struct TracedRun {
    /// The human-readable layer table.
    pub table: String,
    /// Every per-layer metric: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations and failures of the run.
    pub tally: Tally,
}

/// Counters read from the public stats APIs after the untraced pass.
#[derive(Debug, Default, Clone)]
struct Counters {
    pass_s: f64,
    points: u64,
    unique: u64,
    pruned: u64,
    full: u64,
    model: ModelStats,
    phases: PhaseTelemetry,
    disk: DiskStats,
    store_bytes: u64,
    service: ServiceStats,
    retries: u64,
    fleet_chunks: u64,
    fleet_stolen: u64,
    fleet_rebalanced: u64,
    fleet_lost: u64,
    fleet_shard_time: Vec<Duration>,
    daemon_lowerings: u64,
    daemon_unique: u64,
}

fn sim_stats(s: &StoreStats) -> ModelStats {
    s.model(ModelId::Simulator).copied().unwrap_or_default()
}

fn model_delta(after: &ModelStats, before: &ModelStats) -> ModelStats {
    ModelStats {
        model: after.model,
        occ_hits: after.occ_hits - before.occ_hits,
        occ_misses: after.occ_misses - before.occ_misses,
        occ_entries: after.occ_entries,
        mix_hits: after.mix_hits - before.mix_hits,
        mix_misses: after.mix_misses - before.mix_misses,
        report_hits: after.report_hits - before.report_hits,
        report_misses: after.report_misses - before.report_misses,
    }
}

fn model_sum(a: &ModelStats, b: &ModelStats) -> ModelStats {
    ModelStats {
        model: a.model,
        occ_hits: a.occ_hits + b.occ_hits,
        occ_misses: a.occ_misses + b.occ_misses,
        occ_entries: a.occ_entries + b.occ_entries,
        mix_hits: a.mix_hits + b.mix_hits,
        mix_misses: a.mix_misses + b.mix_misses,
        report_hits: a.report_hits + b.report_hits,
        report_misses: a.report_misses + b.report_misses,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn daemon_stats(addr: &str) -> Result<ServiceStats, String> {
    Client::connect(addr)
        .and_then(|c| c.stats())
        .map_err(|e| e.to_string())
}

/// The untraced pass against an in-process store, read through
/// `StoreStats`, `ModelStats`, `DiskStats` and `PhaseTelemetry`.
fn local_counters(inp: &Inputs, store: &ArtifactStore, dir: &Path) -> (Tally, Counters) {
    let before = store.stats();
    let phases = oriole_codegen::profile::telemetry();
    let (tally, dt) = timed(|| local_pass(store, &inp.order, &inp.space, &inp.want, None));
    let after = store.stats();
    let c = Counters {
        pass_s: dt,
        points: tally.points,
        unique: (after.unique_evaluations - before.unique_evaluations) as u64,
        pruned: tally.pruned_points,
        full: tally.full_points,
        model: model_delta(&sim_stats(&after), &sim_stats(&before)),
        phases: oriole_codegen::profile::telemetry().since(&phases),
        disk: after.disk.unwrap_or_default(),
        store_bytes: dir_bytes(dir),
        ..Counters::default()
    };
    (tally, c)
}

/// Per-name totals of one traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct NameAgg {
    calls: u64,
    self_ns: u64,
    incl_ns: u64,
    wall_ns: f64,
}

/// Work counts of one traced pass, for the per-call and per-record
/// metrics.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    points: u64,
    wire_bytes: u64,
    wire_points: u64,
    tasks: u64,
    encoded: u64,
    decoded: u64,
}

/// One traced pass, reduced.
#[derive(Debug, Default, Clone)]
struct PassAgg {
    names: BTreeMap<&'static str, NameAgg>,
    pass_ns: f64,
    counts: Counts,
}

impl PassAgg {
    fn of(spans: &[Span]) -> PassAgg {
        let st = self_times(spans);
        let share = wall_share(spans, &st);
        let mut agg = PassAgg::default();
        for (i, s) in spans.iter().enumerate() {
            let e = agg.names.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += st.self_ns[i];
            e.incl_ns += s.dur();
            e.wall_ns += share[i];
            if s.name == "bench.pass" {
                agg.pass_ns += s.dur() as f64;
            }
        }
        agg
    }

    fn get(&self, name: &str) -> NameAgg {
        self.names.get(name).copied().unwrap_or_default()
    }

    fn layer_ms(&self, layer: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        self.names
            .iter()
            .filter(|(n, _)| layer_of(n) == layer)
            .map(|(_, a)| a.wall_ns)
            .sum::<f64>()
            / 1e6
            + 0.0
    }

    fn busy_ms(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e6
    }

    fn mean_us(&self, name: &str) -> f64 {
        let a = self.get(name);
        if a.calls == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.calls as f64 / 1e3
        }
    }

    fn traced_ms(&self) -> f64 {
        self.pass_ns / 1e6
    }
}

/// Repeats a traced pass until `seconds` have passed (at least once).
/// The first pass's spans stay in memory and are written to `csv` when
/// the passes are over. Returns the tally, one reduction per pass, and
/// the number of spans written.
fn traced_passes(
    seconds: f64,
    csv: &Path,
    mut pass: impl FnMut(&Tracer) -> Result<(Tally, Counts), String>,
) -> Result<(Tally, Vec<PassAgg>, usize), String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut aggs = Vec::new();
    let mut first = None;
    while aggs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let tr = Tracer::new();
        let (t, counts) = pass(&tr)?;
        let spans = tr.finish();
        let mut agg = PassAgg::of(&spans);
        agg.counts = Counts {
            points: t.points,
            ..counts
        };
        tally.merge(t);
        aggs.push(agg);
        first.get_or_insert(spans);
    }
    let spans = first.unwrap_or_default();
    write_csv(csv, &spans).map_err(|e| format!("write {}: {e}", csv.display()))?;
    Ok((tally, aggs, spans.len()))
}

fn wire_counts(wire: &Wire) -> Counts {
    Counts {
        wire_bytes: wire.response_bytes.load(Ordering::Relaxed),
        wire_points: wire.points.load(Ordering::Relaxed),
        tasks: wire.tasks.load(Ordering::Relaxed),
        ..Counts::default()
    }
}

/// Untraced passes whose median time the table compares against.
const REAL_PASSES: usize = 3;

/// Runs `real` [`REAL_PASSES`] times: the counters of the last run with
/// the median pass time of all.
fn real_passes(
    tally: &mut Tally,
    mut real: impl FnMut() -> Result<(Tally, Counters), String>,
) -> Result<Counters, String> {
    let mut times = Vec::new();
    let mut last = Counters::default();
    for _ in 0..REAL_PASSES {
        let (t, c) = real()?;
        tally.merge(t);
        times.push(c.pass_s);
        last = c;
    }
    last.pass_s = median(&times);
    Ok(last)
}

/// Runs workload `w` traced for `seconds`; spans of the first traced
/// pass are written to `out/trace-<workload>.csv`.
pub fn traced_run(
    w: Workload,
    inp: &Inputs,
    seconds: f64,
    work: &Path,
    out: &Path,
) -> Result<TracedRun, String> {
    let mut tally = Tally::default();
    let csv = out.join(format!("trace-{}.csv", w.name()));
    let (counters, (t, aggs, spans)) = match w {
        Workload::Fig6Cold => {
            let counters = real_passes(&mut tally, || {
                let dir = fresh_dir(work, "cold");
                let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
                Ok(local_counters(inp, &store, &dir))
            })?;
            let passes = traced_passes(seconds, &csv, |tr| {
                let rs = ReplayStore::new(Some(fresh_dir(work, "trace")), true);
                let t = tr.span("bench.pass", || {
                    let mut tally = Tally::default();
                    for pair in &inp.order {
                        let make = || rs.evaluator(pair, tr);
                        let ctx = rs.context(pair.gpu);
                        let want = &inp.want[pair.index];
                        let (t, _) = tr.request(pair.index as u32, || {
                            tr.span("bench.pair", || {
                                fig6_pair(
                                    pair,
                                    &inp.space,
                                    ctx.occupancy_table(),
                                    want,
                                    Some(tr),
                                    &make,
                                    |_| {},
                                )
                            })
                        });
                        tally.merge(t);
                    }
                    tally
                });
                let encoded = rs.encoded.load(Ordering::Relaxed);
                Ok((
                    t,
                    Counts {
                        encoded,
                        ..Counts::default()
                    },
                ))
            })?;
            (counters, passes)
        }
        Workload::Fig6WarmDisk => {
            let dir = fresh_dir(work, "disk");
            let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
            tally.merge(local_pass(&store, &inp.order, &inp.space, &inp.want, None));
            drop(store);
            let counters = real_passes(&mut tally, || {
                let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
                Ok(local_counters(inp, &store, &dir))
            })?;
            let protocol = EvalProtocol::default();
            let passes = traced_passes(seconds, &csv, |tr| {
                let store = ArtifactStore::with_disk(&dir).map_err(|e| e.to_string())?;
                // The first open of a pair's scope loads its tier file;
                // its decode is replayed after the pass and injected
                // into the open span.
                let loads = Mutex::new(Vec::new());
                let t = tr.span("bench.pass", || {
                    let mut tally = Tally::default();
                    for pair in &inp.order {
                        let sizes = pair.sizes();
                        let kid = pair.kernel;
                        let builder = move |n: u64| kid.ast(n);
                        let opened = std::cell::Cell::new(false);
                        let make = || {
                            let t0 = tr.now();
                            let ev = store.evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes);
                            if !opened.replace(true) {
                                let scope = oriole_tuner::persist::scope_text(
                                    kid.name(),
                                    pair.gpu.spec(),
                                    &sizes,
                                    &protocol,
                                );
                                let path = dir.join(oriole_tuner::persist::tier_file_name(&scope));
                                let load = (tr.current(), t0, tr.now(), tr.current_req(), path);
                                loads.lock().expect("loads lock").push(load);
                            }
                            ev
                        };
                        let ctx = store.context(pair.gpu.spec());
                        let want = &inp.want[pair.index];
                        let (t, _) = tr.request(pair.index as u32, || {
                            tr.span("bench.pair", || {
                                fig6_pair(
                                    pair,
                                    &inp.space,
                                    ctx.occupancy_table(),
                                    want,
                                    Some(tr),
                                    &make,
                                    |_| {},
                                )
                            })
                        });
                        tally.merge(t);
                    }
                    tally
                });
                let mut decoded = 0;
                for (parent, t0, t1, req, path) in loads.into_inner().expect("loads lock") {
                    tr.request(req, || {
                        let (n, spans) = tr.capture(|| decode_tier(tr, &path));
                        decoded += n;
                        tr.inject(parent, t0, t1, spans);
                    });
                }
                Ok((
                    t,
                    Counts {
                        decoded,
                        ..Counts::default()
                    },
                ))
            })?;
            (counters, passes)
        }
        Workload::ServeWarm => {
            let daemon = Daemon::spawn(warm_store(inp), cores()).map_err(|e| e.to_string())?;
            // The daemon is stopped whether or not the passes succeed.
            let run = |tally: &mut Tally| {
                let counters = real_passes(tally, || {
                    let before = daemon_stats(&daemon.addr)?;
                    let store_before = daemon.store.stats();
                    let (t, dt) = timed(|| serve_pass(inp, &daemon.addr, &mut Vec::new()));
                    let after = daemon_stats(&daemon.addr)?;
                    let store_after = daemon.store.stats();
                    let c = Counters {
                        pass_s: dt,
                        points: t.points,
                        unique: (store_after.unique_evaluations - store_before.unique_evaluations)
                            as u64,
                        model: model_delta(&sim_stats(&store_after), &sim_stats(&store_before)),
                        service: service_delta(&after, &before),
                        retries: t.retries,
                        ..Counters::default()
                    };
                    Ok((t, c))
                })?;
                let passes = traced_passes(seconds, &csv, |tr| {
                    let wire = Wire::default();
                    let t = tr.span("bench.pass", || serve_traced(tr, inp, &daemon.addr, &wire));
                    // What the daemon's handler does per request.
                    wire.replay_server(tr, &|p| {
                        let kid = p.pair.kernel;
                        let builder = move |n: u64| kid.ast(n);
                        let sizes = p.pair.sizes();
                        let ev =
                            daemon
                                .store
                                .evaluator(kid.name(), &builder, p.pair.gpu.spec(), &sizes);
                        let before = ev.unique_evaluations();
                        let ms = ev.evaluate_batch(&p.points);
                        let computed = (ev.unique_evaluations() - before) as u64;
                        (computed, ms.iter().map(|m| (**m).clone()).collect())
                    });
                    Ok((t, wire_counts(&wire)))
                })?;
                Ok::<_, String>((counters, passes))
            };
            let result = run(&mut tally);
            stop_all(vec![daemon], &mut tally);
            result?
        }
        Workload::FleetCold => {
            let counters = real_passes(&mut tally, || {
                let (daemons, spec) = spawn_fleet(FLEET_SHARDS)?;
                let phases = oriole_codegen::profile::telemetry();
                let mut c = Counters {
                    fleet_shard_time: vec![Duration::ZERO; FLEET_SHARDS],
                    ..Counters::default()
                };
                let (mut t, dt) = timed(|| {
                    fleet_pass(&spec, &inp.order, &inp.space, &inp.want, |fe| {
                        let s = fe.stats();
                        let k = s.counters();
                        c.fleet_chunks += k.batches_dispatched;
                        c.fleet_stolen += k.batches_stolen;
                        c.fleet_rebalanced += k.batches_rebalanced;
                        c.fleet_lost += k.shards_lost;
                        for (acc, shard) in c.fleet_shard_time.iter_mut().zip(&s.shards) {
                            *acc += shard.eval_time;
                        }
                    })
                });
                c.pass_s = dt;
                c.points = t.points;
                c.pruned = t.pruned_points;
                c.full = t.full_points;
                c.phases = oriole_codegen::profile::telemetry().since(&phases);
                for d in &daemons {
                    let s = d.store.stats();
                    c.daemon_unique += s.unique_evaluations as u64;
                    c.daemon_lowerings += s.front_end_lowerings as u64;
                    c.model = model_sum(&c.model, &sim_stats(&s));
                    c.service = service_sum(&c.service, &daemon_stats(&d.addr)?);
                }
                c.unique = c.daemon_unique;
                stop_all(daemons, &mut t);
                Ok((t, c))
            })?;
            let passes = traced_passes(seconds, &csv, |tr| {
                let (daemons, spec) = spawn_fleet(FLEET_SHARDS)?;
                let wire = Wire::default();
                let client = ArtifactStore::new();
                let mut t = tr.span("bench.pass", || {
                    let mut tally = Tally::default();
                    for pair in &inp.order {
                        let make = || FleetReplay::new(tr, &spec, *pair, &wire);
                        let ctx = client.context(pair.gpu.spec());
                        let want = &inp.want[pair.index];
                        let (t, _) = tr.request(pair.index as u32, || {
                            tr.span("bench.pair", || {
                                fig6_pair(
                                    pair,
                                    &inp.space,
                                    ctx.occupancy_table(),
                                    want,
                                    Some(tr),
                                    &make,
                                    |_| {},
                                )
                            })
                        });
                        tally.merge(t);
                    }
                    tally
                });
                stop_all(daemons, &mut t);
                // Each daemon's store, mirrored: the chunks a shard
                // answered are recomputed in the order it answered them.
                let mirrors: Vec<ReplayStore> = (0..FLEET_SHARDS)
                    .map(|_| ReplayStore::new(None, false))
                    .collect();
                wire.replay_server(tr, &|p| {
                    let ev = mirrors[p.shard].evaluator(&p.pair, tr);
                    let before = ev.unique();
                    let ms = ev.batch(&p.points).iter().map(|m| (**m).clone()).collect();
                    (ev.unique() - before, ms)
                });
                Ok((t, wire_counts(&wire)))
            })?;
            (counters, passes)
        }
    };
    tally.merge(t);
    let metrics = metrics(&counters, &aggs);
    let table = render(w, &counters, &aggs, spans, &csv);
    Ok(TracedRun {
        table,
        metrics,
        tally,
    })
}

fn service_delta(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: after.requests - before.requests,
        shed_busy: after.shed_busy - before.shed_busy,
        reaped_idle: after.reaped_idle - before.reaped_idle,
        reactor_wakeups: after.reactor_wakeups - before.reactor_wakeups,
        pipelined_peak: after.pipelined_peak,
        ..ServiceStats::default()
    }
}

fn service_sum(a: &ServiceStats, b: &ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: a.requests + b.requests,
        shed_busy: a.shed_busy + b.shed_busy,
        reaped_idle: a.reaped_idle + b.reaped_idle,
        reactor_wakeups: a.reactor_wakeups + b.reactor_wakeups,
        pipelined_peak: a.pipelined_peak.max(b.pipelined_peak),
        ..ServiceStats::default()
    }
}

/// The traced `serve-warm` pass: client threads replay each pair's
/// 64-point requests at the protocol level; the daemon side (lookup in
/// the daemon's own store) is replayed and injected.
fn serve_traced(tr: &Tracer, inp: &Inputs, addr: &str, wire: &Wire) -> Tally {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Tally::default());
    let parent = tr.current();
    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS {
            s.spawn(|| {
                tr.worker(parent, 0, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(pair) = inp.order.get(i) else { break };
                    let t = tr.request(pair.index as u32, || {
                        tr.span("bench.pair", || serve_pair(tr, inp, pair, addr, wire))
                    });
                    out.lock().expect("tally lock").merge(t);
                })
            });
        }
    });
    out.into_inner().expect("tally lock")
}

fn serve_pair(
    tr: &Tracer,
    inp: &Inputs,
    pair: &crate::gate::Pair,
    addr: &str,
    wire: &Wire,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match connect(tr, addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.failed += 1;
            tally.error(e);
            return tally;
        }
    };
    let points: Vec<_> = inp.space.iter().collect();
    let chunks: Vec<_> = points.chunks(BATCH_POINTS).collect();
    let digest = Digest::default();
    for c in inp.request_order(pair, chunks.len()) {
        tally.attempted += 1;
        match rpc(tr, &mut conn, pair, 0, chunks[c], wire) {
            Ok(ms) => {
                tally.points += ms.len() as u64;
                traced(Some(tr), "bench.digest", || digest.fold(&ms));
            }
            Err(e) => {
                tally.failed += 1;
                tally.error(e);
            }
        }
    }
    if digest.value() != inp.want[pair.index].exhaustive {
        tally.failed = tally.attempted;
        tally.error(format!(
            "{} on {}: traced request digest does not match the reference",
            pair.kernel.name(),
            pair.gpu.spec().name
        ));
    }
    tally
}

/// Medians over traced passes of `f`.
fn med(aggs: &[PassAgg], f: impl Fn(&PassAgg) -> f64) -> f64 {
    median(&aggs.iter().map(f).collect::<Vec<_>>())
}

fn ratio_metrics(
    out: &mut Vec<(&'static str, f64, &'static str)>,
    names: [&'static str; 3],
    r: Ratio,
) {
    out.push((names[0], r.value(), "ratio"));
    out.push((names[1], r.num as f64, "count"));
    out.push((names[2], r.den as f64, "count"));
}

fn per_record_ns(total_ns: f64, records: f64) -> f64 {
    if records == 0.0 {
        0.0
    } else {
        total_ns / records
    }
}

/// The name and unit of every per-layer metric, in `BENCHMARK.json`
/// order.
pub fn per_layer_metrics() -> Vec<(&'static str, &'static str)> {
    metrics(&Counters::default(), &[PassAgg::default()])
        .into_iter()
        .map(|(n, _, u)| (n, u))
        .collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order.
fn metrics(c: &Counters, aggs: &[PassAgg]) -> Vec<(&'static str, f64, &'static str)> {
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let untraced_ms = c.pass_s * 1e3;
    let layer_names = [
        "layer.kernels_ms",
        "layer.codegen_ms",
        "layer.sim_ms",
        "layer.core_ms",
        "layer.tuner_ms",
        "layer.tuner_persist_ms",
        "layer.service_ms",
        "layer.fleet_ms",
    ];
    for (name, layer) in layer_names.into_iter().zip(LAYERS) {
        m.push((name, med(aggs, |a| a.layer_ms(layer)), "ms"));
    }
    let sum = med(aggs, |a| LAYERS.iter().map(|l| a.layer_ms(l)).sum());
    m.push(("layer.sum_ms", sum, "ms"));
    m.push(("layer.remainder_ms", untraced_ms - sum, "ms"));
    m.push(("layer.bench_ms", med(aggs, |a| a.layer_ms("bench")), "ms"));
    m.push(("trace.untraced_ms", untraced_ms, "ms"));
    let traced_ms = med(aggs, PassAgg::traced_ms);
    m.push(("trace.traced_ms", traced_ms, "ms"));
    m.push(("trace.overhead_ms", traced_ms - untraced_ms, "ms"));

    let calls = |name: &'static str| med(aggs, |a| a.get(name).calls as f64);
    let busy = |name: &'static str| med(aggs, |a| a.busy_ms(name));
    let incl = |name: &'static str| med(aggs, |a| a.get(name).incl_ns as f64 / 1e6);
    let mean_us = |name: &'static str| med(aggs, |a| a.mean_us(name));

    m.push(("kernels.ast.calls", calls("kernels.ast"), "count"));
    m.push(("kernels.ast.busy_ms", busy("kernels.ast"), "ms"));

    m.push((
        "codegen.front_end.calls",
        calls("codegen.front_end"),
        "count",
    ));
    m.push(("codegen.front_end.busy_ms", busy("codegen.front_end"), "ms"));
    m.push((
        "codegen.specialize.calls",
        calls("codegen.specialize"),
        "count",
    ));
    m.push((
        "codegen.specialize.busy_ms",
        busy("codegen.specialize"),
        "ms",
    ));
    m.push(("codegen.compile.busy_ms", busy("codegen.compile"), "ms"));
    let p = &c.phases;
    m.push(("codegen.phase.unroll_ms", p.unroll_ns as f64 / 1e6, "ms"));
    m.push(("codegen.phase.lower_ms", p.lower_ns as f64 / 1e6, "ms"));
    m.push((
        "codegen.phase.optimize_ms",
        p.optimize_ns as f64 / 1e6,
        "ms",
    ));
    m.push((
        "codegen.phase.regalloc_ms",
        p.regalloc_ns as f64 / 1e6,
        "ms",
    ));

    m.push(("sim.measure.calls", calls("sim.measure"), "count"));
    m.push(("sim.measure.busy_ms", busy("sim.measure"), "ms"));
    m.push(("sim.dynamic_mix.calls", calls("sim.dynamic_mix"), "count"));
    m.push(("sim.dynamic_mix.busy_ms", busy("sim.dynamic_mix"), "ms"));
    m.push(("sim.program_key.busy_ms", busy("sim.program_key"), "ms"));
    let ms = &c.model;
    ratio_metrics(
        &mut m,
        [
            "sim.context.occupancy_hit_ratio",
            "sim.context.occupancy_hits",
            "sim.context.occupancy_lookups",
        ],
        Ratio::new(ms.occ_hits, ms.occ_hits + ms.occ_misses),
    );
    ratio_metrics(
        &mut m,
        [
            "sim.context.mix_hit_ratio",
            "sim.context.mix_hits",
            "sim.context.mix_lookups",
        ],
        Ratio::new(ms.mix_hits, ms.mix_hits + ms.mix_misses),
    );
    ratio_metrics(
        &mut m,
        [
            "sim.context.report_hit_ratio",
            "sim.context.report_hits",
            "sim.context.report_lookups",
        ],
        Ratio::new(ms.report_hits, ms.report_hits + ms.report_misses),
    );

    m.push(("core.analyze.calls", calls("core.analyze"), "count"));
    m.push(("core.analyze.busy_ms", busy("core.analyze"), "ms"));
    ratio_metrics(
        &mut m,
        [
            "core.prune.kept_ratio",
            "core.prune.kept_points",
            "core.prune.full_points",
        ],
        Ratio::new(c.pruned, c.full),
    );

    m.push((
        "tuner.search.exhaustive_ms",
        incl("tuner.search.exhaustive"),
        "ms",
    ));
    m.push(("tuner.search.static_ms", incl("tuner.search.static"), "ms"));
    m.push(("tuner.search.rules_ms", incl("tuner.search.rules"), "ms"));
    m.push(("tuner.eval.points", c.points as f64, "count"));
    m.push(("tuner.eval.unique", c.unique as f64, "count"));
    m.push((
        "tuner.eval.hit_ratio",
        Ratio::new(c.points.saturating_sub(c.unique), c.points).value(),
        "ratio",
    ));
    m.push((
        "tuner.store.hit_ns_per_point",
        med(aggs, |a| {
            let ns = (a.get("tuner.eval").self_ns + a.get("tuner.eval.worker").self_ns) as f64;
            per_record_ns(ns, a.counts.points as f64)
        }),
        "ns",
    ));

    m.push(("tuner.persist.open_ms", incl("tuner.store.open"), "ms"));
    m.push((
        "tuner.persist.loaded",
        c.disk.measurements_loaded as f64,
        "count",
    ));
    m.push((
        "tuner.persist.spilled",
        c.disk.measurements_written as f64,
        "count",
    ));
    m.push(("tuner.persist.rejected", c.disk.rejected as f64, "count"));
    m.push(("tuner.persist.bytes", c.store_bytes as f64, "B"));
    m.push((
        "tuner.persist.encode_ns_per_record",
        med(aggs, |a| {
            per_record_ns(
                a.get("tuner.persist.encode").self_ns as f64,
                a.counts.encoded as f64,
            )
        }),
        "ns",
    ));
    m.push((
        "tuner.persist.decode_ns_per_record",
        med(aggs, |a| {
            per_record_ns(
                a.get("tuner.persist.decode").self_ns as f64,
                a.counts.decoded as f64,
            )
        }),
        "ns",
    ));

    m.push((
        "service.codec.emit_request_us",
        mean_us("service.codec.emit_request"),
        "us",
    ));
    m.push((
        "service.codec.parse_request_us",
        mean_us("service.codec.parse_request"),
        "us",
    ));
    m.push((
        "service.codec.emit_response_us",
        mean_us("service.codec.emit_response"),
        "us",
    ));
    m.push((
        "service.codec.parse_response_us",
        mean_us("service.codec.parse_response"),
        "us",
    ));
    m.push((
        "service.codec.bytes_per_point",
        med(aggs, |a| {
            per_record_ns(a.counts.wire_bytes as f64, a.counts.wire_points as f64)
        }),
        "B",
    ));
    m.push((
        "service.frame.encode_us",
        mean_us("service.frame.encode"),
        "us",
    ));
    m.push((
        "service.frame.decode_us",
        mean_us("service.frame.decode"),
        "us",
    ));
    m.push((
        "service.transport_hop_us",
        mean_us("service.transport"),
        "us",
    ));
    let s = &c.service;
    m.push(("service.requests", s.requests as f64, "count"));
    m.push(("service.shed_busy", s.shed_busy as f64, "count"));
    m.push(("service.reaped_idle", s.reaped_idle as f64, "count"));
    m.push(("service.pipelined_peak", s.pipelined_peak as f64, "count"));
    ratio_metrics(
        &mut m,
        [
            "service.wakeups_per_request",
            "service.wakeups",
            "service.requests_counted",
        ],
        Ratio::new(s.reactor_wakeups, s.requests),
    );
    m.push(("service.client.retries", c.retries as f64, "count"));

    m.push(("fleet.chunks", c.fleet_chunks as f64, "count"));
    m.push(("fleet.stolen", c.fleet_stolen as f64, "count"));
    m.push(("fleet.rebalanced", c.fleet_rebalanced as f64, "count"));
    m.push(("fleet.shards_lost", c.fleet_lost as f64, "count"));
    let times: Vec<f64> = c
        .fleet_shard_time
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    let max = times.iter().copied().fold(0.0, f64::max);
    m.push((
        "fleet.imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    ));
    let dup = if c.daemon_lowerings > 0 {
        c.daemon_lowerings.saturating_sub(expected_lowerings())
    } else {
        0
    };
    m.push(("fleet.dup_lowerings", dup as f64, "count"));
    let distinct = if c.daemon_unique > 0 { 16 * 5120 } else { 0 };
    ratio_metrics(
        &mut m,
        [
            "fleet.compute_efficiency",
            "fleet.distinct_points",
            "fleet.daemon_unique",
        ],
        Ratio::new(distinct, c.daemon_unique),
    );
    m.push((
        "fleet.sched.ns_per_task",
        med(aggs, |a| {
            per_record_ns(a.get("fleet.sched").self_ns as f64, a.counts.tasks as f64)
        }),
        "ns",
    ));
    m.push((
        "fleet.sched.tasks",
        med(aggs, |a| a.counts.tasks as f64),
        "count",
    ));
    m
}

/// The human-readable layer table.
fn render(w: Workload, c: &Counters, aggs: &[PassAgg], spans: usize, path: &Path) -> String {
    let mut s = String::new();
    let untraced = c.pass_s * 1e3;
    let _ = writeln!(
        s,
        "layer table for {} ({} traced pass(es); {} spans of the first written to {})",
        w.name(),
        aggs.len(),
        spans,
        path.display()
    );
    let _ = writeln!(
        s,
        "  {:<16} {:>12} {:>12} {:>8}",
        "layer", "self ms", "busy ms", "share"
    );
    let mut sum = 0.0;
    for layer in LAYERS {
        let wall = med(aggs, |a| a.layer_ms(layer));
        let busy = med(aggs, |a| {
            a.names
                .iter()
                .filter(|(n, _)| layer_of(n) == layer)
                .map(|(_, x)| x.self_ns as f64)
                .sum::<f64>()
                / 1e6
                + 0.0
        });
        sum += wall;
        let _ = writeln!(
            s,
            "  {:<16} {:>12.3} {:>12.3} {:>7.1}%",
            layer,
            wall,
            busy,
            100.0 * wall / untraced
        );
    }
    let traced = med(aggs, PassAgg::traced_ms);
    let bench = med(aggs, |a| a.layer_ms("bench"));
    let _ = writeln!(s, "  {:<16} {:>12.3}", "sum of layers", sum);
    let _ = writeln!(s, "  {:<16} {:>12.3}", "untraced pass", untraced);
    let _ = writeln!(
        s,
        "  {:<16} {:>12.3} {:>12} {:>7.1}%",
        "remainder",
        untraced - sum,
        "",
        100.0 * (untraced - sum) / untraced
    );
    let _ = writeln!(
        s,
        "  {:<16} {:>12.3}   (the benchmark's own code)",
        "bench", bench
    );
    let _ = writeln!(s, "  {:<16} {:>12.3}", "traced pass", traced);
    let _ = writeln!(
        s,
        "  {:<16} {:>12.3}   (traced minus untraced)",
        "tracing overhead",
        traced - untraced
    );
    s
}
