//! Self-tests of the benchmark's own arithmetic and gate.

use oriole_perfbench::gate::{pairs, permutation};
use oriole_perfbench::layers::per_layer_metrics;
use oriole_perfbench::stats::{percentile, reportable_tail, Ratio};
use oriole_perfbench::trace::{self_times, wall_share, Span, Tracer, NO_PARENT};
use oriole_perfbench::workloads::{request_pair, Inputs};
use oriole_tuner::ArtifactStore;

fn samples(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_rule_reports_the_highest_percentile_with_ten_samples_beyond() {
    // 1,280 samples: p99 leaves 12 beyond it, p99.9 only 1.
    let t = reportable_tail(&samples(1280)).expect("enough samples");
    assert_eq!((t.p, t.samples), (99.0, 1280));
    assert_eq!(t.value, 1268.0);
    // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
    let t = reportable_tail(&samples(100)).expect("enough samples");
    assert_eq!((t.p, t.value, t.samples), (90.0, 90.0, 100));
    // 10,000 samples reach p99.9.
    assert_eq!(reportable_tail(&samples(10_000)).expect("enough").p, 99.9);
    // 20 samples: only the median has ten beyond; 19 have none.
    assert_eq!(reportable_tail(&samples(20)).expect("enough").p, 50.0);
    assert!(reportable_tail(&samples(19)).is_none());
    assert_eq!(percentile(&samples(4), 50.0), 2.0);
}

fn span(id: u32, parent: u32, thread: u32, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        req: 0,
        thread,
        synthetic: false,
        name: "t.x",
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_nested_and_back_to_back_children_once() {
    let spans = vec![
        span(0, NO_PARENT, 1, 0, 100),
        span(1, 0, 1, 10, 30), // back to back with 2
        span(2, 0, 1, 30, 50),
        span(3, 1, 1, 15, 20), // nested in 1
        span(4, 0, 2, 40, 60), // on another thread, overlapping 2
    ];
    let st = self_times(&spans);
    // Parent: 100 minus the union [10, 60].
    assert_eq!(st.self_ns, vec![50, 15, 20, 5, 20]);
    let segs = |i: u32| -> Vec<(u64, u64)> {
        st.segments
            .iter()
            .filter(|s| s.2 == i)
            .map(|s| (s.0, s.1))
            .collect()
    };
    assert_eq!(segs(0), vec![(0, 10), (60, 100)]);
    assert_eq!(segs(1), vec![(10, 15), (20, 30)]);
}

#[test]
fn wall_share_splits_concurrent_time_and_adds_up_to_covered_time() {
    let spans = vec![span(0, NO_PARENT, 1, 0, 10), span(1, NO_PARENT, 2, 5, 15)];
    let share = wall_share(&spans, &self_times(&spans));
    assert_eq!(share, vec![7.5, 7.5]);
    assert_eq!(share.iter().sum::<f64>(), 15.0);
}

#[test]
fn tracer_records_parents_requests_and_injected_children() {
    let tr = Tracer::new();
    tr.request(7, || {
        tr.span("a.outer", || {
            tr.span("b.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let (id, t0) = tr.span_id("c.wait", |id| (id, tr.now()));
            let (_, spans) = tr.capture(|| tr.span("d.replayed", || ()));
            tr.inject(id, t0, t0 + 1_000_000, spans);
        })
    });
    let spans = tr.finish();
    let by = |n: &str| {
        spans
            .iter()
            .find(|s| s.name == n)
            .expect("span recorded")
            .clone()
    };
    let (outer, inner, wait, rep) = (by("a.outer"), by("b.inner"), by("c.wait"), by("d.replayed"));
    assert_eq!(outer.parent, NO_PARENT);
    assert_eq!(
        (inner.parent, wait.parent, rep.parent),
        (outer.id, outer.id, wait.id)
    );
    assert!(spans.iter().all(|s| s.req == 7));
    assert!(rep.synthetic && !inner.synthetic);
    assert!(rep.start >= wait.start && inner.dur() >= 2_000_000);
    let st = self_times(&spans);
    let i = spans
        .iter()
        .position(|s| s.name == "a.outer")
        .expect("outer");
    assert_eq!(st.self_ns[i], outer.dur() - inner.dur() - wait.dur());
}

#[test]
fn ratios_carry_their_base_counts() {
    let r = Ratio::new(3, 4);
    assert_eq!(r.value(), 0.75);
    assert_eq!(r.to_string(), "0.7500 (3/4)");
    assert_eq!(Ratio::new(0, 0).value(), 0.0);
    // Every ratio among the per-layer metrics is followed by its base.
    let m = per_layer_metrics();
    for (i, (name, _)) in m.iter().enumerate() {
        if name.ends_with("_ratio") && *name != "tuner.eval.hit_ratio" {
            assert_eq!(m[i + 1].1, "count", "{name} lacks its numerator count");
            assert_eq!(m[i + 2].1, "count", "{name} lacks its denominator count");
        }
    }
    // tuner.eval.hit_ratio's base is tuner.eval.points and .unique.
    let names: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"tuner.eval.points") && names.contains(&"tuner.eval.unique"));
}

#[test]
fn per_layer_metrics_match_the_benchmark_manifest() {
    let manifest = include_str!("../../BENCHMARK.json");
    let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer key")..];
    let listed: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    let ours: Vec<&str> = per_layer_metrics().iter().map(|(n, _)| *n).collect();
    assert_eq!(listed, ours);
}

#[test]
fn seeds_reorder_requests_but_never_change_the_digest() {
    let (a, b) = (Inputs::new(1), Inputs::new(2));
    assert_ne!(a.order, b.order, "seeds permute the pair order");
    assert_eq!(permutation(1, 16).len(), 16);
    let pair = pairs()[1]; // atax on K20
    assert_ne!(a.request_order(&pair, 80), b.request_order(&pair, 80));
    let store = ArtifactStore::new();
    let kid = pair.kernel;
    let sizes = pair.sizes();
    let builder = move |n: u64| kid.ast(n);
    let ev = store.evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes);
    // request_pair fails the tally unless the digest matches the
    // recorded reference, so both seeds agreeing is both digests
    // matching it.
    let (ta, tb) = (
        request_pair(&a, &pair, &ev, &mut Vec::new()),
        request_pair(&b, &pair, &ev, &mut Vec::new()),
    );
    assert_eq!(
        (ta.failed, tb.failed),
        (0, 0),
        "{:?} {:?}",
        ta.errors,
        tb.errors
    );
    assert_eq!((ta.attempted, tb.attempted), (80, 80));
}
