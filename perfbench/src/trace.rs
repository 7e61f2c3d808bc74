//! In-memory span tracing for the traced runs, and the arithmetic that
//! turns spans into per-layer self times.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public functions. Every span has a name, a start, an
//! end, a parent and a request id. Spans are buffered per thread and
//! collected when a thread's scope ends, then written out when the run
//! ends.
//!
//! Work that happens where the benchmark cannot wrap it (inside a daemon
//! thread, behind a socket) is replayed by the benchmark through the same
//! public functions and *injected* as synthetic child spans of the span
//! that waited for it. The waiting span's self time then shrinks to the
//! part nothing explains, which for a request is the transport hop.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u32,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (or pair) the span serves.
    pub req: u32,
    /// Recording thread (0 for injected spans).
    pub thread: u32,
    /// Whether the span was replayed and injected rather than observed.
    pub synthetic: bool,
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct ThreadCtx {
    stack: Vec<u32>,
    req: u32,
    thread: u32,
    buf: Vec<Span>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_thread: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now. The calling thread becomes
    /// thread 1.
    pub fn new() -> Tracer {
        let t = Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
            next_thread: AtomicU32::new(1),
        };
        let thread = t.next_thread.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| {
            *c.borrow_mut() = ThreadCtx {
                thread,
                ..ThreadCtx::default()
            }
        });
        t
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> u32 {
        CTX.with(|c| c.borrow().stack.last().copied().unwrap_or(NO_PARENT))
    }

    /// The request id this thread is serving.
    pub fn current_req(&self) -> u32 {
        CTX.with(|c| c.borrow().req)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_id(name, |_| f())
    }

    /// [`Tracer::span`], handing `f` the new span's id (for injection).
    pub fn span_id<R>(&self, name: &'static str, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.stack.last().copied().unwrap_or(NO_PARENT);
            c.stack.push(id);
            parent
        });
        let start = self.now();
        let r = f(id);
        let end = self.now();
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            c.stack.pop();
            let (req, thread) = (c.req, c.thread);
            c.buf.push(Span {
                id,
                parent,
                req,
                thread,
                synthetic: false,
                name,
                start,
                end,
            });
        });
        r
    }

    /// Runs `f` with this thread serving request `req`.
    pub fn request<R>(&self, req: u32, f: impl FnOnce() -> R) -> R {
        let prev = CTX.with(|c| std::mem::replace(&mut c.borrow_mut().req, req));
        let r = f();
        CTX.with(|c| c.borrow_mut().req = prev);
        r
    }

    /// Runs `f` as the body of a spawned thread whose spans hang under
    /// `parent` and serve `req`; the thread's spans are collected when
    /// `f` returns.
    pub fn worker<R>(&self, parent: u32, req: u32, f: impl FnOnce() -> R) -> R {
        let thread = self.next_thread.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| {
            *c.borrow_mut() = ThreadCtx {
                stack: vec![parent],
                req,
                thread,
                buf: Vec::new(),
            }
        });
        let r = f();
        self.flush();
        r
    }

    /// Moves this thread's buffered spans into the shared collection.
    pub fn flush(&self) {
        let buf = CTX.with(|c| std::mem::take(&mut c.borrow_mut().buf));
        if !buf.is_empty() {
            self.spans.lock().expect("span collection lock").extend(buf);
        }
    }

    /// Runs `f` with its spans captured instead of recorded: they are
    /// returned as roots (parent [`NO_PARENT`]) for [`Tracer::inject`].
    pub fn capture<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Span>) {
        let (stack, buf) = CTX.with(|c| {
            let mut c = c.borrow_mut();
            (std::mem::take(&mut c.stack), std::mem::take(&mut c.buf))
        });
        let r = f();
        let captured = CTX.with(|c| {
            let mut c = c.borrow_mut();
            c.stack = stack;
            std::mem::replace(&mut c.buf, buf)
        });
        (r, captured)
    }

    /// Injects captured spans as synthetic descendants of `parent`,
    /// shifted to start at `at` and compressed uniformly if they would
    /// overrun `limit`.
    pub fn inject(&self, parent: u32, at: u64, limit: u64, mut spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        let first = spans.iter().map(|s| s.start).min().unwrap_or(0);
        let last = spans.iter().map(|s| s.end).max().unwrap_or(first);
        let width = last - first;
        let room = limit.saturating_sub(at);
        let scale = if width > room && width > 0 {
            room as f64 / width as f64
        } else {
            1.0
        };
        let map = |t: u64| at + ((t - first) as f64 * scale) as u64;
        for s in &mut spans {
            s.start = map(s.start);
            s.end = map(s.end);
            s.synthetic = true;
            s.thread = 0;
            if s.parent == NO_PARENT {
                s.parent = parent;
            }
        }
        CTX.with(|c| c.borrow_mut().buf.extend(spans));
    }

    /// Every span collected so far (flushes the calling thread first).
    pub fn finish(&self) -> Vec<Span> {
        self.flush();
        std::mem::take(&mut *self.spans.lock().expect("span collection lock"))
    }
}

/// Merged length of `intervals` clipped to `[lo, hi]`, and the gaps
/// they leave there (the parent's self segments).
fn cover(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> (u64, Vec<(u64, u64)>) {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut gaps = Vec::new();
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s || e <= cursor {
            continue;
        }
        let s = s.max(cursor);
        if s > cursor {
            gaps.push((cursor, s));
        }
        covered += e - s;
        cursor = e;
    }
    if cursor < hi {
        gaps.push((cursor, hi));
    }
    (covered, gaps)
}

/// Per-span self time and self segments: the span's interval minus the
/// union of its children's intervals (children on any thread).
pub struct SelfTimes {
    /// Self time of `spans[i]`, nanoseconds.
    pub self_ns: Vec<u64>,
    /// Every self segment as `(start, end, i)` for `spans[i]`.
    pub segments: Vec<(u64, u64, u32)>,
}

/// Computes [`SelfTimes`] for `spans`.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let max_id = spans.iter().map(|s| s.id as usize + 1).max().unwrap_or(0);
    let mut pos = vec![usize::MAX; max_id];
    for (i, s) in spans.iter().enumerate() {
        pos[s.id as usize] = i;
    }
    // Children's intervals grouped by parent position.
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter_map(|s| {
            let p = *pos.get(s.parent as usize)?;
            (p != usize::MAX).then_some((p as u32, s.start, s.end))
        })
        .collect();
    kids.sort_unstable();
    let mut self_ns = Vec::with_capacity(spans.len());
    let mut segments = Vec::with_capacity(spans.len());
    let mut scratch = Vec::new();
    let mut k = 0;
    for (i, s) in spans.iter().enumerate() {
        scratch.clear();
        while k < kids.len() && kids[k].0 as usize == i {
            scratch.push((kids[k].1, kids[k].2));
            k += 1;
        }
        let (covered, gaps) = cover(s.start, s.end, &mut scratch);
        self_ns.push(s.dur() - covered.min(s.dur()));
        segments.extend(gaps.into_iter().map(|(a, b)| (a, b, i as u32)));
    }
    SelfTimes { self_ns, segments }
}

/// Wall-clock share of every span: each instant is split evenly among
/// the self segments active at it, so concurrent threads never count one
/// wall-clock nanosecond twice and the shares add up to the time covered
/// by any span.
pub fn wall_share(spans: &[Span], st: &SelfTimes) -> Vec<f64> {
    let mut events: Vec<(u64, bool, u32)> = Vec::with_capacity(2 * st.segments.len());
    for &(s, e, i) in &st.segments {
        events.push((s, true, i));
        events.push((e, false, i));
    }
    // Ends sort before starts at the same instant.
    events.sort_unstable_by_key(|&(t, start, _)| (t, start));
    let mut share = vec![0.0; spans.len()];
    let mut active: Vec<u32> = Vec::new();
    let mut last = 0u64;
    for (t, start, i) in events {
        if !active.is_empty() && t > last {
            let each = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                share[a as usize] += each;
            }
        }
        last = t;
        if start {
            active.push(i);
        } else if let Some(k) = active.iter().position(|&a| a == i) {
            active.swap_remove(k);
        }
    }
    share
}

/// The layer a span name belongs to: its first dotted segment, except
/// that `tuner.persist.*` is the `tuner::persist` layer.
pub fn layer_of(name: &str) -> &str {
    if name.starts_with("tuner.persist") {
        "tuner::persist"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Writes `spans` as CSV (one line per span) to `path`.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,req,thread,synthetic,name,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.id,
            parent,
            s.req,
            s.thread,
            u8::from(s.synthetic),
            s.name,
            s.start,
            s.end
        )?;
    }
    w.flush()
}
