//! Client library: the framed-RPC [`Client`] — the one connection
//! type, used sequentially or with a window of pipelined frames — and
//! the [`RemoteEvaluator`] facade that makes a remote daemon look like
//! a local oracle.
//!
//! [`RemoteEvaluator`] implements [`Oracle`], so every existing search
//! strategy — `RandomSearch`, `AnnealingSearch`, `GeneticSearch`,
//! `HybridSearch` with replay validation, all of them — runs unchanged
//! against a daemon. Batched oracle queries become pipelined `evaluate`
//! frames for the batch's cache misses; revisits (stochastic searchers
//! revisit constantly) are served from a client-side memo without
//! touching the network. Concurrent searches sharing one evaluator are
//! **coalesced**: misses arriving together ride one batched frame
//! ([`CoalesceConfig`]), so a fleet of search threads shares one
//! socket instead of serializing whole round-trips. Because evaluation
//! is deterministic and the wire format is bit-exact, a remote search
//! produces the *identical trace* a local one does — pipelined,
//! coalesced, or one point at a time.
//!
//! # Fault handling
//!
//! Every RPC runs under a deadline ([`RetryPolicy::rpc_timeout`] set as
//! the socket read/write timeout), so no call can block forever on a
//! dead or wedged daemon. Transient failures — connection loss, a
//! damaged frame, an expired deadline, a [`Response::Busy`]
//! backpressure answer — are retried with exponential backoff and
//! jitter, reconnecting as needed, up to [`RetryPolicy::max_retries`]
//! times. A pipelined call resends only the frames still unanswered.
//!
//! **Why retrying is safe** (the idempotency argument): the retried
//! verbs — `ping`, `stats`, `evaluate`, `simulate` — are all
//! *deterministic reads* of state the daemon either already holds or
//! computes reproducibly. Evaluation is deterministic and the shared
//! [`ArtifactStore`](oriole_tuner::ArtifactStore) deduplicates points,
//! so replaying an `evaluate` whose response was lost re-serves the
//! memoized measurements, bit-identical, without recomputing or
//! double-counting anything. The one verb with a side effect —
//! `shutdown` — is **never** auto-retried.
//!
//! After any failed or half-completed exchange the connection is
//! **poisoned** (dropped and re-dialed before the next use). Frames
//! carry correlation ids (protocol v3), and every response's id is
//! verified against the requests outstanding in its call — a response
//! that matches nothing is a loud [`ServiceError::Protocol`] failure,
//! never a mislabeled answer.

use crate::protocol::{self, EvalScope, Request, Response, ServiceStats};
use oriole_arch::GpuSpec;
use oriole_codegen::TuningParams;
use oriole_sim::{ModelId, SimReport};
use oriole_tuner::persist::{
    classify_frame_io, read_frame_tagged, write_frame_tagged, FrameError,
};
use oriole_tuner::{Measurement, Oracle};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why an RPC failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Connection-level failure (connect, send, receive).
    Io(std::io::Error),
    /// The response frame was damaged or unparseable.
    Frame(FrameError),
    /// The response parsed but was not the expected shape, or carried a
    /// wire error.
    Protocol(String),
    /// The daemon answered with an error (its message included —
    /// unknown kernel, infeasible request, version skew, …).
    Remote(String),
    /// The daemon shed the request with backpressure and the retry
    /// policy is exhausted; carries the daemon's last `retry_after_ms`
    /// hint.
    Busy(u64),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
            ServiceError::Frame(e) => write!(f, "service frame error: {e}"),
            ServiceError::Protocol(m) => write!(f, "service protocol error: {m}"),
            ServiceError::Remote(m) => write!(f, "daemon error: {m}"),
            ServiceError::Busy(ms) => {
                write!(f, "daemon busy: retries exhausted (daemon suggested retry in {ms}ms)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

impl From<FrameError> for ServiceError {
    fn from(e: FrameError) -> ServiceError {
        ServiceError::Frame(e)
    }
}

impl ServiceError {
    /// Whether retrying can possibly change the answer. Transport
    /// failures and backpressure are transient; a daemon-side error or
    /// a malformed exchange is deterministic and retrying would only
    /// repeat it. Fleet schedulers use the same split to decide between
    /// rebalancing a shard's queue (transient: the shard is slow or
    /// lost) and aborting the whole run (deterministic: every shard
    /// would answer the same error).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Io(_) | ServiceError::Frame(_) | ServiceError::Busy(_)
        )
    }
}

/// Deadline and retry configuration for one [`Client`].
///
/// Backoff is exponential from [`RetryPolicy::base_backoff`], capped at
/// [`RetryPolicy::max_backoff`], with deterministic jitter (seeded by
/// [`RetryPolicy::jitter_seed`]) in the upper half of each step so a
/// fleet of shed clients does not re-stampede the daemon in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    /// Only *transient* failures (I/O, frame damage, deadline expiry,
    /// `Busy` backpressure) are retried, and never for `shutdown`.
    pub max_retries: u32,
    /// First backoff step.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read/write deadline on every exchange; also declared to
    /// the daemon in `evaluate` so it can shed work it cannot start in
    /// time. [`Duration::ZERO`] means no deadline (not recommended
    /// outside tests).
    pub rpc_timeout: Duration,
    /// Seed of the deterministic jitter stream (vary per client so
    /// backoffs decorrelate; keep fixed in tests for stability).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            rpc_timeout: Duration::from_secs(10),
            jitter_seed: 0x6f72696f6c65, // "oriole"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and keeps the default deadline —
    /// the pre-hardening fail-fast behaviour, for tests that assert on
    /// first-failure semantics.
    pub fn fail_fast() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The backoff before retry attempt `attempt` (1-based):
    /// exponential, capped, jittered into the upper half of the step.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.base_backoff.as_millis() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff.as_millis() as u64).max(1);
        // xorshift64* over (seed, attempt): deterministic, no clock or
        // RNG dependency, stable under test.
        let mut x = self.jitter_seed ^ (u64::from(attempt).wrapping_mul(0x9e3779b97f4a7c15));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jittered = capped / 2 + x % (capped / 2 + 1);
        Duration::from_millis(jittered)
    }

    /// The deadline to declare in an `evaluate` request (milliseconds;
    /// 0 = none declared).
    fn deadline_ms(&self) -> u64 {
        self.rpc_timeout.as_millis() as u64
    }

    fn socket_timeout(&self) -> Option<Duration> {
        if self.rpc_timeout.is_zero() {
            None
        } else {
            Some(self.rpc_timeout)
        }
    }
}

/// One session with a tuner daemon — the only connection type. All
/// methods are `&self` (the stream sits behind a mutex). Every call is
/// one windowed exchange on the caller's own thread: single verbs and
/// [`Client::evaluate`] keep one frame in flight,
/// [`Client::evaluate_chunks`] keeps up to a window of them, and all of
/// them transparently reconnect and retry transient failures per the
/// session's [`RetryPolicy`].
pub struct Client {
    /// `None` = poisoned (or never dialed): the next exchange
    /// re-connects. Poisoning after any failed exchange keeps
    /// request/response pairing sound even before the correlation-id
    /// check gets a say.
    stream: Mutex<Option<TcpStream>>,
    addr: String,
    policy: RetryPolicy,
    retries: AtomicU64,
    /// Monotonic correlation ids for this session's frames (id 0 is
    /// reserved for connection-level server notices).
    corr: AtomicU64,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7733`) with the
    /// default [`RetryPolicy`]. Fails fast if the daemon is not there —
    /// retry loops around the *initial* dial belong to
    /// [`Client::connect_retry`].
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// [`Client::connect`] under an explicit policy.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> Result<Client, ServiceError> {
        let stream = dial(addr, &policy)?;
        let client = Client::lazy(addr, policy);
        *client.stream.lock().expect("client stream lock") = Some(stream);
        Ok(client)
    }

    /// A session that dials on its first exchange (a failed dial is
    /// then retried like any other transient failure).
    fn lazy(addr: &str, policy: RetryPolicy) -> Client {
        Client {
            stream: Mutex::new(None),
            addr: addr.to_string(),
            policy,
            retries: AtomicU64::new(0),
            corr: AtomicU64::new(0),
        }
    }

    /// [`Client::connect`] retried until `timeout` elapses — the
    /// "daemon was just spawned" path (CI smoke jobs, tests, scripts).
    /// Sleeps the policy's backoff schedule between dials and returns
    /// the **last error observed within the window** — the standing
    /// cause when time ran out, not whatever a straggling post-deadline
    /// dial happened to produce.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Client, ServiceError> {
        Client::connect_retry_with(addr, timeout, RetryPolicy::default())
    }

    /// [`Client::connect_retry`] under an explicit policy.
    pub fn connect_retry_with(
        addr: &str,
        timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<Client, ServiceError> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let mut last_err: Option<ServiceError> = None;
        loop {
            let within_window = start.elapsed() < timeout;
            match Client::connect_with(addr, policy) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    // Record the error only if its dial *started* inside
                    // the window; an attempt straddling the deadline
                    // must not replace the standing cause with a
                    // possibly different late failure.
                    if within_window || last_err.is_none() {
                        last_err = Some(e);
                    }
                }
            }
            if start.elapsed() >= timeout {
                let cause = last_err.expect("at least one dial attempted");
                // Keep the Io class so retry classification still sees a
                // transient connection failure, but tell the operator how
                // hard we tried: fleet debugging needs "4 attempts over
                // 10.0s", not just the final cause.
                return Err(ServiceError::Io(std::io::Error::other(format!(
                    "no daemon reachable at `{addr}` after {} attempt(s) over {:.1}s: {cause}",
                    attempt + 1,
                    start.elapsed().as_secs_f64()
                ))));
            }
            attempt += 1;
            let nap = policy.backoff(attempt).min(timeout.saturating_sub(start.elapsed()));
            std::thread::sleep(nap);
        }
    }

    /// The address this client dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The session's deadline/retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Exchanges retried so far over this session's lifetime (transient
    /// failures that healed; an exhausted policy surfaces as the final
    /// error instead).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// One windowed exchange on the (re)connected stream: sends
    /// `reqs[i]` for every slot still `None`, keeping at most `window`
    /// frames outstanding — once the window is full, one response is
    /// read before the next frame is written — and files each answer,
    /// through `accept`, into its request's slot by correlation id, so
    /// out-of-order arrival is fine.
    ///
    /// A response whose id is not outstanding in this call, and any
    /// id-0 notice other than `Busy`, is a [`ServiceError::Protocol`]
    /// error; `Busy` (on id 0 or on a request's own id) is the transient
    /// [`ServiceError::Busy`]. Any failure drops the stream: the daemon
    /// closes a connection it shed with `Busy`, and after a desynced
    /// exchange a stale in-flight response could otherwise be
    /// mislabeled as the answer to a later request. The one exception
    /// is a daemon error answer that leaves nothing outstanding — a
    /// completed exchange on an in-sync stream, which is kept. Slots
    /// filled before a failure keep their answers, so a retry resends
    /// only the rest.
    fn exchange<T>(
        &self,
        reqs: &[Request],
        slots: &mut [Option<T>],
        window: usize,
        accept: &mut impl FnMut(usize, Response) -> Result<T, ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut guard = self.stream.lock().expect("client stream lock");
        if guard.is_none() {
            *guard = Some(dial(&self.addr, &self.policy)?);
        }
        let stream = guard.as_mut().expect("stream just ensured");
        // (correlation id, slot) of every frame sent and not yet answered.
        let mut outstanding: Vec<(u64, usize)> = Vec::with_capacity(window.min(reqs.len()));
        // Slots fill only after their frame was sent, so one forward
        // cursor over the unanswered slots finds every frame to send.
        let mut next = 0;
        let result = (|| -> Result<(), ServiceError> {
            loop {
                while outstanding.len() < window.max(1) {
                    let Some(i) = (next..reqs.len()).find(|&i| slots[i].is_none()) else {
                        break;
                    };
                    next = i + 1;
                    let corr = self.corr.fetch_add(1, Ordering::Relaxed) + 1;
                    write_frame_tagged(stream, corr, &protocol::emit_request(&reqs[i]))
                        .map_err(|e| classify_frame_error(classify_frame_io(e)))?;
                    outstanding.push((corr, i));
                }
                if outstanding.is_empty() {
                    return Ok(());
                }
                let (corr, payload) = read_frame_tagged(stream).map_err(classify_frame_error)?;
                let resp = protocol::parse_response(&payload)
                    .map_err(|e| ServiceError::Protocol(e.to_string()))?;
                let Some(at) = outstanding.iter().position(|&(c, _)| c == corr) else {
                    // Id 0 is a connection-level notice (an admission
                    // shed or a framing error answered before any
                    // request was decoded), addressed to no request.
                    return Err(match resp {
                        Response::Busy { retry_after_ms } if corr == 0 => {
                            ServiceError::Busy(retry_after_ms)
                        }
                        Response::Error { message } if corr == 0 => ServiceError::Protocol(
                            format!("connection-level error notice: {message}"),
                        ),
                        _ => ServiceError::Protocol(format!(
                            "response for unknown correlation id {corr}"
                        )),
                    });
                };
                let (_, i) = outstanding.swap_remove(at);
                slots[i] = Some(match resp {
                    Response::Busy { retry_after_ms } => {
                        return Err(ServiceError::Busy(retry_after_ms))
                    }
                    Response::Error { message } => return Err(ServiceError::Remote(message)),
                    resp => accept(i, resp)?,
                });
            }
        })();
        let in_sync = matches!(result, Err(ServiceError::Remote(_))) && outstanding.is_empty();
        if result.is_err() && !in_sync {
            *guard = None;
        }
        result
    }

    /// Runs `reqs` through [`Client::exchange`], retrying transient
    /// failures (reconnect + backoff, honoring a `Busy` hint when it is
    /// the longer wait) per the policy — the one retry loop every verb
    /// shares. Returns one accepted answer per request, in request
    /// order. `retryable` is false for the one verb with a side effect
    /// (`shutdown`).
    fn call_with_retry<T>(
        &self,
        reqs: &[Request],
        window: usize,
        retryable: bool,
        mut accept: impl FnMut(usize, Response) -> Result<T, ServiceError>,
    ) -> Result<Vec<T>, ServiceError> {
        let mut slots: Vec<Option<T>> = reqs.iter().map(|_| None).collect();
        let mut attempt: u32 = 0;
        loop {
            match self.exchange(reqs, &mut slots, window, &mut accept) {
                Ok(()) => {
                    return Ok(slots
                        .into_iter()
                        .map(|s| s.expect("a completed exchange fills every slot"))
                        .collect())
                }
                Err(e) => {
                    if !retryable || !e.is_transient() || attempt >= self.policy.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let mut nap = self.policy.backoff(attempt);
                    if let ServiceError::Busy(hint_ms) = e {
                        // Honor the daemon's own hint when it is the
                        // longer wait — it knows its queue better.
                        nap = nap.max(Duration::from_millis(hint_ms));
                    }
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Issues one request and returns its answer.
    fn call(&self, req: &Request) -> Result<Response, ServiceError> {
        // shutdown is the one verb with a side effect; everything else
        // is a deterministic read (see the module-level idempotency
        // argument) and safe to replay.
        let retryable = !matches!(req, Request::Shutdown);
        let mut answers =
            self.call_with_retry(std::slice::from_ref(req), 1, retryable, |_, resp| Ok(resp))?;
        Ok(answers.pop().expect("one answer per request"))
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ServiceError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ServiceError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Server + store telemetry.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ServiceError::Protocol(format!("expected stats, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit. Returns once the shutdown is
    /// acknowledged (the daemon may still be draining in-flight work).
    /// Never auto-retried: a lost ack does not prove the daemon missed
    /// the request, and replaying could stop a freshly restarted one.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ServiceError::Protocol(format!("expected shutdown ack, got {other:?}"))),
        }
    }

    /// Evaluates a batch of points under `scope`. Returns the
    /// fresh-computation count of this request window and one
    /// measurement per point, in request order, bit-identical to local
    /// evaluation. Declares the session deadline so the daemon can shed
    /// work it cannot start in time. This is
    /// [`Client::evaluate_chunks`] with one chunk and a window of 1.
    pub fn evaluate(
        &self,
        scope: &EvalScope,
        points: &[TuningParams],
    ) -> Result<(u64, Vec<Measurement>), ServiceError> {
        let mut answers = self.evaluate_chunks(scope, &[points], 1)?;
        Ok(answers.pop().expect("one answer per chunk"))
    }

    /// Evaluates each chunk as its own `evaluate` frame, keeping up to
    /// `window` frames in flight on this connection so the daemon's
    /// workers run them in parallel. Returns each chunk's
    /// fresh-computation count and measurements, in chunk order
    /// whatever order the responses arrive in. Every answer is checked
    /// against the positional contract; a transient failure retries
    /// only the chunks still unanswered.
    pub fn evaluate_chunks(
        &self,
        scope: &EvalScope,
        chunks: &[&[TuningParams]],
        window: usize,
    ) -> Result<Vec<(u64, Vec<Measurement>)>, ServiceError> {
        let reqs: Vec<Request> = chunks
            .iter()
            .map(|points| Request::Evaluate {
                scope: scope.clone(),
                points: points.to_vec(),
                deadline_ms: self.policy.deadline_ms(),
            })
            .collect();
        self.call_with_retry(&reqs, window, true, |i, resp| match resp {
            Response::Evaluate { computed, measurements } => {
                verify_measurements(chunks[i], &measurements)?;
                Ok((computed, measurements))
            }
            other => Err(ServiceError::Protocol(format!("expected measurements, got {other:?}"))),
        })
    }

    /// Compiles and simulates one variant remotely; returns the
    /// selected trial time and the full report.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate(
        &self,
        kernel: &str,
        gpu: &GpuSpec,
        n: u64,
        params: TuningParams,
        model: ModelId,
        trials: u32,
        seed: u64,
    ) -> Result<(f64, SimReport), ServiceError> {
        let req = Request::Simulate {
            kernel: kernel.to_string(),
            gpu: gpu.clone(),
            n,
            params,
            model,
            trials,
            seed,
        };
        match self.call(&req)? {
            Response::Simulate { selected, report } => Ok((selected, report)),
            other => Err(ServiceError::Protocol(format!("expected report, got {other:?}"))),
        }
    }
}

/// Dials `addr` and arms the per-exchange socket deadlines.
fn dial(addr: &str, policy: &RetryPolicy) -> Result<TcpStream, ServiceError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(policy.socket_timeout()).ok();
    stream.set_write_timeout(policy.socket_timeout()).ok();
    Ok(stream)
}

/// Maps frame-layer failures into [`ServiceError`], folding transport
/// I/O back into the Io class so retry classification sees one kind of
/// connection failure.
fn classify_frame_error(e: FrameError) -> ServiceError {
    match e {
        FrameError::Io(io) => ServiceError::Io(io),
        other => ServiceError::Frame(other),
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .finish()
    }
}

/// The positional response contract, verified rather than trusted: one
/// measurement per requested point, in request order, so a confused
/// daemon surfaces as a protocol error instead of mislabeled
/// measurements.
fn verify_measurements(
    points: &[TuningParams],
    measurements: &[Measurement],
) -> Result<(), ServiceError> {
    if measurements.len() != points.len() {
        return Err(ServiceError::Protocol(format!(
            "evaluate returned {} measurements for {} points",
            measurements.len(),
            points.len()
        )));
    }
    for (p, m) in points.iter().zip(measurements) {
        if m.params != *p {
            return Err(ServiceError::Protocol(format!(
                "evaluate returned measurement for {} where {} was requested",
                m.params, p
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Remote evaluator with batch coalescing
// ---------------------------------------------------------------------------

/// How [`RemoteEvaluator`] packs concurrent cache misses into
/// pipelined `evaluate` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// Maximum points per `evaluate` frame: a large batch is split into
    /// chunks of this size and the chunks pipelined, so the daemon's
    /// workers parallelize *within* one logical batch.
    pub max_batch_points: usize,
    /// Evaluate frames one flush keeps in flight on the evaluator's
    /// connection (the [`Client::evaluate_chunks`] window).
    pub max_frames: usize,
    /// How long a flush waits for more concurrent misses to coalesce
    /// before sending. Only applied when other threads are actively
    /// inside the evaluator — a single sequential searcher never pays
    /// it.
    pub flush_idle: Duration,
}

impl Default for CoalesceConfig {
    fn default() -> CoalesceConfig {
        CoalesceConfig {
            max_batch_points: 64,
            max_frames: 8,
            flush_idle: Duration::from_micros(200),
        }
    }
}

/// A remote [`Oracle`]: one experiment scope evaluated through a daemon,
/// with a client-side memo so revisits never re-cross the network.
///
/// Cache misses are **coalesced**: the first thread to find pending
/// misses becomes the flusher, waits one [`CoalesceConfig::flush_idle`]
/// beat for concurrent threads' misses to pile on (skipped when alone),
/// then drains the pending set into chunked `evaluate` frames pipelined
/// over the evaluator's own connection
/// ([`Client::evaluate_chunks`]). Everyone else parks until the cache
/// fills. Results are bit-identical to sequential one-at-a-time
/// evaluation — the daemon's store dedups, the wire format is exact,
/// and the memo is keyed by point, so scheduling never shows in the
/// data.
///
/// Transient RPC failures are healed by retrying under the [`Client`]'s
/// policy; an error surfaces only once that policy is exhausted. The
/// oracle contract has no error channel, so such a *final* failure is
/// **latched**: the failing point scores `f64::INFINITY`, every later
/// query short-circuits the same way, and the driver must check
/// [`RemoteEvaluator::take_error`] after the search — a lost daemon
/// aborts the run loudly instead of silently returning garbage winners.
pub struct RemoteEvaluator {
    /// The caller's session, kept as the side channel
    /// ([`RemoteEvaluator::client`]).
    client: Client,
    /// The evaluation session, under the side channel's address and
    /// policy; it dials at the first flush.
    eval_client: Client,
    scope: EvalScope,
    coalesce: CoalesceConfig,
    state: Mutex<EvalState>,
    changed: Condvar,
    fetched: AtomicU64,
    computed_remote: AtomicU64,
    batches_sent: AtomicU64,
    peak_batch: AtomicU64,
    error: Mutex<Option<String>>,
    poisoned: AtomicBool,
}

struct EvalState {
    cache: HashMap<TuningParams, Measurement>,
    /// Misses queued for the next flush (insertion order — determinism
    /// of the *data* comes from the store, not from this ordering).
    pending: Vec<TuningParams>,
    pending_set: HashSet<TuningParams>,
    /// Points the current flush has in flight; threads needing one park
    /// instead of re-queueing it.
    inflight: HashSet<TuningParams>,
    flushing: bool,
    /// Threads currently inside `evaluate_batch` — the flusher skips
    /// its coalesce beat when it is alone.
    waiters: usize,
}

impl RemoteEvaluator {
    /// A remote evaluator over `scope`, speaking through `client`, with
    /// default coalescing.
    pub fn new(client: Client, scope: EvalScope) -> RemoteEvaluator {
        RemoteEvaluator::with_coalesce(client, scope, CoalesceConfig::default())
    }

    /// [`RemoteEvaluator::new`] with explicit coalescing knobs.
    pub fn with_coalesce(
        client: Client,
        scope: EvalScope,
        coalesce: CoalesceConfig,
    ) -> RemoteEvaluator {
        RemoteEvaluator {
            eval_client: Client::lazy(client.addr(), *client.policy()),
            client,
            scope,
            coalesce,
            state: Mutex::new(EvalState {
                cache: HashMap::new(),
                pending: Vec::new(),
                pending_set: HashSet::new(),
                inflight: HashSet::new(),
                flushing: false,
                waiters: 0,
            }),
            changed: Condvar::new(),
            fetched: AtomicU64::new(0),
            computed_remote: AtomicU64::new(0),
            batches_sent: AtomicU64::new(0),
            peak_batch: AtomicU64::new(0),
            error: Mutex::new(None),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The experiment scope every query runs under.
    pub fn scope(&self) -> &EvalScope {
        &self.scope
    }

    /// The caller's connection, a side channel for requests like
    /// [`Client::stats`] (evaluation runs on a separate connection).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// The coalescing configuration in effect.
    pub fn coalesce_config(&self) -> CoalesceConfig {
        self.coalesce
    }

    /// Distinct points fetched over the wire so far (client-side cache
    /// misses; deterministic for a deterministic search).
    pub fn fetched(&self) -> u64 {
        self.fetched.load(Ordering::Relaxed)
    }

    /// Points the *daemon* computed fresh across this evaluator's
    /// requests — 0 on a fully warm store.
    pub fn computed_remote(&self) -> u64 {
        self.computed_remote.load(Ordering::Relaxed)
    }

    /// `evaluate` frames answered over the wire (each carries one
    /// coalesced chunk of at most [`CoalesceConfig::max_batch_points`]
    /// points).
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent.load(Ordering::Relaxed)
    }

    /// The largest point count any single frame carried — evidence of
    /// coalescing actually happening.
    pub fn peak_batch(&self) -> u64 {
        self.peak_batch.load(Ordering::Relaxed)
    }

    /// The latched RPC failure, if any. Drivers must call this after a
    /// search and treat `Some` as an aborted run. Taking the message
    /// does **not** revive the evaluator: once poisoned it answers
    /// `None`/infinity forever, so a partially failed run can never mix
    /// stale and fresh answers.
    pub fn take_error(&self) -> Option<String> {
        self.error.lock().expect("error lock").take()
    }

    fn latch_error(&self, e: ServiceError) {
        self.poisoned.store(true, Ordering::SeqCst);
        let mut slot = self.error.lock().expect("error lock");
        if slot.is_none() {
            *slot = Some(e.to_string());
        }
    }

    /// Evaluates one point (memoized client-side). `None` after an RPC
    /// failure — see [`RemoteEvaluator::take_error`].
    pub fn evaluate(&self, params: TuningParams) -> Option<Measurement> {
        self.evaluate_batch(&[params]).map(|mut v| v.remove(0))
    }

    /// Evaluates a batch: misses join the shared pending set, one
    /// thread flushes them (plus any concurrent threads' misses) as
    /// chunked pipelined frames, everything else is served from the
    /// memo. Results in input order, `None` on (final,
    /// policy-exhausted) RPC failure.
    pub fn evaluate_batch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        if self.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        let mut st = self.state.lock().expect("remote evaluator lock");
        st.waiters += 1;
        for p in points {
            if !st.cache.contains_key(p)
                && !st.pending_set.contains(p)
                && !st.inflight.contains(p)
            {
                st.pending.push(*p);
                st.pending_set.insert(*p);
            }
        }
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                st.waiters -= 1;
                return None;
            }
            if points.iter().all(|p| st.cache.contains_key(p)) {
                let out = points.iter().map(|p| st.cache[p].clone()).collect();
                st.waiters -= 1;
                return Some(out);
            }
            if !st.pending.is_empty() && !st.flushing {
                st.flushing = true;
                // The coalesce beat: give concurrently arriving misses
                // a moment to pile onto this flush — but never tax a
                // lone sequential searcher with it.
                let beat = self.coalesce.flush_idle;
                if st.waiters > 1 && !beat.is_zero() {
                    let (guard, _) =
                        self.changed.wait_timeout(st, beat).expect("coalesce wait");
                    st = guard;
                }
                let batch: Vec<TuningParams> = st.pending.drain(..).collect();
                st.pending_set.clear();
                for p in &batch {
                    st.inflight.insert(*p);
                }
                drop(st);
                let outcome = self.fetch(&batch);
                st = self.state.lock().expect("remote evaluator lock");
                for p in &batch {
                    st.inflight.remove(p);
                }
                st.flushing = false;
                match outcome {
                    Ok((computed, measurements)) => {
                        self.fetched.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        self.computed_remote.fetch_add(computed, Ordering::Relaxed);
                        for m in measurements {
                            st.cache.insert(m.params, m);
                        }
                        self.changed.notify_all();
                    }
                    Err(e) => {
                        st.waiters -= 1;
                        drop(st);
                        self.latch_error(e);
                        self.changed.notify_all();
                        return None;
                    }
                }
            } else {
                // Parked: another thread's flush is (or will be)
                // fetching our points. The timeout guards against a
                // missed wakeup, nothing more.
                let (guard, _) = self
                    .changed
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("remote evaluator wait");
                st = guard;
            }
        }
    }

    /// Fetches one coalesced batch as pipelined chunks on the
    /// evaluation connection. Returns the daemon-computed count and all
    /// measurements in batch order.
    fn fetch(&self, batch: &[TuningParams]) -> Result<(u64, Vec<Measurement>), ServiceError> {
        let chunks: Vec<&[TuningParams]> = batch.chunks(self.coalesce.max_batch_points).collect();
        let answers =
            self.eval_client.evaluate_chunks(&self.scope, &chunks, self.coalesce.max_frames)?;
        self.batches_sent.fetch_add(chunks.len() as u64, Ordering::Relaxed);
        let widest = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        self.peak_batch.fetch_max(widest as u64, Ordering::Relaxed);
        let mut computed = 0u64;
        let mut measurements = Vec::with_capacity(batch.len());
        for (c, ms) in answers {
            computed += c;
            measurements.extend(ms);
        }
        Ok((computed, measurements))
    }
}

impl Oracle for RemoteEvaluator {
    fn eval(&self, params: TuningParams) -> f64 {
        self.evaluate(params).map_or(f64::INFINITY, |m| m.time_ms)
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        match self.evaluate_batch(points) {
            Some(ms) => ms.into_iter().map(|m| m.time_ms).collect(),
            None => vec![f64::INFINITY; points.len()],
        }
    }
}

impl fmt::Debug for RemoteEvaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteEvaluator")
            .field("addr", &self.client.addr)
            .field("kernel", &self.scope.kernel)
            .field("fetched", &self.fetched())
            .field("batches_sent", &self.batches_sent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_into_the_upper_half() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            rpc_timeout: Duration::from_secs(1),
            jitter_seed: 7,
        };
        let mut prev_cap = 0u128;
        for attempt in 1..=8u32 {
            let cap = (25u128 << (attempt - 1)).min(400);
            let b = p.backoff(attempt).as_millis();
            assert!(b >= cap / 2, "attempt {attempt}: {b}ms below half-cap {cap}");
            assert!(b <= cap, "attempt {attempt}: {b}ms above cap {cap}");
            assert!(cap >= prev_cap, "caps must be monotone");
            prev_cap = cap;
        }
        // Deterministic: same policy, same attempt, same nap.
        assert_eq!(p.backoff(3), p.backoff(3));
    }

    #[test]
    fn zero_base_backoff_means_no_sleeping() {
        let p = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(p.backoff(1), Duration::ZERO);
        assert_eq!(p.backoff(7), Duration::ZERO);
    }

    #[test]
    fn connect_retry_error_reports_attempts_and_elapsed() {
        // Port 1 on loopback refuses immediately on any sane box.
        let err = Client::connect_retry_with(
            "127.0.0.1:1",
            Duration::from_millis(80),
            RetryPolicy {
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(20),
                ..RetryPolicy::default()
            },
        )
        .expect_err("nothing listens on port 1");
        assert!(err.is_transient(), "dial failure must stay transient: {err}");
        let text = err.to_string();
        assert!(
            text.contains("attempt(s) over") && text.contains("127.0.0.1:1"),
            "error must name the address, attempt count, and elapsed: {text}"
        );
    }

    #[test]
    fn transient_classification_splits_retryable_from_deterministic_failures() {
        assert!(ServiceError::Io(std::io::Error::other("x")).is_transient());
        assert!(ServiceError::Frame(FrameError::TimedOut).is_transient());
        assert!(ServiceError::Busy(25).is_transient());
        assert!(!ServiceError::Remote("unknown kernel".into()).is_transient());
        assert!(!ServiceError::Protocol("short response".into()).is_transient());
    }
}
