//! The client's trust-but-verify guards, exercised explicitly: a mock
//! daemon that speaks perfect frames but *lies* — reordering or
//! short-changing the measurement list — must surface as a protocol
//! error, never as mislabeled measurements handed to a search.

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::protocol::{self, EvalScope, Request, Response};
use oriole_service::{Client, RetryPolicy, ServiceError};
use oriole_tuner::persist::{read_frame_tagged, write_frame_tagged};
use oriole_tuner::{EvalProtocol, Measurement};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the mock daemon tampers with an honest positional answer.
#[derive(Clone, Copy)]
enum Tamper {
    /// Swap the first two measurements (violates the positional
    /// ordering contract).
    Reorder,
    /// Drop the last measurement (violates the one-per-point contract).
    ShortChange,
    /// Answer honestly but tag the response with a correlation id the
    /// client never issued (violates the id-echo contract).
    WrongId,
}

fn fake_measurement(params: TuningParams, time_ms: f64) -> Measurement {
    Measurement {
        params,
        time_ms,
        per_size_ms: vec![(64, time_ms)],
        feasible: true,
        occupancy: 0.5,
        regs_allocated: 32,
        reg_instructions: 10.0,
    }
}

/// A daemon-shaped liar: real listener, real frames, tampered answers.
/// Serves connections until the listener is dropped with the test.
fn spawn_mock(tamper: Tamper) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        // One connection is all the fail-fast client will make.
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => return,
        };
        while let Ok((corr, payload)) = read_frame_tagged(&mut stream) {
            let response = match protocol::parse_request(&payload) {
                Ok(Request::Evaluate { points, .. }) => {
                    let mut measurements: Vec<Measurement> = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| fake_measurement(*p, 1.0 + i as f64))
                        .collect();
                    match tamper {
                        Tamper::Reorder => measurements.swap(0, 1),
                        Tamper::ShortChange => {
                            measurements.pop();
                        }
                        Tamper::WrongId => {}
                    }
                    Response::Evaluate { computed: measurements.len() as u64, measurements }
                }
                Ok(_) | Err(_) => Response::Error { message: "mock only evaluates".into() },
            };
            let reply_corr = match tamper {
                Tamper::WrongId => corr + 1,
                _ => corr,
            };
            if write_frame_tagged(&mut stream, reply_corr, &protocol::emit_response(&response))
                .is_err()
            {
                return;
            }
        }
    });
    (addr, handle)
}

fn scope() -> EvalScope {
    EvalScope {
        kernel: "atax".to_string(),
        gpu: Gpu::K20.spec().clone(),
        sizes: vec![64],
        protocol: EvalProtocol::default(),
    }
}

fn points() -> Vec<TuningParams> {
    vec![TuningParams::with_geometry(128, 48), TuningParams::with_geometry(256, 48)]
}

#[test]
fn reordered_measurements_are_rejected_as_a_protocol_error() {
    let (addr, handle) = spawn_mock(Tamper::Reorder);
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("reordering must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("where"), "names the mismatch: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn short_changed_measurements_are_rejected_as_a_protocol_error() {
    let (addr, handle) = spawn_mock(Tamper::ShortChange);
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("short answer must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(
                m.contains("1 measurements for 2 points"),
                "names the count mismatch: {m}"
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn a_response_with_the_wrong_correlation_id_is_rejected_not_delivered() {
    let (addr, handle) = spawn_mock(Tamper::WrongId);
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("wrong id must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("correlation id"), "names the id mismatch: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn a_pipelined_response_with_an_unknown_id_poisons_the_pipeline() {
    let (addr, handle) = spawn_mock(Tamper::WrongId);
    let pipe = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
    let err = pipe
        .evaluate_chunks(&scope(), &[&points()], 4)
        .expect_err("unknown id must poison, never deliver");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("unknown correlation id"), "names the stray id: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The mock serves until its peer hangs up, so it finishing while
    // `pipe` is still alive proves the client dropped the connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_finished(), "the whole pipeline is condemned");
    drop(pipe);
    handle.join().expect("mock thread");
}

/// The answer an honest daemon gives for `p`: a time derived from the
/// point itself, so a measurement filed under the wrong chunk shows.
fn honest(p: TuningParams) -> Measurement {
    fake_measurement(p, f64::from(p.tc) + f64::from(p.bc) / 1000.0)
}

fn honest_response(points: &[TuningParams]) -> String {
    let measurements: Vec<Measurement> = points.iter().map(|&p| honest(p)).collect();
    protocol::emit_response(&Response::Evaluate { computed: 0, measurements })
}

/// Every evaluate frame a scripted mock received: (connection index,
/// the frame's points).
type RequestLog = Arc<Mutex<Vec<(usize, Vec<TuningParams>)>>>;

/// Reads `n` evaluate frames from `stream`, logging each under `conn`.
fn read_window(
    stream: &mut TcpStream,
    n: usize,
    conn: usize,
    log: &RequestLog,
) -> Vec<(u64, Vec<TuningParams>)> {
    (0..n)
        .map(|_| {
            let (corr, payload) = read_frame_tagged(stream).expect("request frame");
            let Ok(Request::Evaluate { points, .. }) = protocol::parse_request(&payload) else {
                panic!("mock only evaluates: {payload}");
            };
            log.lock().unwrap().push((conn, points.clone()));
            (corr, points)
        })
        .collect()
}

/// Answers evaluate frames honestly, one at a time, until EOF.
fn serve_honestly(stream: &mut TcpStream, conn: usize, log: &RequestLog) {
    while let Ok((corr, payload)) = read_frame_tagged(stream) {
        let Ok(Request::Evaluate { points, .. }) = protocol::parse_request(&payload) else {
            return;
        };
        log.lock().unwrap().push((conn, points.clone()));
        if write_frame_tagged(stream, corr, &honest_response(&points)).is_err() {
            return;
        }
    }
}

/// A mock that runs `script` once per accepted connection, `conns`
/// connections in all, recording every evaluate frame it reads.
fn spawn_scripted(
    conns: usize,
    script: fn(usize, &mut TcpStream, &RequestLog),
) -> (String, RequestLog, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let log = RequestLog::default();
    let mock_log = Arc::clone(&log);
    let handle = std::thread::spawn(move || {
        for conn in 0..conns {
            let Ok((mut stream, _)) = listener.accept() else { return };
            script(conn, &mut stream, &mock_log);
        }
    });
    (addr, log, handle)
}

fn four_chunks() -> Vec<Vec<TuningParams>> {
    (1..=4u32)
        .map(|k| {
            vec![TuningParams::with_geometry(32 * k, 24), TuningParams::with_geometry(32 * k, 48)]
        })
        .collect()
}

#[test]
fn a_window_answered_in_reverse_lands_in_chunk_order() {
    // Reads the whole window before answering any of it, then answers
    // last-sent first.
    let (addr, log, handle) = spawn_scripted(1, |conn, stream, log| {
        let window = read_window(stream, 4, conn, log);
        for (corr, points) in window.iter().rev() {
            write_frame_tagged(stream, *corr, &honest_response(points)).expect("answer");
        }
        serve_honestly(stream, conn, log);
    });
    let chunks = four_chunks();
    let views: Vec<&[TuningParams]> = chunks.iter().map(Vec::as_slice).collect();
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
    let answers = client.evaluate_chunks(&scope(), &views, 4).expect("reordered window");
    assert_eq!(answers.len(), chunks.len());
    for (chunk, (_, measurements)) in chunks.iter().zip(&answers) {
        let expected: Vec<Measurement> = chunk.iter().map(|&p| honest(p)).collect();
        assert_eq!(measurements, &expected, "each answer lands in its own chunk's slot");
        for (m, e) in measurements.iter().zip(&expected) {
            assert_eq!(m.time_ms.to_bits(), e.time_ms.to_bits());
        }
    }
    assert_eq!(log.lock().unwrap().len(), 4, "one frame per chunk, none resent");
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn a_mid_window_busy_resends_only_the_unresolved_chunks() {
    // Connection 0 answers chunks 0 and 1, sheds chunk 2 with Busy on
    // its own id and hangs up — the per-connection quota's behaviour —
    // leaving chunk 3 unanswered. Connection 1 serves honestly.
    let (addr, log, handle) = spawn_scripted(2, |conn, stream, log| {
        if conn == 0 {
            let window = read_window(stream, 4, conn, log);
            for (corr, points) in &window[..2] {
                write_frame_tagged(stream, *corr, &honest_response(points)).expect("answer");
            }
            let busy = protocol::emit_response(&Response::Busy { retry_after_ms: 1 });
            write_frame_tagged(stream, window[2].0, &busy).expect("shed");
        } else {
            serve_honestly(stream, conn, log);
        }
    });
    let chunks = four_chunks();
    let views: Vec<&[TuningParams]> = chunks.iter().map(Vec::as_slice).collect();
    let policy = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let client = Client::connect_with(&addr, policy).expect("connect");
    let answers = client.evaluate_chunks(&scope(), &views, 4).expect("heals after the shed");
    for (chunk, (_, measurements)) in chunks.iter().zip(&answers) {
        let expected: Vec<Measurement> = chunk.iter().map(|&p| honest(p)).collect();
        assert_eq!(measurements, &expected);
    }
    assert_eq!(client.retries(), 1, "one shed costs one retry");
    drop(client);
    handle.join().expect("mock thread");
    let log = log.lock().unwrap();
    let first: Vec<&Vec<TuningParams>> =
        log.iter().filter(|(c, _)| *c == 0).map(|(_, p)| p).collect();
    let resent: Vec<&Vec<TuningParams>> =
        log.iter().filter(|(c, _)| *c == 1).map(|(_, p)| p).collect();
    assert_eq!(first, chunks.iter().collect::<Vec<_>>(), "the whole window went out first");
    assert_eq!(
        resent,
        chunks[2..].iter().collect::<Vec<_>>(),
        "only the shed and the unanswered chunk are resent"
    );
}
