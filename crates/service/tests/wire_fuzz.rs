//! Totality of every byte the client reads: the frame decoders
//! (`decode_frame`, `read_frame_tagged`) and the response parser
//! (`parse_response`), fed arbitrary bytes and valid frames and
//! responses mutated by bit flips, truncation, lying length fields and
//! oversize lengths. Every case must end in a classified `FrameError`
//! or a wire error — never a panic, never a payload other than the one
//! sent — and no case may allocate past `MAX_FRAME_BYTES`.

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::protocol::{emit_response, parse_response};
use oriole_service::{Response, ServiceStats};
use oriole_tuner::persist::{
    decode_frame, read_frame_tagged, write_frame_tagged, DiskStats, FrameError, FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
};
use oriole_tuner::Measurement;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// Records, per thread, the largest single allocation requested since
/// the last [`allocation_within_cap`] check — one test case's worth.
struct PeakAlloc;

thread_local! {
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    // `try_with`: allocations during thread teardown go unrecorded.
    let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is an
// update of a const-initialized thread-local cell, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Checks, and resets, this thread's allocation peak.
fn allocation_within_cap() -> Result<(), TestCaseError> {
    let peak = PEAK_ALLOC.with(|peak| peak.replace(0));
    prop_assert!(
        peak <= MAX_FRAME_BYTES as usize,
        "a {peak}-byte allocation exceeds the {MAX_FRAME_BYTES}-byte frame cap"
    );
    Ok(())
}

fn measurement(tc: u32, time_ms: f64) -> Measurement {
    Measurement {
        params: TuningParams::with_geometry(tc, 48),
        time_ms,
        per_size_ms: vec![(64, time_ms), (128, time_ms * 3.5)],
        feasible: tc <= 1024,
        occupancy: 0.625,
        regs_allocated: 32,
        reg_instructions: 17.0,
    }
}

/// One valid response of every shape the client can receive.
fn valid_responses() -> &'static [Response] {
    static RESPONSES: OnceLock<Vec<Response>> = OnceLock::new();
    RESPONSES.get_or_init(|| {
        let gpu = Gpu::K20.spec();
        let kernel = oriole_codegen::compile(
            &oriole_kernels::KernelId::Atax.ast(64),
            gpu,
            TuningParams::with_geometry(128, 48),
        )
        .expect("compile");
        let report = oriole_sim::simulate(&kernel, 64).expect("simulate");
        vec![
            Response::Pong,
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: 25 },
            Response::Error { message: "unknown kernel `gemm`".to_string() },
            Response::Stats(ServiceStats {
                connections: 3,
                requests: 41,
                pipelined_peak: 8,
                disk: Some(DiskStats {
                    tier_hits: 2,
                    measurements_loaded: 640,
                    ..DiskStats::default()
                }),
                ..ServiceStats::default()
            }),
            Response::Evaluate {
                computed: 2,
                measurements: vec![measurement(128, 0.125), measurement(2048, f64::INFINITY)],
            },
            Response::Simulate { selected: 1.0e-3, report },
        ]
    })
}

fn frame(corr: u64, payload: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame_tagged(&mut buf, corr, payload).expect("frame into memory");
    buf
}

/// What `decode_frame` answers: a frame, "incomplete", or damage.
type Decoded = Result<Option<(u64, String, usize)>, FrameError>;
/// What `read_frame_tagged` answers: a frame, the stream ending, or damage.
type Read = Result<(u64, String), FrameError>;

/// Both decoders over one buffer. `decode_frame` does no I/O, so it can
/// only ever answer a frame, "incomplete", or one of the damage
/// classes; `read_frame_tagged` may also report the stream ending.
fn decode_both(bytes: &[u8]) -> (Decoded, Read) {
    (decode_frame(bytes), read_frame_tagged(&mut &bytes[..]))
}

fn is_damage(e: &FrameError) -> bool {
    matches!(
        e,
        FrameError::BadMagic(_)
            | FrameError::TooLarge(_)
            | FrameError::BadChecksum
            | FrameError::BadUtf8
    )
}

fn is_cut_short(e: &FrameError) -> bool {
    matches!(e, FrameError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof)
}

/// The shared totality contract for any byte string.
fn check_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, read) = decode_both(bytes);
    match &decoded {
        Ok(Some((_, _, used))) => prop_assert!(*used <= bytes.len()),
        Ok(None) => {}
        Err(e) => prop_assert!(is_damage(e), "decode_frame misclassified: {e:?}"),
    }
    match &read {
        Ok(_) => {}
        Err(FrameError::Eof) => prop_assert!(bytes.is_empty(), "Eof only between frames"),
        Err(e) => prop_assert!(is_damage(e) || is_cut_short(e), "read misclassified: {e:?}"),
    }
    // The two decoders agree on every frame they both accept.
    if let Ok(Some((corr, payload, _))) = &decoded {
        prop_assert!(matches!(&read, Ok((c, p)) if c == corr && p == payload));
    }
    if let Ok((_, payload)) = &read {
        if let Err(e) = parse_response(payload) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
    allocation_within_cap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_end_in_a_classified_error_or_a_frame(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        magic in any::<bool>(),
    ) {
        // Half the cases open with valid magic so the garbage reaches
        // the length, checksum and payload checks.
        let mut input = if magic { b"ORLF".to_vec() } else { Vec::new() };
        input.extend_from_slice(&bytes);
        check_total(&input)?;
    }

    #[test]
    fn arbitrary_text_never_panics_the_response_parser(
        verb in prop_oneof![
            Just("ok evaluate"),
            Just("ok stats"),
            Just("ok simulate"),
            Just("busy"),
            Just("error"),
            Just("ok pong"),
        ],
        lines in prop::collection::vec("[a-z_=0-9 .:|,x-]{0,40}", 0..8),
        raw in "\\PC*",
    ) {
        let payload = format!("oriole-rpc v3 {verb}\n{}", lines.join("\n"));
        for text in [payload.as_str(), raw.as_str()] {
            if let Err(e) = parse_response(text) {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn bit_flipped_frames_are_rejected_never_misdelivered(
        which in 0usize..7,
        corr in any::<u64>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let resp = &valid_responses()[which];
        let payload = emit_response(resp);
        let original = frame(corr, &payload);
        let mut bytes = original.clone();
        for (at, bit) in &flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        check_total(&bytes)?;
        let (decoded, read) = decode_both(&bytes);
        let Some(first) = bytes.iter().zip(&original).position(|(a, b)| a != b) else {
            // The flips cancelled out: the frame must round-trip.
            prop_assert!(matches!(&read, Ok((c, p)) if *c == corr && *p == payload));
            prop_assert_eq!(&parse_response(&payload).expect("valid payload"), resp);
            return Ok(());
        };
        let lied = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if first < 4 {
            prop_assert!(matches!(decoded, Err(FrameError::BadMagic(_))), "{decoded:?}");
            prop_assert!(matches!(read, Err(FrameError::BadMagic(_))), "{read:?}");
        } else if first < 8 && lied > MAX_FRAME_BYTES {
            prop_assert!(matches!(decoded, Err(FrameError::TooLarge(_))), "{decoded:?}");
            prop_assert!(matches!(read, Err(FrameError::TooLarge(_))), "{read:?}");
        } else if first < 8 && lied as usize > payload.len() {
            prop_assert!(matches!(decoded, Ok(None)), "{decoded:?}");
            prop_assert!(read.as_ref().is_err_and(is_cut_short), "{read:?}");
        } else {
            // A shorter length, or damage to checksum, id or payload.
            prop_assert!(matches!(decoded, Err(FrameError::BadChecksum)), "{decoded:?}");
            prop_assert!(matches!(read, Err(FrameError::BadChecksum)), "{read:?}");
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_never_wrong(
        which in 0usize..7,
        corr in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let bytes = frame(corr, &emit_response(&valid_responses()[which]));
        let cut = cut % bytes.len();
        check_total(&bytes[..cut])?;
        let (decoded, read) = decode_both(&bytes[..cut]);
        prop_assert!(matches!(decoded, Ok(None)), "{decoded:?}");
        if cut == 0 {
            prop_assert!(matches!(read, Err(FrameError::Eof)), "{read:?}");
        } else {
            prop_assert!(read.as_ref().is_err_and(is_cut_short), "{read:?}");
        }
    }

    #[test]
    fn lying_and_oversize_length_fields_are_caught(
        which in 0usize..7,
        corr in any::<u64>(),
        lie in prop_oneof![
            0u32..64,
            64u32..4096,
            (MAX_FRAME_BYTES - 4096)..=MAX_FRAME_BYTES,
            (MAX_FRAME_BYTES + 1)..=(MAX_FRAME_BYTES + 4096),
            (MAX_FRAME_BYTES + 1)..=u32::MAX,
        ],
    ) {
        let payload = emit_response(&valid_responses()[which]);
        let mut bytes = frame(corr, &payload);
        let actual = payload.len() as u32;
        prop_assume_ne(lie, actual)?;
        bytes[4..8].copy_from_slice(&lie.to_be_bytes());
        check_total(&bytes)?;
        let (decoded, read) = decode_both(&bytes);
        if lie > MAX_FRAME_BYTES {
            prop_assert!(matches!(decoded, Err(FrameError::TooLarge(n)) if n == lie));
            prop_assert!(matches!(read, Err(FrameError::TooLarge(n)) if n == lie));
        } else if lie > actual {
            prop_assert!(matches!(decoded, Ok(None)), "{decoded:?}");
            prop_assert!(read.as_ref().is_err_and(is_cut_short), "{read:?}");
        } else {
            prop_assert!(matches!(decoded, Err(FrameError::BadChecksum)), "{decoded:?}");
            prop_assert!(matches!(read, Err(FrameError::BadChecksum)), "{read:?}");
        }
    }

    #[test]
    fn mutated_responses_parse_or_fail_with_a_wire_error(
        which in 0usize..7,
        mutation in 0u8..5,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let resp = &valid_responses()[which];
        let payload = emit_response(resp);
        let mut lines: Vec<&str> = payload.lines().collect();
        let line = at % lines.len();
        let mutated = match mutation {
            0 => {
                let mut bytes = payload.clone().into_bytes();
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let cut = (0..=at % (payload.len() + 1))
                    .rev()
                    .find(|&i| payload.is_char_boundary(i))
                    .unwrap_or(0);
                payload[..cut].to_string()
            }
            2 => {
                lines.remove(line);
                lines.join("\n")
            }
            3 => {
                lines.insert(line, lines[line]);
                lines.join("\n")
            }
            _ => {
                let other = (line + 1 + bit as usize) % lines.len();
                lines.swap(line, other);
                lines.join("\n")
            }
        };
        match parse_response(&mutated) {
            Ok(parsed) if mutated == payload => prop_assert_eq!(&parsed, resp),
            Ok(_) => {}
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        // The mutated payload framed and decoded again stays total.
        check_total(&frame(1, &mutated))?;
    }
}

/// Rejects a generated case that would make the property vacuous.
fn prop_assume_ne(a: u32, b: u32) -> Result<(), TestCaseError> {
    if a == b {
        return Err(TestCaseError::reject("the lie equals the true length"));
    }
    Ok(())
}

#[test]
fn frame_header_layout_is_what_the_mutations_assume() {
    // The mutation oracles above index the length field as bytes 4..8
    // and the payload as starting at the header size.
    let bytes = frame(9, "abc");
    assert_eq!(&bytes[..4], b"ORLF");
    assert_eq!(u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]), 3);
    assert_eq!(&bytes[FRAME_HEADER_BYTES..], b"abc");
}
