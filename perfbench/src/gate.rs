//! The correctness gate: order-independent digests of every delivered
//! measurement, the recorded reference values they must match, and the
//! Fig. 6 pruning fractions.

use oriole_arch::{Gpu, ALL_GPUS};
use oriole_kernels::{KernelId, ALL_KERNELS};
use oriole_tuner::Measurement;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-count values on the paper's `TC` axis (32..=1024 step 32).
const TC_VALUES: usize = 32;

/// One kernel × GPU pair of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Index in the canonical (kernel-major) order.
    pub index: usize,
    /// The kernel.
    pub kernel: KernelId,
    /// The device.
    pub gpu: Gpu,
}

impl Pair {
    /// The paper's five input sizes for this pair's kernel.
    pub fn sizes(&self) -> Vec<u64> {
        self.kernel.input_sizes().to_vec()
    }
}

/// The 16 pairs in canonical order.
pub fn pairs() -> Vec<Pair> {
    let mut out = Vec::new();
    for kernel in ALL_KERNELS {
        for gpu in ALL_GPUS {
            out.push(Pair {
                index: out.len(),
                kernel,
                gpu,
            });
        }
    }
    out
}

/// splitmix64: the benchmark's only source of seeded randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates). The seed only ever
/// reorders work; it never changes which work is done.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// FNV-1a over a sequence of words, finished with a splitmix round so
/// that wrapping sums of hashes spread well.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    let mut s = h;
    splitmix(&mut s)
}

/// Hash of every bit of one measurement.
fn measurement_hash(m: &Measurement) -> u64 {
    let p = m.params;
    let mut words = vec![
        u64::from(p.tc),
        u64::from(p.bc),
        u64::from(p.uif),
        u64::from(p.pl.kb()),
        u64::from(p.sc),
        u64::from(p.cflags.fast_math),
        m.time_ms.to_bits(),
        u64::from(m.feasible),
        m.occupancy.to_bits(),
        u64::from(m.regs_allocated),
        m.reg_instructions.to_bits(),
    ];
    for &(n, t) in &m.per_size_ms {
        words.push(n);
        words.push(t.to_bits());
    }
    hash_words(words)
}

/// An order-independent digest: the wrapping sum of measurement hashes.
#[derive(Debug, Default)]
pub struct Digest(AtomicU64);

impl Digest {
    /// Folds measurements into the digest.
    pub fn fold<M: Borrow<Measurement>>(&self, ms: &[M]) {
        let sum = ms.iter().fold(0u64, |acc, m| {
            acc.wrapping_add(measurement_hash(m.borrow()))
        });
        self.0.fetch_add(sum, Ordering::Relaxed);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The recorded reference for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Digest of the 5,120 exhaustive measurements.
    pub exhaustive: u64,
    /// Digest of the static-pruned search's measurements.
    pub static_: u64,
    /// Digest of the rule-based search's measurements.
    pub rules: u64,
    /// `TC` values the static search keeps (of [`TC_VALUES`]).
    pub static_kept: usize,
    /// `TC` values the rule-based search keeps.
    pub rules_kept: usize,
}

const EXPECTED: &str = include_str!("../expected.txt");

/// The recorded reference of every pair, in canonical order.
pub fn expected() -> Vec<Expected> {
    let mut out = Vec::new();
    for (pair, line) in pairs()
        .iter()
        .zip(EXPECTED.lines().filter(|l| is_pair_line(l)))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 7, "expected.txt: malformed line `{line}`");
        assert_eq!(
            (f[0], f[1]),
            (pair.kernel.name(), pair.gpu.spec().name),
            "expected.txt lists pairs in canonical order"
        );
        let hex = |s: &str| {
            u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("expected.txt: hex digest")
        };
        let num = |s: &str| s.parse::<usize>().expect("expected.txt: kept count");
        out.push(Expected {
            exhaustive: hex(f[2]),
            static_: hex(f[3]),
            rules: hex(f[4]),
            static_kept: num(f[5]),
            rules_kept: num(f[6]),
        });
    }
    assert_eq!(out.len(), 16, "expected.txt must list all 16 pairs");
    out
}

fn is_pair_line(l: &str) -> bool {
    !l.trim().is_empty() && !l.starts_with('#') && !l.starts_with("lowerings")
}

/// Front-end lowerings a local cold Fig. 6 pass runs: one per distinct
/// `(kernel, gpu, size, UIF, CFLAGS)` key that lowers.
pub fn expected_lowerings() -> u64 {
    EXPECTED
        .lines()
        .find_map(|l| l.strip_prefix("lowerings "))
        .and_then(|n| n.trim().parse().ok())
        .expect("expected.txt records the local lowering count")
}

/// What one Fig. 6 pair delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairOutcome {
    /// Digest of the exhaustive search's measurements.
    pub exhaustive: u64,
    /// Digest of the static-pruned search's measurements.
    pub static_: u64,
    /// Digest of the rule-based search's measurements.
    pub rules: u64,
    /// `TC` values the static search kept.
    pub static_kept: usize,
    /// `TC` values the rule-based search kept.
    pub rules_kept: usize,
    /// The static search's reported improvement.
    pub static_improvement_bits: u64,
    /// The rule-based search's reported improvement.
    pub rules_improvement_bits: u64,
}

/// Checks one pair's Fig. 6 outcome; `Err` names every mismatch.
pub fn check_pair(pair: &Pair, got: &PairOutcome, want: &Expected) -> Result<(), String> {
    let mut errs = Vec::new();
    let name = format!("{} on {}", pair.kernel.name(), pair.gpu.spec().name);
    if got.exhaustive != want.exhaustive {
        errs.push(format!(
            "exhaustive digest {:#018x} != {:#018x}",
            got.exhaustive, want.exhaustive
        ));
    }
    if got.static_ != want.static_ {
        errs.push(format!(
            "static digest {:#018x} != {:#018x}",
            got.static_, want.static_
        ));
    }
    if got.rules != want.rules {
        errs.push(format!(
            "rule-based digest {:#018x} != {:#018x}",
            got.rules, want.rules
        ));
    }
    for (label, kept, want_kept, bits) in [
        (
            "static",
            got.static_kept,
            want.static_kept,
            got.static_improvement_bits,
        ),
        (
            "rule-based",
            got.rules_kept,
            want.rules_kept,
            got.rules_improvement_bits,
        ),
    ] {
        let k = (TC_VALUES - kept) as f64 / TC_VALUES as f64;
        if kept != want_kept {
            errs.push(format!(
                "{label} search kept {kept}/32 thread values, expected {want_kept}"
            ));
        } else if f64::from_bits(bits) != k {
            errs.push(format!(
                "{label} improvement {} is not {}/32",
                f64::from_bits(bits),
                TC_VALUES - kept
            ));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: {}", errs.join("; ")))
    }
}
