//! Host-normalised timing.
//!
//! The shared hosts this benchmark runs on change speed under it: on the
//! 2-vCPU VM it was tuned on, the same code runs at two speeds about 1.7×
//! apart, switching every few seconds, with the share of slow time drifting
//! over minutes (README.md, "Noise"). Wall times of the same binary then
//! spread by a quarter from run to run, whatever statistic is taken over
//! them. A fixed reference routine, run right before each timed call,
//! slows down with the host the way the verifier does, so every time this
//! benchmark reports is normalised by it: the wall time scaled by
//! [`REF_MS`] over the routine's time just before the call. That is the
//! time the call would take on a host that runs the routine in [`REF_MS`].
//! The routine is fixed code of this package, so a change to the verifier
//! moves the normalised time as it moves the wall time; the wall times are
//! printed beside the normalised ones.
//!
//! The slow mode barely touches arithmetic; it raises the cost of memory
//! access, the verifier's main cost. So the routine has two parts, each
//! like one side of the verifier's work: small sorted vectors interned in
//! a hash set and a B-tree (the symbolic-state sets), and random updates
//! of a table larger than the first cache levels (the Karp–Miller and
//! visited-state maps). Its time is the geometric mean of the two parts'.
//! On the tuning VM this cut the run-to-run spread of the time metrics from
//! 0.1–0.27 to 0.02–0.13 (README.md, "Noise" and "Steadiness").

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// The reference routine's time, in ms, on the host normalised to: about
/// its time in the tuning VM's fast mode.
pub const REF_MS: f64 = 1.2;

/// Small vectors the first part interns.
const REF_VECTORS: u64 = 1_500;

/// Slots of the second part's table (2 MiB of entries).
const REF_SLOTS: u64 = 1 << 17;

/// Updates the second part makes.
const REF_UPDATES: u64 = 60_000;

/// One step of the routines' seeded generator (a 64-bit LCG).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Runs the reference routine once; returns its time in ms, the geometric
/// mean of its two parts' wall times.
pub fn reference() -> f64 {
    let interning = {
        let start = Instant::now();
        let mut hashed: HashSet<Vec<u32>> = HashSet::new();
        let mut ordered: BTreeSet<Vec<u32>> = BTreeSet::new();
        let mut x = 7u64;
        for _ in 0..REF_VECTORS {
            let mut v = Vec::new();
            for _ in 0..(8 + x % 9) {
                x = lcg(x);
                v.push(((x >> 40) % 64) as u32);
            }
            v.sort_unstable();
            ordered.insert(v.clone());
            hashed.insert(v);
        }
        std::hint::black_box((hashed.len(), ordered.len()));
        start.elapsed().as_secs_f64()
    };
    let table = {
        let start = Instant::now();
        let mut table: HashMap<u64, u64> = HashMap::with_capacity(REF_SLOTS as usize);
        let mut x = 1u64;
        for i in 0..REF_UPDATES {
            x = lcg(x);
            *table.entry((x >> 33) % REF_SLOTS).or_default() += i;
        }
        std::hint::black_box(table.len());
        drop(table);
        start.elapsed().as_secs_f64()
    };
    (interning * table).sqrt() * 1000.0
}

/// One timed call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Host-normalised time, ms.
    pub ms: f64,
    /// Wall time, ms.
    pub wall_ms: f64,
    /// The normalisation factor, `REF_MS / reference time`; scales any
    /// time measured inside the call.
    pub scale: f64,
}

/// Times calls against the reference routine.
#[derive(Default)]
pub struct Clock {
    /// The reference routine's time before each call, ms.
    pub ref_ms: Vec<f64>,
}

impl Clock {
    /// Runs the reference routine, then times `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (Sample, R) {
        let ref_ms = reference();
        self.ref_ms.push(ref_ms);
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let scale = REF_MS / ref_ms;
        (
            Sample {
                ms: wall_ms * scale,
                wall_ms,
                scale,
            },
            out,
        )
    }
}
