//! Host-speed witness: a fixed piece of this crate's own code, timed
//! between end-to-end units so that compute-bound timings can be corrected
//! for how fast the host was at that moment.
//!
//! The reference host is a shared VM. Its scalar speed is steady, but the
//! throughput of vector arithmetic and of L2-sized streaming swings by
//! 1.5–2× as neighbouring tenants come and go, within milliseconds and in
//! stretches of minutes. Identical code then reads 20–45% apart between
//! runs a few minutes apart. The witness does the same kinds of work as
//! the workloads — dense `f64` multiply-adds and streaming over an
//! L2-sized buffer, with about a third of its time in a scalar dependency
//! chain that contention does not slow, as the workloads have their
//! scalar bookkeeping — but never calls the library and allocates nothing
//! while timed, and each timing follows an untimed pass that brings its
//! data back into cache, so a change to the program (its code, its cache
//! footprint, its heap) cannot move it.
//!
//! A compute-bound unit's **host-normalised time** is its wall time
//! × [`REFERENCE_US`] ÷ the mean of the witness times just before and just
//! after it ([`bracketed`]): the unit's cost in witness runs, expressed in
//! µs of the reference host when quiet. The raw wall times stay in each
//! run's record.

use std::time::{Duration, Instant};

/// The witness's time on the reference host when uncontended (its floor
/// over long runs, rounded), µs. A fixed scale: it only sets the
/// magnitude of normalised times, never their ratio between commits.
pub const REFERENCE_US: f64 = 75.0;

/// Side of the square matrices multiplied.
const N: usize = 32;
/// Matrix products per witness run.
const PRODUCTS: usize = 4;
/// Elements streamed per pass (512 KiB of `f64`, read and written).
const STREAM: usize = 1 << 16;
/// Streaming passes per witness run.
const PASSES: usize = 2;
/// Steps of the scalar dependency chain per witness run.
const CHAIN: u64 = 16_000;

/// The witness's fixed inputs.
pub struct Witness {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    src: Vec<f64>,
    dst: Vec<f64>,
    /// Every [`Witness::time`] result so far, µs.
    log: Vec<f64>,
}

impl Default for Witness {
    fn default() -> Self {
        Self::new()
    }
}

impl Witness {
    pub fn new() -> Self {
        Self {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect(),
            b: (0..N * N).map(|i| (i % 5) as f64 * 0.1).collect(),
            c: vec![0.0; N * N],
            src: (0..STREAM).map(|i| (i % 11) as f64).collect(),
            dst: vec![0.0; STREAM],
            log: Vec::new(),
        }
    }

    /// Runs the fixed work once untimed, to bring its data back into cache
    /// whatever the unit before it left there, then `reps` times timed,
    /// and returns the median timed run.
    pub fn time(&mut self, reps: usize) -> Duration {
        self.once();
        let mut t: Vec<Duration> = (0..reps.max(1)).map(|_| self.once()).collect();
        t.sort_unstable();
        let median = t[(t.len() - 1) / 2];
        self.log.push(crate::us(median));
        median
    }

    /// Puts the witness's p10, median and sample count into the run record:
    /// its p10 is the host's quiet speed, its median how contended the run
    /// was.
    pub fn note(&self, out: &mut crate::Outcome) {
        let s = crate::stats::sorted(&self.log);
        let at = |p| crate::stats::nearest_rank(&s, p).unwrap_or(0.0);
        out.note(
            "witness_us",
            format!(
                "n={} p10={:.1} median={:.1} reference={REFERENCE_US}",
                s.len(),
                at(10.0),
                at(50.0)
            ),
        );
    }

    fn once(&mut self) -> Duration {
        let t0 = Instant::now();
        for _ in 0..PRODUCTS {
            matmul_acc(&self.a, &self.b, &mut self.c);
            std::hint::black_box(&mut self.c);
        }
        for p in 0..PASSES {
            for (d, x) in self.dst.iter_mut().zip(&self.src) {
                *d = x * 0.5 + p as f64;
            }
            std::hint::black_box(&mut self.dst);
        }
        std::hint::black_box(chain(std::hint::black_box(CHAIN)));
        t0.elapsed()
    }
}

/// `c += a · b` for `N × N` row-major matrices, in i-k-j order.
#[inline(never)]
fn matmul_acc(a: &[f64], b: &[f64], c: &mut [f64]) {
    for i in 0..N {
        let row = &mut c[i * N..(i + 1) * N];
        for k in 0..N {
            let aik = a[i * N + k];
            for (cj, bj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *cj += aik * bj;
            }
        }
    }
}

/// Each unit's witness, from the runs around it: `before[i]` ran just
/// before unit `i`, and `last` just after the last unit. Unit `i` gets the
/// mean of the runs just before and just after it.
pub fn bracketed(before: &[Duration], last: Duration) -> Vec<Duration> {
    let after = before.iter().skip(1).chain(std::iter::once(&last));
    before
        .iter()
        .zip(after)
        .map(|(b, a)| (*b + *a) / 2)
        .collect()
}

/// A latency-bound scalar recurrence of `steps` steps: the part of the
/// witness whose speed contention does not move.
#[inline(never)]
fn chain(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 33));
    }
    x
}

/// A unit's host-normalised time in µs: `wall` × [`REFERENCE_US`] ÷
/// `witness`.
pub fn normalise(wall: Duration, witness: Duration) -> f64 {
    crate::us(wall) * REFERENCE_US / crate::us(witness).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_scales_by_the_witness() {
        let w = Duration::from_micros(400);
        assert_eq!(
            normalise(Duration::from_millis(10), w),
            10_000.0 * REFERENCE_US / 400.0
        );
        let quiet = Duration::from_micros(REFERENCE_US as u64);
        assert_eq!(normalise(Duration::from_millis(10), quiet), 10_000.0);
    }

    #[test]
    fn bracketed_takes_the_runs_on_either_side() {
        let ms = Duration::from_millis;
        assert_eq!(bracketed(&[ms(2), ms(4)], ms(8)), vec![ms(3), ms(6)]);
        assert!(bracketed(&[], ms(1)).is_empty());
    }

    #[test]
    fn witness_times_are_positive() {
        let mut w = Witness::new();
        assert!(w.time(3) > Duration::ZERO);
    }
}
