//! Host-speed normalization of end-to-end timings.
//!
//! The benchmark runs on shared machines whose effective CPU speed
//! drifts by tens of percent over minutes (neighbouring tenants,
//! frequency). Between operations the benchmark times a fixed reference
//! task of its own — a 16 MiB stream through an integer mix, code that
//! belongs to the benchmark and never to the program — and scales every
//! end-to-end time of the run by `REFERENCE_S / median reference time`:
//! the time the run would have measured had the host run the reference
//! task in exactly `REFERENCE_S`. A slowdown of the whole host during a
//! run cancels; a change in the program does not, because the reference
//! task does not run the program's code. The raw medians and the
//! reference time are kept in the run's record.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Nominal duration of the reference task (its typical time on the
/// 2-core x86-64 host the benchmark was tuned on).
pub const REFERENCE_S: f64 = 0.030;

const WORDS: usize = 1 << 21; // 16 MiB: streams past the last-level cache

fn buffer() -> &'static [u64] {
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    BUF.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// Seconds the reference task takes right now: one pass on each of
/// `nproc` threads at once, so a slowdown of any core the program's
/// threads run on shows.
pub fn reference_task() -> f64 {
    let buf = buffer();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for seed in 0..crate::nproc() as u64 {
            scope.spawn(move || {
                let mut acc = seed;
                for _ in 0..4 {
                    for &w in black_box(buf) {
                        acc = (acc ^ w).rotate_left(7).wrapping_mul(0xff51_afd7_ed55_8ccd);
                        acc += u64::from((w & (w >> 1)).count_ones());
                    }
                }
                black_box(acc);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// The factor that maps times measured during a run onto the nominal
/// host, from the run's reference-task samples.
pub fn scale(reference_s: &[f64]) -> f64 {
    REFERENCE_S / crate::stats::median(reference_s)
}
