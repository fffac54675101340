//! The speed-state calibration kernel.
//!
//! The reference box is a 2-vCPU guest on a shared host: for tens of
//! seconds at a time the same single-threaded process runs up to 1.3×
//! slower (no steal time is charged — it looks like a busy sibling
//! hyper-thread), so a 10 s measurement window lands wholly in one
//! state or the other and raw wall times from separate runs differ by
//! up to 27 %.  No estimator over the window's samples can cancel a
//! state the whole window shares.
//!
//! What can: a fixed piece of harness code, timed immediately before
//! and after each spawn of the measured program, says how fast the
//! machine is *right now*.  Wall times are reported at reference speed:
//! `wall × REFERENCE_NS / kernel time around that spawn`.  The kernel
//! shares no code with the measured program, so a regression in the
//! program cannot hide in it; the raw wall times are kept beside the
//! corrected ones in the result file.
//!
//! Measured on the reference box over 45–60 s of back-to-back spawns,
//! the quartile spread of single spawns, raw → corrected: `paper_dense`
//! 6.4 → 2.1 %, `full_large` 5.0 → 2.0 %, `million_sparse` 9.6 → 5.2 %,
//! `simple_sweep` 4.7 → 1.5 %, `traced_simple` 9.0 → 6.5 %,
//! `async_lossy` 17.3 → 3.5 %, `serve_sim` 22.1 → 5.0 %.  (A kernel of
//! random reads over 2 MiB, tried first, did not track at all: the
//! slow state costs compute, not memory.)

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference box in its fast state.  Corrected times
/// therefore read as "seconds on the undisturbed reference box"; on
/// another machine they are scaled by a constant, which no comparison
/// between two commits on that machine notices.
pub const REFERENCE_NS: f64 = 1.45e6;

/// Kernel runs per sample; the fastest one is the sample, so a stray
/// interrupt inside one run does not pose as a slow machine.
const RUNS_PER_SAMPLE: usize = 3;

const SLOTS: usize = 1 << 16;
const ROUNDS: u64 = 400_000;

/// Open-addressing insert-or-find over a 512 KiB table driven by
/// a splitmix stream: branchy, integer, L2-resident — the instruction
/// mix of the simulators, which is what makes its slowdown track theirs.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut hits = 0u64;
    for round in 0..ROUNDS {
        // Start over every 64 Ki rounds: the table never fills, and hit
        // and miss stay about equally likely (an unpredictable branch).
        if round & 0xFFFF == 0 {
            table.fill(0);
        }
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        // Keys from a 32 Ki universe: the table stays under half full.
        let key = ((z ^ (z >> 31)) & 0x7FFF) | 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9) as usize) & (SLOTS - 1);
        loop {
            let held = table[slot];
            if held == key {
                hits += 1;
                break;
            }
            if held == 0 {
                table[slot] = key;
                break;
            }
            slot = (slot + 1) & (SLOTS - 1);
        }
    }
    hits
}

/// Times kernel runs; one instance per benchmark process, so the table
/// is allocated (and its pages touched) once.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: vec![0; SLOTS],
        };
        c.sample_ns(); // touch the pages outside any measurement
        c
    }

    /// Nanoseconds one kernel run takes right now.
    pub fn sample_ns(&mut self) -> f64 {
        (0..RUNS_PER_SAMPLE)
            .map(|_| {
                let started = Instant::now();
                black_box(kernel(black_box(&mut self.table)));
                started.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The factor that takes a wall time measured between two kernel
/// samples to reference speed.
pub fn to_reference(before_ns: f64, after_ns: f64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_real_work() {
        let mut a = vec![0; SLOTS];
        let mut b = vec![7; SLOTS];
        let hits = kernel(&mut a);
        assert_eq!(hits, kernel(&mut b), "the table is reset each run");
        assert!(hits > ROUNDS / 4 && hits < ROUNDS, "hits {hits}");
    }

    #[test]
    fn correction_scales_to_the_reference() {
        assert!((to_reference(REFERENCE_NS, REFERENCE_NS) - 1.0).abs() < 1e-12);
        // A machine running the kernel 25 % slower gets its times cut.
        let f = to_reference(1.25 * REFERENCE_NS, 1.25 * REFERENCE_NS);
        assert!((f - 0.8).abs() < 1e-12);
    }
}
