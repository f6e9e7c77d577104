//! Host-speed calibration for compute-bound timings.
//!
//! The CPU speed of the reference host, a shared 2-vCPU VM, swings by up
//! to 1.6× over spells of seconds to tens of seconds (a fixed loop that
//! touches no program code slows by the same factor), which would swamp
//! any change to the program in a raw wall-clock number. So every
//! compute-bound duration the benchmark reports (batch replications,
//! set-up) is bracketed by readings of a fixed reference kernel, and
//! reported in *reference time*: its raw duration scaled by
//! `REF_KERNEL_MS / kernel`. When the host runs at reference speed the
//! two agree; when it slows, both slow and the ratio holds.
//!
//! The kernel is benchmark-owned and uses only `std`, so no change to the
//! program can move it: a binary-heap calendar, random read-modify-writes
//! over a 16 MiB table and a small allocation per step, which is the mix
//! the simulator's event loop, conflict caches and arena exercise. Its
//! table is larger than the last-level cache on purpose: the host's slow
//! spells hit memory-bound code hardest, and a kernel that fits in cache
//! does not track them (a 2 MiB table was tried and did not).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on the reference host (2 vCPUs of an Intel Xeon
/// at 2.0 GHz, fast spell), in milliseconds.
pub const REF_KERNEL_MS: f64 = 8.0;

/// Steps per kernel run.
const STEPS: u64 = 40_000;

pub struct Calibrator {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// The most recent kernel duration, ms.
    last_ms: f64,
    /// Every kernel duration measured, ms.
    pub samples_ms: Vec<f64>,
}

impl Calibrator {
    /// Allocate the kernel's state and take a first reading.
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: vec![1; 1 << 21],
            heap: BinaryHeap::with_capacity(2048),
            last_ms: 0.0,
            samples_ms: Vec::new(),
        };
        c.kernel(); // warm the table
        c.samples_ms.clear();
        c.begin();
        c
    }

    /// Take the reading that opens a timed interval.
    pub fn begin(&mut self) {
        self.last_ms = self.kernel();
    }

    fn kernel(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        let t0 = Instant::now();
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(Reverse((x % 1_000_000, i)));
            if self.heap.len() > 1024 {
                let Reverse((k, id)) = self.heap.pop().expect("heap is non-empty");
                acc = acc.wrapping_add(k ^ id);
            }
            let j = (x as usize) & mask;
            self.table[j] = self.table[j].wrapping_add(acc).rotate_left(7);
            let b = Box::new([x, acc, i, j as u64]);
            acc ^= black_box(&b)[1];
        }
        self.heap.clear();
        black_box(acc);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// The factor that converts the raw duration of the interval that
    /// just ended into reference time: the reference kernel time over the
    /// mean of the readings taken before the interval (by `begin` or the
    /// previous `factor`) and now, after it.
    pub fn factor(&mut self) -> f64 {
        let now = self.kernel();
        let f = REF_KERNEL_MS / (0.5 * (self.last_ms + now));
        self.last_ms = now;
        f
    }
}
