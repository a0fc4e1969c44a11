//! A fixed reference computation that measures how fast the machine is
//! running right now.
//!
//! On a shared host the same program runs 20-50% slower for seconds at a
//! time while other tenants load the machine. Each epoch therefore pauses
//! its timer at evenly spaced points of its schedule and runs one short
//! chunk of the reference there, so the reference samples the machine
//! over the same stretch of time as the epoch. The epoch's wall times,
//! set-up included, are multiplied by [`Speed::scale`]: a reported time is
//! what the work would take on a machine that runs a chunk in
//! [`CHUNK_NS`]. The reference uses the standard library only, so no
//! change to the service can change it. It mixes what the service does:
//! heap allocation, hashing, ordered-map lookups and 64x64-bit multiplies.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop in one chunk.
const ITERS: u64 = 3_000;

/// A chunk's nominal duration, about its median on an otherwise idle
/// 2-vCPU Intel Xeon VM. Times are reported at that speed.
pub const CHUNK_NS: f64 = 600_000.0;

fn reference(seed: u64) -> u64 {
    let mut map: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bytes: Vec<u8> = (0..48).map(|j| (x >> (j % 8 * 8)) as u8).collect();
        let mut h = DefaultHasher::new();
        bytes.hash(&mut h);
        let digest = h.finish();
        let mut m = digest;
        for _ in 0..16 {
            m = ((u128::from(m) * u128::from(x | 1)) >> 32) as u64 ^ m;
        }
        map.insert(x % 4096, (m, bytes));
        acc ^= map.get(&(digest % 4096)).map_or(0, |e| e.0);
    }
    acc
}

/// Reference chunks run during one epoch.
#[derive(Default)]
pub struct Speed {
    chunks: u64,
    ns: f64,
}

impl Speed {
    /// Runs and times one chunk of the reference.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(reference(black_box(0x9e37_79b9_7f4a_7c15)));
        self.ns += t0.elapsed().as_nanos() as f64;
        self.chunks += 1;
    }

    /// Factor converting wall times measured alongside the chunks to the
    /// nominal machine speed.
    pub fn scale(&self) -> f64 {
        if self.ns > 0.0 {
            CHUNK_NS * self.chunks as f64 / self.ns
        } else {
            1.0
        }
    }
}
