//! TEE platform cost models (Table 5's SGX-vs-virtual dimension).
//!
//! The paper measures a ~1.8x throughput penalty for SGX over "virtual
//! mode" (CCF without SGX) on the C++ app, attributing it to enclave
//! transition costs, paging, and memory-encryption overhead. Real SGX
//! hardware is unavailable here, so the `SgxSim` platform *injects* an
//! execution-time-proportional penalty, calibrated to the paper's observed
//! ratio. DESIGN.md documents this substitution; EXPERIMENTS.md reports
//! the resulting Table 5 with the caveat that the SGX column's absolute
//! factor is injected, while the C++-vs-script factor in the same table
//! is genuinely measured.

use std::time::{Duration, Instant};

/// Which platform a node runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TeePlatform {
    /// No TEE: the paper's *virtual mode* (§6.4) — full functionality,
    /// no confidentiality/integrity against the host, zero overhead.
    Virtual,
    /// Simulated SGX: each request's execution costs `1 + overhead_factor`
    /// times as long.
    SgxSim {
        /// Multiplier on execution time (paper's observed C++ slowdown is
        /// ≈ 1.8x ⇒ factor 0.8 of *extra* work).
        overhead_factor: f64,
    },
}

impl TeePlatform {
    /// The default simulated-SGX calibration used by the Table 5 bench.
    pub fn sgx_default() -> TeePlatform {
        TeePlatform::SgxSim { overhead_factor: 0.8 }
    }

    /// Charges the platform tax for a unit of enclave work that took
    /// `elapsed` of real time: spins for `overhead_factor × elapsed`.
    pub fn charge_execution(&self, elapsed: Duration) {
        if let TeePlatform::SgxSim { overhead_factor } = self {
            spin_for(Duration::from_nanos(
                (elapsed.as_nanos() as f64 * overhead_factor) as u64,
            ));
        }
    }

    /// Runs `f`, charging execution overhead on the way out. This is the
    /// wrapper node endpoints execute under.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        match self {
            TeePlatform::Virtual => f(),
            TeePlatform::SgxSim { .. } => {
                let start = Instant::now();
                let out = f();
                self.charge_execution(start.elapsed());
                out
            }
        }
    }
}

/// Busy-waits (sleeping is far too coarse at microsecond scales).
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_mode_adds_no_overhead() {
        let p = TeePlatform::Virtual;
        let start = Instant::now();
        p.charge_execution(Duration::from_millis(10));
        assert!(start.elapsed() < Duration::from_millis(2));
    }

    #[test]
    fn sgx_sim_slows_execution_proportionally() {
        let p = TeePlatform::SgxSim { overhead_factor: 1.0 };
        let work = Duration::from_millis(5);
        let start = Instant::now();
        p.run(|| spin_for(work));
        let total = start.elapsed();
        // factor 1.0 ⇒ roughly double the time (work + equal penalty).
        assert!(total >= Duration::from_millis(9), "total {total:?}");
    }

    #[test]
    fn run_returns_closure_value() {
        assert_eq!(TeePlatform::sgx_default().run(|| 42), 42);
        assert_eq!(TeePlatform::Virtual.run(|| "x"), "x");
    }
}
