//! The four workloads: their shapes and the seeded job lists they replay.
//!
//! Every input is derived from the run's `--seed` through [`SplitMix64`]:
//! the daemon and the layers only ever see the generated
//! [`SessionConfig`]s, and the same seed replays the same job list.

use std::time::Duration;

use micco_core::SessionConfig;
use micco_load::SplitMix64;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, no store, 8-GPU jobs with memory oversubscribed
    /// 1.5–3×: eviction-heavy planning and replay.
    OversubCold,
    /// Two clients on a store-backed daemon, fresh configs: every plan is
    /// decided and appended to the write-ahead log under the cache mutex.
    StoreCold,
    /// Two clients on a daemon reopened over a store pre-filled with the
    /// workload's configs: every plan is a hit, the planner never runs.
    StoreWarm,
    /// No daemon: plan, lint, sim replay, real kernels, certify.
    RealVerify,
}

/// Configs of the `store_warm` working set: the timed loop cycles
/// through them, so every timed plan is a hit.
pub const WARM_CONFIGS: usize = 16;

/// `store_cold` jobs per second of window: its timed window ends after
/// this many jobs, or at its deadline if that comes first. The daemon
/// keeps every fresh plan in memory (about 0.6 MB each), so a window
/// bounded by time alone would make peak RSS grow with throughput; the
/// cap is below what the workload completes on a busy 2-vCPU host, so
/// every run keeps the same number of plans.
const STORE_COLD_JOBS_PER_SEC: f64 = 8.0;

/// Salt separating warm-up configs from timed ones, so a warm-up plan
/// can never make a timed `store_cold` job a hit.
const WARMUP_SALT: u64 = 0x5EED_F00D_CAFE_0001;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OversubCold,
        Workload::StoreCold,
        Workload::StoreWarm,
        Workload::RealVerify,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OversubCold => "oversub_cold",
            Workload::StoreCold => "store_cold",
            Workload::StoreWarm => "store_warm",
            Workload::RealVerify => "real_verify",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients (jobs in flight at once).
    pub fn clients(self) -> usize {
        match self {
            Workload::OversubCold | Workload::RealVerify => 1,
            Workload::StoreCold | Workload::StoreWarm => 2,
        }
    }

    /// Whether the daemon runs with a durable plan store.
    pub fn uses_store(self) -> bool {
        matches!(self, Workload::StoreCold | Workload::StoreWarm)
    }

    /// Shared GPU pool of the daemon: room for every client's job at
    /// once, so no job queues behind another for GPUs.
    pub fn pool_gpus(self) -> usize {
        self.clients() * self.job_template().gpus
    }

    /// Warm-up jobs run (untimed, inside set-up) before the timed window:
    /// a few tenths of a second of steady-state jobs, so that one short
    /// stall of the host moves `setup_s` little.
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::OversubCold | Workload::RealVerify => 3,
            Workload::StoreCold => 4,
            // the working set once, from the log into memory, so every
            // timed hit is a memory hit
            Workload::StoreWarm => WARM_CONFIGS,
        }
    }

    /// Most timed jobs a window of `len` runs; `None` when only its
    /// deadline ends it.
    pub fn job_cap(self, len: Duration) -> Option<u64> {
        match self {
            Workload::StoreCold => {
                Some((STORE_COLD_JOBS_PER_SEC * len.as_secs_f64()).ceil() as u64)
            }
            _ => None,
        }
    }

    /// Configs run through the in-process layer pass of a traced run.
    pub fn layer_sample(self) -> usize {
        match self {
            Workload::OversubCold => 4,
            Workload::StoreCold => 8,
            Workload::StoreWarm => WARM_CONFIGS,
            // its flows already time a call into every layer they load
            Workload::RealVerify => 0,
        }
    }

    /// The job shape; [`Workload::job`] varies only seed and
    /// oversubscription around it.
    fn job_template(self) -> SessionConfig {
        match self {
            // 256 × 20 = 5,120 tasks per job
            Workload::OversubCold => SessionConfig {
                vector_size: 256,
                vectors: 20,
                gpus: 8,
                ..SessionConfig::default()
            },
            // 256 × 80 = 20,480 tasks: the per-job HTTP and thread
            // hand-offs stay a small share of the job, which keeps the
            // served workloads steady on a contended host; tensor size 192
            // keeps the job's working set inside the pool's admission limit
            Workload::StoreCold | Workload::StoreWarm => SessionConfig {
                vector_size: 256,
                vectors: 80,
                tensor_size: 192,
                gpus: 4,
                ..SessionConfig::default()
            },
            // 150 × 2 = 300 tasks of dim-32 kernels on 2 workers, in two
            // stages: every stage ends in a barrier where the workers
            // block and wake, and on a contended host each wake-up adds
            // the host's scheduling delay, so few long stages keep the
            // flow steady
            Workload::RealVerify => SessionConfig {
                vector_size: 150,
                vectors: 2,
                tensor_size: 32,
                gpus: 2,
                steal: true,
                ..SessionConfig::default()
            },
        }
    }

    /// Job `index` of the timed list for `seed`.
    pub fn job(self, seed: u64, index: u64) -> SessionConfig {
        let slot = match self {
            Workload::StoreWarm => index % WARM_CONFIGS as u64,
            _ => index,
        };
        self.config_for(mix(seed, slot), index)
    }

    /// Warm-up job `index` for `seed` (disjoint from the timed list,
    /// except on `store_warm`, whose warm-up touches its working set).
    pub fn warmup(self, seed: u64, index: u64) -> SessionConfig {
        match self {
            Workload::StoreWarm => self.job(seed, index),
            _ => self.config_for(mix(seed ^ WARMUP_SALT, index), index),
        }
    }

    fn config_for(self, job_seed: u64, index: u64) -> SessionConfig {
        let mut cfg = self.job_template();
        cfg.seed = job_seed;
        if self == Workload::OversubCold {
            // cycle 1.5×, 2×, 2.5×, 3× so any run mixes the levels evenly
            cfg.oversub = 1.5 + 0.5 * (index % 4) as f64;
        }
        cfg
    }
}

/// Per-job workload seed: job `index` of the run seeded `seed`. Kept to
/// 53 bits, because submission bodies carry it as a JSON number.
fn mix(seed: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
    rng.next_u64() >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_replay_per_seed_and_warmups_are_disjoint() {
        for w in Workload::ALL {
            assert_eq!(w.job(7, 3), w.job(7, 3));
            assert_ne!(w.job(7, 1).seed, w.job(8, 1).seed);
            if w != Workload::StoreWarm {
                assert_ne!(w.job(7, 0).seed, w.warmup(7, 0).seed);
            }
            w.job(7, 0).validate().expect("valid config");
        }
        let warm = Workload::StoreWarm;
        assert_eq!(warm.job(1, 0), warm.job(1, WARM_CONFIGS as u64));
        // the served jobs fit the daemon's memory admission limit
        for w in Workload::ALL {
            let limit = w.pool_gpus() as u64 * 32 * (1 << 30);
            assert!(
                micco_serve::estimated_bytes(&w.job(1, 0)) <= limit,
                "{}",
                w.name()
            );
        }
    }
}
