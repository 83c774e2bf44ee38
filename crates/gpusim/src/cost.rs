//! Machine configuration and the execution cost model.

/// Timing model of one simulated device and its interconnect.
///
/// Default figures are MI100/PCIe-4-like *ratios* — what matters for
/// reproducing the paper's curves is the relative weight of compute vs
/// memory operations, not absolute silicon speed (see DESIGN.md §6.4; a
/// sensitivity test perturbs these by 2× and checks orderings hold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sustained device throughput for batched complex GEMM, in GFLOP/s
    /// (MI100 peak FP32 is 23 TF; sustained batched complex GEMM lands
    /// near 10 TF).
    pub device_gflops: f64,
    /// Host→device bandwidth in GiB/s (PCIe x16 effective with pageable
    /// staging ≈ 12 GiB/s — memory operations dominate small-tensor
    /// contractions, as the paper observes in Sec. V-C).
    pub h2d_gib_s: f64,
    /// Device→device bandwidth in GiB/s (peer copies over the bridge).
    pub d2d_gib_s: f64,
    /// Fixed latency per transfer, in microseconds.
    pub transfer_latency_us: f64,
    /// Fixed latency per device allocation, in microseconds.
    pub alloc_latency_us: f64,
    /// Fixed latency per eviction (unmap + bookkeeping), in microseconds.
    pub evict_latency_us: f64,
    /// Whether device→device copies also occupy the source device's
    /// timeline (real peer DMA consumes source bandwidth). On by default;
    /// the `cost_sensitivity` tests flip it off.
    pub d2d_charges_source: bool,
    /// Asynchronous data copy (the paper's future-work extension,
    /// Sec. VII): when on, each device has an independent DMA engine, so
    /// the transfers/allocations of the next contraction overlap with the
    /// current kernel; a kernel still waits for its own operands. Off by
    /// default — the paper's evaluated system is synchronous. This field is
    /// the only home of the overlap knob: the planner, every replay and the
    /// plan-cache key read it from here (the CLI's `--overlap` sets it).
    pub async_copy: bool,
    /// Host-link contention: all devices share one host↔device
    /// interconnect, so concurrent H2D transfers serialise on it (each
    /// transfer also occupies a shared link timeline). Off by default to
    /// keep the per-device model easy to reason about; flipping it on makes
    /// memory operations even more dominant, widening every reuse gap.
    pub shared_h2d_link: bool,
    /// Staging-buffer depth for asynchronous copies. `0` means the DMA
    /// engine may run arbitrarily far ahead of the compute queue
    /// (unbounded lookahead — the idealised model). `k ≥ 1` models `k`
    /// staging buffers: the transfer for task `i` cannot start before the
    /// kernel of task `i - k` has finished, because its buffer is still in
    /// use (`k = 2` is classic double buffering). Ignored when
    /// `async_copy` is off. Like `async_copy`, this field is the knob's
    /// only home (the CLI's `--prefetch-tasks` sets it).
    pub prefetch_tasks: usize,
}

impl CostModel {
    /// MI100-like default ratios.
    pub fn mi100_like() -> Self {
        CostModel {
            device_gflops: 10_000.0,
            h2d_gib_s: 12.0,
            d2d_gib_s: 25.0,
            transfer_latency_us: 10.0,
            alloc_latency_us: 5.0,
            evict_latency_us: 5.0,
            d2d_charges_source: true,
            async_copy: false,
            shared_h2d_link: false,
            prefetch_tasks: 0,
        }
    }

    /// The same model with host-link contention enabled.
    pub fn with_shared_h2d_link(mut self) -> Self {
        self.shared_h2d_link = true;
        self
    }

    /// The same model with asynchronous copies enabled.
    pub fn with_async_copy(mut self) -> Self {
        self.async_copy = true;
        self
    }

    /// The same model with a bounded staging window of `k` tasks for the
    /// DMA engine (`0` restores unbounded lookahead).
    pub fn with_prefetch_tasks(mut self, k: usize) -> Self {
        self.prefetch_tasks = k;
        self
    }

    /// Seconds to run a kernel of `flops` floating-point operations.
    #[inline]
    pub fn compute_secs(&self, flops: u64) -> f64 {
        flops as f64 / (self.device_gflops * 1e9)
    }

    /// Seconds for a host→device transfer of `bytes`.
    #[inline]
    pub fn h2d_secs(&self, bytes: u64) -> f64 {
        self.transfer_latency_us * 1e-6 + bytes as f64 / (self.h2d_gib_s * GIB)
    }

    /// Seconds for a device→device transfer of `bytes`.
    #[inline]
    pub fn d2d_secs(&self, bytes: u64) -> f64 {
        self.transfer_latency_us * 1e-6 + bytes as f64 / (self.d2d_gib_s * GIB)
    }

    /// Seconds to allocate `bytes` on the device.
    #[inline]
    pub fn alloc_secs(&self, _bytes: u64) -> f64 {
        self.alloc_latency_us * 1e-6
    }

    /// Seconds to evict a resident tensor. Device-created tensors
    /// (`writeback = true`) pay a device→host copy so the data survives.
    #[inline]
    pub fn evict_secs(&self, bytes: u64, writeback: bool) -> f64 {
        let base = self.evict_latency_us * 1e-6;
        if writeback {
            base + bytes as f64 / (self.h2d_gib_s * GIB)
        } else {
            base
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::mi100_like()
    }
}

pub(crate) const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Configuration of the whole simulated node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of devices.
    pub num_gpus: usize,
    /// Device memory capacity in bytes (per GPU).
    pub mem_bytes: u64,
    /// Shared timing model.
    pub cost: CostModel,
    /// Victim-selection policy under memory pressure.
    pub eviction: crate::memory::EvictionPolicy,
}

impl MachineConfig {
    /// The paper's platform: `n` MI100-like devices with 32 GiB each.
    pub fn mi100_like(num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        MachineConfig {
            num_gpus,
            mem_bytes: 32 * (1u64 << 30),
            cost: CostModel::mi100_like(),
            eviction: crate::memory::EvictionPolicy::Lru,
        }
    }

    /// Override the per-device memory capacity.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Override the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Override the eviction policy.
    pub fn with_eviction(mut self, policy: crate::memory::EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Size device memory so the given working set oversubscribes it by
    /// `rate` (e.g. `1.5` ⇒ the working set is 150 % of aggregate memory —
    /// the paper's Fig. 11 x-axis).
    pub fn with_oversubscription(mut self, working_set_bytes: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "oversubscription rate must be positive");
        let aggregate = (working_set_bytes as f64 / rate).ceil() as u64;
        self.mem_bytes = (aggregate / self.num_gpus as u64).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_secs_scales_linearly() {
        let c = CostModel::mi100_like();
        let t1 = c.compute_secs(1_000_000_000);
        let t2 = c.compute_secs(2_000_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        // 10 TF device: 1 GF takes 0.1 ms
        assert!((t1 - 0.0001).abs() < 1e-9);
    }

    #[test]
    fn transfers_include_latency() {
        let c = CostModel::mi100_like();
        assert!(c.h2d_secs(0) > 0.0);
        assert!(c.d2d_secs(0) > 0.0);
        // d2d is faster than h2d for large payloads
        let big = 1 << 30;
        assert!(c.d2d_secs(big) < c.h2d_secs(big));
    }

    #[test]
    fn eviction_writeback_costs_more() {
        let c = CostModel::mi100_like();
        let bytes = 64 << 20;
        assert!(c.evict_secs(bytes, true) > c.evict_secs(bytes, false));
        assert!((c.evict_secs(bytes, false) - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn mi100_config_defaults() {
        let m = MachineConfig::mi100_like(8);
        assert_eq!(m.num_gpus, 8);
        assert_eq!(m.mem_bytes, 32 << 30);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = MachineConfig::mi100_like(0);
    }

    #[test]
    fn oversubscription_sizing() {
        let ws = 100u64 << 20; // 100 MiB working set
        let m = MachineConfig::mi100_like(4).with_oversubscription(ws, 2.0);
        // aggregate memory = 50 MiB, per GPU = 12.5 MiB
        assert_eq!(m.mem_bytes, (ws / 2) / 4);
        // rate 1.0: working set just fits
        let m1 = MachineConfig::mi100_like(4).with_oversubscription(ws, 1.0);
        assert_eq!(m1.mem_bytes * 4, ws);
    }

    #[test]
    fn builder_overrides() {
        let m = MachineConfig::mi100_like(2)
            .with_mem_bytes(1024)
            .with_eviction(crate::memory::EvictionPolicy::Fifo);
        assert_eq!(m.mem_bytes, 1024);
        assert_eq!(m.eviction, crate::memory::EvictionPolicy::Fifo);
    }
}
