//! Execution statistics collected by the simulator.

/// Per-device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuStats {
    /// Contractions executed on this device.
    pub tasks: u64,
    /// Kernel flops executed.
    pub flops: u64,
    /// Seconds spent in kernels.
    pub compute_secs: f64,
    /// Seconds spent on memory operations (alloc + transfers + evictions).
    pub memory_secs: f64,
    /// Host→device transfers performed.
    pub h2d_count: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→device transfers received.
    pub d2d_count: u64,
    /// Device→device bytes received.
    pub d2d_bytes: u64,
    /// Device allocations performed.
    pub allocs: u64,
    /// Tensors evicted from this device.
    pub evictions: u64,
    /// Evicted bytes that required write-back.
    pub writeback_bytes: u64,
    /// Reused inputs: operands already resident when the task arrived.
    pub reuse_hits: u64,
    /// Seconds during which the copy engine and the compute engine were
    /// busy *simultaneously* on this device. Only asynchronous copies can
    /// produce overlap; in the synchronous model this stays 0.
    pub overlap_secs: f64,
    /// Seconds this device spent with both engines idle while its stages
    /// were still open (waiting at barriers for slower peers, or a kernel
    /// stalled on its own operands).
    pub idle_secs: f64,
    /// Injected faults that fired on this device (kernel faults and
    /// transfer timeouts; device losses are not counted here and reach
    /// only an attached [`crate::ExecObserver`]).
    pub faults: u64,
    /// Retried attempts after transient faults.
    pub retries: u64,
}

impl GpuStats {
    /// Total busy seconds (compute + memory operations).
    pub fn busy_secs(&self) -> f64 {
        self.compute_secs + self.memory_secs
    }

    /// Occupied wall-clock seconds: busy time with doubly-counted overlap
    /// removed. `occupied_secs + idle_secs` equals the device's share of
    /// the elapsed stage spans.
    pub fn occupied_secs(&self) -> f64 {
        self.compute_secs + self.memory_secs - self.overlap_secs
    }

    /// Fraction of busy time spent in kernels (the rest is memory
    /// operations). 0 for an idle device.
    pub fn compute_fraction(&self) -> f64 {
        let busy = self.busy_secs();
        if busy == 0.0 {
            0.0
        } else {
            self.compute_secs / busy
        }
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Per-device counters.
    pub per_gpu: Vec<GpuStats>,
    /// Wall-clock seconds of the simulated run (sum of stage makespans).
    pub elapsed_secs: f64,
    /// Per-stage makespans in seconds.
    pub stage_makespans: Vec<f64>,
}

impl ExecStats {
    /// Fresh stats for `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        ExecStats {
            per_gpu: vec![GpuStats::default(); num_gpus],
            elapsed_secs: 0.0,
            stage_makespans: Vec::new(),
        }
    }

    /// Total kernel flops across devices.
    pub fn total_flops(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.flops).sum()
    }

    /// Achieved throughput in GFLOP/s over the simulated wall clock — the
    /// paper's headline metric.
    pub fn gflops(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.total_flops() as f64 / self.elapsed_secs / 1e9
        }
    }

    /// Total contraction tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.tasks).sum()
    }

    /// Total evictions across devices.
    pub fn total_evictions(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.evictions).sum()
    }

    /// Total host→device transfers.
    pub fn total_h2d(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.h2d_count).sum()
    }

    /// Total device→device transfers.
    pub fn total_d2d(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.d2d_count).sum()
    }

    /// Total reuse hits (operands found resident).
    pub fn total_reuse_hits(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.reuse_hits).sum()
    }

    /// Total copy/compute overlap seconds across devices.
    pub fn total_overlap_secs(&self) -> f64 {
        self.per_gpu.iter().map(|g| g.overlap_secs).sum()
    }

    /// Total injected faults that fired across devices.
    pub fn total_faults(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.faults).sum()
    }

    /// Total retried attempts across devices.
    pub fn total_retries(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.retries).sum()
    }

    /// Total idle seconds across devices.
    pub fn total_idle_secs(&self) -> f64 {
        self.per_gpu.iter().map(|g| g.idle_secs).sum()
    }

    /// Utilisation of device `g`: busy seconds over elapsed seconds.
    /// With asynchronous copies the two engines overlap, so this can
    /// exceed 1.0 (both engines busy at once).
    pub fn utilization(&self, g: usize) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.per_gpu[g].busy_secs() / self.elapsed_secs
        }
    }

    /// Mean utilisation across devices.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_gpu.is_empty() {
            return 0.0;
        }
        (0..self.per_gpu.len())
            .map(|g| self.utilization(g))
            .sum::<f64>()
            / self.per_gpu.len() as f64
    }

    /// Load imbalance: max busy time over mean busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let busys: Vec<f64> = self.per_gpu.iter().map(GpuStats::busy_secs).collect();
        let max = busys.iter().copied().fold(0.0, f64::max);
        let mean = busys.iter().sum::<f64>() / busys.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "elapsed {:.6} s | {:.1} GFLOPS | tasks {} | h2d {} | d2d {} | evictions {} | reuse hits {} | imbalance {:.3}",
            self.elapsed_secs,
            self.gflops(),
            self.total_tasks(),
            self.total_h2d(),
            self.total_d2d(),
            self.total_evictions(),
            self.total_reuse_hits(),
            self.imbalance(),
        )?;
        for (i, g) in self.per_gpu.iter().enumerate() {
            writeln!(
                f,
                "  gpu{i}: tasks {} compute {:.6}s mem {:.6}s overlap {:.6}s idle {:.6}s h2d {} d2d {} evict {}",
                g.tasks,
                g.compute_secs,
                g.memory_secs,
                g.overlap_secs,
                g.idle_secs,
                g.h2d_count,
                g.d2d_count,
                g.evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_computation() {
        let mut s = ExecStats::new(2);
        s.per_gpu[0].flops = 3_000_000_000;
        s.per_gpu[1].flops = 1_000_000_000;
        s.elapsed_secs = 2.0;
        assert!((s.gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_gives_zero_gflops() {
        let s = ExecStats::new(1);
        assert_eq!(s.gflops(), 0.0);
    }

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let mut s = ExecStats::new(2);
        for g in &mut s.per_gpu {
            g.compute_secs = 1.0;
            g.memory_secs = 0.5;
        }
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut s = ExecStats::new(2);
        s.per_gpu[0].compute_secs = 2.0;
        s.per_gpu[1].compute_secs = 0.0;
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_devices() {
        let mut s = ExecStats::new(3);
        for (i, g) in s.per_gpu.iter_mut().enumerate() {
            g.tasks = i as u64;
            g.evictions = 1;
            g.h2d_count = 2;
            g.d2d_count = 3;
            g.reuse_hits = 4;
        }
        assert_eq!(s.total_tasks(), 3);
        assert_eq!(s.total_evictions(), 3);
        assert_eq!(s.total_h2d(), 6);
        assert_eq!(s.total_d2d(), 9);
        assert_eq!(s.total_reuse_hits(), 12);
    }

    #[test]
    fn utilization_and_fractions() {
        let mut s = ExecStats::new(2);
        s.per_gpu[0].compute_secs = 0.6;
        s.per_gpu[0].memory_secs = 0.2;
        s.per_gpu[1].compute_secs = 0.0;
        s.per_gpu[1].memory_secs = 0.0;
        s.elapsed_secs = 1.0;
        assert!((s.utilization(0) - 0.8).abs() < 1e-12);
        assert_eq!(s.utilization(1), 0.0);
        assert!((s.mean_utilization() - 0.4).abs() < 1e-12);
        assert!((s.per_gpu[0].compute_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(s.per_gpu[1].compute_fraction(), 0.0);
        // zero elapsed convention
        let z = ExecStats::new(1);
        assert_eq!(z.utilization(0), 0.0);
        assert_eq!(z.mean_utilization(), 0.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = ExecStats::new(1);
        let out = s.to_string();
        assert!(out.contains("GFLOPS"));
        assert!(out.contains("gpu0"));
    }
}
