//! Optional event trace for debugging schedulers and asserting fine-grained
//! behaviour in tests.
//!
//! Tracing is off by default (the trace of a large sweep would dominate
//! memory); `SimMachine::enable_trace` switches it on.

use micco_workload::{TaskId, TensorId};

use crate::fault::FaultKind;
use crate::machine::GpuId;

/// One simulator event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A host→device transfer finished.
    H2d {
        /// Destination device.
        gpu: GpuId,
        /// Transferred tensor.
        tensor: TensorId,
        /// Payload size.
        bytes: u64,
    },
    /// A device→device transfer finished.
    D2d {
        /// Source device.
        src: GpuId,
        /// Destination device.
        dst: GpuId,
        /// Transferred tensor.
        tensor: TensorId,
        /// Payload size.
        bytes: u64,
    },
    /// A tensor was evicted under memory pressure.
    Evict {
        /// Device evicted from.
        gpu: GpuId,
        /// Victim tensor.
        tensor: TensorId,
        /// Whether a write-back was paid.
        writeback: bool,
    },
    /// An operand was already resident (a reuse hit).
    ReuseHit {
        /// Device.
        gpu: GpuId,
        /// Resident tensor.
        tensor: TensorId,
    },
    /// A contraction kernel completed.
    Kernel {
        /// Device.
        gpu: GpuId,
        /// Task identity.
        task: TaskId,
        /// Kernel duration in seconds.
        secs: f64,
    },
    /// A stage barrier was crossed.
    Barrier {
        /// Stage index (0-based).
        stage: usize,
        /// Stage makespan in seconds.
        makespan: f64,
    },
    /// Per-device timeline breakdown of one stage, emitted just before the
    /// matching [`Event::Barrier`]. `copy_secs + compute_secs -
    /// overlap_secs + idle_secs` equals the stage makespan.
    StageBreakdown {
        /// Device.
        gpu: GpuId,
        /// Stage index (0-based).
        stage: usize,
        /// Copy-engine busy seconds in this stage.
        copy_secs: f64,
        /// Compute-engine busy seconds in this stage.
        compute_secs: f64,
        /// Seconds both engines ran simultaneously.
        overlap_secs: f64,
        /// Seconds both engines sat idle inside the stage span.
        idle_secs: f64,
    },
    /// An injected fault fired while executing a task.
    Fault {
        /// Device the task ran on.
        gpu: GpuId,
        /// Task being executed.
        task: TaskId,
        /// What failed.
        kind: FaultKind,
    },
    /// A task attempt re-ran after a transient fault.
    Retry {
        /// Device the task ran on.
        gpu: GpuId,
        /// Task being retried.
        task: TaskId,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A device was found lost at a stage.
    DeviceLost {
        /// The lost device.
        gpu: GpuId,
        /// Stage the loss was observed at.
        stage: usize,
        /// Whether the device never comes back.
        permanent: bool,
    },
}

/// An append-only event log.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Clear the log.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut t = Trace::default();
        t.push(Event::ReuseHit {
            gpu: GpuId(0),
            tensor: TensorId(1),
        });
        t.push(Event::Barrier {
            stage: 0,
            makespan: 1.0,
        });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.count(|e| matches!(e, Event::ReuseHit { .. })), 1);
        t.clear();
        assert!(t.events().is_empty());
    }
}
