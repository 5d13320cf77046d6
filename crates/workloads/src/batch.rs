//! Batch-size behaviour of inference workloads.
//!
//! The paper ran each DNN at a sweep of batch sizes (Table 6 reports
//! "optimal batch sizes"). This module models the standard
//! saturating-throughput behaviour the serving layer batches against:
//! throughput rises roughly linearly while the device has idle compute,
//! then saturates.

/// A saturating batch-throughput model for one workload on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProfile {
    /// Throughput of a batch-1 inference, pixels per second.
    pub base_pixels_per_sec: f64,
    /// Batch size at which the device saturates (knee of the curve).
    pub saturation_batch: f64,
}

impl BatchProfile {
    /// Throughput at a given batch size: linear ramp up to the saturation
    /// knee, then flat (classic roofline-style saturation).
    pub fn throughput(&self, batch: u32) -> f64 {
        let b = f64::from(batch.max(1));
        let effective = b.min(self.saturation_batch);
        self.base_pixels_per_sec * effective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> BatchProfile {
        BatchProfile {
            base_pixels_per_sec: 1e6,
            saturation_batch: 16.0,
        }
    }

    #[test]
    fn throughput_saturates() {
        let p = profile();
        assert_eq!(p.throughput(1), 1e6);
        assert_eq!(p.throughput(8), 8e6);
        assert_eq!(p.throughput(16), 16e6);
        assert_eq!(p.throughput(64), 16e6, "beyond the knee stays flat");
    }

    #[test]
    fn batch_zero_treated_as_one() {
        let p = profile();
        assert_eq!(p.throughput(0), p.throughput(1));
    }
}
