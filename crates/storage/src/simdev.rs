//! Device and queue cost models.
//!
//! Experiments need to compare "read from local SSD" with "read from a
//! loaded HDD" or "fetch over the network from the data lake" without the
//! paper's production hardware. [`DeviceModel`] charges a simulated duration
//! per operation from public device characteristics; [`FluidQueue`] models a
//! device under sustained load and reports *blocked processes* — the
//! throttling signal Uber monitors (§2.2: "the count of blocked processes
//! can reach up to several thousand within just one minute"; Figure 14).

use std::time::Duration;

/// A storage or network device characterized by per-request latency,
/// sustained bandwidth, and how many in-flight requests a reader keeps
/// pipelined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Fixed cost per request (seek / rotation / RTT / API overhead).
    pub request_latency: Duration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth: u64,
    /// Concurrent in-flight requests a client keeps against this device;
    /// per-request latency amortizes across the pipeline in batch reads.
    /// Query engines issue many ranged reads concurrently (Presto's S3
    /// readers pipeline aggressively), so the object-store preset uses a
    /// deep pipeline while a local SSD read is effectively synchronous.
    pub pipeline_depth: u32,
}

impl DeviceModel {
    /// A local NVMe/SATA SSD: ~100 µs access, ~2 GB/s.
    pub fn local_ssd() -> Self {
        Self {
            request_latency: Duration::from_micros(100),
            bandwidth: 2 * (1 << 30),
            pipeline_depth: 1,
        }
    }

    /// A high-density HDD (the 16+ TB SKUs of §2.1.2): ~8 ms random access,
    /// ~180 MB/s sequential.
    pub fn hdd() -> Self {
        Self {
            request_latency: Duration::from_millis(8),
            bandwidth: 180 * (1 << 20),
            pipeline_depth: 1,
        }
    }

    /// Cloud object storage over the network: ~30 ms first-byte latency,
    /// ~100 MB/s effective per-stream throughput, 8 pipelined range GETs.
    pub fn object_store() -> Self {
        Self {
            request_latency: Duration::from_millis(30),
            bandwidth: 100 * (1 << 20),
            pipeline_depth: 8,
        }
    }

    /// Time to serve one read of `bytes`.
    pub fn read_time(&self, bytes: u64) -> Duration {
        self.request_latency
            + Duration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.bandwidth)
    }

    /// Time to serve `requests` reads totalling `bytes`, with per-request
    /// latency amortized over the pipeline depth.
    pub fn batch_read_time(&self, requests: u64, bytes: u64) -> Duration {
        let effective = requests.div_ceil(self.pipeline_depth.max(1) as u64);
        self.request_latency * effective as u32
            + Duration::from_nanos(bytes.saturating_mul(1_000_000_000) / self.bandwidth)
    }

    /// Requests per second this device sustains at a mean request size.
    pub fn iops_at(&self, mean_request_bytes: u64) -> f64 {
        1.0 / self.read_time(mean_request_bytes).as_secs_f64()
    }

    /// The same device degraded by `factor`: request latency multiplied,
    /// bandwidth divided. Models a transient brown-out (GC pause on a
    /// storage node, a saturated ToR link) without changing the preset.
    pub fn degraded(&self, factor: u32) -> Self {
        let factor = factor.max(1);
        Self {
            request_latency: self.request_latency * factor,
            bandwidth: (self.bandwidth / factor as u64).max(1),
            pipeline_depth: self.pipeline_depth,
        }
    }
}

/// One window of degraded service: between `start` and `end` of simulated
/// time, the device runs `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// Window start (inclusive), in simulated time since run start.
    pub start: Duration,
    /// Window end (exclusive).
    pub end: Duration,
    /// Slowdown factor applied inside the window (≥ 1).
    pub factor: u32,
}

/// A schedule of [`StallWindow`]s over simulated time.
///
/// Torture scenarios layer stalls onto a [`DeviceModel`]: a read that lands
/// inside a window is charged the degraded device's time. Windows may
/// overlap; the largest factor wins.
#[derive(Debug, Clone, Default)]
pub struct StallSchedule {
    windows: Vec<StallWindow>,
}

impl StallSchedule {
    /// A schedule with no stalls.
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule from explicit windows.
    pub fn new(windows: Vec<StallWindow>) -> Self {
        Self { windows }
    }

    /// Adds one window.
    pub fn add(&mut self, window: StallWindow) {
        self.windows.push(window);
    }

    /// The slowdown factor in effect at `now` (1 outside every window).
    pub fn factor_at(&self, now: Duration) -> u32 {
        self.windows
            .iter()
            .filter(|w| w.start <= now && now < w.end)
            .map(|w| w.factor.max(1))
            .max()
            .unwrap_or(1)
    }

    /// `device` as seen at `now`: degraded inside a stall window, pristine
    /// outside.
    pub fn apply(&self, device: &DeviceModel, now: Duration) -> DeviceModel {
        match self.factor_at(now) {
            1 => *device,
            f => device.degraded(f),
        }
    }
}

/// Outcome of offering one window of load to a [`FluidQueue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueWindow {
    /// Requests completed during the window.
    pub completed: u64,
    /// Requests still queued at window end.
    pub backlog: u64,
    /// Processes blocked on I/O at window end (the Figure 14 metric):
    /// the backlog capped at the offered concurrency.
    pub blocked_processes: u64,
    /// Device utilization during the window, in `[0, 1]`.
    pub utilization: f64,
}

/// A fluid (deterministic) queueing model of a device under load.
///
/// Work arrives in windows (e.g. one minute of trace); the device drains at
/// the rate implied by its [`DeviceModel`]. Excess work accumulates as
/// backlog, and the backlog *is* the population of blocked processes — when
/// an HDD DataNode cannot keep up, reader threads pile up in `D` state,
/// which is exactly what Uber's blocked-process counter measures.
#[derive(Debug, Clone)]
pub struct FluidQueue {
    device: DeviceModel,
    backlog_requests: f64,
    backlog_bytes: f64,
}

impl FluidQueue {
    /// A queue over the given device, initially idle.
    pub fn new(device: DeviceModel) -> Self {
        Self {
            device,
            backlog_requests: 0.0,
            backlog_bytes: 0.0,
        }
    }

    /// The device model.
    pub fn device(&self) -> DeviceModel {
        self.device
    }

    /// Offers `requests` totalling `bytes` arriving uniformly during a
    /// window of `window` duration, and drains what the device can serve.
    pub fn offer(&mut self, requests: u64, bytes: u64, window: Duration) -> QueueWindow {
        let demand_requests = self.backlog_requests + requests as f64;
        let demand_bytes = self.backlog_bytes + bytes as f64;
        // Service requirement for the whole demand.
        let mean_size = if demand_requests > 0.0 {
            demand_bytes / demand_requests
        } else {
            0.0
        };
        let per_request =
            self.device.request_latency.as_secs_f64() + mean_size / self.device.bandwidth as f64;
        let capacity = if per_request > 0.0 {
            window.as_secs_f64() / per_request
        } else {
            f64::INFINITY
        };
        let completed = demand_requests.min(capacity);
        let utilization = if capacity.is_finite() && capacity > 0.0 {
            (demand_requests / capacity).min(1.0)
        } else {
            0.0
        };
        self.backlog_requests = (demand_requests - completed).max(0.0);
        self.backlog_bytes = (demand_bytes - completed * mean_size).max(0.0);
        QueueWindow {
            completed: completed as u64,
            backlog: self.backlog_requests as u64,
            blocked_processes: self.backlog_requests as u64,
            utilization,
        }
    }

    /// Clears any accumulated backlog.
    pub fn reset(&mut self) {
        self.backlog_requests = 0.0;
        self.backlog_bytes = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_is_much_faster_than_hdd_for_small_reads() {
        let ssd = DeviceModel::local_ssd().read_time(4096);
        let hdd = DeviceModel::hdd().read_time(4096);
        assert!(hdd.as_secs_f64() / ssd.as_secs_f64() > 50.0);
    }

    #[test]
    fn read_time_scales_with_bytes() {
        let d = DeviceModel::local_ssd();
        let small = d.read_time(1 << 10);
        let big = d.read_time(1 << 30);
        assert!(big > small);
        // 1 GiB at 2 GiB/s ≈ 0.5 s.
        assert!((big.as_secs_f64() - 0.5).abs() < 0.01);
    }

    #[test]
    fn batch_amortizes_against_per_request_latency() {
        let d = DeviceModel::object_store();
        let many_small = d.batch_read_time(1000, 1 << 20);
        let one_big = d.batch_read_time(1, 1 << 20);
        // Fragmentation still hurts badly, but the pipeline (depth 8)
        // amortizes the per-request latency across in-flight GETs.
        assert!(many_small > one_big * 50);
        let expected = d.request_latency * (1000 / 8)
            + Duration::from_nanos(((1u64 << 20) * 1_000_000_000) / d.bandwidth);
        assert_eq!(many_small, expected);
    }

    #[test]
    fn pipeline_depth_one_serializes_requests() {
        let d = DeviceModel::hdd();
        assert_eq!(
            d.batch_read_time(10, 0),
            d.request_latency * 10,
            "HDD reads do not pipeline"
        );
    }

    #[test]
    fn underloaded_queue_has_no_backlog() {
        let mut q = FluidQueue::new(DeviceModel::hdd());
        // 10 requests of 1 MB in a minute is far below HDD capacity.
        let w = q.offer(10, 10 << 20, Duration::from_secs(60));
        assert_eq!(w.completed, 10);
        assert_eq!(w.backlog, 0);
        assert_eq!(w.blocked_processes, 0);
        assert!(w.utilization < 0.1);
    }

    #[test]
    fn overloaded_queue_accumulates_blocked_processes() {
        let mut q = FluidQueue::new(DeviceModel::hdd());
        // 50k random 64 KB reads per minute: far beyond one HDD.
        let mut last = 0;
        for _ in 0..5 {
            let w = q.offer(50_000, 50_000 * (64 << 10), Duration::from_secs(60));
            assert!(w.blocked_processes >= last, "backlog grows");
            last = w.blocked_processes;
            assert!((w.utilization - 1.0).abs() < 1e-9);
        }
        assert!(last > 1000, "sustained overload piles up thousands: {last}");
    }

    #[test]
    fn backlog_drains_when_load_stops() {
        let mut q = FluidQueue::new(DeviceModel::hdd());
        q.offer(50_000, 50_000 * (64 << 10), Duration::from_secs(60));
        let mut w = q.offer(0, 0, Duration::from_secs(60));
        // With zero new arrivals the backlog shrinks window over window.
        for _ in 0..20 {
            let next = q.offer(0, 0, Duration::from_secs(60));
            assert!(next.backlog <= w.backlog);
            w = next;
        }
        assert_eq!(w.backlog, 0);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut q = FluidQueue::new(DeviceModel::hdd());
        q.offer(1_000_000, 1 << 40, Duration::from_secs(1));
        q.reset();
        let w = q.offer(1, 1024, Duration::from_secs(60));
        assert_eq!(w.backlog, 0);
    }

    #[test]
    fn iops_sanity() {
        // HDD ≈ 1/8 ms ≈ 125 IOPS at tiny request sizes.
        let iops = DeviceModel::hdd().iops_at(512);
        assert!((100.0..130.0).contains(&iops), "{iops}");
    }

    #[test]
    fn degraded_device_is_slower() {
        let d = DeviceModel::object_store();
        let slow = d.degraded(10);
        assert_eq!(slow.request_latency, d.request_latency * 10);
        assert_eq!(slow.bandwidth, d.bandwidth / 10);
        assert!(slow.read_time(1 << 20) > d.read_time(1 << 20) * 9);
        assert_eq!(d.degraded(0), d.degraded(1), "factor clamps to 1");
    }

    #[test]
    fn stall_schedule_applies_inside_windows_only() {
        let sched = StallSchedule::new(vec![
            StallWindow {
                start: Duration::from_secs(10),
                end: Duration::from_secs(20),
                factor: 4,
            },
            StallWindow {
                start: Duration::from_secs(15),
                end: Duration::from_secs(30),
                factor: 8,
            },
        ]);
        assert_eq!(sched.factor_at(Duration::from_secs(5)), 1);
        assert_eq!(
            sched.factor_at(Duration::from_secs(10)),
            4,
            "inclusive start"
        );
        assert_eq!(
            sched.factor_at(Duration::from_secs(17)),
            8,
            "overlap: max wins"
        );
        assert_eq!(sched.factor_at(Duration::from_secs(20)), 8, "exclusive end");
        assert_eq!(sched.factor_at(Duration::from_secs(30)), 1);

        let d = DeviceModel::object_store();
        assert_eq!(sched.apply(&d, Duration::from_secs(5)), d);
        assert_eq!(sched.apply(&d, Duration::from_secs(12)), d.degraded(4));
        assert!(StallSchedule::none().factor_at(Duration::ZERO) == 1);
    }
}
