//! The run shape every workload shares: set-up, warm-up passes, then timed
//! passes over a pre-generated step list, each pass timed as a whole.
//!
//! Closed loop, one driver thread: the next step starts when the previous
//! one returns, so a slower program receives less load.
//!
//! Every pass replays the same steps, so passes differ only in what the
//! machine did to them. On the sandbox this was written on that is a lot
//! (identical passes 0.45 s long ran between 700 and 1 060 queries per
//! second within one run) and it is one-sided: neighbours on the host slow
//! a pass down, nothing speeds it up. Timing metrics therefore come from
//! the least-disturbed quarter of the passes, pooled. With the median pass
//! six identical runs ranged over 21 %; with the fastest quarter, over 4 %.

use std::path::Path;
use std::time::{Duration, Instant};

use edgecache_metrics::{
    MetricRegistry, RegistrySnapshot, SnapshotDiff, SpanId, SpanRecord, Tracer,
};

use crate::env;

/// What one step of a workload did. A step is one `read`, one query, or —
/// for the pipelined TCP workload — one batch whose round trip is the
/// latency of every request in it.
pub struct Step {
    pub ops: u32,
    pub failed: u32,
}

/// One metric value with its unit, as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A benchmark workload. Its constructor is the set-up: everything before
/// the first measured step (stores built, data loaded, caches warmed).
pub trait Workload {
    /// Steps in a pass.
    fn steps(&self) -> usize;

    /// Called before each pass.
    fn begin_pass(&mut self) {}

    /// Runs step `i`, counted from the first step of the run; the workload
    /// maps it into its pre-generated list. In the traced run `tracer` is
    /// enabled and `parent` is the step's root span; the workload hangs one
    /// child span on it per call into a layer.
    fn step(&mut self, i: usize, tracer: &Tracer, parent: SpanId) -> Step;

    /// Monotone `(hits, lookups)` counters behind `hit_ratio`.
    fn hit_counters(&self) -> (u64, u64);

    /// Brackets the traced passes: a fixed number of steps from the state
    /// set-up left, so the counts taken between the two calls repeat
    /// exactly for a seed.
    fn counted_begin(&mut self);
    fn counted_end(&mut self);

    /// Invariants over everything run so far; `Err` fails the run.
    fn verify(&mut self) -> Result<(), String>;

    /// Direct probes of each layer's public functions against the warmed
    /// state, plus metrics derived from the spans of the traced passes.
    /// `Err` fails the run.
    fn layer_metrics(&mut self, traced: &TracedRun) -> Result<Vec<Metric>, String>;

    /// Sizes worth recording next to the numbers (data set, cache, keys).
    fn sizes(&self) -> Vec<(&'static str, u64)>;
}

/// How long and how often to measure.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed passes run for this long before the timed ones.
    pub warm: Duration,
    /// Timed passes run for this long (the pass in which it runs out is
    /// finished).
    pub timed: Duration,
}

impl Shape {
    pub fn full(seconds: f64) -> Self {
        Self {
            setups: 3,
            warm: Duration::from_secs_f64(seconds / 7.0),
            timed: Duration::from_secs_f64(seconds),
        }
    }

    /// Smoke mode: one set-up, one warm-up pass, one timed pass. Not for
    /// numbers.
    pub fn quick() -> Self {
        Self {
            setups: 1,
            warm: Duration::ZERO,
            timed: Duration::ZERO,
        }
    }
}

/// One pass over the step list.
pub struct Pass {
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub hits: u64,
    pub lookups: u64,
    /// `(latency_ns, ops)` per step that did not fail.
    latencies: Vec<(u64, u32)>,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// When a series of passes ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// After the pass in which this much time has gone by.
    Elapsed(Duration),
    Passes(usize),
}

/// Runs whole passes until `until`; at least one. `next_step` counts steps
/// across calls. With an enabled `tracer` every step gets a root span `op`
/// carrying its request id.
pub fn run_passes(
    w: &mut dyn Workload,
    next_step: &mut usize,
    until: Until,
    tracer: &Tracer,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut request = 0u64;
    loop {
        w.begin_pass();
        let (hits0, lookups0) = w.hit_counters();
        let mut latencies = Vec::with_capacity(w.steps());
        let (mut ops, mut failed) = (0u64, 0u64);
        let cpu0 = env::process_cpu();
        let pass_start = Instant::now();
        let mut prev = pass_start;
        for _ in 0..w.steps() {
            let step = {
                let mut root = tracer.span("op");
                root.annotate("req", request);
                w.step(*next_step, tracer, root.id())
            };
            *next_step += 1;
            request += step.ops as u64;
            let now = Instant::now();
            ops += step.ops as u64;
            failed += step.failed as u64;
            // A failed step has no latency a caller could have observed.
            if step.failed == 0 {
                latencies.push(((now - prev).as_nanos() as u64, step.ops));
            }
            prev = now;
        }
        let wall = prev - pass_start;
        let cpu = env::process_cpu() - cpu0;
        let (hits1, lookups1) = w.hit_counters();
        passes.push(Pass {
            ops,
            failed,
            wall,
            cpu,
            hits: hits1 - hits0,
            lookups: lookups1 - lookups0,
            latencies,
        });
        let over = match until {
            Until::Elapsed(length) => start.elapsed() >= length,
            Until::Passes(n) => passes.len() >= n,
        };
        if over {
            return passes;
        }
    }
}

/// The end-to-end numbers of a series of timed passes.
pub struct Summary {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub hit_ratio: f64,
    /// Ops in the passes the timing metrics come from.
    pub samples: u64,
    /// Slowest over fastest pass: what the machine did to identical work.
    pub spread: f64,
    /// Latencies of the least-disturbed passes, sorted.
    latencies: Vec<(u64, u32)>,
}

impl Summary {
    /// Timing from the fastest quarter of `passes`, pooled; `hit_ratio`, a
    /// count, from all of them.
    pub fn of(passes: &[Pass]) -> Self {
        let mut by_speed: Vec<&Pass> = passes.iter().collect();
        by_speed.sort_by_key(|p| p.wall);
        let best = &by_speed[..passes.len().div_ceil(4)];
        let sum = |f: &dyn Fn(&Pass) -> f64, of: &[&Pass]| of.iter().map(|p| f(p)).sum::<f64>();
        let ops = sum(&|p| p.ops as f64, best);
        let mut latencies: Vec<(u64, u32)> = best
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        latencies.sort_unstable();
        Self {
            ops_per_s: ops / sum(&|p| p.wall.as_secs_f64(), best),
            cpu_us_per_op: sum(&|p| p.cpu.as_secs_f64(), best) * 1e6 / ops,
            hit_ratio: sum(&|p| p.hits as f64, &by_speed)
                / sum(&|p| p.lookups as f64, &by_speed).max(1.0),
            samples: ops as u64,
            spread: by_speed[by_speed.len() - 1].wall.as_secs_f64()
                / by_speed[0].wall.as_secs_f64(),
            latencies,
        }
    }

    /// Per-op latency percentile in microseconds; a step's latency counts
    /// once per op in it.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let total: u64 = self.latencies.iter().map(|&(_, w)| w as u64).sum();
        let target = ((total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(ns, w) in &self.latencies {
            seen += w as u64;
            if seen >= target {
                return ns as f64 / 1e3;
            }
        }
        self.latencies
            .last()
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the workload `shape.setups` times in `dir`, keeps the last one,
/// and returns it with the median set-up time in seconds.
pub fn timed_setup<W>(shape: Shape, dir: &Path, build: impl Fn(&Path) -> W) -> (W, f64) {
    let mut times = Vec::with_capacity(shape.setups);
    let mut last = None;
    for _ in 0..shape.setups {
        // Tear the previous build down outside the timed region, so every
        // set-up starts from an empty directory.
        drop(last.take());
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let built = build(dir);
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Counter deltas of one registry over the traced passes.
#[derive(Default)]
pub struct Counted {
    from: Option<RegistrySnapshot>,
    diff: Option<SnapshotDiff>,
}

impl Counted {
    pub fn begin(&mut self, registry: &MetricRegistry) {
        self.from = Some(registry.snapshot());
    }

    pub fn end(&mut self, registry: &MetricRegistry) {
        let from = self.from.take().expect("begin ran");
        self.diff = Some(SnapshotDiff::between(&from, &registry.snapshot()));
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.diff.as_ref().map_or(0, |d| d.counter(name))
    }

    pub fn prefix_sum(&self, prefix: &str) -> u64 {
        self.diff
            .as_ref()
            .map_or(0, |d| d.counter_prefix_sum(prefix))
    }
}

/// What the traced run hands to `layer_metrics`.
pub struct TracedRun {
    pub records: Vec<SpanRecord>,
    /// Ops of the traced passes.
    pub ops: u64,
}
