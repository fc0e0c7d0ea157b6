//! The cross-tier metrics aggregator: polls a [`MetricsRegistry`] on a
//! [`ScaleClock`], keeps a bounded ring of time-series points per metric,
//! derives rates, and renders a one-shot text report.
//!
//! This is the single pane of glass over the continuous pipeline — every
//! tier's counters in one place, with the derived quantities an operator
//! (or, later, a multi-host control plane) actually watches: end-to-end
//! records per second, whether the ETL tail lag is growing or shrinking, and
//! whether the batch pools are still recycling.

use crate::clock::ScaleClock;
use crate::registry::{MetricFamily, MetricKind, MetricsRegistry, SampleValue};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Aggregator tuning.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// Maximum time-series points retained per metric. Older points fall off
    /// the ring, bounding memory for any run length.
    pub ring_capacity: usize,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        Self { ring_capacity: 256 }
    }
}

/// One metric's retained trajectory.
#[derive(Debug)]
struct Series {
    kind: MetricKind,
    /// `(clock seconds, value)` points, oldest first, bounded by
    /// `ring_capacity`.
    points: VecDeque<(f64, f64)>,
}

/// The operator-facing quantities derived from the rings. Every field is
/// `None` until the corresponding families have been polled at least twice
/// (rates need two points).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DerivedMetrics {
    /// Samples emitted toward trainers per second, over the retained window
    /// (rate of `recd_dpp_samples_out_total`) — the paper's end-to-end
    /// throughput number.
    pub records_per_second: Option<f64>,
    /// Trend of the ETL tail lag in ms per second of clock time (slope of
    /// `recd_etl_tail_lag_ms` over the window). Negative means the streaming
    /// ETL is catching up to the tail; positive means it is falling behind.
    pub tail_lag_trend_ms_per_s: Option<f64>,
    /// Aggregate pool hit ratio `Σhits / Σ(hits + misses)` over every
    /// `recd_dpp_pool_acquires_total` sample — all pools, all hosts — from
    /// the latest poll. Near 1.0 at steady state; a drop means some part of
    /// the fleet is allocating again.
    pub pool_hit_ratio: Option<f64>,
    /// Per-pool hit ratios (summed across hosts, sorted by pool name). The
    /// aggregate alone misweights fleets with heterogeneous pool traffic: a
    /// cold blob pool hides behind a hot batch pool.
    pub pool_hit_ratios: Vec<(String, f64)>,
    /// The worst entry of [`pool_hit_ratios`](Self::pool_hit_ratios) — the
    /// pool to look at first when the aggregate dips.
    pub min_pool_hit_ratio: Option<f64>,
}

/// The aggregator. Poll it manually with [`MetricsAggregator::poll_at`]
/// (deterministic tests, pump-driven pipelines) or spawn a polling thread on
/// a clock with [`MetricsAggregator::spawn`].
pub struct MetricsAggregator {
    registry: Arc<MetricsRegistry>,
    ring_capacity: usize,
    series: Mutex<BTreeMap<String, Series>>,
}

/// A running aggregator polling thread; [`AggregatorHandle::stop`] shuts the
/// clock down and joins it.
pub struct AggregatorHandle {
    clock: Arc<dyn ScaleClock>,
    thread: Option<JoinHandle<()>>,
}

impl AggregatorHandle {
    /// Stops the polling thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.clock.shutdown();
            let _ = thread.join();
        }
    }
}

impl Drop for AggregatorHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn series_key(family: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        family.to_string()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{family}{{{}}}", parts.join(","))
    }
}

impl MetricsAggregator {
    /// Creates an aggregator over a registry.
    pub fn new(registry: Arc<MetricsRegistry>, config: AggregatorConfig) -> Self {
        Self {
            registry,
            ring_capacity: config.ring_capacity.max(2),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Polls every registered source once, stamping the points `seconds` on
    /// the aggregator's time axis. Histogram families contribute their
    /// `_count` as a counter series.
    pub fn poll_at(&self, seconds: f64) {
        let families = self.registry.gather();
        let mut series = self.series.lock().expect("aggregator lock");
        for family in &families {
            for sample in &family.samples {
                let (value, kind) = match &sample.value {
                    SampleValue::Scalar(v) => (*v, family.kind),
                    SampleValue::Histogram(h) => (h.count as f64, MetricKind::Counter),
                };
                let key = series_key(&family.name, &sample.labels);
                let entry = series.entry(key).or_insert_with(|| Series {
                    kind,
                    points: VecDeque::with_capacity(self.ring_capacity.min(64)),
                });
                // A counter that went backwards was reset (a killed host
                // rejoined with a fresh registry). Restart the window at the
                // reset instead of deriving a negative rate from it.
                if entry.kind == MetricKind::Counter
                    && entry.points.back().is_some_and(|(_, last)| value < *last)
                {
                    entry.points.clear();
                }
                if entry.points.len() == self.ring_capacity {
                    entry.points.pop_front();
                }
                entry.points.push_back((seconds, value));
            }
        }
    }

    /// Spawns a thread polling once per clock tick until the clock shuts
    /// down.
    pub fn spawn(self: &Arc<Self>, clock: Arc<dyn ScaleClock>) -> AggregatorHandle {
        let aggregator = Arc::clone(self);
        let tick_clock = Arc::clone(&clock);
        let thread = std::thread::Builder::new()
            .name("obs-aggregator".to_string())
            .spawn(move || {
                while tick_clock.wait_tick() {
                    aggregator.poll_at(tick_clock.now_seconds());
                }
            })
            .expect("spawn aggregator");
        AggregatorHandle {
            clock,
            thread: Some(thread),
        }
    }

    /// Number of distinct series retained.
    pub fn series_count(&self) -> usize {
        self.series.lock().expect("aggregator lock").len()
    }

    /// Points currently retained for one series key (family name plus the
    /// sorted `{k="v",...}` label block, as rendered).
    pub fn points(&self, key: &str) -> Vec<(f64, f64)> {
        self.series
            .lock()
            .expect("aggregator lock")
            .get(key)
            .map(|s| s.points.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Rate of change over the retained window of one series:
    /// `(last - first) / (t_last - t_first)`. `None` without two points or
    /// without elapsed time between them.
    pub fn rate(&self, key: &str) -> Option<f64> {
        let series = self.series.lock().expect("aggregator lock");
        let s = series.get(key)?;
        let (t0, v0) = *s.points.front()?;
        let (t1, v1) = *s.points.back()?;
        if s.points.len() < 2 || t1 <= t0 {
            return None;
        }
        Some((v1 - v0) / (t1 - t0))
    }

    /// Latest value of one series.
    pub fn last(&self, key: &str) -> Option<f64> {
        let series = self.series.lock().expect("aggregator lock");
        Some(series.get(key)?.points.back()?.1)
    }

    /// Sum of [`rate`](Self::rate) across every series of one family —
    /// the bare `family` key plus every labelled `family{...}` variant.
    /// Equals `rate(family)` for a single unlabelled series, and sums the
    /// per-host series a [`RegistryFederation`](crate::RegistryFederation)
    /// contributes, so fleet-wide throughput is one number regardless of
    /// how many hosts the samples came from. `None` while no series of the
    /// family has two points yet.
    pub fn family_rate(&self, family: &str) -> Option<f64> {
        let series = self.series.lock().expect("aggregator lock");
        let prefix = format!("{family}{{");
        let mut total = None;
        for (key, s) in series.iter() {
            if key != family && !key.starts_with(&prefix) {
                continue;
            }
            let (Some(&(t0, v0)), Some(&(t1, v1))) = (s.points.front(), s.points.back()) else {
                continue;
            };
            if s.points.len() < 2 || t1 <= t0 {
                continue;
            }
            *total.get_or_insert(0.0) += (v1 - v0) / (t1 - t0);
        }
        total
    }

    /// Computes the operator-facing derived metrics from the rings plus one
    /// fresh gather (for the point-in-time ratios).
    pub fn derived(&self) -> DerivedMetrics {
        let families: Vec<MetricFamily> = self.registry.gather();
        // Group acquire counters by pool, summing across every other label
        // (federated `host` tags in particular): per-pool ratios first, the
        // aggregate from the per-pool sums.
        let mut per_pool: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        if let Some(family) = families
            .iter()
            .find(|f| f.name == "recd_dpp_pool_acquires_total")
        {
            for sample in &family.samples {
                let SampleValue::Scalar(value) = &sample.value else {
                    continue;
                };
                let label = |key: &str| {
                    sample
                        .labels
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.as_str())
                };
                let pool = label("pool").unwrap_or("").to_string();
                let (hits, misses) = per_pool.entry(pool).or_insert((0.0, 0.0));
                match label("outcome") {
                    Some("hit") => *hits += value,
                    Some("miss") => *misses += value,
                    _ => {}
                }
            }
        }
        let pool_hit_ratios: Vec<(String, f64)> = per_pool
            .iter()
            .filter(|(_, (h, m))| h + m > 0.0)
            .map(|(pool, (h, m))| (pool.clone(), h / (h + m)))
            .collect();
        let (hits, misses) = per_pool
            .values()
            .fold((0.0, 0.0), |(h, m), (ph, pm)| (h + ph, m + pm));
        let pool_hit_ratio = (hits + misses > 0.0).then(|| hits / (hits + misses));
        let min_pool_hit_ratio = pool_hit_ratios
            .iter()
            .map(|(_, ratio)| *ratio)
            .reduce(f64::min);
        DerivedMetrics {
            // Family-summed so a federated fleet (per-host `host="h<i>"`
            // series) derives fleet-wide throughput; identical to the plain
            // series rate when the family has one unlabelled series.
            records_per_second: self.family_rate("recd_dpp_samples_out_total"),
            tail_lag_trend_ms_per_s: self.family_rate("recd_etl_tail_lag_ms"),
            pool_hit_ratio,
            pool_hit_ratios,
            min_pool_hit_ratio,
        }
    }

    /// Renders the one-shot text report: the derived metrics followed by
    /// every retained series with its latest value and, for counters and
    /// histograms, its window rate.
    pub fn report(&self) -> String {
        let derived = self.derived();
        let series = self.series.lock().expect("aggregator lock");
        let window = series
            .values()
            .filter_map(|s| {
                let first = s.points.front()?.0;
                let last = s.points.back()?.0;
                Some(last - first)
            })
            .fold(0.0f64, f64::max);
        let mut out = format!(
            "== metrics aggregator report: {} sources, {} series, {:.1}s window ==\n",
            self.registry.sources(),
            series.len(),
            window
        );
        out.push_str("derived:\n");
        match derived.records_per_second {
            Some(r) => out.push_str(&format!("  end_to_end_records_per_second: {r:.1}\n")),
            None => out.push_str("  end_to_end_records_per_second: n/a\n"),
        }
        match derived.tail_lag_trend_ms_per_s {
            Some(t) => out.push_str(&format!(
                "  tail_lag_trend_ms_per_s: {t:.1} ({})\n",
                if t <= 0.0 {
                    "catching up"
                } else {
                    "falling behind"
                }
            )),
            None => out.push_str("  tail_lag_trend_ms_per_s: n/a\n"),
        }
        match derived.pool_hit_ratio {
            Some(p) => out.push_str(&format!("  pool_hit_ratio: {p:.3}\n")),
            None => out.push_str("  pool_hit_ratio: n/a\n"),
        }
        for (pool, ratio) in &derived.pool_hit_ratios {
            out.push_str(&format!("    pool {pool}: {ratio:.3}\n"));
        }
        if let Some(min) = derived.min_pool_hit_ratio {
            out.push_str(&format!("  min_pool_hit_ratio: {min:.3}\n"));
        }
        out.push_str("series (last | window rate/s | points):\n");
        for (key, s) in series.iter() {
            let last = s.points.back().map_or(0.0, |p| p.1);
            // A gauge's level is the signal; a "rate" of it (e.g. workers
            // going -3.98/s while a pool drains) is noise. Counters and
            // histogram counts are the series whose rate means something.
            let rate = match (s.kind, s.points.front(), s.points.back()) {
                (MetricKind::Gauge, ..) => "-".to_string(),
                (_, Some(&(t0, v0)), Some(&(t1, v1))) if t1 > t0 => {
                    format!("{:.2}", (v1 - v0) / (t1 - t0))
                }
                _ => "n/a".to_string(),
            };
            let marker = match s.kind {
                MetricKind::Counter => "C",
                MetricKind::Gauge => "G",
                MetricKind::Histogram => "H",
            };
            out.push_str(&format!(
                "  [{marker}] {key}  {last} | {rate} | {}\n",
                s.points.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::registry::{Collector, MetricsBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fake tier: a counter that advances by 100 per poll and a gauge that
    /// descends, driven entirely by the test.
    #[derive(Default)]
    struct FakeTier {
        polls: AtomicU64,
    }

    impl Collector for FakeTier {
        fn collect(&self, out: &mut MetricsBuf) {
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            out.counter(
                "recd_dpp_samples_out_total",
                "samples",
                &[],
                (n * 100) as f64,
            );
            out.gauge("recd_etl_tail_lag_ms", "lag", &[], (1_000 - n * 50) as f64);
            out.counter(
                "recd_dpp_pool_acquires_total",
                "acquires",
                &[("pool", "batch"), ("outcome", "hit")],
                (n * 9) as f64,
            );
            out.counter(
                "recd_dpp_pool_acquires_total",
                "acquires",
                &[("pool", "batch"), ("outcome", "miss")],
                n as f64,
            );
        }
    }

    #[test]
    fn manual_clock_polls_bound_the_ring_and_derive_rates() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(FakeTier::default()));
        let aggregator = Arc::new(MetricsAggregator::new(
            Arc::clone(&registry),
            AggregatorConfig { ring_capacity: 4 },
        ));
        let clock = Arc::new(ManualClock::new());
        let handle = aggregator.spawn(Arc::clone(&clock) as Arc<dyn ScaleClock>);

        // 6 deterministic polls; the ManualClock's time axis is its tick
        // count, so each poll is 1s apart.
        for _ in 0..6 {
            assert!(clock.step());
        }
        handle.stop();

        // Ring is bounded: 6 polls, 4 retained.
        let points = aggregator.points("recd_dpp_samples_out_total");
        assert_eq!(points.len(), 4);
        // Oldest retained poll is #3 (t=3s, v=200): polls are stamped after
        // wait_tick consumed the grant, and the counter advanced once per
        // gather (derived() gathers too — but not before the polls ran).
        let derived = aggregator.derived();
        // Counter advances 100 per 1s tick → rate 100/s over any window.
        let rate = derived.records_per_second.expect("two points retained");
        assert!((rate - 100.0).abs() < 1e-9, "rate {rate} != 100/s");
        // Gauge descends 50 per tick → trend -50 ms/s (catching up).
        let trend = derived.tail_lag_trend_ms_per_s.expect("trend");
        assert!((trend + 50.0).abs() < 1e-9, "trend {trend}");
        // Hit ratio from the latest poll: 9n / (9n + n) = 0.9.
        let ratio = derived.pool_hit_ratio.expect("ratio");
        assert!((ratio - 0.9).abs() < 1e-9, "ratio {ratio}");

        let report = aggregator.report();
        assert!(report.contains("end_to_end_records_per_second: 100.0"));
        assert!(report.contains("catching up"));
        assert!(report.contains("recd_dpp_samples_out_total"));
        // Gauges print their level only: no window rate.
        assert!(report.contains("[G] recd_etl_tail_lag_ms  750 | - | 4"));
    }

    /// A counter that climbs, resets to zero (a killed host rejoining with
    /// a fresh registry), then climbs again.
    #[derive(Default)]
    struct ResettingTier {
        polls: AtomicU64,
    }

    impl Collector for ResettingTier {
        fn collect(&self, out: &mut MetricsBuf) {
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            // Polls 0..3 climb to 300, poll 3 resets to 0, then climbs.
            let value = if n < 3 { n * 100 } else { (n - 3) * 40 };
            out.counter("recd_dpp_samples_out_total", "samples", &[], value as f64);
            out.gauge("recd_etl_tail_lag_ms", "lag", &[], 5.0);
        }
    }

    #[test]
    fn counter_reset_restarts_the_window_instead_of_going_negative() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(ResettingTier::default()));
        let aggregator =
            MetricsAggregator::new(Arc::clone(&registry), AggregatorConfig { ring_capacity: 8 });

        aggregator.poll_at(1.0); // 0
        aggregator.poll_at(2.0); // 100
        aggregator.poll_at(3.0); // 200
        let before = aggregator.rate("recd_dpp_samples_out_total").unwrap();
        assert!((before - 100.0).abs() < 1e-9, "pre-reset rate {before}");

        // The reset poll drops to 0: without the monotonicity guard the
        // window (0 .. 200) would derive a negative records/sec.
        aggregator.poll_at(4.0); // reset -> 0
        assert_eq!(aggregator.rate("recd_dpp_samples_out_total"), None);
        assert_eq!(aggregator.points("recd_dpp_samples_out_total").len(), 1);

        aggregator.poll_at(5.0); // 40
        aggregator.poll_at(6.0); // 80
        let after = aggregator.rate("recd_dpp_samples_out_total").unwrap();
        assert!(
            after > 0.0 && (after - 40.0).abs() < 1e-9,
            "post-reset rate {after}"
        );
        assert!(
            aggregator
                .family_rate("recd_dpp_samples_out_total")
                .unwrap()
                > 0.0
        );

        // Gauges may legitimately descend; their window is never restarted.
        assert_eq!(aggregator.points("recd_etl_tail_lag_ms").len(), 6);
    }

    #[test]
    fn rate_needs_two_points_and_elapsed_time() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(FakeTier::default()));
        let aggregator = MetricsAggregator::new(registry, AggregatorConfig::default());
        assert_eq!(aggregator.rate("recd_dpp_samples_out_total"), None);
        aggregator.poll_at(1.0);
        assert_eq!(aggregator.rate("recd_dpp_samples_out_total"), None);
        // A second poll at the same instant still cannot produce a rate.
        aggregator.poll_at(1.0);
        assert_eq!(aggregator.rate("recd_dpp_samples_out_total"), None);
        aggregator.poll_at(2.0);
        assert!(aggregator.rate("recd_dpp_samples_out_total").is_some());
        assert!(aggregator.series_count() >= 4);
    }

    /// Two federated hosts advancing at different speeds: the family rate is
    /// their sum, while per-series rates stay individually addressable.
    struct FederatedPair {
        polls: AtomicU64,
    }

    impl Collector for FederatedPair {
        fn collect(&self, out: &mut MetricsBuf) {
            let n = self.polls.fetch_add(1, Ordering::Relaxed);
            out.counter(
                "recd_dpp_samples_out_total",
                "samples",
                &[("host", "h0")],
                (n * 30) as f64,
            );
            out.counter(
                "recd_dpp_samples_out_total",
                "samples",
                &[("host", "h1")],
                (n * 70) as f64,
            );
        }
    }

    #[test]
    fn family_rate_sums_per_host_series() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(FederatedPair {
            polls: AtomicU64::new(0),
        }));
        let aggregator = MetricsAggregator::new(registry, AggregatorConfig::default());
        assert_eq!(aggregator.family_rate("recd_dpp_samples_out_total"), None);
        aggregator.poll_at(1.0);
        aggregator.poll_at(2.0);
        // 30/s + 70/s across the host-labelled series.
        let rate = aggregator
            .family_rate("recd_dpp_samples_out_total")
            .expect("two polls");
        assert!((rate - 100.0).abs() < 1e-9, "family rate {rate}");
        // derived() reports the same fleet-wide number.
        let derived = aggregator.derived();
        assert!((derived.records_per_second.expect("rate") - 100.0).abs() < 1e-9);
        // The unlabelled key matches nothing: only exact/prefixed keys sum.
        assert_eq!(aggregator.rate("recd_dpp_samples_out_total"), None);
    }

    /// A host with fixed per-pool acquire counters.
    struct PoolHost {
        batch: (f64, f64),
        blob: (f64, f64),
    }

    impl Collector for PoolHost {
        fn collect(&self, out: &mut MetricsBuf) {
            for (pool, (hits, misses)) in [("batch", self.batch), ("blob", self.blob)] {
                out.counter(
                    "recd_dpp_pool_acquires_total",
                    "acquires",
                    &[("pool", pool), ("outcome", "hit")],
                    hits,
                );
                out.counter(
                    "recd_dpp_pool_acquires_total",
                    "acquires",
                    &[("pool", pool), ("outcome", "miss")],
                    misses,
                );
            }
        }
    }

    /// Two federated member registries with heterogeneous pool traffic: the
    /// per-pool ratios sum each pool across hosts, the minimum exposes the
    /// cold pool the traffic-weighted aggregate hides.
    #[test]
    fn per_pool_hit_ratios_survive_federation_and_expose_the_cold_pool() {
        let federation = Arc::new(crate::RegistryFederation::new());
        // Host 0: hot batch pool (90/10), cold blob pool (2/8).
        let h0 = Arc::new(MetricsRegistry::new());
        h0.register(Arc::new(PoolHost {
            batch: (90.0, 10.0),
            blob: (2.0, 8.0),
        }));
        federation.set_member("h0", h0);
        // Host 1: perfect batch pool (110/0), cold blob pool (3/7).
        let h1 = Arc::new(MetricsRegistry::new());
        h1.register(Arc::new(PoolHost {
            batch: (110.0, 0.0),
            blob: (3.0, 7.0),
        }));
        federation.set_member("h1", h1);
        let parent = Arc::new(MetricsRegistry::new());
        parent.register(Arc::clone(&federation) as Arc<dyn Collector>);

        let aggregator = MetricsAggregator::new(parent, AggregatorConfig::default());
        let derived = aggregator.derived();

        // batch: (90+110)/(90+110+10+0) = 200/210; blob: 5/20 = 0.25.
        let ratios: std::collections::HashMap<&str, f64> = derived
            .pool_hit_ratios
            .iter()
            .map(|(p, r)| (p.as_str(), *r))
            .collect();
        assert!((ratios["batch"] - 200.0 / 210.0).abs() < 1e-9);
        assert!((ratios["blob"] - 0.25).abs() < 1e-9);
        // The minimum flags the blob pool; the aggregate (205/230 ≈ 0.89)
        // would have hidden it.
        assert!((derived.min_pool_hit_ratio.unwrap() - 0.25).abs() < 1e-9);
        let aggregate = derived.pool_hit_ratio.unwrap();
        assert!((aggregate - 205.0 / 230.0).abs() < 1e-9, "{aggregate}");

        let report = aggregator.report();
        assert!(report.contains("min_pool_hit_ratio: 0.250"));
        assert!(report.contains("pool blob: 0.250"));
    }

    #[test]
    fn labeled_series_keys_are_stable() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register(Arc::new(FakeTier::default()));
        let aggregator = MetricsAggregator::new(registry, AggregatorConfig::default());
        aggregator.poll_at(0.0);
        // Labels render sorted by key, matching the exposition ordering.
        assert_eq!(
            aggregator
                .points("recd_dpp_pool_acquires_total{outcome=\"hit\",pool=\"batch\"}")
                .len(),
            1
        );
    }
}
