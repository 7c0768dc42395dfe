//! Feature-drift detection via the population-stability index.
//!
//! §7 of the paper is a drift forecast: once FRAppE deploys, hackers fill
//! in the summary fields the classifier keys on (description, company,
//! category, profile posts). A model trained before that shift silently
//! degrades. This module watches for it: each catalog feature gets a
//! small fixed-bin histogram — a baseline frozen at training time and a
//! rolling live window — and the two are compared per lane with the PSI,
//!
//! ```text
//! PSI = Σ_bins (p_live − p_base) · ln(p_live / p_base)
//! ```
//!
//! with Laplace smoothing `(count + ½) / (total + ½·bins)` so empty bins
//! never produce infinities. The industry-standard reading: PSI < 0.1 is
//! stable, 0.1–0.2 is worth watching, and > 0.2 (the default threshold)
//! is a population shift that warrants retraining.
//!
//! Bin layout is per-feature, from the catalog's own semantics: boolean
//! lanes split at 0.5; counts and scores use a handful of fixed edges.
//! A dedicated **missing** bin tracks unobserved lanes, because §7's
//! attack is precisely a present/absent shift — an attacker *filling in*
//! a field moves mass out of the missing bin even before the filled
//! values look unusual.
//!
//! Bin counts are integer atomics, so [`DriftDetector::observe`] takes
//! `&self` and any number of scoring threads feed one window at once.
//! Integer addition is order-free: the window's counts, and so every
//! PSI, are identical whatever the interleaving, the pool size or the
//! number of shard groups.

use std::sync::atomic::{AtomicU64, Ordering};

use frappe::{AppFeatures, FeatureId, CATALOG};

/// Thresholds for the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// PSI above which a lane counts as drifted (default 0.2).
    pub psi_threshold: f64,
    /// Minimum live-window samples before any lane may fire (default
    /// 100) — PSI over a handful of rows is noise.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            psi_threshold: 0.2,
            min_samples: 100,
        }
    }
}

/// Fixed bin edges for a feature's value histogram (missing bin is
/// separate). Chosen once per catalog lane; stability of the layout is
/// what makes baseline and window comparable.
fn edges(id: FeatureId) -> &'static [f64] {
    match id {
        FeatureId::Category
        | FeatureId::Company
        | FeatureId::Description
        | FeatureId::ProfilePosts
        | FeatureId::ClientIdMismatch
        | FeatureId::NameCollision => &[0.5],
        FeatureId::PermissionCount => &[1.5, 2.5, 4.5, 8.5],
        FeatureId::WotScore => &[0.0, 20.0, 40.0, 60.0, 80.0],
        FeatureId::ExternalLinkRatio => &[0.2, 0.4, 0.6, 0.8],
    }
}

/// One lane's histogram: `edges.len() + 1` value bins plus a missing bin
/// at the end.
#[derive(Debug)]
struct Histogram {
    id: FeatureId,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Histogram {
    fn new(id: FeatureId) -> Self {
        Histogram {
            id,
            counts: (0..edges(id).len() + 2)
                .map(|_| AtomicU64::new(0))
                .collect(),
            total: AtomicU64::new(0),
        }
    }

    fn observe(&self, row: &AppFeatures) {
        let bin = match self.id.def().raw_value(row) {
            None => self.counts.len() - 1,
            Some(v) => edges(self.id).iter().take_while(|&&e| v > e).count(),
        };
        self.counts[bin].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.counts
            .iter()
            .for_each(|c| c.store(0, Ordering::Relaxed));
        self.total.store(0, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Laplace-smoothed bin probabilities.
    fn probabilities(&self) -> Vec<f64> {
        let denominator = self.total() as f64 + 0.5 * self.counts.len() as f64;
        self.counts
            .iter()
            .map(|c| (c.load(Ordering::Relaxed) as f64 + 0.5) / denominator)
            .collect()
    }

    fn psi_against(&self, baseline: &Histogram) -> f64 {
        self.probabilities()
            .into_iter()
            .zip(baseline.probabilities())
            .map(|(p, q)| (p - q) * (p / q).ln())
            .sum()
    }
}

/// PSI of one catalog lane, live window vs. baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePsi {
    /// Which feature.
    pub id: FeatureId,
    /// Its stable catalog key (for metric names and logs).
    pub key: &'static str,
    /// Population-stability index of the live window against baseline.
    pub psi: f64,
}

/// Outcome of a drift check across all lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// PSI per catalog lane, in catalog order.
    pub lanes: Vec<LanePsi>,
    /// Live-window sample count the report was computed over.
    pub window_samples: u64,
    /// Keys of lanes over threshold (empty when quiet, or when the window
    /// is still below `min_samples`).
    pub drifted: Vec<&'static str>,
}

impl DriftReport {
    /// Whether any lane fired.
    pub fn is_drifted(&self) -> bool {
        !self.drifted.is_empty()
    }

    /// The largest per-lane PSI (0 when no lanes).
    pub fn max_psi(&self) -> f64 {
        self.lanes.iter().map(|l| l.psi).fold(0.0, f64::max)
    }

    /// The PSI of one catalog lane by its stable key (`None` for an
    /// unknown key). This is the assertion surface adversarial
    /// scenarios use for margin claims like "the description lane is
    /// >3× threshold".
    pub fn psi_of(&self, key: &str) -> Option<f64> {
        self.lanes.iter().find(|l| l.key == key).map(|l| l.psi)
    }

    /// The full per-catalog-lane PSI map in catalog order, as
    /// `(stable key, psi)` pairs.
    pub fn psi_map(&self) -> Vec<(&'static str, f64)> {
        self.lanes.iter().map(|l| (l.key, l.psi)).collect()
    }
}

/// Per-feature rolling histograms compared against a training-time
/// baseline. The live window is fed through `&self` (see the module
/// docs); freezing a new baseline takes `&mut self`.
#[derive(Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    baseline: Vec<Histogram>,
    window: Vec<Histogram>,
}

impl DriftDetector {
    /// A detector with no baseline yet; [`Self::fit_baseline`] must run
    /// before reports mean anything.
    pub fn new(config: DriftConfig) -> Self {
        let lanes = || CATALOG.iter().map(|def| Histogram::new(def.id)).collect();
        DriftDetector {
            config,
            baseline: lanes(),
            window: lanes(),
        }
    }

    /// Freezes the baseline from the training rows (call at train or
    /// retrain time) and clears the live window.
    pub fn fit_baseline(&mut self, rows: &[AppFeatures]) {
        for h in &self.baseline {
            h.reset();
        }
        for row in rows {
            for h in &self.baseline {
                h.observe(row);
            }
        }
        self.reset_window();
    }

    /// Folds one live row into the rolling window.
    pub fn observe(&self, row: &AppFeatures) {
        for h in &self.window {
            h.observe(row);
        }
    }

    /// Empties the live window (e.g. after a retrain consumed it).
    pub fn reset_window(&mut self) {
        for h in &self.window {
            h.reset();
        }
    }

    /// Live-window sample count.
    pub fn window_samples(&self) -> u64 {
        self.window.first().map_or(0, Histogram::total)
    }

    /// Computes the per-lane PSI report. Lanes only land in `drifted`
    /// once the window holds at least `min_samples` rows.
    pub fn report(&self) -> DriftReport {
        let window_samples = self.window_samples();
        let lanes: Vec<LanePsi> = self
            .window
            .iter()
            .zip(&self.baseline)
            .map(|(w, b)| LanePsi {
                id: w.id,
                key: w.id.def().key,
                psi: w.psi_against(b),
            })
            .collect();
        let drifted = if window_samples >= self.config.min_samples {
            lanes
                .iter()
                .filter(|l| l.psi > self.config.psi_threshold)
                .map(|l| l.key)
                .collect()
        } else {
            Vec::new()
        };
        DriftReport {
            lanes,
            window_samples,
            drifted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frappe::{AggregationFeatures, OnDemandFeatures};
    use osn_types::ids::AppId;

    /// A benign-looking row; `filled` drives the §7 summary lanes.
    fn row(filled: bool, wot: f64, app: u64) -> AppFeatures {
        AppFeatures {
            app: AppId(app),
            on_demand: OnDemandFeatures {
                has_category: filled.then_some(true),
                has_company: filled.then_some(true),
                has_description: filled.then_some(true),
                has_profile_posts: Some(filled),
                permission_count: Some(3),
                client_id_mismatch: Some(false),
                redirect_wot_score: Some(wot),
            },
            aggregation: AggregationFeatures {
                name_matches_known_malicious: false,
                external_link_ratio: Some(0.1),
            },
        }
    }

    fn detector_with_baseline(n: usize) -> DriftDetector {
        let rows: Vec<AppFeatures> = (0..n)
            .map(|i| row(i % 5 == 0, 40.0 + (i % 50) as f64, i as u64))
            .collect();
        let mut d = DriftDetector::new(DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        });
        d.fit_baseline(&rows);
        d
    }

    #[test]
    fn same_distribution_stays_quiet() {
        let d = detector_with_baseline(500);
        // Same generator, different phase — a fresh draw from the same
        // population must not fire.
        for i in 0..300usize {
            d.observe(&row(
                (i + 3) % 5 == 0,
                40.0 + ((i + 17) % 50) as f64,
                i as u64,
            ));
        }
        let report = d.report();
        assert_eq!(report.window_samples, 300);
        assert!(
            !report.is_drifted(),
            "stationary traffic fired: {:?}",
            report.drifted
        );
        assert!(report.max_psi() < 0.1, "max PSI {}", report.max_psi());
    }

    #[test]
    fn summary_filling_shift_fires_on_the_filled_lanes() {
        let d = detector_with_baseline(500);
        // §7: attackers start filling the summary fields (80% filled
        // instead of 20%). Robust lanes keep their distribution.
        for i in 0..300usize {
            d.observe(&row(i % 5 != 0, 40.0 + (i % 50) as f64, i as u64));
        }
        let report = d.report();
        assert!(report.is_drifted());
        for key in ["category", "company", "description", "profile_posts"] {
            assert!(
                report.drifted.contains(&key),
                "{key} should fire, got {:?}",
                report.drifted
            );
        }
        assert!(
            !report.drifted.contains(&"permission_count"),
            "robust lane fired spuriously"
        );
    }

    #[test]
    fn small_windows_never_fire() {
        let d = detector_with_baseline(500);
        for i in 0..10usize {
            d.observe(&row(true, 95.0, i as u64)); // wildly shifted, but tiny
        }
        let report = d.report();
        assert!(report.max_psi() > 0.2, "shift is real in the raw PSI");
        assert!(!report.is_drifted(), "min_samples must gate the alarm");
    }

    #[test]
    fn missing_bin_catches_presence_shifts() {
        // Baseline: WOT score always observed. Window: never observed.
        // Values aside, the presence shift alone must register.
        let base: Vec<AppFeatures> = (0..200).map(|i| row(false, 50.0, i)).collect();
        let mut d = DriftDetector::new(DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        });
        d.fit_baseline(&base);
        for i in 0..100u64 {
            let mut r = row(false, 50.0, i);
            r.on_demand.redirect_wot_score = None;
            d.observe(&r);
        }
        let report = d.report();
        assert!(report.drifted.contains(&"wot_score"));
    }

    #[test]
    fn reset_window_empties_the_live_side_only() {
        let mut d = detector_with_baseline(200);
        for i in 0..60u64 {
            d.observe(&row(true, 95.0, i));
        }
        assert_eq!(d.window_samples(), 60);
        d.reset_window();
        assert_eq!(d.window_samples(), 0);
        let report = d.report();
        assert!(!report.is_drifted());
    }
}
