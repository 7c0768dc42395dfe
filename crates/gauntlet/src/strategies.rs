//! The five built-in adaptive attackers.
//!
//! Each strategy escalates on one public signal only — the fraction of
//! its live apps flagged last round — mirroring how real operators
//! probe a deployed detector: ship, watch enforcement, adapt, reship.
//! All randomness is a private `SmallRng` seeded from the spec, and app
//! ids come from an engine-assigned range, so a strategy's move
//! sequence is a pure function of `(spec, feedback history)`.

use osn_types::ids::AppId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synth_workload::names::POPULAR_BENIGN_NAMES;
use synth_workload::EvasionKnobs;

use crate::spec::Attack;
use crate::strategy::{AppAction, AppSpec, Feedback, RoundPlan, Strategy};
use crate::traffic::splitmix64;

/// Escalation trigger: keep adapting while enforcement still bites —
/// any round where more than a tenth of the live cohort got flagged.
const ESCALATE_ABOVE: f64 = 0.1;

/// Linear interpolation between the paper's baseline rate and an
/// evasion ceiling, driven by the strategy's escalation level.
fn lerp(base: f64, ceiling: f64, level: f64) -> f64 {
    base + (ceiling - base) * level.clamp(0.0, 1.0)
}

/// Sequential app-id allocator over the engine-assigned attacker range.
struct IdAlloc {
    next: u64,
}

impl IdAlloc {
    fn next(&mut self) -> AppId {
        let app = AppId(self.next);
        self.next += 1;
        app
    }
}

/// Builds the live [`Strategy`] for a spec's attack phase, with its RNG
/// derived from the scenario seed and app ids allocated from
/// `first_app_id` upward.
pub fn strategy_for(attack: &Attack, seed: u64, first_app_id: u64) -> Box<dyn Strategy> {
    let rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x574A_7E61));
    let ids = IdAlloc { next: first_app_id };
    match *attack {
        Attack::SummaryFilling {
            cohort,
            wave,
            step,
            knobs,
        } => Box::new(SummaryFilling {
            rng,
            ids,
            cohort,
            wave,
            step,
            knobs,
            level: 0.0,
            live: Vec::new(),
        }),
        Attack::NameMimicry {
            cohort,
            start_distance,
        } => Box::new(NameMimicry {
            rng,
            ids,
            cohort,
            distance: start_distance,
            live: Vec::new(),
        }),
        Attack::PiggybackRing {
            promoters,
            promotees,
            fanout,
        } => Box::new(PiggybackRing {
            rng,
            ids,
            promoters: promoters as usize,
            promotees: promotees as usize,
            fanout,
            fronts: Vec::new(),
            scams: Vec::new(),
            spawned: 0,
        }),
        Attack::FakeLikeInflation {
            cohort,
            scam_posts,
            filler_step,
            max_filler,
        } => Box::new(FakeLikeInflation {
            ids,
            cohort,
            scam_posts,
            filler_step,
            max_filler,
            filler: 0,
            live: Vec::new(),
        }),
        Attack::InstallChurn { wave } => Box::new(InstallChurn {
            rng,
            ids,
            wave,
            previous_wave: Vec::new(),
            waves_spawned: 0,
        }),
    }
}

// ---------------------------------------------------------------------------
// 1. Summary filling (§7) — the full-loop scenario
// ---------------------------------------------------------------------------

/// Starts at paper-rate empty summaries; every flagged round it raises
/// its fill level one `step` toward the [`EvasionKnobs`] ceilings,
/// re-crawling every live app and shipping a fresh wave at the new
/// rates. Escalation also cleans up the operation's infrastructure —
/// dedicated client IDs instead of pooled ones, a rated redirect domain
/// instead of a throwaway — because §7's forecast is that hackers fake
/// *whatever* the classifier keys on. What it cannot fake is its
/// business: the scam posts (external links, one-permission installs)
/// keep flowing, which is exactly what a retrained model re-learns.
struct SummaryFilling {
    rng: SmallRng,
    ids: IdAlloc,
    cohort: u32,
    wave: u32,
    step: f64,
    knobs: EvasionKnobs,
    level: f64,
    live: Vec<AppId>,
}

impl SummaryFilling {
    fn spec_at_level(&mut self, app: AppId) -> AppSpec {
        let k = &self.knobs;
        let level = self.level;
        AppSpec {
            name: format!("Spin The Wheel {}", app.0),
            fill_description: self
                .rng
                .gen_bool(lerp(0.014, k.description_fill_rate, level)),
            fill_company: self.rng.gen_bool(lerp(0.04, k.company_fill_rate, level)),
            fill_category: self.rng.gen_bool(lerp(0.06, k.category_fill_rate, level)),
            fill_profile_feed: self
                .rng
                .gen_bool(lerp(0.03, k.profile_feed_fill_rate, level)),
            permission_count: 1,
            client_id_mismatch: self.rng.gen_bool(lerp(0.78, 0.10, level)),
            wot_score: self
                .rng
                .gen_bool(0.7 * level)
                .then(|| f64::from(self.rng.gen_range(60..90u32))),
            crawled: true,
        }
    }
}

impl Strategy for SummaryFilling {
    fn name(&self) -> &'static str {
        "summary_filling"
    }

    fn plan_round(&mut self, feedback: &Feedback) -> RoundPlan {
        let mut plan = RoundPlan::default();
        if feedback.round == 1 {
            for _ in 0..self.cohort {
                let app = self.ids.next();
                let spec = self.spec_at_level(app);
                self.live.push(app);
                plan.actions.push(AppAction::Register { app, spec });
            }
        } else {
            if feedback.flagged_fraction() > ESCALATE_ABOVE {
                self.level = (self.level + self.step).min(1.0);
            }
            // Edit every live app's profile up to the current level, and
            // ship a fresh wave at it.
            for app in self.live.clone() {
                let spec = self.spec_at_level(app);
                plan.actions.push(AppAction::Recrawl { app, spec });
            }
            for _ in 0..self.wave {
                let app = self.ids.next();
                let spec = self.spec_at_level(app);
                self.live.push(app);
                plan.actions.push(AppAction::Register { app, spec });
            }
        }
        for &app in &self.live {
            plan.actions.push(AppAction::PostBurst {
                app,
                scam_posts: 2,
                filler_posts: 0,
            });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// 2. Name mimicry (§4.2.1)
// ---------------------------------------------------------------------------

/// Names its scam apps within edit distance `distance` of the paper's
/// popular benign apps; when mostly flagged, abandons the flagged apps
/// and re-registers *closer* to the targets, down to exact copies —
/// probing whether the defender's name-collision list starts burning
/// the legitimate originals.
struct NameMimicry {
    rng: SmallRng,
    ids: IdAlloc,
    cohort: u32,
    distance: usize,
    live: Vec<AppId>,
}

impl NameMimicry {
    fn mimic_name(&mut self, target_index: usize) -> String {
        let target = POPULAR_BENIGN_NAMES[target_index % POPULAR_BENIGN_NAMES.len()];
        let mut chars: Vec<char> = target.chars().collect();
        for _ in 0..self.distance {
            if chars.len() > 4 && self.rng.gen_bool(0.5) {
                let i = self.rng.gen_range(1..chars.len());
                chars.remove(i); // 'FarmVile'-style deletion
            } else {
                let i = self.rng.gen_range(0..chars.len());
                chars[i] = char::from(b'a' + self.rng.gen_range(0..26u8));
            }
        }
        chars.into_iter().collect()
    }

    fn register(&mut self, target_index: usize, plan: &mut RoundPlan) {
        let app = self.ids.next();
        let name = self.mimic_name(target_index);
        self.live.push(app);
        plan.actions.push(AppAction::Register {
            app,
            spec: AppSpec::paper_scam(name),
        });
    }
}

impl Strategy for NameMimicry {
    fn name(&self) -> &'static str {
        "name_mimicry"
    }

    fn plan_round(&mut self, feedback: &Feedback) -> RoundPlan {
        let mut plan = RoundPlan::default();
        if feedback.round == 1 {
            for i in 0..self.cohort {
                self.register(i as usize, &mut plan);
            }
        } else {
            if feedback.flagged_fraction() > ESCALATE_ABOVE && self.distance > 0 {
                self.distance -= 1;
            }
            // Abandon what got burned, replace it nearer the targets.
            for (i, app) in feedback.flagged_apps().into_iter().enumerate() {
                self.live.retain(|&a| a != app);
                plan.actions.push(AppAction::Retire { app });
                self.register(i, &mut plan);
            }
        }
        for &app in &self.live {
            plan.actions.push(AppAction::PostBurst {
                app,
                scam_posts: 2,
                filler_posts: 0,
            });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// 3. Piggyback / collusion ring (Figs. 13–16)
// ---------------------------------------------------------------------------

/// Clean-looking front apps promote scam promotees via canvas links
/// (the AppNet edges); any member that gets flagged is rotated out and
/// replaced, keeping the ring alive behind fresh identities.
struct PiggybackRing {
    rng: SmallRng,
    ids: IdAlloc,
    promoters: usize,
    promotees: usize,
    fanout: u32,
    fronts: Vec<AppId>,
    scams: Vec<AppId>,
    spawned: u64,
}

impl PiggybackRing {
    fn spawn_front(&mut self, plan: &mut RoundPlan) {
        let app = self.ids.next();
        self.spawned += 1;
        self.fronts.push(app);
        plan.actions.push(AppAction::Register {
            app,
            spec: AppSpec::clean_front(format!("Daily Horoscope Digest {}", self.spawned)),
        });
    }

    fn spawn_scam(&mut self, plan: &mut RoundPlan) {
        let app = self.ids.next();
        self.spawned += 1;
        self.scams.push(app);
        plan.actions.push(AppAction::Register {
            app,
            spec: AppSpec::paper_scam(format!("Secret Admirers Revealed {}", self.spawned)),
        });
    }
}

impl Strategy for PiggybackRing {
    fn name(&self) -> &'static str {
        "piggyback_ring"
    }

    fn plan_round(&mut self, feedback: &Feedback) -> RoundPlan {
        let mut plan = RoundPlan::default();
        if feedback.round == 1 {
            for _ in 0..self.promoters {
                self.spawn_front(&mut plan);
            }
            for _ in 0..self.promotees {
                self.spawn_scam(&mut plan);
            }
        } else {
            // Rotate every flagged member out, preserving the ring shape.
            for app in feedback.flagged_apps() {
                plan.actions.push(AppAction::Retire { app });
                if self.fronts.contains(&app) {
                    self.fronts.retain(|&a| a != app);
                    self.spawn_front(&mut plan);
                } else {
                    self.scams.retain(|&a| a != app);
                    self.spawn_scam(&mut plan);
                }
            }
        }
        // Promotion edges: each front pushes `fanout` distinct promotees.
        for fi in 0..self.fronts.len() {
            let promoter = self.fronts[fi];
            for k in 0..self.fanout as usize {
                let pick =
                    (fi * self.fanout as usize + k + self.rng.gen_range(0..self.scams.len()))
                        % self.scams.len();
                plan.actions.push(AppAction::PromotePeer {
                    promoter,
                    target: self.scams[pick],
                });
            }
        }
        for &app in &self.scams {
            plan.actions.push(AppAction::PostBurst {
                app,
                scam_posts: 2,
                filler_posts: 0,
            });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// 4. Fake-like inflation
// ---------------------------------------------------------------------------

/// Buries its scam links in engagement-bait filler posts (no links),
/// dragging the external-link ratio toward benign; escalates the filler
/// volume whenever most of the cohort is flagged.
struct FakeLikeInflation {
    ids: IdAlloc,
    cohort: u32,
    scam_posts: u32,
    filler_step: u32,
    max_filler: u32,
    filler: u32,
    live: Vec<AppId>,
}

impl Strategy for FakeLikeInflation {
    fn name(&self) -> &'static str {
        "fake_like_inflation"
    }

    fn plan_round(&mut self, feedback: &Feedback) -> RoundPlan {
        let mut plan = RoundPlan::default();
        if feedback.round == 1 {
            for _ in 0..self.cohort {
                let app = self.ids.next();
                self.live.push(app);
                plan.actions.push(AppAction::Register {
                    app,
                    spec: AppSpec::paper_scam(format!("Lucky Like Magnet {}", app.0)),
                });
            }
        } else if feedback.flagged_fraction() > ESCALATE_ABOVE {
            self.filler = (self.filler + self.filler_step).min(self.max_filler);
        }
        for &app in &self.live {
            plan.actions.push(AppAction::PostBurst {
                app,
                scam_posts: self.scam_posts,
                filler_posts: self.filler,
            });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// 5. Install/uninstall churn (installer farms)
// ---------------------------------------------------------------------------

/// Installer-farm waves: every round the previous wave is deleted
/// wholesale and a fresh one registered, gone again before any crawl
/// can observe it — the on-demand lanes of every churn app stay
/// missing, and only registration names and install-bait posts ever
/// reach the defender.
struct InstallChurn {
    rng: SmallRng,
    ids: IdAlloc,
    wave: u32,
    previous_wave: Vec<AppId>,
    waves_spawned: u64,
}

impl Strategy for InstallChurn {
    fn name(&self) -> &'static str {
        "install_churn"
    }

    fn plan_round(&mut self, _feedback: &Feedback) -> RoundPlan {
        let mut plan = RoundPlan::default();
        for app in self.previous_wave.drain(..) {
            plan.actions.push(AppAction::Retire { app });
        }
        self.waves_spawned += 1;
        for _ in 0..self.wave {
            let app = self.ids.next();
            // A handful of recycled farm names: once the defender
            // verifies one wave, later waves collide on the name list.
            let name = format!("Install Bonus Booster {}", self.rng.gen_range(0..4u32) + 1);
            self.previous_wave.push(app);
            plan.actions.push(AppAction::Register {
                app,
                spec: AppSpec {
                    crawled: false,
                    ..AppSpec::paper_scam(name)
                },
            });
            plan.actions.push(AppAction::PostBurst {
                app,
                scam_posts: 2,
                filler_posts: 0,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn feedback(round: u32, apps: &[(u64, bool)]) -> Feedback {
        Feedback {
            round,
            flagged: apps.iter().map(|&(a, f)| (AppId(a), f)).collect(),
        }
    }

    #[test]
    fn strategies_are_deterministic() {
        let attack = Attack::SummaryFilling {
            cohort: 8,
            wave: 4,
            step: 0.5,
            knobs: EvasionKnobs::paper_forecast(),
        };
        let run = || {
            let mut s = strategy_for(&attack, 99, 5000);
            vec![
                s.plan_round(&feedback(1, &[])),
                s.plan_round(&feedback(2, &[(5000, true), (5001, true), (5002, false)])),
                s.plan_round(&feedback(3, &[(5000, true), (5001, false)])),
            ]
        };
        let a: Vec<Vec<AppAction>> = run().into_iter().map(|p| p.actions).collect();
        let b: Vec<Vec<AppAction>> = run().into_iter().map(|p| p.actions).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn summary_filling_escalates_only_when_flagged() {
        let attack = Attack::SummaryFilling {
            cohort: 4,
            wave: 0,
            step: 1.0,
            knobs: EvasionKnobs::paper_forecast(),
        };
        let mut s = strategy_for(&attack, 3, 9000);
        s.plan_round(&feedback(1, &[]));
        // Nothing flagged: a quiet attacker does not change its rates —
        // the recrawl specs stay at paper-level fill.
        let quiet = s.plan_round(&feedback(2, &[(9000, false), (9001, false)]));
        let filled = |plan: &RoundPlan| {
            plan.actions
                .iter()
                .filter(|a| {
                    matches!(a, AppAction::Recrawl { spec, .. } | AppAction::Register { spec, .. }
                        if spec.fill_description && spec.fill_company && spec.fill_category)
                })
                .count()
        };
        assert_eq!(filled(&quiet), 0);
        // Fully flagged: level jumps to the ceiling and most recrawls fill in.
        let burned = s.plan_round(&feedback(3, &[(9000, true), (9001, true)]));
        assert!(filled(&burned) >= 1, "escalated plan must fill summaries");
    }

    #[test]
    fn mimicry_closes_the_distance_to_exact_copies() {
        let attack = Attack::NameMimicry {
            cohort: 6,
            start_distance: 2,
        };
        let mut s = strategy_for(&attack, 11, 7000);
        let first = s.plan_round(&feedback(1, &[]));
        let names = |plan: &RoundPlan| -> Vec<String> {
            plan.actions
                .iter()
                .filter_map(|a| match a {
                    AppAction::Register { spec, .. } => Some(spec.name.clone()),
                    _ => None,
                })
                .collect()
        };
        for name in names(&first) {
            assert!(
                !POPULAR_BENIGN_NAMES.contains(&name.as_str()),
                "distance 2 should not be an exact copy: {name}"
            );
        }
        // Two full-flag rounds → distance 0 → replacements are exact copies.
        let all: BTreeMap<u64, bool> = (7000..7006).map(|a| (a, true)).collect();
        let fb = |round| {
            feedback(
                round,
                &all.iter().map(|(&a, &f)| (a, f)).collect::<Vec<_>>(),
            )
        };
        s.plan_round(&fb(2));
        let exact = s.plan_round(&fb(3));
        assert!(
            names(&exact)
                .iter()
                .all(|n| POPULAR_BENIGN_NAMES.contains(&n.as_str())),
            "distance 0 must be exact copies, got {:?}",
            names(&exact)
        );
    }

    #[test]
    fn churn_retires_every_previous_wave() {
        let mut s = strategy_for(&Attack::InstallChurn { wave: 5 }, 1, 4000);
        let first = s.plan_round(&feedback(1, &[]));
        assert!(!first
            .actions
            .iter()
            .any(|a| matches!(a, AppAction::Retire { .. })));
        let second = s.plan_round(&feedback(2, &[]));
        let retired: Vec<AppId> = second
            .actions
            .iter()
            .filter_map(|a| match a {
                AppAction::Retire { app } => Some(*app),
                _ => None,
            })
            .collect();
        assert_eq!(retired, (4000..4005).map(AppId).collect::<Vec<_>>());
    }
}
