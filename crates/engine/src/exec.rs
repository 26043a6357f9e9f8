//! Executes one planned request against the shared dataset and artifacts.
//!
//! Everything here is deterministic: the SAT, MILP, LP, QP and greedy engines
//! below contain no randomness, and the only limits the executor honors are
//! *logical* — the engine's effort budget (CDCL conflicts, greedy hitting
//! sets) and the Hamming routes' constant enumeration cap (distance
//! evaluations, [`knn_core::ball::ENUMERATION_CAP`]) — so a response depends
//! solely on `(dataset, config, request)` — not on the worker that ran it,
//! the batch it arrived in, or the cache state.

use crate::artifacts::{ArtifactStore, EngineData};
use crate::plan::{plan, Plan, Route};
use crate::request::{Outcome, QueryKind, Request, Response};
use knn_core::abductive::hamming::HammingAbductive;
use knn_core::abductive::l1::L1Abductive;
use knn_core::abductive::l2::L2Abductive;
use knn_core::abductive::minimum::HittingSetMode;
use knn_core::ball::{first_flip, Flip};
use knn_core::classifier::BooleanKnn;
use knn_core::counterfactual::l1::L1Counterfactual;
use knn_core::counterfactual::l2::L2Counterfactual;
use knn_core::counterfactual::lp_general::LpGeneralCounterfactual;
use knn_core::SrCheck;
use knn_delta::{ClassifyGuard, GuardMetric};
use knn_space::{BitVec, Label, LpMetric, OddK};

/// Runs `req` to completion. `effort_budget` is the engine-level logical
/// budget (`None` = exact everywhere). The ℓ2 region routes run on the
/// epoch's shared lazy, pruned region view.
pub fn execute(
    data: &EngineData,
    artifacts: &ArtifactStore,
    req: &Request,
    effort_budget: Option<u64>,
) -> Response {
    execute_phased(data, artifacts, req, effort_budget, false).0
}

/// Where one execution's time went, as measured by [`execute_phased`].
/// Purely observational — the response is byte-identical whether or not
/// the clock ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time inside the planner, µs.
    pub plan_us: u64,
    /// Time inside the routed algorithm (artifact builds it triggered
    /// included — the engine subtracts those out via the store's build
    /// accounting), µs.
    pub solve_us: u64,
    /// The planner's demotion verdict: did the effort budget demote this
    /// request's route to its greedy/anytime variant? A plan property,
    /// filled whether or not the clock ran.
    pub demoted: bool,
}

/// [`execute`] with the cache-survival guard and the phase clock.
///
/// The guard is returned for answers that have one (successful `classify`
/// responses carry the per-class majority order statistics their label was
/// decided by — see [`knn_delta::guard`]); the engine's cache stores it next
/// to the response so a later epoch can revalidate instead of recomputing.
///
/// When `timed`, the returned [`PhaseTimes`] carries the planner and solver
/// wall times (zeros otherwise — the untimed path never reads the clock,
/// keeping disabled telemetry free).
pub fn execute_phased(
    data: &EngineData,
    artifacts: &ArtifactStore,
    req: &Request,
    effort_budget: Option<u64>,
    timed: bool,
) -> (Response, Option<ClassifyGuard>, PhaseTimes) {
    let mut phases = PhaseTimes::default();
    let plan_started = timed.then(std::time::Instant::now);
    let planned = match plan(req, effort_budget.is_some()) {
        Ok(p) => p,
        Err(e) => return (error_response(req, e), None, phases),
    };
    if let Some(t0) = plan_started {
        phases.plan_us = t0.elapsed().as_micros() as u64;
    }
    phases.demoted = planned.budgeted;
    let mut guard = None;
    let solve_started = timed.then(std::time::Instant::now);
    let outcome = execute_planned(data, artifacts, req, &planned, effort_budget, &mut guard);
    if let Some(t0) = solve_started {
        phases.solve_us = t0.elapsed().as_micros() as u64;
    }
    match outcome {
        Ok(outcome) => (
            Response { id: req.id.clone(), route: planned.tag.to_string(), result: Ok(outcome) },
            guard,
            phases,
        ),
        Err(e) => (error_response(req, e), None, phases),
    }
}

fn error_response(req: &Request, msg: String) -> Response {
    Response { id: req.id.clone(), route: "error".to_string(), result: Err(msg) }
}

fn execute_planned(
    data: &EngineData,
    artifacts: &ArtifactStore,
    req: &Request,
    planned: &Plan,
    effort_budget: Option<u64>,
    guard: &mut Option<ClassifyGuard>,
) -> Result<Outcome, String> {
    let dim = data.continuous.dim();
    if req.point.len() != dim {
        return Err(format!(
            "point dimension {} does not match dataset dimension {dim}",
            req.point.len()
        ));
    }
    if let Some(f) = &req.features {
        if let Some(&max) = f.iter().max() {
            if max >= dim {
                return Err(format!("feature index {max} out of range (dimension {dim})"));
            }
        }
    }
    if req.kind == QueryKind::CheckSr && req.features.is_none() {
        return Err("check-sr needs `features`".into());
    }
    let k = OddK::new(req.k).ok_or_else(|| format!("k must be odd, got {}", req.k))?;
    if data.continuous.len() < k.get() as usize {
        return Err(format!(
            "dataset has {} points, fewer than k = {}",
            data.continuous.len(),
            req.k
        ));
    }
    let x = &req.point;
    let fixed: &[usize] = req.features.as_deref().unwrap_or(&[]);

    // Boolean-view accessors for the Hamming routes.
    let need_bool = || -> Result<(&knn_space::BooleanDataset, BitVec), String> {
        let ds =
            data.boolean.as_ref().ok_or("the hamming metric needs a 0/1 dataset".to_string())?;
        if x.iter().any(|&v| v != 0.0 && v != 1.0) {
            return Err("the hamming metric needs a 0/1 query point".into());
        }
        Ok((ds, BitVec::from_bools(&x.iter().map(|&v| v == 1.0).collect::<Vec<_>>())))
    };
    // The epoch's SAT model whose solutions are labelled `target`, fetched
    // (and so built) only by a Hamming route whose enumeration hit the cap.
    let sat_model = |target: Label| artifacts.hamming_sat_model(data, k, target);

    match planned.route {
        Route::ClassifyHamming => {
            let (_, bx) = need_bool()?;
            let (label, pos, neg) = classify_hamming_indexed(data, artifacts, &bx, k);
            *guard = Some(ClassifyGuard {
                point: x.clone(),
                metric: GuardMetric::Hamming,
                k: req.k,
                pos: pos.map(|d| d as f64),
                neg: neg.map(|d| d as f64),
            });
            Ok(Outcome::Label(label))
        }
        Route::ClassifyContinuous => {
            let p = req.metric.lp_exponent().expect("hamming routed to ClassifyHamming");
            let (label, pos, neg) = classify_continuous_indexed(data, artifacts, x, p, k);
            *guard = Some(ClassifyGuard {
                point: x.clone(),
                metric: GuardMetric::LpPow(p),
                k: req.k,
                pos,
                neg,
            });
            Ok(Outcome::Label(label))
        }

        Route::L2Check => {
            let regions = artifacts.l2_lazy_regions(data, k);
            let ab = L2Abductive::with_lazy_regions(&data.continuous, &regions);
            Ok(check_outcome(ab.check(x, fixed)))
        }
        Route::L2Minimal => {
            let regions = artifacts.l2_lazy_regions(data, k);
            let ab = L2Abductive::with_lazy_regions(&data.continuous, &regions);
            Ok(Outcome::Reason { features: ab.minimal(x), optimal: true })
        }
        Route::L2Minimum => {
            let regions = artifacts.l2_lazy_regions(data, k);
            let ab = L2Abductive::with_lazy_regions(&data.continuous, &regions);
            let mode = ihs_mode(planned);
            Ok(Outcome::Reason {
                features: ab.minimum_with(x, mode),
                optimal: mode == HittingSetMode::Exact,
            })
        }
        Route::L2Cf => {
            let regions = artifacts.l2_lazy_regions(data, k);
            let cf = L2Counterfactual::with_lazy_regions(&data.continuous, &regions);
            // One gated region walk answers both the infimum and the witness
            // just past it (Thm 2's closure argument: an unattained infimum
            // is stepped past). The additive slack must clear the f64
            // field's 1e-9 comparison tolerance for boundary queries.
            match cf.closest(x, |d| d * 1.0001 + 1e-6) {
                None => Ok(Outcome::NoCounterfactual),
                Some((inf, witness)) => {
                    let point = witness.ok_or("internal: witness missing just past the infimum")?;
                    Ok(Outcome::Counterfactual { point, dist: inf.dist_sq.sqrt(), proven: true })
                }
            }
        }

        Route::L1Check => {
            let ab = L1Abductive::new(&data.continuous);
            Ok(check_outcome(ab.check(x, fixed)))
        }
        Route::L1Minimal => {
            let ab = L1Abductive::new(&data.continuous);
            Ok(Outcome::Reason { features: ab.minimal(x), optimal: true })
        }
        Route::L1Minimum => {
            let ab = L1Abductive::new(&data.continuous);
            let mode = ihs_mode(planned);
            Ok(Outcome::Reason {
                features: ab.minimum_with(x, mode),
                optimal: mode == HittingSetMode::Exact,
            })
        }
        Route::L1CfMilp => match L1Counterfactual::new(&data.continuous).closest(x) {
            None => Ok(Outcome::NoCounterfactual),
            Some((point, dist)) => Ok(Outcome::Counterfactual { point, dist, proven: true }),
        },

        Route::HammingCheckK1 | Route::HammingCheckSat => {
            let (ds, bx) = need_bool()?;
            Ok(match HammingAbductive::with_model(ds, k, Some(&sat_model)).check(&bx, fixed) {
                SrCheck::Sufficient => Outcome::Check { sufficient: true, witness: None },
                SrCheck::NotSufficient { witness } => {
                    Outcome::Check { sufficient: false, witness: Some(bits_to_f64(&witness)) }
                }
            })
        }
        Route::HammingMinimal => {
            let (ds, bx) = need_bool()?;
            Ok(Outcome::Reason {
                features: HammingAbductive::with_model(ds, k, Some(&sat_model)).minimal(&bx),
                optimal: true,
            })
        }
        Route::HammingMinimum => {
            let (ds, bx) = need_bool()?;
            let mode = ihs_mode(planned);
            let ab = HammingAbductive::with_model(ds, k, Some(&sat_model));
            Ok(Outcome::Reason {
                features: ab.minimum_with(&bx, mode),
                optimal: mode == HittingSetMode::Exact,
            })
        }
        Route::HammingCf => {
            let (ds, bx) = need_bool()?;
            let all: Vec<usize> = (0..bx.len()).collect();
            // Enumeration answers exactly, budget or not; SAT searches only
            // past the cap, from the radius enumeration has ruled out.
            let knn = BooleanKnn::new(ds, k);
            let found = match first_flip(&knn, &bx, &all) {
                Flip::Found { y, d } => Some((y, d, true)),
                Flip::Exhausted => None,
                Flip::Capped { floor } => {
                    let mut instance = sat_model(knn.classify(&bx).flip()).instantiate(&bx);
                    match effort_budget {
                        None => instance.closest(floor).map(|(point, d)| (point, d, true)),
                        Some(budget) => instance
                            .closest_budgeted(budget, floor)
                            .ok_or("effort budget exhausted before any counterfactual was found")?,
                    }
                }
            };
            match found {
                None => Ok(Outcome::NoCounterfactual),
                Some((point, d, proven)) => Ok(Outcome::Counterfactual {
                    point: bits_to_f64(&point),
                    dist: d as f64,
                    proven,
                }),
            }
        }

        Route::LpHeuristicCf => {
            let p = req.metric.lp_exponent().expect("heuristic CF routes only from ℓ1/ℓp");
            let engine = LpGeneralCounterfactual::new(&data.continuous, LpMetric::new(p), k);
            match engine.closest(x) {
                None => Ok(Outcome::NoCounterfactual),
                Some(w) => {
                    Ok(Outcome::Counterfactual { point: w.point, dist: w.dist, proven: false })
                }
            }
        }
    }
}

fn ihs_mode(planned: &Plan) -> HittingSetMode {
    if planned.budgeted {
        HittingSetMode::Greedy
    } else {
        HittingSetMode::Exact
    }
}

fn check_outcome(check: SrCheck<Vec<f64>>) -> Outcome {
    match check {
        SrCheck::Sufficient => Outcome::Check { sufficient: true, witness: None },
        SrCheck::NotSufficient { witness } => {
            Outcome::Check { sufficient: false, witness: Some(witness) }
        }
    }
}

fn bits_to_f64(bits: &BitVec) -> Vec<f64> {
    bits.iter().map(|b| if b { 1.0 } else { 0.0 }).collect()
}

/// The optimistic rule via per-class order statistics: positive wins iff
/// its maj-th smallest distance is ≤ the negative one (ties positive, §2).
/// A class with fewer than `maj` points — its size read off its index —
/// has no statistic. The statistics are returned with the label — they are
/// exactly the survival certificate the cache's [`ClassifyGuard`]
/// revalidates against.
fn classify_hamming_indexed(
    data: &EngineData,
    artifacts: &ArtifactStore,
    bx: &BitVec,
    k: OddK,
) -> (Label, Option<usize>, Option<usize>) {
    let stat = |label| artifacts.hamming_class_index(data, label).kth_smallest(bx, k.majority());
    let (pos_stat, neg_stat) = (stat(Label::Positive), stat(Label::Negative));
    (optimistic_from_stats(pos_stat, neg_stat), pos_stat, neg_stat)
}

/// Continuous analogue of [`classify_hamming_indexed`], comparing p-th-power
/// distance keys from the per-class ℓp scans.
fn classify_continuous_indexed(
    data: &EngineData,
    artifacts: &ArtifactStore,
    x: &[f64],
    p: u32,
    k: OddK,
) -> (Label, Option<f64>, Option<f64>) {
    let stat = |label| artifacts.kd_class_index(data, p, label).kth_smallest(x, k.majority());
    let (pos_stat, neg_stat) = (stat(Label::Positive), stat(Label::Negative));
    (optimistic_from_stats(pos_stat, neg_stat), pos_stat, neg_stat)
}

fn optimistic_from_stats<D: PartialOrd>(pos: Option<D>, neg: Option<D>) -> Label {
    match (pos, neg) {
        (Some(rp), Some(rn)) => {
            if rp.partial_cmp(&rn) != Some(std::cmp::Ordering::Greater) {
                Label::Positive
            } else {
                Label::Negative
            }
        }
        (Some(_), None) => Label::Positive,
        (None, Some(_)) => Label::Negative,
        (None, None) => unreachable!("dataset at least k ≥ 2·maj − 1 points"),
    }
}
