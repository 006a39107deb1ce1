//! Differential-privacy accounting for the release mechanism (Theorem 1) and
//! for the composition of model learning with the releases.
//!
//! Theorem 1: Mechanism 1 with the randomized Privacy Test 2 and parameters
//! `k ≥ 1`, `γ > 1`, `ε0 > 0` is (ε, δ)-differentially private *per released
//! record* with, for any integer `1 ≤ t < k`,
//!
//! ```text
//! ε = ε0 + ln(1 + γ/t)        δ = e^{-ε0 (k - t)}
//! ```
//!
//! `t` trades ε against δ; [`ReleaseBudget::optimize`] scans all admissible `t`
//! and keeps the tightest ε for a caller-specified δ ceiling.

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};
use sgf_metrics::json::write_object;
use sgf_stats::DpBudget;

/// Largest integer every `f64` at or below it represents exactly (2^53).
/// Counts under this bound convert to `f64` without rounding, which is what
/// keeps the accounting formulas below exact rather than merely approximate.
const MAX_EXACT_COUNT: u64 = 1 << 53;
/// The same bound as an `f64` literal (spelled out so no cast is needed).
const MAX_EXACT_COUNT_F64: f64 = 9_007_199_254_740_992.0;

/// Convert a release/parameter count to `f64` for budget arithmetic (R5,
/// accounting-cast discipline).  Exact up to 2^53; beyond that the conversion
/// would silently round, so the count saturates to `+inf` instead — a
/// *conservative* overstatement of the privacy cost, never an understatement.
pub(crate) fn count_to_f64(n: usize) -> f64 {
    if u64::try_from(n).is_ok_and(|v| v <= MAX_EXACT_COUNT) {
        n as f64
    } else {
        f64::INFINITY
    }
}

/// Ceil a non-negative finite `f64` and convert it to `usize` (R5,
/// accounting-cast discipline).  A bare `ceil() as usize` quietly saturates
/// on NaN/∞/overflow; parameter-sizing formulas must surface those cases as
/// errors instead.
pub(crate) fn ceil_to_usize(value: f64) -> Result<usize> {
    let ceiled = value.ceil();
    // NaN fails `contains` too, so non-finite values are covered.
    if !(0.0..=MAX_EXACT_COUNT_F64).contains(&ceiled) {
        return Err(CoreError::InvalidParameter(format!(
            "value {value} does not round up to a representable count"
        )));
    }
    Ok(ceiled as usize)
}

/// Sequential composition of `releases` identical per-release budgets, in
/// O(1): n releases of an (ε, δ) mechanism cost (nε, nδ).  `None` means the
/// deterministic test was used, which carries no per-release guarantee — the
/// composed cost is vacuous (infinite ε) as soon as anything was released.
///
/// Every accounting surface (the cumulative [`BudgetLedger`] and the
/// per-request report) goes through this single helper so they can never
/// disagree.
pub(crate) fn compose_releases(per_release: Option<DpBudget>, releases: usize) -> DpBudget {
    match (per_release, releases) {
        (_, 0) => DpBudget::pure(0.0),
        (Some(b), n) => {
            let n = count_to_f64(n);
            DpBudget::new(n * b.epsilon, n * b.delta)
        }
        (None, _) => DpBudget::pure(f64::INFINITY),
    }
}

/// The privacy guarantee of a single released record under Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReleaseBudget {
    /// The plausible-deniability parameter k used by the test.
    pub k: usize,
    /// The indistinguishability parameter γ.
    pub gamma: f64,
    /// The threshold-randomization parameter ε0.
    pub epsilon0: f64,
    /// The trade-off parameter t (1 ≤ t < k) the bound was evaluated at.
    pub t: usize,
    /// The resulting (ε, δ) guarantee for one released record.
    pub budget: DpBudget,
}

impl ReleaseBudget {
    /// Evaluate Theorem 1 at a specific `t`.
    pub fn at(k: usize, gamma: f64, epsilon0: f64, t: usize) -> Result<Self> {
        if k < 1 {
            return Err(CoreError::InvalidParameter("k must be at least 1".into()));
        }
        if !(gamma.is_finite() && gamma > 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "gamma must be finite and > 1, got {gamma}"
            )));
        }
        if !(epsilon0.is_finite() && epsilon0 > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "epsilon0 must be finite and positive, got {epsilon0}"
            )));
        }
        if t < 1 || t >= k {
            return Err(CoreError::InvalidParameter(format!(
                "t must satisfy 1 <= t < k (t = {t}, k = {k})"
            )));
        }
        let epsilon = epsilon0 + (1.0 + gamma / count_to_f64(t)).ln();
        let delta = (-epsilon0 * count_to_f64(k - t)).exp();
        Ok(ReleaseBudget {
            k,
            gamma,
            epsilon0,
            t,
            budget: DpBudget::new(epsilon, delta),
        })
    }

    /// Scan every admissible `t` and return the smallest-ε bound whose δ does
    /// not exceed `max_delta`, or `None` if no such `t` exists.
    pub fn optimize(k: usize, gamma: f64, epsilon0: f64, max_delta: f64) -> Result<Option<Self>> {
        if k < 2 {
            return Err(CoreError::InvalidParameter(
                "optimizing over t requires k >= 2".into(),
            ));
        }
        let mut best: Option<ReleaseBudget> = None;
        for t in 1..k {
            let candidate = ReleaseBudget::at(k, gamma, epsilon0, t)?;
            if candidate.budget.delta > max_delta {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|b| candidate.budget.epsilon < b.budget.epsilon)
            {
                best = Some(candidate);
            }
        }
        Ok(best)
    }

    /// Smallest `k` that achieves `δ ≤ max_delta` at this `t` and ε0 — the
    /// paper's guidance "if we want δ ≤ 1/n^c ... set k ≥ t + (c/ε0) ln n".
    pub fn minimum_k(t: usize, epsilon0: f64, max_delta: f64) -> Result<usize> {
        if !(epsilon0.is_finite() && epsilon0 > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "epsilon0 must be finite and positive, got {epsilon0}"
            )));
        }
        if !(max_delta > 0.0 && max_delta < 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "max_delta must lie in (0, 1), got {max_delta}"
            )));
        }
        // e^{-ε0 (k - t)} <= δ  <=>  k >= t + ln(1/δ)/ε0.
        Ok(t + ceil_to_usize((1.0 / max_delta).ln() / epsilon0)?)
    }
}

/// Cumulative differential-privacy accounting across *all* the releases
/// served by one [`crate::session::SynthesisSession`].
///
/// The model budgets (structure, parameters) are paid once at training time;
/// every released record afterwards spends one per-release budget (Theorem 1),
/// and releases from the same seed store compose sequentially no matter how
/// many requests they were spread over (Section 8).  The ledger tracks the
/// running totals so a long-lived service can report — and cap — its exposure.
///
/// # Two-phase admission
///
/// A release service admitting concurrent requests under an (ε, δ) cap cannot
/// check the cap against `releases` alone: two requests admitted back-to-back
/// would each see the pre-admission total and jointly overshoot.  The ledger
/// therefore supports a **reserve → commit / abort** protocol:
///
/// 1. [`try_reserve`](BudgetLedger::try_reserve) atomically checks that the
///    worst case — every already-released record, every outstanding
///    reservation, and the new request all fully released — stays within the
///    cap, and records the reservation (an uncapped release reserves its
///    target with [`reserve`](BudgetLedger::reserve), so every release in
///    flight shows in `reserved`);
/// 2. a stream converts its reservation one record at a time as records pass
///    ([`convert_reserved_release`](BudgetLedger::convert_reserved_release)),
///    so the worst case stays exact mid-stream;
/// 3. one [`commit`](BudgetLedger::commit) settles the request: it converts
///    the rest of its releases and frees any unused part (a request may
///    release fewer records than it reserved), or
///    [`abort`](BudgetLedger::abort) frees the reservation untouched (queue
///    overflow, request failure).
///
/// As long as every reservation is balanced by conversions and one final
/// commit or abort of the remainder, `reserved` returns to zero and the
/// ledger equals the sum of the released records — property-tested in this
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetLedger {
    /// Budget spent learning the model structure on D_T (paid once).
    pub structure: DpBudget,
    /// Budget spent learning the model parameters on D_P (paid once).
    pub parameters: DpBudget,
    /// Per-release budget of the mechanism (Theorem 1), if the randomized test
    /// was selected; `None` for the deterministic test.
    pub per_release: Option<DpBudget>,
    /// Total records released across all requests so far.
    pub releases: usize,
    /// Number of requests (batch or stream) served so far.
    pub requests: usize,
    /// Records reserved by admitted-but-unfinished requests (see the
    /// two-phase admission protocol in the type docs).
    pub reserved: usize,
}

impl BudgetLedger {
    /// A fresh ledger: training budgets paid, nothing released yet.
    pub fn new(structure: DpBudget, parameters: DpBudget, per_release: Option<DpBudget>) -> Self {
        BudgetLedger {
            structure,
            parameters,
            per_release,
            releases: 0,
            requests: 0,
            reserved: 0,
        }
    }

    /// Atomically reserve budget for up to `records` releases under `cap`.
    ///
    /// Admission rule: the worst-case total — committed releases, outstanding
    /// reservations, and this request all fully released, combined with the
    /// model budget — must not exceed the cap in either ε or δ.  Callers hold
    /// the session's ledger lock for the duration of the call, so concurrent
    /// requests can never jointly overshoot the cap.
    ///
    /// A successful reservation must later be balanced by exactly one
    /// [`commit`](BudgetLedger::commit) or [`abort`](BudgetLedger::abort).
    pub fn try_reserve(&mut self, records: usize, cap: DpBudget) -> Result<()> {
        let worst = self.releases.saturating_add(self.reserved);
        let requested = self.total_for_releases(worst.saturating_add(records));
        if requested.epsilon > cap.epsilon || requested.delta > cap.delta {
            return Err(CoreError::BudgetCapExceeded { requested, cap });
        }
        self.reserve(records);
        Ok(())
    }

    /// Reserve `records` releases without a cap check (an uncapped release),
    /// settled like any [`try_reserve`](BudgetLedger::try_reserve).  The
    /// count saturates: an uncapped session admits any target, and a huge
    /// one must not overflow the ledger every other request shares.
    pub fn reserve(&mut self, records: usize) {
        self.reserved = self.reserved.saturating_add(records);
    }

    /// The end-to-end (ε, δ) this session would carry if its cumulative
    /// releases were exactly `releases` records (model budget combined with
    /// the sequential release composition).  This is the single formula both
    /// sides of admission use: [`try_reserve`](BudgetLedger::try_reserve)
    /// checks it against the cap, and cap-sizing helpers derive caps from it.
    pub fn total_for_releases(&self, releases: usize) -> DpBudget {
        self.model_budget()
            .max(compose_releases(self.per_release, releases))
    }

    /// Convert one reserved record into an actual release — called as each
    /// streamed record passes, so `releases + reserved` (and hence the worst
    /// case checked by admission) stays exact for the whole stream.
    pub fn convert_reserved_release(&mut self) {
        debug_assert!(self.reserved > 0, "converting with nothing reserved");
        self.reserved = self.reserved.saturating_sub(1);
        self.releases += 1;
    }

    /// Settle a request that still holds `reserved` reserved records, of
    /// which `released` were released (and not yet converted): the unused
    /// part of the reservation is freed, the releases are charged, and the
    /// request is counted.
    pub fn commit(&mut self, reserved: usize, released: usize) {
        debug_assert!(
            reserved <= self.reserved,
            "committing more than was reserved ({reserved} > {})",
            self.reserved
        );
        debug_assert!(
            released <= reserved,
            "released past the reservation ({released} > {reserved})"
        );
        self.reserved = self.reserved.saturating_sub(reserved);
        self.record_request(released);
    }

    /// Free a reservation without charging anything (failed or rejected
    /// request).
    pub fn abort(&mut self, records: usize) {
        debug_assert!(
            records <= self.reserved,
            "aborting more than was reserved ({records} > {})",
            self.reserved
        );
        self.reserved = self.reserved.saturating_sub(records);
    }

    /// Worst-case end-to-end (ε, δ) if every outstanding reservation were
    /// fully released — the quantity [`try_reserve`](BudgetLedger::try_reserve)
    /// compares against the cap.
    pub fn reserved_total(&self) -> DpBudget {
        self.total_for_releases(self.releases.saturating_add(self.reserved))
    }

    /// Charge one completed request that released `released` records.
    pub fn record_request(&mut self, released: usize) {
        self.requests += 1;
        self.releases += released;
    }

    /// Budget of the generative model alone (disjoint subsets ⇒ maximum).
    pub fn model_budget(&self) -> DpBudget {
        self.structure.max(self.parameters)
    }

    /// Sequential composition of every release charged so far; infinite ε if
    /// the deterministic test (no per-release guarantee) was used and anything
    /// was released.
    pub fn cumulative_release(&self) -> DpBudget {
        compose_releases(self.per_release, self.releases)
    }

    /// End-to-end (ε, δ) of everything the session has done: released records
    /// compose sequentially among themselves, then combine with the model
    /// budget by the disjoint-datasets maximum.
    pub fn total(&self) -> DpBudget {
        self.model_budget().max(self.cumulative_release())
    }

    /// Write the ledger into `out` as one canonical JSON object (keys
    /// sorted), for service and bench reporting.
    pub fn write_json(&self, out: &mut String) {
        let (model, total, reserved) = (self.model_budget(), self.total(), self.reserved_total());
        write_object(out, |object| {
            object
                .float("model_delta", model.delta)
                .float("model_epsilon", model.epsilon)
                .opt_float("per_release_delta", self.per_release.map(|b| b.delta))
                .opt_float("per_release_epsilon", self.per_release.map(|b| b.epsilon))
                .int("releases", self.releases)
                .int("requests", self.requests)
                .int("reserved", self.reserved)
                .float("reserved_delta", reserved.delta)
                .float("reserved_epsilon", reserved.epsilon)
                .float("total_delta", total.delta)
                .float("total_epsilon", total.epsilon);
        });
    }

    /// Render the ledger as canonical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(320);
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_1_formulas() {
        let b = ReleaseBudget::at(50, 4.0, 1.0, 10).unwrap();
        assert!((b.budget.epsilon - (1.0 + (1.0 + 0.4f64).ln())).abs() < 1e-12);
        assert!((b.budget.delta - (-40.0f64).exp()).abs() < 1e-24);
    }

    #[test]
    fn epsilon_decreases_with_t_delta_increases() {
        let low_t = ReleaseBudget::at(50, 4.0, 1.0, 1).unwrap();
        let high_t = ReleaseBudget::at(50, 4.0, 1.0, 40).unwrap();
        assert!(high_t.budget.epsilon < low_t.budget.epsilon);
        assert!(high_t.budget.delta > low_t.budget.delta);
    }

    #[test]
    fn optimize_respects_delta_ceiling() {
        let best = ReleaseBudget::optimize(50, 4.0, 1.0, 1e-9)
            .unwrap()
            .unwrap();
        assert!(best.budget.delta <= 1e-9);
        // Any larger t admissible under the ceiling cannot do better.
        for t in 1..50 {
            let c = ReleaseBudget::at(50, 4.0, 1.0, t).unwrap();
            if c.budget.delta <= 1e-9 {
                assert!(best.budget.epsilon <= c.budget.epsilon + 1e-12);
            }
        }
        // An impossible ceiling yields no bound.
        assert!(ReleaseBudget::optimize(3, 4.0, 0.01, 1e-12)
            .unwrap()
            .is_none());
    }

    #[test]
    fn minimum_k_matches_paper_guidance() {
        // δ ≤ 2^-30 with ε0 = 1 and t = 10 needs k ≥ 10 + ln(2^30) ≈ 10 + 20.79.
        let k = ReleaseBudget::minimum_k(10, 1.0, 2f64.powi(-30)).unwrap();
        assert_eq!(k, 31);
        let b = ReleaseBudget::at(k, 4.0, 1.0, 10).unwrap();
        assert!(b.budget.delta <= 2f64.powi(-30));
        assert!(ReleaseBudget::minimum_k(10, 0.0, 1e-9).is_err());
        assert!(ReleaseBudget::minimum_k(10, 1.0, 2.0).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReleaseBudget::at(0, 4.0, 1.0, 1).is_err());
        assert!(ReleaseBudget::at(10, 1.0, 1.0, 1).is_err());
        assert!(ReleaseBudget::at(10, 4.0, 0.0, 1).is_err());
        assert!(ReleaseBudget::at(10, 4.0, 1.0, 0).is_err());
        assert!(ReleaseBudget::at(10, 4.0, 1.0, 10).is_err());
        assert!(ReleaseBudget::optimize(1, 4.0, 1.0, 1e-9).is_err());
    }

    #[test]
    fn pipeline_budget_combines_disjoint_and_sequential_parts() {
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let model = (DpBudget::new(0.8, 1e-9), DpBudget::new(0.6, 1e-9));
        let mut ledger = BudgetLedger::new(model.0, model.1, Some(per_release));
        ledger.record_request(3);
        // Structure and parameters are learned on disjoint subsets: the model
        // costs their maximum, and the releases compose on top of it.
        assert_eq!(ledger.model_budget().epsilon, 0.8);
        let total = ledger.total();
        assert!((total.epsilon - 3.0 * per_release.epsilon).abs() < 1e-12);
        // Deterministic test: releases carry no DP guarantee.
        let mut det = BudgetLedger::new(model.0, model.1, None);
        det.record_request(3);
        assert!(det.total().epsilon.is_infinite());
    }

    #[test]
    fn ledger_composes_releases_across_requests() {
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let mut ledger = BudgetLedger::new(
            DpBudget::new(0.8, 1e-9),
            DpBudget::new(0.6, 1e-9),
            Some(per_release),
        );
        assert_eq!(ledger.cumulative_release(), DpBudget::pure(0.0));
        ledger.record_request(3);
        ledger.record_request(2);
        ledger.reserve(1);
        ledger.convert_reserved_release();
        assert_eq!(ledger.requests, 2);
        assert_eq!(ledger.releases, 6);
        let cumulative = ledger.cumulative_release();
        assert!((cumulative.epsilon - 6.0 * per_release.epsilon).abs() < 1e-12);
        // Releases compose on top of the disjoint-subset model budget.
        assert_eq!(ledger.total(), cumulative.max(DpBudget::new(0.8, 1e-9)));
        // Deterministic test: any release makes the cumulative bound vacuous.
        let mut det = BudgetLedger::new(DpBudget::new(0.8, 1e-9), DpBudget::new(0.6, 1e-9), None);
        assert_eq!(det.total().epsilon, 0.8);
        det.record_request(1);
        assert!(det.total().epsilon.is_infinite());
        assert!(det.to_json().contains("\"per_release_epsilon\":null"));
    }

    fn capped_ledger(per_release: DpBudget) -> BudgetLedger {
        BudgetLedger::new(
            DpBudget::new(0.8, 1e-9),
            DpBudget::new(0.6, 1e-9),
            Some(per_release),
        )
    }

    /// Smallest cap admitting exactly `releases` records from `ledger` (a hair
    /// of multiplicative slack over the same formula admission checks).
    fn cap_for(ledger: &BudgetLedger, releases: usize) -> DpBudget {
        let total = ledger.total_for_releases(releases);
        DpBudget::new(total.epsilon * (1.0 + 1e-9), total.delta * (1.0 + 1e-9))
    }

    #[test]
    fn reserve_commit_abort_round_trip() {
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let mut ledger = capped_ledger(per_release);
        let cap = cap_for(&ledger, 10);

        // Reserve 6 + 4 = the full cap; a third reservation must be refused.
        ledger.try_reserve(6, cap).unwrap();
        ledger.try_reserve(4, cap).unwrap();
        assert_eq!(ledger.reserved, 10);
        let err = ledger.try_reserve(1, cap).unwrap_err();
        assert!(matches!(err, CoreError::BudgetCapExceeded { .. }));
        if let CoreError::BudgetCapExceeded { requested, cap: c } = err {
            assert!(requested.epsilon > c.epsilon || requested.delta > c.delta);
        }

        // Commit the first (releasing fewer than reserved frees the rest),
        // abort the second: the freed budget is admissible again.
        ledger.commit(6, 5);
        assert_eq!(ledger.reserved, 4);
        assert_eq!(ledger.releases, 5);
        assert_eq!(ledger.requests, 1);
        ledger.abort(4);
        assert_eq!(ledger.reserved, 0);
        ledger.try_reserve(5, cap).unwrap();
        ledger.commit(5, 5);
        assert_eq!(ledger.releases, 10);
        // The cap is now exactly consumed by committed releases.
        assert!(ledger.try_reserve(1, cap).is_err());
        assert_eq!(ledger.reserved_total(), ledger.total());
        let json = ledger.to_json();
        assert!(json.contains("\"reserved\":0"));
        assert!(json.contains("\"reserved_epsilon\":"));
    }

    #[test]
    fn reservations_count_against_the_cap_before_commit() {
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let mut ledger = capped_ledger(per_release);
        let cap = cap_for(&ledger, 4);
        ledger.try_reserve(4, cap).unwrap();
        // Nothing committed yet, but the worst case is already at the cap.
        assert_eq!(ledger.releases, 0);
        assert!(ledger.try_reserve(1, cap).is_err());
        assert!(ledger.reserved_total().epsilon > ledger.total().epsilon);
    }

    #[test]
    fn huge_uncapped_reservations_saturate_instead_of_overflowing() {
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let mut ledger = capped_ledger(per_release);
        ledger.reserve(3);
        ledger.convert_reserved_release();
        ledger.reserve(usize::MAX);
        assert_eq!(ledger.reserved, usize::MAX);
        // The worst case and admission stay computable (no overflow panic).
        assert!(ledger.reserved_total().epsilon > ledger.total().epsilon);
        assert!(ledger.try_reserve(1, cap_for(&ledger, 10)).is_err());
        assert!(ledger.to_json().contains("\"releases\":1"));
    }

    #[test]
    fn deterministic_test_admits_nothing_under_a_finite_cap() {
        let mut ledger =
            BudgetLedger::new(DpBudget::new(0.8, 1e-9), DpBudget::new(0.6, 1e-9), None);
        // No per-release guarantee: one release makes ε infinite, so any
        // finite cap refuses the very first reservation.
        assert!(ledger.try_reserve(1, DpBudget::new(1e9, 1.0)).is_err());
        // An infinite cap (no capping) still admits.
        ledger
            .try_reserve(1, DpBudget::new(f64::INFINITY, 1.0))
            .unwrap();
        ledger.commit(1, 1);
        assert!(ledger.total().epsilon.is_infinite());
    }

    #[test]
    fn concurrent_reservations_admit_exactly_the_cap() {
        use std::sync::{Arc, Mutex};
        let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
        let ledger = capped_ledger(per_release);
        let cap = cap_for(&ledger, 3 * 5);
        let shared = Arc::new(Mutex::new(ledger));
        // 16 threads race to reserve 5 records each under a cap of 15:
        // exactly 3 may win, no matter the interleaving.
        let admitted: usize = std::thread::scope(|scope| {
            (0..16)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        let ok = shared.lock().unwrap().try_reserve(5, cap).is_ok();
                        if ok {
                            shared.lock().unwrap().commit(5, 5);
                        }
                        usize::from(ok)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(admitted, 3);
        let final_ledger = *shared.lock().unwrap();
        assert_eq!(final_ledger.releases, 15);
        assert_eq!(final_ledger.reserved, 0);
        assert!(final_ledger.total().epsilon <= cap.epsilon);
    }

    mod reservation_properties {
        use super::*;
        use proptest::prelude::*;

        /// One step of an arbitrary reserve/commit/abort interleaving:
        /// `action` picks the operation, `a`/`b` parameterize it.  Returns
        /// how many records the step released (committed or converted).
        fn apply(
            ledger: &mut BudgetLedger,
            outstanding: &mut Vec<usize>,
            cap: DpBudget,
            action: u8,
            a: usize,
            b: usize,
        ) -> usize {
            if action == 0 {
                // Reserve `a` records (may be refused by the cap).
                if ledger.try_reserve(a, cap).is_ok() {
                    outstanding.push(a);
                }
                0
            } else if outstanding.is_empty() {
                0
            } else if action == 3 {
                // Stream one record out of an outstanding reservation.
                let i = a % outstanding.len();
                if outstanding[i] == 0 {
                    return 0;
                }
                outstanding[i] -= 1;
                ledger.convert_reserved_release();
                1
            } else {
                let r = outstanding.remove(a % outstanding.len());
                if action == 1 {
                    // Commit it, releasing `b mod (r+1)` of its records.
                    let released = b % (r + 1);
                    ledger.commit(r, released);
                    released
                } else {
                    // Abort it.
                    ledger.abort(r);
                    0
                }
            }
        }

        proptest! {
            /// Any interleaving of reserve→commit, reserve→abort, and
            /// streaming conversions leaves the ledger equal to the sum of
            /// the released records: no leaked reservations, no lost
            /// releases, and the worst case never exceeds the cap at any
            /// step.
            #[test]
            fn interleavings_never_leak_reservations(
                ops in proptest::collection::vec((0u8..4, 0usize..9, 0usize..9), 1..60),
                cap_releases in 1usize..40,
            ) {
                let per_release = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap().budget;
                let mut ledger = capped_ledger(per_release);
                let cap = cap_for(&ledger, cap_releases);
                let mut outstanding: Vec<usize> = Vec::new();
                let mut released = 0usize;
                for (action, a, b) in ops {
                    released += apply(&mut ledger, &mut outstanding, cap, action, a, b);
                    // Invariants hold after every step, not just at the end.
                    prop_assert_eq!(ledger.reserved, outstanding.iter().sum::<usize>());
                    prop_assert_eq!(ledger.releases, released);
                    prop_assert!(ledger.reserved_total().epsilon <= cap.epsilon);
                    prop_assert!(ledger.reserved_total().delta <= cap.delta);
                }
                // Settle everything still outstanding: the ledger must return
                // to exactly the released sum with zero reservations.
                for r in outstanding.drain(..) {
                    ledger.abort(r);
                }
                prop_assert_eq!(ledger.reserved, 0);
                prop_assert_eq!(ledger.releases, released);
                let expected = compose_releases(ledger.per_release, released);
                prop_assert!((ledger.cumulative_release().epsilon - expected.epsilon).abs() < 1e-9);
                prop_assert_eq!(ledger.total(), ledger.reserved_total());
            }
        }
    }

    #[test]
    fn accounting_casts_are_checked() {
        // count_to_f64: exact in the representable range, conservative
        // (infinite cost, never an undercount) past it.
        assert_eq!(count_to_f64(0), 0.0);
        assert_eq!(count_to_f64(12345), 12345.0);
        assert_eq!(count_to_f64(MAX_EXACT_COUNT as usize), 9007199254740992.0);
        assert!(count_to_f64(MAX_EXACT_COUNT as usize + 1).is_infinite());
        // ceil_to_usize: well-defined on finite non-negative input, an error
        // (not a silent saturation) otherwise.
        assert_eq!(ceil_to_usize(2.1).unwrap(), 3);
        assert_eq!(ceil_to_usize(0.0).unwrap(), 0);
        assert_eq!(ceil_to_usize(-0.3).unwrap(), 0);
        assert!(ceil_to_usize(f64::NAN).is_err());
        assert!(ceil_to_usize(f64::INFINITY).is_err());
        assert!(ceil_to_usize(-1.5).is_err());
        assert!(ceil_to_usize(1e300).is_err());
    }

    #[test]
    fn for_releases_scales_linearly() {
        let b = ReleaseBudget::at(50, 4.0, 1.0, 20).unwrap();
        let ten = compose_releases(Some(b.budget), 10);
        assert!((ten.epsilon - 10.0 * b.budget.epsilon).abs() < 1e-9);
        assert!((ten.delta - 10.0 * b.budget.delta).abs() < 1e-20);
    }
}
