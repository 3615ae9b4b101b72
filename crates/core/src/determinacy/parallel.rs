//! Parallel exhaustive determinacy checking.
//!
//! The semantic checker's work — enumerate every instance, apply the
//! views, evaluate the query — is embarrassingly parallel once the
//! enumeration is random-access ([`vqd_instance::gen::instance_at`]).
//! Shards scan disjoint index ranges building local `image → answer`
//! maps on the engine's [`ExecPool`](vqd_exec::ExecPool); a merge pass
//! compares overlapping images across shards.
//!
//! All shards draw down the context's shared
//! [`Budget`](vqd_budget::Budget): a found counterexample
//! short-circuits the scan through the budget's
//! [`CancelToken`](vqd_budget::CancelToken) (the same token an external
//! caller can trip to abort the whole check), and a budget trip in any
//! shard surfaces as a single [`SemanticVerdict::Exhausted`] after all
//! shards have parked cleanly — no shard is ever detached or killed.
//!
//! This is the "many cores vs. exponential wall" ablation for figure F4:
//! parallelism buys a constant factor against a `2^(n^k)` space — the
//! paper's decision procedures remain the only real way out.

use crate::determinacy::semantic::{check_exhaustive_budgeted, Counterexample, SemanticVerdict};
use std::collections::HashMap;
use std::sync::Mutex;
use vqd_budget::{ExhaustReason, Exhausted, VqdError};
use vqd_eval::{apply_views, eval_query};
use vqd_exec::{ExecCtx, ExecInput};
use vqd_instance::gen::{instance_at, space_size};
use vqd_instance::{Instance, Relation};
use vqd_query::{QueryExpr, ViewSet};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Shards contain no panicking paths, but governance demands that even
/// an unexpected one cannot poison the verdict channel.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Exhaustive semantic determinacy check under an execution context —
/// the canonical entry point behind
/// [`check_exhaustive`](crate::determinacy::semantic::check_exhaustive)
/// and [`check_exhaustive_budgeted`].
///
/// A sequential context (a bare [`Budget`](vqd_budget::Budget)
/// qualifies) runs the historical single-threaded scan, checkpoint for
/// checkpoint. A parallel [`ExecCtx`] splits the instance space into
/// `cx.parallelism()` contiguous ranges and scans them on the engine
/// pool; a definitive counterexample always wins over exhaustion — if
/// one shard refutes determinacy while another trips the budget, the
/// verdict is `NotDetermined`.
pub fn check_exhaustive_ctx(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    limit: u128,
    cx: &impl ExecInput,
) -> Result<SemanticVerdict, VqdError> {
    match cx.exec() {
        Some(ec) if ec.is_parallel() => scan_sharded(views, q, n, limit, ec),
        _ => check_exhaustive_budgeted(views, q, n, limit, cx.budget()),
    }
}

/// The parallel scan body: disjoint contiguous index ranges, local
/// image maps, shared budget, merge pass at the end.
fn scan_sharded(
    views: &ViewSet,
    q: &QueryExpr,
    n: usize,
    limit: u128,
    ec: &ExecCtx,
) -> Result<SemanticVerdict, VqdError> {
    let schema = views.input_schema();
    if q.schema() != schema {
        return Err(VqdError::SchemaMismatch {
            context: "check_exhaustive_ctx",
            expected: format!("{schema:?}"),
            found: format!("{:?}", q.schema()),
        });
    }
    let total = match space_size(schema, n) {
        Some(s) if s <= limit => s,
        space => return Ok(SemanticVerdict::TooLarge { domain: n, space }),
    };
    let found: Mutex<Option<Counterexample>> = Mutex::new(None);
    let tripped: Mutex<Option<Exhausted>> = Mutex::new(None);
    let budget = ec.budget();
    let cancel = budget.cancel_token();

    let shards = ec.parallelism();
    let chunk = total.div_ceil(shards as u128);
    // Shards never surface errors through `run_shards`: a trip or a find
    // is recorded in the shared slots (first trip wins; a cancellation
    // *caused by* a sibling's find or trip is not itself news) and the
    // siblings are cancelled, so every shard's local map survives for
    // the merge pass and a counterexample can outrank an exhaustion.
    let maps = ec.run_shards(shards, |t| -> Result<_, Exhausted> {
        let lo = chunk * t as u128;
        let hi = total.min(lo + chunk);
        let mut local: HashMap<Instance, (Instance, Relation)> = HashMap::new();
        let mut i = lo;
        while i < hi {
            if let Err(e) = budget.checkpoint_with(&format_args!(
                "shard {t} scanned up to index {i} of [{lo}, {hi}) \
                 over domain {n}, no counterexample"
            )) {
                let mut slot = lock_unpoisoned(&tripped);
                if slot.is_none() {
                    *slot = Some(e);
                }
                cancel.cancel();
                break;
            }
            let d = instance_at(schema, n, i);
            // One index per candidate instance, shared by V and Q.
            let idx = vqd_instance::IndexedInstance::new(d);
            let image = apply_views(views, &idx);
            let out = eval_query(q, &idx);
            let d = idx.into_instance();
            match local.get(&image) {
                None => {
                    local.insert(image, (d, out));
                }
                Some((d1, q1)) => {
                    if *q1 != out {
                        let mut slot = lock_unpoisoned(&found);
                        if slot.is_none() {
                            *slot = Some(Counterexample {
                                d1: d1.clone(),
                                d2: d,
                                image,
                                q1: q1.clone(),
                                q2: out,
                            });
                        }
                        cancel.cancel();
                        break;
                    }
                }
            }
            i += 1;
        }
        Ok(local)
    })?;

    if let Some(c) = found.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Ok(SemanticVerdict::NotDetermined(Box::new(c)));
    }
    if let Some(e) = tripped.into_inner().unwrap_or_else(|p| p.into_inner()) {
        // Cancellation observed only because a sibling found/tripped is
        // filtered above; a surviving `Canceled` here is a genuine
        // external cancel, which is still an exhaustion to the caller.
        debug_assert!(matches!(
            e.reason,
            ExhaustReason::Deadline
                | ExhaustReason::StepLimit
                | ExhaustReason::TupleLimit
                | ExhaustReason::FaultInjected
                | ExhaustReason::Canceled
        ));
        return Ok(SemanticVerdict::Exhausted(Box::new(e)));
    }
    // Merge pass: images seen by several shards must agree.
    let mut merged: HashMap<Instance, (Instance, Relation)> = HashMap::new();
    for local in maps {
        for (image, (d, out)) in local {
            match merged.get(&image) {
                None => {
                    merged.insert(image, (d, out));
                }
                Some((d1, q1)) => {
                    if *q1 != out {
                        return Ok(SemanticVerdict::NotDetermined(Box::new(Counterexample {
                            d1: d1.clone(),
                            d2: d,
                            image,
                            q1: q1.clone(),
                            q2: out,
                        })));
                    }
                }
            }
        }
    }
    Ok(SemanticVerdict::NoCounterexampleUpTo(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinacy::semantic::{check_exhaustive, verify_counterexample};
    use vqd_budget::Budget;
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_program, parse_query};

    fn width(threads: usize, budget: &Budget) -> ExecCtx {
        ExecCtx::with_parallelism(budget.clone(), threads)
    }

    fn setup(view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
        let s = Schema::new([("E", 2)]);
        let mut names = DomainNames::new();
        let prog = parse_program(&s, &mut names, view_src).unwrap();
        let views = ViewSet::new(&s, prog.defs);
        let q = parse_query(&s, &mut names, q_src).unwrap();
        (views, q)
    }

    #[test]
    fn parallel_agrees_with_sequential_positive() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        for threads in [1, 2, 4] {
            let cx = width(threads, &Budget::unlimited());
            match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).unwrap() {
                SemanticVerdict::NoCounterexampleUpTo(3) => {}
                other => panic!("threads={threads}: {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_negative() {
        let (v, q) = setup(
            "V(x,y) :- E(x,z), E(z,y).",
            "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
        );
        let seq = check_exhaustive(&v, &q, 3, 1 << 26);
        assert!(seq.is_refuted());
        for threads in [1, 2, 4] {
            let cx = width(threads, &Budget::unlimited());
            match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).unwrap() {
                SemanticVerdict::NotDetermined(c) => {
                    assert!(verify_counterexample(&v, &q, &c));
                }
                other => panic!("threads={threads}: {other:?}"),
            }
        }
    }

    #[test]
    fn ctx_entry_point_spans_sequential_and_parallel() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        for parallelism in [1, 3] {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), parallelism);
            match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).unwrap() {
                SemanticVerdict::NoCounterexampleUpTo(3) => {}
                other => panic!("parallelism={parallelism}: {other:?}"),
            }
        }
        // A bare budget is a sequential context.
        match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &Budget::unlimited()).unwrap() {
            SemanticVerdict::NoCounterexampleUpTo(3) => {}
            other => panic!("bare budget: {other:?}"),
        }
    }

    #[test]
    fn parallel_respects_space_limit() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        assert!(matches!(
            check_exhaustive_ctx(&v, &q, 5, 100, &width(2, &Budget::unlimited())).unwrap(),
            SemanticVerdict::TooLarge { .. }
        ));
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_panic() {
        let (v, _) = setup("V(x,y) :- E(x,y).", "Q(x,y) :- E(x,y).");
        let other_schema = Schema::new([("P", 1)]);
        let mut names = DomainNames::new();
        let q = parse_query(&other_schema, &mut names, "Q(x) :- P(x).").unwrap();
        match check_exhaustive_ctx(&v, &q, 2, 1 << 20, &width(2, &Budget::unlimited())) {
            Err(VqdError::SchemaMismatch { context, .. }) => {
                assert_eq!(context, "check_exhaustive_ctx");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn budget_trip_yields_exhausted_with_progress() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let budget = Budget::unlimited().with_step_limit(10);
        match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &width(2, &budget)).unwrap() {
            SemanticVerdict::Exhausted(e) => {
                assert_eq!(e.reason, ExhaustReason::StepLimit);
                assert!(e.work_done.steps > 0);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // Retrying with a sufficient budget completes.
        let big = Budget::unlimited().with_step_limit(1 << 20);
        match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &width(2, &big)).unwrap() {
            SemanticVerdict::NoCounterexampleUpTo(3) => {}
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn external_cancel_stops_the_scan() {
        let (v, q) = setup("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &width(2, &budget)).unwrap() {
            SemanticVerdict::Exhausted(e) => {
                assert_eq!(e.reason, ExhaustReason::Canceled);
            }
            other => panic!("expected Exhausted(Canceled), got {other:?}"),
        }
    }
}
