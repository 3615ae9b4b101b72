//! Integration suite for intra-request parallel evaluation: the
//! `ExecCtx` engine API, the work-sharing executor behind it, and the
//! additive wire surface that exposes it.
//!
//! Covers, end to end:
//!
//! * **Determinism** — certain answers, CQ evaluation on a seeded
//!   random corpus, and the semantic counterexample scan are
//!   byte-identical between a sequential context and every parallel
//!   width, including how exhaustion surfaces;
//! * **Unification** — a bare `&Budget`, `ExecCtx::sequential`, and a
//!   parallelism-1 context all produce the same bytes;
//! * **Governance** — a fault-injection sweep trips the shared budget
//!   at sampled checkpoints under parallel contexts: no panic, a
//!   structured `Exhausted` with exact (certain) or tightly bounded
//!   (sharded scan) step accounting, and a retry with headroom
//!   reproduces the sequential baseline;
//! * **Observability** — engine counters absorbed from foreign shards
//!   keep the parallel profile exactly equal to the sequential twin
//!   (modulo the per-shard root-exhaustion bookkeeping the sharded
//!   hom search documents), and budget checkpoints stay exact;
//! * **Wire** — a server spawned with `engine_threads` clamps the
//!   envelope's requested `parallelism` and reports honest
//!   `threads_used` in the work envelope, with outcomes identical to
//!   a sequential request; a shard cancelling its siblings never drains
//!   the server, while a server shutdown still cancels parallel work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd::budget::{Budget, ExhaustReason, VqdError};
use vqd::chase::CqViews;
use vqd::core::certain::certain_sound_ctx;
use vqd::core::determinacy::{
    check_exhaustive_budgeted, check_exhaustive_ctx, verify_counterexample, SemanticVerdict,
};
use vqd::eval::{apply_views, eval_cq_ctx};
use vqd::exec::ExecCtx;
use vqd::instance::{named, DomainNames, Instance, Relation, Schema};
use vqd::obs::{Metric, MetricsSnapshot};
use vqd::query::{parse_program, parse_query, Cq, QueryExpr, ViewSet};
use vqd::server::{self, Client, Envelope, Limits, Outcome, Request, ServerCaps, ServerConfig};
use vqd_bench::genq::{path_query, path_views, random_cq, CqGen};

/// Parallel widths every determinism assertion is swept over.
const WIDTHS: [usize; 4] = [2, 3, 4, 8];

/// Cap on distinct trip points per fault sweep (strided sampling).
const MAX_TRIP_POINTS: u64 = 12;

fn schema() -> Schema {
    Schema::new([("E", 2), ("P", 1)])
}

fn chain(s: &Schema, n: u32) -> Instance {
    let mut d = Instance::empty(s);
    for i in 0..n {
        d.insert_named("E", vec![named(i), named(i + 1)]);
    }
    d
}

fn random_graph(s: &Schema, n: u32, edges: usize, rng: &mut StdRng) -> Instance {
    let mut d = Instance::empty(s);
    for _ in 0..edges {
        d.insert_named("E", vec![named(rng.gen_range(0..n)), named(rng.gen_range(0..n))]);
    }
    for v in 0..n {
        if rng.gen_bool(0.5) {
            d.insert_named("P", vec![named(v)]);
        }
    }
    d
}

/// The certain-answer workhorse: 2-path views over a chain, 3-path
/// query — chases to a canonical database with nulls, so the final
/// evaluation (the part that fans out) does real backtracking work.
fn certain_workload(s: &Schema, m: u32) -> (CqViews, Cq, Instance) {
    let views = path_views(s, 2);
    let extent = apply_views(views.as_view_set(), &chain(s, 2 * m));
    (views, path_query(s, 3), extent)
}

fn semantic_workload(view_src: &str, q_src: &str) -> (ViewSet, QueryExpr) {
    let s = Schema::new([("E", 2)]);
    let mut names = DomainNames::new();
    let prog = parse_program(&s, &mut names, view_src).expect("views parse");
    let views = ViewSet::new(&s, prog.defs);
    let q = parse_query(&s, &mut names, q_src).expect("query parse");
    (views, q)
}

/// Checkpoint indices `1..=total`, strided down to at most
/// [`MAX_TRIP_POINTS`] samples.
fn trip_points(total: u64) -> impl Iterator<Item = u64> {
    let stride = total.div_ceil(MAX_TRIP_POINTS).max(1);
    (1..=total).step_by(stride as usize)
}

/// Engine-counter delta of `f`, as observed by the calling thread —
/// which is exactly what a request profile is.
fn engine_delta(f: impl FnOnce()) -> MetricsSnapshot {
    let before = MetricsSnapshot::capture();
    f();
    MetricsSnapshot::capture().diff(&before)
}

// ---------------------------------------------------------------------
// Determinism: parallel ≡ sequential, byte for byte.
// ---------------------------------------------------------------------

#[test]
fn parallel_certain_answers_are_byte_identical_to_sequential() {
    let s = schema();
    for m in [5u32, 13] {
        let (views, q, extent) = certain_workload(&s, m);
        let seq = certain_sound_ctx(&views, &q, &extent, &Budget::unlimited())
            .expect("sequential certain");
        for p in WIDTHS {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
            let par = certain_sound_ctx(&views, &q, &extent, &cx)
                .expect("parallel certain");
            assert_eq!(par, seq, "m={m} parallelism={p}");
            assert_eq!(
                cx.threads_used(),
                p as u64,
                "m={m}: the final evaluation must fan out at width {p}"
            );
        }
    }
}

#[test]
fn parallel_eval_agrees_on_a_random_corpus() {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(11);
    for case in 0..25 {
        let d = random_graph(&s, 6, 14, &mut rng);
        let q = random_cq(&s, CqGen { atoms: 3, vars: 4, max_head: 2 }, &mut rng);
        let seq = eval_cq_ctx(&q, &d, &Budget::unlimited()).expect("sequential eval");
        for p in WIDTHS {
            let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
            let par = eval_cq_ctx(&q, &d, &cx).expect("parallel eval");
            assert_eq!(par, seq, "case {case} parallelism={p}");
        }
    }
}

#[test]
fn parallel_semantic_scan_agrees_with_sequential() {
    // Positive: the identity view determines everything — every width
    // must scan the whole space and agree.
    let (v, q) = semantic_workload("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    let seq = check_exhaustive_budgeted(&v, &q, 3, 1 << 26, &Budget::unlimited())
        .expect("sequential scan");
    assert!(matches!(seq, SemanticVerdict::NoCounterexampleUpTo(3)));
    for p in WIDTHS {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
        let par = check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).expect("parallel scan");
        assert!(
            matches!(par, SemanticVerdict::NoCounterexampleUpTo(3)),
            "parallelism={p}: {par:?}"
        );
    }
    // Negative: determinacy fails. Which witness a shard reaches first
    // is scheduling-dependent; what is contractual is the verdict and
    // that the witness actually refutes determinacy.
    let (v, q) = semantic_workload(
        "V(x,y) :- E(x,z), E(z,y).",
        "Q(x,y) :- E(x,a), E(a,b), E(b,y).",
    );
    let seq = check_exhaustive_budgeted(&v, &q, 3, 1 << 26, &Budget::unlimited())
        .expect("sequential scan");
    assert!(matches!(seq, SemanticVerdict::NotDetermined(_)));
    for p in WIDTHS {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
        match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).expect("parallel scan") {
            SemanticVerdict::NotDetermined(c) => {
                assert!(verify_counterexample(&v, &q, &c), "parallelism={p}");
            }
            other => panic!("parallelism={p}: expected a counterexample, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Unification: one API, many spellings, same bytes.
// ---------------------------------------------------------------------

#[test]
fn sequential_spellings_agree() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 7);
    let bare = certain_sound_ctx(&views, &q, &extent, &Budget::unlimited()).unwrap();
    let seq_cx = certain_sound_ctx(
        &views,
        &q,
        &extent,
        &ExecCtx::sequential(Budget::unlimited()),
    )
    .unwrap();
    assert_eq!(seq_cx, bare, "ExecCtx::sequential must equal a bare budget");
    // A parallelism-1 context never fans out and reports that honestly.
    let one = ExecCtx::with_parallelism(Budget::unlimited(), 1);
    assert_eq!(certain_sound_ctx(&views, &q, &extent, &one).unwrap(), bare);
    assert_eq!(one.threads_used(), 0, "width 1 is sequential: no fan-out");
}

// ---------------------------------------------------------------------
// Governance: the shared budget trips cleanly under parallelism.
// ---------------------------------------------------------------------

#[test]
fn budget_trips_surface_identically_in_parallel_certain() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 9);
    let probe = Budget::unlimited();
    certain_sound_ctx(&views, &q, &extent, &probe).expect("probe run");
    let total = probe.steps();
    assert!(total > 1, "workload too small to trip mid-run");
    // Certain checkpoints live in the sequential sections (chase and
    // the null filter); the fanned-out evaluation draws no steps. So a
    // step limit must produce the *identical* structured outcome —
    // reason, exact step count, and progress message — at every width.
    let limit = total / 2;
    let trip = |cx: &dyn Fn() -> Result<Relation, VqdError>| match cx() {
        Err(VqdError::Exhausted(e)) => e,
        other => panic!("step limit {limit} must trip, got {other:?}"),
    };
    let seq_budget = Budget::unlimited().with_step_limit(limit);
    let seq = trip(&|| certain_sound_ctx(&views, &q, &extent, &seq_budget));
    assert_eq!(seq.reason, ExhaustReason::StepLimit);
    assert_eq!(seq.work_done.steps, limit);
    for p in [2usize, 4] {
        let cx = ExecCtx::with_parallelism(Budget::unlimited().with_step_limit(limit), p);
        let par = trip(&|| certain_sound_ctx(&views, &q, &extent, &cx));
        assert_eq!(par.reason, seq.reason, "parallelism={p}");
        assert_eq!(par.work_done.steps, seq.work_done.steps, "parallelism={p}");
        assert_eq!(par.partial, seq.partial, "parallelism={p}");
    }
}

#[test]
fn parallel_fault_sweep_certain() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 6);
    let probe = Budget::unlimited();
    let baseline = certain_sound_ctx(&views, &q, &extent, &probe).expect("probe run");
    let total = probe.steps();
    assert!(total > 0, "engine reached no checkpoints — it is ungoverned");
    for p in [2usize, 4] {
        for n in trip_points(total) {
            let cx = ExecCtx::with_parallelism(Budget::unlimited().trip_after(n), p);
            match certain_sound_ctx(&views, &q, &extent, &cx) {
                Err(VqdError::Exhausted(e)) => {
                    assert_eq!(
                        e.reason,
                        ExhaustReason::FaultInjected,
                        "p={p} trip {n}/{total}: wrong reason"
                    );
                    assert_eq!(
                        e.work_done.steps,
                        n - 1,
                        "p={p} trip {n}/{total}: misreported completed work"
                    );
                    assert!(!e.partial.is_empty(), "p={p} trip {n}/{total}: lost progress");
                }
                other => panic!("p={p} trip {n}/{total}: expected Exhausted, got {other:?}"),
            }
        }
        // Headroom restored: the same parallel context shape reproduces
        // the sequential baseline byte for byte.
        let retry = ExecCtx::with_parallelism(Budget::unlimited(), p);
        assert_eq!(
            certain_sound_ctx(&views, &q, &extent, &retry).expect("retry"),
            baseline,
            "p={p}: retry after faults must reproduce the baseline"
        );
    }
}

#[test]
fn parallel_fault_sweep_semantic_scan() {
    let (v, q) = semantic_workload("V(x,y) :- E(x,y).", "Q(x,z) :- E(x,y), E(y,z).");
    let probe = Budget::unlimited();
    check_exhaustive_budgeted(&v, &q, 3, 1 << 26, &probe).expect("probe scan");
    let total = probe.steps();
    assert!(total > 0, "scan reached no checkpoints — it is ungoverned");
    for p in [2usize, 4] {
        for n in trip_points(total) {
            let cx = ExecCtx::with_parallelism(Budget::unlimited().trip_after(n), p);
            // The scan reports trips as an *inconclusive verdict*, not
            // an error: partial progress is a first-class answer here.
            match check_exhaustive_ctx(&v, &q, 3, 1 << 26, &cx).expect("scan must not error") {
                SemanticVerdict::Exhausted(e) => {
                    assert_eq!(
                        e.reason,
                        ExhaustReason::FaultInjected,
                        "p={p} trip {n}/{total}: a sibling's induced cancellation \
                         must never mask the root cause"
                    );
                    // Shards checkpoint concurrently: each sibling may
                    // land one more fetch past the trip threshold before
                    // it observes the trip, so the winner's count is
                    // exact up to a slack of (width - 1).
                    assert!(
                        e.work_done.steps >= n - 1 && e.work_done.steps <= n - 1 + (p as u64 - 1),
                        "p={p} trip {n}/{total}: steps {} outside [{}, {}]",
                        e.work_done.steps,
                        n - 1,
                        n - 1 + (p as u64 - 1)
                    );
                    assert!(!e.partial.is_empty(), "p={p} trip {n}/{total}: lost progress");
                }
                other => panic!("p={p} trip {n}/{total}: expected Exhausted, got {other:?}"),
            }
        }
        let retry = ExecCtx::with_parallelism(Budget::unlimited(), p);
        let verdict = check_exhaustive_ctx(&v, &q, 3, 1 << 26, &retry).expect("retry");
        // (The retry is the same workload: a conclusive verdict proves
        // the injected faults left no poisoned state behind.)
        assert!(
            matches!(verdict, SemanticVerdict::NoCounterexampleUpTo(3)),
            "p={p}: retry after faults must reproduce the baseline, got {verdict:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Observability: foreign-shard counters are absorbed exactly.
// ---------------------------------------------------------------------

#[test]
fn parallel_profile_accounts_for_every_engine_counter() {
    let s = schema();
    let (views, q, extent) = certain_workload(&s, 8);
    let seq_budget = Budget::unlimited();
    let mut seq_out = None;
    let seq = engine_delta(|| {
        seq_out = Some(certain_sound_ctx(&views, &q, &extent, &seq_budget).unwrap());
    });
    let seq_steps = seq_budget.steps();
    // Counters whose parallel total must be *exactly* the sequential
    // one: sharding strides root candidates before any per-candidate
    // accounting, and everything else is either pre-fan-out (chase,
    // index build) or post-merge (the null filter).
    let exact = [
        Metric::ChaseRounds,
        Metric::ChaseTriggersFired,
        Metric::ChaseNullsCreated,
        Metric::HomCandidatesTried,
        Metric::HomPruneHits,
        Metric::CertainTuplesChecked,
        Metric::CertainAnswersKept,
        Metric::IndexBuilds,
        Metric::IndexDeltaTuples,
    ];
    for p in [2usize, 4] {
        let cx = ExecCtx::with_parallelism(Budget::unlimited(), p);
        let mut par_out = None;
        let par = engine_delta(|| {
            par_out = Some(certain_sound_ctx(&views, &q, &extent, &cx).unwrap());
        });
        assert_eq!(par_out, seq_out, "p={p}: answers diverged");
        for m in exact {
            assert_eq!(
                par.get(m),
                seq.get(m),
                "p={p}: {} must be exact under parallelism",
                m.name()
            );
        }
        // Each shard closes its own root candidate stride with one
        // exhaustion mark — the only counter fan-out is allowed to move.
        assert_eq!(
            par.get(Metric::HomBacktracks),
            seq.get(Metric::HomBacktracks) + (p as u64 - 1),
            "p={p}: backtracks may grow only by the per-shard root exhaustion"
        );
        // Budget checkpoints are untouched by the fan-out.
        assert_eq!(cx.budget().steps(), seq_steps, "p={p}: steps diverged");
    }
}

// ---------------------------------------------------------------------
// Wire: requested parallelism is clamped and reported.
// ---------------------------------------------------------------------

#[test]
fn server_clamps_requested_parallelism_and_reports_threads_used() {
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        caps: ServerCaps { engine_threads: 3, ..Default::default() },
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,y).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z).".to_owned(),
        extent: "V(A,B). V(B,C). V(C,D).".to_owned(),
    };
    // A plain call is sequential: no `threads_used` claim on the wire.
    let seq = client.call(Limits::none(), request.clone()).expect("sequential call");
    assert_eq!(seq.work.threads_used, 0, "sequential requests must not claim fan-out");
    // Requesting more than the server's engine pool clamps to it.
    let envelope = Envelope::new("par-1", Limits::none(), request).with_parallelism(8);
    let par = client
        .call_raw(&envelope.to_json().to_string())
        .expect("parallel call");
    assert_eq!(par.outcome, seq.outcome, "parallel reply must be byte-identical");
    assert_eq!(
        par.work.threads_used, 3,
        "requested width 8 must clamp to the server's 3 engine threads"
    );
    let _ = handle.shutdown();
}

#[test]
fn parallel_sibling_cancellation_never_reaches_the_server() {
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        caps: ServerCaps { engine_threads: 2, ..Default::default() },
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let width_2 = |id: &str, limits: Limits, request: Request| {
        Envelope::new(id, limits, request).with_parallelism(2).to_json().to_string()
    };
    // Trigger 1: a width-2 certain request that trips its step limit.
    let certain = Request::Certain {
        schema: "E/2".to_owned(),
        views: "V(x,y) :- E(x,z), E(z,y).".to_owned(),
        query: "Q(x,y) :- E(x,a), E(a,b), E(b,y).".to_owned(),
        extent: "V(A,B). V(B,C). V(C,D). V(D,E). V(E,F).".to_owned(),
    };
    let limits = Limits { step_limit: Some(3), ..Limits::none() };
    let reply = client.call_raw(&width_2("trip", limits, certain)).expect("certain call");
    assert!(
        matches!(reply.outcome, Outcome::Exhausted { .. }),
        "step limit 3 must trip, got {:?}",
        reply.outcome
    );
    assert!(client.ping().expect("ping after a tripped parallel request"));
    // Trigger 2: a width-2 scan whose shard finds a counterexample and
    // cancels its sibling.
    let scan = Request::Semantic {
        schema: "E/2".to_owned(),
        views: "V(x) :- E(x,y).".to_owned(),
        query: "Q(x,y) :- E(x,y).".to_owned(),
        domain: 3,
        space_limit: 1 << 20,
    };
    let reply = client.call_raw(&width_2("scan", Limits::none(), scan)).expect("scan call");
    match &reply.outcome {
        Outcome::SemanticOutcome { verdict, .. } => assert_eq!(verdict, "not-determined"),
        other => panic!("the scan must refute determinacy, got {other:?}"),
    }
    assert_eq!(reply.work.threads_used, 2, "the scan must fan out");
    assert!(client.ping().expect("ping after a refuting parallel scan"));
    assert!(!handle.is_shutting_down(), "a request's siblings must not drain the server");
    // Shutdown authority still reaches parallel work admitted before it:
    // a width-2 scan of 2^15 instances is cancelled, not completed.
    let slow = Request::Semantic {
        schema: "E/2,P/1,R/1".to_owned(),
        views: "V(x,y) :- E(x,y). W(x) :- P(x). U(x) :- R(x).".to_owned(),
        query: "Q(x,z) :- E(x,y), E(y,z), P(x), R(z).".to_owned(),
        domain: 3,
        space_limit: 1 << 20,
    };
    let line = width_2("slow", Limits::none(), slow);
    let accepted = handle.metrics().accepted;
    let in_flight = std::thread::spawn(move || client.call_raw(&line).expect("slow call"));
    while handle.metrics().accepted == accepted {
        std::thread::yield_now();
    }
    let _ = handle.shutdown();
    match in_flight.join().expect("client thread").outcome {
        Outcome::Exhausted { reason, .. } => assert!(reason.contains("cancel"), "{reason}"),
        other => panic!("shutdown must cancel the parallel scan, got {other:?}"),
    }
}
