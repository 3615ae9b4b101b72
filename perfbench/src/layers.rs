//! In-process calls into each layer's public functions, with a span
//! recorded around every call.
//!
//! The same code path serves two purposes: before timing starts it is
//! the oracle that fixes each request's expected outcome, and in the
//! traced run it replays the workload's own requests layer by layer.
//! The spans (name, start, end, parent, request id) live in memory and
//! are written out once at the end; a layer's self time is its span
//! minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;
use vqd_budget::Budget;
use vqd_chase::CqViews;
use vqd_core::certain::{canonical_database_budgeted, certain_from_canonical};
use vqd_core::determinacy::{
    check_exhaustive_ctx, decide_finite_budgeted, decide_unrestricted_budgeted, Counterexample,
    FiniteVerdict, SemanticVerdict,
};
use vqd_eval::{contained_bounded_budgeted, BoundedContainment};
use vqd_exec::ExecCtx;
use vqd_instance::{DomainNames, Schema};
use vqd_query::{parse_instance, parse_program, parse_query, Cq, CqLang, QueryExpr, ViewSet};
use vqd_server::{Outcome, Request, WireCounterexample};

/// One recorded span. Times are ns since the recorder's epoch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span store with an open-span stack for parent links.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: later spans carry its id.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Per span name: (calls, total µs, self µs). Self time is the span
    /// minus the union of its children (children never overlap here:
    /// the replay is single-threaded).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// Per-call durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        f.flush()
    }
}

fn fail(message: impl Into<String>) -> Outcome {
    Outcome::Error {
        kind: vqd_server::ErrorKind::InvalidInput,
        message: message.into(),
    }
}

struct Pair {
    names: DomainNames,
    views: ViewSet,
    query: QueryExpr,
}

/// `parse_program` + `parse_query` in the order the server uses, so
/// constants intern (and therefore render) identically.
fn parse_pair(schema: &str, views: &str, query: &str) -> Result<Pair, String> {
    let schema = Schema::parse(schema).map_err(|e| format!("schema: {e}"))?;
    let mut names = DomainNames::new();
    let prog = parse_program(&schema, &mut names, views).map_err(|e| format!("views: {e}"))?;
    let views = ViewSet::new(&schema, prog.defs);
    let query = parse_query(&schema, &mut names, query).map_err(|e| format!("query: {e}"))?;
    Ok(Pair {
        names,
        views,
        query,
    })
}

fn cq_pair(pair: &Pair) -> Result<(CqViews, Cq), String> {
    let views = CqViews::try_new(pair.views.clone()).map_err(|e| e.to_string())?;
    let q = pair
        .query
        .as_cq()
        .filter(|q| q.language() == CqLang::Cq)
        .ok_or("query is not a plain CQ")?
        .clone();
    Ok((views, q))
}

fn render_counterexample(c: &Counterexample, names: &DomainNames) -> WireCounterexample {
    WireCounterexample {
        d1: c.d1.render(names),
        d2: c.d2.render(names),
        image: c.image.render(names),
        q1: c.q1.render(names),
        q2: c.q2.render(names),
    }
}

fn exhausted(e: &vqd_budget::Exhausted) -> Outcome {
    Outcome::Exhausted {
        reason: e.reason.to_string(),
        partial: e.partial.clone(),
    }
}

/// Executes `request` through the library layers on `exec` (sequential
/// unless the caller passes a parallel context), recording one span per
/// layer call; returns the outcome the server should put on the wire.
pub fn execute(rec: &mut Recorder, request: &Request, exec: &ExecCtx) -> Outcome {
    match request {
        Request::Decide {
            schema,
            views,
            query,
        }
        | Request::Rewrite {
            schema,
            views,
            query,
        } => {
            let rewrite = matches!(request, Request::Rewrite { .. });
            let pair = match rec.span("query.parse", |_| parse_pair(schema, views, query)) {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            // The server validates the CQ pair and classifies it before
            // deciding; the verdict does not depend on the fragment.
            let classified = rec.span("router.classify", |_| {
                cq_pair(&pair).inspect(|(v, q)| {
                    std::hint::black_box(vqd_router::classify(v, q));
                })
            });
            let (views, q) = match classified {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let decided = rec.span("core.decide", |_| {
                decide_unrestricted_budgeted(&views, &q, exec.budget())
            });
            match decided {
                Ok(out) => {
                    let rewriting = out.rewriting.map(|r| r.render("R"));
                    if rewrite {
                        Outcome::Rewritten {
                            exists: out.determined,
                            rewriting,
                        }
                    } else {
                        Outcome::Decided {
                            determined: out.determined,
                            rewriting,
                        }
                    }
                }
                Err(e) => fail(e.to_string()),
            }
        }
        Request::Certain {
            schema,
            views,
            query,
            extent,
        } => {
            let parsed = rec.span("query.parse", |_| {
                let pair = parse_pair(schema, views, query)?;
                let (views, q) = cq_pair(&pair)?;
                let mut names = pair.names;
                let extent =
                    parse_instance(views.as_view_set().output_schema(), &mut names, extent)
                        .map_err(|e| format!("extent: {e}"))?;
                Ok::<_, String>((views, q, names, extent))
            });
            let (views, q, names, extent) = match parsed {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let answered = rec.span("core.certain", |rec| {
                let chased = rec.span("chase.inverse", |_| {
                    canonical_database_budgeted(&views, &extent, exec)
                })?;
                let rel = rec.span("eval.hom", |_| certain_from_canonical(&q, &chased, exec))?;
                Ok::<_, vqd_budget::VqdError>(Outcome::CertainAnswers {
                    count: rel.len() as u64,
                    answers: rel.render(&names),
                })
            });
            match answered {
                Ok(outcome) => outcome,
                Err(e) => fail(e.to_string()),
            }
        }
        Request::PutInstance { schema, extent } => {
            let parsed = rec.span("query.parse", |_| {
                let schema = Schema::parse(schema).map_err(|e| e.to_string())?;
                let mut names = DomainNames::new();
                parse_instance(&schema, &mut names, extent).map_err(|e| e.to_string())
            });
            match parsed {
                Ok(i) => Outcome::InstancePut {
                    handle: String::new(),
                    fingerprint: String::new(),
                    tuples: i.total_tuples() as u64,
                },
                Err(e) => fail(e),
            }
        }
        Request::Semantic {
            schema,
            views,
            query,
            domain,
            space_limit,
        } => {
            let pair = match rec.span("query.parse", |_| parse_pair(schema, views, query)) {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let verdict = rec.span("core.scan", |_| {
                check_exhaustive_ctx(
                    &pair.views,
                    &pair.query,
                    *domain as usize,
                    u128::from(*space_limit),
                    exec,
                )
            });
            match verdict {
                Ok(SemanticVerdict::NoCounterexampleUpTo(n)) => Outcome::SemanticOutcome {
                    verdict: "no-counterexample".into(),
                    bound: Some(n as u64),
                    counterexample: None,
                },
                Ok(SemanticVerdict::NotDetermined(c)) => Outcome::SemanticOutcome {
                    verdict: "not-determined".into(),
                    bound: None,
                    counterexample: Some(render_counterexample(&c, &pair.names)),
                },
                Ok(SemanticVerdict::TooLarge { .. }) => Outcome::SemanticOutcome {
                    verdict: "too-large".into(),
                    bound: None,
                    counterexample: None,
                },
                Ok(SemanticVerdict::Exhausted(e)) => exhausted(&e),
                Err(e) => fail(e.to_string()),
            }
        }
        Request::Containment {
            schema,
            q1,
            q2,
            max_domain,
            space_limit,
        } => {
            let parsed = rec.span("query.parse", |_| {
                let schema = Schema::parse(schema).map_err(|e| e.to_string())?;
                let mut names = DomainNames::new();
                let mut cq = |src: &str| {
                    parse_query(&schema, &mut names, src)
                        .map_err(|e| e.to_string())?
                        .as_cq()
                        .cloned()
                        .ok_or_else(|| "containment requires a CQ".to_owned())
                };
                let (a, b) = (cq(q1)?, cq(q2)?);
                Ok::<_, String>((a, b, names))
            });
            let (a, b, names) = match parsed {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let verdict = rec.span("core.containment", |_| {
                contained_bounded_budgeted(
                    &a,
                    &b,
                    *max_domain as usize,
                    u128::from(*space_limit),
                    exec.budget(),
                )
            });
            match verdict {
                BoundedContainment::NoCounterexampleUpTo(n) => Outcome::Contained {
                    verdict: "no-counterexample".into(),
                    bound: Some(n as u64),
                    witness: None,
                },
                BoundedContainment::Refuted(d) => Outcome::Contained {
                    verdict: "refuted".into(),
                    bound: None,
                    witness: Some(d.render(&names)),
                },
                BoundedContainment::TooLarge => Outcome::Contained {
                    verdict: "too-large".into(),
                    bound: None,
                    witness: None,
                },
                BoundedContainment::Exhausted(e) => exhausted(&e),
            }
        }
        Request::Finite {
            schema,
            views,
            query,
            max_domain,
            space_limit,
        } => {
            let pair = match rec.span("query.parse", |_| parse_pair(schema, views, query)) {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let (views, q) = match cq_pair(&pair) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let verdict = rec.span("core.finite", |_| {
                decide_finite_budgeted(
                    &views,
                    &q,
                    *max_domain as usize,
                    u128::from(*space_limit),
                    exec.budget(),
                )
            });
            match verdict {
                Ok(FiniteVerdict::Determined(r)) => Outcome::FiniteOutcome {
                    verdict: "determined".into(),
                    rewriting: Some(r.render("R")),
                    searched_up_to: None,
                    counterexample: None,
                },
                Ok(FiniteVerdict::NotDetermined(c)) => Outcome::FiniteOutcome {
                    verdict: "not-determined".into(),
                    rewriting: None,
                    searched_up_to: None,
                    counterexample: Some(render_counterexample(&c, &pair.names)),
                },
                Ok(FiniteVerdict::Open { searched_up_to }) => Outcome::FiniteOutcome {
                    verdict: "open".into(),
                    rewriting: None,
                    searched_up_to: Some(searched_up_to as u64),
                    counterexample: None,
                },
                Ok(FiniteVerdict::Exhausted(e)) => exhausted(&e),
                Err(e) => fail(e.to_string()),
            }
        }
        other => fail(format!("op `{}` is not part of any workload", other.op())),
    }
}

/// Convenience: a fresh sequential context with an unlimited budget.
pub fn sequential() -> ExecCtx {
    ExecCtx::sequential(Budget::unlimited())
}
