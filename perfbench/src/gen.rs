//! Seeded workload generation.
//!
//! Every workload is a pool of items fixed by `--seed` before the
//! server starts. The shape of the pool (families, sizes, verdict
//! classes, popularity ranks) does not depend on the seed; the seed
//! chooses names, random CQ shapes, tuple order and the request
//! sequence. That keeps runs with different seeds comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqd_bench::genq::{random_cq, CqGen};
use vqd_instance::Schema;
use vqd_server::{Outcome, Request};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Decide,
    Certain,
    Scan,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "decide" => Some(Workload::Decide),
            "certain" => Some(Workload::Certain),
            "scan" => Some(Workload::Scan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Decide => "decide",
            Workload::Certain => "certain",
            Workload::Scan => "scan",
        }
    }
}

/// One request the workload can send, with its expected outcome.
pub struct Item {
    /// Family label used in reports (`path`, `project-select`, …).
    pub family: &'static str,
    /// The request as executed in process (inline extent for reads by
    /// handle; the wire form is built from [`Item::extent`]).
    pub request: Request,
    /// For reads by handle: index into [`Plan::extents`].
    pub extent: Option<usize>,
    /// For path-family pairs: the verdict the `k | m` rule predicts.
    pub rule: Option<bool>,
    /// The reply outcome fixed before timing starts.
    pub expected: Outcome,
}

/// A generated workload.
pub struct Plan {
    pub items: Vec<Item>,
    /// How connections pick among `items`.
    pub popularity: Popularity,
    /// Extents registered with `put_instance` during set-up.
    pub extents: Vec<String>,
    /// Per connection: fresh extents for the workload's writes.
    pub fresh: Vec<Vec<String>>,
    /// Share of requests that are writes (`put_instance`).
    pub put_share: f64,
    pub conns: usize,
    /// Items sent once each while warming up.
    pub warm: Vec<usize>,
}

pub const SCHEMA: &str = "E/2";
/// Output schema of the `certain` views: what extents are written in.
const EXTENT_SCHEMA: &str = "V/2";
const CERTAIN_VIEWS: &str = "V(x,z) :- E(x,y), E(y,z).";
const Q2: &str = "Q(x,z) :- E(x,y), E(y,z).";
const Q3: &str = "Q(x,u) :- E(x,y), E(y,z), E(z,u).";
const Q4: &str = "Q(x,w) :- E(x,y), E(y,z), E(z,u), E(u,w).";
/// Unary: the sources of 2-paths, a smaller answer set than `Q2`.
const Q2_SOURCES: &str = "Q(x) :- E(x,y), E(y,z).";

/// Mixes the seed with a stream label, so sub-generators are independent.
fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Two seeded uppercase letters: a name prefix that changes with the seed.
fn tag(rng: &mut StdRng) -> String {
    (0..2)
        .map(|_| char::from(b'A' + rng.gen_range(0..26u8)))
        .collect()
}

/// Zipf popularity (exponent 1) over `n` ranks: with 192–2048 items the
/// first few dozen ranks take about half of the requests.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// How a connection picks its next item.
pub enum Popularity {
    /// Skewed draws from a cumulative distribution.
    Zipf(Vec<f64>),
    /// Every item once per cycle, in a fresh seeded order each cycle, so
    /// any stretch of the run carries the same mix of request costs.
    Deck,
}

/// One step of a connection's request sequence.
pub enum Step {
    Read(usize),
    /// A `put_instance` of the connection's next fresh extent.
    Write,
}

/// The seeded request sequence of one connection.
pub struct Stream {
    rng: StdRng,
    deck: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64, conn: usize) -> Stream {
        Stream {
            rng: rng_for(seed, 100 + conn as u64),
            deck: Vec::new(),
        }
    }

    pub fn next(&mut self, plan: &Plan) -> Step {
        if plan.put_share > 0.0 && self.rng.gen_bool(plan.put_share) {
            return Step::Write;
        }
        match &plan.popularity {
            Popularity::Zipf(cdf) => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                Step::Read(cdf.partition_point(|&c| c <= u).min(cdf.len() - 1))
            }
            Popularity::Deck => {
                if self.deck.is_empty() {
                    self.deck = (0..plan.items.len()).collect();
                    shuffle(&mut self.deck, &mut self.rng);
                }
                Step::Read(self.deck.pop().expect("the deck was just refilled"))
            }
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A chain `E(v0,v1), …, E(v(k-1),vk)` with head `(v0, vk)`.
fn chain(head: &str, var: &str, k: usize) -> String {
    let atoms: Vec<String> = (0..k)
        .map(|i| format!("E({var}{i},{var}{})", i + 1))
        .collect();
    format!("{head}({var}0,{var}{k}) :- {}.", atoms.join(", "))
}

/// A path-graph extent over `V/2` with `n` tuples, in seeded order.
/// `prefix` makes the constants (and so the fingerprint) unique.
fn path_extent(prefix: &str, n: usize, rng: &mut StdRng) -> String {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    let mut out = String::with_capacity(n * 24);
    for i in order {
        out.push_str(&format!("V({prefix}N{i},{prefix}N{}). ", i + 1));
    }
    out
}

/// Extent sizes spread over 256–2048 tuples, fixed by index.
fn ladder(i: usize, lo: usize, hi: usize) -> usize {
    lo + (i * 1031) % (hi - lo + 1)
}

/// Stands in for an item's expected outcome until the oracle fixes it.
fn placeholder() -> Outcome {
    Outcome::Pong
}

pub fn build(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::Decide => decide_plan(seed),
        Workload::Certain => certain_plan(seed),
        Workload::Scan => scan_plan(seed),
    }
}

/// Path-family (k, m) pairs: `V_k` determines `Q_m` iff `k | m`.
const PATH_COMBOS: [(usize, usize); 10] = [
    (2, 2),
    (2, 3),
    (2, 4),
    (2, 5),
    (2, 6),
    (3, 2),
    (3, 3),
    (3, 4),
    (3, 6),
    (2, 1),
];
/// Single-atom view / query bodies (the router's project-select fragment).
const PS_FORMS: [(&str, &str); 5] = [
    ("(x,y)", "E(x,y)"),
    ("(y,x)", "E(x,y)"),
    ("(x)", "E(x,y)"),
    ("(y)", "E(x,y)"),
    ("(x)", "E(x,x)"),
];
const DECIDE_POOL: usize = 2048;

fn decide_plan(seed: u64) -> Plan {
    let schema = Schema::parse(SCHEMA).expect("static schema");
    let mut names = rng_for(seed, 1);
    let t = tag(&mut names);
    let mut items = Vec::with_capacity(DECIDE_POOL);
    for r in 0..DECIDE_POOL {
        let slot = r / 4;
        let var = ["x", "y", "u", "w"][names.gen_range(0..4usize)];
        let (family, views, query, rule) = match r % 4 {
            0 => {
                let (k, m) = PATH_COMBOS[slot % PATH_COMBOS.len()];
                let views = chain(&format!("{t}{r}P"), var, k);
                ("path", views, chain("Q", "z", m), Some(m % k == 0))
            }
            1 => {
                let nviews = 1 + slot % 3;
                let views: Vec<String> = (0..nviews)
                    .map(|j| {
                        let (head, body) = PS_FORMS[(slot + 2 * j) % PS_FORMS.len()];
                        format!("{t}{r}S{j}{head} :- {body}.")
                    })
                    .collect();
                let (head, body) = PS_FORMS[(slot / 3) % PS_FORMS.len()];
                (
                    "project-select",
                    views.join("\n"),
                    format!("Q{head} :- {body}."),
                    None,
                )
            }
            2 => {
                let mut rng = rng_for(seed, 1000 + r as u64);
                let pv = CqGen {
                    atoms: rng.gen_range(1..=3),
                    vars: rng.gen_range(2..=3),
                    max_head: 2,
                };
                let pq = CqGen {
                    atoms: rng.gen_range(1..=3),
                    vars: rng.gen_range(2..=4),
                    max_head: 2,
                };
                let views = format!(
                    "{}\n{}",
                    random_cq(&schema, pv, &mut rng).render(&format!("{t}{r}R0")),
                    random_cq(&schema, pv, &mut rng).render(&format!("{t}{r}R1")),
                );
                (
                    "random",
                    views,
                    random_cq(&schema, pq, &mut rng).render("Q"),
                    None,
                )
            }
            _ => {
                let views =
                    format!("{t}{r}C({var}0,{var}1) :- E({var}0,{var}1), E({var}1,{var}0).");
                ("general", views, chain("Q", "z", 1 + slot % 3), None)
            }
        };
        let request = if slot % 2 == 0 {
            Request::Decide {
                schema: SCHEMA.into(),
                views,
                query,
            }
        } else {
            Request::Rewrite {
                schema: SCHEMA.into(),
                views,
                query,
            }
        };
        items.push(Item {
            family,
            request,
            extent: None,
            rule,
            expected: placeholder(),
        });
    }
    Plan {
        popularity: Popularity::Zipf(zipf_cdf(items.len())),
        warm: (0..items.len()).collect(),
        items,
        extents: Vec::new(),
        fresh: Vec::new(),
        put_share: 0.0,
        conns: 2,
    }
}

const CERTAIN_EXTENTS: usize = 48;
const CERTAIN_FRESH_PER_CONN: usize = 600;

fn certain_plan(seed: u64) -> Plan {
    let mut rng = rng_for(seed, 2);
    let t = tag(&mut rng);
    let extents: Vec<String> = (0..CERTAIN_EXTENTS)
        .map(|e| path_extent(&format!("{t}{e}"), ladder(e, 256, 2048), &mut rng))
        .collect();
    // Four queries per extent: 192 derived keys plus 48 handles, well
    // past the default 128-entry cache cap; the Zipf head fits in it.
    let mut items = Vec::with_capacity(4 * CERTAIN_EXTENTS);
    for (e, extent) in extents.iter().enumerate() {
        for query in [Q2, Q4, Q2_SOURCES, Q3] {
            items.push(Item {
                family: "read",
                request: Request::Certain {
                    schema: SCHEMA.into(),
                    views: CERTAIN_VIEWS.into(),
                    query: query.into(),
                    extent: extent.clone(),
                },
                extent: Some(e),
                rule: None,
                expected: placeholder(),
            });
        }
    }
    let conns = 2;
    let fresh = (0..conns)
        .map(|c| {
            (0..CERTAIN_FRESH_PER_CONN)
                .map(|i| path_extent(&format!("{t}F{c}X{i}"), ladder(i, 256, 2048), &mut rng))
                .collect()
        })
        .collect();
    Plan {
        popularity: Popularity::Zipf(zipf_cdf(items.len())),
        warm: (0..32).collect(),
        items,
        extents,
        fresh,
        put_share: 0.1,
        conns,
    }
}

/// `(views, query)` pairs for the domain-3 exhaustive scans.
const SCAN_PAIRS: [(&str, &str); 4] = [
    ("V(x,z) :- E(x,y), E(y,z).", Q4),
    (
        "V(x,z) :- E(x,y), E(y,z).\nW(x,u) :- E(x,y), E(y,z), E(z,u).",
        "Q(a,f) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f).",
    ),
    ("V(x,y) :- E(x,y).", Q4),
    (
        "V(x,u) :- E(x,y), E(y,z), E(z,u).",
        "Q(a,g) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g).",
    ),
];
/// `(q1, q2)` pairs for bounded containment at domain 3.
const CONTAINMENT_PAIRS: [(&str, &str); 3] = [
    ("Q(x,z) :- E(x,y), E(y,z), E(z,z).", Q2),
    ("Q(x) :- E(x,x).", "Q(x) :- E(x,y)."),
    (Q2, Q3),
];
/// `(views, query)` pairs for the finite-determinacy procedure.
const FINITE_PAIRS: [(&str, &str); 2] = [
    ("V(x,z) :- E(x,y), E(y,z).", Q4),
    ("V(x,z) :- E(x,y), E(y,z).", Q3),
];
const SPACE_LIMIT: u64 = 1 << 20;

fn scan_plan(seed: u64) -> Plan {
    let mut rng = rng_for(seed, 3);
    let t = tag(&mut rng);
    let mut items = Vec::new();
    for i in 0..48 {
        let (family, request) = match i % 6 {
            0 | 3 => {
                let (views, query) = SCAN_PAIRS[(i / 6 + i % 2) % SCAN_PAIRS.len()];
                (
                    "semantic",
                    Request::Semantic {
                        schema: SCHEMA.into(),
                        views: views.into(),
                        query: query.into(),
                        domain: 3,
                        space_limit: SPACE_LIMIT,
                    },
                )
            }
            1 | 4 => (
                "certain",
                Request::Certain {
                    schema: SCHEMA.into(),
                    views: CERTAIN_VIEWS.into(),
                    query: if i % 2 == 0 { Q2 } else { Q4 }.into(),
                    extent: path_extent(&format!("{t}{i}"), ladder(i, 1024, 2048), &mut rng),
                },
            ),
            2 => {
                let (q1, q2) = CONTAINMENT_PAIRS[(i / 6) % CONTAINMENT_PAIRS.len()];
                (
                    "containment",
                    Request::Containment {
                        schema: SCHEMA.into(),
                        q1: q1.into(),
                        q2: q2.into(),
                        max_domain: 3,
                        space_limit: SPACE_LIMIT,
                    },
                )
            }
            _ => {
                let (views, query) = FINITE_PAIRS[(i / 6) % FINITE_PAIRS.len()];
                (
                    "finite",
                    Request::Finite {
                        schema: SCHEMA.into(),
                        views: views.into(),
                        query: query.into(),
                        max_domain: 3,
                        space_limit: SPACE_LIMIT,
                    },
                )
            }
        };
        items.push(Item {
            family,
            request,
            extent: None,
            rule: None,
            expected: placeholder(),
        });
    }
    Plan {
        popularity: Popularity::Deck,
        warm: (0..items.len()).collect(),
        items,
        extents: Vec::new(),
        fresh: Vec::new(),
        put_share: 0.0,
        conns: 1,
    }
}

/// The request for a read by handle of `item`.
pub fn by_handle(item: &Item, handle: &str) -> Request {
    match &item.request {
        Request::Certain {
            schema,
            views,
            query,
            ..
        } => Request::CertainHandle {
            schema: schema.clone(),
            views: views.clone(),
            query: query.clone(),
            handle: handle.to_owned(),
        },
        other => other.clone(),
    }
}

/// The `put_instance` request for an extent.
pub fn put(extent: &str) -> Request {
    Request::PutInstance {
        schema: EXTENT_SCHEMA.into(),
        extent: extent.to_owned(),
    }
}

/// Tuples in an extent written by [`path_extent`].
pub fn tuples(extent: &str) -> u64 {
    extent.matches("). ").count() as u64
}
