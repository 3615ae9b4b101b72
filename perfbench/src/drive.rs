//! The closed-loop client: each connection sends its next request only
//! after the previous reply arrived, and checks every reply against the
//! outcome fixed before timing started.

use crate::gen::{self, Item, Plan};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vqd_obs::MetricsSnapshot;
use vqd_server::{Envelope, ErrorKind, Limits, Outcome, Request, Response, Timeline};

/// What one connection saw.
#[derive(Default)]
pub struct Stats {
    /// Round trip of every logical operation, ms (a read whose handle
    /// was evicted includes the re-put and the retry).
    pub lat_ms: Vec<f64>,
    /// When each logical operation completed.
    pub done_at: Vec<Instant>,
    /// Round trip of the `put_instance` writes, ms.
    pub put_ms: Vec<f64>,
    pub attempted: u64,
    pub wrong: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub exhausted: u64,
    pub transport: u64,
    /// Reads that found their handle evicted and re-put the extent.
    pub reputs: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub replies: u64,
    /// Work envelope sums over ok replies.
    pub steps: u64,
    pub index_builds: u64,
    /// Decide-family replies, and those the router sent down the fast path.
    pub routed: u64,
    pub fastpath: u64,
    /// Profiled runs only: per-reply timelines and summed engine counters.
    pub timelines: Vec<Timeline>,
    pub profile: MetricsSnapshot,
    pub profiled: u64,
    pub first_problem: Option<String>,
}

impl Stats {
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.overloaded + self.exhausted + self.transport
    }

    pub fn merge(&mut self, o: Stats) {
        self.lat_ms.extend(o.lat_ms);
        self.done_at.extend(o.done_at);
        self.put_ms.extend(o.put_ms);
        self.attempted += o.attempted;
        self.wrong += o.wrong;
        self.errors += o.errors;
        self.overloaded += o.overloaded;
        self.exhausted += o.exhausted;
        self.transport += o.transport;
        self.reputs += o.reputs;
        self.request_bytes += o.request_bytes;
        self.reply_bytes += o.reply_bytes;
        self.replies += o.replies;
        self.steps += o.steps;
        self.index_builds += o.index_builds;
        self.routed += o.routed;
        self.fastpath += o.fastpath;
        self.timelines.extend(o.timelines);
        self.profile.add(&o.profile);
        self.profiled += o.profiled;
        if self.first_problem.is_none() {
            self.first_problem = o.first_problem;
        }
    }

    fn problem(&mut self, msg: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(msg);
        }
    }
}

/// Which requests a connection sends.
pub enum Schedule {
    /// Seeded draws from the plan's popularity until the deadline.
    Until { deadline: Instant, seed: u64 },
    /// Exactly these items, in order (warm-up).
    Items(Vec<usize>),
}

pub fn encode(request: Request, profiled: bool) -> String {
    let mut line = Envelope::new("b", Limits::none(), request)
        .with_profile(profiled)
        .to_json()
        .to_string();
    line.push('\n');
    line
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    fn round_trip(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                Response::from_line(self.reply.trim_end()).map_err(|e| format!("bad reply: {e}"))
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Per-connection state for one run.
struct Driver<'a> {
    plan: &'a Plan,
    conn_idx: usize,
    profiled: bool,
    /// Pre-encoded lines of the inline items.
    lines: &'a [Option<String>],
    /// Current handle of each preloaded extent, and the encoded read
    /// line for each item built against it.
    handles: Vec<String>,
    handle_lines: Vec<Option<(String, String)>>,
    next_fresh: usize,
    stats: Stats,
}

/// Encodes every inline item once, before timing.
pub fn encode_items(plan: &Plan, profiled: bool) -> Vec<Option<String>> {
    plan.items
        .iter()
        .map(|it| {
            it.extent
                .is_none()
                .then(|| encode(it.request.clone(), profiled))
        })
        .collect()
}

/// Registers every preloaded extent over one connection; returns the handles.
pub fn preload(addr: SocketAddr, plan: &Plan) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    plan.extents
        .iter()
        .map(|extent| {
            let reply = conn.round_trip(&encode(gen::put(extent), false))?;
            match reply.outcome {
                Outcome::InstancePut { handle, tuples, .. } if tuples == gen::tuples(extent) => {
                    Ok(handle)
                }
                other => Err(format!("preload put failed: {other}")),
            }
        })
        .collect()
}

/// Runs one closed-loop connection.
pub fn run_conn(
    addr: SocketAddr,
    plan: &Plan,
    conn_idx: usize,
    lines: &[Option<String>],
    handles: &[String],
    profiled: bool,
    schedule: Schedule,
) -> Stats {
    let mut d = Driver {
        plan,
        conn_idx,
        profiled,
        lines,
        handles: handles.to_vec(),
        handle_lines: vec![None; plan.items.len()],
        next_fresh: 0,
        stats: Stats::default(),
    };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            d.stats.attempted += 1;
            d.stats.transport += 1;
            d.stats.problem(format!("connect: {e}"));
            return d.stats;
        }
    };
    let result = match schedule {
        Schedule::Until { deadline, seed } => {
            let mut stream = gen::Stream::new(seed, conn_idx);
            let mut r = Ok(());
            while r.is_ok() && Instant::now() < deadline {
                r = match stream.next(plan) {
                    gen::Step::Write => d.write(&mut conn),
                    gen::Step::Read(i) => d.read(&mut conn, i),
                };
            }
            r
        }
        Schedule::Items(items) => items.into_iter().try_for_each(|i| d.read(&mut conn, i)),
    };
    if let Err(e) = result {
        d.stats.transport += 1;
        d.stats.problem(e);
    }
    d.stats
}

impl Driver<'_> {
    fn line_for(&mut self, i: usize) -> String {
        let item = &self.plan.items[i];
        match item.extent {
            None => self.lines[i].clone().expect("inline items are pre-encoded"),
            Some(e) => {
                let handle = &self.handles[e];
                match &self.handle_lines[i] {
                    Some((h, line)) if h == handle => line.clone(),
                    _ => {
                        let line = encode(gen::by_handle(item, handle), self.profiled);
                        self.handle_lines[i] = Some((handle.clone(), line.clone()));
                        line
                    }
                }
            }
        }
    }

    fn send(&mut self, conn: &mut Conn, line: &str) -> Result<Response, String> {
        let reply = conn.round_trip(line)?;
        self.stats.request_bytes += line.len() as u64;
        self.stats.reply_bytes += conn.reply.len() as u64;
        self.stats.replies += 1;
        Ok(reply)
    }

    /// Counts a reply that is not `ok`; returns whether it was ok.
    fn tally(&mut self, reply: &Response, what: &str) -> bool {
        match &reply.outcome {
            Outcome::Error { kind, message } => {
                self.stats.errors += 1;
                self.stats
                    .problem(format!("{what}: error [{}] {message}", kind.as_str()));
            }
            Outcome::Overloaded { .. } => {
                self.stats.overloaded += 1;
                self.stats.problem(format!("{what}: overloaded"));
            }
            Outcome::Exhausted { reason, .. } => {
                self.stats.exhausted += 1;
                self.stats.problem(format!("{what}: exhausted ({reason})"));
            }
            _ => {
                self.stats.steps += reply.work.steps;
                self.stats.index_builds += reply.work.index_builds;
                if let Some(tl) = reply.timeline {
                    self.stats.timelines.push(tl);
                }
                if let Some(p) = &reply.profile {
                    self.stats.profile.add(p);
                    self.stats.profiled += 1;
                }
                return true;
            }
        }
        false
    }

    fn put(&mut self, conn: &mut Conn, extent: &str) -> Result<Option<String>, String> {
        let reply = self.send(conn, &encode(gen::put(extent), self.profiled))?;
        if !self.tally(&reply, "put_instance") {
            return Ok(None);
        }
        match reply.outcome {
            Outcome::InstancePut { handle, tuples, .. } if tuples == gen::tuples(extent) => {
                Ok(Some(handle))
            }
            other => {
                self.stats.wrong += 1;
                self.stats
                    .problem(format!("put_instance: unexpected reply {other}"));
                Ok(None)
            }
        }
    }

    fn write(&mut self, conn: &mut Conn) -> Result<(), String> {
        let fresh = &self.plan.fresh[self.conn_idx];
        let extent = fresh[self.next_fresh % fresh.len()].clone();
        self.next_fresh += 1;
        self.stats.attempted += 1;
        let started = Instant::now();
        self.put(conn, &extent)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.stats.put_ms.push(ms);
        self.stats.lat_ms.push(ms);
        self.stats.done_at.push(Instant::now());
        Ok(())
    }

    fn read(&mut self, conn: &mut Conn, i: usize) -> Result<(), String> {
        self.stats.attempted += 1;
        let started = Instant::now();
        let line = self.line_for(i);
        let mut reply = self.send(conn, &line)?;
        if let (Some(e), true) = (
            self.plan.items[i].extent,
            vqd_server::client::is_error_kind(&reply, ErrorKind::UnknownHandle),
        ) {
            // Handles are cache references, not leases: re-put, retry once.
            self.stats.reputs += 1;
            match self.put(conn, &self.plan.extents[e])? {
                Some(handle) => self.handles[e] = handle,
                None => return Ok(()),
            }
            let line = self.line_for(i);
            reply = self.send(conn, &line)?;
        }
        self.stats
            .lat_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        self.stats.done_at.push(Instant::now());
        let item = &self.plan.items[i];
        if reply.fragment.is_some() {
            self.stats.routed += 1;
            if reply.fragment.as_deref() == Some(vqd_router::Fragment::ProjectSelect.wire_note()) {
                self.stats.fastpath += 1;
            }
        }
        if self.tally(&reply, item.request.op()) {
            if let Some(msg) = mismatch(item, &reply.outcome) {
                self.stats.wrong += 1;
                self.stats
                    .problem(format!("item {i} ({}): {msg}", item.family));
            }
        }
        Ok(())
    }
}

/// Why `outcome` is not the expected reply for `item`, if it is not.
pub fn mismatch(item: &Item, outcome: &Outcome) -> Option<String> {
    if let Some(rule) = item.rule {
        let verdict = match outcome {
            Outcome::Decided { determined, .. } => Some(*determined),
            Outcome::Rewritten { exists, .. } => Some(*exists),
            _ => None,
        };
        if verdict != Some(rule) {
            return Some(format!(
                "the k | m rule says determined={rule}, reply: {outcome}"
            ));
        }
    }
    (outcome != &item.expected).then(|| format!("expected {}, got {outcome}", item.expected))
}
