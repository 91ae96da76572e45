//! The measured configuration: how the harness starts the program, sends it
//! requests, times them from outside and checks every reply.

use crate::templates::TEMPLATES;
use crate::trace::Tracer;
use crate::workload::{Schedule, Transport, Workload};
use legobase::client::Client as TcpClient;
use legobase::server::TcpServer;
use legobase::storage::Value;
use legobase::{LegoBase, QueryRequest, QueryResponse, QueryService, ServeOptions, ServiceStats};
use legobase::{ResultTable, Session};
use std::time::{Duration, Instant};

/// The program, started the way the workload reaches it. Both variants run
/// with default [`ServeOptions`]: the numbers are of the defaults.
pub enum Backend {
    /// An in-process query service.
    InProcess(Box<QueryService>),
    /// The TCP front door on an ephemeral loopback port.
    Tcp(TcpServer),
}

impl Backend {
    /// Starts the program over `system`.
    pub fn start(system: LegoBase, transport: Transport) -> Result<Backend, String> {
        Ok(match transport {
            Transport::InProcess => {
                Backend::InProcess(Box::new(system.serve_with(ServeOptions::default())))
            }
            Transport::Tcp => Backend::Tcp(
                system
                    .serve_tcp("127.0.0.1:0", ServeOptions::default())
                    .map_err(|e| format!("cannot serve on loopback: {e}"))?,
            ),
        })
    }

    /// Opens the client's session, or its connection with the handshake.
    pub fn connect(&self) -> Result<Conn<'_>, String> {
        Ok(match self {
            Backend::InProcess(service) => Conn::InProcess(service.session()),
            Backend::Tcp(server) => Conn::Tcp(
                TcpClient::connect(server.local_addr())
                    .map_err(|e| format!("cannot connect: {e}"))?,
            ),
        })
    }

    /// The service's counters.
    pub fn stats(&self) -> ServiceStats {
        match self {
            Backend::InProcess(service) => service.stats(),
            Backend::Tcp(server) => server.stats(),
        }
    }

    /// Stops the program and waits for its threads.
    pub fn shutdown(self) {
        match self {
            Backend::InProcess(service) => service.shutdown(),
            Backend::Tcp(server) => server.shutdown(),
        }
    }
}

/// How the client reaches the program.
pub enum Conn<'a> {
    /// A session of the in-process service.
    InProcess(Session<'a>),
    /// A TCP connection.
    Tcp(TcpClient),
}

impl Conn<'_> {
    /// Sends one SQL text and waits for the whole reply.
    pub fn query(&mut self, sql: &str) -> Result<QueryResponse, String> {
        let request = QueryRequest::sql(sql);
        match self {
            Conn::InProcess(session) => session.query(&request).map_err(|e| e.to_string()),
            Conn::Tcp(client) => client.run(&request).map_err(|e| e.to_string()),
        }
    }
}

/// What the harness remembers of a reply to compare later replies to the
/// same text against: the row count, an order-insensitive digest of every
/// non-float cell, and the sum of the float cells. Floats are compared with
/// a relative tolerance because the service may re-plan a text between two
/// sends (the feedback loop), and a different join order adds the same
/// numbers in a different order.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    rows: u64,
    exact: u64,
    float_sum: f64,
}

impl Fingerprint {
    /// Digests a result.
    pub fn of(result: &ResultTable) -> Fingerprint {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut exact = 0u64;
        let mut float_sum = 0.0f64;
        for row in result.rows() {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for cell in row {
                let (tag, bits) = match cell {
                    Value::Null => (0, 0),
                    Value::Int(i) => (1, *i as u64),
                    Value::Float(x) => {
                        if x.is_finite() {
                            float_sum += x;
                        }
                        (2, 0)
                    }
                    Value::Str(s) => (3, legobase::wire::fnv1a(s.as_bytes())),
                    Value::Date(d) => (4, d.0 as u64),
                    Value::Bool(b) => (5, *b as u64),
                };
                h = ((h ^ tag).wrapping_mul(PRIME) ^ bits).wrapping_mul(PRIME);
            }
            exact = exact.wrapping_add(h);
        }
        Fingerprint { rows: result.len() as u64, exact, float_sum }
    }

    /// True when `other` is a reply to the same question.
    pub fn matches(&self, other: &Fingerprint) -> bool {
        let scale = self.float_sum.abs().max(other.float_sum.abs()).max(1.0);
        self.rows == other.rows
            && self.exact == other.exact
            && (self.float_sum - other.float_sum).abs() <= 1e-9 * scale
    }
}

/// What one timed round — one pass over the mix — measured. The run's
/// end-to-end times are taken over rounds, not over seconds: every round of
/// a workload sends the same mix, so rounds compare like with like.
pub struct Round {
    /// Wall seconds, first request sent to last reply checked.
    pub wall_s: f64,
    /// Process CPU seconds (all threads: client, server, pool) spent in it.
    pub cpu_s: f64,
    /// Requests sent in it.
    pub requests: usize,
    /// Mean latency in milliseconds of each template slot's requests.
    pub slot_ms: Vec<f64>,
}

/// The closed-loop client: its connection, what it expects back for each
/// text, and what it has measured.
pub struct Client<'a> {
    conn: Conn<'a>,
    expect: Vec<Option<Fingerprint>>,
    rounds_sent: usize,
    /// When set, every request is recorded as a span whose child is the
    /// execution time the reply itself reported.
    pub tracer: Option<Tracer>,
    /// Latency samples in milliseconds, one list per template slot.
    pub samples: Vec<Vec<f64>>,
    /// The timed rounds, in the order they were sent.
    pub rounds: Vec<Round>,
    /// Requests sent in timed phases.
    pub attempted: u64,
    /// Requests that errored, were refused or returned a wrong answer.
    pub failed: u64,
    /// What went wrong first, for the report.
    pub first_failure: Option<String>,
}

impl<'a> Client<'a> {
    /// Connects and sends two warm-up rounds, so that the program's caches
    /// are filled and feedback-driven re-plans have settled before anything
    /// is timed.
    pub fn connect_and_warm(
        backend: &'a Backend,
        workload: &Workload,
        schedule: &Schedule,
    ) -> Result<Client<'a>, String> {
        let mut client = Client {
            conn: backend.connect()?,
            expect: vec![None; schedule.texts.len()],
            rounds_sent: 0,
            tracer: None,
            samples: workload.templates.iter().map(|_| Vec::with_capacity(4096)).collect(),
            rounds: Vec::with_capacity(1024),
            attempted: 0,
            failed: 0,
            first_failure: None,
        };
        for _ in 0..2 {
            client.round(schedule, false, None);
        }
        Ok(client)
    }

    /// Sends the next round of the schedule. `record` is false for warm-up
    /// rounds: replies are remembered, nothing is timed or counted. `fault`
    /// is the text whose request `--selftest-fault` breaks.
    fn round(&mut self, schedule: &Schedule, record: bool, fault: Option<usize>) {
        let order = schedule.round(self.rounds_sent);
        self.rounds_sent += 1;
        let mut slot_sums = vec![(0.0, 0usize); self.samples.len()];
        let (round_start, cpu_start) = (Instant::now(), crate::sys::cpu_seconds());
        for &index in &order {
            let text = &schedule.texts[index];
            let broken;
            let sql: &str = if fault == Some(index) {
                broken = text.sql.replacen("SELECT", "SELEKT", 1);
                &broken
            } else {
                &text.sql
            };
            let t0 = Instant::now();
            let reply = self.conn.query(sql);
            let wall = t0.elapsed();
            if let Some(tracer) = &mut self.tracer {
                let root = tracer.request(index, t0);
                if let Ok(r) = &reply {
                    let exec = r.exec_time.min(wall);
                    tracer.child(root, "exec.execute", t0 + (wall - exec), exec);
                }
                tracer.close(root, t0 + wall);
            }
            if !record {
                if let Ok(r) = &reply {
                    self.expect[index].get_or_insert_with(|| Fingerprint::of(&r.result));
                }
                continue;
            }
            self.attempted += 1;
            let ms = wall.as_secs_f64() * 1e3;
            self.samples[text.slot].push(ms);
            slot_sums[text.slot].0 += ms;
            slot_sums[text.slot].1 += 1;
            let label = || format!("{}/{}", TEMPLATES[text.template].name, text.variant);
            let failure = match reply {
                Err(e) => Some(format!("{}: {e}", label())),
                Ok(r) => {
                    let got = Fingerprint::of(&r.result);
                    let want = *self.expect[index].get_or_insert(got);
                    (!want.matches(&got)).then(|| {
                        format!("{}: {got:?} differs from the first reply {want:?}", label())
                    })
                }
            };
            if let Some(f) = failure {
                self.failed += 1;
                self.first_failure.get_or_insert(f);
            }
        }
        if record {
            self.rounds.push(Round {
                wall_s: round_start.elapsed().as_secs_f64(),
                cpu_s: crate::sys::cpu_seconds() - cpu_start,
                requests: order.len(),
                slot_ms: slot_sums.iter().map(|(sum, n)| sum / *n as f64).collect(),
            });
        }
    }

    /// Damages the remembered reply of one text (the checksum fault of
    /// `--selftest-fault`).
    pub fn corrupt_expectation(&mut self) {
        if let Some(fp) = self.expect.iter_mut().flatten().next() {
            fp.exact ^= 1;
        }
    }

    /// Runs the closed loop on the calling thread: whole rounds until
    /// `seconds` have passed *and* `min_rounds` are done — a slow machine
    /// yields a longer run, never a percentile without its samples — giving
    /// up at four times `seconds` (or, with `seconds` zero, never: exactly
    /// `min_rounds`). Returns the phase's wall seconds.
    pub fn timed_phase(
        &mut self,
        schedule: &Schedule,
        seconds: f64,
        min_rounds: usize,
        fault: Option<usize>,
    ) -> Result<f64, String> {
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds && (seconds == 0.0 || t0.elapsed() < budget * 4)
            || t0.elapsed() < budget
        {
            self.round(schedule, true, fault);
            rounds += 1;
        }
        if rounds < min_rounds {
            return Err(format!(
                "only {rounds} of the {min_rounds} rounds the percentiles need fit into {} s",
                seconds * 4.0
            ));
        }
        Ok(t0.elapsed().as_secs_f64())
    }
}
