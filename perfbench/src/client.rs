//! The open-loop load generator of `serve_mix`.
//!
//! Requests are sent on a schedule fixed before the run, whether or not
//! earlier ones have finished, as independent users would send them.
//! A generator thread holds one connection at a time: it sends each
//! request when it is due, and between sends polls the jobs it is
//! waiting for. Every latency is measured from when the request was
//! due, so a stall that delays later requests shows in their latency;
//! how late the generator itself sent each request is recorded apart.
//! `serve_mix` runs two such threads, one per stream of requests, and
//! merges their reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use turnroute_experiment::json::{self, Value as Json};
use turnroute_serve::client;

use crate::trace::Tracer;

/// How a submission was answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    /// The job to poll and fetch.
    pub id: String,
    /// Answered from the result store: the result is ready.
    pub cached: bool,
    /// Joined an identical job already queued or running.
    pub coalesced: bool,
}

/// Where a job is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Being computed.
    Running,
    /// Result ready.
    Done,
    /// Failed or cancelled, with the reason.
    Failed(String),
}

/// The three calls the generator makes; the HTTP server implements it,
/// and tests substitute stubs.
pub trait JobService {
    /// Submits a spec document.
    fn submit(&mut self, spec_json: &str) -> Result<Submitted, String>;
    /// Polls a job.
    fn status(&mut self, id: &str) -> Result<JobState, String>;
    /// Fetches a finished job's report bytes.
    fn fetch(&mut self, id: &str) -> Result<Vec<u8>, String>;
}

/// `turnroute-serve` over HTTP, one connection per call.
pub struct HttpService {
    addr: String,
}

impl HttpService {
    /// A client of the server at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        HttpService { addr: addr.into() }
    }
}

fn ok_json(what: &str, r: std::io::Result<(u16, Vec<u8>)>) -> Result<Json, String> {
    let (code, body) = r.map_err(|e| format!("{what}: {e}"))?;
    let text = String::from_utf8_lossy(&body);
    if !(200..300).contains(&code) {
        return Err(format!("{what}: HTTP {code}: {}", text.trim()));
    }
    json::parse(&text).map_err(|e| format!("{what}: {e}"))
}

impl JobService for HttpService {
    fn submit(&mut self, spec_json: &str) -> Result<Submitted, String> {
        let doc = ok_json("submit", client::submit(&self.addr, spec_json))?;
        let flag = |k: &str| doc.get(k).and_then(Json::as_bool).unwrap_or(false);
        Ok(Submitted {
            id: doc
                .get("job_id")
                .and_then(Json::as_str)
                .ok_or("submit: no job_id")?
                .to_owned(),
            cached: flag("cached"),
            coalesced: flag("coalesced"),
        })
    }

    fn status(&mut self, id: &str) -> Result<JobState, String> {
        let doc = ok_json("status", client::status(&self.addr, id))?;
        Ok(match doc.get("status").and_then(Json::as_str) {
            Some("queued") => JobState::Queued,
            Some("running") => JobState::Running,
            Some("done") => JobState::Done,
            other => JobState::Failed(format!(
                "job {id} {}: {}",
                other.unwrap_or("?"),
                doc.get("error").and_then(Json::as_str).unwrap_or("")
            )),
        })
    }

    fn fetch(&mut self, id: &str) -> Result<Vec<u8>, String> {
        let (code, body) = client::fetch(&self.addr, id).map_err(|e| format!("fetch {id}: {e}"))?;
        if code != 200 {
            return Err(format!(
                "fetch {id}: HTTP {code}: {}",
                String::from_utf8_lossy(&body).trim()
            ));
        }
        Ok(body)
    }
}

/// One scheduled request: when it is due (seconds after the start) and
/// which spec it submits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Seconds after the start of the schedule.
    pub due: f64,
    /// Index into the spec list.
    pub spec: usize,
}

/// What the generator measured.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Requests sent.
    pub attempted: u64,
    /// Failure messages, one per failed request.
    pub failures: Vec<String>,
    /// Due → result in hand, for requests that needed the engine
    /// (coalesced ones included).
    pub cold: Vec<f64>,
    /// Due → result in hand, for store hits.
    pub warm: Vec<f64>,
    /// When each `cold` result was in hand, seconds after the start.
    pub cold_at: Vec<f64>,
    /// When each `warm` result was in hand, seconds after the start.
    pub warm_at: Vec<f64>,
    /// Send time − due time, per request.
    pub lag: Vec<f64>,
    /// Seconds per submit call.
    pub submit_s: Vec<f64>,
    /// Seconds per fetch call.
    pub fetch_s: Vec<f64>,
    /// Status calls made.
    pub status_polls: u64,
    /// Submissions that coalesced onto an in-flight job.
    pub coalesced: u64,
    /// Per engine job: submit → first seen running (or done).
    pub queue_wait: Vec<f64>,
    /// Per engine job: first seen running → seen done.
    pub run: Vec<f64>,
    /// First due time → last result in hand.
    pub wall: f64,
    /// Report bytes of each engine job, by spec index (first fetch).
    pub cold_bodies: BTreeMap<usize, Vec<u8>>,
    /// Engine jobs waiting at each send.
    pub backlog: Vec<usize>,
}

impl ClientReport {
    /// The report of two generators that ran side by side: latencies in
    /// the order their results came in, everything else combined. The
    /// backlog is the first report's (the stream that submits new work).
    pub fn merge(mut self, other: ClientReport) -> ClientReport {
        (self.cold, self.cold_at) = by_time(&self.cold, &self.cold_at, &other.cold, &other.cold_at);
        (self.warm, self.warm_at) = by_time(&self.warm, &self.warm_at, &other.warm, &other.warm_at);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.lag.extend(other.lag);
        self.submit_s.extend(other.submit_s);
        self.fetch_s.extend(other.fetch_s);
        self.status_polls += other.status_polls;
        self.coalesced += other.coalesced;
        self.queue_wait.extend(other.queue_wait);
        self.run.extend(other.run);
        self.wall = self.wall.max(other.wall);
        for (spec, body) in other.cold_bodies {
            self.cold_bodies.entry(spec).or_insert(body);
        }
        self
    }
}

/// Two series of (time, value) merged in time order.
fn by_time(a: &[f64], a_at: &[f64], b: &[f64], b_at: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut all: Vec<(f64, f64)> = a_at
        .iter()
        .zip(a)
        .chain(b_at.iter().zip(b))
        .map(|(&t, &v)| (t, v))
        .collect();
    all.sort_by(|x, y| x.0.total_cmp(&y.0));
    all.into_iter().map(|(t, v)| (v, t)).unzip()
}

struct Waiter {
    due: Instant,
    spec: usize,
    span: Option<u64>,
}

struct Watch {
    waiters: Vec<Waiter>,
    submitted: Instant,
    running_seen: Option<Instant>,
    next_poll: Instant,
}

/// Validates the report bytes of the spec at an index.
pub type Check<'a> = dyn Fn(usize, &[u8]) -> Result<(), String> + Sync + 'a;

/// Generator settings.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Interval between polls of one job.
    pub poll: Duration,
    /// A request without its result this long after it was due failed.
    pub deadline: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            poll: Duration::from_micros(1_000),
            deadline: Duration::from_secs(10),
        }
    }
}

/// Sends `schedule` (sorted by due time) to `service` and waits for
/// every result or its deadline. `check` validates the report bytes of
/// a spec; a failed check fails the request. With a tracer, each
/// request becomes a span from its due time to its result, grouped by
/// its job id, with its submit, status and fetch calls as children.
pub fn run_open_loop(
    service: &mut dyn JobService,
    specs: &[String],
    schedule: &[Request],
    check: &Check<'_>,
    timing: Timing,
    tracer: Option<&Tracer>,
) -> ClientReport {
    let mut rep = ClientReport::default();
    let start = Instant::now();
    let mut next = 0;
    let mut last_result = start;
    let mut watching: BTreeMap<String, Watch> = BTreeMap::new();
    let timed = |tracer: Option<&Tracer>, name, parent, group: &str, t0: Instant| {
        if let Some(t) = tracer {
            t.record(name, parent, group, t0, Instant::now());
        }
    };
    // A request's own span runs from its due time to its result (or
    // failure); its calls are children, so its self time is the time it
    // spent waiting on the server between calls.
    let close = |tracer: Option<&Tracer>, span: Option<u64>, group: &str, due, end| {
        if let (Some(t), Some(id)) = (tracer, span) {
            t.record_as(id, "serve.request", None, group, due, end);
        }
    };
    loop {
        let now = Instant::now();
        if let Some(req) = schedule.get(next).filter(|r| start + secs(r.due) <= now) {
            next += 1;
            let due = start + secs(req.due);
            rep.attempted += 1;
            rep.lag.push(now.duration_since(due).as_secs_f64());
            rep.backlog.push(watching.len());
            let t0 = Instant::now();
            let submitted = service.submit(&specs[req.spec]);
            rep.submit_s.push(t0.elapsed().as_secs_f64());
            let sub = match submitted {
                Ok(s) => s,
                Err(e) => {
                    rep.failures.push(e);
                    continue;
                }
            };
            let span = tracer.map(Tracer::reserve);
            timed(tracer, "serve.submit", span, &sub.id, t0);
            if sub.cached {
                let t1 = Instant::now();
                let body = service.fetch(&sub.id);
                let done = Instant::now();
                rep.fetch_s.push(done.duration_since(t1).as_secs_f64());
                timed(tracer, "serve.fetch", span, &sub.id, t1);
                close(tracer, span, &sub.id, due, done);
                last_result = done;
                match body.and_then(|b| check(req.spec, &b)) {
                    Ok(()) => {
                        rep.warm.push(done.duration_since(due).as_secs_f64());
                        rep.warm_at.push(done.duration_since(start).as_secs_f64());
                    }
                    Err(e) => rep.failures.push(e),
                }
                continue;
            }
            if sub.coalesced {
                rep.coalesced += 1;
            }
            watching
                .entry(sub.id)
                .or_insert(Watch {
                    waiters: Vec::new(),
                    submitted: now,
                    running_seen: None,
                    next_poll: now + timing.poll,
                })
                .waiters
                .push(Waiter {
                    due,
                    spec: req.spec,
                    span,
                });
            continue;
        }

        let due_poll = watching
            .iter()
            .min_by_key(|(_, w)| w.next_poll)
            .filter(|(_, w)| w.next_poll <= now)
            .map(|(id, _)| id.clone());
        if let Some(id) = due_poll {
            let t0 = Instant::now();
            let state = service.status(&id);
            rep.status_polls += 1;
            let w = watching.get_mut(&id).expect("polled job is watched");
            let parent = w.waiters[0].span;
            timed(tracer, "serve.status", parent, &id, t0);
            let oldest_due = w.waiters.iter().map(|x| x.due).min().expect("a waiter");
            match state {
                Ok(JobState::Queued | JobState::Running)
                    if now.duration_since(oldest_due) > timing.deadline =>
                {
                    let w = watching.remove(&id).expect("watched");
                    for waiter in &w.waiters {
                        close(tracer, waiter.span, &id, waiter.due, now);
                        rep.failures.push(format!(
                            "job {id} missed its {:?} deadline",
                            timing.deadline
                        ));
                    }
                }
                Ok(JobState::Queued) => w.next_poll = now + timing.poll,
                Ok(JobState::Running) => {
                    w.running_seen.get_or_insert(now);
                    w.next_poll = now + timing.poll;
                }
                Ok(JobState::Done) => {
                    let w = watching.remove(&id).expect("watched");
                    let t1 = Instant::now();
                    let body = service.fetch(&id);
                    let done = Instant::now();
                    rep.fetch_s.push(done.duration_since(t1).as_secs_f64());
                    timed(tracer, "serve.fetch", parent, &id, t1);
                    last_result = done;
                    let running = w.running_seen.unwrap_or(now);
                    rep.queue_wait
                        .push(running.duration_since(w.submitted).as_secs_f64());
                    rep.run.push(now.duration_since(running).as_secs_f64());
                    for waiter in &w.waiters {
                        let checked = body
                            .as_ref()
                            .map_err(Clone::clone)
                            .and_then(|b| check(waiter.spec, b));
                        match checked {
                            Ok(()) => {
                                rep.cold.push(done.duration_since(waiter.due).as_secs_f64());
                                rep.cold_at.push(done.duration_since(start).as_secs_f64());
                            }
                            Err(e) => rep.failures.push(e),
                        }
                        close(tracer, waiter.span, &id, waiter.due, done);
                    }
                    if let Ok(b) = body {
                        rep.cold_bodies.entry(w.waiters[0].spec).or_insert(b);
                    }
                }
                Ok(JobState::Failed(e)) | Err(e) => {
                    let w = watching.remove(&id).expect("watched");
                    for waiter in &w.waiters {
                        close(tracer, waiter.span, &id, waiter.due, now);
                        rep.failures.push(e.clone());
                    }
                }
            }
            continue;
        }

        if next >= schedule.len() && watching.is_empty() {
            break;
        }
        let wake = schedule
            .get(next)
            .map(|r| start + secs(r.due))
            .into_iter()
            .chain(watching.values().map(|w| w.next_poll))
            .min()
            .unwrap_or(now);
        let nap = wake
            .saturating_duration_since(now)
            .min(Duration::from_millis(1));
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
    rep.wall = last_result.duration_since(start).as_secs_f64();
    rep
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// `true` when the engine backlog seen at each send grew over the run:
/// the last quarter's mean is more than twice the first quarter's plus
/// two jobs.
pub fn backlog_grew(backlog: &[usize]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - q..]) > 2.0 * mean(&backlog[..q]) + 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// A single-runner stub: jobs finish in submission order, each
    /// taking `work`, except the job of `stall_spec`, which takes
    /// `stall`. Repeats of a finished spec are store hits.
    struct Stub {
        work: Duration,
        stall_spec: usize,
        stall: Duration,
        runner_free: Instant,
        jobs: Vec<(String, Instant)>,
        perturb: bool,
    }

    impl Stub {
        fn new(work_ms: u64, stall_spec: usize, stall_ms: u64) -> Self {
            Stub {
                work: Duration::from_millis(work_ms),
                stall_spec,
                stall: Duration::from_millis(stall_ms),
                runner_free: Instant::now(),
                jobs: Vec::new(),
                perturb: false,
            }
        }
    }

    impl JobService for Stub {
        fn submit(&mut self, spec: &str) -> Result<Submitted, String> {
            let now = Instant::now();
            if let Some(i) = self.jobs.iter().position(|(s, _)| s == spec) {
                let done = self.jobs[i].1 <= now;
                return Ok(Submitted {
                    id: i.to_string(),
                    cached: done,
                    coalesced: !done,
                });
            }
            let cost = if spec == self.stall_spec.to_string() {
                self.stall
            } else {
                self.work
            };
            self.runner_free = self.runner_free.max(now) + cost;
            self.jobs.push((spec.to_owned(), self.runner_free));
            Ok(Submitted {
                id: (self.jobs.len() - 1).to_string(),
                cached: false,
                coalesced: false,
            })
        }

        fn status(&mut self, id: &str) -> Result<JobState, String> {
            let i: usize = id.parse().map_err(|_| "bad id".to_owned())?;
            Ok(if self.jobs[i].1 <= Instant::now() {
                JobState::Done
            } else {
                JobState::Running
            })
        }

        fn fetch(&mut self, id: &str) -> Result<Vec<u8>, String> {
            let i: usize = id.parse().map_err(|_| "bad id".to_owned())?;
            let mut body = self.jobs[i].0.clone().into_bytes();
            if self.perturb && i == 1 {
                body.push(b'!');
            }
            Ok(body)
        }
    }

    fn specs(n: usize) -> Vec<String> {
        (0..n).map(|i| i.to_string()).collect()
    }

    fn check(spec: usize, body: &[u8]) -> Result<(), String> {
        (body == spec.to_string().as_bytes())
            .then_some(())
            .ok_or_else(|| format!("spec {spec}: report differs"))
    }

    /// 100 engine requests every 4 ms, each 1 ms of work.
    fn cold_schedule() -> Vec<Request> {
        (0..100)
            .map(|i| Request {
                due: 0.004 * f64::from(i),
                spec: i as usize,
            })
            .collect()
    }

    #[test]
    fn a_stall_shows_as_latency_while_the_generator_stays_on_time() {
        let timing = Timing {
            poll: Duration::from_micros(200),
            deadline: Duration::from_secs(5),
        };
        let base = run_open_loop(
            &mut Stub::new(1, usize::MAX, 0),
            &specs(100),
            &cold_schedule(),
            &check,
            timing,
            None,
        );
        // Request 10 stalls the single runner for 150 ms; the requests
        // due behind it queue up.
        let stalled = run_open_loop(
            &mut Stub::new(1, 10, 150),
            &specs(100),
            &cold_schedule(),
            &check,
            timing,
            None,
        );
        for rep in [&base, &stalled] {
            assert!(rep.failures.is_empty(), "{:?}", rep.failures);
            assert_eq!(rep.cold.len(), 100);
        }
        let p90 = |v: &[f64]| percentile(v, 0.9).unwrap();
        assert!(p90(&base.cold) < 0.02, "base p90 {}", p90(&base.cold));
        assert!(
            p90(&stalled.cold) > 0.05,
            "stalled p90 {}",
            p90(&stalled.cold)
        );
        // Measured from the due time, the request right behind the stall
        // waited for most of it.
        assert!(stalled.cold[11] > 0.1, "{}", stalled.cold[11]);
        let lag_max = stalled.lag.iter().copied().fold(0.0, f64::max);
        assert!(lag_max < 0.02, "generator ran {lag_max} s late");
    }

    #[test]
    fn repeats_are_warm_duplicates_coalesce_and_bad_bytes_fail() {
        let mut schedule = vec![
            Request { due: 0.0, spec: 0 },
            Request {
                due: 0.001,
                spec: 1,
            },
            Request {
                due: 0.002,
                spec: 1,
            },
            Request { due: 0.2, spec: 0 },
        ];
        schedule.sort_by(|a, b| a.due.total_cmp(&b.due));
        let timing = Timing::default();
        let rep = run_open_loop(
            &mut Stub::new(50, usize::MAX, 0),
            &specs(2),
            &schedule,
            &check,
            timing,
            None,
        );
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!((rep.cold.len(), rep.warm.len(), rep.coalesced), (3, 1, 1));
        assert!(rep.status_polls > 0);

        let mut bad = Stub::new(50, usize::MAX, 0);
        bad.perturb = true;
        let rep = run_open_loop(&mut bad, &specs(2), &schedule, &check, timing, None);
        // Both requests for spec 1 got perturbed bytes.
        assert_eq!(rep.failures.len(), 2, "{:?}", rep.failures);
        assert_eq!(rep.attempted, 4);
    }

    #[test]
    fn a_job_past_its_deadline_fails_instead_of_hanging() {
        let timing = Timing {
            poll: Duration::from_millis(1),
            deadline: Duration::from_millis(30),
        };
        let schedule = [Request { due: 0.0, spec: 0 }];
        let started = Instant::now();
        let rep = run_open_loop(
            &mut Stub::new(10_000, usize::MAX, 0),
            &specs(1),
            &schedule,
            &check,
            timing,
            None,
        );
        assert_eq!(rep.failures.len(), 1);
        assert!(rep.failures[0].contains("deadline"));
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn backlog_growth_is_detected() {
        assert!(!backlog_grew(&[1, 0, 2, 1, 1, 0, 2, 1]));
        assert!(backlog_grew(&[0, 1, 0, 1, 5, 8, 12, 16]));
    }
}
