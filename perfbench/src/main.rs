//! `perfbench` — one learn-and-serve run of a workload, end to end, in one
//! process:
//!
//! 1. **Setup** (`setup_s`): generate the dataset, write it in the
//!    `datasets::io` layout, boot the real server on it (load + index), wait
//!    for `/healthz`. Done [`SETUP_REPS`] times here and once more after
//!    every learned fold and every `/predict` round; `setup_s` is the median.
//! 2. **Learn** (`learn_cpu_s`, `learn_s`): every fold of a [`FOLDS`]-fold
//!    split, as Table 5 does — bias construction plus
//!    `Learner::learn_with_progress`, with `AUTOBIAS_THREADS` pinned to
//!    [`LEARN_THREADS`] — in rounds for [`LEARN_SHARE`] of `--seconds`.
//! 3. **Upload**: `POST /models/{name}` of fold 0's model, [`UPLOADS`] times.
//! 4. **Predict** (`predict_tps`, `predict_p50_ms`): a closed loop of
//!    64-tuple `/predict` batches from [`CONNECTIONS`] keep-alive
//!    connections for the rest of `--seconds`, in [`PREDICT_ROUNDS`] rounds,
//!    cycling through every example in an order drawn from `--seed`.
//! 5. **Memory** (`peak_rss_mb`): the process high-water mark, read here.
//! 6. **Score** (`f_measure`): held-out F-measure per fold.
//!
//! Before every set-up, and so between every two learns and rounds, the run
//! times a fixed calibration kernel ([`calib`]); the end-to-end timings are
//! reported divided by how much slower than in the reference runs it ran.
//!
//! Every output is checked (see `README.md`); each check is one operation
//! in `attempted`, and a miss is one in `failed`. `--trace 1` additionally
//! learns every fold again under an installed [`obs::TraceCtx`] and reports
//! the per-layer metrics instead of the end-to-end ones, plus a JSON report
//! under `perfbench/out/`.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1`

mod calib;
mod client;
mod measure;
mod spans;

use autobias::clause::Definition;
use autobias::coverage::CoverageEngine;
use autobias::eval::{evaluate_definition, kfold_splits};
use autobias::example::TrainingSet;
use autobias::learn::{clause_confusion, Learner, LearnerConfig, MinCriterion};
use autobias::query::{definition_covers_args, EvalScratch, QueryConfig};
use autobias_bench::harness::{bias_for, learner_config, HarnessConfig, Method};
use autobias_serve::{serve, ServeConfig, ServerHandle};
use calib::Calibration;
use client::{metric_sample, oneshot, Client};
use datasets::Dataset;
use measure::{f_from_counts, mean, median, percentile, CpuSample};
use obs::json::Json;
use obs::progress::{ProgressEvent, ProgressSink};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::Const;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cross-validation folds per run (the repository's Table 5 harness
/// default for `bench_json`).
const FOLDS: usize = 2;
/// Seed of the learning half's inputs: dataset, fold split and learner RNG
/// (the Table 5 harness default). Fixed, so that every run learns the same
/// definitions and run-to-run spread in learning time is the machine's, not the
/// data's; `--seed` drives the `/predict` traffic.
const DATA_SEED: u64 = 7;
/// Set-ups before the first timed phase. One more follows every learned
/// fold and every `/predict` round, in a directory of its own, so that
/// `setup_s` (the median of them all) samples the whole run rather than its
/// first moments.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` spent learning folds over and over; the closed
/// `/predict` loop takes the rest.
const LEARN_SHARE: f64 = 0.6;
/// Learning rounds (every fold once) per run at least, whatever `--seconds`.
const MIN_LEARN_ROUNDS: usize = 3;
/// The learner's worker count (`AUTOBIAS_THREADS`). One: all of learning
/// then runs on the thread that calls it, whose CPU clock the kernel keeps to
/// the nanosecond, and no per-call thread spawns or cross-core hand-offs
/// enter the timings.
const LEARN_THREADS: usize = 1;
/// Model uploads per run; `serve.upload_ms` is their median.
const UPLOADS: usize = 64;
/// Rounds the uploads are split into, each on a fresh connection.
const UPLOAD_ROUNDS: usize = 8;
/// Closed-loop `/predict` connections.
const CONNECTIONS: usize = 2;
/// Tuples per `/predict` request.
const BATCH: usize = 64;
/// Rounds of the closed `/predict` loop, each on fresh connections.
const PREDICT_ROUNDS: usize = 40;
/// Untimed requests per connection at the start of each round.
const WARMUP_REQUESTS: usize = 20;
/// Table 5 column every workload learns with: the induced bias.
const METHOD: Method = Method::AutoBias;
/// Name the learned model is uploaded under.
const MODEL: &str = "perfbench";

#[derive(Debug, Clone, Copy)]
enum Data {
    Uw,
    Hiv,
}

struct Workload {
    name: &'static str,
    data: Data,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "uw_learn_serve",
        data: Data::Uw,
    },
    Workload {
        name: "hiv_learn_serve",
        data: Data::Hiv,
    },
];

/// The datasets are 0.3 times the Table 5 profiles (`UwConfig::default()`,
/// `HivConfig::default()`), so that a fold learns in about a second and one
/// run learns every fold several times: the learning metrics are medians
/// over those repeats rather than one sample each.
fn generate(data: Data) -> Dataset {
    match data {
        Data::Uw => datasets::uw::generate(
            &datasets::uw::UwConfig {
                students: 45,
                professors: 14,
                courses: 18,
                advised_pairs: 31,
                negatives: 61,
                noise_publications: 18,
                noise_coauthor_pairs: 2,
                ..datasets::uw::UwConfig::default()
            },
            DATA_SEED,
        ),
        Data::Hiv => datasets::hiv::generate(
            &datasets::hiv::HivConfig {
                compounds: 165,
                positives: 45,
                negatives: 90,
                ..datasets::hiv::HivConfig::default()
            },
            DATA_SEED,
        ),
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output checks: each is one attempted operation; a miss is one failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// `attempted` operations of one kind at once, `failed` of them missed.
    fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sums the beam-search work reported through the progress channel.
#[derive(Default)]
struct SearchTally {
    armg_calls: AtomicU64,
}

impl ProgressSink for SearchTally {
    fn on_event(&self, ev: &ProgressEvent) {
        if let ProgressEvent::ClauseSearched { armg_calls, .. } = ev {
            self.armg_calls
                .fetch_add(*armg_calls as u64, Ordering::Relaxed);
        }
    }
}

/// One fold learned: the definition and what it cost.
struct FoldLearn {
    def: Definition,
    text: String,
    wall_s: f64,
    /// CPU time of the learning thread, to the nanosecond where the kernel
    /// exports it, else the process's user + sys ticks.
    cpu_s: f64,
    sys_s: f64,
    ground_literals: usize,
    armg_calls: u64,
}

fn harness() -> HarnessConfig {
    HarnessConfig {
        folds: FOLDS,
        seed: DATA_SEED,
        ..HarnessConfig::default()
    }
}

/// Table 5's learner settings with two changes. No time budget: a budget
/// would make the learned definition depend on machine speed. Clause
/// reduction on, as `autobias learn` and serve's learn jobs default to: the
/// unreduced clauses of the Table 5 harness run to hundreds of literals,
/// which no one serves and the plan compiler declines.
fn learner_cfg() -> LearnerConfig {
    let h = harness();
    LearnerConfig {
        time_budget: None,
        reduce_clauses: true,
        ..learner_config(&h, h.budget)
    }
}

/// Bias construction plus `Learner::learn_with_progress` on one fold: the
/// interval Table 5's time column measures.
fn learn_fold(ds: &Dataset, train: &TrainingSet) -> Result<FoldLearn, String> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let sink = SearchTally::default();
    let c0 = CpuSample::read();
    let thread0 = measure::thread_cpu_s();
    let t0 = Instant::now();
    let (bias, _) = bias_for(METHOD, ds)?;
    let (def, stats) =
        Learner::new(learner_cfg()).learn_with_progress(&ds.db, &bias, train, &NEVER, &sink);
    let wall_s = t0.elapsed().as_secs_f64();
    let thread1 = measure::thread_cpu_s();
    let (_, user_s, sys_s) = CpuSample::read().since(&c0);
    let cpu_s = match (thread0, thread1) {
        (Some(a), Some(b)) => b - a,
        _ => user_s + sys_s,
    };
    Ok(FoldLearn {
        text: def.render(&ds.db),
        def,
        wall_s,
        cpu_s,
        sys_s,
        ground_literals: stats.ground_literals,
        armg_calls: sink.armg_calls.load(Ordering::Relaxed),
    })
}

fn counters() -> BTreeMap<&'static str, u64> {
    obs::metrics::registered()
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect()
}

fn counter_deltas(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(&n, &v)| (n, v.saturating_sub(before.get(n).copied().unwrap_or(0))))
        .collect()
}

fn boot(data_dir: &Path, models_dir: &Path) -> Result<ServerHandle, String> {
    std::fs::create_dir_all(models_dir).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data_dir.to_path_buf(),
        models_dir: models_dir.to_path_buf(),
        // One worker per held keep-alive connection plus one for one-shot
        // uploads and scrapes.
        threads: CONNECTIONS + 1,
        access_log: None,
        request_trace: false,
    };
    let (handle, _) = serve(&cfg)?;
    match oneshot(handle.addr(), "GET", "/healthz", "") {
        Ok((200, _)) => Ok(handle),
        other => Err(format!("healthz: {other:?}")),
    }
}

/// The set-up timings of a run, each right after a calibration kernel run
/// (see [`calib`]), so that the kernel samples the whole run too.
struct Setups {
    data: Data,
    /// Where the set-ups after the first timed phase began put their files.
    extra_dir: PathBuf,
    samples: Vec<f64>,
    calib: Calibration,
}

impl Setups {
    /// One set-up in `dir`: generate, write, boot (load + index), `/healthz`.
    fn once(&mut self, dir: &Path) -> Result<(Dataset, ServerHandle), String> {
        let _ = std::fs::remove_dir_all(dir);
        let data_dir = dir.join("data");
        self.calib.sample();
        let t0 = Instant::now();
        let ds = generate(self.data);
        datasets::io::save_dataset(&ds, &data_dir).map_err(|e| e.to_string())?;
        let server = boot(&data_dir, &dir.join("models"))?;
        self.samples.push(t0.elapsed().as_secs_f64());
        // The server raises the span recorder to Summary at boot; learning
        // and serving are measured with it off, as plain `autobias learn`
        // runs.
        obs::set_mode(obs::Mode::Off);
        Ok((ds, server))
    }

    /// One more set-up beside the server under test, torn down at once.
    fn extra(&mut self) -> Result<(), String> {
        let dir = self.extra_dir.clone();
        let (_, server) = self.once(&dir)?;
        shutdown(server)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
    }

    /// `setup_s`: the median over set-ups of each one's time divided by the
    /// slowdown the kernel run just before it measured. A set-up lasts a few
    /// milliseconds, so a burst of steal or of neighbour load slows it and
    /// its kernel run alike.
    fn setup_s(&self) -> f64 {
        let paired: Vec<f64> = self
            .samples
            .iter()
            .zip(self.calib.samples())
            .map(|(&s, &k)| s * calib::REFERENCE_KERNEL_S / k)
            .collect();
        median(&paired)
    }
}

fn shutdown(handle: ServerHandle) -> Result<(), String> {
    let (status, _) =
        oneshot(handle.addr(), "POST", "/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
    handle.join();
    if status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown answered {status}"))
    }
}

/// One precomputed `/predict` request: body and the exact expected reply.
struct Batch {
    body: String,
    expected: String,
    tuples: Vec<Vec<Const>>,
}

/// The request cycle: every example, positives and negatives alike, in a
/// seeded order, cut into 64-tuple batches that wrap around the pool.
/// `pool.len() / gcd(pool.len(), 64)` batches cover every example equally
/// often. Expected verdicts come from the interpreter with an unlimited
/// node budget.
fn build_batches(ds: &Dataset, def: &Definition, seed: u64) -> Vec<Batch> {
    let mut pool: Vec<Vec<Const>> = ds
        .pos
        .iter()
        .chain(ds.neg.iter())
        .map(|e| e.args.to_vec())
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let n = pool.len();
    let rel = def.clauses.first().map_or(ds.target, |c| c.head.rel);
    let unlimited = QueryConfig {
        node_limit: usize::MAX,
    };
    let mut scratch = EvalScratch::default();
    (0..n / gcd(n, BATCH))
        .map(|b| {
            let tuples: Vec<Vec<Const>> = (0..BATCH)
                .map(|j| pool[(b * BATCH + j) % n].clone())
                .collect();
            let mut body = format!("model {MODEL}\n");
            let mut expected = String::new();
            for args in &tuples {
                let line: Vec<&str> = args.iter().map(|&c| ds.db.const_name(c)).collect();
                let line = line.join(",");
                let covered =
                    definition_covers_args(&ds.db, def, rel, args, &unlimited, &mut scratch);
                let verdict = if covered { "positive" } else { "negative" };
                writeln!(body, "{line}").expect("string write");
                writeln!(expected, "{line}\t{verdict}").expect("string write");
            }
            Batch {
                body,
                expected,
                tuples,
            }
        })
        .collect()
}

/// Compares one `/predict` reply against its batch: `(echo ok, verdicts
/// ok)`. The byte comparison is the fast path; a mismatch is split into its
/// two checks line by line.
fn judge(reply: &[u8], batch: &Batch) -> (bool, bool) {
    if reply == batch.expected.as_bytes() {
        return (true, true);
    }
    let reply = String::from_utf8_lossy(reply);
    let got: Vec<(&str, &str)> = reply
        .lines()
        .map(|l| l.split_once('\t').unwrap_or((l, "")))
        .collect();
    let want: Vec<(&str, &str)> = batch
        .expected
        .lines()
        .map(|l| l.split_once('\t').unwrap_or((l, "")))
        .collect();
    let same_len = got.len() == want.len();
    let echo = same_len && got.iter().zip(&want).all(|(g, w)| g.0 == w.0);
    let verdicts = same_len && got.iter().zip(&want).all(|(g, w)| g.1 == w.1);
    (echo, verdicts)
}

/// Result of the closed `/predict` loop.
struct LoopResult {
    latencies_us: Vec<f64>,
    /// Per round: tuples answered per second over the window every
    /// connection of the round was measuring in.
    round_tps: Vec<f64>,
    /// Per round: median request latency.
    round_p50_us: Vec<f64>,
    /// Per round: the share of the machine's CPU time the hypervisor did not
    /// steal.
    round_available: Vec<f64>,
    reconnects: u64,
}

/// One connection's share of a round; times are seconds since the round's
/// epoch.
struct ConnResult {
    latencies_us: Vec<f64>,
    done_s: Vec<f64>,
    start_s: f64,
    end_s: f64,
    echo_bad: u64,
    verdict_bad: u64,
    reconnects: u64,
}

/// Closed loop: each connection sends its next batch as soon as the
/// previous reply is read, and connection `c` walks batches `c, c + C, ...`
/// of the cycle. The loop runs in [`PREDICT_ROUNDS`] rounds, each on fresh
/// connections and client threads: on a 2-core machine the scheduler's
/// placement of the 2 client and 2 server threads settles into one of a few
/// states that last for seconds and differ by up to 40% in throughput, so
/// one long loop measures whichever state it landed in. Latency is measured
/// from send to the last reply byte. `between` runs after every round.
fn predict_loop(
    addr: std::net::SocketAddr,
    batches: &[Batch],
    seconds: f64,
    checks: &mut Checks,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<LoopResult, String> {
    let round_len = Duration::from_secs_f64(seconds / PREDICT_ROUNDS as f64);
    let mut out = LoopResult {
        latencies_us: Vec::new(),
        round_tps: Vec::new(),
        round_p50_us: Vec::new(),
        round_available: Vec::new(),
        reconnects: 0,
    };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64;
    let mut cursors: Vec<usize> = (0..CONNECTIONS).collect();
    for _ in 0..PREDICT_ROUNDS {
        let (c0, t0) = (CpuSample::read(), Instant::now());
        let conns = predict_round(addr, batches, round_len, &mut cursors)?;
        let (steal_s, _, _) = CpuSample::read().since(&c0);
        out.round_available
            .push(1.0 - steal_s / (cpus * t0.elapsed().as_secs_f64()));
        let lo = conns.iter().map(|c| c.start_s).fold(0.0, f64::max);
        let hi = conns.iter().map(|c| c.end_s).fold(f64::INFINITY, f64::min);
        let answered = conns
            .iter()
            .flat_map(|c| &c.done_s)
            .filter(|&&t| t >= lo && t <= hi)
            .count();
        out.round_tps
            .push((answered * BATCH) as f64 / (hi - lo).max(f64::EPSILON));
        let mut round_lat: Vec<f64> = conns
            .iter()
            .flat_map(|c| &c.latencies_us)
            .copied()
            .collect();
        round_lat.sort_by(f64::total_cmp);
        out.round_p50_us.push(percentile(&round_lat, 0.50));
        for c in conns {
            let requests = c.latencies_us.len() as u64;
            checks.count(requests, c.echo_bad, || {
                format!(
                    "{} /predict replies did not echo their tuples in order",
                    c.echo_bad
                )
            });
            checks.count(requests, c.verdict_bad, || {
                format!(
                    "{} /predict verdicts disagree with the interpreter",
                    c.verdict_bad
                )
            });
            out.latencies_us.extend(c.latencies_us);
            out.reconnects += c.reconnects;
        }
        between()?;
    }
    Ok(out)
}

/// One round of the closed loop: [`CONNECTIONS`] fresh connections warm up,
/// meet at a barrier, then send for `len`.
fn predict_round(
    addr: std::net::SocketAddr,
    batches: &[Batch],
    len: Duration,
    cursors: &mut [usize],
) -> Result<Vec<ConnResult>, String> {
    let epoch = Instant::now();
    let warm = std::sync::Barrier::new(CONNECTIONS);
    let warm = &warm;
    let connection = |mut next: usize| -> Result<(ConnResult, usize), String> {
        let mut reply = Vec::new();
        let warmed = Client::connect(addr)
            .and_then(|mut client| {
                for _ in 0..WARMUP_REQUESTS {
                    let batch = &batches[next % batches.len()];
                    client.post("/predict", &batch.body, &mut reply)?;
                    next += CONNECTIONS;
                }
                Ok(client)
            })
            .map_err(|e| format!("warm-up: {e}"));
        // Every connection reaches the barrier, failed or not, so a failure
        // on one cannot leave the other waiting.
        warm.wait();
        let mut client = warmed?;
        let t0 = Instant::now();
        let mut out = ConnResult {
            latencies_us: Vec::new(),
            done_s: Vec::new(),
            start_s: t0.duration_since(epoch).as_secs_f64(),
            end_s: 0.0,
            echo_bad: 0,
            verdict_bad: 0,
            reconnects: 0,
        };
        while t0.elapsed() < len {
            let batch = &batches[next % batches.len()];
            next += CONNECTIONS;
            let sent = Instant::now();
            let status = client
                .post("/predict", &batch.body, &mut reply)
                .map_err(|e| format!("predict: {e}"))?;
            let done = Instant::now();
            out.latencies_us
                .push(done.duration_since(sent).as_nanos() as f64 / 1e3);
            out.done_s.push(done.duration_since(epoch).as_secs_f64());
            let (echo, verdicts) = if status == 200 {
                judge(&reply, batch)
            } else {
                (false, false)
            };
            out.echo_bad += u64::from(!echo);
            out.verdict_bad += u64::from(!verdicts);
        }
        out.end_s = epoch.elapsed().as_secs_f64();
        out.reconnects = client.reconnects;
        Ok((out, next))
    };
    let joined: Vec<Result<(ConnResult, usize), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = cursors
            .iter()
            .map(|&next| s.spawn(move || connection(next)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("loop thread panicked".into()))
            })
            .collect()
    });
    let mut conns = Vec::new();
    for (cursor, j) in cursors.iter_mut().zip(joined) {
        let (c, next) = j?;
        *cursor = next;
        conns.push(c);
    }
    Ok(conns)
}

/// In-process plan execution over the batch cycle, as the server's
/// compiled path runs it (tallied, interpreter for declined clauses).
/// Returns `(us per tuple, candidates per tuple, backtracks per tuple)`.
fn exec_profile(ds: &Dataset, def: &Definition, batches: &[Batch]) -> (f64, f64, f64) {
    let plans = plan::compile_definition(&ds.db, def, &plan::CompileConfig::default());
    let rel = def.clauses.first().map_or(ds.target, |c| c.head.rel);
    let qcfg = QueryConfig::default();
    let mut scratch = EvalScratch::default();
    let mut exec = plan::ExecScratch::default();
    let n: usize = batches.iter().map(|b| b.tuples.len()).sum();
    let mut pass = || {
        let mut tally = plan::BatchTally::for_definition(&plans);
        for args in batches.iter().flat_map(|b| &b.tuples) {
            let mut covered = plans.covers_compiled_tallied(&ds.db, args, &mut exec, &mut tally);
            if !covered && !plans.is_fully_compiled() {
                covered = plans.declined().iter().any(|&(i, _)| {
                    autobias::query::clause_covers_args(
                        &ds.db,
                        &def.clauses[i],
                        rel,
                        args,
                        &qcfg,
                        &mut scratch,
                    )
                });
            }
            std::hint::black_box(covered);
        }
        tally.totals()
    };
    let totals = pass();
    let mut per_pass = Vec::new();
    let t0 = Instant::now();
    while per_pass.len() < 5 || t0.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        pass();
        per_pass.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let n = n as f64;
    (
        median(&per_pass) / n,
        totals.candidates as f64 / n,
        totals.backtracks as f64 / n,
    )
}

/// Median wall time of `reps` calls, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    median(&samples)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON number; a non-finite value (never expected) reads as 0 so the
/// line stays valid JSON.
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_json(metrics: &[Metric]) -> Json {
    obj(metrics
        .iter()
        .map(|m| {
            let value = obj(vec![
                ("value", num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name, value)
        })
        .collect())
}

/// The run's result: the last line of standard output.
fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    obj(vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", num(checks.attempted as f64)),
        ("failed", num(checks.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .to_string()
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let seed = args.seed;
    // The learner's worker count, pinned before any library call reads it
    // (`coverage::worker_threads`).
    let threads = LEARN_THREADS;
    std::env::set_var("AUTOBIAS_THREADS", threads.to_string());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work =
        WorkDir(
            root.join("work")
                .join(format!("{}-{}-{}", w.name, seed, std::process::id())),
        );
    let mut checks = Checks::default();
    let run_c0 = CpuSample::read();

    // 1. Setup: generate, write, boot (load + index) — several times; the
    // last server stays up.
    let mut setups = Setups {
        data: w.data,
        extra_dir: work.0.join("setup"),
        samples: Vec::new(),
        calib: Calibration::default(),
    };
    for _ in 1..SETUP_REPS {
        setups.extra()?;
    }
    let (ds, server) = setups.once(&work.0.join("main"))?;
    println!(
        "workload {} (traffic seed {seed}, data seed {DATA_SEED}): {} | folds {FOLDS} | \
         AUTOBIAS_THREADS={threads}",
        w.name,
        ds.summary()
    );

    // 2. Learn every fold, round after round, for LEARN_SHARE of the run;
    // each learn is followed by one more set-up. Every round must learn the
    // definitions of the first. A traced run then learns each fold once more
    // under a TraceCtx.
    let splits = kfold_splits(&ds.pos, &ds.neg, FOLDS, DATA_SEED);
    let learn_end = Instant::now() + Duration::from_secs_f64(args.seconds * LEARN_SHARE);
    let mut learned: Vec<FoldLearn> = Vec::new();
    let mut repeats: Vec<Vec<FoldLearn>> = (0..FOLDS).map(|_| Vec::new()).collect();
    let mut rounds = 0;
    while rounds < MIN_LEARN_ROUNDS || Instant::now() < learn_end {
        for (fold, (train, _)) in splits.iter().enumerate() {
            let f = learn_fold(&ds, train)?;
            match learned.get(fold) {
                None => learned.push(f),
                Some(first) => {
                    checks.check(f.text == first.text, || {
                        format!("fold {fold}: round {rounds} learned another definition")
                    });
                    repeats[fold].push(f);
                }
            }
            setups.extra()?;
        }
        rounds += 1;
    }
    // Per fold the median over rounds, then the mean over folds.
    let fold_median = |fold: usize, of: fn(&FoldLearn) -> f64| {
        let all = std::iter::once(&learned[fold]).chain(&repeats[fold]);
        median(&all.map(of).collect::<Vec<_>>())
    };
    let per_fold = |of: fn(&FoldLearn) -> f64| {
        mean(
            &(0..FOLDS)
                .map(|fold| fold_median(fold, of))
                .collect::<Vec<_>>(),
        )
    };
    let learn_s = per_fold(|f| f.wall_s);
    let learn_cpu_s = per_fold(|f| f.cpu_s);
    let learn_sys_s = per_fold(|f| f.sys_s);
    for (fold, f) in learned.iter().enumerate() {
        eprintln!(
            "fold {fold}: {} clause(s), learned {rounds} times in a median {:.3} s",
            f.def.len(),
            fold_median(fold, |f| f.wall_s)
        );
    }
    let mut traced = args.trace.then(Traced::default);
    if let Some(t) = traced.as_mut() {
        for (fold, ((train, _), f)) in splits.iter().zip(&learned).enumerate() {
            t.learn_fold(&ds, train, fold, f, &mut checks)?;
        }
    }

    // Output checks on the learned clauses (outside every timed window).
    let min = MinCriterion::default();
    let cfg = learner_cfg();
    for (fold, ((train, _), f)) in splits.iter().zip(&learned).enumerate() {
        let (bias, _) = bias_for(METHOD, &ds)?;
        let engine = CoverageEngine::build(&ds.db, &bias, train, &cfg.bc, cfg.subsume, cfg.seed);
        for clause in &f.def.clauses {
            checks.check(
                clause.head_connected_indices().len() == clause.body.len(),
                || {
                    format!(
                        "fold {fold}: clause not head-connected: {}",
                        clause.render(&ds.db)
                    )
                },
            );
            let (p, n) = clause_confusion(clause, &engine);
            let precision = if p == 0 {
                0.0
            } else {
                p as f64 / (p + n) as f64
            };
            checks.check(
                p >= min.min_pos_covered && precision >= min.min_precision,
                || {
                    format!(
                        "fold {fold}: clause fails the acceptance rule (p={p}, n={n}): {}",
                        clause.render(&ds.db)
                    )
                },
            );
        }
    }

    // 3–4. Upload fold 0's model, then the closed /predict loop.
    let addr = server.addr();
    let model_text = format!("{}\n", learned[0].text);
    let clauses = learned[0].def.len();
    let lens: Vec<usize> = learned[0]
        .def
        .clauses
        .iter()
        .map(|c| c.body.len())
        .collect();
    println!(
        "model: fold 0, {clauses} clause(s) of {}-{} body literals",
        lens.iter().min().unwrap_or(&0),
        lens.iter().max().unwrap_or(&0)
    );
    // Rounds on fresh connections, apart in time: the server worker that
    // takes a connection, and the core it runs on, differ between rounds, so
    // the median spans those placements instead of depending on one.
    let mut upload_ms: Vec<f64> = Vec::new();
    let mut reply = Vec::new();
    for _ in 0..UPLOAD_ROUNDS {
        std::thread::sleep(Duration::from_millis(20));
        let mut uploader = Client::connect(addr).map_err(|e| format!("upload: {e}"))?;
        for _ in 0..UPLOADS / UPLOAD_ROUNDS {
            let t = Instant::now();
            let status = uploader
                .post(&format!("/models/{MODEL}"), &model_text, &mut reply)
                .map_err(|e| format!("upload: {e}"))?;
            upload_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
            let body = String::from_utf8_lossy(&reply);
            checks.check(
                status == 201 && body.contains(&format!("\"clauses\": {clauses},")),
                || format!("upload answered {status}: {body:.200}"),
            );
        }
        // Dropping the connection frees the server worker it holds.
    }
    let (served_def, _) = autobias::clause_text::parse_definition_frozen(&ds.db, &model_text)
        .map_err(|e| format!("model text does not parse back: {e}"))?;
    let batches = build_batches(&ds, &served_def, seed);
    let serve_layers = if args.trace {
        let (check_ms, compile_ms) = (
            median_ms(UPLOADS, || {
                std::hint::black_box(analyze::check_model_source(&ds.db, &model_text, None));
            }),
            median_ms(UPLOADS, || {
                std::hint::black_box(plan::compile_definition(
                    &ds.db,
                    &served_def,
                    &plan::CompileConfig::default(),
                ));
            }),
        );
        Some((
            check_ms,
            compile_ms,
            exec_profile(&ds, &served_def, &batches),
        ))
    } else {
        None
    };
    let scrape = |what: &str| {
        oneshot(addr, "GET", "/metrics", "").map_err(|e| format!("{what} scrape: {e}"))
    };
    let (_, metrics_before) = scrape("pre-loop")?;
    let lp = predict_loop(
        addr,
        &batches,
        args.seconds * (1.0 - LEARN_SHARE),
        &mut checks,
        &mut || setups.extra(),
    )?;
    let (_, metrics_after) = scrape("post-loop")?;
    shutdown(server)?;
    let mut lat = lp.latencies_us.clone();
    lat.sort_by(f64::total_cmp);
    let p99_us = percentile(&lat, 0.99);
    // Per round, throughput per share of CPU time the hypervisor left the
    // machine: a round that loses a third of its CPU time to steal answers
    // about a third fewer requests, since every request crosses both cores.
    let tps_available: Vec<f64> = lp
        .round_tps
        .iter()
        .zip(&lp.round_available)
        .map(|(tps, avail)| tps / avail.max(0.05))
        .collect();
    let predict_tps = median(&tps_available);
    let p50_us = median(&lp.round_p50_us);
    let scrape_delta = |name: &str| {
        metric_sample(&metrics_after, name).unwrap_or(0.0)
            - metric_sample(&metrics_before, name).unwrap_or(0.0)
    };

    // 5. Peak memory, before held-out evaluation.
    let peak_rss_mb = measure::peak_rss_mb();

    // 6. Held-out scoring, F recomputed from the confusion counts.
    let t_eval = Instant::now();
    let mut fms = Vec::new();
    for (fold, ((_, test), f)) in splits.iter().zip(&learned).enumerate() {
        let (bias, _) = bias_for(METHOD, &ds)?;
        let mx = evaluate_definition(&ds.db, &bias, &f.def, test, harness().depth, DATA_SEED);
        let fm = f_from_counts(mx.tp, mx.fp, mx.fn_);
        checks.check(
            mx.tp + mx.fn_ == test.pos.len() && (fm - mx.f_measure()).abs() < 1e-12,
            || {
                format!(
                    "fold {fold}: tp {} + fn {} vs {} test positives; F {fm} vs {}",
                    mx.tp,
                    mx.fn_,
                    test.pos.len(),
                    mx.f_measure()
                )
            },
        );
        fms.push(fm);
    }
    println!(
        "scoring: {:.2}s; peak RSS {peak_rss_mb:.1} MB before it, {:.1} MB after",
        t_eval.elapsed().as_secs_f64(),
        measure::peak_rss_mb()
    );
    let f_measure = mean(&fms);
    let (steal_s, user_s, sys_s) = CpuSample::read().since(&run_c0);
    let calib = &setups.calib;
    let slowdown = calib.slowdown();
    let parts = calib.parts_s();
    println!(
        "host: calibration kernel {:.3} ms (median of {}; far {:.3}, near {:.3}, search {:.3} ms), \
         {slowdown:.3}x the reference runs; bounded timings below are divided by it",
        calib.kernel_s() * 1e3,
        calib.samples().len(),
        parts[0] * 1e3,
        parts[1] * 1e3,
        parts[2] * 1e3,
    );
    println!(
        "raw: setup_s {} (median of {}) | learn_s {learn_s} | learn_cpu_s {learn_cpu_s} \
         ({rounds} rounds) | predict_tps {} ({predict_tps} per available CPU) | predict_p50_ms {}",
        median(&setups.samples),
        setups.samples.len(),
        median(&lp.round_tps),
        p50_us / 1e3
    );
    println!(
        "upload: median {:.4} ms over {UPLOADS} uploads (reference only: too unsteady to bound)",
        median(&upload_ms)
    );
    println!(
        "noise: cpu_steal_s {steal_s} | process user_s {user_s} sys_s {sys_s} | \
         AUTOBIAS_THREADS={threads}"
    );
    println!(
        "predict: {} requests x {BATCH} tuples over {CONNECTIONS} keep-alive connections \
         for {:.1}s in {PREDICT_ROUNDS} rounds ({} batches in the cycle); p99 {:.4} ms \
         (reference only: too unsteady to bound)",
        lat.len(),
        args.seconds * (1.0 - LEARN_SHARE),
        batches.len(),
        p99_us / 1e3
    );

    let metrics = match traced {
        None => vec![
            m("setup_s", setups.setup_s(), "s"),
            m("learn_s", learn_s / slowdown, "s"),
            m("learn_cpu_s", learn_cpu_s / slowdown, "s"),
            m("f_measure", f_measure, "ratio"),
            m("peak_rss_mb", peak_rss_mb, "MB"),
            m("predict_tps", predict_tps * slowdown, "tuples/s"),
            m("predict_p50_ms", p50_us / 1e3 / slowdown, "ms"),
        ],
        Some(t) => {
            let (check_ms, compile_ms, (exec_us, cands, backtracks)) =
                serve_layers.expect("traced run profiles the serve layers");
            let folds = FOLDS as f64;
            let span = |name: &str| t.spans.get(name).copied().unwrap_or_default();
            let secs = |us: u64| us as f64 / 1e6 / folds;
            let ctr = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64 / folds;
            let hits = ctr("autobias_core_coverage_cache_hits_total");
            let misses = ctr("autobias_core_coverage_cache_misses_total");
            let layers = vec![
                m(
                    "constraints.ind_discovery_s",
                    secs(span("bias.ind_discovery").total_us),
                    "s",
                ),
                m(
                    "core.bias_induce_s",
                    secs(span("bias.induce").total_us),
                    "s",
                ),
                m(
                    "core.bc_build_s",
                    secs(span("learn.bc_build").total_us),
                    "s",
                ),
                m(
                    "core.bottom_clauses",
                    ctr("autobias_core_bottom_clauses_total"),
                    "count",
                ),
                m("core.ground_literals", t.ground_literals / folds, "count"),
                m(
                    "core.coverage_theta_s",
                    secs(span("coverage.theta").total_us),
                    "s",
                ),
                m(
                    "core.coverage_calls",
                    span("coverage.theta").count as f64 / folds,
                    "count",
                ),
                m(
                    "core.subsumption_tests",
                    ctr("autobias_core_subsumption_tests_total"),
                    "count",
                ),
                m(
                    "core.subsume_domain_words",
                    ctr("autobias_core_subsume_domain_words_total"),
                    "count",
                ),
                m(
                    "core.coverage_cache_hit_ratio",
                    if hits + misses > 0.0 {
                        hits / (hits + misses)
                    } else {
                        0.0
                    },
                    "ratio",
                ),
                m(
                    "core.neg_tests_skipped",
                    ctr("autobias_core_neg_tests_skipped_total"),
                    "count",
                ),
                m(
                    "core.clause_search_self_s",
                    secs(span("learn.clause_search").self_us),
                    "s",
                ),
                m("core.armg_calls", t.armg_calls / folds, "count"),
                m(
                    "core.candidates_generated",
                    ctr("autobias_core_candidates_generated_total"),
                    "count",
                ),
                m(
                    "core.candidates_deduped",
                    ctr("autobias_core_candidates_deduped_total"),
                    "count",
                ),
                m(
                    "core.candidates_pruned",
                    ctr("autobias_core_candidates_pruned_total"),
                    "count",
                ),
                m(
                    "core.candidates_pruned_by_constraint",
                    ctr("autobias_core_candidates_pruned_by_constraint_total"),
                    "count",
                ),
                m("core.learn_self_s", secs(span("learn").self_us), "s"),
                m(
                    "core.clauses_accepted",
                    ctr("autobias_core_clauses_accepted_total"),
                    "count",
                ),
                m(
                    "core.clauses_rejected",
                    ctr("autobias_core_clauses_rejected_total"),
                    "count",
                ),
                m("core.learn_sys_cpu_s", learn_sys_s, "s"),
                m("analyze.check_ms", check_ms, "ms"),
                m("plan.compile_ms", compile_ms, "ms"),
                m("serve.upload_ms", median(&upload_ms), "ms"),
                m("plan.exec_us_per_tuple", exec_us, "us"),
                m("plan.candidates_per_tuple", cands, "count"),
                m("plan.backtracks_per_tuple", backtracks, "count"),
                m(
                    "plan.interpreted_tuples",
                    scrape_delta("autobias_predict_interpreted_tuples_total"),
                    "count",
                ),
                m(
                    "serve.http_us_per_request",
                    p50_us - exec_us * BATCH as f64,
                    "us",
                ),
                m(
                    "serve.keepalive_reuses",
                    scrape_delta("autobias_http_keepalive_reuses_total"),
                    "count",
                ),
                m("serve.reconnects", lp.reconnects as f64, "count"),
                m("obs.trace_overhead_ratio", t.learn_s() / learn_s, "ratio"),
                m("obs.dropped_spans", t.dropped as f64, "count"),
                m("host.cpu_steal_s", steal_s, "s"),
                m("host.slowdown", slowdown, "ratio"),
            ];
            let report = Report {
                workload: w.name,
                seed,
                threads,
                untraced_s: learn_s,
                traced: &t,
                layers: &layers,
                metrics_scrape: &metrics_after,
                noise: (steal_s, user_s, sys_s),
            };
            let path = root
                .join("out")
                .join(format!("trace-{}-seed{seed}.json", w.name));
            report.write(&path)?;
            println!("traced-run report: {}", path.display());
            layers
        }
    };
    drop(work);
    Ok(result_line(&checks, &metrics))
}

/// What the traced learns measured, summed over folds.
#[derive(Default)]
struct Traced {
    fold_wall_s: Vec<f64>,
    spans: BTreeMap<&'static str, spans::SpanTotals>,
    /// Per fold: span-covered time (the trees' root spans).
    fold_span_s: Vec<f64>,
    counters: BTreeMap<&'static str, u64>,
    dropped: u64,
    ground_literals: f64,
    armg_calls: f64,
}

impl Traced {
    /// Learns `fold` again with an [`obs::TraceCtx`] installed around it
    /// (bias construction included), so the program's own spans form one
    /// tree; checks the definition is byte-identical to the untraced one.
    fn learn_fold(
        &mut self,
        ds: &Dataset,
        train: &TrainingSet,
        fold: usize,
        untraced: &FoldLearn,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let before = counters();
        let ctx = obs::TraceCtx::begin(None);
        let f = {
            let _installed = ctx.install();
            learn_fold(ds, train)?
        };
        let tree = ctx.finish();
        for (name, delta) in counter_deltas(&before, &counters()) {
            *self.counters.entry(name).or_default() += delta;
        }
        checks.check(f.text == untraced.text, || {
            format!("fold {fold}: traced and untraced runs learned different definitions")
        });
        let roots_us: u64 = tree
            .spans
            .iter()
            .filter(|s| s.parent_id == 0)
            .map(|s| s.dur_us)
            .sum();
        spans::accumulate(&tree.spans, &mut self.spans);
        self.dropped += tree.dropped;
        self.fold_wall_s.push(f.wall_s);
        self.fold_span_s.push(roots_us as f64 / 1e6);
        self.ground_literals += f.ground_literals as f64;
        self.armg_calls += f.armg_calls as f64;
        Ok(())
    }

    /// Mean traced wall time per fold.
    fn learn_s(&self) -> f64 {
        mean(&self.fold_wall_s)
    }
}

/// The traced-run report: per-layer self times, counter deltas, the
/// `/metrics` scrape, unattributed learn time, and tracing overhead.
struct Report<'a> {
    workload: &'static str,
    seed: u64,
    threads: usize,
    /// Untraced learning wall time per fold (median over rounds, mean over
    /// folds).
    untraced_s: f64,
    traced: &'a Traced,
    layers: &'a [Metric],
    metrics_scrape: &'a str,
    noise: (f64, f64, f64),
}

impl Report<'_> {
    fn write(&self, path: &Path) -> Result<(), String> {
        let t = self.traced;
        let untraced_s = self.untraced_s;
        let (steal, user, sys) = self.noise;
        let folds = t
            .fold_wall_s
            .iter()
            .zip(&t.fold_span_s)
            .enumerate()
            .map(|(i, (&wall, &covered))| {
                obj(vec![
                    ("fold", num(i as f64)),
                    ("wall_s", num(wall)),
                    ("span_covered_s", num(covered)),
                    ("unattributed_s", num(wall - covered)),
                ])
            })
            .collect();
        let spans = t
            .spans
            .iter()
            .map(|(&name, s)| {
                let v = obj(vec![
                    ("count", num(s.count as f64)),
                    ("total_s", num(s.total_us as f64 / 1e6)),
                    ("self_s", num(s.self_us as f64 / 1e6)),
                ]);
                (name, v)
            })
            .collect();
        let counters = t
            .counters
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(&name, &v)| (name, num(v as f64)))
            .collect();
        let report = obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", num(self.seed as f64)),
            ("folds", num(FOLDS as f64)),
            ("autobias_threads", num(self.threads as f64)),
            (
                "noise",
                obj(vec![
                    ("cpu_steal_s", num(steal)),
                    ("user_s", num(user)),
                    ("sys_s", num(sys)),
                ]),
            ),
            (
                "tracing_overhead",
                obj(vec![
                    ("untraced_learn_s", num(untraced_s)),
                    ("traced_learn_s", num(t.learn_s())),
                    ("ratio", num(t.learn_s() / untraced_s)),
                    ("dropped_spans", num(t.dropped as f64)),
                ]),
            ),
            ("folds_traced", Json::Arr(folds)),
            ("spans", obj(spans)),
            ("counter_deltas", obj(counters)),
            ("per_layer", metrics_json(self.layers)),
            ("metrics_scrape", Json::Str(self.metrics_scrape.into())),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
