//! The repository benchmark: three closed-loop workloads over the xcbc
//! workspace, each checked op by op, plus a traced run that attributes
//! op time to the layers. See README.md for why each workload is here.
//!
//! ```text
//! perfbench --workload <svc-tenants|fleet-rollout|sched-sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod fleet;
mod redrive;
mod sched;
mod stats;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{ms, Tracer};

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// One workload: fixed op content generated from the seed, replayed in
/// the same order every run.
pub trait Workload {
    /// What an op returns for checking.
    type Output: PartialEq;
    /// What `throughput` counts.
    const WORK_UNIT: &'static str;

    /// Generate the inputs from the seed (bench side, not timed).
    fn new(seed: u64) -> Self;
    /// Program-side set-up before the first op.
    fn setup(&mut self);
    /// Distinct ops in the content; the timed window cycles through them.
    fn ops(&self) -> usize;
    /// Ops in one balanced round: the timed window ends on a round
    /// boundary, so every run times the same mix of op kinds.
    fn round(&self) -> usize;
    /// Ops re-driven per traced pass: a whole number of rounds, the same
    /// on every run so the traced counts repeat.
    fn traced_len(&self) -> usize;
    /// Op `i` as a user runs it.
    fn run(&mut self, i: usize) -> Self::Output;
    /// Op `i`'s checked output and its work units, or why a check failed.
    fn reference(&mut self, i: usize) -> Result<(Self::Output, u64), String>;
    /// Op `i` re-driven through the layers' public entry points, with spans.
    fn traced(&mut self, i: usize, t: &mut Tracer) -> Self::Output;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let args = Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload --seed --seconds --trace".into());
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports: the JSON line plus human-readable notes.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(
                    stats::valid_metric_name(m.name),
                    "bad metric name {}",
                    m.name
                );
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set up `SETUP_REPS` times, each with a warm-up op (the first ops of
/// the content in turn, so the median does not hang on one op's cost);
/// returns the median set-up time in seconds.
fn prepare<W: Workload>(seed: u64) -> (W, f64) {
    let mut w = W::new(seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        w.setup();
        black_box(w.run(rep % w.ops()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (w, stats::median(&setup_s).expect("set-up ran"))
}

/// Run `f`, appending its wall time in milliseconds to `log`.
fn timed<R>(log: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    log.push(ms(t0.elapsed()));
    out
}

/// Check each output against its op's reference, computed once per
/// distinct op after the timed window. Returns the work units of the
/// outputs that passed.
fn verify<W: Workload>(w: &mut W, outputs: &[(usize, W::Output)], out: &mut Outcome) -> u64 {
    let mut refs = BTreeMap::new();
    let mut work = 0;
    for (i, got) in outputs {
        out.attempted += 1;
        match refs.entry(*i).or_insert_with(|| w.reference(*i)) {
            Ok((want, units)) if want == got => work += *units,
            Ok(_) => out.fail(format!("op {i}: output differs from its checked reference")),
            Err(why) => out.fail(why.clone()),
        }
    }
    work
}

/// The untraced run: a closed loop cycling through the content until
/// `seconds` have elapsed, ending on a round boundary. Outputs are
/// checked after the window.
fn measure<W: Workload>(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, setup_s) = prepare::<W>(args.seed);
    let deadline = Duration::from_secs(args.seconds);
    let mut op_ms = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    while outputs.is_empty() || outputs.len() % w.round() != 0 || start.elapsed() < deadline {
        let i = outputs.len() % w.ops();
        let got = timed(&mut op_ms, || w.run(i));
        outputs.push((i, got));
    }
    let wall = start.elapsed().as_secs_f64();
    let work = verify(&mut w, &outputs, &mut out);
    let p50 = stats::median(&op_ms).expect("at least one op");
    let (q1, q3) = stats::quartiles(&op_ms).unwrap_or((p50, p50));
    let n = op_ms.len();
    out.notes.push(format!(
        "ops={n} failed={} rounds={} wall_s={wall:.3} work={work} ({})",
        out.failed,
        n / w.round(),
        W::WORK_UNIT
    ));
    out.notes
        .push(format!("op_ms q1={q1:.3} p50={p50:.3} q3={q3:.3}"));
    let p99 = stats::percentile(&op_ms, 99.0).expect("at least one op");
    out.notes.push(format!(
        "op_ms.p99={p99:.3} (diagnostic; {} samples beyond)",
        stats::samples_beyond(n, 99.0)
    ));
    match stats::tail_percentile(n) {
        Some(p) => out.notes.push(format!(
            "op_ms tail p{p}={:.3} (highest percentile with 10+ samples beyond)",
            stats::percentile(&op_ms, p).expect("at least one op")
        )),
        None => out
            .notes
            .push("op_ms tail: fewer than 10 samples beyond p90".into()),
    }
    out.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_ms.p50", p50, "ms"),
        metric("throughput", work as f64 / wall, "work/s"),
    ];
    out
}

/// One traced pass over the content: per-layer totals for that pass.
struct Pass {
    self_ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    sums: BTreeMap<&'static str, f64>,
    root_ms: f64,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

/// The traced run: whole passes over the first `traced_len` ops until
/// `seconds` have elapsed, each op run once as a user runs it and once
/// re-driven with spans. The re-driven output must equal the plain one,
/// and the plain one its reference.
fn trace<W: Workload>(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, _) = prepare::<W>(args.seed);
    let deadline = Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < deadline {
        let mut t = Tracer::default();
        let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
        for i in 0..w.traced_len() {
            t.begin_op(i);
            // whichever of the two runs second finds caches warm from the
            // first, so the order alternates
            let (plain, traced) = if (passes.len() + i) % 2 == 1 {
                let traced = timed(&mut traced_ms, || w.traced(i, &mut t));
                (timed(&mut plain_ms, || w.run(i)), traced)
            } else {
                let plain = timed(&mut plain_ms, || w.run(i));
                (plain, timed(&mut traced_ms, || w.traced(i, &mut t)))
            };
            if traced != plain {
                out.fail(format!(
                    "op {i}: re-driven output differs from the program's"
                ));
            }
            outputs.push((i, plain));
        }
        passes.push(Pass {
            self_ms: t.self_ms(),
            root_ms: t.root_ms(),
            counts: t.counts,
            sums: t.sums,
            plain_ms,
            traced_ms,
        });
    }
    verify(&mut w, &outputs, &mut out);
    for p in &passes[1..] {
        if p.counts != passes[0].counts {
            out.fail(format!(
                "deterministic counts differ between passes: {:?} vs {:?}",
                p.counts, passes[0].counts
            ));
        }
    }
    out.notes.push(format!(
        "traced passes={} ops/pass={} counts={:?}",
        passes.len(),
        w.traced_len(),
        passes[0].counts
    ));
    out.metrics = layer_metrics(&passes);
    out
}

/// Every per-layer metric, on every workload (a layer the workload does
/// not reach reads 0). Times and shares are medians over passes; counts
/// are per pass and repeat exactly.
fn layer_metrics(passes: &[Pass]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Pass) -> f64| {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let time = |name: &'static str| move |p: &Pass| p.self_ms.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| passes[0].counts.get(name).copied().unwrap_or(0) as f64;
    let sum = |name: &'static str| move |p: &Pass| p.sums.get(name).copied().unwrap_or(0.0);
    let (hits, misses) = (count("yum.cache.hits"), count("yum.cache.misses"));

    let ms_metric =
        |metric_name: &'static str, span: &'static str| metric(metric_name, med(&time(span)), "ms");
    let count_metric = |metric_name: &'static str, unit: &'static str| {
        metric(metric_name, count(metric_name), unit)
    };
    vec![
        ms_metric("svc.admit.ms", "svc.admit"),
        metric(
            "svc.admit.reject_ratio",
            ratio(count("svc.rejected"), count("svc.requests")),
            "ratio",
        ),
        ms_metric("svc.execute.ms", "svc.execute"),
        ms_metric("svc.journal.ms", "svc.journal"),
        count_metric("svc.journal.bytes", "bytes"),
        metric(
            "svc.partition.max_share",
            med(&|p: &Pass| {
                ratio(
                    sum("svc.partition.max_ms")(p),
                    sum("svc.partition.total_ms")(p),
                )
            }),
            "ratio",
        ),
        ms_metric("yum.solve.ms", "yum.solve"),
        count_metric("yum.solve.calls", "count"),
        metric("yum.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ms_metric("core.catalog.ms", "core.catalog"),
        ms_metric("core.deploy.ms", "core.deploy"),
        count_metric("core.deploy.calls", "count"),
        ms_metric("core.overlay.ms", "core.overlay"),
        ms_metric("core.compat.ms", "core.compat"),
        ms_metric("rpm.tx.ms", "rpm.tx"),
        count_metric("rpm.tx.packages", "count"),
        ms_metric("rocks.install.ms", "rocks.install"),
        count_metric("rocks.install.nodes", "count"),
        count_metric("fault.retries", "count"),
        count_metric("fault.quarantined", "count"),
        count_metric("sim.trace.events", "count"),
        ms_metric("sim.trace.render_ms", "sim.trace"),
        ms_metric("cluster.telemetry.ms", "cluster.telemetry"),
        metric(
            "fleet.long_pole_share",
            med(&|p: &Pass| ratio(sum("fleet.long_pole_ms")(p), p.root_ms)),
            "ratio",
        ),
        ms_metric("sched.stream.ms", "sched.stream"),
        ms_metric("sched.drain.ms.shallow", "sched.drain.shallow"),
        ms_metric("sched.drain.ms.mid", "sched.drain.mid"),
        ms_metric("sched.drain.ms.deep", "sched.drain.deep"),
        count_metric("sched.events", "count"),
        count_metric("sched.jobs", "count"),
        metric(
            "attributed_share",
            med(&|p: &Pass| ratio(p.root_ms, p.plain_ms.iter().sum())),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            med(&|p: &Pass| {
                ratio(
                    stats::median(&p.traced_ms).unwrap_or(0.0),
                    stats::median(&p.plain_ms).unwrap_or(0.0),
                )
            }),
            "ratio",
        ),
    ]
}

/// Median time of a fixed bench-side loop (sort, then string-keyed map
/// inserts) that no program change touches. This host's speed has been
/// seen to shift by up to 2x with its neighbours' load; comparing this
/// figure across runs tells a host shift from a program change.
fn host_probe_ms() -> f64 {
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut v: Vec<u64> = (0..65_536)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            v.sort_unstable();
            let map: BTreeMap<String, usize> = v
                .iter()
                .step_by(16)
                .enumerate()
                .map(|(i, k)| (format!("pkg-{k:x}"), i))
                .collect();
            black_box((v, map));
            ms(t0.elapsed())
        })
        .collect();
    stats::median(&times).expect("probe ran")
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        trace::<W>(args)
    } else {
        measure::<W>(args)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "svc-tenants" => run::<svc::SvcTenants>(&args),
        "fleet-rollout" => run::<fleet::FleetRollout>(&args),
        "sched-sweep" => run::<sched::SchedSweep>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "  host probe {:.3} ms (fixed bench-side loop)",
        host_probe_ms()
    );
    for note in outcome.notes.iter().chain(&outcome.errors) {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_svc::Journal;

    /// Set up `W` on `seed` and re-drive ops `ops` with spans.
    fn traced<W: Workload>(
        seed: u64,
        ops: &[usize],
    ) -> (BTreeMap<&'static str, u64>, Vec<W::Output>) {
        let mut w = W::new(seed);
        w.setup();
        let mut t = Tracer::default();
        let outputs = ops
            .iter()
            .map(|&i| {
                t.begin_op(i);
                w.traced(i, &mut t)
            })
            .collect();
        (t.counts, outputs)
    }

    /// Two traced runs on the same seed agree on every deterministic
    /// count and output, and name the counts the breakdown reports.
    fn repeats<W: Workload>(ops: &[usize], expect: &[&str]) -> BTreeMap<&'static str, u64> {
        let (counts, outputs) = traced::<W>(7, ops);
        let (again, outputs_again) = traced::<W>(7, ops);
        assert_eq!(counts, again);
        assert!(
            outputs == outputs_again,
            "traced outputs differ between runs"
        );
        for name in expect {
            assert!(
                counts.get(name).is_some_and(|&n| n > 0),
                "{name} missing: {counts:?}"
            );
        }
        counts
    }

    #[test]
    fn svc_counts_repeat_and_match_the_journal_footer() {
        repeats::<svc::SvcTenants>(
            &[0, 1],
            &[
                "yum.solve.calls",
                "yum.cache.hits",
                "rpm.tx.packages",
                "svc.rejected",
                "core.deploy.calls",
            ],
        );
        let mut w = svc::SvcTenants::new(7);
        w.setup();
        for i in 0..2 {
            let mut t = Tracer::default();
            let text = w.traced(i, &mut t);
            let footer = Journal::parse(&text).expect("journal parses").cache_totals;
            assert_eq!(
                (t.counts["yum.cache.hits"], t.counts["yum.cache.misses"]),
                (footer.0, footer.1)
            );
            assert_eq!(text, w.run(i), "re-drive reproduces the served journal");
        }
    }

    #[test]
    fn fleet_counts_repeat() {
        let counts = repeats::<fleet::FleetRollout>(
            &[0],
            &[
                "fault.retries",
                "fault.quarantined",
                "sim.trace.events",
                "rocks.install.nodes",
                "yum.cache.hits",
            ],
        );
        assert_eq!(counts["core.deploy.calls"], 8);
    }

    #[test]
    fn sched_counts_repeat() {
        // the first FIFO point and the last (deep Maui, load 2) point
        let mut w = sched::SchedSweep::new(7);
        w.setup();
        let last = w.ops() - 1;
        let counts = repeats::<sched::SchedSweep>(&[0, last], &["sched.events", "sched.jobs"]);
        assert_eq!(counts["sched.jobs"], 4000);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            metrics: vec![metric("op_ms.p50", 1.25, "ms")],
            ..Outcome::default()
        };
        assert_eq!(
            out.json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_ms.p50": {"value": 1.25, "unit": "ms"}}}"#
        );
        out.fail("x".into());
        assert!(out
            .json()
            .starts_with(r#"{"correct": false, "attempted": 3, "failed": 1,"#));
    }
}
