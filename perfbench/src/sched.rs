//! `sched-sweep`: the `xcbc exp` path. Each op is one single-threaded
//! `run_point` of 2000 teaching-lab jobs on the 8×4 cluster; the ops
//! cycle Torque/SLURM/SGE × FIFO/EASY/Maui × load 1, 2, one seeded job
//! stream after another.

use crate::trace::Tracer;
use crate::Workload;
use xcbc_sched::{run_point, ExpGrid, ExpPoint, RmKind, RunResult, SchedPolicy};

/// Job streams in the content. One stream's deep-queue runs can cost
/// twice another's, so a run times as many streams as fit in its window
/// (about 25 in 20 s) to average that out.
const STREAMS: u64 = 32;
/// Streams re-driven per traced pass.
const TRACED_STREAMS: usize = 4;

pub struct SchedSweep {
    seeds: Vec<u64>,
    grid: ExpGrid,
    points: Vec<ExpPoint>,
}

impl Workload for SchedSweep {
    type Output = RunResult;
    const WORK_UNIT: &'static str = "simulated events";

    fn new(seed: u64) -> Self {
        let seeds = (0..STREAMS)
            .map(|k| seed.wrapping_mul(STREAMS).wrapping_add(k))
            .collect();
        SchedSweep {
            seeds,
            grid: ExpGrid::default(),
            points: Vec::new(),
        }
    }

    fn setup(&mut self) {
        self.grid = ExpGrid::new("perfbench")
            .rms(RmKind::ALL.to_vec())
            .seeds(self.seeds.clone());
        let mut points = self.grid.points();
        // stream-major: each round of 18 ops is every variant on one stream
        points.sort_by_key(|p| self.seeds.iter().position(|&s| s == p.seed));
        self.points = points;
    }

    fn ops(&self) -> usize {
        self.points.len()
    }

    fn round(&self) -> usize {
        self.points.len() / self.seeds.len()
    }

    fn traced_len(&self) -> usize {
        self.round() * TRACED_STREAMS
    }

    fn run(&mut self, i: usize) -> RunResult {
        run_point(&self.grid, &self.points[i])
    }

    fn reference(&mut self, i: usize) -> Result<(RunResult, u64), String> {
        let result = run_point(&self.grid, &self.points[i]);
        if result.jobs != self.grid.jobs_per_run || result.events == 0 {
            return Err(format!(
                "{}: {} jobs, {} events",
                self.points[i].variant_label(),
                result.jobs,
                result.events
            ));
        }
        let events = result.events;
        Ok((result, events))
    }

    /// `run_point` with the stream drawn up front, so generating jobs
    /// and simulating them get separate spans.
    fn traced(&mut self, i: usize, t: &mut Tracer) -> RunResult {
        let point = self.points[i];
        let (g, jobs) = t.span("sched.stream", |_| {
            let g = self.grid.normalized();
            let spec = g.spec.clone().scaled_load(point.load);
            let jobs: Vec<_> = spec
                .stream(point.seed, g.nodes as u32, g.cores_per_node)
                .take(g.jobs_per_run)
                .collect();
            (g, jobs)
        });
        let queue = match (point.policy, point.load > 1.0) {
            (SchedPolicy::Fifo, false) => "sched.drain.shallow",
            (SchedPolicy::Fifo, true) | (_, false) => "sched.drain.mid",
            (_, true) => "sched.drain.deep",
        };
        let result = t.span(queue, |_| {
            let mut rm = point.rm.build(g.nodes, g.cores_per_node, point.policy);
            rm.sim_mut().set_tracing(false);
            for (at, req) in jobs {
                rm.advance_to(at);
                rm.submit(req);
            }
            rm.drain();
            RunResult {
                point,
                jobs: g.jobs_per_run,
                events: rm.sim().events_processed(),
                metrics: rm.metrics(),
            }
        });
        t.count("sched.events", result.events);
        t.count("sched.jobs", result.jobs as u64);
        result
    }
}
