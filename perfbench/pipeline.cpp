// `pipeline`: the CLI user's record -> replay -> time job, one job
// after another on one thread. Each pass runs the four seeded programs
// at 1 PE (fused code) and at 8 PEs (unfused, mostly idle polling for
// matrix), and every job goes through every layer the CLI touches.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "cache/hierarchy.h"
#include "harness/runner.h"
#include "layers.h"
#include "oracles.h"
#include "trace/chunks.h"

namespace bench {

using namespace rapwam;

namespace {

/// Timed replay of every job: one cycle per reference, a one-cycle bus
/// word, two-way interleaved memory and a four-entry write buffer (the
/// serve `time` requests ask for the same).
constexpr TimingParams kJobTiming{1, 1, 2, 4, 0};

struct PipelineJob {
  Job job;
  unsigned pes = 1;
};

/// What one job produced that the checks and the digest need.
struct JobResult {
  double seconds = 0;
  RunStats engine;
  TrafficStats cache;
  TimingStats timing;
  u64 trace_refs = 0;
  u64 code_words = 0;
  u64 solution_hash = 0;
};

std::vector<PipelineJob> make_jobs(const Options& opt) {
  Rng rng(opt.seed);
  Sizes sizes = opt.tiny ? Sizes::tiny() : Sizes::full();
  std::vector<PipelineJob> jobs;
  for (const char* name : {"qsort", "matrix", "tak", "deriv"}) {
    Job j = make_job(name, sizes, rng);
    jobs.push_back({j, 1});
    jobs.push_back({std::move(j), 8});
  }
  return jobs;
}

JobResult run_job(const PipelineJob& pj, const std::string& path, Tracer* tr,
                  u64 job_id, Checks& checks, LayerTotals& totals) {
  const Job& job = pj.job;
  std::string pe_tag = std::to_string(pj.pes) + "pe";
  JobResult out;
  double t0 = now_s();
  SpanScope root(tr, "pipeline.job", job.bench + "." + pe_tag, job_id);

  Program prog;
  MachineConfig cfg;
  cfg.num_pes = pj.pes;
  cfg.sizes = bench_area_sizes();
  GenerateResult gen = generate(tr, prog, job, cfg);
  out.code_words = gen.code_words;
  {
    SpanScope s(tr, "trace.save");
    save_trace(gen.trace->to_packed(), path);
  }
  std::shared_ptr<const ChunkedTrace> loaded;
  {
    SpanScope s(tr, "trace.load");
    loaded = load_chunked_trace(path);
  }
  CacheConfig cc = paper_cache_config(Protocol::WriteInBroadcast, 1024);
  HierCacheSim sim(cc, pj.pes);
  {
    SpanScope s(tr, "cache.replay", "broadcast");
    sim.replay(*loaded);
    s.work(static_cast<double>(loaded->size()));
  }
  TimedReplay timed(cc, pj.pes, kJobTiming);
  {
    SpanScope s(tr, "timing.replay");
    timed.replay(*loaded);
    s.work(static_cast<double>(loaded->size()));
  }
  out.seconds = now_s() - t0;

  // Checks, outside the job's time.
  std::string what = job.bench + " at " + pe_tag;
  checks.expect(gen.result.success && !gen.result.solutions.empty(), what + ": no solution");
  if (!gen.result.solutions.empty()) {
    std::string bad = job.check(gen.result.solutions.front());
    checks.expect(bad.empty(), what + ": " + bad);
    Digest d;
    for (const auto& [name, text] : gen.result.solutions.front().bindings) d.add(name + "=" + text);
    out.solution_hash = d.value();
  }
  checks.expect(same_refs(*gen.trace, *loaded), what + ": loaded trace file differs from the generated trace");
  checks.expect(timed.traffic() == sim.stats(),
                what + ": timed replay traffic differs from the cache replay");
  const u64 file_bytes = std::filesystem::file_size(path);
  std::remove(path.c_str());

  out.engine = gen.result.stats;
  out.cache = sim.stats();
  out.timing = timed.timing();
  out.trace_refs = loaded->size();
  totals.engine(out.engine);
  totals.cache("broadcast", out.cache);
  totals.timing(out.timing);
  totals.trace_bytes += file_bytes;
  totals.code_words += out.code_words;
  return out;
}

}  // namespace

Measured run_pipeline(const Options& opt, Tracer* tracer, Checks& checks) {
  Measured m;
  std::vector<PipelineJob> jobs;
  // Set-up is building the seeded inputs and their native answers; it
  // is repeated (see SetupReps) so setup_s is a median.
  CpuRotation rotation;
  for (SetupReps reps(rotation); reps.more(m.setup_s.size());) {
    rotation.pin_next();
    SpanScope s(tracer, "bench.setup");
    double t0 = now_s();
    jobs = make_jobs(opt);
    m.setup_s.push_back(now_s() - t0);
  }

  const std::string path = scratch_file(opt, "pipeline-job", ".trc");
  u64 next_job = 1;
  bool first = true;
  LayerTotals totals;
  run_passes(opt, tracer, m, &rotation, [&](Tracer* tr) {
    Pass p;
    Digest d;
    LayerTotals pass_totals;
    for (const PipelineJob& pj : jobs) {
      checks.attempt();
      JobResult r;
      try {
        r = run_job(pj, path, tr, next_job++, checks, pass_totals);
      } catch (const std::exception& e) {
        checks.fail(pj.job.bench + " at " + std::to_string(pj.pes) + "pe: " + e.what());
        continue;
      }
      p.seconds += r.seconds;
      p.latency_ms.push_back(r.seconds * 1e3);
      p.busy_mrefs += static_cast<double>(r.trace_refs) / 1e6;
      p.points += 2;  // one cache replay and one timed replay
      d.add(r.engine);
      d.add(r.cache);
      d.add(r.timing);
      d.add(r.trace_refs);
      d.add(r.code_words);
      d.add(r.solution_hash);
    }
    if (first) {
      m.digest = d.value();
      totals = pass_totals;
      first = false;
    } else {
      checks.attempt();
      checks.expect(d.value() == m.digest,
                    "pipeline pass changed its simulated statistics (nondeterminism)");
    }
    return p;
  });
  m.layer = totals.metrics();
  return m;
}

}  // namespace bench
