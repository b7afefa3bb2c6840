// `sweep`: the Figure-4 + shared-L2 study. Set-up generates seeded
// qsort and tak traces at 8 PEs; each pass is one run_sweep on a pool
// of two threads over 5 protocols x 5 cache sizes per trace plus five
// L2 points per trace (60 points). Cache replay is nearly all of the
// pass, so engine, trace-file and timing changes must leave it alone.
#include <cstdio>

#include "bench.h"
#include "cache/sweep.h"
#include "harness/runner.h"
#include "layers.h"
#include "support/thread_pool.h"

namespace bench {

using namespace rapwam;

namespace {

constexpr unsigned kPes = 8;
constexpr unsigned kPoolThreads = 2;
const u32 kSizes[] = {64, 256, 1024, 4096, 16384};
const u32 kL2Sizes[] = {2048, 4096, 8192, 16384, 32768};

struct SweepTrace {
  Job job;
  GenerateResult gen;
};

std::vector<SweepTrace> generate_traces(const Options& opt, Tracer* tr) {
  Rng rng(opt.seed);
  Sizes sizes = opt.tiny ? Sizes::tiny() : Sizes::full();
  MachineConfig cfg;
  cfg.num_pes = kPes;
  cfg.sizes = bench_area_sizes();
  std::vector<SweepTrace> out;
  for (const char* name : {"qsort", "tak"}) {
    SweepTrace t{make_job(name, sizes, rng), {}};
    Program prog;
    t.gen = generate(tr, prog, t.job, cfg);
    out.push_back(std::move(t));
  }
  return out;
}

CacheConfig l2_config(u32 l2_words) {
  CacheConfig c = paper_hier_config(Protocol::WriteInBroadcast);
  c.l2.size_words = l2_words;
  return c;
}

std::vector<SweepPoint> make_points(const std::vector<SweepTrace>& traces) {
  std::vector<SweepPoint> pts;
  int label = 0;
  for (const SweepTrace& t : traces) {
    for (const NamedProtocol& p : protocols())
      for (u32 size : kSizes) {
        SweepPoint pt;
        pt.cfg = paper_cache_config(p.protocol, size);
        pt.num_pes = kPes;
        pt.chunks = t.gen.trace.get();
        pt.label = label++;
        pts.push_back(pt);
      }
    for (u32 l2 : kL2Sizes) {
      SweepPoint pt;
      pt.cfg = l2_config(l2);
      pt.num_pes = kPes;
      pt.chunks = t.gen.trace.get();
      pt.label = label++;
      pts.push_back(pt);
    }
  }
  return pts;
}

/// Re-derives sweep results from direct calls into the cache and
/// timing layers and checks the traces and outputs; every comparison
/// is exact.
void check_sweep(const Options& opt, Tracer* tr, Checks& checks,
                 const std::vector<SweepTrace>& traces,
                 const std::vector<SweepResult>& results) {
  SpanScope root(tr, "bench.check");
  for (const SweepTrace& t : traces) {
    checks.attempt();
    std::string what = t.job.bench + " at 8pe";
    const RunResult& r = t.gen.result;
    checks.expect(r.success && !r.solutions.empty(), what + ": no solution");
    if (!r.solutions.empty()) {
      std::string bad = t.job.check(r.solutions.front());
      checks.expect(bad.empty(), what + ": " + bad);
    }
  }

  // The first trace's 1024-word points, one per protocol, then its
  // first L2 point, replayed directly.
  const SweepTrace& t = traces.front();
  TrafficStats broadcast;  // the direct replay at the paper point
  for (const SweepResult& res : results) {
    if (res.point.chunks != t.gen.trace.get()) continue;
    bool l2 = res.point.cfg.l2.enabled();
    if (!l2 && res.point.cfg.size_words != 1024) continue;
    if (l2 && res.point.cfg.l2.size_words != kL2Sizes[0]) continue;
    checks.attempt();
    HierCacheSim sim(res.point.cfg, kPes);
    {
      SpanScope s(tr, "cache.replay", l2 ? "l2" : protocol_tag(res.point.cfg.protocol));
      sim.replay(*t.gen.trace);
      s.work(static_cast<double>(t.gen.trace->size()));
    }
    checks.expect(sim.stats() == res.stats,
                  "sweep point " + std::to_string(res.point.label) +
                      " differs from a direct HierCacheSim replay");
    if (!l2 && res.point.cfg.protocol == Protocol::WriteInBroadcast) broadcast = sim.stats();
  }

  checks.attempt();
  TimedReplay timed(paper_cache_config(Protocol::WriteInBroadcast, 1024), kPes,
                    TimingParams::zero_cost());
  {
    SpanScope s(tr, "timing.replay");
    timed.replay(*t.gen.trace);
    s.work(static_cast<double>(t.gen.trace->size()));
  }
  checks.expect(timed.traffic() == broadcast,
                "zero-cost timed replay traffic differs from HierCacheSim::replay");

  checks.attempt();
  std::string path = scratch_file(opt, "sweep-check", ".trc");
  {
    SpanScope s(tr, "trace.save");
    save_trace(t.gen.trace->to_packed(), path);
  }
  std::shared_ptr<const ChunkedTrace> loaded;
  {
    SpanScope s(tr, "trace.load");
    loaded = load_chunked_trace(path);
  }
  std::remove(path.c_str());
  checks.expect(same_refs(*t.gen.trace, *loaded),
                "loaded trace file differs from the generated trace");
}

}  // namespace

Measured run_sweep_workload(const Options& opt, Tracer* tracer, Checks& checks) {
  Measured m;
  std::vector<SweepTrace> traces;
  std::unique_ptr<ThreadPool> pool;
  CpuRotation rotation;
  for (SetupReps reps(rotation); reps.more(m.setup_s.size());) {
    SpanScope s(tracer, "bench.setup");
    double t0 = now_s();
    pool.reset();
    rotation.pin_next();
    traces = generate_traces(opt, tracer);
    rotation.unpin();  // before the pool threads start
    pool = std::make_unique<ThreadPool>(kPoolThreads);
    m.setup_s.push_back(now_s() - t0);
  }

  const std::vector<SweepPoint> points = make_points(traces);
  std::vector<SweepResult> first;
  run_passes(opt, tracer, m, nullptr, [&](Tracer* tr) {
    Pass p;
    double t0 = now_s();
    std::vector<SweepResult> res;
    {
      SpanScope s(tr, "cache.sweep");
      res = run_sweep(*pool, points);
      double refs = 0;
      for (const SweepResult& r : res) refs += static_cast<double>(r.stats.refs);
      s.work(refs);
    }
    p.seconds = now_s() - t0;
    p.latency_ms.push_back(p.seconds * 1e3);
    for (const SweepResult& r : res) p.busy_mrefs += static_cast<double>(r.stats.refs) / 1e6;
    p.points = static_cast<double>(res.size());
    if (first.empty()) first = res;
    for (std::size_t i = 0; i < res.size(); ++i) {
      checks.attempt();
      checks.expect(res[i].stats == first[i].stats,
                    "sweep pass changed point " + std::to_string(i) + " (nondeterminism)");
    }
    return p;
  });

  check_sweep(opt, tracer, checks, traces, first);

  Digest d;
  LayerTotals totals;
  for (const SweepTrace& t : traces) {
    d.add(t.gen.result.stats);
    for (const Solution& sol : t.gen.result.solutions)
      for (const auto& [name, text] : sol.bindings) d.add(name + "=" + text);
    totals.engine(t.gen.result.stats);
    totals.code_words += t.gen.code_words;
  }
  for (const SweepResult& r : first) {
    d.add(r.stats);
    totals.cache(r.point.cfg.l2.enabled() ? "l2" : protocol_tag(r.point.cfg.protocol), r.stats);
  }
  m.digest = d.value();
  m.layer = totals.metrics();
  return m;
}

}  // namespace bench
