#include "layers.h"

#include "compiler/compile.h"

namespace bench {

using namespace rapwam;

GenerateResult generate(Tracer* tr, Program& prog, const Job& job,
                        const MachineConfig& cfg) {
  GenerateResult out;
  {
    SpanScope s(tr, "prolog.consult");
    prog.consult(job.source);
  }
  {
    SpanScope s(tr, "compiler.compile");
    CompileOptions copts;
    copts.fuse = cfg.fuse && cfg.num_pes == 1;
    out.code_words = static_cast<u64>(compile_program(prog, copts)->size());
  }
  Machine machine(prog, cfg);
  const Term* goal = nullptr;
  {
    SpanScope s(tr, "prolog.parse_goal");
    goal = prog.parse_goal(job.goal + ".");
  }
  ChunkingSink sink(/*busy_only=*/true);
  {
    SpanScope s(tr, "engine.generate", std::to_string(cfg.num_pes) + "pe");
    out.result = machine.solve_term(goal, &sink);
    s.work(static_cast<double>(out.result.stats.instructions));
  }
  out.trace = sink.take();
  return out;
}

bool same_refs(const ChunkedTrace& a, const ChunkedTrace& b) {
  if (a.size() != b.size()) return false;
  std::size_t ca = 0, ia = 0;
  bool same = true;
  b.for_each_chunk([&](const u64* p, std::size_t n) {
    for (std::size_t i = 0; i < n && same; ++i) {
      while (ia == a.chunk(ca).size()) {
        ++ca;
        ia = 0;
      }
      same = a.chunk(ca)[ia++] == p[i];
    }
  });
  return same;
}

void LayerTotals::engine(const RunStats& s) {
  engine_.instructions += s.instructions;
  engine_.cycles += s.cycles;
  engine_.wait_polls += s.wait_polls;
  engine_.refs.total += s.refs.total;
  engine_.refs.busy += s.refs.busy;
}

void LayerTotals::cache(const std::string& name, const TrafficStats& s) {
  auto& [bus_words, refs] = bus_words_refs_[name];
  bus_words += s.bus_words;
  refs += s.refs;
  misses_ += s.misses;
  refs_ += s.refs;
}

void LayerTotals::timing(const TimingStats& t) {
  makespan_ += t.makespan;
  bus_busy_ += t.bus_busy_cycles;
}

std::vector<Metric> LayerTotals::metrics() const {
  auto ratio = [](u64 a, u64 b) { return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0; };
  auto count = [](u64 v) { return static_cast<double>(v); };
  std::vector<Metric> out = {
      {"engine.busy_ratio", ratio(engine_.refs.busy, engine_.refs.total), "ratio"},
      {"engine.refs_total", count(engine_.refs.total), "count"},
      {"engine.refs_busy", count(engine_.refs.busy), "count"},
      {"engine.wait_polls", count(engine_.wait_polls), "count"},
      {"engine.cycles", count(engine_.cycles), "cycles"},
      {"engine.instructions", count(engine_.instructions), "count"},
  };
  for (const NamedProtocol& p : protocols()) {
    auto it = bus_words_refs_.find(p.name);
    double r = it == bus_words_refs_.end() ? 0.0 : ratio(it->second.first, it->second.second);
    out.push_back({std::string("cache.traffic_ratio.") + p.name, r, "words/ref"});
  }
  out.push_back({"cache.miss_ratio", ratio(misses_, refs_), "ratio"});
  out.push_back({"timing.makespan_cycles", count(makespan_), "cycles"});
  out.push_back({"timing.bus_utilization", ratio(bus_busy_, makespan_), "ratio"});
  out.push_back({"trace.bytes", count(trace_bytes), "bytes"});
  out.push_back({"compiler.code_words", count(code_words), "words"});
  return out;
}

}  // namespace bench
