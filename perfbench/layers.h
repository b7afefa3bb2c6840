// Calls into rapwam's layers that more than one workload makes, each
// under its span, and the exact per-layer totals the workloads report.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "engine/machine.h"
#include "oracles.h"
#include "trace/chunks.h"

namespace bench {

struct GenerateResult {
  rapwam::RunResult result;
  std::shared_ptr<const rapwam::ChunkedTrace> trace;  ///< busy references
  u64 code_words = 0;
};

/// Consults `job`'s program into `prog`, compiles it, parses the goal
/// and runs it on a Machine into a ChunkingSink — each call under its
/// own span. The compile call uses the options the Machine itself
/// uses (fusion at one PE), so code_words is what the engine runs.
GenerateResult generate(Tracer* tr, rapwam::Program& prog, const Job& job,
                        const rapwam::MachineConfig& cfg);

/// True when both traces hold the same references in the same order.
bool same_refs(const rapwam::ChunkedTrace& a, const rapwam::ChunkedTrace& b);

/// Exact (simulated or counted) per-layer figures of one pass or set-up.
class LayerTotals {
 public:
  void engine(const rapwam::RunStats& s);
  /// A replay of protocol `name` (a protocols() short name).
  void cache(const std::string& name, const rapwam::TrafficStats& s);
  void timing(const rapwam::TimingStats& t);
  u64 trace_bytes = 0;
  u64 code_words = 0;

  std::vector<Metric> metrics() const;

 private:
  rapwam::RunStats engine_;  ///< summed counters
  std::map<std::string, std::pair<u64, u64>> bus_words_refs_;
  u64 misses_ = 0, refs_ = 0;
  u64 makespan_ = 0, bus_busy_ = 0;
};

}  // namespace bench
