// Spans recorded around the benchmark's calls into rapwam's layers.
//
// A span is one timed call (name, start, end, parent span, job id).
// Spans are kept in memory and written out once, as Chrome trace-event
// JSON, when the run ends. Each is recorded from the benchmark's side
// of a public function: nothing inside the library is instrumented.
//
// A run has three kinds of root span: "bench.setup" (one per set-up
// repetition), "bench.pass" (one per measured pass) and "bench.check"
// (the correctness checks after measuring). A root's `units` says how
// many set-ups or passes it stands for, so per-layer figures can be
// normalised per pass (see Tracer::per_unit_self_s).
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "support/common.h"

namespace bench {

using rapwam::i64;
using rapwam::u64;

struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "engine.generate"
  std::string tag;    ///< qualifier: PE count, protocol or request op
  i64 start_ns = 0;
  i64 end_ns = -1;    ///< -1 while open
  int parent = -1;    ///< index of the enclosing span; -1 for a root
  int root = -1;      ///< index of the root span this one descends from
  u64 job = 0;        ///< shared by the spans of one job or request
  unsigned tid = 0;   ///< recording thread (0 = main)
  double work = 0;    ///< work done (references, instructions)
  double units = 1;   ///< roots only: set-ups or passes covered
};

class Tracer {
 public:
  Tracer();

  /// Opens a span; `parent` -1 means "the calling thread's innermost
  /// open span" (a root when there is none). Returns its index.
  int open(const std::string& name, const std::string& tag, u64 job, int parent);
  void close(int id, double work);
  void set_units(int root, double units);

  /// Self time (duration minus the time its children cover) of every
  /// span named `name` (and tagged `tag`, when non-empty), normalised
  /// to one occurrence of each phase: the sum over "bench.pass" roots
  /// divided by their units, plus the same for "bench.setup" roots,
  /// plus the "bench.check" spans as they are.
  double per_unit_self_s(const std::string& name, const std::string& tag = {}) const;
  /// Sum of `work` over matching spans divided by their summed self
  /// time: the layer's throughput while it was busy. 0 if none ran.
  double work_rate(const std::string& name, const std::string& tag = {}) const;
  /// Self times of matching spans, in milliseconds.
  std::vector<double> self_ms(const std::string& name, const std::string& tag = {}) const;

  /// Writes every span as Chrome trace-event JSON ("X" events).
  void write_chrome_json(const std::string& path) const;

 private:
  i64 now_ns() const;
  std::vector<double> self_times_s() const;  // caller holds mu_

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// RAII span. With a null tracer it does nothing, so the untraced run
/// pays no more than the pointer test.
class SpanScope {
 public:
  SpanScope(Tracer* t, const std::string& name, const std::string& tag = {},
            u64 job = 0, int parent = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Work the call did, for the layer's throughput figure.
  void work(double w) { work_ = w; }
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_ = -1;
  double work_ = 0;
};

}  // namespace bench
