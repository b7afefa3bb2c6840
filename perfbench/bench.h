// Shared types of the rapwam benchmark: options, correctness
// bookkeeping, per-pass measurements and the simulated-stat digest.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cache/multisim.h"
#include "engine/stats.h"
#include "spans.h"
#include "timing/timed_replay.h"

namespace bench {

using rapwam::u32;
using rapwam::u64;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;   ///< traced run: per-layer metrics and span file
  bool tiny = false;    ///< smoke-sized inputs (self-tests)
  std::string out_dir;  ///< scratch files and the span file
  std::string pins;     ///< file of pinned simulated-stat digests
};

/// Outcome of every correctness check: oracles, cross-layer
/// consistency, determinism. A failed check counts toward error_rate.
class Checks {
 public:
  /// Counts one attempted operation (job, sweep point, request, check).
  void attempt() { ++attempted_; }
  /// Marks the current operation failed (once, however many of its
  /// checks fail) and keeps the reason.
  void fail(const std::string& what);
  /// fail(what) unless `ok`.
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 last_failed_ = ~u64(0);  ///< attempted_ when the last failure counted
  std::vector<std::string> messages_;
};

/// One measured pass: the unit of work the workload repeats.
struct Pass {
  double seconds = 0;
  std::vector<double> latency_ms;  ///< per job or request
  double busy_mrefs = 0;           ///< M busy references carried or replayed
  double points = 0;               ///< cache-simulation points completed
};

/// A named figure with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload run hands back to the reporter.
struct Measured {
  std::vector<double> setup_s;       ///< each set-up repetition
  std::vector<Pass> passes;          ///< untraced passes
  std::vector<Pass> traced_passes;   ///< traced passes (traced run only)
  std::vector<Metric> layer;         ///< exact per-layer counts
  u64 digest = 0;                    ///< all simulated statistics
};

/// Seconds since an arbitrary fixed point (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pins the calling thread to each CPU it may use, in turn. The CPUs
/// of a shared host differ in speed for minutes at a time, so a run
/// that stayed where the scheduler put it would measure that CPU. Each
/// set-up repetition and each single-threaded pass takes the next CPU
/// instead, and every run samples all of them alike. Threads started
/// while pinned inherit the pin: unpin() before starting any.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_next();
  void unpin();
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;  ///< the CPUs the process may use
  std::size_t next_ = 0;
};

/// How often set-up is repeated, so that setup_s is a median: twice per
/// CPU (at least 6, at most 16 times), and then again until kSeconds
/// have passed. A set-up of a few milliseconds would otherwise be
/// sampled in a few moments of a host whose speed changes from one
/// moment to the next; over many moments its median holds still.
class SetupReps {
 public:
  static constexpr double kSeconds = 1.5;
  static constexpr std::size_t kMax = 256;

  explicit SetupReps(const CpuRotation& rotation)
      : min_(std::clamp<std::size_t>(2 * rotation.cpus(), 6, 16)), end_(now_s() + kSeconds) {}
  /// True while another repetition is due after `done` of them.
  bool more(std::size_t done) const { return done < min_ || (done < kMax && now_s() < end_); }

 private:
  std::size_t min_;
  double end_;
};

/// Repeats `pass(tracer)` while another pass, as long as the longest
/// so far, still ends within `seconds` (at least one pass). In a traced
/// run the first half runs untraced and the second half traced, each
/// pass under its own "bench.pass" root span. With `rotation`, each
/// pass runs pinned to the next CPU.
template <typename PassFn>
void run_passes(const Options& opt, Tracer* tracer, Measured& m, CpuRotation* rotation,
                PassFn&& pass) {
  auto phase = [&](Tracer* tr, double secs, std::vector<Pass>& out) {
    double end = now_s() + secs, longest = 0;
    do {
      if (rotation) rotation->pin_next();
      double t0 = now_s();
      SpanScope root(tr, "bench.pass");
      out.push_back(pass(tr));
      longest = std::max(longest, now_s() - t0);
    } while (now_s() + longest <= end);
    if (rotation) rotation->unpin();
  };
  if (!opt.trace) {
    phase(nullptr, opt.seconds, m.passes);
  } else {
    phase(nullptr, opt.seconds / 2, m.passes);
    phase(tracer, opt.seconds / 2, m.traced_passes);
  }
}

/// FNV-1a digest accumulator over simulated statistics.
class Digest {
 public:
  void add(u64 v);
  void add(const std::string& s);
  void add(const rapwam::RunStats& s);
  void add(const rapwam::TrafficStats& s);
  void add(const rapwam::TimingStats& t);
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xCBF29CE484222325ull;
};

std::string hex(u64 v);

/// `<out_dir>/<stem>-<pid><ext>`: a scratch file no other run shares.
std::string scratch_file(const Options& opt, const std::string& stem, const std::string& ext);

/// The protocols of Figure 4, with metric-safe short names.
struct NamedProtocol {
  rapwam::Protocol protocol;
  const char* name;
};
const std::vector<NamedProtocol>& protocols();
/// The short name of `p` ("broadcast", ...).
const char* protocol_tag(rapwam::Protocol p);

Measured run_pipeline(const Options& opt, Tracer* tracer, Checks& checks);
Measured run_sweep_workload(const Options& opt, Tracer* tracer, Checks& checks);
Measured run_serve(const Options& opt, Tracer* tracer, Checks& checks);

}  // namespace bench
