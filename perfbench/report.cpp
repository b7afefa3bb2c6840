#include "report.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "harness/golden.h"
#include "server/json.h"
#include "support/bytes.h"

namespace bench {

using namespace rapwam;

void Checks::fail(const std::string& what) {
  if (messages_.size() < 20) messages_.push_back(what);
  // One failure per attempted operation, however many of its checks fail.
  if (attempted_ == 0) attempted_ = 1;
  if (last_failed_ != attempted_) {
    ++failed_;
    last_failed_ = attempted_;
  }
}

void Digest::add(u64 v) { h_ = fnv1a(&v, sizeof v, h_); }
void Digest::add(const std::string& s) {
  add(static_cast<u64>(s.size()));
  h_ = fnv1a(s.data(), s.size(), h_);
}
void Digest::add(const RunStats& s) {
  for (u64 v : {s.instructions, s.calls, s.cycles, s.wait_polls, s.refs.total, s.refs.reads,
                s.refs.writes, s.refs.busy, s.goals_pushed, s.goals_stolen, s.goals_local,
                s.parcalls, s.kills, s.solutions, static_cast<u64>(s.num_pes)})
    add(v);
  for (u64 v : s.high_water) add(v);
}
void Digest::add(const TrafficStats& s) {
  for (const auto& [name, value] : traffic_fields(s)) add(value);
}
void Digest::add(const TimingStats& t) {
  for (const auto& [name, value] : timing_fields(t)) add(value);
}

std::string hex(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

void CpuRotation::pin_next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: unpinned still measures
}

void CpuRotation::unpin() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof all, &all);
}

std::string scratch_file(const Options& opt, const std::string& stem, const std::string& ext) {
  return opt.out_dir + "/" + stem + "-" + std::to_string(::getpid()) + ext;
}

const std::vector<NamedProtocol>& protocols() {
  static const std::vector<NamedProtocol> kAll = {
      {Protocol::WriteThrough, "write-thru"},
      {Protocol::WriteInBroadcast, "broadcast"},
      {Protocol::WriteThroughBroadcast, "update"},
      {Protocol::Hybrid, "hybrid"},
      {Protocol::Copyback, "copyback"},
  };
  return kAll;
}

const char* protocol_tag(Protocol p) {
  for (const NamedProtocol& n : protocols())
    if (n.protocol == p) return n.name;
  throw std::logic_error("protocol without a short name");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  std::vector<double> wall, mrefs, points, latency;
  for (const Pass& p : m.passes) {
    wall.push_back(p.seconds);
    mrefs.push_back(p.busy_mrefs / p.seconds);
    points.push_back(p.points / p.seconds);
    latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
  }
  return {
      {"setup_s", quantile(m.setup_s, 0.5), "s"},
      {"wall_s", quantile(wall, 0.5), "s"},
      {"mrefs_per_s", quantile(mrefs, 0.5), "Mref/s"},
      {"points_per_s", quantile(points, 0.5), "1/s"},
      {"latency_p50_ms", quantile(latency, 0.5), "ms"},
  };
}

namespace {

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::vector<Metric> span_metrics(const Tracer& t) {
  std::vector<Metric> out = {
      {"engine.gen_s.1pe", t.per_unit_self_s("engine.generate", "1pe"), "s"},
      {"engine.gen_s.8pe", t.per_unit_self_s("engine.generate", "8pe"), "s"},
      {"engine.instr_per_s.1pe", t.work_rate("engine.generate", "1pe"), "1/s"},
      {"engine.instr_per_s.8pe", t.work_rate("engine.generate", "8pe"), "1/s"},
      {"cache.replay_s", t.per_unit_self_s("cache.replay"), "s"},
  };
  for (const NamedProtocol& p : protocols())
    out.push_back({std::string("cache.mrefs_per_s.") + p.name,
                   t.work_rate("cache.replay", p.name) / 1e6, "Mref/s"});
  out.push_back({"cache.l2.mrefs_per_s", t.work_rate("cache.replay", "l2") / 1e6, "Mref/s"});
  out.push_back({"cache.sweep_s", t.per_unit_self_s("cache.sweep"), "s"});
  out.push_back({"timing.replay_s", t.per_unit_self_s("timing.replay"), "s"});
  out.push_back({"timing.mrefs_per_s", t.work_rate("timing.replay") / 1e6, "Mref/s"});
  out.push_back({"trace.save_s", t.per_unit_self_s("trace.save"), "s"});
  out.push_back({"trace.load_s", t.per_unit_self_s("trace.load"), "s"});
  for (const char* op : {"replay", "time", "sweep", "trace_file", "stats"})
    out.push_back({std::string("server.") + op + ".p50_ms",
                   quantile(t.self_ms("client.request", op), 0.5), "ms"});
  out.push_back({"prolog.consult_s", t.per_unit_self_s("prolog.consult"), "s"});
  out.push_back({"prolog.parse_goal_s", t.per_unit_self_s("prolog.parse_goal"), "s"});
  out.push_back({"compiler.compile_s", t.per_unit_self_s("compiler.compile"), "s"});
  return out;
}

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
/// Layers a workload does not reach read 0.
const std::vector<Metric>& per_layer_catalogue() {
  static const std::vector<Metric> kAll = [] {
    std::vector<Metric> v = {
        {"engine.gen_s.1pe", 0, "s"},
        {"engine.gen_s.8pe", 0, "s"},
        {"engine.instr_per_s.1pe", 0, "1/s"},
        {"engine.instr_per_s.8pe", 0, "1/s"},
        {"engine.busy_ratio", 0, "ratio"},
        {"engine.refs_total", 0, "count"},
        {"engine.refs_busy", 0, "count"},
        {"engine.wait_polls", 0, "count"},
        {"engine.cycles", 0, "cycles"},
        {"engine.instructions", 0, "count"},
        {"cache.replay_s", 0, "s"},
    };
    for (const NamedProtocol& p : protocols())
      v.push_back({std::string("cache.mrefs_per_s.") + p.name, 0, "Mref/s"});
    v.push_back({"cache.l2.mrefs_per_s", 0, "Mref/s"});
    v.push_back({"cache.sweep_s", 0, "s"});
    for (const NamedProtocol& p : protocols())
      v.push_back({std::string("cache.traffic_ratio.") + p.name, 0, "words/ref"});
    v.push_back({"cache.miss_ratio", 0, "ratio"});
    for (Metric m : std::vector<Metric>{
             {"timing.replay_s", 0, "s"},
             {"timing.mrefs_per_s", 0, "Mref/s"},
             {"timing.makespan_cycles", 0, "cycles"},
             {"timing.bus_utilization", 0, "ratio"},
             {"trace.save_s", 0, "s"},
             {"trace.load_s", 0, "s"},
             {"trace.bytes", 0, "bytes"},
             {"harness.trace_lib.misses", 0, "count"},
             {"harness.trace_lib.hit_ratio", 0, "ratio"},
             {"server.replay.p50_ms", 0, "ms"},
             {"server.time.p50_ms", 0, "ms"},
             {"server.sweep.p50_ms", 0, "ms"},
             {"server.trace_file.p50_ms", 0, "ms"},
             {"server.stats.p50_ms", 0, "ms"},
             {"server.shed", 0, "count"},
             {"server.failed", 0, "count"},
             {"client.retries", 0, "count"},
             {"client.req_per_s", 0, "1/s"},
             {"prolog.consult_s", 0, "s"},
             {"prolog.parse_goal_s", 0, "s"},
             {"compiler.compile_s", 0, "s"},
             {"compiler.code_words", 0, "words"},
             {"tracing.overhead_s", 0, "s"},
         })
      v.push_back(m);
    return v;
  }();
  return kAll;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::vector<Metric> per_layer_metrics(const Measured& m, const Tracer& t) {
  std::vector<Metric> out = per_layer_catalogue();
  auto set = [&](const Metric& src) {
    for (Metric& dst : out)
      if (dst.name == src.name) {
        if (dst.unit != src.unit)
          throw std::logic_error("unit mismatch for " + src.name);
        dst.value = src.value;
        return;
      }
    throw std::logic_error("metric " + src.name + " is not in the per-layer catalogue");
  };
  for (const Metric& x : span_metrics(t)) set(x);
  for (const Metric& x : m.layer) set(x);
  std::vector<double> untraced, traced;
  for (const Pass& p : m.passes) untraced.push_back(p.seconds);
  for (const Pass& p : m.traced_passes) traced.push_back(p.seconds);
  set({"tracing.overhead_s", quantile(traced, 0.5) - quantile(untraced, 0.5), "s"});
  return out;
}

void print_result(const Options& opt, const Measured& m, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::vector<double> latency;
  for (const Pass& p : m.passes) latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " passes "
            << m.passes.size() << " traced_passes " << m.traced_passes.size()
            << " latency_samples " << latency.size() << " beyond_p95 "
            << static_cast<std::size_t>(static_cast<double>(latency.size()) * 0.05) << "\n";
  std::cout << "setup_seconds";
  for (double s : m.setup_s) std::cout << " " << s;
  std::cout << "\npass_seconds";
  for (const Pass& p : m.passes) std::cout << " " << p.seconds;
  std::cout << "\n";
  std::cout << "digest " << opt.workload << " " << opt.seed << " " << hex(m.digest) << "\n";
  double rate = checks.attempted()
                    ? static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted())
                    : 0.0;
  // Printed, not part of the result (perfbench/README.md says why):
  // error_rate reads 0 on correct code; the peak resident set swings
  // with the allocator's heap retention; serve's p95 with host load.
  std::cout << "metric error_rate " << number(rate) << " ratio\n";
  std::cout << "metric peak_rss_mb " << number(peak_rss_mb()) << " MiB\n";
  std::cout << "metric latency_p95_ms " << number(quantile(latency, 0.95)) << " ms\n";
  for (const Metric& x : metrics)
    std::cout << "metric " << x.name << " " << number(x.value) << " " << x.unit << "\n";
  for (const std::string& msg : checks.messages()) std::cerr << "FAILED: " << msg << "\n";

  JsonValue values = JsonValue::object();
  for (const Metric& x : metrics) {
    JsonValue one = JsonValue::object();
    one.set("value", JsonValue::real(std::isfinite(x.value) ? x.value : 0.0));
    one.set("unit", JsonValue::string(x.unit));
    values.set(x.name, std::move(one));
  }
  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(checks.failed() == 0));
  result.set("attempted", JsonValue::unsigned_int(checks.attempted()));
  result.set("failed", JsonValue::unsigned_int(checks.failed()));
  result.set("metrics", std::move(values));
  std::cout << json_write(result) << std::endl;
}

}  // namespace bench
