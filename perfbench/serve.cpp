// `serve`: the resident service under a closed loop. An in-process
// Server (2 workers, unix socket) answers two client connections, each
// sending its next request once the previous reply arrived. The seeded
// mix touches every paper-scale trace-library key (4 benches x {1, 2,
// 4, 8} PEs: one miss each, then hits), small sweeps, replays of a
// seeded trace file (loaded and validated per request) and stats. A
// pass is one full cycle of the mix.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "harness/golden.h"
#include "harness/runner.h"
#include "harness/trace_lib.h"
#include "layers.h"
#include "server/client.h"
#include "server/server.h"

namespace bench {

using namespace rapwam;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
constexpr unsigned kTracePes = 8;
const char* const kBenches[] = {"deriv", "tak", "qsort", "matrix"};
const std::vector<unsigned> kPeCounts = {1, 2, 4, 8};
const std::vector<u32> kReplaySizes = {256, 1024, 4096};

enum class Kind { Replay, Time, Sweep, TraceFile, Stats };
const char* const kKindNames[] = {"replay", "time", "sweep", "trace_file", "stats"};

struct MixRequest {
  Kind kind;
  std::string line;
};

/// Draws from `items` in rounds: each round is a fresh seeded shuffle
/// of all of them, so every seed's mix holds the same number of each.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> items, Rng& rng) : items_(std::move(items)), rng_(rng) {}
  T draw() {
    if (next_ == 0) shuffle(items_, rng_);
    T v = items_[next_];
    next_ = (next_ + 1) % items_.size();
    return v;
  }

 private:
  std::vector<T> items_;
  Rng& rng_;
  std::size_t next_ = 0;
};

std::vector<std::string> protocol_names() {
  std::vector<std::string> out;
  for (const NamedProtocol& p : protocols()) out.push_back(p.name);
  return out;
}

/// The 48-request mix. Its weights are assumed, not measured: no record
/// of real traffic exists (perfbench/README.md gives the reason for each
/// count).
std::vector<MixRequest> make_mix(Rng& rng, const std::string& trace_path, bool tiny) {
  const std::string scale = tiny ? "small" : "paper";
  Deck<std::string> replay_protocol(protocol_names(), rng), time_protocol(protocol_names(), rng),
      sweep_protocol(protocol_names(), rng), file_protocol(protocol_names(), rng);
  Deck<u32> replay_size(kReplaySizes, rng), file_size(kReplaySizes, rng);
  Deck<unsigned> sweep_pes(kPeCounts, rng);
  std::vector<MixRequest> mix;
  for (const char* bench : kBenches) {
    for (unsigned pes : kPeCounts) {
      std::string key = std::string("\"bench\":\"") + bench + "\",\"scale\":\"" + scale +
                        "\",\"pes\":" + std::to_string(pes);
      mix.push_back({Kind::Replay, "{\"op\":\"replay\"," + key + ",\"protocol\":\"" +
                                       replay_protocol.draw() + "\",\"size\":" +
                                       std::to_string(replay_size.draw()) + "}"});
      mix.push_back({Kind::Time, "{\"op\":\"time\"," + key + ",\"protocol\":\"" +
                                     time_protocol.draw() +
                                     "\",\"size\":1024,\"service\":1,\"interleave\":2,\"wbuf\":4}"});
    }
    std::string a = sweep_protocol.draw(), b = sweep_protocol.draw();
    if (a == b) b = sweep_protocol.draw();
    mix.push_back({Kind::Sweep, std::string("{\"op\":\"sweep\",\"bench\":\"") + bench +
                                    "\",\"scale\":\"" + scale + "\",\"pes\":" +
                                    std::to_string(sweep_pes.draw()) + ",\"protocols\":[\"" + a +
                                    "\",\"" + b + "\"],\"sizes\":[256,4096]}"});
  }
  for (int i = 0; i < 8; ++i)
    mix.push_back({Kind::TraceFile, "{\"op\":\"replay\",\"trace\":\"" + trace_path +
                                        "\",\"protocol\":\"" + file_protocol.draw() +
                                        "\",\"size\":" + std::to_string(file_size.draw()) + "}"});
  for (int i = 0; i < 4; ++i) mix.push_back({Kind::Stats, "{\"op\":\"stats\"}"});
  shuffle(mix, rng);
  return mix;
}

struct Sample {
  double start = 0, end = 0;
  u64 seq = 0;  ///< dispatch number: mix entry seq % mix size, pass seq / mix size
  std::string error;  ///< empty when the request succeeded
};

/// Hands the clients the mix in order, one entry at a time, and ends a
/// phase on a cycle boundary once its time is up. So a phase is a whole
/// number of passes, and every pass is one full cycle of the mix: the
/// same requests for every pass and every seed, only in another order.
class Dispatcher {
 public:
  Dispatcher(std::size_t mix_size, double end) : mix_size_(mix_size), end_(end) {}

  /// The next dispatch number, or false once the phase is over.
  bool next(u64& seq) {
    std::scoped_lock lk(mu_);
    if (!done_ && next_ > 0 && next_ % mix_size_ == 0 && now_s() >= end_) done_ = true;
    if (done_) return false;
    seq = next_++;
    return true;
  }

 private:
  std::mutex mu_;
  const std::size_t mix_size_;
  const double end_;
  u64 next_ = 0;
  bool done_ = false;
};

/// One client's view of a measured phase.
struct ClientLog {
  std::vector<Sample> samples;
  std::map<std::size_t, std::string> results;  ///< mix index -> result JSON
  u64 retries = 0;
  u64 bench_requests = 0;
};

/// Closed loop of client `c`: it sends the next mix entry the
/// dispatcher hands out once the previous reply has arrived.
ClientLog client_loop(unsigned c, const Endpoint& ep, const std::vector<MixRequest>& mix,
                      Dispatcher& dispatch, u64 seed, Tracer* tr, int root) {
  ClientLog log;
  ClientOptions copt;
  copt.timeout_ms = 60000;
  copt.jitter_seed = seed * 2 + c + 1;
  for (u64 seq; dispatch.next(seq);) {
    std::size_t idx = static_cast<std::size_t>(seq % mix.size());
    const MixRequest& req = mix[idx];
    Sample s{now_s(), 0, seq, {}};
    try {
      SpanScope span(tr, "client.request", kKindNames[static_cast<int>(req.kind)], seq + 1, root);
      ClientOutcome out = request_with_retry(ep, req.line, copt);
      s.end = now_s();
      log.retries += static_cast<u64>(out.attempts - 1);
      if (!out.response.ok) {
        s.error = std::string(kKindNames[static_cast<int>(req.kind)]) + " failed: " +
                  out.response.code + ": " + out.response.message;
      } else if (req.kind != Kind::Stats) {
        std::string result = json_write(out.response.result);
        auto [it, fresh] = log.results.emplace(idx, result);
        if (!fresh && it->second != result)
          s.error = "mix entry " + std::to_string(idx) +
                    " answered differently on a repeat (nondeterminism)";
        if (req.kind != Kind::TraceFile) ++log.bench_requests;
      }
    } catch (const std::exception& e) {
      s.end = now_s();
      s.error = std::string("transport failure: ") + e.what();
    }
    log.samples.push_back(s);
  }
  return log;
}

const JsonValue& member(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.is_object() ? obj.find(key) : nullptr;
  if (!v) throw std::runtime_error("response has no member " + key);
  return *v;
}

u64 member_u64(const JsonValue& obj, const std::string& key) {
  return static_cast<u64>(member(obj, key).as_int());
}

/// True when every traffic field of `expect` appears in `obj` with
/// the same value.
bool traffic_matches(const JsonValue& obj, const TrafficStats& expect) {
  for (const auto& [name, value] : traffic_fields(expect))
    if (member_u64(obj, name) != value) return false;
  return true;
}

struct ServeState {
  Job job;
  GenerateResult gen;
  std::string trace_path;
  std::string socket_path;
  std::unique_ptr<Server> server;
};

void start(const Options& opt, Tracer* tr, ServeState& st, CpuRotation& rotation) {
  Rng rng(opt.seed);
  Sizes sizes = opt.tiny ? Sizes::tiny() : Sizes::full();
  sizes.qsort_n = opt.tiny ? 100 : 1000;
  st.job = make_job("qsort", sizes, rng);
  Program prog;
  MachineConfig cfg;
  cfg.num_pes = kTracePes;
  cfg.sizes = bench_area_sizes();
  rotation.pin_next();
  st.gen = generate(tr, prog, st.job, cfg);
  st.trace_path = scratch_file(opt, "serve", ".trc");
  {
    SpanScope s(tr, "trace.save");
    save_trace(st.gen.trace->to_packed(), st.trace_path);
  }
  rotation.unpin();  // before the server threads start
  st.socket_path = scratch_file(opt, "serve", ".sock");
  ServiceConfig sc;
  sc.workers = kWorkers;
  st.server = std::make_unique<Server>(Endpoint::parse("unix:" + st.socket_path), sc);
  st.server->start();
  Response pong = request_with_retry(st.server->endpoint(), "{\"op\":\"ping\"}").response;
  if (!pong.ok) throw std::runtime_error("server did not answer ping: " + pong.message);
}

void stop(ServeState& st) {
  if (st.server) st.server->stop();
  st.server.reset();
  std::remove(st.socket_path.c_str());
}

/// In-process replay of the mix entry `req`, compared with the
/// server's answer. Returns the busy references one answer replays.
double check_entry(Tracer* tr, const MixRequest& req, const JsonValue& result,
                   Checks& checks, LayerTotals& totals) {
  Request r = parse_request(req.line);
  std::shared_ptr<const ChunkedTrace> trace;
  unsigned pes = r.pes;
  if (!r.trace_path.empty()) {
    SpanScope s(tr, "trace.load");
    trace = load_chunked_trace(r.trace_path);
    pes = trace->num_pes();
  } else {
    trace = TraceLibrary::instance().get(r.bench, r.scale, r.pes)->trace;
  }
  const double refs = static_cast<double>(trace->size());
  const std::string what = std::string(kKindNames[static_cast<int>(req.kind)]) + " " + req.line;
  auto replay = [&](const CacheConfig& cfg, const char* tag) {
    HierCacheSim sim(cfg, pes);
    SpanScope s(tr, "cache.replay", tag);
    sim.replay(*trace);
    s.work(refs);
    totals.cache(tag, sim.stats());
    return sim.stats();
  };
  if (req.kind == Kind::Time) {
    TimedReplay timed(r.cfg, pes, r.timing);
    {
      SpanScope s(tr, "timing.replay");
      timed.replay(*trace);
      s.work(refs);
    }
    totals.timing(timed.timing());
    bool same = traffic_matches(member(result, "traffic"), timed.traffic());
    for (const auto& [name, value] : timing_fields(timed.timing()))
      same = same && member_u64(result, name) == value;
    checks.expect(same, what + ": server answer differs from the in-process timed replay");
    return refs;
  }
  if (req.kind == Kind::Sweep) {
    const std::vector<JsonValue>& rows = member(result, "points").items();
    bool same = rows.size() == r.sweep_protocols.size() * r.sweep_sizes.size();
    std::size_t i = 0;
    for (Protocol p : r.sweep_protocols)
      for (u32 size : r.sweep_sizes) {
        if (!same) break;
        TrafficStats st = replay(paper_cache_config(p, size), protocol_tag(p));
        same = member_u64(rows[i], "bus_words") == st.bus_words &&
               member_u64(rows[i], "size") == size;
        ++i;
      }
    checks.expect(same, what + ": server sweep differs from in-process replays");
    return refs * static_cast<double>(r.sweep_protocols.size() * r.sweep_sizes.size());
  }
  checks.expect(traffic_matches(result, replay(r.cfg, protocol_tag(r.cfg.protocol))),
                what + ": server answer differs from the in-process replay");
  return refs;
}

/// Cache-simulation points one answer to `kind` stands for.
double points_of(Kind kind) {
  switch (kind) {
    case Kind::Stats: return 0;
    case Kind::Sweep: return 4;  // 2 protocols x 2 sizes
    default: return 1;
  }
}

/// Cuts a phase's samples into passes, one per cycle of the mix. A
/// pass ends when the last request of its cycle (or of an earlier one)
/// has been answered, and lasts from the end of the pass before.
std::vector<Pass> passes_of(const std::vector<Sample>& samples, double phase_start,
                            const std::vector<MixRequest>& mix,
                            const std::vector<double>& mix_refs) {
  std::vector<Pass> out;
  std::vector<double> last_end;
  for (const Sample& s : samples) {
    std::size_t cycle = static_cast<std::size_t>(s.seq / mix.size());
    if (cycle >= out.size()) {
      out.resize(cycle + 1);
      last_end.resize(cycle + 1, phase_start);
    }
    std::size_t idx = static_cast<std::size_t>(s.seq % mix.size());
    Pass& p = out[cycle];
    p.latency_ms.push_back((s.end - s.start) * 1e3);
    p.busy_mrefs += mix_refs[idx] / 1e6;
    p.points += points_of(mix[idx].kind);
    last_end[cycle] = std::max(last_end[cycle], s.end);
  }
  double prev = phase_start;
  for (std::size_t i = 0; i < out.size(); ++i) {
    double end = std::max(prev, last_end[i]);
    out[i].seconds = end - prev;
    prev = end;
  }
  return out;
}

}  // namespace

Measured run_serve(const Options& opt, Tracer* tracer, Checks& checks) {
  Measured m;
  ServeState st;
  CpuRotation rotation;
  for (SetupReps reps(rotation); reps.more(m.setup_s.size());) {
    stop(st);
    SpanScope s(tracer, "bench.setup");
    double t0 = now_s();
    start(opt, tracer, st, rotation);
    m.setup_s.push_back(now_s() - t0);
  }

  Rng rng(opt.seed ^ 0x5E47E5EEDull);
  const std::vector<MixRequest> mix = make_mix(rng, st.trace_path, opt.tiny);
  const Endpoint ep = st.server->endpoint();

  struct Phase {
    double start = 0;
    std::vector<Sample> samples;
    int root = -1;
    Tracer* tr = nullptr;
  };
  std::vector<Phase> phases;
  std::map<std::size_t, std::string> results;
  u64 retries = 0, bench_requests = 0;
  auto run_phase = [&](Tracer* tr, double secs) {
    Phase ph;
    ph.tr = tr;
    SpanScope root(tr, "bench.pass");
    ph.root = root.id();
    ph.start = now_s();
    Dispatcher dispatch(mix.size(), ph.start + secs);
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        logs[c] = client_loop(c, ep, mix, dispatch, opt.seed, tr, ph.root);
      });
    for (std::thread& t : threads) t.join();
    for (const ClientLog& log : logs) {
      ph.samples.insert(ph.samples.end(), log.samples.begin(), log.samples.end());
      for (const Sample& s : log.samples) {
        checks.attempt();
        if (!s.error.empty()) checks.fail(s.error);
      }
      retries += log.retries;
      bench_requests += log.bench_requests;
      for (const auto& [idx, res] : log.results) {
        checks.attempt();
        auto [it, fresh] = results.emplace(idx, res);
        checks.expect(fresh || it->second == res,
                      "mix entry " + std::to_string(idx) + " answered differently across phases");
      }
    }
    phases.push_back(std::move(ph));
  };
  if (!opt.trace) {
    run_phase(nullptr, opt.seconds);
  } else {
    run_phase(nullptr, opt.seconds / 2);
    run_phase(tracer, opt.seconds / 2);
  }

  Response stats = request_with_retry(ep, "{\"op\":\"stats\"}").response;
  stop(st);

  LayerTotals totals;
  totals.engine(st.gen.result.stats);
  totals.code_words = st.gen.code_words;
  totals.trace_bytes = std::filesystem::file_size(st.trace_path);
  std::vector<double> mix_refs(mix.size(), 0.0);
  Digest d;
  {
    SpanScope root(tracer, "bench.check");
    checks.attempt();
    const RunResult& r = st.gen.result;
    checks.expect(r.success && !r.solutions.empty(), "trace-file job: no solution");
    if (!r.solutions.empty()) {
      std::string bad = st.job.check(r.solutions.front());
      checks.expect(bad.empty(), "trace-file job: " + bad);
    }
    checks.attempt();
    std::shared_ptr<const ChunkedTrace> loaded;
    {
      SpanScope s(tracer, "trace.load");
      loaded = load_chunked_trace(st.trace_path);
    }
    checks.expect(same_refs(*st.gen.trace, *loaded),
                  "loaded trace file differs from the generated trace");
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (mix[i].kind == Kind::Stats) continue;
      checks.attempt();
      auto it = results.find(i);
      if (it == results.end()) {
        checks.fail("mix entry " + std::to_string(i) + " never answered");
        continue;
      }
      try {
        mix_refs[i] = check_entry(tracer, mix[i], json_parse(it->second), checks, totals);
      } catch (const std::exception& e) {
        checks.fail("mix entry " + std::to_string(i) + ": " + e.what());
      }
      d.add(kKindNames[static_cast<int>(mix[i].kind)]);  // the line names a per-run path
      d.add(it->second);
    }
  }
  std::remove(st.trace_path.c_str());
  d.add(st.gen.result.stats);
  m.digest = d.value();

  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::vector<Pass> passes = passes_of(phases[i].samples, phases[i].start, mix, mix_refs);
    if (phases[i].tr) phases[i].tr->set_units(phases[i].root, static_cast<double>(passes.size()));
    std::vector<Pass>& dst = (opt.trace && i == 1) ? m.traced_passes : m.passes;
    dst.insert(dst.end(), passes.begin(), passes.end());
  }

  m.layer = totals.metrics();
  double entries = 0, shed = 0, failed = 0;
  checks.attempt();
  if (stats.ok) {
    entries = static_cast<double>(member_u64(stats.result, "trace_library_entries"));
    shed = static_cast<double>(member_u64(stats.result, "shed"));
    failed = static_cast<double>(member_u64(stats.result, "failed"));
  } else {
    checks.fail("stats request failed: " + stats.message);
  }
  const Phase& last = phases.back();
  double last_secs = 0;
  for (const Sample& s : last.samples) last_secs = std::max(last_secs, s.end - last.start);
  m.layer.push_back({"harness.trace_lib.misses", entries, "count"});
  m.layer.push_back({"harness.trace_lib.hit_ratio",
                     bench_requests ? 1.0 - entries / static_cast<double>(bench_requests) : 0.0,
                     "ratio"});
  m.layer.push_back({"server.shed", shed, "count"});
  m.layer.push_back({"server.failed", failed, "count"});
  m.layer.push_back({"client.retries", static_cast<double>(retries), "count"});
  m.layer.push_back({"client.req_per_s",
                     last_secs > 0 ? static_cast<double>(last.samples.size()) / last_secs : 0.0,
                     "1/s"});
  return m;
}

}  // namespace bench
