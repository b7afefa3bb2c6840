#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>

#include "server/json.h"

namespace bench {

using rapwam::JsonValue;
using rapwam::json_write;

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

unsigned thread_number() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next++;
  return id;
}

bool matches(const Span& s, const std::string& name, const std::string& tag) {
  return s.name == name && (tag.empty() || s.tag == tag);
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::open(const std::string& name, const std::string& tag, u64 job, int parent) {
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  Span s;
  s.name = name;
  s.tag = tag;
  s.parent = parent;
  s.tid = thread_number();
  int id;
  {
    std::scoped_lock lk(mu_);
    id = static_cast<int>(spans_.size());
    if (parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(parent)];
      s.root = p.root;
      s.job = job ? job : p.job;
    } else {
      s.root = id;
      s.job = job;
    }
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id, double work) {
  i64 end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::scoped_lock lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end;
  s.work = work;
}

void Tracer::set_units(int root, double units) {
  std::scoped_lock lk(mu_);
  spans_[static_cast<std::size_t>(root)].units = units;
}

std::vector<double> Tracer::self_times_s() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::vector<std::pair<i64, i64>> iv;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      if (k.end_ns < 0) continue;
      iv.emplace_back(std::max(k.start_ns, s.start_ns), std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    i64 covered = 0, cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

double Tracer::per_unit_self_s(const std::string& name, const std::string& tag) const {
  std::scoped_lock lk(mu_);
  std::vector<double> self = self_times_s();
  std::map<std::string, double> phase_self, phase_units;
  for (const Span& s : spans_)
    if (s.parent < 0) phase_units[s.name] += s.units;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (matches(spans_[i], name, tag))
      phase_self[spans_[static_cast<std::size_t>(spans_[i].root)].name] += self[i];
  double total = 0;
  for (const auto& [phase, secs] : phase_self)
    total += secs / std::max(1.0, phase_units[phase]);
  return total;
}

double Tracer::work_rate(const std::string& name, const std::string& tag) const {
  std::scoped_lock lk(mu_);
  std::vector<double> self = self_times_s();
  double work = 0, secs = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (matches(spans_[i], name, tag)) {
      work += spans_[i].work;
      secs += self[i];
    }
  return secs > 0 ? work / secs : 0.0;
}

std::vector<double> Tracer::self_ms(const std::string& name, const std::string& tag) const {
  std::scoped_lock lk(mu_);
  std::vector<double> self = self_times_s();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (matches(spans_[i], name, tag)) out.push_back(self[i] * 1e3);
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::scoped_lock lk(mu_);
  JsonValue events = JsonValue::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    JsonValue args = JsonValue::object();
    args.set("id", JsonValue::unsigned_int(i));
    args.set("parent", JsonValue::integer(s.parent));
    args.set("job", JsonValue::unsigned_int(s.job));
    args.set("tag", JsonValue::string(s.tag));
    args.set("work", JsonValue::real(s.work));
    JsonValue e = JsonValue::object();
    e.set("name", JsonValue::string(s.name));
    e.set("cat", JsonValue::string(s.name.substr(0, s.name.find('.'))));
    e.set("ph", JsonValue::string("X"));
    e.set("pid", JsonValue::integer(1));
    e.set("tid", JsonValue::integer(s.tid));
    e.set("ts", JsonValue::real(static_cast<double>(s.start_ns) / 1e3));
    e.set("dur", JsonValue::real(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  JsonValue doc = JsonValue::object();
  doc.set("displayTimeUnit", JsonValue::string("ms"));
  doc.set("traceEvents", std::move(events));
  std::ofstream f(path);
  f << json_write(doc) << "\n";
  if (!f) throw std::runtime_error("cannot write span file " + path);
}

SpanScope::SpanScope(Tracer* t, const std::string& name, const std::string& tag,
                     u64 job, int parent)
    : t_(t) {
  if (t_) id_ = t_->open(name, tag, job, parent);
}

SpanScope::~SpanScope() {
  if (t_) t_->close(id_, work_);
}

}  // namespace bench
