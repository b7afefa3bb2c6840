// rapbench: the rapwam benchmark program.
//
//   rapbench --workload pipeline|sweep|serve --seed N --seconds S
//            --trace 0|1 [--tiny] [--out DIR] [--pins FILE]
//
// The untraced run (--trace 0) prints the end-to-end metrics. The
// traced run (--trace 1) measures half its time untraced and half
// traced, prints the per-layer metrics and the tracing overhead, and
// writes the spans to DIR/spans-<workload>-<seed>.json. The last line
// of standard output is always the result object; a run that cannot
// complete exits non-zero without one.
#include <sys/stat.h>

#include <fstream>
#include <iostream>
#include <sstream>

#include "report.h"

namespace {

using namespace bench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rapbench: " << why
            << "\nusage: rapbench --workload pipeline|sweep|serve --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out DIR] [--pins FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.out_dir = ".bench_out";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") { o.seed = std::stoull(value()); have_seed = true; }
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--out") o.out_dir = value();
      else if (a == "--pins") o.pins = value();
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload != "pipeline" && o.workload != "sweep" && o.workload != "serve")
    usage("unknown workload '" + o.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return o;
}

/// The pinned digest for (workload, seed) in `path`, or "" if none.
/// Lines read "<workload> <seed> <digest>"; '#' starts a comment.
std::string pinned_digest(const std::string& path, const Options& o) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string w, digest;
    u64 seed = 0;
    if (is >> w >> seed >> digest && w == o.workload && seed == o.seed) return digest;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  try {
    ::mkdir(opt.out_dir.c_str(), 0755);
    Checks checks;
    std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
    Measured m;
    if (opt.workload == "pipeline") m = run_pipeline(opt, tracer.get(), checks);
    else if (opt.workload == "sweep") m = run_sweep_workload(opt, tracer.get(), checks);
    else m = run_serve(opt, tracer.get(), checks);

    // Simulated statistics are a function of the seed alone; for the
    // seeds BENCHMARK.json names they are pinned.
    std::string pin = opt.pins.empty() || opt.tiny ? "" : pinned_digest(opt.pins, opt);
    if (!pin.empty()) {
      checks.attempt();
      checks.expect(pin == hex(m.digest), "simulated-stat digest " + hex(m.digest) +
                                              " differs from the pinned " + pin);
    }

    std::vector<Metric> metrics;
    if (opt.trace) {
      std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".json";
      tracer->write_chrome_json(path);
      std::cout << "spans " << path << "\n";
      metrics = per_layer_metrics(m, *tracer);
    } else {
      metrics = end_to_end_metrics(m);
    }
    print_result(opt, m, checks, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rapbench: error: " << e.what() << "\n";
    return 1;
  }
}
