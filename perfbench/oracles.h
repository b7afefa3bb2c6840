// Seeded benchmark inputs and native oracles for their results.
//
// Every input the benchmark feeds the engine is generated here from
// the run's seed, together with the answer computed natively in C++
// (std::sort, a plain tak, a plain matrix product, forward-mode
// differentiation). The oracles never consult the engine, so an engine
// bug cannot hide behind a self-consistent wrong answer.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/machine.h"

namespace bench {

using rapwam::u32;
using rapwam::u64;

/// splitmix64: the benchmark's only random source, so one seed fixes
/// every input and the request order.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 next();
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }

 private:
  u64 s_;
};

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Input sizes of one job set; tiny() keeps smoke runs sub-second.
struct Sizes {
  int qsort_n = 10000;
  int matrix_n = 40;
  int tak_x = 18, tak_y = 12, tak_z = 6;
  int deriv_nodes = 20000;

  static Sizes full() { return {}; }
  static Sizes tiny() { return {200, 6, 9, 6, 3, 200}; }
};

/// One engine job: a program, a goal, and the check of its answer.
struct Job {
  std::string bench;   ///< deriv | tak | qsort | matrix
  std::string source;  ///< annotated Prolog (the library's program text)
  std::string goal;    ///< goal text without the final '.'
  /// Returns "" when `sol` is the right answer, else what is wrong.
  std::function<std::string(const rapwam::Solution& sol)> check;
};

/// Builds the seeded job for `bench` ("deriv", "tak", "qsort",
/// "matrix"); `rng` supplies its data.
Job make_job(const std::string& bench, const Sizes& sizes, Rng& rng);

}  // namespace bench
