#include "oracles.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>

#include "harness/programs.h"

namespace bench {

u64 Rng::next() {
  s_ += 0x9E3779B97F4A7C15ull;
  u64 z = s_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

long native_tak(long x, long y, long z) {
  if (x <= y) return z;
  return native_tak(native_tak(x - 1, y, z), native_tak(y - 1, z, x),
                    native_tak(z - 1, x, y));
}

const std::string* binding(const rapwam::Solution& sol, const std::string& var) {
  for (const auto& [name, text] : sol.bindings)
    if (name == var) return &text;
  return nullptr;
}

/// Minimal reader for the engine's canonical term text: integers,
/// lists and f(...) compounds.
class TermText {
 public:
  explicit TermText(const std::string& s) : s_(s) {}

  bool at_end() const { return i_ == s_.size(); }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void expect(char c) {
    if (!peek(c)) throw std::runtime_error(std::string("expected '") + c + "' at " +
                                           std::to_string(i_));
    ++i_;
  }

  long integer() {
    std::size_t start = i_;
    if (peek('-')) ++i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    if (i_ == start || (i_ == start + 1 && s_[start] == '-'))
      throw std::runtime_error("expected integer at " + std::to_string(start));
    return std::stol(s_.substr(start, i_ - start));
  }

  std::vector<long> int_list() {
    std::vector<long> out;
    expect('[');
    if (peek(']')) { ++i_; return out; }
    for (;;) {
      out.push_back(integer());
      if (peek(']')) { ++i_; return out; }
      expect(',');
    }
  }

  std::vector<std::vector<long>> int_matrix() {
    std::vector<std::vector<long>> out;
    expect('[');
    if (peek(']')) { ++i_; return out; }
    for (;;) {
      out.push_back(int_list());
      if (peek(']')) { ++i_; return out; }
      expect(',');
    }
  }

  /// Name of an atom or functor: a letter run or a symbol-char run.
  std::string name() {
    std::size_t start = i_;
    auto alnum = [](char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; };
    auto symbol = [](char c) { return std::string("+-*/\\^<>=~:.?@#&$").find(c) != std::string::npos; };
    if (i_ < s_.size() && alnum(s_[i_])) {
      while (i_ < s_.size() && alnum(s_[i_])) ++i_;
    } else {
      while (i_ < s_.size() && symbol(s_[i_])) ++i_;
    }
    if (i_ == start) throw std::runtime_error("expected a name at " + std::to_string(i_));
    return s_.substr(start, i_ - start);
  }

  char current() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  char next_char() const { return i_ + 1 < s_.size() ? s_[i_ + 1] : '\0'; }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

// -- arithmetic modulo the Mersenne prime 2^61 - 1 -----------------------
//
// The deriv oracle evaluates expressions of ~10^4 nodes; over doubles
// their values overflow, modulo a prime they are exact.

constexpr u64 kP = (u64(1) << 61) - 1;

u64 add_mod(u64 a, u64 b) { u64 s = a + b; return s >= kP ? s - kP : s; }
u64 sub_mod(u64 a, u64 b) { return a >= b ? a - b : a + kP - b; }
u64 mul_mod(u64 a, u64 b) {
  unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  u64 lo = static_cast<u64>(p & kP), hi = static_cast<u64>(p >> 61);
  return add_mod(lo, hi);
}

/// Expression over x with binary + - * and small constant leaves.
struct Expr {
  struct Node {
    char op = 0;    ///< '+', '-', '*', or 0 for a leaf
    int leaf = -1;  ///< constant value; -1 is the variable x
    int l = -1, r = -1;
  };
  std::vector<Node> nodes;
  int root = -1;

  /// A balanced tree of `ops` binary operators. Each depth gets a
  /// fixed mix of operators (40% +, 20% -, 40% *) and of leaves (one
  /// in three a constant), placed by `rng`: every seed differentiates
  /// an expression of the same shape and cost.
  void build(Rng& rng, int ops) {
    std::vector<std::vector<int>> inner, leaves;  // node ids per depth
    root = shape(ops, 0, inner, leaves);
    for (std::vector<int>& level : inner) {
      std::size_t k = level.size();
      std::size_t plus = (4 * k + 5) / 10, minus = (2 * k + 5) / 10;
      shuffle(level, rng);
      for (std::size_t i = 0; i < k; ++i)
        nodes[static_cast<std::size_t>(level[i])].op = i < plus ? '+' : i < plus + minus ? '-' : '*';
    }
    for (std::vector<int>& level : leaves) {
      shuffle(level, rng);
      for (std::size_t i = 0; i < level.size(); ++i)
        nodes[static_cast<std::size_t>(level[i])].leaf =
            3 * i < level.size() ? static_cast<int>(rng.below(9)) + 1 : -1;
    }
  }

  int shape(int ops, std::size_t depth, std::vector<std::vector<int>>& inner,
            std::vector<std::vector<int>>& leaves) {
    Node n;
    if (ops > 0) {
      int left = (ops - 1) / 2;
      n.op = '?';
      n.l = shape(left, depth + 1, inner, leaves);
      n.r = shape(ops - 1 - left, depth + 1, inner, leaves);
    }
    nodes.push_back(n);
    int id = static_cast<int>(nodes.size()) - 1;
    auto& by_depth = ops > 0 ? inner : leaves;
    if (by_depth.size() <= depth) by_depth.resize(depth + 1);
    by_depth[depth].push_back(id);
    return id;
  }

  void render(int i, std::ostringstream& os) const {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (!n.op) {
      if (n.leaf < 0) os << "x"; else os << n.leaf;
      return;
    }
    os << "(";
    render(n.l, os);
    os << n.op;
    render(n.r, os);
    os << ")";
  }

  /// Forward mode: value and d/dx at x0, modulo kP.
  std::pair<u64, u64> dual(int i, u64 x0) const {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (!n.op) return n.leaf < 0 ? std::pair<u64, u64>{x0, 1} : std::pair<u64, u64>{u64(n.leaf), 0};
    auto [a, da] = dual(n.l, x0);
    auto [b, db] = dual(n.r, x0);
    switch (n.op) {
      case '+': return {add_mod(a, b), add_mod(da, db)};
      case '-': return {sub_mod(a, b), sub_mod(da, db)};
      default: return {mul_mod(a, b), add_mod(mul_mod(da, b), mul_mod(a, db))};
    }
  }
};

/// Evaluates the engine's derivative text (canonical +, -, * compounds
/// over x and integers) at x0, modulo kP.
u64 eval_term_mod(TermText& t, u64 x0) {
  char c = t.current();
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '-' && std::isdigit(static_cast<unsigned char>(t.next_char())))) {
    long v = t.integer();
    return v >= 0 ? u64(v) % kP : sub_mod(0, u64(-v) % kP);
  }
  std::string f = t.name();
  if (!t.peek('(')) {
    if (f == "x") return x0;
    throw std::runtime_error("unexpected atom '" + f + "' in derivative");
  }
  t.expect('(');
  u64 a = eval_term_mod(t, x0);
  if (t.peek(')')) {
    t.expect(')');
    if (f == "-") return sub_mod(0, a);
    throw std::runtime_error("unexpected unary functor '" + f + "'");
  }
  t.expect(',');
  u64 b = eval_term_mod(t, x0);
  t.expect(')');
  if (f == "+") return add_mod(a, b);
  if (f == "-") return sub_mod(a, b);
  if (f == "*") return mul_mod(a, b);
  throw std::runtime_error("unexpected functor '" + f + "' in derivative");
}

template <typename Fn>
std::string guarded(const rapwam::Solution& sol, const std::string& var, Fn&& fn) {
  const std::string* text = binding(sol, var);
  if (!text) return "no binding for " + var;
  try {
    return fn(*text);
  } catch (const std::exception& e) {
    return "unreadable " + var + ": " + e.what();
  }
}

/// Appends the keys of sorted[lo, hi) in an order on which qsort/2
/// always picks the median as pivot: the median first, then the two
/// halves (each ordered the same way) merged at random. part/4 keeps
/// the order of what it splits off, so every partition halves its
/// list and every seed sorts with the same recursion tree.
void balanced_order(const std::vector<long>& sorted, std::size_t lo, std::size_t hi,
                    Rng& rng, std::vector<long>& out) {
  if (lo >= hi) return;
  std::size_t mid = lo + (hi - lo) / 2;
  std::vector<long> left, right;
  balanced_order(sorted, lo, mid, rng, left);
  balanced_order(sorted, mid + 1, hi, rng, right);
  out.push_back(sorted[mid]);
  std::size_t i = 0, j = 0;
  while (i < left.size() || j < right.size()) {
    std::size_t rest = (left.size() - i) + (right.size() - j);
    if (rng.below(rest) < left.size() - i) out.push_back(left[i++]);
    else out.push_back(right[j++]);
  }
}

Job qsort_job(const Sizes& sz, Rng& rng) {
  // Distinct keys: 10 * i plus a seeded offset in [0, 10).
  std::vector<long> keys(static_cast<std::size_t>(sz.qsort_n));
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<long>(10 * i + rng.below(10));
  std::vector<long> xs;
  balanced_order(keys, 0, keys.size(), rng, xs);
  std::ostringstream goal;
  goal << "qsort([";
  for (std::size_t i = 0; i < xs.size(); ++i) goal << (i ? "," : "") << xs[i];
  goal << "],R)";
  std::sort(xs.begin(), xs.end());  // the oracle: keys sorted natively
  Job j{"qsort", rapwam::bench_program("qsort", rapwam::BenchScale::Small).source,
        goal.str(), nullptr};
  j.check = [sorted = std::move(xs)](const rapwam::Solution& sol) {
    return guarded(sol, "R", [&](const std::string& text) -> std::string {
      TermText t(text);
      std::vector<long> got = t.int_list();
      if (!t.at_end()) return "trailing text after the sorted list";
      if (got != sorted) return "qsort result differs from std::sort";
      return "";
    });
  };
  return j;
}

Job matrix_job(const Sizes& sz, Rng& rng) {
  const int n = sz.matrix_n;
  auto random_matrix = [&] {
    std::vector<std::vector<long>> m(static_cast<std::size_t>(n),
                                     std::vector<long>(static_cast<std::size_t>(n)));
    for (auto& row : m)
      for (long& v : row) v = static_cast<long>(rng.below(100));
    return m;
  };
  auto a = random_matrix();
  auto b = random_matrix();
  auto text = [](const std::vector<std::vector<long>>& m, bool transpose) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < m.size(); ++i) {
      os << (i ? ",[" : "[");
      for (std::size_t j = 0; j < m.size(); ++j)
        os << (j ? "," : "") << (transpose ? m[j][i] : m[i][j]);
      os << "]";
    }
    os << "]";
    return os.str();
  };
  // mmul/3 takes the second operand as its list of columns.
  std::string goal = "mmul(" + text(a, false) + "," + text(b, true) + ",R)";
  std::vector<std::vector<long>> c(a.size(), std::vector<long>(a.size(), 0));
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.size(); ++j)
      for (std::size_t k = 0; k < a.size(); ++k) c[i][j] += a[i][k] * b[k][j];
  Job j{"matrix", rapwam::bench_program("matrix", rapwam::BenchScale::Small).source,
        goal, nullptr};
  j.check = [product = std::move(c)](const rapwam::Solution& sol) {
    return guarded(sol, "R", [&](const std::string& text) -> std::string {
      TermText t(text);
      if (t.int_matrix() != product) return "matrix result differs from the native product";
      return t.at_end() ? "" : "trailing text after the product";
    });
  };
  return j;
}

Job tak_job(const Sizes& sz) {
  std::ostringstream goal;
  goal << "tak(" << sz.tak_x << "," << sz.tak_y << "," << sz.tak_z << ",A)";
  long want = native_tak(sz.tak_x, sz.tak_y, sz.tak_z);
  Job j{"tak", rapwam::bench_program("tak", rapwam::BenchScale::Small).source,
        goal.str(), nullptr};
  j.check = [want](const rapwam::Solution& sol) {
    return guarded(sol, "A", [&](const std::string& text) -> std::string {
      TermText t(text);
      long got = t.integer();
      if (!t.at_end() || got != want)
        return "tak gave " + text + ", native tak gives " + std::to_string(want);
      return "";
    });
  };
  return j;
}

Job deriv_job(const Sizes& sz, Rng& rng) {
  auto e = std::make_shared<Expr>();
  e->build(rng, sz.deriv_nodes);
  std::ostringstream goal;
  goal << "d(";
  e->render(e->root, goal);
  goal << ",x,D)";
  std::vector<u64> points;
  for (int i = 0; i < 3; ++i) points.push_back(rng.below(kP));
  Job j{"deriv", rapwam::bench_program("deriv", rapwam::BenchScale::Small).source,
        goal.str(), nullptr};
  j.check = [e, points](const rapwam::Solution& sol) {
    return guarded(sol, "D", [&](const std::string& text) -> std::string {
      for (u64 x0 : points) {
        TermText t(text);
        u64 got = eval_term_mod(t, x0);
        if (!t.at_end()) return "trailing text after the derivative";
        if (got != e->dual(e->root, x0).second)
          return "derivative disagrees with forward-mode differentiation";
      }
      return "";
    });
  };
  return j;
}

}  // namespace

Job make_job(const std::string& bench, const Sizes& sizes, Rng& rng) {
  if (bench == "qsort") return qsort_job(sizes, rng);
  if (bench == "matrix") return matrix_job(sizes, rng);
  if (bench == "tak") return tak_job(sizes);
  if (bench == "deriv") return deriv_job(sizes, rng);
  throw std::runtime_error("unknown bench " + bench);
}

}  // namespace bench
