// Statistics, span tracing and failure accounting for the host-cost
// benchmark. Header-only and free of simulator types so the unit tests can
// pin every rule the benchmark reports by.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- order statistics -----------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Q1, Q2, Q3 exactly as Python's statistics.quantiles(v, n=4) (the default
/// "exclusive" method) computes them, so in-run spreads match the ones the
/// acceptance check derives from whole runs. Needs at least two samples.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

/// (Q3 - Q1) / median: the spread the benchmark's bounds are judged by.
/// 0 for fewer than two samples or a zero median.
inline double spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  const double med = median(v);
  if (med == 0) return 0;
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / std::fabs(med);
}

/// 1-based nearest rank of percentile p (0 < p <= 100) among n samples:
/// the smallest rank whose cumulative share reaches p.
inline size_t nearest_rank(size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Nearest-rank percentile value (0 for no samples).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples ranked above the percentile's rank. A percentile is only
/// reported as meaningful when at least ten samples lie beyond it.
inline size_t beyond(size_t n, double p) { return n - nearest_rank(n, p); }
inline bool percentile_supported(size_t n, double p) {
  return n > 0 && beyond(n, p) >= 10;
}

// ---- metric names ---------------------------------------------------------

/// A metric name starts with a letter or digit and holds at most 64
/// letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  for (char c : s)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

/// A unit holds at most 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---- spans ----------------------------------------------------------------

/// One timed call into a layer. Times are steady-clock nanoseconds; parent
/// is an index into the same log (-1 for a root); cell groups the spans of
/// one benchmark cell (a machine lifecycle or an attack round).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t cell = 0;
};

/// In-memory span store, written out only when the run ends. Thread-safe:
/// attack rounds record scenario spans from pool workers.
class SpanLog {
 public:
  int open(const char* name, uint64_t cell, int parent, int64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now_ns, now_ns, parent, cell});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id, int64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now_ns;
  }
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each other
/// (parallel workers) and may stick out of the parent; only the covered
/// part inside the parent counts.
inline std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  std::vector<int64_t> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

// ---- correctness accounting ----------------------------------------------

/// Attempted and failed operation counts. Every checked operation records
/// exactly once; thread-safe for pool workers.
class Tally {
 public:
  void record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  double fail_rate() const {
    const uint64_t a = attempted();
    return a == 0 ? 0 : static_cast<double>(failed()) / static_cast<double>(a);
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// What one run-workload cell must reproduce exactly.
struct RunExpect {
  uint64_t halt_code = 0;
  uint64_t sim_cycles = 0;
  uint64_t retired = 0;
};
inline bool run_matches(const RunExpect& want, const RunExpect& got) {
  return want.halt_code == got.halt_code && want.sim_cycles == got.sim_cycles &&
         want.retired == got.retired;
}

}  // namespace perfbench
