// Shared pieces of the OMQ benchmark: seeded generation, timing helpers,
// the in-memory span recorder, the result record every workload fills, and
// the reply parser the answer oracle compares against.
#ifndef OMQBENCH_HARNESS_H_
#define OMQBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace omqbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// A short lowercase tag derived from the seed; generated names carry it so
/// another seed gives other names.
std::string SeedTag(uint64_t seed);

/// FNV-1a over `text`, continuing from `h`: the input digest that shows
/// whether two runs saw the same generated inputs.
inline uint64_t Fnv1a(uint64_t h, std::string_view text) {
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// Answer tuples as generated element ids.
using Tuple = std::vector<int>;
using AnswerSet = std::set<Tuple>;

/// Parses "ok answers <q> n=<k> (a,b) (c,d)" into tuples of element ids.
/// Element names end in "_<id>" (see ElemName); returns false on any reply
/// that is not an answer set of such names.
bool ParseAnswersReply(const std::string& reply, AnswerSet* out);

/// "<prefix>_<id>": the element naming scheme of every generated constant.
inline std::string ElemName(const std::string& prefix, int id) {
  return prefix + "_" + std::to_string(id);
}

/// One finished span. Spans are recorded from the benchmark's own code
/// around calls into the library's public functions.
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  double Micros() const { return end_us - start_us; }
};

/// Keeps spans in memory; WriteJson dumps them (Chrome trace-event format)
/// when the run ends. Single-threaded by design: traced phases run one
/// request at a time so that span self times are not inflated by
/// contention.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span; returns its index (the parent id for nested spans).
  int64_t Begin(const std::string& name, uint64_t request, int64_t parent);
  /// Closes the span and returns its duration in microseconds.
  double End(int64_t id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer makes it a plain timer.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, uint64_t request,
       int64_t parent = -1);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span (idempotent) and returns its duration in microseconds.
  double Stop();
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_ = -1;
  Clock::time_point t0_;
  double micros_ = -1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark invocation reports. `attempted`/`failed` count
/// operations checked by the oracle; the first few failures are logged to
/// stderr.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Recorded backend picks, verdicts and fallbacks (printed as one
  /// "picks" line so runs can be compared).
  std::map<std::string, std::string> picks;
  std::vector<std::string> notes;
  uint64_t input_digest = kFnvBasis;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; logs the first few failures.
  void Check(bool ok, const std::string& what);
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace omqbench

#endif  // OMQBENCH_HARNESS_H_
