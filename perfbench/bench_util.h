// Shared helpers of the perfbench runners: exact percentiles over raw
// samples, geometric means, host-time spans around calls into the
// simulator's layers, and the result record every workload fills in.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nearpm {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Raw samples with exact order statistics (no bucketing).
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const;
  // Nearest-rank percentile, q in [0, 1]: the smallest sample such that at
  // least q of all samples are <= it. Always one of the recorded values.
  // 0 for an empty set.
  double Percentile(double q) const;
  // The highest percentile (in [0, 1]) with at least `beyond` samples above
  // its rank -- the tail a percentile can be trusted to. -1 when there are
  // not enough samples for any.
  double TrustedPercentile(std::size_t beyond = 10) const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Geometric mean of positive values; 0 if `values` is empty or any value is
// not positive (a speed-up of zero is an error, not a data point).
double GeoMean(const std::vector<double>& values);

// Median of a small vector (by value; sorts a copy). 0 when empty.
double Median(std::vector<double> values);

// ---- Spans ------------------------------------------------------------------
// A span brackets one benchmark call into a layer's public function. Spans
// nest per OS thread; on close each one's self time (its duration minus the
// part its children cover) is folded into a per-name aggregate. The first
// `keep` spans are also kept verbatim (name, start, end, parent, request id)
// and written out when the run ends. Disabled spans cost one branch.
struct SpanAggregate {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

void EnableSpans(std::size_t keep);
bool SpansEnabled();
// Merged per-name aggregates over every thread that recorded spans.
std::map<std::string, SpanAggregate> SpanTotals();
// Writes the kept spans as JSON lines; false on an I/O error.
bool WriteSpans(const std::string& path);

class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_id(std::uint64_t id);
  // Closes the span early; idempotent.
  void End();

 private:
  bool open_ = false;
};

// ---- Flags ------------------------------------------------------------------
// --name=value arguments. Every workload reads the parameters it needs with
// a default; Unused() names any flag nobody read, so a misspelt parameter
// fails the run instead of silently falling back to the default.
class Flags {
 public:
  // False (and *error set) on an argument not of the --name=value form.
  bool Parse(int argc, char** argv, std::string* error);
  std::string Str(const std::string& name, const std::string& def) const;
  std::uint64_t U64(const std::string& name, std::uint64_t def) const;
  double F64(const std::string& name, double def) const;
  std::vector<std::string> Unused() const;
  bool ok() const { return bad_.empty(); }
  const std::string& bad() const { return bad_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  mutable std::string bad_;  // first unparsable value
};

// ---- Result --------------------------------------------------------------
// What one workload run reports: every metric by name, the sim-time values
// that must repeat bit-exactly for a given seed, and the correctness tally.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, double> sim;  // determinism fingerprint
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  void Fail(const std::string& what);
  // Adds another result's correctness tally (metrics are not merged).
  void Merge(const Result& other);
  // Stores the exact p50 and p99 of `s` (times `scale`) and prints them
  // with the sample count and how far into the tail the samples reach.
  void Percentiles(const std::string& p50_name, const std::string& p99_name,
                   const Samples& s, double scale);
};

// Peak resident set of this process, MiB.
double PeakRssMb();

// Compact JSON number (enough digits to round-trip a double).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench
}  // namespace nearpm

#endif  // PERFBENCH_BENCH_UTIL_H_
