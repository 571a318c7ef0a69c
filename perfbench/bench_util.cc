#include "perfbench/bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

namespace nearpm {
namespace perfbench {

// ---- Samples ----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) {
    s += v;
  }
  return s;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  Sort();
  const double n = static_cast<double>(values_.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::TrustedPercentile(std::size_t beyond) const {
  if (values_.size() <= beyond) {
    return -1.0;
  }
  return static_cast<double>(values_.size() - beyond) /
         static_cast<double>(values_.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) {
      return 0.0;
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- Spans ------------------------------------------------------------------

namespace {

struct KeptSpan {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t span_id;
  std::uint64_t parent_id;  // 0 = root
  std::uint64_t request_id;
  int thread;
};

struct OpenSpan {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  std::uint64_t span_id;
  std::uint64_t request_id;
};

struct ThreadSpans {
  int thread = 0;
  std::vector<OpenSpan> stack;
  std::map<const char*, SpanAggregate> totals;  // keyed by literal address
  std::vector<KeptSpan> kept;
};

std::atomic<bool> g_enabled{false};
std::size_t g_keep = 0;
std::atomic<std::size_t> g_kept{0};
std::atomic<std::uint64_t> g_next_id{0};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by mu

ThreadSpans& Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->thread = static_cast<int>(g_threads.size()) - 1;
  }
  return *local;
}

}  // namespace

void EnableSpans(std::size_t keep) {
  g_keep = keep;
  g_enabled.store(true, std::memory_order_relaxed);
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t id) {
  if (!SpansEnabled()) {
    return;
  }
  ThreadSpans& t = Local();
  t.stack.push_back(OpenSpan{name, NowNs(), 0,
                             g_next_id.fetch_add(1, std::memory_order_relaxed) +
                                 1,
                             id});
  open_ = true;
}

void Span::set_id(std::uint64_t id) {
  if (open_) {
    Local().stack.back().request_id = id;
  }
}

void Span::End() {
  if (!open_) {
    return;
  }
  open_ = false;
  const std::uint64_t end = NowNs();
  ThreadSpans& t = Local();
  const OpenSpan span = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t dur = end > span.start_ns ? end - span.start_ns : 0;
  SpanAggregate& agg = t.totals[span.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur > span.child_ns ? dur - span.child_ns : 0;
  std::uint64_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += dur;
    parent = t.stack.back().span_id;
  }
  if (g_kept.load(std::memory_order_relaxed) < g_keep &&
      g_kept.fetch_add(1, std::memory_order_relaxed) < g_keep) {
    t.kept.push_back(KeptSpan{span.name, span.start_ns, end, span.span_id,
                              parent, span.request_id, t.thread});
  }
}

std::map<std::string, SpanAggregate> SpanTotals() {
  std::map<std::string, SpanAggregate> out;
  std::lock_guard lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const auto& [name, agg] : t->totals) {
      SpanAggregate& o = out[name];
      o.count += agg.count;
      o.total_ns += agg.total_ns;
      o.self_ns += agg.self_ns;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (const KeptSpan& s : t->kept) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"span\":" << s.span_id
          << ",\"parent\":" << s.parent_id << ",\"request\":" << s.request_id
          << ",\"thread\":" << s.thread << "}\n";
    }
  }
  return static_cast<bool>(out);
}

// ---- Flags ------------------------------------------------------------------

bool Flags::Parse(int argc, char** argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
      *error = "expected --name=value, got '" + arg + "'";
      return false;
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return true;
}

std::string Flags::Str(const std::string& name, const std::string& def) const {
  used_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::uint64_t Flags::U64(const std::string& name, std::uint64_t def) const {
  const std::string text = Str(name, "");
  if (text.empty()) {
    return def;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    if (bad_.empty()) {
      bad_ = "--" + name + "=" + text;
    }
    return def;
  }
  return v;
}

double Flags::F64(const std::string& name, double def) const {
  const std::string text = Str(name, "");
  if (text.empty()) {
    return def;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    if (bad_.empty()) {
      bad_ = "--" + name + "=" + text;
    }
    return def;
  }
  return v;
}

std::vector<std::string> Flags::Unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!used_.count(name)) {
      out.push_back(name);
    }
  }
  return out;
}

// ---- Result -----------------------------------------------------------------

void Result::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

void Result::Merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) {
      errors.push_back(e);
    }
  }
}

void Result::Percentiles(const std::string& p50_name,
                         const std::string& p99_name, const Samples& s,
                         double scale) {
  metrics[p50_name] = s.Percentile(0.50) * scale;
  metrics[p99_name] = s.Percentile(0.99) * scale;
  std::fprintf(stderr, "  %s / %s: %.3f / %.3f (n=%zu, trusted to p%.4g)\n",
               p50_name.c_str(), p99_name.c_str(), metrics[p50_name],
               metrics[p99_name], s.count(), 100.0 * s.TrustedPercentile());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
}  // namespace nearpm
