#include "bench_support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/logging.h"
#include "obs/json_util.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  CLY_CHECK(std::isfinite(value));
  entries_[name] = Entry{value, unit};
}

void MetricSet::Print() const {
  for (const auto& [name, entry] : entries_) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char number[64];
  for (const auto& [name, entry] : entries_) {
    if (out.size() > 1) out += ", ";
    std::snprintf(number, sizeof(number), "%.17g", entry.value);
    out += clydesdale::obs::JsonQuote(name) + ": {\"value\": " + number +
           ", \"unit\": " + clydesdale::obs::JsonQuote(entry.unit) + "}";
  }
  return out + "}";
}

Tracer::Tracer(bool enabled) {
  if (enabled) recorder_ = std::make_unique<clydesdale::obs::TraceRecorder>();
}

std::map<std::string, double> Tracer::Finish(const std::string& path) {
  std::map<std::string, double> self_ms;
  if (recorder_ == nullptr) return self_ms;
  // Drain orders spans by start with parents ahead of their children, so the
  // innermost open span one level up on the same thread is the parent.
  const std::vector<clydesdale::obs::SpanRecord> spans = recorder_->Drain();
  std::vector<int64_t> parent(spans.size(), -1);
  std::vector<int64_t> child_us(spans.size(), 0);
  std::map<int, std::vector<int64_t>> open_by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<int64_t>& open = open_by_thread[spans[i].tid];
    const size_t depth = static_cast<size_t>(spans[i].depth);
    if (open.size() < depth + 1) open.resize(depth + 1, -1);
    if (depth > 0 && open[depth - 1] >= 0) {
      parent[i] = open[depth - 1];
      child_us[static_cast<size_t>(parent[i])] += spans[i].dur_us;
    }
    open[depth] = static_cast<int64_t>(i);
  }
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const clydesdale::obs::SpanRecord& s = spans[i];
    self_ms[s.category] +=
        static_cast<double>(std::max<int64_t>(0, s.dur_us - child_us[i])) /
        1000.0;
    out << "{\"id\": " << i << ", \"parent\": " << parent[i]
        << ", \"query\": " << s.task << ", \"layer\": \"" << s.category
        << "\", \"name\": " << clydesdale::obs::JsonQuote(s.name)
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us()
        << ", \"thread\": " << s.tid << "}\n";
  }
  CLY_CHECK(out.good());
  return self_ms;
}

}  // namespace perfbench
