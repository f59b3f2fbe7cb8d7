// Measurement plumbing shared by the benchmark's workloads: exact quantiles,
// process resource usage, the named-metric sink that prints the result line,
// and the span tracer the traced run records around public calls.

#ifndef CLYDESDALE_PERFBENCH_BENCH_SUPPORT_H_
#define CLYDESDALE_PERFBENCH_BENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// This process's user + system CPU seconds so far (getrusage).
double ProcessCpuSeconds();
/// This process's peak resident set size in MiB (ru_maxrss).
double PeakRssMb();

/// Named metrics with units, printed one per line and then as the `metrics`
/// object of the result line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Print() const;
  std::string ToJson() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// Layer names: the modules under src/ whose public calls the traced run
/// times, plus "bench" for the benchmark's own per-query root spans.
inline constexpr const char kLayerBench[] = "bench";
inline constexpr const char kLayerSsb[] = "ssb";
inline constexpr const char kLayerHdfs[] = "hdfs";
inline constexpr const char kLayerStorage[] = "storage";
inline constexpr const char kLayerCore[] = "core";
inline constexpr const char kLayerMapreduce[] = "mapreduce";
inline constexpr const char kLayerHive[] = "hive";
inline constexpr const char kLayerServing[] = "serving";
inline constexpr const char kLayerSql[] = "sql";
inline constexpr const char kLayerObs[] = "obs";

/// Spans around public calls, recorded through obs::TraceRecorder. The span
/// category carries the layer and the task field the query id, so spans of
/// one query share an id; parents are recovered from per-thread nesting.
/// Disabled tracers hand out a null recorder and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  clydesdale::obs::TraceRecorder* recorder() { return recorder_.get(); }

  /// Drains the recorder, writes one JSON line per span to `path` (id,
  /// parent, query, layer, name, start/end in µs, thread) and returns each
  /// layer's self time in ms: span durations minus their children's.
  std::map<std::string, double> Finish(const std::string& path);

 private:
  std::unique_ptr<clydesdale::obs::TraceRecorder> recorder_;
};

/// One span around a public call; a no-op on a disabled tracer.
class CallSpan {
 public:
  CallSpan(Tracer* tracer, const char* layer, const char* name, int query = -1)
      : span_(tracer->recorder(), name, layer, query) {}

 private:
  clydesdale::obs::Span span_;
};

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_BENCH_SUPPORT_H_
