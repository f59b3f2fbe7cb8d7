#include "obs/metrics_poller.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/json_util.h"

namespace clydesdale {
namespace obs {

int64_t MetricsSample::Value(const std::string& key) const {
  for (const MetricSampleRow& row : rows) {
    if (row.key == key) return row.value;
  }
  return 0;
}

int64_t MetricsTimeSeries::MaxValue(const std::string& key) const {
  int64_t max = 0;
  for (const MetricsSample& sample : samples) {
    max = std::max(max, sample.Value(key));
  }
  return max;
}

std::string MetricsTimeSeries::ToJson() const {
  std::string out = StrCat("{\"interval_ms\":", interval_ms, ",\"samples\":[");
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat("\n{\"t_ms\":", samples[i].t_ms, ",\"values\":{");
    for (size_t r = 0; r < samples[i].rows.size(); ++r) {
      if (r > 0) out += ",";
      out += StrCat(JsonQuote(samples[i].rows[r].key), ":",
                    samples[i].rows[r].value);
    }
    out += "}}";
  }
  out += "\n]}";
  return out;
}

MetricsPoller::MetricsPoller(const MetricsRegistry* registry,
                             int64_t interval_ms)
    : registry_(registry), interval_ms_(std::max<int64_t>(interval_ms, 1)) {
  series_.interval_ms = interval_ms_;
}

MetricsPoller::~MetricsPoller() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
}

void MetricsPoller::AddProbe(std::function<void()> probe) {
  CLY_CHECK(!started_) << "AddProbe after Start";
  probes_.push_back(std::move(probe));
}

void MetricsPoller::Start() {
  CLY_CHECK(!started_) << "poller started twice";
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

MetricsTimeSeries MetricsPoller::Stop() {
  if (!thread_.joinable()) return {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // The final sample is taken after the join: the probes see fully
  // quiesced state and the series always records the job's end.
  for (const auto& probe : probes_) probe();
  std::lock_guard<std::mutex> lock(mu_);
  TakeSample(series_.samples.empty()
                 ? 0
                 : series_.samples.back().t_ms + interval_ms_);
  return std::move(series_);
}

size_t MetricsPoller::num_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.samples.size();
}

void MetricsPoller::TakeSample(int64_t t_ms) {
  MetricsSample sample;
  sample.t_ms = t_ms;
  sample.rows = registry_->Samples();
  series_.samples.push_back(std::move(sample));
}

void MetricsPoller::Loop() {
  const Stopwatch clock;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    for (const auto& probe : probes_) probe();
    const int64_t now_ms = clock.ElapsedMicros() / 1000;
    lock.lock();
    if (stop_) break;
    TakeSample(now_ms);
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
  }
}

}  // namespace obs
}  // namespace clydesdale
