#include "obs/metrics.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace clydesdale {
namespace obs {

namespace {

/// Prometheus label-value escaping: backslash, quote, newline.
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// "gauge" / "counter" / "histogram", for the kind-mismatch check.
const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

MetricFamily::MetricFamily(std::string name, MetricKind kind,
                           std::vector<std::string> label_keys)
    : name_(std::move(name)),
      kind_(kind),
      label_keys_(std::move(label_keys)) {}

MetricFamily::Cell* MetricFamily::CellAt(
    std::vector<std::string> label_values) {
  CLY_CHECK(label_values.size() == label_keys_.size())
      << "family " << name_ << " takes " << label_keys_.size()
      << " label(s), got " << label_values.size();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = cells_[std::move(label_values)];
  if (slot == nullptr) slot = std::make_unique<Cell>();
  return slot.get();
}

Gauge* MetricFamily::GaugeAt(std::vector<std::string> label_values) {
  CLY_CHECK(kind_ == MetricKind::kGauge) << name_ << " is not a gauge";
  return &CellAt(std::move(label_values))->gauge;
}

Counter* MetricFamily::CounterAt(std::vector<std::string> label_values) {
  CLY_CHECK(kind_ == MetricKind::kCounter) << name_ << " is not a counter";
  return &CellAt(std::move(label_values))->counter;
}

Histogram* MetricFamily::HistogramAt(std::vector<std::string> label_values) {
  CLY_CHECK(kind_ == MetricKind::kHistogram) << name_ << " is not a histogram";
  return &CellAt(std::move(label_values))->histogram;
}

std::string MetricFamily::LabelString(
    const std::vector<std::string>& values) const {
  if (label_keys_.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < label_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(label_keys_[i], "=\"", PromEscape(values[i]), "\"");
  }
  out += "}";
  return out;
}

void MetricFamily::AppendSamples(std::vector<MetricSampleRow>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [values, cell] : cells_) {
    const std::string labels = LabelString(values);
    switch (kind_) {
      case MetricKind::kGauge:
        out->push_back({StrCat(name_, labels), cell->gauge.Value()});
        break;
      case MetricKind::kCounter:
        out->push_back({StrCat(name_, labels), cell->counter.Value()});
        break;
      case MetricKind::kHistogram:
        out->push_back(
            {StrCat(name_, "_count", labels), cell->histogram.Count()});
        out->push_back({StrCat(name_, "_sum", labels), cell->histogram.Sum()});
        break;
    }
  }
}

MetricFamily* MetricsRegistry::Family(const std::string& name, MetricKind kind,
                                      std::vector<std::string> label_keys) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = families_[name];
  if (slot == nullptr) {
    slot = std::make_unique<MetricFamily>(name, kind, std::move(label_keys));
  }
  CLY_CHECK(slot->kind() == kind)
      << "metric family " << name << " re-registered as "
      << MetricKindName(kind) << ", was " << MetricKindName(slot->kind());
  return slot.get();
}

const MetricFamily* MetricsRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  return it == families_.end() ? nullptr : it->second.get();
}

std::vector<MetricSampleRow> MetricsRegistry::Samples() const {
  std::vector<MetricSampleRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) family->AppendSamples(&rows);
  return rows;
}

}  // namespace obs
}  // namespace clydesdale
