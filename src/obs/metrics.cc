#include "obs/metrics.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/json_util.h"

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

/// Merges an extra label (e.g. quantile="0.5") into a rendered label block.
std::string WithExtraLabel(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return StrCat("{", extra, "}");
  return StrCat(labels.substr(0, labels.size() - 1), ",", extra, "}");
}

}  // namespace

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

MetricFamily::MetricFamily(std::string name, std::string help, MetricKind kind,
                           std::vector<std::string> label_keys)
    : name_(std::move(name)),
      help_(std::move(help)),
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

void MetricFamily::AppendPrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  *out += StrCat("# HELP ", name_, " ", help_, "\n");
  // Quantile exposition matches the Prometheus "summary" type, not the
  // bucketed "histogram" type.
  *out += StrCat("# TYPE ", name_, " ",
                 kind_ == MetricKind::kHistogram ? "summary"
                                                 : MetricKindName(kind_),
                 "\n");
  for (const auto& [values, cell] : cells_) {
    const std::string labels = LabelString(values);
    switch (kind_) {
      case MetricKind::kGauge:
        *out += StrCat(name_, labels, " ", cell->gauge.Value(), "\n");
        break;
      case MetricKind::kCounter:
        *out += StrCat(name_, labels, " ", cell->counter.Value(), "\n");
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = cell->histogram;
        for (double q : {0.5, 0.95, 0.99}) {
          *out += StrCat(
              name_,
              WithExtraLabel(labels, StrCat("quantile=\"", q, "\"")), " ",
              h.Percentile(q), "\n");
        }
        *out += StrCat(name_, "_count", labels, " ", h.Count(), "\n");
        *out += StrCat(name_, "_sum", labels, " ", h.Sum(), "\n");
        break;
      }
    }
  }
}

void MetricFamily::AppendJson(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  *out += StrCat("{\"name\":", JsonQuote(name_), ",\"type\":\"",
                 MetricKindName(kind_), "\",\"help\":", JsonQuote(help_),
                 ",\"samples\":[");
  bool first = true;
  for (const auto& [values, cell] : cells_) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"labels\":{";
    for (size_t i = 0; i < label_keys_.size(); ++i) {
      if (i > 0) *out += ",";
      *out += StrCat(JsonQuote(label_keys_[i]), ":", JsonQuote(values[i]));
    }
    *out += "}";
    switch (kind_) {
      case MetricKind::kGauge:
        *out += StrCat(",\"value\":", cell->gauge.Value());
        break;
      case MetricKind::kCounter:
        *out += StrCat(",\"value\":", cell->counter.Value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = cell->histogram;
        *out += StrCat(",\"count\":", h.Count(), ",\"sum\":", h.Sum(),
                       ",\"p50\":", h.Percentile(0.5),
                       ",\"p95\":", h.Percentile(0.95),
                       ",\"p99\":", h.Percentile(0.99), ",\"max\":", h.Max());
        break;
      }
    }
    *out += "}";
  }
  *out += "]}";
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

MetricFamily* MetricsRegistry::Family(const std::string& name,
                                      const std::string& help, MetricKind kind,
                                      std::vector<std::string> label_keys) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = families_[name];
  if (slot == nullptr) {
    slot = std::make_unique<MetricFamily>(name, help, kind,
                                          std::move(label_keys));
  }
  CLY_CHECK(slot->kind() == kind)
      << "metric family " << name << " re-registered as "
      << MetricKindName(kind) << ", was " << MetricKindName(slot->kind());
  return slot.get();
}

MetricFamily* MetricsRegistry::GaugeFamily(const std::string& name,
                                           const std::string& help,
                                           std::vector<std::string> label_keys) {
  return Family(name, help, MetricKind::kGauge, std::move(label_keys));
}

MetricFamily* MetricsRegistry::CounterFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_keys) {
  return Family(name, help, MetricKind::kCounter, std::move(label_keys));
}

MetricFamily* MetricsRegistry::HistogramFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_keys) {
  return Family(name, help, MetricKind::kHistogram, std::move(label_keys));
}

const MetricFamily* MetricsRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  return it == families_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MetricsRegistry::FamilyNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, family] : families_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) family->AppendPrometheus(&out);
  return out;
}

std::string MetricsRegistry::JsonText() const {
  std::string out = "{\"families\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [name, family] : families_) {
      if (!first) out += ",\n";
      first = false;
      family->AppendJson(&out);
    }
  }
  out += "]}\n";
  return out;
}

std::vector<MetricSampleRow> MetricsRegistry::Samples() const {
  std::vector<MetricSampleRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) family->AppendSamples(&rows);
  return rows;
}

}  // namespace obs
}  // namespace clydesdale
