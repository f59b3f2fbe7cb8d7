#include "obs/chrome_trace.h"

#include <sstream>

#include "obs/json_util.h"

namespace clydesdale {
namespace obs {

std::string ChromeTraceJson(
    const std::vector<SpanRecord>& spans, const std::string& process_name,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Metadata: name the job-level process lane (pid -1).
  out << R"({"name":"process_name","ph":"M","pid":-1,"tid":0,"args":{"name":)"
      << JsonQuote(process_name) << "}}";
  for (const SpanRecord& span : spans) {
    out << ",\n{\"name\":" << JsonQuote(span.name)
        << ",\"cat\":" << JsonQuote(span.category)
        << ",\"ph\":\"X\",\"ts\":" << span.start_us
        << ",\"dur\":" << span.dur_us << ",\"pid\":" << span.node
        << ",\"tid\":" << span.tid << ",\"args\":{\"task\":" << span.task
        << ",\"node\":" << span.node << ",\"depth\":" << span.depth << "}}";
  }
  out << "\n]";
  for (const auto& [key, value] : extra) {
    out << ",\n" << JsonQuote(key) << ":" << value;
  }
  out << "}\n";
  return out.str();
}

}  // namespace obs
}  // namespace clydesdale
