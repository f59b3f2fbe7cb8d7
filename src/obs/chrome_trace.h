#ifndef CLYDESDALE_OBS_CHROME_TRACE_H_
#define CLYDESDALE_OBS_CHROME_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace clydesdale {
namespace obs {

/// Renders spans as Chrome trace_event JSON (the format chrome://tracing
/// and https://ui.perfetto.dev load). Each span becomes one complete ("X")
/// event; pid = node id (so each simulated node gets a lane group) and
/// tid = the recorder-assigned thread id. `process_name` labels pid -1,
/// the job-level lane for spans not bound to a node. Each `extra` pair
/// (key, already-rendered JSON value) becomes one more top-level member
/// after "traceEvents"; trace viewers ignore members they do not know.
std::string ChromeTraceJson(
    const std::vector<SpanRecord>& spans, const std::string& process_name,
    const std::vector<std::pair<std::string, std::string>>& extra);

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_CHROME_TRACE_H_
