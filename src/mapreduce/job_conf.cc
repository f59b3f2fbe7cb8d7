#include "mapreduce/job_conf.h"

#include <charconv>
#include <system_error>

#include "common/strings.h"

namespace clydesdale {
namespace mr {

void JobConf::SetInt(const std::string& key, int64_t value) {
  conf_[key] = StrCat(value);
}

void JobConf::SetBool(const std::string& key, bool value) {
  conf_[key] = value ? "true" : "false";
}

void JobConf::SetDouble(const std::string& key, double value) {
  conf_[key] = StrCat(value);
}

std::string JobConf::Get(const std::string& key, const std::string& def) const {
  auto it = conf_.find(key);
  return it == conf_.end() ? def : it->second;
}

namespace {

/// Parses all of `value` as a T; InvalidArgument naming `key` otherwise.
template <typename T>
Result<T> ParseNumber(const std::string& key, const std::string& value,
                      const char* type) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(StrCat("conf key '", key, "' = '", value,
                                          "' is not ", type));
  }
  return parsed;
}

}  // namespace

Result<int64_t> JobConf::GetInt(const std::string& key, int64_t def) const {
  auto it = conf_.find(key);
  if (it == conf_.end() || it->second.empty()) return def;
  return ParseNumber<int64_t>(key, it->second, "a 64-bit integer");
}

bool JobConf::GetBool(const std::string& key, bool def) const {
  auto it = conf_.find(key);
  if (it == conf_.end()) return def;
  return it->second == "true" || it->second == "1";
}

Result<double> JobConf::GetDouble(const std::string& key, double def) const {
  auto it = conf_.find(key);
  if (it == conf_.end() || it->second.empty()) return def;
  return ParseNumber<double>(key, it->second, "a number");
}

std::vector<std::string> JobConf::GetList(const std::string& key) const {
  const std::string value = Get(key);
  if (value.empty()) return {};
  return StrSplit(value, ',');
}

void JobConf::SetList(const std::string& key,
                      const std::vector<std::string>& items) {
  conf_[key] = StrJoin(items, ",");
}

}  // namespace mr
}  // namespace clydesdale
