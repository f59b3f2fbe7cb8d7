#ifndef CLYDESDALE_MAPREDUCE_STRAGGLER_H_
#define CLYDESDALE_MAPREDUCE_STRAGGLER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace clydesdale {
namespace mr {

/// Tuning for the online straggler rule. An attempt is a straggler when its
/// elapsed time exceeds `threshold` times the running median of completed
/// same-phase attempts, once at least `min_completed` have finished. The
/// `min_elapsed_us` floor keeps sub-10ms jitter from tripping the rule on
/// tiny tasks.
struct StragglerPolicy {
  double threshold = 2.0;
  int min_completed = 3;
  int64_t min_elapsed_us = 10000;
};

/// Online straggler detection over completed-attempt durations, per phase
/// (map vs reduce) — the observation half of Hadoop's speculative execution:
/// we flag, a later PR may re-launch. Thread-safe; the poller probe calls
/// IsStraggler against running attempts while trackers record completions.
class StragglerDetector {
 public:
  explicit StragglerDetector(StragglerPolicy policy = {});

  void RecordCompletion(bool is_map, int64_t duration_us);

  /// Median completed duration for the phase; -1 while fewer than
  /// `min_completed` attempts have finished.
  int64_t RunningMedianMicros(bool is_map) const;

  /// Pure check: is an attempt with this elapsed time a straggler right now?
  bool IsStraggler(bool is_map, int64_t elapsed_us) const;

  const StragglerPolicy& policy() const { return policy_; }

 private:
  const StragglerPolicy policy_;

  mutable std::mutex mu_;
  // Kept sorted (insertion into position) so the median is O(1) to read.
  std::vector<int64_t> map_durations_;
  std::vector<int64_t> reduce_durations_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_STRAGGLER_H_
