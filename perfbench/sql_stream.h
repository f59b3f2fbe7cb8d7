// SQL text for the serving workload: the 13 SSB query templates rendered
// with seeded constants (years, regions, nations, cities, brands, discount
// and quantity ranges), the way SSB's qgen varies them, plus a zipfian
// sampler over the rendered pool.

#ifndef CLYDESDALE_PERFBENCH_SQL_STREAM_H_
#define CLYDESDALE_PERFBENCH_SQL_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace perfbench {

struct SqlQuery {
  std::string shape;  ///< SSB template id, "Q1.1" .. "Q4.3"
  std::string text;
};

/// The 13 templates with the constants of the SSB specification.
std::vector<SqlQuery> BaseSsbSql();

/// Up to `per_shape` distinct renderings of every template. The constants
/// come from a generator with a fixed seed, so the set of texts is the same
/// for every stream and the golden reference digests cover all of them.
/// `order_seed` shuffles each template's renderings. The pool then
/// interleaves the templates (rendering k of every template before
/// rendering k + 1 of any), so under a zipfian draw over its positions the
/// seed moves the constants of the hot queries but not the mix of shapes.
std::vector<SqlQuery> SsbSqlPool(int per_shape, uint64_t order_seed);

/// Draws ranks 0..n-1 with P(k) proportional to (k + 1)^-s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(clydesdale::Random* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_SQL_STREAM_H_
