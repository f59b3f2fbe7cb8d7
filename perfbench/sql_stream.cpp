#include "sql_stream.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/strings.h"
#include "ssb/ssb_schema.h"

namespace perfbench {

using clydesdale::Random;
using clydesdale::StrCat;

namespace {

/// Seeds the constants of every rendering; changing it invalidates the
/// golden digests of the serving pool.
constexpr uint64_t kRenderingSeed = 1997;

const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};
const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

std::string Quote(const std::string& s) { return StrCat("'", s, "'"); }

// --- templates -----------------------------------------------------------

std::string Flight1(const std::string& date_filter, int discount_lo,
                    const std::string& quantity_filter) {
  return StrCat(
      "SELECT SUM(lo_extendedprice * lo_discount) AS revenue "
      "FROM lineorder, date WHERE lo_orderdate = d_datekey AND ",
      date_filter, " AND lo_discount BETWEEN ", discount_lo, " AND ",
      discount_lo + 2, " AND ", quantity_filter);
}

std::string Flight2(const std::string& part_filter, const std::string& region) {
  return StrCat(
      "SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue "
      "FROM lineorder, date, part, supplier "
      "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
      "AND lo_suppkey = s_suppkey AND ",
      part_filter, " AND s_region = ", Quote(region),
      " GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1");
}

std::string Flight3(const std::string& group_level, const std::string& cust,
                    const std::string& supp, const std::string& date_filter) {
  return StrCat(
      "SELECT c_", group_level, ", s_", group_level,
      ", d_year, SUM(lo_revenue) AS revenue "
      "FROM lineorder, customer, supplier, date "
      "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
      "AND lo_orderdate = d_datekey AND ",
      cust, " AND ", supp, " AND ", date_filter, " GROUP BY c_", group_level,
      ", s_", group_level, ", d_year ORDER BY d_year ASC, revenue DESC");
}

std::string Flight4(const std::string& select, const std::string& filters,
                    const std::string& group) {
  return StrCat(
      "SELECT ", select, ", SUM(lo_revenue - lo_supplycost) AS profit "
      "FROM lineorder, customer, supplier, part, date "
      "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
      "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey AND ",
      filters, " GROUP BY ", group, " ORDER BY ", group);
}

std::string YearPair(int year) {
  return StrCat("(d_year = ", year, " OR d_year = ", year + 1, ")");
}

std::string MfgrPair(int mfgr) {
  return StrCat("(p_mfgr = 'MFGR#", mfgr, "' OR p_mfgr = 'MFGR#", mfgr + 1,
                "')");
}

std::string CityPair(const std::string& column, int nation, int a, int b) {
  return StrCat(column, " IN (", Quote(clydesdale::ssb::CityName(nation, a)),
                ", ", Quote(clydesdale::ssb::CityName(nation, b)), ")");
}

/// A nation of `region` (by index into kRegions), chosen by `rng`.
int NationIn(int region, Random* rng) {
  std::vector<int> nations;
  for (int n = 0; n < clydesdale::ssb::kNumNations; ++n) {
    if (kRegions[region] ==
        std::string(clydesdale::ssb::RegionOfNation(n))) {
      nations.push_back(n);
    }
  }
  return nations[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(nations.size()) - 1))];
}

/// One rendering of template `shape` (0..12) with constants from `rng`.
SqlQuery Render(int shape, Random* rng) {
  auto pick = [rng](int lo, int hi) {
    return static_cast<int>(rng->Uniform(lo, hi));
  };
  const int year = pick(1993, 1997);
  const int discount = pick(1, 7);
  const int quantity = pick(1, 41);
  const int region = pick(0, 4);
  const int mfgr = pick(1, 5);
  const int category = pick(1, 5);
  switch (shape) {
    case 0:
      return {"Q1.1", Flight1(StrCat("d_year = ", year), discount,
                              StrCat("lo_quantity < ", pick(24, 26)))};
    case 1:
      return {"Q1.2",
              Flight1(StrCat("d_yearmonthnum = ", year * 100 + pick(1, 12)),
                      discount,
                      StrCat("lo_quantity BETWEEN ", quantity, " AND ",
                             quantity + 9))};
    case 2:
      return {"Q1.3",
              Flight1(StrCat("d_weeknuminyear = ", pick(1, 52),
                             " AND d_year = ", year),
                      discount,
                      StrCat("lo_quantity BETWEEN ", quantity, " AND ",
                             quantity + 9))};
    case 3:
      return {"Q2.1", Flight2(StrCat("p_category = 'MFGR#", mfgr, category,
                                     "'"),
                              kRegions[region])};
    case 4: {
      const int brand = pick(1, 33);
      return {"Q2.2",
              Flight2(StrCat("p_brand1 BETWEEN 'MFGR#", mfgr, category, brand,
                             "' AND 'MFGR#", mfgr, category, brand + 7, "'"),
                      kRegions[region])};
    }
    case 5:
      return {"Q2.3", Flight2(StrCat("p_brand1 = 'MFGR#", mfgr, category,
                                     pick(1, 40), "'"),
                              kRegions[region])};
    case 6: {
      const int first_year = pick(1992, 1993);
      return {"Q3.1",
              Flight3("nation", StrCat("c_region = ", Quote(kRegions[region])),
                      StrCat("s_region = ", Quote(kRegions[region])),
                      StrCat("d_year BETWEEN ", first_year, " AND ",
                             first_year + 5))};
    }
    case 7: {
      const std::string nation =
          Quote(clydesdale::ssb::NationName(pick(0, 24)));
      return {"Q3.2", Flight3("city", StrCat("c_nation = ", nation),
                              StrCat("s_nation = ", nation),
                              "d_year BETWEEN 1992 AND 1997")};
    }
    case 8:
    case 9: {
      const int nation = pick(0, 24);
      const int a = pick(0, 9);
      const int b = (a + pick(1, 9)) % 10;
      const std::string date =
          shape == 8 ? std::string("d_year BETWEEN 1992 AND 1997")
                     : StrCat("d_yearmonth = '", kMonths[pick(0, 11)],
                              year, "'");
      return {shape == 8 ? "Q3.3" : "Q3.4",
              Flight3("city", CityPair("c_city", nation, a, b),
                      CityPair("s_city", nation, a, b), date)};
    }
    case 10:
      return {"Q4.1",
              Flight4("d_year, c_nation",
                      StrCat("c_region = ", Quote(kRegions[region]),
                             " AND s_region = ", Quote(kRegions[region]),
                             " AND ", MfgrPair(pick(1, 4))),
                      "d_year, c_nation")};
    case 11:
      return {"Q4.2",
              Flight4("d_year, s_nation, p_category",
                      StrCat("c_region = ", Quote(kRegions[region]),
                             " AND s_region = ", Quote(kRegions[region]),
                             " AND ", YearPair(year), " AND ",
                             MfgrPair(pick(1, 4))),
                      "d_year, s_nation, p_category")};
    default: {
      const std::string nation =
          clydesdale::ssb::NationName(NationIn(region, rng));
      return {"Q4.3",
              Flight4("d_year, s_city, p_brand1",
                      StrCat("c_region = ", Quote(kRegions[region]),
                             " AND s_nation = ", Quote(nation), " AND ",
                             YearPair(year), " AND p_category = 'MFGR#",
                             mfgr, category, "'"),
                      "d_year, s_city, p_brand1")};
    }
  }
}

}  // namespace

std::vector<SqlQuery> BaseSsbSql() {
  const std::string united_ki =
      "IN ('UNITED KI1', 'UNITED KI5')";
  return {
      {"Q1.1", Flight1("d_year = 1993", 1, "lo_quantity < 25")},
      {"Q1.2", Flight1("d_yearmonthnum = 199401", 4,
                       "lo_quantity BETWEEN 26 AND 35")},
      {"Q1.3", Flight1("d_weeknuminyear = 6 AND d_year = 1994", 5,
                       "lo_quantity BETWEEN 26 AND 35")},
      {"Q2.1", Flight2("p_category = 'MFGR#12'", "AMERICA")},
      {"Q2.2", Flight2("p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'", "ASIA")},
      {"Q2.3", Flight2("p_brand1 = 'MFGR#2239'", "EUROPE")},
      {"Q3.1", Flight3("nation", "c_region = 'ASIA'", "s_region = 'ASIA'",
                       "d_year BETWEEN 1992 AND 1997")},
      {"Q3.2", Flight3("city", "c_nation = 'UNITED STATES'",
                       "s_nation = 'UNITED STATES'",
                       "d_year BETWEEN 1992 AND 1997")},
      {"Q3.3", Flight3("city", "c_city " + united_ki, "s_city " + united_ki,
                       "d_year BETWEEN 1992 AND 1997")},
      {"Q3.4", Flight3("city", "c_city " + united_ki, "s_city " + united_ki,
                       "d_yearmonth = 'Dec1997'")},
      {"Q4.1", Flight4("d_year, c_nation",
                       "c_region = 'AMERICA' AND s_region = 'AMERICA' AND " +
                           MfgrPair(1),
                       "d_year, c_nation")},
      {"Q4.2", Flight4("d_year, s_nation, p_category",
                       "c_region = 'AMERICA' AND s_region = 'AMERICA' AND " +
                           YearPair(1997) + " AND " + MfgrPair(1),
                       "d_year, s_nation, p_category")},
      {"Q4.3", Flight4("d_year, s_city, p_brand1",
                       "c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
                       "AND " + YearPair(1997) + " AND p_category = 'MFGR#14'",
                       "d_year, s_city, p_brand1")},
  };
}

std::vector<SqlQuery> SsbSqlPool(int per_shape, uint64_t order_seed) {
  Random rng(kRenderingSeed);
  std::vector<std::vector<SqlQuery>> by_shape(13);
  std::set<std::string> seen;
  for (int shape = 0; shape < 13; ++shape) {
    for (int attempt = 0;
         attempt < 8 * per_shape &&
         static_cast<int>(by_shape[static_cast<size_t>(shape)].size()) <
             per_shape;
         ++attempt) {
      SqlQuery q = Render(shape, &rng);
      if (seen.insert(q.text).second) {
        by_shape[static_cast<size_t>(shape)].push_back(std::move(q));
      }
    }
  }
  Random order(order_seed);
  for (std::vector<SqlQuery>& renderings : by_shape) {
    for (size_t i = renderings.size(); i > 1; --i) {
      std::swap(renderings[i - 1],
                renderings[static_cast<size_t>(
                    order.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
  }
  std::vector<SqlQuery> pool;
  for (int round = 0; round < per_shape; ++round) {
    for (std::vector<SqlQuery>& renderings : by_shape) {
      if (round < static_cast<int>(renderings.size())) {
        pool.push_back(std::move(renderings[static_cast<size_t>(round)]));
      }
    }
  }
  return pool;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(Random* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

}  // namespace perfbench
