#include "util/symmetric_poly.h"

#include <algorithm>
#include <stdexcept>

namespace procon::util {

void elementary_symmetric_into(std::span<const double> xs, std::vector<double>& out,
                               std::size_t max_degree) {
  out.assign(xs.size() + 1, 0.0);
  out[0] = 1.0;
  std::size_t used = 0;
  for (const double x : xs) {
    ++used;
    // Iterate downwards so each x contributes at most once per degree.
    for (std::size_t j = std::min(used, max_degree); j >= 1; --j) {
      out[j] += x * out[j - 1];
    }
  }
}

std::vector<double> elementary_symmetric(std::span<const double> xs) {
  std::vector<double> e;
  elementary_symmetric_into(xs, e);
  return e;
}

void elementary_symmetric_remove_one_into(std::span<const double> e, double removed,
                                          std::vector<double>& out,
                                          std::size_t max_degree) {
  if (e.empty()) {
    throw std::invalid_argument("elementary_symmetric_remove_one: empty family");
  }
  // e has n+1 entries; the reduced family has n entries e'_0..e'_{n-1},
  // of which the cap keeps e'_0..e'_{max_degree}. Every kept entry is
  // written below, so the resize needs no fill.
  const std::size_t n = e.size() - 1;
  out.resize(max_degree < n ? max_degree + 1 : n);
  if (out.empty()) return;
  out[0] = 1.0;
  for (std::size_t j = 1; j < out.size(); ++j) {
    out[j] = e[j] - removed * out[j - 1];
  }
}

std::vector<double> elementary_symmetric_remove_one(std::span<const double> e,
                                                    double removed) {
  std::vector<double> out;
  elementary_symmetric_remove_one_into(e, removed, out);
  return out;
}

double elementary_symmetric_single(std::span<const double> xs, std::size_t j) {
  if (j > xs.size()) return 0.0;
  return elementary_symmetric(xs)[j];
}

}  // namespace procon::util
