// Use-case enumeration and sampling.
//
// A use-case is a set of concurrently active applications (paper, Section
// 1). With N applications there are 2^N - 1 non-empty use-cases; the
// benchmark harnesses either enumerate them all (paper setup, N = 10) or
// sample a fixed number per cardinality for quicker runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "platform/system.h"
#include "platform/system_view.h"
#include "util/rng.h"

namespace procon::gen {

/// All non-empty subsets of {0..app_count-1}, ordered by increasing
/// cardinality then lexicographically. Throws for app_count > 20.
[[nodiscard]] std::vector<platform::UseCase> all_use_cases(std::size_t app_count);

/// All use-cases of exactly `cardinality` applications.
[[nodiscard]] std::vector<platform::UseCase> use_cases_of_size(std::size_t app_count,
                                                               std::size_t cardinality);

/// Up to `per_size` random use-cases for every cardinality 1..app_count
/// (without replacement within a cardinality).
[[nodiscard]] std::vector<platform::UseCase> sample_use_cases(std::size_t app_count,
                                                              std::size_t per_size,
                                                              util::Rng& rng);

/// Zero-copy restriction views for a batch of use-cases over one system —
/// what a sweep iterates instead of per-use-case materialised copies. The
/// views borrow `sys`, which must outlive them.
[[nodiscard]] std::vector<platform::SystemView> restrict_views(
    const platform::System& sys, std::span<const platform::UseCase> use_cases);

}  // namespace procon::gen
