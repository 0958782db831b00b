#include "analysis/expansion.h"

#include <algorithm>

namespace procon::analysis {
namespace {

// ceil(a/b) for b > 0, correct for negative a.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && ((a < 0) == (b < 0))) ? q + 1 : q;
}

}  // namespace

void append_channel_candidates(const sdf::Channel& ch, const sdf::RepetitionVector& q,
                               std::span<const std::uint32_t> node_base,
                               std::vector<EdgeCandidate>& out) {
  const auto p = static_cast<std::int64_t>(ch.prod_rate);
  const auto c = static_cast<std::int64_t>(ch.cons_rate);
  const auto d = static_cast<std::int64_t>(ch.initial_tokens);
  const auto qu = static_cast<std::int64_t>(q[ch.src]);
  const auto qv = static_cast<std::int64_t>(q[ch.dst]);

  for (std::int64_t j = 1; j <= qv; ++j) {        // consumer firing (1-based)
    for (std::int64_t t = (j - 1) * c + 1; t <= j * c; ++t) {  // token index
      // Producer firing number (1-based from execution start); <= 0 means
      // the token is (an ancestor of) an initial token.
      std::int64_t f = ceil_div(t - d, p);
      std::int64_t delay = 0;
      if (f < 1) {
        // Shift whole iterations until the firing index is positive.
        const std::int64_t m = ceil_div(1 - f, qu);
        f += m * qu;
        delay = m;
      }
      // Within one iteration f cannot exceed qu (token conservation), but
      // guard for robustness on unusual token distributions.
      while (f > qu) {
        f -= qu;
        delay -= 1;
      }
      if (delay < 0) {
        // A dependency on a *future* iteration cannot occur in a
        // consistent graph; it indicates more initial tokens than one
        // iteration consumes, i.e. no constraint for this pair.
        continue;
      }
      const std::uint32_t src_node =
          node_base[ch.src] + static_cast<std::uint32_t>(f - 1);
      const std::uint32_t dst_node =
          node_base[ch.dst] + static_cast<std::uint32_t>(j - 1);
      out.push_back(EdgeCandidate{
          (static_cast<std::uint64_t>(src_node) << 32) | dst_node,
          static_cast<std::uint64_t>(delay)});
    }
  }
}

void dedup_candidates(std::vector<EdgeCandidate>& candidates) {
  // Sort by (src, dst) then tokens; the first entry of each (src, dst) run
  // carries the minimum iteration distance — the binding constraint.
  std::sort(candidates.begin(), candidates.end(),
            [](const EdgeCandidate& a, const EdgeCandidate& b) {
              return a.key != b.key ? a.key < b.key : a.tokens < b.tokens;
            });
  std::size_t w = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0 && candidates[i].key == candidates[i - 1].key) continue;
    candidates[w++] = candidates[i];
  }
  candidates.resize(w);
}

}  // namespace procon::analysis
