#include "src/fl/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/utils/error.hpp"
#include "src/utils/string_util.hpp"

namespace fedcav::fl {

namespace {

void require_updates(const std::vector<ClientUpdate>& updates, const char* who) {
  FEDCAV_REQUIRE(!updates.empty(), std::string(who) + ": no updates");
  const std::size_t dim = updates.front().weights.size();
  for (const auto& u : updates) {
    FEDCAV_REQUIRE(u.weights.size() == dim, std::string(who) + ": dimension mismatch");
  }
}

std::vector<double> uniform_weights(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

}  // namespace

nn::Weights CoordinateMedian::aggregate(const nn::Weights& global,
                                        const std::vector<ClientUpdate>& updates) {
  (void)global;
  require_updates(updates, "CoordinateMedian");
  const std::size_t dim = updates.front().weights.size();
  const std::size_t n = updates.size();
  nn::Weights out(dim);
  std::vector<float> column(n);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t u = 0; u < n; ++u) column[u] = updates[u].weights[d];
    auto mid = column.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(column.begin(), mid, column.end());
    if (n % 2 == 1) {
      out[d] = *mid;
    } else {
      // Even cohort: average the two central order statistics.
      const float upper = *mid;
      const float lower = *std::max_element(column.begin(), mid);
      out[d] = 0.5f * (lower + upper);
    }
  }
  return out;
}

std::vector<double> CoordinateMedian::aggregation_weights(
    const std::vector<ClientUpdate>& updates) const {
  require_updates(updates, "CoordinateMedian");
  return uniform_weights(updates.size());
}

TrimmedMean::TrimmedMean(double trim_fraction) : trim_fraction_(trim_fraction) {
  FEDCAV_REQUIRE(trim_fraction >= 0.0 && trim_fraction < 0.5,
                 "TrimmedMean: trim fraction must be in [0, 0.5)");
}

nn::Weights TrimmedMean::aggregate(const nn::Weights& global,
                                   const std::vector<ClientUpdate>& updates) {
  (void)global;
  require_updates(updates, "TrimmedMean");
  const std::size_t dim = updates.front().weights.size();
  const std::size_t n = updates.size();
  const std::size_t trim = static_cast<std::size_t>(
      std::floor(trim_fraction_ * static_cast<double>(n)));
  FEDCAV_CHECK(2 * trim < n, "TrimmedMean: trimming would drop every update");

  nn::Weights out(dim);
  std::vector<float> column(n);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t u = 0; u < n; ++u) column[u] = updates[u].weights[d];
    std::sort(column.begin(), column.end());
    double acc = 0.0;
    for (std::size_t u = trim; u < n - trim; ++u) acc += static_cast<double>(column[u]);
    out[d] = static_cast<float>(acc / static_cast<double>(n - 2 * trim));
  }
  return out;
}

std::vector<double> TrimmedMean::aggregation_weights(
    const std::vector<ClientUpdate>& updates) const {
  require_updates(updates, "TrimmedMean");
  return uniform_weights(updates.size());
}

std::string TrimmedMean::name() const {
  return "TrimmedMean(beta=" + format_double(trim_fraction_, 2) + ")";
}

Krum::Krum(std::size_t max_byzantine) : max_byzantine_(max_byzantine) {}

std::size_t Krum::select(const std::vector<ClientUpdate>& updates) const {
  require_updates(updates, "Krum");
  const std::size_t n = updates.size();
  if (n == 1) return 0;

  // Pairwise squared distances.
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      const float* a = updates[i].weights.data();
      const float* b = updates[j].weights.data();
      for (std::size_t d = 0; d < updates[i].weights.size(); ++d) {
        const double diff = static_cast<double>(a[d]) - static_cast<double>(b[d]);
        acc += diff * diff;
      }
      dist[i][j] = acc;
      dist[j][i] = acc;
    }
  }

  // Score: sum of the n-f-2 smallest distances to others (at least 1).
  const std::size_t keep =
      n > max_byzantine_ + 2 ? n - max_byzantine_ - 2 : std::size_t{1};
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> row;
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(dist[i][j]);
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (std::size_t k = 0; k < std::min(keep, row.size()); ++k) score += row[k];
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

nn::Weights Krum::aggregate(const nn::Weights& global,
                            const std::vector<ClientUpdate>& updates) {
  (void)global;
  return updates[select(updates)].weights;
}

std::vector<double> Krum::aggregation_weights(
    const std::vector<ClientUpdate>& updates) const {
  require_updates(updates, "Krum");
  // Weightless metadata (the server's γ estimate for an attack round)
  // gives the selection nothing to measure: every distance would be zero
  // and slot 0 would always win. Report the uniform prior instead.
  const bool weightless = std::any_of(
      updates.begin(), updates.end(),
      [](const ClientUpdate& u) { return u.weights.empty(); });
  if (weightless) return uniform_weights(updates.size());
  std::vector<double> weights(updates.size(), 0.0);
  weights[select(updates)] = 1.0;
  return weights;
}

std::string Krum::name() const {
  return "Krum(f=" + std::to_string(max_byzantine_) + ")";
}

}  // namespace fedcav::fl
