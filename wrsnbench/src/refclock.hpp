// Host-speed reference: a fixed kernel timed between units of measured work.
//
// The benchmark host drifts by tens of percent, at times within seconds (see
// README.md, "Host drift").  Every time metric is therefore reported twice:
// raw, and scaled by (kReferenceSeconds / the reference time sampled next to
// the work) raised to the metric's elasticity -- how strongly that kind of
// work slows when the reference slows, measured once on the host.
// The kernel is a binary-heap Dijkstra over a fixed random geometric graph
// of kVertices vertices -- the same kind of work (heap, scattered loads,
// floating point) as the program's hot loops -- and it depends on no seed
// and on no program code, so a change to the program cannot move it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "clock.hpp"

namespace wrsnbench {

class RefClock {
 public:
  /// Kernel time on the 4-CPU host the README's figures come from, in its
  /// fast state.  Scaled metrics read as "seconds on that host, fast state".
  static constexpr double kReferenceSeconds = 1.25e-3;
  static constexpr int kVertices = 3000;

  RefClock() {
    // Fixed LCG: the graph is the same in every run and every build.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<double>(state >> 11) * (1.0 / 9007199254740992.0);
    };
    std::vector<double> x(kVertices), y(kVertices);
    for (int v = 0; v < kVertices; ++v) {
      x[v] = next();
      y[v] = next();
    }
    // Unit square, radius giving ~14 neighbours per vertex.
    const double radius = std::sqrt(14.0 / (3.14159265358979 * kVertices));
    const int cells = static_cast<int>(1.0 / radius);
    std::vector<std::vector<int>> grid(static_cast<std::size_t>(cells * cells));
    auto cell_of = [cells](double c) { return std::min(cells - 1, static_cast<int>(c * cells)); };
    for (int v = 0; v < kVertices; ++v) {
      grid[static_cast<std::size_t>(cell_of(x[v]) * cells + cell_of(y[v]))].push_back(v);
    }
    offset_.assign(kVertices + 1, 0);
    for (int v = 0; v < kVertices; ++v) {
      const int cx = cell_of(x[v]);
      const int cy = cell_of(y[v]);
      for (int gx = std::max(0, cx - 1); gx <= std::min(cells - 1, cx + 1); ++gx) {
        for (int gy = std::max(0, cy - 1); gy <= std::min(cells - 1, cy + 1); ++gy) {
          for (int u : grid[static_cast<std::size_t>(gx * cells + gy)]) {
            const double d = std::hypot(x[v] - x[u], y[v] - y[u]);
            if (u != v && d <= radius) {
              target_.push_back(u);
              weight_.push_back(1e-6 + d * d);
            }
          }
        }
      }
      offset_[static_cast<std::size_t>(v) + 1] = static_cast<int>(target_.size());
    }
    dist_.resize(kVertices);
  }

  /// Runs the kernel `reps` times; returns the seconds of one repetition.
  double sample(int reps = 4) {
    const double start = now_s();
    for (int r = 0; r < reps; ++r) checksum_ += run((r * 977) % kVertices);
    const double seconds = (now_s() - start) / reps;
    samples_.push_back(seconds);
    return seconds;
  }

  /// Median of every sample taken so far (0 before the first).
  double median() const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
    return sorted[sorted.size() / 2];
  }
  /// Multiplier turning a raw time measured while the kernel took
  /// `reference_s` into reference-host time.
  static double scale_for(double reference_s, double elasticity) {
    return std::pow(kReferenceSeconds / reference_s, elasticity);
  }
  const std::vector<double>& samples() const noexcept { return samples_; }
  std::size_t count() const noexcept { return samples_.size(); }

 private:
  double run(int source) {
    std::fill(dist_.begin(), dist_.end(), 1e300);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist_[static_cast<std::size_t>(source)] = 0.0;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist_[static_cast<std::size_t>(v)]) continue;
      for (int e = offset_[static_cast<std::size_t>(v)]; e < offset_[static_cast<std::size_t>(v) + 1]; ++e) {
        const int u = target_[static_cast<std::size_t>(e)];
        const double nd = d + weight_[static_cast<std::size_t>(e)];
        if (nd < dist_[static_cast<std::size_t>(u)]) {
          dist_[static_cast<std::size_t>(u)] = nd;
          heap.emplace(nd, u);
        }
      }
    }
    double sum = 0.0;
    for (double d : dist_) sum += d < 1e299 ? d : 0.0;
    return sum;
  }

  std::vector<int> offset_;
  std::vector<int> target_;
  std::vector<double> weight_;
  std::vector<double> dist_;
  std::vector<double> samples_;
  double checksum_ = 0.0;  // keeps the kernel's result live
};

}  // namespace wrsnbench
