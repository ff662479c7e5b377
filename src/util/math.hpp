// Numerical helpers shared across CRF, propagation and neural modules.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace graphner::util {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// log(exp(a) + exp(b)) computed stably.
[[nodiscard]] inline double log_add(double a, double b) noexcept {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

/// Stable log(sum_i exp(xs[i])); returns -inf for an empty span.
[[nodiscard]] inline double log_sum_exp(std::span<const double> xs) noexcept {
  double hi = kNegInf;
  for (double x : xs) hi = std::max(hi, x);
  if (hi == kNegInf) return kNegInf;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - hi);
  return hi + std::log(sum);
}

/// In-place softmax over `xs`.
inline void softmax_inplace(std::span<double> xs) noexcept {
  const double lse = log_sum_exp(xs);
  for (double& x : xs) x = std::exp(x - lse);
}

/// Normalize a non-negative vector to sum to 1; uniform fallback if all-zero.
inline void normalize_inplace(std::span<double> xs) noexcept {
  double total = 0.0;
  for (double x : xs) total += x;
  if (total <= 0.0) {
    const double u = xs.empty() ? 0.0 : 1.0 / static_cast<double>(xs.size());
    for (double& x : xs) x = u;
    return;
  }
  for (double& x : xs) x /= total;
}

/// Dot product.
[[nodiscard]] inline double dot(std::span<const double> a,
                                std::span<const double> b) noexcept {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// Euclidean norm.
[[nodiscard]] inline double norm(std::span<const double> a) noexcept {
  return std::sqrt(dot(a, a));
}

/// Kahan-compensated running sum; used where many small doubles accumulate.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Harmonic mean of precision and recall; 0 when both are 0.
[[nodiscard]] inline double f_score(double precision, double recall) noexcept {
  if (precision + recall <= 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

/// Clamp helper used by optimizers.
[[nodiscard]] inline double clamp(double x, double lo, double hi) noexcept {
  return std::min(hi, std::max(lo, x));
}

}  // namespace graphner::util
