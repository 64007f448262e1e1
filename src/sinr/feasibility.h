#ifndef WAGG_SINR_FEASIBILITY_H
#define WAGG_SINR_FEASIBILITY_H

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "geom/linkset.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::sinr {

/// log2 of the relative interference (affectance) of link j on link i under
/// power P:  I_P(j, i) = (P_j / d_ji^alpha) / (P_i / l_i^alpha).
/// Returns -inf for j == i and +inf when d_ji == 0 (sender of j sits on the
/// receiver of i).
[[nodiscard]] double log2_affectance(const geom::LinkView& links,
                                     const SinrParams& params,
                                     const PowerAssignment& power,
                                     std::size_t j, std::size_t i);

/// True iff some node appears in two links of the set (half-duplex, single
/// radio per node: such sets are never schedulable in one slot).
[[nodiscard]] bool has_shared_node(const geom::LinkView& links,
                                   std::span<const std::size_t> set);

/// The window of the linear gain kernels. Every gain entry, normalized power
/// and row sum they form stays in [kLinearMin, kLinearMax]: products of two
/// such values and sums of fewer than 2^100 of them then stay far from
/// overflow, and a product that underflows (below 2^-1022) cannot cost a
/// row sum of at least 2^-900 its relative precision. Values outside go to
/// the log-space kernels.
inline constexpr double kLinearMin = 0x1p-900;
inline constexpr double kLinearMax = 0x1p+900;

[[nodiscard]] inline bool in_linear_range(double v) noexcept {
  return (v >= kLinearMin) & (v <= kLinearMax);
}

/// x^(alpha/2) for the squared gain ratio x = l^2 / d^2. When q = 2 * alpha
/// is an integer (alpha <= 16), x^(q/4) is x^(q div 4), times sqrt(x) if q
/// has bit 1 set, times x^(1/4) if q has bit 0 set: multiplies and at most
/// two square roots, one at alpha = 3. Otherwise std::pow.
class GainPower {
 public:
  explicit GainPower(double alpha)
      : quarters_(alpha <= 16.0 && 2.0 * alpha == std::round(2.0 * alpha)
                      ? static_cast<int>(2.0 * alpha)
                      : -1),
        half_alpha_(0.5 * alpha) {}

  [[nodiscard]] bool uses_pow() const noexcept { return quarters_ < 0; }

  [[nodiscard]] double operator()(double x) const {
    if (quarters_ < 0) return std::pow(x, half_alpha_);
    double v = (quarters_ & 2) != 0 ? std::sqrt(x) : 1.0;
    if ((quarters_ & 1) != 0) v *= std::sqrt(std::sqrt(x));
    for (int i = 0; i < quarters_ / 4; ++i) v *= x;
    return v;
  }

#if defined(__SSE2__)
  /// The scalar operator on two lanes (!uses_pow() only): the same
  /// correctly rounded square roots and multiplies in the same order, so
  /// each lane is bit-identical to it.
  [[nodiscard]] __m128d operator()(__m128d x) const {
    __m128d v = (quarters_ & 2) != 0 ? _mm_sqrt_pd(x) : _mm_set1_pd(1.0);
    if ((quarters_ & 1) != 0) v = _mm_mul_pd(v, _mm_sqrt_pd(_mm_sqrt_pd(x)));
    for (int i = 0; i < quarters_ / 4; ++i) v = _mm_mul_pd(v, x);
    return v;
  }
#endif

 private:
  int quarters_;  ///< 2 * alpha, or -1 when pow is needed
  double half_alpha_;
};

/// The linear kernels' gain entry: (l^2 / d^2)^(alpha/2) for a receiver at
/// (rx, ry) on a link of squared length len2 and a sender at (sx, sy).
/// Power control's matrix, the fixed-power check and the running-load join
/// all form their entries here (or in its two-lane twin), so the power
/// families cannot drift apart.
[[nodiscard]] inline double gain_entry(const GainPower& gain, double rx,
                                       double ry, double len2, double sx,
                                       double sy) {
  const double dx = sx - rx;
  const double dy = sy - ry;
  return gain(len2 / (dx * dx + dy * dy));
}

/// Result of an exact slot-feasibility check.
struct FeasibilityReport {
  bool feasible = false;
  /// max over links i in the set of beta * (sum_j I_P(j,i) + noise term);
  /// feasible iff <= 1 (up to tolerance) and no shared nodes.
  double max_load = 0.0;
  /// Link (index into the set) attaining max_load; set size on empty input.
  std::size_t worst_link = 0;
  bool shared_node = false;
};

/// Exact SINR feasibility of a set of links under a fixed power assignment.
/// `tolerance` loosens the SINR comparison multiplicatively to absorb
/// floating-point noise (load <= 1 + tolerance passes).
///
/// A set of k >= 2 links without a shared node is checked in one pass over
/// the linear gain formula that power control's matrix uses: the endpoint
/// coordinates, squared lengths and normalized powers
/// p_b = 2^(log2 P_b - max log2 P) are gathered once (one exp2 per link),
/// and each row sums p_b * (l_a^2 / d_ba^2)^(alpha/2) two entries at a time
/// with SSE2 into two lane accumulators, so
///   load_a = beta * (sum_b p_b g_ba) / p_a  (+ beta * N * l_a^alpha / P_a).
/// No matrix is stored. Every gain entry, normalized power, row sum and
/// load must lie in [kLinearMin, kLinearMax]; a set that leaves the window
/// (d = 0, doubly-exponential chains, extreme power ratios), a set whose
/// 2 * alpha is not an integer (std::pow per entry measured slower than
/// the log-space loop) and k <= 1 run check_feasible_log2's loop from
/// scratch instead, and report exactly what it reports. The pass runs on
/// the calling thread (split over the helper pool it measured no faster),
/// summing each row in a fixed order, so the report does not depend on the
/// core count. Safe to call from several threads at once.
[[nodiscard]] FeasibilityReport check_feasible(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerAssignment& power,
    double tolerance = 1e-9);

/// The log-space check: the same loads, each row summed in log2 space
/// (log-sum-exp) with a log2 and an exp2 per entry, so no length or power
/// ratio can overflow. check_feasible falls back to it outside the linear
/// window; tests use it as the reference for the linear pass.
[[nodiscard]] FeasibilityReport check_feasible_log2(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerAssignment& power,
    double tolerance = 1e-9);

/// Convenience wrapper returning just the verdict.
[[nodiscard]] bool is_feasible(const geom::LinkView& links,
                               std::span<const std::size_t> set,
                               const SinrParams& params,
                               const PowerAssignment& power,
                               double tolerance = 1e-9);

/// Feasibility under *arbitrary power control* (the paper's "feasible" with
/// no fixed P): a set S admits a power vector P > 0 satisfying all SINR
/// constraints iff the spectral radius of the normalized gain matrix
///   M_ij = beta * (l_i / d_ji)^alpha   (i != j), M_ii = 0
/// is below 1. Decided by power iteration from the all-ones vector, accepted
/// through the Collatz–Wielandt bound max_i (Mx)_i / x_i < 1 - strictness.
/// When feasible, the (log2) Perron vector is returned: it is itself a valid
/// power assignment with slack 1/rho, i.e. the output of a global power
/// control algorithm in the Foschini–Miljanic family.
///
/// Noise-free sets of k >= 3 links run the iteration on linear values: when
/// 2 * alpha is an integer each gain entry costs multiplies and at most two
/// square roots (one at alpha = 3), and each step is a plain matrix-vector
/// product. The matrix lives only for the call. A set whose entries or
/// normalized iterates leave [2^-900, 2^900] (coincident points,
/// doubly-exponential chains), a set with noise, and k == 2 take the
/// log-space kernel power_control_feasible_log2 instead. Both kernels share
/// the start vector, the acceptance and stopping rules and the returned
/// vector, so their verdicts and iteration counts agree.
///
/// The linear kernel fills each matrix row two entries at a time with SSE2
/// (where available) and, from 256 links on, splits the matrix build and
/// every matrix-vector product by rows over util::parallel_for. Each row is
/// computed by one thread with the same correctly rounded operations in the
/// same order, and every reduction over rows runs on the calling thread, so
/// the result is bit-identical to a scalar single-threaded run whatever the
/// core count. Safe to call from several threads at once.
struct PowerControlResult {
  bool feasible = false;
  /// Spectral radius estimate of M; feasible iff < 1 and no shared node.
  double spectral_radius = 0.0;
  bool shared_node = false;
  /// log2 of the computed power vector (aligned with `set`); empty if
  /// infeasible. Normalized so the maximum log2-power is 0.
  std::vector<double> log2_power;
  int iterations = 0;
};

struct PowerControlOptions {
  int max_iterations = 256;
  double tolerance = 1e-10;
  /// Require rho <= 1 - strictness (strictness > 0 guards against sets that
  /// are only feasible with unbounded power ratios).
  double strictness = 1e-6;
};

[[nodiscard]] PowerControlResult power_control_feasible(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerControlOptions& options = {});

/// The log-space kernel: the same decision, with the power iteration run
/// entirely in log2 space (log-sum-exp), so doubly-exponential instances do
/// not overflow. With noise it also runs the Foschini–Miljanic fixed point
/// and certifies the vector through check_feasible. power_control_feasible
/// falls back to it; tests use it as the reference for the linear kernel.
[[nodiscard]] PowerControlResult power_control_feasible_log2(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerControlOptions& options = {});

/// Expands the per-set power vector from power_control_feasible into a
/// full-linkset PowerAssignment (links outside `set` keep log2 power 0).
[[nodiscard]] PowerAssignment embed_slot_power(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const PowerControlResult& result);

/// Numerically stable log2(sum_i 2^x_i); -inf on empty input.
[[nodiscard]] double log2_sum_exp2(std::span<const double> values);

}  // namespace wagg::sinr

#endif  // WAGG_SINR_FEASIBILITY_H
