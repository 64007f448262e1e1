#include "sinr/feasibility.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.h"
#include "util/parallel.h"

namespace wagg::sinr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// exp2 with saturation instead of overflow/underflow surprises.
double safe_exp2(double x) noexcept {
  if (x >= 1024.0) return kInf;
  if (x <= -1074.0) return 0.0;
  return std::exp2(x);
}

/// log2 of the noise load term beta * N * l_i^alpha / P_i, or -inf if N == 0.
double log2_noise_term(const geom::LinkView& links, const SinrParams& params,
                       const PowerAssignment& power, std::size_t i) {
  if (params.noise <= 0.0) return -kInf;
  return std::log2(params.noise) + params.alpha * std::log2(links.length(i)) -
         power.log2_power(i);
}

}  // namespace

double log2_sum_exp2(std::span<const double> values) {
  double max_v = -kInf;
  for (double v : values) max_v = std::max(max_v, v);
  if (max_v == -kInf) return -kInf;
  if (max_v == kInf) return kInf;
  double sum = 0.0;
  for (double v : values) {
    if (v == -kInf) continue;
    sum += std::exp2(v - max_v);
  }
  return max_v + std::log2(sum);
}

double log2_affectance(const geom::LinkView& links, const SinrParams& params,
                       const PowerAssignment& power, std::size_t j,
                       std::size_t i) {
  if (j == i) return -kInf;
  const double d = links.sinr_distance(j, i);
  if (d <= 0.0) return kInf;
  return power.log2_power(j) - power.log2_power(i) +
         params.alpha * (std::log2(links.length(i)) - std::log2(d));
}

bool has_shared_node(const geom::LinkView& links,
                     std::span<const std::size_t> set) {
  // Sort the 2|set| endpoint indices and look for an adjacent duplicate —
  // O(k log k) against the O(k^2) pairwise check this replaces.
  std::vector<std::int32_t> nodes;
  nodes.reserve(2 * set.size());
  for (const std::size_t i : set) {
    nodes.push_back(links.link(i).sender);
    nodes.push_back(links.link(i).receiver);
  }
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end();
}

FeasibilityReport check_feasible(const geom::LinkView& links,
                                 std::span<const std::size_t> set,
                                 const SinrParams& params,
                                 const PowerAssignment& power,
                                 double tolerance) {
  params.validate();
  FeasibilityReport report;
  report.worst_link = set.size();
  if (set.empty()) {
    report.feasible = true;
    return report;
  }
  if (has_shared_node(links, set)) {
    report.shared_node = true;
    report.feasible = false;
    report.max_load = kInf;
    return report;
  }
  const double log2_beta = std::log2(params.beta);
  report.max_load = 0.0;
  // Hoisted per-link columns: log2 length and log2 power are re-read for
  // every pair in the inner loop, so computing them once per link removes
  // two transcendentals per matrix entry. Distances enter as
  // 0.5 * log2(d^2), saving the square root.
  std::vector<double> log2_len(set.size());
  std::vector<double> log2_pow(set.size());
  for (std::size_t a = 0; a < set.size(); ++a) {
    log2_len[a] = std::log2(links.length(set[a]));
    log2_pow[a] = power.log2_power(set[a]);
  }
  std::vector<double> terms;
  terms.reserve(set.size());
  for (std::size_t a = 0; a < set.size(); ++a) {
    terms.clear();
    const double alpha_log2_len = params.alpha * log2_len[a];
    for (std::size_t b = 0; b < set.size(); ++b) {
      if (b == a) continue;
      const double d2 = links.squared_sinr_distance(set[b], set[a]);
      terms.push_back(d2 <= 0.0
                          ? kInf
                          : log2_pow[b] - log2_pow[a] + alpha_log2_len -
                                params.alpha * 0.5 * std::log2(d2));
    }
    terms.push_back(log2_noise_term(links, params, power, set[a]));
    const double load = safe_exp2(log2_beta + log2_sum_exp2(terms));
    if (load > report.max_load) {
      report.max_load = load;
      report.worst_link = a;
    }
  }
  report.feasible = report.max_load <= 1.0 + tolerance;
  return report;
}

bool is_feasible(const geom::LinkView& links, std::span<const std::size_t> set,
                 const SinrParams& params, const PowerAssignment& power,
                 double tolerance) {
  return check_feasible(links, set, params, power, tolerance).feasible;
}

namespace {

/// log2 of the normalized gain matrix M_ij = beta * (l_i / d_ji)^alpha,
/// row-major over the set; diagonal is -inf.
std::vector<double> log2_gain_matrix(const geom::LinkView& links,
                                     std::span<const std::size_t> set,
                                     const SinrParams& params) {
  const std::size_t k = set.size();
  const double log2_beta = std::log2(params.beta);
  std::vector<double> m(k * k, -kInf);
  for (std::size_t a = 0; a < k; ++a) {
    const double log2_len = std::log2(links.length(set[a]));
    const double row_const = log2_beta + params.alpha * log2_len;
    for (std::size_t b = 0; b < k; ++b) {
      if (a == b) continue;
      // 0.5 * log2(d^2) == log2(d): the square root never materializes.
      const double d2 = links.squared_sinr_distance(set[b], set[a]);
      m[a * k + b] = d2 <= 0.0
                         ? kInf
                         : row_const - params.alpha * 0.5 * std::log2(d2);
    }
  }
  return m;
}

// The linear kernel keeps every gain entry and every normalized iterate in
// [2^-900, 2^900]. Products of two such values and sums of fewer than 2^100
// of them then stay far from overflow. A product that underflows is below
// 2^-1022 while every row sum is at least 2^-900, so each sum keeps full
// relative precision. Sets outside the window go to the log-space kernel.
constexpr double kLinearMin = 0x1p-900;
constexpr double kLinearMax = 0x1p+900;

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

/// Sets with at least this many links split their rows over
/// util::parallel_for; smaller ones stay on the calling thread. On a 4-vCPU
/// x86-64 host at alpha = 3, with the helpers asleep before each call (as
/// between a churn epoch's oracle calls), the split loses at 192 links and
/// wins from 224 on. The serving runtime's n = 256 sessions stay below it.
constexpr std::size_t kParallelMinLinks = 256;

/// Consecutive rows a thread claims at once.
constexpr std::size_t kRowGrain = 8;

/// Rows handed to util::parallel_for, and how many of them helpers ran:
/// an epoch whose helpers never woke shows a helper share near zero.
struct RowMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& rows = reg.counter("sinr.parallel_rows");
  obs::Counter& helper_rows = reg.counter("sinr.parallel_helper_rows");
};

RowMetrics& row_metrics() {
  static RowMetrics metrics;
  return metrics;
}

/// Runs row(a) once for every a in [0, k): split over the helper pool from
/// kParallelMinLinks links on, serially below. Each row runs on exactly one
/// thread with the same operations, so the split cannot change a bit.
template <class RowFn>
void for_each_row(std::size_t k, const RowFn& row) {
  if (k < kParallelMinLinks) {
    for (std::size_t a = 0; a < k; ++a) row(a);
    return;
  }
  const std::size_t helper_rows = util::parallel_for(k, kRowGrain, row);
  row_metrics().rows.add(k);
  row_metrics().helper_rows.add(helper_rows);
}

/// The gathered endpoint columns of a set: sender x/y, receiver x/y and
/// squared length per link.
struct LinkColumns {
  std::size_t k = 0;
  const double* sx = nullptr;
  const double* sy = nullptr;
  const double* rx = nullptr;
  const double* ry = nullptr;
  const double* len2 = nullptr;
};

/// Fills row a of M, entries beta * gain(l_a^2 / d_ba^2) with a zero
/// diagonal, and returns the row's left-to-right sum; clears `in_range`
/// when an entry leaves [kLinearMin, kLinearMax]. Under SSE2 two entries
/// are formed at a time with correctly rounded subtract, multiply, divide
/// and square root, which round every lane exactly as the scalar loop
/// does; the sum still adds one entry at a time, in order.
double fill_row(const LinkColumns& c, const GainPower& gain, double beta,
                std::size_t a, double* row, bool& in_range) {
  const double rxa = c.rx[a], rya = c.ry[a], len2a = c.len2[a];
  double sum = 0.0;
  const auto fill = [&](std::size_t b0, std::size_t b1) {
    std::size_t b = b0;
#if defined(__SSE2__)
    if (!gain.uses_pow()) {
      const __m128d vrx = _mm_set1_pd(rxa), vry = _mm_set1_pd(rya);
      const __m128d vlen2 = _mm_set1_pd(len2a), vbeta = _mm_set1_pd(beta);
      const __m128d vmin = _mm_set1_pd(kLinearMin);
      const __m128d vmax = _mm_set1_pd(kLinearMax);
      __m128d ok = _mm_castsi128_pd(_mm_set1_epi64x(-1));  // both lanes
      for (; b + 2 <= b1; b += 2) {
        const __m128d dx = _mm_sub_pd(_mm_loadu_pd(c.sx + b), vrx);
        const __m128d dy = _mm_sub_pd(_mm_loadu_pd(c.sy + b), vry);
        const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
        const __m128d v = _mm_mul_pd(vbeta, gain(_mm_div_pd(vlen2, d2)));
        ok = _mm_and_pd(ok, _mm_and_pd(_mm_cmpge_pd(v, vmin),
                                       _mm_cmple_pd(v, vmax)));
        _mm_storeu_pd(row + b, v);
        sum += row[b];
        sum += row[b + 1];
      }
      in_range &= _mm_movemask_pd(ok) == 3;
    }
#endif
    for (; b < b1; ++b) {
      const double dx = c.sx[b] - rxa;
      const double dy = c.sy[b] - rya;
      const double v = beta * gain(len2a / (dx * dx + dy * dy));
      in_range &= (v >= kLinearMin) & (v <= kLinearMax);
      row[b] = v;
      sum += v;
    }
  };
  fill(0, a);
  row[a] = 0.0;
  fill(a + 1, c.k);
  return sum;
}

/// Sum of a[i] * x[i] with four accumulators, so the adds pipeline.
double dot(const double* a, const double* x, std::size_t n) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * x[i];
    s1 += a[i + 1] * x[i + 1];
    s2 += a[i + 2] * x[i + 2];
    s3 += a[i + 3] * x[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * x[i];
  return (s0 + s1) + (s2 + s3);
}

/// The noise-free power iteration of power_control_feasible_log2 (k >= 3,
/// no shared node) run on linear values: one gather of the endpoints, one
/// square root per gain entry (alpha = 3), plain multiply-adds after that.
/// Same start (all ones), the same acceptance and stopping rules and the
/// same returned vector, so verdicts and iteration counts agree with the
/// log-space kernel. Returns nullopt when an entry or iterate leaves the
/// [kLinearMin, kLinearMax] window (d = 0, extreme length ratios); the
/// caller then runs the log-space kernel.
///
/// The matrix build and each matrix-vector product go row by row through
/// for_each_row; the reductions over rows (ratio, extremes, normalization)
/// run serially here, so the result does not depend on the split.
std::optional<PowerControlResult> power_control_linear(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerControlOptions& options) {
  const std::size_t k = set.size();
  // Sender x/y, receiver x/y and squared length of each link, gathered once.
  std::vector<double> cols(5 * k);
  double* const sx = cols.data();
  double* const sy = sx + k;
  double* const rx = sy + k;
  double* const ry = rx + k;
  double* const len2 = ry + k;
  for (std::size_t a = 0; a < k; ++a) {
    const geom::Point& s = links.sender_pos(set[a]);
    const geom::Point& r = links.receiver_pos(set[a]);
    sx[a] = s.x;
    sy[a] = s.y;
    rx[a] = r.x;
    ry[a] = r.y;
    const double len = links.length(set[a]);
    len2[a] = len * len;
  }
  const LinkColumns columns{k, sx, sy, rx, ry, len2};

  // M_ab = beta * (l_a^2 / d_ba^2)^(alpha/2), row-major, zero diagonal. The
  // build also yields M * (all ones), the first iteration's product.
  const GainPower gain(params.alpha);
  const auto m = std::make_unique_for_overwrite<double[]>(k * k);
  std::vector<double> x(k, 1.0), y(k);
  std::atomic<bool> out_of_range{false};
  for_each_row(k, [&](std::size_t a) {
    bool in_range = true;
    y[a] = fill_row(columns, gain, params.beta, a, m.get() + a * k, in_range);
    if (!in_range) out_of_range.store(true, std::memory_order_relaxed);
  });
  if (out_of_range.load(std::memory_order_relaxed)) return std::nullopt;

  PowerControlResult result;
  double rho_upper = kInf;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    if (iter > 0) {
      for_each_row(k, [&](std::size_t a) {
        y[a] = dot(m.get() + a * k, x.data(), k);
      });
    }
    double max_ratio = 0.0;
    double max_y = 0.0;
    double min_y = kInf;
    for (std::size_t a = 0; a < k; ++a) {
      max_ratio = std::max(max_ratio, y[a] / x[a]);
      max_y = std::max(max_y, y[a]);
      min_y = std::min(min_y, y[a]);
    }
    if (!(min_y >= kLinearMin && max_y <= kLinearMax)) return std::nullopt;
    const double new_upper = max_ratio;
    const bool upper_conclusive = new_upper < 1.0 - options.strictness;
    const bool converged =
        std::isfinite(rho_upper) &&
        std::abs(new_upper - rho_upper) <=
            options.tolerance * std::max(1.0, rho_upper);
    rho_upper = new_upper;
    if (upper_conclusive && iter > 0) break;
    if (!(min_y / max_y >= kLinearMin)) return std::nullopt;
    for (std::size_t a = 0; a < k; ++a) x[a] = y[a] / max_y;
    if (converged) break;
  }
  result.spectral_radius = rho_upper;
  if (rho_upper < 1.0 - options.strictness) {
    result.log2_power.resize(k);
    for (std::size_t a = 0; a < k; ++a) result.log2_power[a] = std::log2(x[a]);
    result.feasible = true;
  }
  return result;
}

}  // namespace

PowerControlResult power_control_feasible(const geom::LinkView& links,
                                          std::span<const std::size_t> set,
                                          const SinrParams& params,
                                          const PowerControlOptions& options) {
  params.validate();
  if (params.noise <= 0.0 && set.size() >= 3 && !has_shared_node(links, set)) {
    if (auto result = power_control_linear(links, set, params, options)) {
      return *std::move(result);
    }
  }
  return power_control_feasible_log2(links, set, params, options);
}

PowerControlResult power_control_feasible_log2(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerControlOptions& options) {
  params.validate();
  PowerControlResult result;
  if (set.empty()) {
    result.feasible = true;
    result.spectral_radius = 0.0;
    return result;
  }
  if (has_shared_node(links, set)) {
    result.shared_node = true;
    result.spectral_radius = kInf;
    return result;
  }
  const std::size_t k = set.size();
  if (k == 1) {
    result.feasible = true;
    result.spectral_radius = 0.0;
    result.log2_power = {0.0};
    return result;
  }
  const auto m = log2_gain_matrix(links, set, params);

  if (k == 2) {
    // Exact: rho([[0,a],[b,0]]) = sqrt(a*b), computed in log2 space.
    const double a = m[1];  // effect of link 2's power on link 1
    const double b = m[2];  // effect of link 1's power on link 2
    const double lg = 0.5 * (a + b);
    result.spectral_radius = safe_exp2(lg);
    result.iterations = 0;
    if (lg < std::log2(1.0 - options.strictness)) {
      if (a == -kInf && b == -kInf) {
        result.log2_power = {0.0, 0.0};
      } else if (a == -kInf) {
        // Only link 1 interferes with link 2: depress link 1's power.
        result.log2_power = {std::min(0.0, -b - 1.0), 0.0};
      } else if (b == -kInf) {
        result.log2_power = {0.0, std::min(0.0, -a - 1.0)};
      } else {
        // Balanced Perron powers p1/p2 = sqrt(M12 / M21).
        result.log2_power = {0.0, 0.5 * (b - a)};
      }
      const double mx =
          std::max(result.log2_power[0], result.log2_power[1]);
      for (double& p : result.log2_power) p -= mx;
      result.feasible = true;
    }
  } else {
    // Power iteration in log2 space. The Collatz–Wielandt inequality gives
    // rho <= max_i (Mx)_i / x_i for every positive x, so as soon as the max
    // ratio drops below the feasibility threshold we can stop: the current
    // iterate is itself a certified power vector (each link's load is at
    // most the max ratio). Ambiguous spectra iterate up to the budget.
    if (std::find(m.begin(), m.end(), kInf) != m.end()) {
      // A sender on another link's receiver (d = 0): that link's load is
      // infinite under any power. Iterating would normalize inf - inf.
      result.spectral_radius = kInf;
      return result;
    }
    std::vector<double> v(k, 0.0), w(k, -kInf), terms(k);
    double rho_upper = kInf;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) terms[b] = m[a * k + b] + v[b];
        w[a] = log2_sum_exp2(terms);
      }
      double max_ratio = -kInf;
      double max_w = -kInf;
      for (std::size_t a = 0; a < k; ++a) {
        if (w[a] != -kInf) max_ratio = std::max(max_ratio, w[a] - v[a]);
        max_w = std::max(max_w, w[a]);
      }
      if (max_ratio == -kInf) {
        // No interference at all; trivially feasible.
        result.spectral_radius = 0.0;
        result.feasible = true;
        result.log2_power.assign(k, 0.0);
        return result;
      }
      const double new_upper = safe_exp2(max_ratio);
      const bool upper_conclusive = new_upper < 1.0 - options.strictness;
      const bool converged =
          std::isfinite(rho_upper) &&
          std::abs(new_upper - rho_upper) <=
              options.tolerance * std::max(1.0, rho_upper);
      rho_upper = new_upper;
      if (upper_conclusive && iter > 0) break;
      // Normalize to max 0. Links receiving zero interference have w = -inf;
      // pin them far below the pack (their own SINR is unconstrained and a
      // low power keeps their outgoing interference negligible).
      for (std::size_t a = 0; a < k; ++a) {
        v[a] = w[a] == -kInf ? -500.0 : w[a] - max_w;
      }
      if (converged) break;
    }
    result.spectral_radius = rho_upper;
    if (rho_upper < 1.0 - options.strictness) {
      result.log2_power = v;
      result.feasible = true;
    }
  }

  if (!result.feasible) return result;

  // Noise-free instances need no second pass: a feasible verdict above is
  // already certified by its power vector (the k == 2 branch solves the
  // 2x2 system exactly, and the iterative branch only accepts via the
  // Collatz–Wielandt bound — every link's load under the returned vector
  // is at most rho_upper < 1 - strictness). Re-deriving the same loads
  // through check_feasible would double the call's cost for nothing.
  if (params.noise <= 0.0) return result;

  // Certify with an explicit power vector. With noise, run the
  // Foschini–Miljanic fixed-point update in log2 space first.
  PowerAssignment slot_power = embed_slot_power(links, set, result);
  if (params.noise > 0.0) {
    std::vector<double> lp(k);
    for (std::size_t a = 0; a < k; ++a) {
      lp[a] = std::log2((1.0 + params.epsilon) * params.beta * params.noise) +
              params.alpha * std::log2(links.length(set[a]));
    }
    std::vector<double> terms(k + 1);
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) terms[b] = m[a * k + b] + lp[b];
        terms[k] = std::log2(params.beta * params.noise) +
                   params.alpha * std::log2(links.length(set[a]));
        lp[a] = log2_sum_exp2(terms);
      }
    }
    // Headroom against the exact-equality fixed point.
    for (double& p : lp) p += std::log2(1.0 + params.epsilon);
    result.log2_power = lp;
    slot_power = embed_slot_power(links, set, result);
  }
  const auto report = check_feasible(links, set, params, slot_power, 1e-7);
  result.feasible = report.feasible;
  return result;
}

PowerAssignment embed_slot_power(const geom::LinkView& links,
                                 std::span<const std::size_t> set,
                                 const PowerControlResult& result) {
  if (result.log2_power.size() != set.size()) {
    throw std::invalid_argument("embed_slot_power: size mismatch");
  }
  std::vector<double> lp(links.size(), 0.0);
  for (std::size_t a = 0; a < set.size(); ++a) {
    lp.at(set[a]) = result.log2_power[a];
  }
  return PowerAssignment(std::move(lp), "power-control");
}

}  // namespace wagg::sinr
