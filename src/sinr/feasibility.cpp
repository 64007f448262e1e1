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

namespace {

/// Sets with at least this many links split their rows over
/// util::parallel_for; smaller ones stay on the calling thread. On a 4-vCPU
/// x86-64 host at alpha = 3, with the helpers asleep before each call (as
/// between a churn epoch's oracle calls), the split loses at 192 links and
/// wins from 224 on. The serving runtime's n = 256 sessions stay below it.
constexpr std::size_t kParallelMinLinks = 256;

/// Consecutive rows a thread claims at once.
constexpr std::size_t kRowGrain = 8;

/// Rows handed to util::parallel_for, and how many of them helpers ran:
/// an epoch whose helpers never woke shows a helper share near zero. Gain
/// entries count the terms the SINR checks form: k(k-1) per whole-set
/// check or matrix build of k links.
struct KernelMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& rows = reg.counter("sinr.parallel_rows");
  obs::Counter& helper_rows = reg.counter("sinr.parallel_helper_rows");
  obs::Counter& gain_entries = reg.counter("sinr.gain_entries");
};

KernelMetrics& kernel_metrics() {
  static KernelMetrics metrics;
  return metrics;
}

void count_gain_entries(std::size_t k) {
  if (k >= 2) kernel_metrics().gain_entries.add(k * (k - 1));
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
  kernel_metrics().rows.add(k);
  kernel_metrics().helper_rows.add(helper_rows);
}

/// The endpoint columns of a set, gathered once: sender x/y, receiver x/y
/// and squared length per link, k values each in one allocation.
struct LinkColumns {
  LinkColumns(const geom::LinkView& links, std::span<const std::size_t> set)
      : k(set.size()), store(5 * k) {
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
  }
  LinkColumns(const LinkColumns&) = delete;
  LinkColumns& operator=(const LinkColumns&) = delete;

  std::size_t k;
  std::vector<double> store;
  double* sx = store.data();
  double* sy = sx + k;
  double* rx = sy + k;
  double* ry = rx + k;
  double* len2 = ry + k;
};

#if defined(__SSE2__)
/// gain_entry for senders b and b + 1 on one receiver, two lanes at a time:
/// the same correctly rounded subtract, multiply, divide and square root,
/// so each lane is bit-identical to the scalar entry.
__m128d gain_pair(const LinkColumns& c, const GainPower& gain, __m128d rx,
                  __m128d ry, __m128d len2, std::size_t b) {
  const __m128d dx = _mm_sub_pd(_mm_loadu_pd(c.sx + b), rx);
  const __m128d dy = _mm_sub_pd(_mm_loadu_pd(c.sy + b), ry);
  const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
  return gain(_mm_div_pd(len2, d2));
}

/// All-ones lanes where v lies in [kLinearMin, kLinearMax].
__m128d lanes_in_linear_range(__m128d v) {
  return _mm_and_pd(_mm_cmpge_pd(v, _mm_set1_pd(kLinearMin)),
                    _mm_cmple_pd(v, _mm_set1_pd(kLinearMax)));
}

__m128d all_lanes() { return _mm_castsi128_pd(_mm_set1_epi64x(-1)); }
#endif

/// Fills row a of M, entries beta * gain_entry(b on a) with a zero
/// diagonal, and returns the row's left-to-right sum; clears `in_range`
/// when an entry leaves [kLinearMin, kLinearMax]. Under SSE2 two entries
/// are formed at a time; the sum still adds one entry at a time, in order.
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
      __m128d ok = all_lanes();
      for (; b + 2 <= b1; b += 2) {
        const __m128d v =
            _mm_mul_pd(vbeta, gain_pair(c, gain, vrx, vry, vlen2, b));
        ok = _mm_and_pd(ok, lanes_in_linear_range(v));
        _mm_storeu_pd(row + b, v);
        sum += row[b];
        sum += row[b + 1];
      }
      in_range &= _mm_movemask_pd(ok) == 3;
    }
#endif
    for (; b < b1; ++b) {
      const double v =
          beta * gain_entry(gain, rxa, rya, len2a, c.sx[b], c.sy[b]);
      in_range &= in_linear_range(v);
      row[b] = v;
      sum += v;
    }
  };
  fill(0, a);
  row[a] = 0.0;
  fill(a + 1, c.k);
  return sum;
}

/// Row a of the fixed-power check, sum over b != a of p[b] * gain_entry(b
/// on a), without storing an entry (!gain.uses_pow() only). Entries go in
/// pairs into two lane accumulators, and a run's odd last entry into lane
/// 0; the lanes are added at the end of the row. Under SSE2 the pairs are
/// formed two lanes at a time, with the same arithmetic in the same order
/// as the scalar loop, so both give the same bits. Clears `in_range` when
/// the smallest or largest entry leaves [kLinearMin, kLinearMax]; a NaN
/// entry can slip past those extremes but not past the returned sum.
double interference_row(const LinkColumns& c, const GainPower& gain,
                        const double* p, std::size_t a, bool& in_range) {
  const double rxa = c.rx[a], rya = c.ry[a], len2a = c.len2[a];
  double lane[2] = {0.0, 0.0};
  double lo[2] = {kLinearMax, kLinearMax};
  double hi[2] = {kLinearMin, kLinearMin};
  const auto add = [&](std::size_t l, std::size_t b) {
    const double g = gain_entry(gain, rxa, rya, len2a, c.sx[b], c.sy[b]);
    lo[l] = std::min(lo[l], g);
    hi[l] = std::max(hi[l], g);
    lane[l] += p[b] * g;
  };
  const auto run = [&](std::size_t b, std::size_t end) {
#if defined(__SSE2__)
    const __m128d vrx = _mm_set1_pd(rxa), vry = _mm_set1_pd(rya);
    const __m128d vlen2 = _mm_set1_pd(len2a);
    __m128d acc = _mm_loadu_pd(lane);
    __m128d vlo = _mm_loadu_pd(lo), vhi = _mm_loadu_pd(hi);
    for (; b + 2 <= end; b += 2) {
      const __m128d g = gain_pair(c, gain, vrx, vry, vlen2, b);
      vlo = _mm_min_pd(vlo, g);
      vhi = _mm_max_pd(vhi, g);
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(p + b), g));
    }
    _mm_storeu_pd(lane, acc);
    _mm_storeu_pd(lo, vlo);
    _mm_storeu_pd(hi, vhi);
#else
    for (; b + 2 <= end; b += 2) {
      add(0, b);
      add(1, b + 1);
    }
#endif
    if (b < end) add(0, b);
  };
  run(0, a);
  run(a + 1, c.k);
  in_range &= in_linear_range(std::min(lo[0], lo[1])) &
              in_linear_range(std::max(hi[0], hi[1]));
  return lane[0] + lane[1];
}

/// The fixed-power loads in log2 space: a log2 and an exp2 per entry, each
/// row's terms summed by log-sum-exp. Fills max_load and worst_link.
void log2_loads(const geom::LinkView& links, std::span<const std::size_t> set,
                const SinrParams& params, const PowerAssignment& power,
                FeasibilityReport& report) {
  const double log2_beta = std::log2(params.beta);
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
}

/// The same loads on linear values (k >= 2, no shared node): one gather,
/// one exp2 per link for p_b = 2^(log2 P_b - max log2 P), and
///   load_a = beta * (interference_row(a) / p_a) + noise_a
/// with noise_a = (beta * N / max P) * (l_a^alpha / p_a). Returns false,
/// with the report untouched, when a gain entry, p_b, a row sum, a noise
/// factor or a load leaves [kLinearMin, kLinearMax].
///
/// The rows stay on the calling thread. Split over util::parallel_for
/// (helpers asleep 0.2 or 2 ms before each call, as between a churn epoch's
/// oracle calls), sets of 96 to 1081 links from an oblivious n = 8192 plan
/// ran 0.91-1.21x the serial time on a 4-vCPU x86-64 host, never clearly
/// faster: a pass stores nothing, so a row costs about 3 ns per link and
/// the helpers took at most 8% of the rows.
bool linear_loads(const geom::LinkView& links,
                  std::span<const std::size_t> set, const SinrParams& params,
                  const PowerAssignment& power, FeasibilityReport& report) {
  const GainPower gain(params.alpha);
  if (gain.uses_pow()) return false;
  const std::size_t k = set.size();
  std::vector<double> p(k);
  double max_log2_power = -kInf;
  for (std::size_t a = 0; a < k; ++a) {
    p[a] = power.log2_power(set[a]);
    max_log2_power = std::max(max_log2_power, p[a]);
  }
  for (double& pa : p) {
    pa = std::exp2(pa - max_log2_power);
    if (!in_linear_range(pa)) return false;
  }
  double noise_scale = 0.0;
  if (params.noise > 0.0) {
    noise_scale = std::exp2(std::log2(params.beta) + std::log2(params.noise) -
                            max_log2_power);
    if (!in_linear_range(noise_scale)) return false;
  }
  const LinkColumns columns(links, set);
  double max_load = 0.0;
  std::size_t worst_link = k;
  for (std::size_t a = 0; a < k; ++a) {
    bool in_range = true;
    const double sum = interference_row(columns, gain, p.data(), a, in_range);
    double load = params.beta * (sum / p[a]);
    if (noise_scale > 0.0) {
      const double own = gain(columns.len2[a]);
      const double noise = noise_scale * (own / p[a]);
      in_range &= in_linear_range(own) & in_linear_range(noise);
      load += noise;
    }
    if (!(in_range & in_linear_range(sum) & in_linear_range(load))) {
      return false;
    }
    if (load > max_load) {
      max_load = load;
      worst_link = a;
    }
  }
  report.max_load = max_load;
  report.worst_link = worst_link;
  return true;
}

FeasibilityReport fixed_power_check(const geom::LinkView& links,
                                    std::span<const std::size_t> set,
                                    const SinrParams& params,
                                    const PowerAssignment& power,
                                    double tolerance, bool linear) {
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
  count_gain_entries(set.size());
  if (!(linear && set.size() >= 2 &&
        linear_loads(links, set, params, power, report))) {
    log2_loads(links, set, params, power, report);
  }
  report.feasible = report.max_load <= 1.0 + tolerance;
  return report;
}

}  // namespace

FeasibilityReport check_feasible(const geom::LinkView& links,
                                 std::span<const std::size_t> set,
                                 const SinrParams& params,
                                 const PowerAssignment& power,
                                 double tolerance) {
  return fixed_power_check(links, set, params, power, tolerance, true);
}

FeasibilityReport check_feasible_log2(const geom::LinkView& links,
                                      std::span<const std::size_t> set,
                                      const SinrParams& params,
                                      const PowerAssignment& power,
                                      double tolerance) {
  return fixed_power_check(links, set, params, power, tolerance, false);
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
  count_gain_entries(k);
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
  const LinkColumns columns(links, set);
  count_gain_entries(k);

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
