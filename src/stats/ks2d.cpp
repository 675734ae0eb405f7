#include "stats/ks2d.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "exec/thread_pool.h"
#include "stats/summary.h"

namespace esharing::stats {

namespace {

using geo::Point;

void require_samples(const std::vector<Point>& a, const std::vector<Point>& b,
                     const char* who) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty sample");
  }
}

/// Fenwick (binary indexed) tree over ranks, for prefix counts.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t rank) {  // 0-based rank
    for (std::size_t i = rank + 1; i < tree_.size(); i += i & (~i + 1)) {
      ++tree_[i];
    }
  }

  /// Number of inserted ranks <= rank (0-based, inclusive).
  [[nodiscard]] std::size_t prefix(std::size_t rank) const {
    std::size_t sum = 0;
    for (std::size_t i = rank + 1; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

 private:
  std::vector<std::size_t> tree_;
};

/// Max quadrant-fraction difference at origin (X, Y). Quadrants follow the
/// Numerical-Recipes convention (<= vs >), which partitions the plane.
double origin_diff(std::size_t a_ll, std::size_t a_l, std::size_t a_b,
                   std::size_t na, std::size_t b_ll, std::size_t b_l,
                   std::size_t b_b, std::size_t nb) {
  const auto frac = [](std::size_t c, std::size_t n) {
    return static_cast<double>(c) / static_cast<double>(n);
  };
  const double d_ll = std::abs(frac(a_ll, na) - frac(b_ll, nb));
  const double d_lg = std::abs(frac(a_l - a_ll, na) - frac(b_l - b_ll, nb));
  const double d_gl = std::abs(frac(a_b - a_ll, na) - frac(b_b - b_ll, nb));
  const double d_gg = std::abs(frac(na - a_l - a_b + a_ll, na) -
                               frac(nb - b_l - b_b + b_ll, nb));
  return std::max({d_ll, d_lg, d_gl, d_gg});
}

/// Quadrant counts of `pts` around origin `o` by direct scan.
struct QuadCounts {
  std::size_t ll{0};  // x<=X, y<=Y
  std::size_t l{0};   // x<=X
  std::size_t b{0};   // y<=Y
};

QuadCounts quad_counts(const std::vector<Point>& pts, Point o) {
  QuadCounts q;
  for (Point p : pts) {
    const bool left = p.x <= o.x;
    const bool below = p.y <= o.y;
    q.l += left ? 1 : 0;
    q.b += below ? 1 : 0;
    q.ll += (left && below) ? 1 : 0;
  }
  return q;
}

std::size_t rank_of(const std::vector<double>& sorted_unique, double v) {
  // number of elements <= v, as a 0-based "inclusive rank + 1" count
  return static_cast<std::size_t>(
      std::upper_bound(sorted_unique.begin(), sorted_unique.end(), v) -
      sorted_unique.begin());
}

}  // namespace

double peacock_statistic(const std::vector<Point>& a,
                         const std::vector<Point>& b) {
  require_samples(a, b, "peacock_statistic");

  // Candidate origins: all pairings (x_i, y_j) of combined coordinates.
  std::vector<double> xs, ys;
  xs.reserve(a.size() + b.size());
  ys.reserve(a.size() + b.size());
  for (Point p : a) { xs.push_back(p.x); ys.push_back(p.y); }
  for (Point p : b) { xs.push_back(p.x); ys.push_back(p.y); }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Sort each sample by x so points can be swept into a Fenwick tree over
  // y-rank as the origin's X advances.
  auto by_x = [](Point p, Point q) { return p.x < q.x; };
  std::vector<Point> sa = a, sb = b;
  std::sort(sa.begin(), sa.end(), by_x);
  std::sort(sb.begin(), sb.end(), by_x);

  // Per-sample sorted y arrays for the marginal counts #(y <= Y).
  std::vector<double> ay, by;
  ay.reserve(a.size());
  by.reserve(b.size());
  for (Point p : a) ay.push_back(p.y);
  for (Point p : b) by.push_back(p.y);
  std::sort(ay.begin(), ay.end());
  std::sort(by.begin(), by.end());

  Fenwick fa(ys.size()), fb(ys.size());
  std::size_t ia = 0, ib = 0;
  double best = 0.0;
  for (double X : xs) {
    while (ia < sa.size() && sa[ia].x <= X) {
      fa.add(rank_of(ys, sa[ia].y) - 1);
      ++ia;
    }
    while (ib < sb.size() && sb[ib].x <= X) {
      fb.add(rank_of(ys, sb[ib].y) - 1);
      ++ib;
    }
    for (double Y : ys) {
      const std::size_t yr = rank_of(ys, Y);
      const std::size_t a_ll = fa.prefix(yr - 1);
      const std::size_t b_ll = fb.prefix(yr - 1);
      const std::size_t a_b = rank_of(ay, Y);
      const std::size_t b_b = rank_of(by, Y);
      best = std::max(best, origin_diff(a_ll, ia, a_b, a.size(), b_ll, ib,
                                        b_b, b.size()));
    }
  }
  return best;
}

double fasano_franceschini_statistic(const std::vector<Point>& a,
                                     const std::vector<Point>& b) {
  require_samples(a, b, "fasano_franceschini_statistic");
  // Offline dominance counting: the same three integer counts per origin as
  // the per-origin scan (reference::fasano_franceschini_scan), so
  // origin_diff sees the same inputs and D is bit-identical. Pool index i <
  // n is a[i], otherwise b[i - n]. Serial: callers parallelise across
  // shards, and each check is O(N log N) in N = n + m.
  const std::size_t n = a.size();
  const std::size_t total = n + b.size();
  const auto at = [&](std::size_t i) { return i < n ? a[i] : b[i - n]; };

  // Dense 1-based ranks; tied values (including -0.0 == 0.0) share a rank
  // and NaN gets rank 0, which is <= nothing — the scan's `<=` semantics.
  struct Keyed {
    double v;
    std::size_t i;
  };
  std::vector<Keyed> by_x, by_y;
  by_x.reserve(total);
  by_y.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const Point p = at(i);
    if (!std::isnan(p.x)) by_x.push_back({p.x, i});
    if (!std::isnan(p.y)) by_y.push_back({p.y, i});
  }
  const auto less = [](const Keyed& l, const Keyed& r) { return l.v < r.v; };
  std::sort(by_x.begin(), by_x.end(), less);
  std::sort(by_y.begin(), by_y.end(), less);

  // y-ranks, and per-sample counts #(y <= Y) by rank.
  std::vector<std::size_t> y_rank(total, 0);
  std::vector<std::size_t> below_a(1, 0), below_b(1, 0);
  for (std::size_t k = 0; k < by_y.size(); ++k) {
    if (k == 0 || by_y[k].v != by_y[k - 1].v) {
      below_a.push_back(below_a.back());
      below_b.push_back(below_b.back());
    }
    y_rank[by_y[k].i] = below_a.size() - 1;
    ++(by_y[k].i < n ? below_a : below_b).back();
  }

  Fenwick fa(below_a.size()), fb(below_b.size());  // #(x <= X, y <= Y)
  std::size_t left_a = 0, left_b = 0;               // #(x <= X)
  double best_a = 0.0, best_b = 0.0;
  const auto visit = [&](std::size_t i) {
    const std::size_t yr = y_rank[i];
    const std::size_t a_ll = yr == 0 ? 0 : fa.prefix(yr - 1);
    const std::size_t b_ll = yr == 0 ? 0 : fb.prefix(yr - 1);
    double& best = i < n ? best_a : best_b;
    best = std::max(best, origin_diff(a_ll, left_a, below_a[yr], n, b_ll,
                                      left_b, below_b[yr], b.size()));
  };
  // NaN-x origins have nothing to their left.
  for (std::size_t i = 0; i < total; ++i) {
    if (std::isnan(at(i).x)) visit(i);
  }
  // Insert a whole x tie group before querying any origin in it.
  for (std::size_t lo = 0, hi = 0; lo < by_x.size(); lo = hi) {
    while (hi < by_x.size() && by_x[hi].v == by_x[lo].v) {
      const std::size_t i = by_x[hi].i;
      if (y_rank[i] > 0) (i < n ? fa : fb).add(y_rank[i] - 1);
      ++(i < n ? left_a : left_b);
      ++hi;
    }
    for (std::size_t k = lo; k < hi; ++k) visit(by_x[k].i);
  }
  return (best_a + best_b) / 2.0;
}

namespace reference {

double fasano_franceschini_scan(const std::vector<Point>& a,
                                const std::vector<Point>& b) {
  require_samples(a, b, "fasano_franceschini_scan");
  // Origins are independent and the reduction is an exact max (the same
  // double wins under any partition), so the per-origin scans fan out on
  // the exec pool. Each origin costs O(|a|+|b|), so a small fixed grain
  // load-balances without claim overhead.
  const auto max_over = [&](const std::vector<Point>& origins) {
    return exec::parallel_reduce<double>(
        origins.size(), /*grain=*/16, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double best = 0.0;
          for (std::size_t k = begin; k < end; ++k) {
            const Point o = origins[k];
            const QuadCounts qa = quad_counts(a, o);
            const QuadCounts qb = quad_counts(b, o);
            best = std::max(best, origin_diff(qa.ll, qa.l, qa.b, a.size(),
                                              qb.ll, qb.l, qb.b, b.size()));
          }
          return best;
        },
        [](double acc, double v) { return std::max(acc, v); });
  };
  return (max_over(a) + max_over(b)) / 2.0;
}

}  // namespace reference

double ks_tail_probability(double lambda) {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

Ks2dResult ks2d_test(const std::vector<Point>& a, const std::vector<Point>& b,
                     std::size_t peacock_limit) {
  require_samples(a, b, "ks2d_test");
  const double d = (a.size() + b.size() <= peacock_limit)
                       ? peacock_statistic(a, b)
                       : fasano_franceschini_statistic(a, b);

  // Significance approximation following Press et al. (ks2d2s): effective
  // sample size with a coordinate-correlation correction.
  const auto split = [](const std::vector<Point>& pts) {
    std::vector<double> x, y;
    x.reserve(pts.size());
    y.reserve(pts.size());
    for (Point p : pts) { x.push_back(p.x); y.push_back(p.y); }
    return std::pair{std::move(x), std::move(y)};
  };
  double r1 = 0.0, r2 = 0.0;
  if (a.size() >= 2) {
    auto [x, y] = split(a);
    r1 = pearson(x, y);
  }
  if (b.size() >= 2) {
    auto [x, y] = split(b);
    r2 = pearson(x, y);
  }
  const double n_eff = static_cast<double>(a.size()) *
                       static_cast<double>(b.size()) /
                       static_cast<double>(a.size() + b.size());
  const double sqn = std::sqrt(n_eff);
  const double rr = std::sqrt(std::max(0.0, 1.0 - 0.5 * (r1 * r1 + r2 * r2)));
  const double lambda = sqn * d / (1.0 + rr * (0.25 - 0.75 / sqn));
  return {d, ks_tail_probability(lambda), ks_similarity_percent(d)};
}

}  // namespace esharing::stats
