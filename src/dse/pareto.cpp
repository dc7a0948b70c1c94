#include "dse/pareto.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace wsnex::dse {

bool dominates(const Objectives& a, const Objectives& b) {
  assert(a.size() == b.size());
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

namespace detail {
namespace {

/// The front a point joins: the first of `fronts_used` none of whose
/// members dominates it. "Some member of front f dominates p" holds for
/// every front before one where it holds (a member of front f was placed
/// there because each earlier front held a member dominating it, and
/// dominance is transitive), so a binary search over the fronts finds
/// the same front as scanning them in order (ENS-BS rather than ENS-SS).
template <typename DominatedBy>
std::size_t first_front_not_dominating(std::size_t fronts_used,
                                       const DominatedBy& dominated_by) {
  std::size_t lo = 0, hi = fronts_used;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (dominated_by(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void non_dominated_fronts_flat(const double* flat, std::size_t n,
                               std::size_t m, FrontScratch& scratch,
                               std::vector<std::size_t>& front) {
  front.assign(n, 0);
  if (n == 0) return;
  if (m == 0) return;  // zero-arity points are all equal: one shared front

  // ENS (Zhang et al. 2015, "efficient non-dominated sort"): process
  // points in lexicographic order, so a point can only be dominated by
  // points already placed. For each point, find the first existing front
  // none of whose members dominates it, by binary search over the fronts
  // (ENS-BS, see first_front_not_dominating; members are scanned
  // newest-first — lexicographically close members are the most
  // likely dominators, giving the early exit the O(MN^2) worst case
  // rarely pays). Front indices are a well-defined property of the point
  // set, so the result is identical to the classic Deb peeling.
  //
  // Carry the first three objectives next to the index: nearly every
  // comparison resolves inside the key without touching the point
  // matrix, and the comparisons (hence the permutation) are exactly
  // those of a lexicographic sort over the full rows. The processing
  // order among exactly-equal rows is irrelevant (they share a front
  // either way).
  std::vector<FrontScratch::LexKey>& order = scratch.order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = flat + i * m;
    order[i] = {{p[0], m > 1 ? p[1] : 0.0, m > 2 ? p[2] : 0.0},
                static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [flat, m](const FrontScratch::LexKey& a,
                      const FrontScratch::LexKey& b) {
              for (std::size_t k = 0; k < 3; ++k) {
                if (a.head[k] != b.head[k]) return a.head[k] < b.head[k];
              }
              const double* pa = flat + a.index * m;
              const double* pb = flat + b.index * m;
              for (std::size_t k = 3; k < m; ++k) {
                if (pa[k] != pb[k]) return pa[k] < pb[k];
              }
              return a.index < b.index;
            });

  if (m == 3) {
    // Three-objective fast path. Every already-placed point q satisfies
    // q0 <= p0 (lexicographic processing), so "some member of front F
    // dominates p" collapses to a 2D query against F's staircase of
    // minimal (o1, o2) corners: the candidate corner is the one with the
    // largest o1 <= p1 (binary search; its o2 is the smallest among
    // eligible corners), and p is dominated iff that corner beats
    // (p1, p2) with the usual strictness rule — full (o1, o2) ties fall
    // back to the corner's smallest o0. This replaces the linear member
    // scan (quadratic once the population converges onto few fronts)
    // with an O(log |front|) probe.
    std::size_t fronts_used = 0;
    const FrontScratch::LexKey* prev = nullptr;
    for (const FrontScratch::LexKey& key : order) {
      const std::size_t idx = key.index;
      const double* p = key.head;
      // Equal rows are adjacent in the order. A repeat of the previous
      // point has the same dominators, so it joins the same front, whose
      // staircase already holds its corner: nothing to search or merge.
      // (Converged populations are full of repeats.)
      if (prev != nullptr && p[0] == prev->head[0] &&
          p[1] == prev->head[1] && p[2] == prev->head[2]) {
        front[idx] = front[prev->index];
        continue;
      }
      prev = &key;
      const auto dominated_by = [&](std::size_t f) {
        const std::vector<FrontScratch::StairStep>& stairs =
            scratch.staircases[f];
        // Largest o1 <= p1.
        std::size_t lo = 0, hi = stairs.size();
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (stairs[mid].o1 <= p[1]) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (lo == 0) return false;  // no corner fits in o1
        const FrontScratch::StairStep& s = stairs[lo - 1];
        return s.o2 < p[2] ||
               (s.o2 == p[2] && (s.o1 < p[1] || s.o0_min < p[0]));
      };
      const std::size_t f = first_front_not_dominating(fronts_used,
                                                       dominated_by);
      if (f == fronts_used) {
        if (scratch.staircases.size() == fronts_used) {
          scratch.staircases.emplace_back();
        }
        scratch.staircases[fronts_used].clear();
        ++fronts_used;
      }
      // Merge p's corner into the staircase: corners it covers
      // (o1 >= p1 and o2 >= p2) form a contiguous run starting at the
      // first o1 >= p1; an exactly-equal corner already carries an
      // o0_min <= p0 (lex order), so nothing changes.
      std::vector<FrontScratch::StairStep>& stairs = scratch.staircases[f];
      std::size_t lo = 0, hi = stairs.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (stairs[mid].o1 < p[1]) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (!(lo < stairs.size() && stairs[lo].o1 == p[1] &&
            stairs[lo].o2 == p[2])) {
        std::size_t last = lo;
        while (last < stairs.size() && stairs[last].o2 >= p[2]) ++last;
        if (last == lo) {
          stairs.insert(stairs.begin() + static_cast<std::ptrdiff_t>(lo),
                        {p[1], p[2], p[0]});
        } else {
          stairs[lo] = {p[1], p[2], p[0]};
          stairs.erase(stairs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                       stairs.begin() + static_cast<std::ptrdiff_t>(last));
        }
      }
      front[idx] = f;
    }
    return;
  }

  std::size_t fronts_used = 0;
  const double* prev = nullptr;
  for (const FrontScratch::LexKey& key : order) {
    const std::size_t idx = key.index;
    const double* p = flat + idx * m;
    // A repeat of the previous point joins its front (see above).
    if (prev != nullptr && std::equal(p, p + m, prev)) {
      front[idx] = front[(prev - flat) / m];
      continue;
    }
    prev = p;
    const auto dominated_by = [&](std::size_t f) {
      const std::vector<std::uint32_t>& members = scratch.front_members[f];
      for (std::size_t k = members.size(); k-- > 0;) {
        if (dominates_row(flat + members[k] * m, p, m)) return true;
      }
      return false;
    };
    const std::size_t f = first_front_not_dominating(fronts_used,
                                                     dominated_by);
    if (f == fronts_used) {
      if (scratch.front_members.size() == fronts_used) {
        scratch.front_members.emplace_back();
      }
      scratch.front_members[fronts_used].clear();
      ++fronts_used;
    }
    scratch.front_members[f].push_back(static_cast<std::uint32_t>(idx));
    front[idx] = f;
  }
}

}  // namespace detail

std::vector<std::size_t> non_dominated_fronts(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  std::vector<std::size_t> front(n, 0);
  if (n == 0) return front;
  const std::size_t m = points[0].size();
  std::vector<double> flat(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    assert(points[i].size() == m);
    std::copy(points[i].begin(), points[i].end(), flat.begin() + i * m);
  }
  detail::FrontScratch scratch;
  detail::non_dominated_fronts_flat(flat.data(), n, m, scratch, front);
  return front;
}

namespace detail {

void crowding_distances_flat(const double* vals, std::size_t n,
                             std::size_t m,
                             std::vector<CrowdingKey>& order_scratch,
                             std::vector<double>& out) {
  out.assign(n, 0.0);
  if (n == 0) return;
  order_scratch.resize(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    // Sorting (value, index) pairs by value makes the same comparisons as
    // sorting indices by looked-up value, so the permutation (ties
    // included) is the same; the sweep then reads values from the keys.
    for (std::size_t i = 0; i < n; ++i) {
      order_scratch[i] = {vals[i * m + obj], static_cast<std::uint32_t>(i)};
    }
    std::sort(order_scratch.begin(), order_scratch.end(),
              [](const CrowdingKey& a, const CrowdingKey& b) {
                return a.value < b.value;
              });
    const double lo = order_scratch.front().value;
    const double hi = order_scratch.back().value;
    out[order_scratch.front().index] = std::numeric_limits<double>::infinity();
    out[order_scratch.back().index] = std::numeric_limits<double>::infinity();
    if (hi == lo) continue;
    for (std::size_t k = 1; k + 1 < n; ++k) {
      out[order_scratch[k].index] +=
          (order_scratch[k + 1].value - order_scratch[k - 1].value) / (hi - lo);
    }
  }
}

}  // namespace detail

std::vector<double> crowding_distances(const std::vector<Objectives>& front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  const std::size_t m = front[0].size();
  std::vector<double> flat(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    assert(front[i].size() == m);
    std::copy(front[i].begin(), front[i].end(), flat.begin() + i * m);
  }
  std::vector<detail::CrowdingKey> order;
  detail::crowding_distances_flat(flat.data(), n, m, order, distance);
  return distance;
}

bool ParetoArchive::insert(Genome genome, Objectives objectives) {
  const std::span<const double> view(objectives);
  // Delegating would copy; reuse the already-materialized vector instead.
  if (!scan_and_evict(view)) return false;
  flat_.insert(flat_.end(), objectives.begin(), objectives.end());
  entries_.push_back({std::move(genome), std::move(objectives)});
  ++revision_;
  return true;
}

bool ParetoArchive::insert(const Genome& genome,
                           std::span<const double> objectives) {
  if (!scan_and_evict(objectives)) return false;
  flat_.insert(flat_.end(), objectives.begin(), objectives.end());
  entries_.push_back(
      {genome, Objectives(objectives.begin(), objectives.end())});
  ++revision_;
  return true;
}

bool ParetoArchive::scan_and_evict(std::span<const double> objectives) {
  const std::size_t m = objectives.size();
  if (entries_.empty()) arity_ = m;
  assert(m == arity_ && "ParetoArchive: mixed objective arity");

  // Single pass: each member is compared against the candidate once with
  // a combined check; members the candidate dominates are evicted by
  // swapping the last entry into the slot. A member that dominates (or
  // equals) the candidate cannot coexist with members the candidate
  // dominates — the archive is mutually non-dominated and dominance is
  // transitive — so rejection can only happen before any eviction, and
  // both the accept/reject decision and the surviving member set are
  // independent of the scan order. The scan runs newest-first: late
  // arrivals sit near the current front and reject dominated candidates
  // (the common case) after the fewest comparisons. The three-objective
  // fast path is branchless.
  const double* c = objectives.data();
  // Rejection fast path: consecutive DSE candidates tend to be dominated
  // by the same elite member, so probe the member that rejected the last
  // candidate first (scan order does not affect the outcome).
  if (last_rejector_ < entries_.size()) {
    const double* e = flat_.data() + last_rejector_ * m;
    bool e_worse;
    if (m == 3) {
      e_worse = (e[0] > c[0]) | (e[1] > c[1]) | (e[2] > c[2]);
    } else {
      e_worse = false;
      for (std::size_t k = 0; k < m; ++k) e_worse |= e[k] > c[k];
    }
    if (!e_worse) return false;
  }
  std::size_t i = entries_.size();
  while (i-- > 0) {
    const double* e = flat_.data() + i * m;
    bool e_worse;  // any e[k] > candidate[k]
    bool c_worse;  // any candidate[k] > e[k]
    if (m == 3) {
      e_worse = (e[0] > c[0]) | (e[1] > c[1]) | (e[2] > c[2]);
      c_worse = (c[0] > e[0]) | (c[1] > e[1]) | (c[2] > e[2]);
    } else {
      e_worse = c_worse = false;
      for (std::size_t k = 0; k < m; ++k) {
        e_worse |= e[k] > c[k];
        c_worse |= c[k] > e[k];
      }
    }
    if (!e_worse) {
      last_rejector_ = i;  // member equals or dominates the candidate
      return false;
    }
    if (!c_worse) {
      // Candidate dominates the member: swap-erase eviction. The entry
      // swapped in comes from the tail, which this backward scan has
      // already examined — no re-check needed.
      const std::size_t last = entries_.size() - 1;
      if (i != last) {
        entries_[i] = std::move(entries_[last]);
        std::copy(flat_.begin() + last * m, flat_.begin() + (last + 1) * m,
                  flat_.begin() + i * m);
      }
      entries_.pop_back();
      flat_.resize(last * m);
    }
  }
  return true;
}

bool ParetoArchive::covered(const Objectives& objectives) const {
  const std::size_t m = objectives.size();
  assert(entries_.empty() || m == arity_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double* e = flat_.data() + i * m;
    bool e_worse = false;
    for (std::size_t k = 0; k < m; ++k) {
      if (e[k] > objectives[k]) {
        e_worse = true;
        break;
      }
    }
    if (!e_worse) return true;  // member equals or dominates `objectives`
  }
  return false;
}

bool same_entries(const ParetoArchive& a, const ParetoArchive& b) {
  if (a.size() != b.size()) return false;
  auto sorted = [](const ParetoArchive& archive) {
    std::vector<ArchiveEntry> out = archive.entries();
    std::sort(out.begin(), out.end(),
              [](const ArchiveEntry& x, const ArchiveEntry& y) {
                if (x.objectives != y.objectives) {
                  return x.objectives < y.objectives;
                }
                return x.genome < y.genome;
              });
    return out;
  };
  const std::vector<ArchiveEntry> sa = sorted(a);
  const std::vector<ArchiveEntry> sb = sorted(b);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].genome != sb[i].genome ||
        sa[i].objectives != sb[i].objectives) {
      return false;
    }
  }
  return true;
}

double coverage_fraction(const std::vector<Objectives>& candidate,
                         const std::vector<Objectives>& reference) {
  if (reference.empty()) return 0.0;
  std::size_t covered = 0;
  for (const Objectives& r : reference) {
    for (const Objectives& c : candidate) {
      if (c == r || dominates(c, r)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(reference.size());
}

namespace {

/// 2-D hypervolume by sweeping the sorted front.
double hypervolume_2d(std::vector<Objectives> front, const Objectives& ref) {
  std::sort(front.begin(), front.end(),
            [](const Objectives& a, const Objectives& b) {
              return a[0] < b[0];
            });
  double volume = 0.0;
  double best_y = ref[1];
  for (const Objectives& p : front) {
    if (p[0] >= ref[0] || p[1] >= best_y) continue;
    volume += (ref[0] - p[0]) * (best_y - p[1]);
    best_y = p[1];
  }
  return volume;
}

/// Dominated area of the staircase (xs ascending, ys strictly descending)
/// w.r.t. the upper-right corner (ref_x, ref_y).
double staircase_area(const std::vector<double>& xs,
                      const std::vector<double>& ys, double ref_x,
                      double ref_y) {
  double area = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x_next = i + 1 < xs.size() ? xs[i + 1] : ref_x;
    area += (x_next - xs[i]) * (ref_y - ys[i]);
  }
  return area;
}

/// Inserts (x, y) into the staircase unless a step already dominates it;
/// evicts steps the new point dominates. Returns true when the staircase
/// changed (so callers can skip the area recompute otherwise).
bool staircase_insert(std::vector<double>& xs, std::vector<double>& ys,
                      double x, double y) {
  // Steps with step_x <= x sit before upper_bound(x); the last of them has
  // the smallest y among them (ys is descending), so it alone decides
  // whether the new point is dominated.
  const auto ub = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t before = static_cast<std::size_t>(ub - xs.begin());
  if (before > 0 && ys[before - 1] <= y) return false;

  // Steps dominated by (x, y) — step_x >= x and step_y >= y — form a
  // contiguous run starting at lower_bound(x).
  const auto lb = std::lower_bound(xs.begin(), xs.end(), x);
  const std::size_t at = static_cast<std::size_t>(lb - xs.begin());
  std::size_t end = at;
  while (end < xs.size() && ys[end] >= y) ++end;
  xs.erase(xs.begin() + static_cast<std::ptrdiff_t>(at),
           xs.begin() + static_cast<std::ptrdiff_t>(end));
  ys.erase(ys.begin() + static_cast<std::ptrdiff_t>(at),
           ys.begin() + static_cast<std::ptrdiff_t>(end));
  xs.insert(xs.begin() + static_cast<std::ptrdiff_t>(at), x);
  ys.insert(ys.begin() + static_cast<std::ptrdiff_t>(at), y);
  return true;
}

}  // namespace

double hypervolume3_flat(const double* flat, std::size_t n, std::size_t stride,
                         const double* ref, Hypervolume3Scratch& scratch) {
  if (stride < 3) throw std::invalid_argument("hypervolume3_flat: stride < 3");
  std::vector<std::uint32_t>& order = scratch.order;
  order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = flat + i * stride;
    if (row[0] < ref[0] && row[1] < ref[1] && row[2] < ref[2]) {
      order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (order.empty()) return 0.0;
  std::sort(order.begin(), order.end(),
            [flat, stride](std::uint32_t a, std::uint32_t b) {
              const double za = flat[a * stride + 2];
              const double zb = flat[b * stride + 2];
              if (za != zb) return za < zb;
              return a < b;  // deterministic tie-break
            });

  // Sweep ascending z, maintaining the (o0, o1) dominance staircase of the
  // points seen so far. Between consecutive z values the dominated area is
  // constant, so each distinct level contributes area * dz.
  std::vector<double>& xs = scratch.stair_x;
  std::vector<double>& ys = scratch.stair_y;
  xs.clear();
  ys.clear();
  double volume = 0.0;
  double area = 0.0;
  double z_prev = flat[order.front() * stride + 2];
  for (const std::uint32_t idx : order) {
    const double* row = flat + idx * stride;
    const double z = row[2];
    if (z > z_prev) {
      volume += area * (z - z_prev);
      z_prev = z;
    }
    if (staircase_insert(xs, ys, row[0], row[1])) {
      area = staircase_area(xs, ys, ref[0], ref[1]);
    }
  }
  volume += area * (ref[2] - z_prev);
  return volume;
}

double hypervolume(const std::vector<Objectives>& front,
                   const Objectives& ref) {
  if (front.empty()) return 0.0;
  const std::size_t m = ref.size();
  for (const Objectives& p : front) {
    if (p.size() != m) throw std::invalid_argument("hypervolume: dim mismatch");
  }
  if (m == 2) return hypervolume_2d(front, ref);
  if (m != 3) {
    throw std::invalid_argument("hypervolume: only 2 or 3 objectives");
  }
  std::vector<double> flat;
  flat.reserve(front.size() * 3);
  for (const Objectives& p : front) {
    flat.insert(flat.end(), p.begin(), p.end());
  }
  Hypervolume3Scratch scratch;
  return hypervolume3_flat(flat.data(), front.size(), 3, ref.data(), scratch);
}

double hypervolume(const ParetoArchive& archive,
                   const Objectives& reference_point) {
  if (archive.empty()) return 0.0;
  if (reference_point.size() != 3 || archive.arity() != 3) {
    throw std::invalid_argument(
        "hypervolume(archive): requires 3-objective archive and reference");
  }
  Hypervolume3Scratch scratch;
  return hypervolume3_flat(archive.objectives_flat().data(), archive.size(), 3,
                           reference_point.data(), scratch);
}

}  // namespace wsnex::dse
