#include "streaming/smm.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace internal_smm {

namespace {

// Offset of row i in a packed strict lower triangle (rows 0..i-1 hold
// 0 + 1 + ... + (i - 1) entries).
size_t TriangleRow(size_t i) { return i * (i - 1) / 2; }

// Fills `out` with the packed strict lower triangle of the rows of `data`:
// out[TriangleRow(i) + j] = Distance(data.point(i), data.point(j)) for
// j < i, the later row always the query. Blocked DistanceTile calls below
// the diagonal blocks and per-row prefix sweeps inside them, exactly
// n(n-1)/2 evaluations. It runs on the calling thread, like the rest of a
// streaming pass: the tiles are serial, and a prefix sweep spans fewer
// than kBlock rows, below DistanceToMany's parallel grain. A pool hand-off
// here would be the pass's only cross-thread wait, and it buys nothing at
// the usual sizes: at k' = 128 one diagonal block holds 8128 of the 8256
// evaluations.
void FillLowerTriangle(const Metric& metric, const Dataset& data,
                       std::vector<double>* out) {
  constexpr size_t kBlock = 128;
  const size_t n = data.size();
  out->resize(TriangleRow(n));
  double* table = out->data();
  std::vector<double> tile;
  for (size_t ib = 0; ib < n; ib += kBlock) {
    const size_t in = std::min(kBlock, n - ib);
    // A block left of the diagonal is always full.
    for (size_t jb = 0; jb < ib; jb += kBlock) {
      tile.resize(in * kBlock);
      metric.DistanceTile(data, ib, in, data, jb, kBlock, tile.data(), kBlock);
      for (size_t q = 0; q < in; ++q) {
        std::copy_n(tile.data() + q * kBlock, kBlock,
                    table + TriangleRow(ib + q) + jb);
      }
    }
    for (size_t i = ib + 1; i < ib + in; ++i) {
      metric.DistanceToMany(
          data.point(i), data, ib,
          std::span<double>(table + TriangleRow(i) + ib, i - ib));
    }
  }
}

// First row of `data` with Distance(query, row) <= threshold, or
// data.size() when none qualifies: 16-row DistanceToMany chunks, so a scan
// that finds a host early pays about one chunk. d[r] receives the distance
// to each row r evaluated, so a scan that finds no host fills all of d.
size_t FirstWithin(const Metric& metric, const Point& query,
                   const Dataset& data, double threshold,
                   std::span<double> d) {
  constexpr size_t kChunk = 16;
  const size_t n = data.size();
  for (size_t b = 0; b < n; b += kChunk) {
    const size_t len = std::min(kChunk, n - b);
    metric.DistanceToMany(query, data, b, d.subspan(b, len));
    for (size_t i = b; i < b + len; ++i) {
      if (d[i] <= threshold) return i;
    }
  }
  return n;
}

// The first strict argmin of Distance(query, row) over `data` (ties go to
// the smallest index) and its distance; +inf when no distance is below it.
// d receives every row's distance.
std::pair<size_t, double> Nearest(const Metric& metric, const Point& query,
                                  const Dataset& data, std::span<double> d) {
  metric.DistanceToMany(query, data, 0, d);
  std::pair<size_t, double> best{0, std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < d.size(); ++i) {
    if (d[i] < best.second) best = {i, d[i]};
  }
  return best;
}

}  // namespace

SmmEngine::SmmEngine(const Metric* metric, size_t k, size_t k_prime, Mode mode)
    : metric_(metric), k_(k), k_prime_(k_prime), mode_(mode) {
  DIVERSE_CHECK(metric != nullptr);
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_GE(k_prime, k);
}

size_t SmmEngine::SkipCoveredRows(const Dataset& data, size_t begin) {
  if (mode_ != Mode::kCentersOnly || initializing_) return 0;
  // The hinted center is the query, so a sparse center is scattered once
  // per run and a covered row costs one walk of its own terms.
  const size_t run = metric_->CoveredPrefix(centers_columnar_.point(hint_),
                                            data, begin, data.size(),
                                            4.0 * threshold_);
  points_processed_ += run;
  return run;
}

void SmmEngine::Update(const Point& p) {
  ++points_processed_;
  const size_t n = centers_.size();
  if (!initializing_) {
    // Update step of the current phase. Base SMM asks only "is some center
    // within 4 d_i?", so any scan order gives the same answer: it tries the
    // previous covered point's host with one exact evaluation, then one
    // early-exit FirstWithin scan whose host becomes the next hint (a
    // Dataset pass has already skipped the rows the hint covers, see
    // SkipCoveredRows). EXT/GEN need the host itself (it decides where
    // delegates and counts go): the nearest center, first strict argmin.
    // Either way the decision is the exact scalar scan's, and a point that
    // no center covers leaves its distance to every center in scan_.
    const double cover = 4.0 * threshold_;
    scan_.resize(n);
    if (mode_ == Mode::kCentersOnly) {
      double d = 0.0;
      metric_->DistanceToMany(p, centers_columnar_, hint_,
                              std::span<double>(&d, 1));
      if (d <= cover) return;
      size_t host = FirstWithin(*metric_, p, centers_columnar_, cover, scan_);
      if (host < n) {
        hint_ = host;
        return;
      }
    } else {
      const auto [nearest, dist] = Nearest(*metric_, p, centers_columnar_,
                                           scan_);
      if (dist <= cover) {
        Entry& host = centers_[nearest];
        if (mode_ == Mode::kDelegates && host.delegates.size() < k_) {
          host.delegates.push_back(p);
        } else if (mode_ == Mode::kCounts && host.count < k_) {
          ++host.count;
        }
        return;
      }
    }
    // p opens a new center: the scan is its row of the table.
    pairwise_.insert(pairwise_.end(), scan_.begin(), scan_.end());
  }
  Entry e;
  if (mode_ == Mode::kDelegates) e.delegates.push_back(p);
  centers_.push_back(std::move(e));
  centers_columnar_.Append(p);
  if (centers_.size() < k_prime_ + 1) return;
  if (initializing_) {
    // d_1 = min pairwise distance among the first k'+1 points, read off
    // the table that one tiled pass over the columnar centers fills.
    FillLowerTriangle(*metric_, centers_columnar_, &pairwise_);
    double d1 = std::numeric_limits<double>::infinity();
    for (double dist : pairwise_) d1 = std::min(d1, dist);
    threshold_ = d1;
    initializing_ = false;
  } else {
    threshold_ *= 2.0;
  }
  MergeUntilBelowCapacity();
}

void SmmEngine::MergeUntilBelowCapacity() {
  ++phases_;
  removed_.clear();
  for (;;) {
    MergeStep();
    if (centers_.size() <= k_prime_) return;
    // The independent set still overflows: the phase had an empty update
    // step; double the threshold and merge again. A zero threshold (possible
    // with duplicate points in the initial fill) cannot make progress by
    // doubling, so jump directly to the smallest positive separation.
    if (threshold_ > 0.0) {
      threshold_ *= 2.0;
    } else {
      double min_positive = std::numeric_limits<double>::infinity();
      for (double dist : pairwise_) {
        if (dist > 0.0) min_positive = std::min(min_positive, dist);
      }
      DIVERSE_CHECK_LT(min_positive,
                       std::numeric_limits<double>::infinity());
      threshold_ = min_positive;
    }
    ++phases_;
  }
}

void SmmEngine::MergeStep() {
  // Greedy maximal independent set of the graph with edges at distance
  // <= 2 d_i: scan centers in order; a center joins I unless an earlier
  // member of I is within 2 d_i, in which case it merges into that member
  // (the maximality witness), transferring delegates / counts. A center's
  // row of the table holds its distance to every earlier center, so the
  // membership test reads the kept members' columns in order and
  // evaluates nothing. The kept rows are then gathered once into the
  // post-merge centers_columnar_, the table keeps only their rows and
  // columns, and the update step's hint follows its center: to the kept
  // index it survives as, or to the host it merged into.
  const double radius = 2.0 * threshold_;
  std::vector<Entry> kept;
  std::vector<uint32_t> kept_rows;  // the index in T of each kept center
  kept.reserve(centers_.size());
  kept_rows.reserve(centers_.size());
  size_t hint = 0;
  for (size_t i = 0; i < centers_.size(); ++i) {
    const double* row = pairwise_.data() + TriangleRow(i);
    size_t host = 0;
    while (host < kept.size() && !(row[kept_rows[host]] <= radius)) ++host;
    if (i == hint_) hint = host;
    Entry& e = centers_[i];
    if (host == kept.size()) {
      kept_rows.push_back(static_cast<uint32_t>(i));
      kept.push_back(std::move(e));
      continue;
    }
    Entry& h = kept[host];
    switch (mode_) {
      case Mode::kCentersOnly:
        removed_.push_back(centers_columnar_.point(i));
        break;
      case Mode::kDelegates: {
        size_t room = k_ - h.delegates.size();
        size_t take = std::min(room, e.delegates.size());
        for (size_t t = 0; t < take; ++t) {
          h.delegates.push_back(std::move(e.delegates[t]));
        }
        break;
      }
      case Mode::kCounts:
        h.count += std::min(e.count, k_ - h.count);
        break;
    }
  }
  // Compacts the table in place. An entry's row and column indices only
  // shrink, so it moves to an offset no later than its own, and the
  // forward copy never reads an entry it has already overwritten.
  size_t at = 0;
  for (size_t a = 1; a < kept_rows.size(); ++a) {
    const double* row = pairwise_.data() + TriangleRow(kept_rows[a]);
    for (size_t b = 0; b < a; ++b) pairwise_[at++] = row[kept_rows[b]];
  }
  pairwise_.resize(at);
  Dataset kept_columnar;
  kept_columnar.AssignGatherColumnar(centers_columnar_, kept_rows);
  centers_ = std::move(kept);
  centers_columnar_ = std::move(kept_columnar);
  hint_ = hint;
}

size_t SmmEngine::StoredPoints() const {
  size_t n = 0;
  switch (mode_) {
    case Mode::kCentersOnly:
      n = centers_.size() + removed_.size();
      break;
    case Mode::kDelegates:
      for (const Entry& e : centers_) n += e.delegates.size();
      break;
    case Mode::kCounts:
      n = centers_.size();
      break;
  }
  return n;
}

PointSet SmmEngine::Centers() const {
  PointSet out;
  out.reserve(centers_columnar_.size());
  for (size_t i = 0; i < centers_columnar_.size(); ++i) {
    out.push_back(centers_columnar_.point(i));
  }
  return out;
}

PointSet SmmEngine::FinalizeCoreset() const {
  DIVERSE_CHECK(mode_ != Mode::kCounts);
  if (mode_ == Mode::kDelegates) {
    PointSet out;
    for (const Entry& e : centers_) {
      out.insert(out.end(), e.delegates.begin(), e.delegates.end());
    }
    return out;
  }
  PointSet out = Centers();
  // The paper's modification: if fewer than k centers survive the last
  // phase, pad with arbitrary points removed by its merge step
  // (|M| + |T| >= k'+1 >= k whenever the stream had that many points).
  size_t i = 0;
  while (out.size() < k_ && i < removed_.size()) {
    out.push_back(removed_[i++]);
  }
  return out;
}

GeneralizedCoreset SmmEngine::FinalizeCounts() const {
  DIVERSE_CHECK(mode_ == Mode::kCounts);
  GeneralizedCoreset out;
  for (size_t i = 0; i < centers_.size(); ++i) {
    out.Add(centers_columnar_.point(i), centers_[i].count);
  }
  return out;
}

}  // namespace internal_smm
}  // namespace diverse
