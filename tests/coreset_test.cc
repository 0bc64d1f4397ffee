#include "core/coreset.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

TEST(GmmCoresetTest, SizeAndMembership) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/1);
  const Dataset data(pts);
  std::vector<size_t> c = GmmCoreset(data, m, 12);
  EXPECT_EQ(c.size(), 12u);
  for (size_t id : c) EXPECT_LT(id, pts.size());
  // The core-set is GMM's selection, in selection order.
  EXPECT_EQ(c, Gmm(data, m, 12).selected);
}

TEST(GmmExtCoresetTest, CentersPlusDelegates) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(200, 2, /*seed=*/2);
  size_t k_prime = 10, delegates = 3;
  std::vector<size_t> c = GmmExtCoreset(Dataset(pts), m, k_prime, delegates);
  EXPECT_GE(c.size(), k_prime);
  EXPECT_LE(c.size(), k_prime * (1 + delegates));
  // No duplicates.
  std::set<size_t> unique(c.begin(), c.end());
  EXPECT_EQ(unique.size(), c.size());
}

TEST(GmmExtCoresetTest, ZeroDelegatesEqualsPlainGmm) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(80, 2, /*seed=*/3);
  const Dataset data(pts);
  std::vector<size_t> plain = GmmCoreset(data, m, 9);
  std::vector<size_t> ext = GmmExtCoreset(data, m, 9, 0);
  ASSERT_EQ(plain.size(), ext.size());
  std::set<size_t> a(plain.begin(), plain.end());
  std::set<size_t> b(ext.begin(), ext.end());
  EXPECT_EQ(a, b);
}

TEST(GmmExtCoresetTest, FullDelegatesCoverEntireTinyInput) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/4);
  // k' = 5 clusters, up to 19 delegates each: every point must be included.
  std::vector<size_t> c = GmmExtCoreset(Dataset(pts), m, 5, pts.size() - 1);
  EXPECT_EQ(c.size(), pts.size());
}

TEST(GmmExtCoresetTest, DelegatesComeFromOwnCluster) {
  EuclideanMetric m;
  PointSet pts = GenerateGaussianBlobs(90, 3, 2, 0.01, /*seed=*/5);
  const Dataset data(pts);
  size_t k_prime = 3;
  std::vector<size_t> c = GmmExtCoreset(data, m, k_prime, 4);
  // With 3 tight blobs and k'=3, each point's nearest center is its blob
  // center; delegates follow their center in the output layout, so each
  // group of consecutive points must lie within a blob diameter.
  // Verify: all coreset points are within 0.2 of some center.
  std::vector<size_t> kernel = GmmCoreset(data, m, k_prime);
  for (size_t id : c) {
    double dist = 1e100;
    for (size_t center : kernel) {
      dist = std::min(dist, m.Distance(pts[id], pts[center]));
    }
    EXPECT_LT(dist, 0.2);
  }
}

// Algorithm 1 read literally: every cluster's full member list, then the
// center and the first `delegates` other members of each.
std::vector<size_t> GmmExtReference(const Dataset& data, const Metric& m,
                                    size_t k_prime, size_t delegates) {
  GmmResult gmm = Gmm(data, m, k_prime);
  std::vector<std::vector<size_t>> cluster(k_prime);
  for (size_t i = 0; i < data.size(); ++i) {
    cluster[gmm.assignment[i]].push_back(i);
  }
  std::vector<size_t> out;
  for (size_t j = 0; j < k_prime; ++j) {
    out.push_back(gmm.selected[j]);
    size_t taken = 0;
    for (size_t member : cluster[j]) {
      if (member == gmm.selected[j]) continue;
      if (taken++ == delegates) break;
      out.push_back(member);
    }
  }
  return out;
}

TEST(GmmExtCoresetTest, MatchesFullClusterListsExactly) {
  EuclideanMetric m;
  PointSet blobs = GenerateGaussianBlobs(600, 6, 2, 0.01, /*seed=*/7);
  // Duplicate-heavy: GMM selects repeated rows once every distance is 0,
  // and later copies of a center belong to an earlier cluster.
  PointSet dups(40, Point::Dense({1.0f, 2.0f}));
  dups[7] = Point::Dense({3.0f, 2.0f});
  for (const PointSet* pts : {&blobs, &dups}) {
    const Dataset data(*pts);
    for (size_t k_prime : {1, 4, 9}) {
      for (size_t delegates : {size_t{0}, size_t{1}, size_t{3}, size_t{50},
                               pts->size(), SIZE_MAX}) {
        EXPECT_EQ(GmmExtCoreset(data, m, k_prime, delegates),
                  GmmExtReference(data, m, k_prime, delegates))
            << "n " << pts->size() << ", k' " << k_prime << ", delegates "
            << delegates;
      }
    }
  }
}

TEST(GmmExtCoresetTest, KPrimeEqualsNIsIdentitylike) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(15, 2, /*seed=*/6);
  std::vector<size_t> c = GmmExtCoreset(Dataset(pts), m, pts.size(), 2);
  EXPECT_EQ(c.size(), pts.size());  // every point is its own center
}

}  // namespace
}  // namespace diverse
