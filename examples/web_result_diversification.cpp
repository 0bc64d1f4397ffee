// Web-result diversification (paper §1: "after filtering and ranking for
// relevance, the output set is often too large to be presented to the user;
// a practical solution is to present a diverse subset of the results").
//
// We model a result set as bag-of-words documents under the cosine distance
// (the metric the paper uses for the musiXmatch corpus) and pick k results
// maximizing remote-clique — the sum of pairwise distances — so the user
// sees the variety of topics the query matched.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/sparse_text.h"

int main() {
  using namespace diverse;

  // A "query result set": 2000 documents over a 2000-term vocabulary with
  // 12 latent topics (the query matched several senses of the query terms).
  SparseTextOptions corpus;
  corpus.n = 2000;
  corpus.vocab_size = 2000;
  corpus.num_topics = 12;
  corpus.topic_fraction = 0.7;
  corpus.seed = 7;
  PointSet results = GenerateSparseTextDataset(corpus);

  CosineMetric metric;
  const size_t k = 10;

  // remote-clique: matching-based 2-approximation.
  std::vector<size_t> picked = SolveSequential(
      DiversityProblem::kRemoteClique, Dataset(results), metric, k);
  PointSet page;
  for (size_t idx : picked) page.push_back(results[idx]);

  double clique =
      EvaluateDiversity(DiversityProblem::kRemoteClique, page, metric);
  double pairs = DiversityTermCount(DiversityProblem::kRemoteClique, k);
  std::printf("picked %zu of %zu results\n", page.size(), results.size());
  std::printf("sum of pairwise cosine distances: %.3f\n", clique);
  std::printf("average pairwise distance: %.3f rad (pi/2 = orthogonal topics)\n",
              clique / pairs);

  // Contrast with plain relevance ranking: a similarity-ranked result list
  // fills the first page with near-duplicates of the best hit. Model it as
  // the k results most similar to the top result.
  std::vector<std::pair<double, size_t>> by_similarity;
  for (size_t i = 0; i < results.size(); ++i) {
    by_similarity.emplace_back(metric.Distance(results[0], results[i]), i);
  }
  std::sort(by_similarity.begin(), by_similarity.end());
  PointSet top_k;
  for (size_t i = 0; i < k; ++i) {
    top_k.push_back(results[by_similarity[i].second]);
  }
  double naive =
      EvaluateDiversity(DiversityProblem::kRemoteClique, top_k, metric);
  std::printf("similarity-ranked top-k (no diversification): %.3f (avg %.3f rad)\n",
              naive, naive / pairs);
  std::printf("diversification gain: %.2fx\n", clique / naive);
  return 0;
}
