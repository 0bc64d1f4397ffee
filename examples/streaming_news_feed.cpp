// Streaming diversification of a live feed (paper §7.1 discusses sustaining
// Twitter-scale rates: the 2013 average was 5,700 tweets/s).
//
// A news aggregator wants to keep, at all times, a panel of k maximally
// different stories from a stream it sees exactly once and cannot store.
// The 1-pass streaming algorithm of Theorem 3 does this in memory
// independent of the stream length: SMM-EXT maintains the core-set online,
// and the panel is extracted on demand.

#include <cstdio>

#include "core/diversity.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "streaming/streaming_diversity.h"
#include "util/timer.h"

int main() {
  using namespace diverse;

  // The day's stream: 50k documents over a 5000-term vocabulary, 24 evolving
  // topics. Generated up front here, but consumed strictly one at a time.
  SparseTextOptions feed;
  feed.n = 50000;
  feed.vocab_size = 5000;
  feed.num_topics = 24;
  feed.seed = 99;
  PointSet stream = GenerateSparseTextDataset(feed);

  CosineMetric metric;
  const size_t k = 12;
  const size_t k_prime = 4 * k;

  StreamingDiversity panel(&metric, DiversityProblem::kRemoteClique, k,
                           k_prime);

  Timer timer;
  size_t processed = 0;
  for (const Point& story : stream) {
    panel.Update(story);
    ++processed;
    if (processed % 20000 == 0) {
      std::printf("... %zu stories ingested, %zu points in memory\n",
                  processed, panel.peak_memory_points());
    }
  }
  double ingest_seconds = timer.Seconds();

  StreamingResult result = panel.Finalize();
  std::printf("\nstream length:        %zu stories\n", processed);
  std::printf("ingest throughput:    %.0f stories/s\n",
              processed / ingest_seconds);
  std::printf("peak memory:          %zu points (independent of stream size)\n",
              result.peak_memory_points);
  std::printf("panel size:           %zu stories\n", result.solution.size());
  std::printf("panel diversity:      %.3f (remote-clique, cosine)\n",
              result.diversity);
  std::printf("avg pairwise angle:   %.3f rad\n",
              result.diversity /
                  DiversityTermCount(DiversityProblem::kRemoteClique, k));

  return 0;
}
