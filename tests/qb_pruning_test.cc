// Q_b queue ordering (core/query_workspace.h).
//
// The bucketed proposed-discipline queue claims the IDENTICAL total order as
// a flat comparator-based queue over QbLess — including the signed-zero and
// equal-key edge cases the raw-bit SlimLess compare is sensitive to — so the
// headline test drives randomized interleaved push/pop traffic against a
// std::set reference model ordered by QbLess itself.

#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "util/rng.h"

namespace skysr {
namespace {

// ---------------------------------------------------------------------------
// QbQueue: bucketed vs flat pop-order equivalence.

// Reference model: QbLess is a total order once node ids are distinct, so a
// std::set ordered by it pops (begin, erase) in exactly the sequence the
// queue must reproduce.
using QbModel = std::set<QbEntry, QbLess>;

// Keys drawn from a small pool force deep ties (equal semantic AND length,
// distinguished only by node id) and include both zeros: -0.0 == 0.0 under
// QbLess, so the bucketed queue's bit-pattern heaps must not let the sign
// bit reorder it.
double PickKey(Rng& rng) {
  static constexpr double kPool[] = {0.0,  -0.0, 0.125, 0.125, 0.5,
                                     0.75, 1.0,  1.5,   2.0};
  return kPool[rng.UniformU64(std::size(kPool))];
}

TEST(QbQueueTest, BucketedMatchesFlatReferenceOrder) {
  Rng rng(0x9b0);
  for (int round = 0; round < 50; ++round) {
    const int k = static_cast<int>(rng.UniformInt(2, 6));
    QbQueue queue;
    queue.Reset(QueueDiscipline::kProposed, k);
    QbModel model{QbLess{QueueDiscipline::kProposed}};
    int32_t next_node = 0;

    const auto pop_and_compare = [&]() {
      ASSERT_FALSE(model.empty());
      const QbEntry want = *model.begin();
      model.erase(model.begin());
      const QbEntry got = queue.pop();
      // Node identity is the real order check (every entry is unique); the
      // key comparisons use ==, under which the queue's normalized +0.0
      // matches a -0.0 pushed by the caller.
      ASSERT_EQ(got.node, want.node);
      ASSERT_EQ(got.size, want.size);
      ASSERT_EQ(got.semantic, want.semantic);
      ASSERT_EQ(got.length, want.length);
    };

    for (int op = 0; op < 400; ++op) {
      if (model.empty() || rng.Bernoulli(0.6)) {
        const QbEntry e{next_node++,
                        static_cast<int32_t>(rng.UniformInt(1, k - 1)),
                        PickKey(rng), PickKey(rng)};
        queue.push(e);
        model.insert(e);
      } else {
        pop_and_compare();
      }
    }
    while (!model.empty()) pop_and_compare();
    EXPECT_TRUE(queue.empty());
  }
}

// The -0.0 divergence pinned directly: without push-side normalization the
// raw sign bit would sort a -0.0 semantic as the LARGEST uint64, popping it
// after every positive value instead of first.
TEST(QbQueueTest, NegativeZeroSortsAsZero) {
  QbQueue queue;
  queue.Reset(QueueDiscipline::kProposed, 2);
  queue.push(QbEntry{/*node=*/1, /*size=*/1, /*semantic=*/0.25,
                     /*length=*/1.0});
  queue.push(QbEntry{/*node=*/2, /*size=*/1, /*semantic=*/-0.0,
                     /*length=*/1.0});
  queue.push(QbEntry{/*node=*/3, /*size=*/1, /*semantic=*/0.0,
                     /*length=*/-0.0});
  // Semantic ascending with -0.0 == 0.0: nodes 2 and 3 tie on semantic and
  // fall through to length, where node 3's -0.0 sorts before node 2's 1.0.
  EXPECT_EQ(queue.pop().node, 3);
  EXPECT_EQ(queue.pop().node, 2);
  EXPECT_EQ(queue.pop().node, 1);
  EXPECT_TRUE(queue.empty());
}

// Draining the top bucket must lower the scan bound eagerly and the
// downward scan must stop at bucket 0 — interleave pushes at small sizes
// with pops that empty the large buckets.
TEST(QbQueueTest, DrainAndRefillAcrossSizes) {
  QbQueue queue;
  queue.Reset(QueueDiscipline::kProposed, 5);
  queue.push(QbEntry{1, 4, 0.5, 1.0});
  queue.push(QbEntry{2, 1, 0.5, 1.0});
  EXPECT_EQ(queue.pop().node, 1);  // size-4 bucket drained
  queue.push(QbEntry{3, 2, 0.5, 1.0});
  EXPECT_EQ(queue.pop().node, 3);  // bound re-raised by the push
  EXPECT_EQ(queue.pop().node, 2);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace skysr
