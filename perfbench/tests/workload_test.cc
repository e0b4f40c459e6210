// Tests of the benchmark's inputs, oracle and checks: the oracle agrees
// with a closed form and with the program's sequential reference, and every
// output check rejects a deliberately wrong input.
#include "workload.h"

#include <gtest/gtest.h>

#include <set>

#include "apps/pagerank.h"
#include "common/codec.h"

namespace perfbench {
namespace {

Graph Ring(uint32_t n) {
  Graph g;
  g.adj.resize(n);
  for (uint32_t v = 0; v < n; ++v) g.adj[v] = {(v + 1) % n};
  return g;
}

Graph Small(uint64_t seed) {
  GraphShape shape;
  shape.num_vertices = 200;
  shape.avg_degree = 5;
  return GraphGenerator(shape).Generate(seed);
}

// The oracle's ranks served back as the program would serve them.
std::vector<i2mr::KV> Served(const std::vector<double>& ranks) {
  std::vector<i2mr::KV> out;
  for (uint32_t v = 0; v < ranks.size(); ++v) {
    out.push_back(i2mr::KV{VertexKey(v), i2mr::FormatDouble(ranks[v])});
  }
  return out;
}

TEST(OracleTest, DirectedRingRanksAreExactlyOne) {
  for (double r : OraclePageRank(Ring(7))) EXPECT_EQ(r, 1.0);
}

TEST(OracleTest, MatchesProgramReference) {
  const Graph g = Small(5);
  const auto oracle = OraclePageRank(g, 1e-12);
  const auto reference =
      i2mr::pagerank::Reference(StructureRecords(g), 2000, 1e-12);
  ASSERT_EQ(reference.size(), g.num_vertices());
  EXPECT_LT(MeanRelativeError(reference, oracle), 1e-9);
}

TEST(GeneratorTest, SeedFixesTheGraph) {
  EXPECT_EQ(Small(1).adj, Small(1).adj);
  EXPECT_NE(Small(1).adj, Small(2).adj);
  const Graph g = Small(1);
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    for (uint32_t d : g.adj[v]) {
      EXPECT_NE(d, v);
      EXPECT_LT(d, g.num_vertices());
    }
  }
}

TEST(GeneratorTest, UpdateBatchDeletesThenInsertsDistinctVertices) {
  GraphShape shape;
  shape.num_vertices = 200;
  shape.avg_degree = 5;
  GraphGenerator gen(shape);
  Graph g = gen.Generate(1);
  const Graph before = g;
  Rng rng(9);
  const auto batch = UpdateBatch(gen, 20, &rng, &g);
  ASSERT_EQ(batch.size(), 40u);
  std::set<std::string> keys;
  for (size_t i = 0; i < batch.size(); i += 2) {
    EXPECT_EQ(batch[i].op, i2mr::DeltaOp::kDelete);
    EXPECT_EQ(batch[i + 1].op, i2mr::DeltaOp::kInsert);
    EXPECT_EQ(batch[i].key, batch[i + 1].key);
    keys.insert(batch[i].key);
    const uint32_t v = static_cast<uint32_t>(std::stoul(batch[i].key));
    EXPECT_EQ(batch[i].value, AdjacencyValue(before.adj[v]));
    EXPECT_EQ(batch[i + 1].value, AdjacencyValue(g.adj[v]));
  }
  EXPECT_EQ(keys.size(), 20u);
}

TEST(CheckTest, CorrectOutputPasses) {
  const Graph g = Small(3);
  const auto oracle = OraclePageRank(g);
  const auto served = Served(oracle);
  double error = 1;
  EXPECT_EQ(CheckAnswer(served, oracle, 0.01, &error), "");
  EXPECT_LT(error, 1e-12);
  EXPECT_EQ(CheckKeySet(served, g), "");
  EXPECT_EQ(CheckRankFloor(served), "");
}

TEST(CheckTest, OnePerturbedRankFailsTheAnswer) {
  const Graph g = Ring(16);
  const auto oracle = OraclePageRank(g);
  auto served = Served(oracle);
  served[5].value = "2";  // every other rank is exactly 1
  double error = 0;
  EXPECT_NE(CheckAnswer(served, oracle, 0.02, &error), "");
  EXPECT_DOUBLE_EQ(error, 1.0 / 16);
}

TEST(CheckTest, MissingDuplicateOrForeignKeyFailsTheKeySet) {
  const Graph g = Ring(8);
  auto served = Served(OraclePageRank(g));
  auto missing = served;
  missing.erase(missing.begin() + 3);
  EXPECT_NE(CheckKeySet(missing, g), "");
  auto duplicate = missing;
  duplicate.push_back(served[0]);
  EXPECT_NE(CheckKeySet(duplicate, g), "");
  auto foreign = served;
  foreign.push_back(i2mr::KV{VertexKey(8), "1"});
  EXPECT_NE(CheckKeySet(foreign, g), "");
}

TEST(CheckTest, RankBelowFloorOrUnparsableFails) {
  auto served = Served(OraclePageRank(Ring(4)));
  served[1].value = "0.1";
  EXPECT_NE(CheckRankFloor(served), "");
  served[1].value = "1x";
  EXPECT_NE(CheckRankFloor(served), "");
  served[1].value = "0.15";
  EXPECT_EQ(CheckRankFloor(served), "");
}

TEST(CheckTest, DeltaTotalOffByOneFails) {
  EXPECT_EQ(CheckDeltaTotal(164, 164), "");
  EXPECT_NE(CheckDeltaTotal(163, 164), "");
  EXPECT_NE(CheckDeltaTotal(165, 164), "");
}

TEST(CheckTest, MixedOrBackwardEpochVectorFails) {
  uint64_t last = 0;
  EXPECT_EQ(CheckEpochVector({3, 3}, &last), "");
  EXPECT_EQ(last, 3u);
  EXPECT_NE(CheckEpochVector({3, 4}, &last), "");
  EXPECT_NE(CheckEpochVector({2, 2}, &last), "");
  EXPECT_NE(CheckEpochVector({}, &last), "");
  EXPECT_EQ(CheckEpochVector({4, 4}, &last), "");
}

TEST(CheckTest, PinnedEpochMustBeTheCommittedOne) {
  EXPECT_EQ(CheckPinnedEpoch(7, 7), "");
  EXPECT_NE(CheckPinnedEpoch(6, 7), "");
}

TEST(PercentileTest, InterpolatesBetweenSamples) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0), 1);
}

}  // namespace
}  // namespace perfbench
