// The benchmark's own inputs, oracle and output checks.
//
// Nothing here calls into src/data or src/apps: the graph generator, the
// delta generator and the sequential PageRank oracle are the benchmark's,
// so a change to the program's generators or reference implementation can
// alter neither a workload nor its check. The only shared code is the
// record types of common/kv.h, which are the program's input format.
#ifndef I2MR_PERFBENCH_WORKLOAD_H_
#define I2MR_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/kv.h"

namespace perfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// A directed graph over vertices 0..n-1; adj[v] holds v's distinct
/// out-neighbours in ascending order.
struct Graph {
  std::vector<std::vector<uint32_t>> adj;
  size_t num_vertices() const { return adj.size(); }
};

struct GraphShape {
  uint32_t num_vertices = 0;
  /// Out-degree of each vertex is avg_degree * U[0.5, 1.5).
  double avg_degree = 8;
  /// Zipf skew of destination popularity (power-law in-degree).
  double dest_skew = 0.8;
};

/// Power-law graph: every vertex gets a record; destinations are drawn
/// from a Zipf distribution over vertex ids, without self-loops.
class GraphGenerator {
 public:
  explicit GraphGenerator(GraphShape shape);
  Graph Generate(uint64_t seed) const;
  /// One vertex's freshly sampled out-neighbours.
  std::vector<uint32_t> SampleAdjacency(uint32_t self, Rng* rng) const;

 private:
  uint32_t SampleDest(Rng* rng) const;
  GraphShape shape_;
  std::vector<double> cdf_;  // Zipf cumulative weights over vertex ids
};

/// Vertex key as the program's PageRank app expects it: zero-padded
/// decimal id (width 10).
std::string VertexKey(uint32_t v);
/// Adjacency value: "j1 j2 ..." of vertex keys.
std::string AdjacencyValue(const std::vector<uint32_t>& dests);

/// The program's structure input (one record per vertex) and its initial
/// state (rank 1 per vertex).
std::vector<i2mr::KV> StructureRecords(const Graph& g);
std::vector<i2mr::KV> UnitState(const Graph& g);

/// Delta batch: `updates` distinct vertices get re-sampled out-edges. Each
/// update is a delete of the old record followed by an insert of the new
/// one (2 deltas per updated vertex). Applies the change to *g.
std::vector<i2mr::DeltaKV> UpdateBatch(const GraphGenerator& gen,
                                       uint32_t updates, Rng* rng, Graph* g);

inline constexpr double kDamping = 0.85;

/// Sequential PageRank with the program's formulation: every vertex starts
/// at 1; R_j = d * sum_{i -> j} R_i / |N_i| + (1 - d); vertices without
/// out-edges pass nothing on. Iterates until the L1 change of a sweep is
/// at most `epsilon` (or `max_iterations`).
std::vector<double> OraclePageRank(const Graph& g, double epsilon = 1e-10,
                                   int max_iterations = 2000);

// -- Output checks -----------------------------------------------------------
// Each returns "" when the check holds and a one-line reason otherwise.

/// The served keys are exactly the graph's vertex keys, each once.
std::string CheckKeySet(const std::vector<i2mr::KV>& served, const Graph& g);

/// Every served rank parses and is >= 1 - d.
std::string CheckRankFloor(const std::vector<i2mr::KV>& served);

/// Mean relative error of the served ranks against the oracle; a key the
/// oracle does not know, or a value that does not parse, counts as error 1.
double MeanRelativeError(const std::vector<i2mr::KV>& served,
                         const std::vector<double>& oracle);
/// The mean relative error (stored in *error) is within `budget`.
std::string CheckAnswer(const std::vector<i2mr::KV>& served,
                        const std::vector<double>& oracle, double budget,
                        double* error);

/// The program's total of committed deltas equals the benchmark's count of
/// deltas it appended.
std::string CheckDeltaTotal(uint64_t committed, uint64_t appended);

/// A pinned cross-shard snapshot's epoch vector is uniform, and its epoch
/// is not older than the one the same reader saw before (`*last`, updated).
std::string CheckEpochVector(const std::vector<uint64_t>& epochs,
                             uint64_t* last);

/// A snapshot pinned right after a commit shows the committed epoch.
std::string CheckPinnedEpoch(uint64_t pinned, uint64_t committed);

// -- Statistics --------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 100]) of unsorted samples; 0
/// for an empty set.
double Percentile(std::vector<double> samples, double q);

}  // namespace perfbench

#endif  // I2MR_PERFBENCH_WORKLOAD_H_
