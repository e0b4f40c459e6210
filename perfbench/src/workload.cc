#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace perfbench {
namespace {

constexpr int kKeyWidth = 10;

// Vertex id of a key VertexKey produced; false for anything else.
bool ParseVertexKey(const std::string& key, uint32_t* v) {
  if (key.size() != static_cast<size_t>(kKeyWidth)) return false;
  uint64_t id = 0;
  for (char c : key) {
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  if (id > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(id);
  return true;
}

bool ParseRank(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(*out);
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

GraphGenerator::GraphGenerator(GraphShape shape) : shape_(shape) {
  cdf_.resize(shape_.num_vertices);
  double total = 0;
  for (uint32_t k = 0; k < shape_.num_vertices; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), shape_.dest_skew);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t GraphGenerator::SampleDest(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

std::vector<uint32_t> GraphGenerator::SampleAdjacency(uint32_t self,
                                                      Rng* rng) const {
  const int degree =
      static_cast<int>(shape_.avg_degree * (0.5 + rng->NextDouble()));
  std::set<uint32_t> dests;
  for (int attempts = 0;
       static_cast<int>(dests.size()) < degree && attempts < degree * 4 + 16;
       ++attempts) {
    uint32_t d = SampleDest(rng);
    if (d != self) dests.insert(d);
  }
  return std::vector<uint32_t>(dests.begin(), dests.end());
}

Graph GraphGenerator::Generate(uint64_t seed) const {
  Rng rng(seed);
  Graph g;
  g.adj.resize(shape_.num_vertices);
  for (uint32_t v = 0; v < shape_.num_vertices; ++v) {
    g.adj[v] = SampleAdjacency(v, &rng);
  }
  return g;
}

std::string VertexKey(uint32_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%0*u", kKeyWidth, v);
  return buf;
}

std::string AdjacencyValue(const std::vector<uint32_t>& dests) {
  std::string out;
  for (size_t i = 0; i < dests.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += VertexKey(dests[i]);
  }
  return out;
}

std::vector<i2mr::KV> StructureRecords(const Graph& g) {
  std::vector<i2mr::KV> out;
  out.reserve(g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    out.push_back(i2mr::KV{VertexKey(v), AdjacencyValue(g.adj[v])});
  }
  return out;
}

std::vector<i2mr::KV> UnitState(const Graph& g) {
  std::vector<i2mr::KV> out;
  out.reserve(g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    out.push_back(i2mr::KV{VertexKey(v), "1"});
  }
  return out;
}

std::vector<i2mr::DeltaKV> UpdateBatch(const GraphGenerator& gen,
                                       uint32_t updates, Rng* rng, Graph* g) {
  const uint32_t n = static_cast<uint32_t>(g->num_vertices());
  updates = std::min(updates, n);
  std::set<uint32_t> chosen;
  std::vector<uint32_t> order;
  while (order.size() < updates) {
    uint32_t v = static_cast<uint32_t>(rng->Uniform(n));
    if (chosen.insert(v).second) order.push_back(v);
  }
  std::vector<i2mr::DeltaKV> out;
  out.reserve(2 * order.size());
  for (uint32_t v : order) {
    std::string key = VertexKey(v);
    out.push_back(
        i2mr::DeltaKV{i2mr::DeltaOp::kDelete, key, AdjacencyValue(g->adj[v])});
    g->adj[v] = gen.SampleAdjacency(v, rng);
    out.push_back(i2mr::DeltaKV{i2mr::DeltaOp::kInsert, std::move(key),
                                AdjacencyValue(g->adj[v])});
  }
  return out;
}

std::vector<double> OraclePageRank(const Graph& g, double epsilon,
                                   int max_iterations) {
  const size_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0), incoming(n);
  for (int it = 0; it < max_iterations; ++it) {
    std::fill(incoming.begin(), incoming.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const auto& dests = g.adj[i];
      if (dests.empty()) continue;
      const double share = rank[i] / static_cast<double>(dests.size());
      for (uint32_t j : dests) incoming[j] += share;
    }
    double diff = 0;
    for (size_t j = 0; j < n; ++j) {
      const double next = kDamping * incoming[j] + (1 - kDamping);
      diff += std::abs(next - rank[j]);
      rank[j] = next;
    }
    if (diff <= epsilon) break;
  }
  return rank;
}

std::string CheckKeySet(const std::vector<i2mr::KV>& served, const Graph& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto& kv : served) {
    uint32_t v = 0;
    if (!ParseVertexKey(kv.key, &v) || v >= g.num_vertices()) {
      return "served key '" + kv.key + "' is not a vertex of the graph";
    }
    if (seen[v]) return "served key '" + kv.key + "' appears twice";
    seen[v] = true;
  }
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (!seen[v]) return "vertex '" + VertexKey(v) + "' is not served";
  }
  return "";
}

std::string CheckRankFloor(const std::vector<i2mr::KV>& served) {
  // Every rank is (1 - d) plus a non-negative sum; the slack covers the
  // text round trip of the value.
  const double floor = (1 - kDamping) - 1e-12;
  for (const auto& kv : served) {
    double r = 0;
    if (!ParseRank(kv.value, &r)) {
      return "rank of '" + kv.key + "' does not parse: '" + kv.value + "'";
    }
    if (r < floor) {
      return "rank of '" + kv.key + "' is " + kv.value + ", below 1 - d";
    }
  }
  return "";
}

double MeanRelativeError(const std::vector<i2mr::KV>& served,
                         const std::vector<double>& oracle) {
  if (served.empty()) return 1.0;
  double total = 0;
  for (const auto& kv : served) {
    uint32_t v = 0;
    double r = 0;
    if (!ParseVertexKey(kv.key, &v) || v >= oracle.size() ||
        !ParseRank(kv.value, &r)) {
      total += 1.0;
      continue;
    }
    total += std::abs(r - oracle[v]) / oracle[v];
  }
  return total / static_cast<double>(served.size());
}

std::string CheckAnswer(const std::vector<i2mr::KV>& served,
                        const std::vector<double>& oracle, double budget,
                        double* error) {
  *error = MeanRelativeError(served, oracle);
  if (*error <= budget) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean relative error %.6g exceeds the budget %.6g", *error,
                budget);
  return buf;
}

std::string CheckDeltaTotal(uint64_t committed, uint64_t appended) {
  if (committed == appended) return "";
  return "program committed " + std::to_string(committed) +
         " deltas, benchmark appended " + std::to_string(appended);
}

std::string CheckEpochVector(const std::vector<uint64_t>& epochs,
                             uint64_t* last) {
  if (epochs.empty()) return "empty epoch vector";
  for (uint64_t e : epochs) {
    if (e != epochs.front()) {
      std::string v;
      for (uint64_t x : epochs) v += (v.empty() ? "" : ",") + std::to_string(x);
      return "mixed epoch vector [" + v + "]";
    }
  }
  if (epochs.front() < *last) {
    return "epoch went back from " + std::to_string(*last) + " to " +
           std::to_string(epochs.front());
  }
  *last = epochs.front();
  return "";
}

std::string CheckPinnedEpoch(uint64_t pinned, uint64_t committed) {
  if (pinned == committed) return "";
  return "snapshot pinned after committing epoch " + std::to_string(committed) +
         " shows epoch " + std::to_string(pinned);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

}  // namespace perfbench
