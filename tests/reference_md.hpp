// Reference forms of MD and MEMD for differential tests: the dense
// selection-scan Dijkstra and the m×m intra-community MD builder that the
// sparse kernel replaced, kept verbatim (less the parent tree) as oracles.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/estimators.hpp"
#include "core/mi_matrix.hpp"

namespace dtn::test {

using core::NodeIdx;

/// O(n²) Dijkstra over a row-major n×n delay matrix (+inf = no edge,
/// negative weights clamped to 0, diagonal never read).
inline std::vector<double> dense_oracle(std::span<const double> delay, NodeIdx n,
                                        NodeIdx src) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  dist[static_cast<std::size_t>(src)] = 0.0;
  for (NodeIdx iter = 0; iter < n; ++iter) {
    NodeIdx u = -1;
    double best = kInf;
    for (NodeIdx v = 0; v < n; ++v) {
      if (!done[static_cast<std::size_t>(v)] && dist[static_cast<std::size_t>(v)] < best) {
        best = dist[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u < 0) break;
    done[static_cast<std::size_t>(u)] = true;
    const std::size_t row = static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
    for (NodeIdx v = 0; v < n; ++v) {
      if (done[static_cast<std::size_t>(v)] || v == u) continue;
      double w = delay[row + static_cast<std::size_t>(v)];
      if (w == kInf) continue;
      if (w < 0.0) w = 0.0;
      const double nd = best + w;
      if (nd < dist[static_cast<std::size_t>(v)]) dist[static_cast<std::size_t>(v)] = nd;
    }
  }
  return dist;
}

/// Intra-community MD over the dense sub-index of `community`'s members:
/// result is m×m where m = members(community).size(), indexed by position
/// in that member list. Pairs outside the community contribute no edges.
inline std::vector<double> build_md_intra(const core::MiMatrix& mi,
                                          const core::ContactHistory& history,
                                          const core::CommunityTable& table,
                                          int community, NodeIdx self, double t) {
  const auto& members = table.members(community);
  const auto m = static_cast<NodeIdx>(members.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> md(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), kInf);
  // Dense sub-index: position of each member in the member list.
  for (NodeIdx a = 0; a < m; ++a) {
    const std::size_t row = static_cast<std::size_t>(a) * static_cast<std::size_t>(m);
    for (NodeIdx b = 0; b < m; ++b) {
      md[row + static_cast<std::size_t>(b)] =
          a == b ? 0.0 : mi.get(members[static_cast<std::size_t>(a)],
                                members[static_cast<std::size_t>(b)]);
    }
  }
  // Own row via Theorem 2 (self must be a member; otherwise leave MI rows).
  NodeIdx self_pos = -1;
  for (NodeIdx a = 0; a < m; ++a) {
    if (members[static_cast<std::size_t>(a)] == self) {
      self_pos = a;
      break;
    }
  }
  if (self_pos >= 0) {
    const std::size_t row =
        static_cast<std::size_t>(self_pos) * static_cast<std::size_t>(m);
    std::vector<double> window;
    for (NodeIdx b = 0; b < m; ++b) {
      if (b == self_pos) continue;
      const NodeIdx peer = members[static_cast<std::size_t>(b)];
      const core::PairHistory* ph = history.pair(peer);
      if (ph == nullptr || !ph->met || ph->intervals.empty()) {
        md[row + static_cast<std::size_t>(b)] = kInf;
        continue;
      }
      const double elapsed = t - ph->last_contact;
      window.assign(ph->intervals.begin(), ph->intervals.end());
      md[row + static_cast<std::size_t>(b)] = core::expected_meeting_delay(window, elapsed);
    }
  }
  return md;
}

}  // namespace dtn::test
