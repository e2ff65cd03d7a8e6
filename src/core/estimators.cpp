#include "core/estimators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dtn::core {

CondCounts conditional_counts(std::span<const double> intervals, double elapsed,
                              double tau) noexcept {
  CondCounts c;
  for (const double dt : intervals) {
    if (dt > elapsed) {
      ++c.m;
      if (dt <= elapsed + tau) ++c.m_tau;
    }
  }
  return c;
}

double conditional_meet_probability(std::span<const double> intervals, double elapsed,
                                    double tau) noexcept {
  if (intervals.empty() || tau <= 0.0) return 0.0;
  const CondCounts c = conditional_counts(intervals, elapsed, tau);
  if (c.m > 0) {
    return static_cast<double>(c.m_tau) / static_cast<double>(c.m);
  }
  // Overdue pair (every recorded interval <= elapsed): the conditional is
  // 0/0. Fall back to the unconditional fraction of intervals <= tau.
  int within = 0;
  for (const double dt : intervals) {
    if (dt <= tau) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(intervals.size());
}

double conditional_meet_probability_sorted(std::span<const double> sorted,
                                           double elapsed, double tau) noexcept {
  if (sorted.empty() || tau <= 0.0) return 0.0;
  // m: intervals strictly greater than elapsed.
  const auto first_gt =
      std::upper_bound(sorted.begin(), sorted.end(), elapsed);
  const auto m = static_cast<double>(sorted.end() - first_gt);
  if (m > 0.0) {
    // m_tau: of those, the ones <= elapsed + tau.
    const auto last_le =
        std::upper_bound(first_gt, sorted.end(), elapsed + tau);
    const auto m_tau = static_cast<double>(last_le - first_gt);
    return m_tau / m;
  }
  // Overdue fallback: unconditional fraction of intervals <= tau.
  const auto within =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), tau) -
                          sorted.begin());
  return within / static_cast<double>(sorted.size());
}

double expected_meeting_delay(std::span<const double> intervals,
                              double elapsed) noexcept {
  if (intervals.empty()) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  int m = 0;
  for (const double dt : intervals) {
    if (dt > elapsed) {
      sum += dt;
      ++m;
    }
  }
  if (m > 0) {
    const double emd = sum / static_cast<double>(m) - elapsed;
    return emd > 0.0 ? emd : 0.0;
  }
  // Overdue: Theorem 2's conditioning set is empty. Use the unconditional
  // mean interval as the best available scale for "soon".
  const double mean = std::accumulate(intervals.begin(), intervals.end(), 0.0) /
                      static_cast<double>(intervals.size());
  return std::max(mean, 0.0);
}

double expected_encounter_value(const ContactHistory& history, double t, double tau) {
  double eev = 0.0;
  for (const auto& [peer, ph] : history.pairs()) {
    if (!ph.met || ph.intervals.empty()) continue;
    const double elapsed = t - ph.last_contact;
    eev += conditional_meet_probability_sorted(ph.sorted_intervals(), elapsed, tau);
  }
  return eev;
}

double expected_encounter_value_intra(const ContactHistory& history,
                                      const CommunityTable& table, NodeIdx self,
                                      double t, double tau) {
  const int own = table.community_of(self);
  double eev = 0.0;
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || !ph.met || ph.intervals.empty()) continue;
    if (peer >= table.node_count() || table.community_of(peer) != own) continue;
    const double elapsed = t - ph.last_contact;
    eev += conditional_meet_probability_sorted(ph.sorted_intervals(), elapsed, tau);
  }
  return eev;
}

double community_meet_probability(const ContactHistory& history,
                                  const CommunityTable& table, int community,
                                  double t, double tau) {
  double miss_all = 1.0;
  for (const NodeIdx member : table.members(community)) {
    const PairHistory* ph = history.pair(member);
    if (ph == nullptr || !ph->met || ph->intervals.empty()) continue;
    const double elapsed = t - ph->last_contact;
    const double p =
        conditional_meet_probability_sorted(ph->sorted_intervals(), elapsed, tau);
    miss_all *= 1.0 - p;
  }
  return 1.0 - miss_all;
}

double expected_encountering_communities(const ContactHistory& history,
                                         const CommunityTable& table,
                                         int self_community, double t, double tau) {
  double enec = 0.0;
  for (int k = 0; k < table.community_count(); ++k) {
    if (k == self_community) continue;
    enec += community_meet_probability(history, table, k, t, tau);
  }
  return enec;
}

int replicas_to_hand_over(int replicas, double mine, double theirs) noexcept {
  const double denom = mine + theirs;
  if (denom <= 0.0) return replicas / 2;
  const auto give =
      static_cast<int>(std::ceil(static_cast<double>(replicas) * theirs / denom));
  return std::min(give, replicas);
}

}  // namespace dtn::core
