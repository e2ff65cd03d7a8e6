// The paper's four estimators.
//
//   Theorem 1 (EEV):   EEV_i(t, τ)  = Σ_j m^τ_ij / m_ij
//   Theorem 2 (EMD):   EMD_ij(t)    = mean{Δt ∈ M_ij} − (t − t0)
//   Theorem 4 (ENEC):  ENEC_i(t, τ) = Σ_{k ≠ CID_i} (1 − Π_{j∈C_k} (1 − m^τ_ij/m_ij))
//
// with M_ij  = {Δt in window : Δt > t − t0}   (m_ij  = |M_ij|)
//      M^τ_ij = {Δt ∈ M_ij  : Δt ≤ t + τ − t0} (m^τ_ij = |M^τ_ij|)
//
// Edge-case policy (DESIGN.md §2): when m_ij = 0 — the pair is "overdue",
// every recorded interval is shorter than the elapsed time — the
// conditional in Theorems 1/4 is 0/0 and Theorem 2's mean is empty. We fall
// back to the unconditional window statistics; with an empty window the
// pair contributes probability 0 and delay +inf.
#pragma once

#include <span>

#include "core/community.hpp"
#include "core/contact_history.hpp"

namespace dtn::core {

/// Conditional window counts for a pair: m (intervals > elapsed) and
/// m_tau (those also <= elapsed + tau).
struct CondCounts {
  int m_tau = 0;
  int m = 0;
};

[[nodiscard]] CondCounts conditional_counts(std::span<const double> intervals,
                                            double elapsed, double tau) noexcept;

/// P(next meeting within (t, t+τ] | elapsed since last contact), Eq. (4).
/// Falls back to the unconditional fraction when m = 0; returns 0 for an
/// empty window or non-positive τ.
[[nodiscard]] double conditional_meet_probability(std::span<const double> intervals,
                                                  double elapsed, double tau) noexcept;

/// Same probability computed over an ascending-sorted window in
/// O(log |window|). Equals conditional_meet_probability on the sorted data
/// (property-tested); this is the hot-path form used by the routers.
[[nodiscard]] double conditional_meet_probability_sorted(
    std::span<const double> sorted, double elapsed, double tau) noexcept;

/// Theorem 2: expected residual meeting delay given the elapsed time.
/// Falls back to mean(window) when m = 0; +inf for an empty window.
/// The result is floored at 0 (an overdue pair is expected "now", never in
/// the past).
[[nodiscard]] double expected_meeting_delay(std::span<const double> intervals,
                                            double elapsed) noexcept;

/// Replicas to hand a peer by the two sides' utilities (EEV, ENEC or EEV';
/// Algorithms 1, 3, 4): ceil(M · theirs / (mine + theirs)), at most M; with
/// no utility on either side (left open by the paper) floor(M / 2).
[[nodiscard]] int replicas_to_hand_over(int replicas, double mine, double theirs) noexcept;

/// Theorem 1: EEV_i(t, τ) summed over every peer in the history.
[[nodiscard]] double expected_encounter_value(const ContactHistory& history,
                                              double t, double tau);

/// Intra-community variant: only peers inside `community` members of
/// `table` (and != self) contribute. Used by CR's intra-community phase.
[[nodiscard]] double expected_encounter_value_intra(const ContactHistory& history,
                                                    const CommunityTable& table,
                                                    NodeIdx self, double t, double tau);

/// P_ik of Theorem 4: probability node (with `history`) meets at least one
/// member of community k within (t, t+τ].
[[nodiscard]] double community_meet_probability(const ContactHistory& history,
                                                const CommunityTable& table,
                                                int community, double t, double tau);

/// Theorem 4: expected number of encountering communities, excluding the
/// node's own community `self_community`.
[[nodiscard]] double expected_encountering_communities(const ContactHistory& history,
                                                       const CommunityTable& table,
                                                       int self_community, double t,
                                                       double tau);

}  // namespace dtn::core
