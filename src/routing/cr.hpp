// CR — Community based Routing (the paper's Algorithms 2-4).
//
// Every node carries a predefined community id (paper Sec. IV fn. 2).
// Inter-community phase (destination outside my community, Algorithm 3):
//   * encounter in the destination community -> hand over ALL replicas;
//   * M > 1 -> split proportionally to ENEC (Theorem 4) over (t, t+α·TTL];
//   * M = 1 -> forward iff P_ic < P_jc, the probabilities of meeting the
//     destination community within (t, t+α·TTL].
// Intra-community phase (I am in the destination community, Algorithm 4):
//   EER restricted to community members — intra-community EEV', MI', MD',
//   MEMD' are all computed over the community member set only, which is
//   what shrinks CR's control overhead relative to EER.
#pragma once

#include <memory>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"
#include "sim/router.hpp"

namespace dtn::routing {

struct CrParams {
  int copies = 10;          ///< λ
  double alpha = 0.28;      ///< α
  std::size_t window = 32;  ///< sliding-window capacity per pair
};

class CrRouter final : public sim::Router {
 public:
  CrRouter(CrParams params, std::shared_ptr<const core::CommunityTable> communities);

  [[nodiscard]] std::string name() const override { return "CR"; }
  [[nodiscard]] int initial_replicas() const override { return params_.copies; }

  void reset() override {
    history_.clear();
    if (mi_intra_) mi_intra_->reset();
    intra_version_ = ~0ULL;
    intra_bucket_ = -1;
  }

  void on_contact_up(sim::NodeIdx peer) override;
  void on_message_created(const sim::Message& m) override;
  void on_message_received(const sim::StoredMessage& sm, sim::NodeIdx from) override;

  // ---- exposed for tests ----
  [[nodiscard]] int community() const;
  [[nodiscard]] double enec(double t, double tau) const;
  [[nodiscard]] double community_probability(int community, double t, double tau) const;
  [[nodiscard]] double intra_eev(double t, double tau) const;
  [[nodiscard]] double intra_memd(sim::NodeIdx dst, double t);
  [[nodiscard]] const core::ContactHistory& history() const { return history_; }
  /// MI' (nullptr before the first contact or message).
  [[nodiscard]] const core::MiMatrix* mi_intra() const { return mi_intra_.get(); }
  /// Work done by this router's MEMD' searches.
  [[nodiscard]] const core::DijkstraCounters& dijkstra_counters() const {
    return dijkstra_.counters;
  }

 private:
  void ensure_state();
  void record_meeting(sim::NodeIdx peer, double t);
  void route_one(const sim::StoredMessage& sm, sim::NodeIdx peer, CrRouter* peer_router,
                 double t);
  void inter_community_route(const sim::StoredMessage& sm, sim::NodeIdx peer,
                             CrRouter* peer_router, double t);
  void intra_community_route(const sim::StoredMessage& sm, sim::NodeIdx peer,
                             CrRouter* peer_router, double t);

  CrParams params_;
  std::shared_ptr<const core::CommunityTable> communities_;
  core::ContactHistory history_;
  /// Intra-community MI', indexed by global node id. Only own-community
  /// rows are ever written or exchanged, so only they hold storage.
  std::unique_ptr<core::MiMatrix> mi_intra_;
  /// MEMD' search over MI' with the own Theorem-2 row, computed and
  /// indexed on the members only, as row self. MI' holds own-community
  /// rows and columns only, so it stays in the community. Restarts on
  /// (MI' version, floor(t)).
  std::vector<double> own_row_;
  std::vector<double> window_;
  core::DijkstraWorkspace dijkstra_;
  std::uint64_t intra_version_ = ~0ULL;
  std::int64_t intra_bucket_ = -1;
};

}  // namespace dtn::routing
