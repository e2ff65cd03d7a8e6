// MEED — Minimum Estimated Expected Delay (Jones, Li & Ward, WDTN 2005),
// the paper's reference [10] and the direct ancestor of EER's single-copy
// phase. Pure single-copy link-state routing: nodes maintain the MI matrix
// of *average* meeting intervals (no elapsed-time conditioning — that
// refinement is exactly what EER's Theorem 2 adds), run Dijkstra over it,
// and forward the one copy to an encounter with a strictly smaller
// estimated delay to the destination. Comparing MEED vs EER-with-λ=1
// isolates the value of Theorem 2's conditioning.
#pragma once

#include <memory>

#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"
#include "sim/router.hpp"

namespace dtn::routing {

struct MeedParams {
  std::size_t window = 32;  ///< sliding window for the interval averages
};

class MeedRouter final : public sim::Router {
 public:
  explicit MeedRouter(MeedParams params) : params_(params), history_(params.window) {}

  [[nodiscard]] std::string name() const override { return "MEED"; }

  void reset() override {
    history_.clear();
    if (mi_) mi_->reset();
    dist_version_ = ~0ULL;
  }

  void on_contact_up(sim::NodeIdx peer) override;
  void on_message_created(const sim::Message& m) override;

  /// Estimated expected delay self -> dst over the MI graph (+inf unknown).
  [[nodiscard]] double eed(sim::NodeIdx dst);

  /// This node's MI view; all rows unknown before its first contact.
  [[nodiscard]] const core::MiMatrix& mi() const {
    ensure_state();
    return *mi_;
  }

 private:
  void ensure_state() const;
  void route_one(const sim::StoredMessage& sm, sim::NodeIdx peer,
                 MeedRouter* peer_router);

  MeedParams params_;
  core::ContactHistory history_;
  /// Sized to node_count() on first use; mutable so mi() can create it.
  mutable std::unique_ptr<core::MiMatrix> mi_;
  std::vector<const double*> rows_;  ///< MI row view Dijkstra reads
  core::DijkstraWorkspace dijkstra_;
  std::uint64_t dist_version_ = ~0ULL;
};

}  // namespace dtn::routing
