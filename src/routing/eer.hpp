// EER — Expected Encounter based Routing (the paper's Algorithm 1).
//
// Multiple-replicas phase: when u_i (M_k > 1 replicas of m_k) meets u_j,
// hand over ceil(M_k * EEV_j / (EEV_i + EEV_j)) replicas, both EEVs
// evaluated over the window (t, t + α·TTL_k] where TTL_k is the message's
// *residual* TTL (Theorem 1).
//
// Single-replica phase: maintain the MI matrix (freshness-merged rows on
// contact, paper footnote 1), build the MD matrix (Theorem 2 own-row, MI
// elsewhere) and forward the last copy iff MEMD(u_i, d) > MEMD(u_j, d)
// (Theorems 2+3, Dijkstra over MD).
//
// Degenerate-split policy (the paper leaves it open): when
// EEV_i + EEV_j = 0 (no usable history on either side) replicas split
// binary-style, floor(M/2), so early-life messages still disseminate.
#pragma once

#include <memory>

#include "core/contact_history.hpp"
#include "core/md_builder.hpp"
#include "core/mi_matrix.hpp"
#include "sim/router.hpp"

namespace dtn::routing {

struct EerParams {
  int copies = 10;            ///< λ
  double alpha = 0.28;        ///< α (paper Sec. V-A)
  std::size_t window = 32;    ///< sliding-window capacity per pair
  double md_time_quantum = 1.0;  ///< MEMD cache time bucket (s)
};

class EerRouter final : public sim::Router {
 public:
  explicit EerRouter(EerParams params);

  [[nodiscard]] std::string name() const override { return "EER"; }
  [[nodiscard]] int initial_replicas() const override { return params_.copies; }

  void reset() override {
    history_.clear();
    if (mi_) mi_->reset();
    memd_cache_.invalidate();
  }

  void on_contact_up(sim::NodeIdx peer) override;
  void on_message_created(const sim::Message& m) override;
  void on_message_received(const sim::StoredMessage& sm, sim::NodeIdx from) override;

  /// EEV_self(t, τ) — Theorem 1 over the live history. Public for tests.
  [[nodiscard]] double eev(double t, double tau) const;
  /// MEMD(self, dst) at time t — Theorems 2+3. Public for tests.
  [[nodiscard]] double memd(sim::NodeIdx dst, double t);

  [[nodiscard]] const core::ContactHistory& history() const { return history_; }
  /// This node's MI view. A router that never had a contact or a message
  /// still answers, with every row but the diagonal unknown.
  [[nodiscard]] const core::MiMatrix& mi() const {
    ensure_state();
    return *mi_;
  }

 private:
  void ensure_state() const;
  void record_meeting(sim::NodeIdx peer, double t);
  void exchange_mi(sim::NodeIdx peer, EerRouter& peer_router);
  void route_messages(sim::NodeIdx peer, EerRouter* peer_router);
  void route_one(const sim::StoredMessage& sm, sim::NodeIdx peer,
                 EerRouter* peer_router, double t);

  EerParams params_;
  core::ContactHistory history_;
  /// Sized to node_count() on first use; mutable so mi() can create it.
  mutable std::unique_ptr<core::MiMatrix> mi_;
  core::MemdCache memd_cache_;
};

}  // namespace dtn::routing
