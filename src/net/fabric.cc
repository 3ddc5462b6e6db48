#include "net/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/macros.h"

namespace skyrise::net {

Fabric::Fabric(const Options& options) : opt_(options), rng_(options.seed) {}

VpcId Fabric::AddVpc(double aggregate_cap_bytes_per_sec) {
  vpc_caps_.push_back(aggregate_cap_bytes_per_sec);
  return static_cast<VpcId>(vpc_caps_.size() - 1);
}

TransferId Fabric::StartTransfer(const TransferSpec& spec) {
  SKYRISE_CHECK(spec.src != nullptr && spec.dst != nullptr);
  SKYRISE_CHECK(spec.flows >= 1);
  if (spec.vpc != kNoVpc) {
    SKYRISE_CHECK(spec.vpc >= 0 &&
                  static_cast<size_t>(spec.vpc) < vpc_caps_.size());
  }
  const TransferId id = next_id_++;
  transfers_.emplace(id, Transfer{spec, 0, 0});
  return id;
}

void Fabric::StopTransfer(TransferId id) { transfers_.erase(id); }

bool Fabric::IsActive(TransferId id) const {
  return transfers_.count(id) > 0;
}

double Fabric::LastWindowBytes(TransferId id) const {
  auto it = transfers_.find(id);
  return it == transfers_.end() ? 0 : it->second.last_window;
}

void Fabric::Step(SimTime now, SimDuration dt) {
  last_window_total_ = 0;
  if (transfers_.empty()) return;
  const double window_sec = ToSeconds(dt);

  // Build the constraint system: one capacity per (NIC, direction) touched,
  // one per VPC, plus a private cap per transfer (flow cap x flows, jitter,
  // remaining bytes).
  struct Constraint {
    double remaining = 0;
    std::vector<size_t> members;
  };
  std::vector<Constraint> constraints;
  // Lookup-only indices (never iterated); constraint order is fixed by the
  // deterministic transfers_ (std::map) walk below, not by hash order.
  std::unordered_map<const Nic*, size_t> egress_index;
  std::unordered_map<const Nic*, size_t> ingress_index;
  std::unordered_map<VpcId, size_t> vpc_index;

  std::vector<TransferId> ids;
  std::vector<Transfer*> items;
  ids.reserve(transfers_.size());
  for (auto& [id, t] : transfers_) {
    ids.push_back(id);
    items.push_back(&t);
  }

  const size_t n = items.size();
  std::vector<double> own_cap(n);
  std::vector<std::vector<size_t>> transfer_constraints(n);

  for (size_t i = 0; i < n; ++i) {
    Transfer& t = *items[i];
    double cap =
        opt_.per_flow_cap_bytes_per_sec * t.spec.flows * window_sec;
    if (t.spec.rate_cap_bytes_per_sec > 0) {
      cap = std::min(cap, t.spec.rate_cap_bytes_per_sec * window_sec);
    }
    if (opt_.jitter_sigma > 0) {
      cap *= rng_.Lognormal(0.0, opt_.jitter_sigma);
    }
    if (t.spec.total_bytes >= 0) {
      cap = std::min(cap, static_cast<double>(t.spec.total_bytes) - t.moved);
    }
    own_cap[i] = std::max(0.0, cap);

    auto add_nic_constraint = [&](std::unordered_map<const Nic*, size_t>* idx,
                                  Nic* nic, Direction dir) {
      auto [it, inserted] = idx->try_emplace(nic, constraints.size());
      if (inserted) {
        constraints.push_back(
            Constraint{nic->AllowedBytes(dir, now, dt), {}});
      }
      constraints[it->second].members.push_back(i);
      transfer_constraints[i].push_back(it->second);
    };
    add_nic_constraint(&egress_index, t.spec.src, Direction::kOut);
    add_nic_constraint(&ingress_index, t.spec.dst, Direction::kIn);

    if (t.spec.vpc != kNoVpc) {
      auto [it, inserted] = vpc_index.try_emplace(t.spec.vpc,
                                                  constraints.size());
      if (inserted) {
        constraints.push_back(
            Constraint{vpc_caps_[t.spec.vpc] * window_sec, {}});
      }
      constraints[it->second].members.push_back(i);
      transfer_constraints[i].push_back(it->second);
    }
  }

  // Iterative water-filling: each round, every still-active transfer takes
  // the minimum of its own remaining cap and its fair share of each touched
  // constraint (remaining / active members), applied simultaneously. A round
  // either exhausts a shared constraint or clamps every own-cap-limited
  // transfer, so convergence is fast even with thousands of transfers with
  // distinct (jittered) caps; rounds are bounded as a backstop.
  std::vector<double> alloc(n, 0.0);
  std::vector<bool> active(n, true);
  std::vector<int> active_members(constraints.size(), 0);
  for (size_t c = 0; c < constraints.size(); ++c) {
    active_members[c] = static_cast<int>(constraints[c].members.size());
  }
  size_t active_count = n;
  for (size_t i = 0; i < n; ++i) {
    if (own_cap[i] <= 1e-9) {
      active[i] = false;
      --active_count;
      for (size_t c : transfer_constraints[i]) --active_members[c];
    }
  }

  const double eps = 1e-6;
  std::vector<double> share(constraints.size(), 0.0);
  for (int round = 0; round < 48 && active_count > 0; ++round) {
    // Fair shares against a snapshot of the remaining capacities, so every
    // member of a constraint receives an equal offer this round.
    for (size_t c = 0; c < constraints.size(); ++c) {
      share[c] = active_members[c] > 0
                     ? constraints[c].remaining / active_members[c]
                     : 0.0;
    }
    double moved = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      double grant = own_cap[i] - alloc[i];
      for (size_t c : transfer_constraints[i]) {
        grant = std::min(grant, share[c]);
      }
      if (grant > 0) {
        alloc[i] += grant;
        moved += grant;
        for (size_t c : transfer_constraints[i]) {
          constraints[c].remaining -= grant;
        }
      }
    }
    // Freeze transfers whose own cap or any constraint saturated.
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      bool saturated = own_cap[i] - alloc[i] <= eps;
      if (!saturated) {
        for (size_t c : transfer_constraints[i]) {
          if (constraints[c].remaining <= eps) {
            saturated = true;
            break;
          }
        }
      }
      if (saturated) {
        active[i] = false;
        --active_count;
        for (size_t c : transfer_constraints[i]) --active_members[c];
      }
    }
    if (moved <= eps) break;
  }

  // Apply allocations: consume NIC budgets, advance transfers, complete.
  std::vector<TransferId> completed;
  for (size_t i = 0; i < n; ++i) {
    Transfer& t = *items[i];
    const double bytes = alloc[i];
    t.spec.src->Consume(Direction::kOut, bytes, now, dt);
    t.spec.dst->Consume(Direction::kIn, bytes, now, dt);
    t.moved += bytes;
    t.last_window = bytes;
    last_window_total_ += bytes;
    if (t.spec.total_bytes >= 0 &&
        t.moved >= static_cast<double>(t.spec.total_bytes) - 0.5) {
      completed.push_back(ids[i]);
    }
  }
  for (TransferId id : completed) {
    auto it = transfers_.find(id);
    if (it == transfers_.end()) continue;
    auto on_complete = it->second.spec.on_complete;
    transfers_.erase(it);
    if (on_complete) on_complete(id);
  }
}

}  // namespace skyrise::net
