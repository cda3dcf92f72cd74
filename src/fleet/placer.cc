#include "src/fleet/placer.h"

#include <cassert>

#include "src/sim/logging.h"

namespace taichi::fleet {

Placer::Placer(size_t num_nodes, NodeCapacity capacity)
    : capacity_(capacity), loads_(num_nodes) {
  if (num_nodes == 0) {
    TAICHI_ERROR(0, "placer: zero nodes is invalid, clamping to 1");
    loads_.resize(1);
  }
}

bool Placer::Fits(size_t node, const WorkloadSpec& spec) const {
  if (node >= loads_.size()) {
    return false;
  }
  const Load& l = loads_[node];
  return l.vms + spec.vms <= capacity_.vm_slots &&
         l.dp_util + spec.dp_util <= capacity_.dp_util &&
         l.cp_load + spec.cp_load <= capacity_.cp_load;
}

double Placer::LoadScore(size_t node) const {
  const Load& l = loads_[node];
  double score = 0.0;
  if (capacity_.vm_slots > 0) {
    score = static_cast<double>(l.vms) / capacity_.vm_slots;
  }
  if (capacity_.dp_util > 0 && l.dp_util / capacity_.dp_util > score) {
    score = l.dp_util / capacity_.dp_util;
  }
  if (capacity_.cp_load > 0 && l.cp_load / capacity_.cp_load > score) {
    score = l.cp_load / capacity_.cp_load;
  }
  return score;
}

Placement Placer::PlaceOn(int node, const WorkloadSpec& spec) {
  Placement out;
  if (node < 0 || static_cast<size_t>(node) >= loads_.size()) {
    TAICHI_ERROR(0, "placer: PlaceOn invalid node %d", node);
    ++refused_;
    out.reason = "invalid node";
    return out;
  }
  if (!Fits(static_cast<size_t>(node), spec)) {
    ++refused_;
    out.reason = "node lacks capacity for tenant '" + spec.tenant + "'";
    return out;
  }
  Load& l = loads_[static_cast<size_t>(node)];
  l.vms += spec.vms;
  l.dp_util += spec.dp_util;
  l.cp_load += spec.cp_load;
  ++admitted_;
  out.admitted = true;
  out.node = node;
  return out;
}

void Placer::Release(int node, const WorkloadSpec& spec) {
  if (node < 0 || static_cast<size_t>(node) >= loads_.size()) {
    TAICHI_ERROR(0, "placer: release on invalid node %d", node);
    return;
  }
  Load& l = loads_[static_cast<size_t>(node)];
  l.vms -= spec.vms;
  l.dp_util -= spec.dp_util;
  l.cp_load -= spec.cp_load;
  if (l.vms < 0 || l.dp_util < -1e-9 || l.cp_load < -1e-9) {
    // Releasing capacity that was never admitted here (double-release, or a
    // Release/PlaceOn pair aimed at the wrong node) silently corrupts every
    // future admission decision — fail loudly instead of clamping it away.
    TAICHI_ERROR(0, "placer: node %d released below zero (tenant '%s')", node,
                 spec.tenant.c_str());
    assert(false && "Placer::Release below zero: spec was never admitted on this node");
    l.vms = l.vms < 0 ? 0 : l.vms;
    l.dp_util = l.dp_util < 0 ? 0 : l.dp_util;
    l.cp_load = l.cp_load < 0 ? 0 : l.cp_load;
  }
}

}  // namespace taichi::fleet
