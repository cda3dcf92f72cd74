#include "src/fleet/slo_monitor.h"

#include <algorithm>

#include "src/sim/logging.h"

namespace taichi::fleet {

SloMonitor::SloMonitor(Cluster* cluster, SloConfig config)
    : cluster_(cluster), config_(std::move(config)), baseline_(cluster->size()) {
  if (config_.percentile < 0 || config_.percentile > 100) {
    TAICHI_ERROR(0, "slo: percentile %.1f out of range, using p99", config_.percentile);
    config_.percentile = 99.0;
  }
}

SloMonitor::Report SloMonitor::Observe(const std::vector<int>& subset) {
  Report report;
  report.at = cluster_->Now();
  report.nodes.resize(cluster_->size());

  std::vector<bool> in_subset(cluster_->size(), subset.empty());
  for (int id : subset) {
    if (id >= 0 && static_cast<size_t>(id) < in_subset.size()) {
      in_subset[static_cast<size_t>(id)] = true;
    }
  }

  sim::Summary fleet;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    const sim::Summary* metric = cluster_->observability(i).metrics.FindSummary(config_.metric);
    NodeStat& stat = report.nodes[i];
    if (metric == nullptr) {
      continue;
    }
    // A baseline from an earlier incarnation describes a summary that died
    // with the old Testbed: the restarted node's window is everything it
    // has recorded. (Since() likewise ignores a baseline that is not an
    // earlier state of the summary, e.g. after a re-registration.)
    const uint32_t incarnation = cluster_->incarnation(i);
    const sim::Summary window = baseline_[i].incarnation == incarnation
                                    ? metric->Since(baseline_[i].summary)
                                    : *metric;
    if (in_subset[i]) {
      fleet.Merge(window);
    }
    // Only the evaluated subset consumes its window. A node outside the
    // subset keeps its baseline, so a later Observe() over a different
    // subset still sees every sample that arrived in between instead of
    // silently dropping them.
    if (in_subset[i]) {
      baseline_[i] = {*metric, incarnation};
    }
    stat.samples = window.count();
    if (!window.empty()) {
      stat.value = window.Percentile(config_.percentile);
      stat.breach = stat.value > config_.threshold;
    }
    if (in_subset[i]) {
      report.total_samples += window.count();
    }
  }

  if (!fleet.empty()) {
    report.fleet_value = fleet.Percentile(config_.percentile);
    report.fleet_breach = report.fleet_value > config_.threshold;
  }
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    NodeStat& stat = report.nodes[i];
    if (report.fleet_value > 0 && stat.samples >= config_.min_samples &&
        stat.value > config_.hotspot_factor * report.fleet_value) {
      stat.hotspot = true;
      report.hotspots.push_back(static_cast<int>(i));
    }
  }
  AttributeHeavyFlows(&report);
  return report;
}

void SloMonitor::AttributeHeavyFlows(Report* report) const {
  if (config_.heavy_hitters == 0 || report->hotspots.empty()) {
    return;
  }
  // Per hotspot node: who is burning that node's DP cycles. Everything here
  // comes out of the constant-space sketches — there is no exact per-flow
  // table anywhere on the packet path.
  for (int id : report->hotspots) {
    if (!cluster_->alive(static_cast<size_t>(id))) {
      continue;  // Crashed mid-window: its DP sketch died with the Testbed.
    }
    const obs::FlowMonitor& mon = cluster_->node(static_cast<size_t>(id)).flow_dp();
    const double total = static_cast<double>(mon.total_bytes());
    for (const auto& e : mon.TopK(config_.heavy_hitters)) {
      report->nodes[static_cast<size_t>(id)].heavy.push_back(
          {e.key, e.bytes, e.packets,
           total > 0 ? static_cast<double>(e.bytes) / total : 0.0});
    }
  }
  // Fleet scope: the same question over the merged sketch, catching flows
  // whose load is spread across nodes.
  const obs::FlowMonitor fleet = cluster_->MergedFlowMonitor(Cluster::FlowTap::kDp);
  const double fleet_total = static_cast<double>(fleet.total_bytes());
  for (const auto& e : fleet.TopK(config_.heavy_hitters)) {
    report->fleet_heavy.push_back(
        {e.key, e.bytes, e.packets,
         fleet_total > 0 ? static_cast<double>(e.bytes) / fleet_total : 0.0});
  }
}

}  // namespace taichi::fleet
