#include "sim/failure.hpp"

#include <algorithm>

namespace perseas::sim {

std::string_view to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kPowerOutage: return "power-outage";
    case FailureKind::kHardwareFault: return "hardware-fault";
    case FailureKind::kSoftwareCrash: return "software-crash";
    case FailureKind::kHang: return "hang";
  }
  return "unknown";
}

NodeCrashed::NodeCrashed(std::uint32_t node_id, FailureKind kind, std::string point)
    : std::runtime_error("node " + std::to_string(node_id) + " crashed (" +
                         std::string(to_string(kind)) +
                         (point.empty() ? std::string() : " at " + point) + ")"),
      node_id_(node_id),
      kind_(kind),
      point_(std::move(point)) {}

void FailureInjector::arm(std::string point, std::uint64_t after_hits, Action action) {
  sync::LockGuard lock(mu_);
  const std::uint64_t current = count_for(point).hits;
  armed_.push_back(Armed{std::move(point), current + after_hits + 1, std::move(action)});
}

void FailureInjector::notify(std::string_view point) {
  // Collect due actions under the lock, fire them outside it: an action may
  // crash a node and throw, and must already be off the armed list so that
  // recovery code re-entering the same point does not re-fire it — and it
  // may itself call arm()/notify(), which would self-deadlock under mu_.
  std::vector<Action> due;
  {
    sync::LockGuard lock(mu_);
    auto& pc = count_for(point);
    ++pc.hits;
    // The observer runs under the lock, so it sees each point's firings in
    // hit order, and before the armed actions: a crash action throws
    // through this frame, and the firing must already be on record.
    if (observer_) observer_(point, pc.hits);
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->point == point && pc.hits >= it->fire_at_hit) {
        due.push_back(std::move(it->action));
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& action : due) action();
}

void FailureInjector::set_observer(Observer observer) {
  sync::LockGuard lock(mu_);
  observer_ = std::move(observer);
}

std::uint64_t FailureInjector::hits(std::string_view point) const noexcept {
  sync::LockGuard lock(mu_);
  const auto it = std::find_if(counts_.begin(), counts_.end(),
                               [&](const PointCount& pc) { return pc.point == point; });
  return it == counts_.end() ? 0 : it->hits;
}

std::vector<std::string> FailureInjector::seen_points() const {
  sync::LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(counts_.size());
  for (const auto& pc : counts_) out.push_back(pc.point);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FailureInjector::PointHits> FailureInjector::snapshot() const {
  sync::LockGuard lock(mu_);
  std::vector<PointHits> out;
  out.reserve(counts_.size());
  for (const auto& pc : counts_) out.push_back(PointHits{pc.point, pc.hits});
  std::sort(out.begin(), out.end(),
            [](const PointHits& a, const PointHits& b) { return a.point < b.point; });
  return out;
}

FailureInjector::PointCount& FailureInjector::count_for(std::string_view point) {
  const auto it = std::find_if(counts_.begin(), counts_.end(),
                               [&](const PointCount& pc) { return pc.point == point; });
  if (it != counts_.end()) return *it;
  counts_.push_back(PointCount{std::string(point), 0});
  return counts_.back();
}

}  // namespace perseas::sim
