#include "shard/plane.h"

#include <algorithm>

namespace aorta::shard {

using aorta::util::Status;

net::LinkModel Plane::backplane() {
  net::LinkModel link;
  link.latency_mean_s = 0.0002;
  link.latency_jitter_s = 0.0;
  link.loss_prob = 0.0;
  link.bandwidth_bytes_per_s = 1e9;
  return link;
}

Plane::Plane(core::Aorta* host, Options options)
    : host_(host), options_(std::move(options)) {
  workers_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    Worker::Options wo;
    wo.index = i;
    wo.heartbeat_interval = options_.heartbeat_interval;
    wo.config = host->config();
    wo.interconnect = options_.interconnect;
    workers_.push_back(std::make_unique<Worker>(host, wo));
  }
  Czar::Options co;
  co.num_shards = options_.num_shards;
  co.heartbeat_interval = options_.heartbeat_interval;
  co.miss_threshold = options_.miss_threshold;
  co.interconnect = options_.interconnect;
  czar_ = std::make_unique<Czar>(host, co);

  metrics_ = host->metrics().scoped("net.reliable.");
  metrics_.enroll_gauge("replay_depth", [this]() {
    std::int64_t depth = 0;
    for (const auto& w : workers_) {
      depth += static_cast<std::int64_t>(w->replay_depth());
    }
    return depth;
  });
  metrics_.enroll_gauge("replay_hwm", [this]() {
    std::int64_t hwm = 0;
    for (const auto& w : workers_) {
      hwm = std::max(hwm,
                     static_cast<std::int64_t>(w->stats().replay_hwm));
    }
    return hwm;
  });
}

Plane::~Plane() { metrics_.unenroll_all(); }

Status Plane::add_camera(const device::DeviceId& id, std::string ip,
                         devices::CameraPose pose, double range_m) {
  return worker(shard_of_device(id))
      .engine()
      .add_camera(id, std::move(ip), pose, range_m);
}

Status Plane::add_mote(const device::DeviceId& id, device::Location loc,
                       int hops) {
  return worker(shard_of_device(id)).engine().add_mote(id, loc, hops);
}

Status Plane::add_phone(const device::DeviceId& id, std::string phone_no,
                        device::Location loc) {
  return worker(shard_of_device(id))
      .engine()
      .add_phone(id, std::move(phone_no), loc);
}

devices::Mica2Mote* Plane::mote(const device::DeviceId& id) {
  return worker(shard_of_device(id)).engine().mote(id);
}

devices::PtzCamera* Plane::camera(const device::DeviceId& id) {
  return worker(shard_of_device(id)).engine().camera(id);
}

Status Plane::apply_fault_plan(const util::FaultPlan& plan) {
  // Rewrite shard-targeted events into node-level events on the worker's
  // network endpoint before handing the plan to the core scheduler.
  util::FaultPlan rewritten = plan;
  for (util::FaultEvent& e : rewritten.events) {
    if (e.shard < 0) continue;
    if (e.shard >= options_.num_shards) {
      return aorta::util::invalid_argument_error(
          "fault plan targets shard " + std::to_string(e.shard) +
          " but the plane has " + std::to_string(options_.num_shards) +
          " shard(s)");
    }
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
        e.kind = util::FaultEvent::Kind::kPartition;
        break;
      case util::FaultEvent::Kind::kRevive:
        e.kind = util::FaultEvent::Kind::kHeal;
        break;
      case util::FaultEvent::Kind::kPartition:
      case util::FaultEvent::Kind::kHeal:
        break;
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike:
        // Backplane spikes keep their kind; only the target is resolved
        // to the worker's network node (its backplane link).
        break;
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kGlitchSpike:
        // Unreachable: the parser rejects these spikes with a shard
        // attribute (loss/glitch stay device-targeted; use
        // device="shard-N" to storm a worker's backplane link).
        return aorta::util::invalid_argument_error(
            "spike events cannot target a shard");
    }
    e.target = workers_[static_cast<std::size_t>(e.shard)]->node_id();
    e.shard = -1;
  }

  // Each event fires on the loop of the engine that owns its target; the
  // workers are searched first, then the host's control engine.
  std::vector<core::Engine*> engines;
  engines.reserve(workers_.size() + 1);
  for (auto& w : workers_) engines.push_back(&w->engine());
  engines.push_back(&host_->engine());
  return core::schedule_fault_plan(rewritten, engines);
}

}  // namespace aorta::shard
