#include "core/engine.h"

#include "core/builtins.h"
#include "util/logging.h"

namespace aorta::core {

using aorta::util::Duration;
using aorta::util::Status;

Engine::Engine(net::Fabric* fabric, int loop_index, aorta::util::Rng& rng,
               const Config& config, const net::NodeId& node_id, int shard,
               obs::Tracer* tracer)
    : loop_(fabric->group()->loop(loop_index)) {
  network_ = std::make_unique<net::Network>(loop_, rng.fork());
  network_->join_fabric(fabric, loop_index);
  registry_ = std::make_unique<device::DeviceRegistry>(network_.get(), loop_,
                                                       rng.fork());
  comm_ = std::make_unique<comm::CommLayer>(registry_.get(), network_.get(),
                                            node_id);
  comm::ScanBroker::Options broker_options;
  broker_options.coalesce = config.shared_scans;
  broker_options.freshness = config.scan_freshness;
  broker_options.degraded_staleness = config.degraded_staleness;
  scan_broker_ = std::make_unique<comm::ScanBroker>(
      registry_.get(), comm_.get(), loop_, broker_options);
  locks_ = std::make_unique<sync::LockManager>(loop_);
  prober_ = std::make_unique<sync::Prober>(comm_.get(), registry_.get(),
                                           loop_);
  if (config.health_supervision) {
    health_ = std::make_unique<HealthSupervisor>(registry_.get(), comm_.get(),
                                                 loop_, config.health);
    comm_->set_health(health_.get());
    scan_broker_->set_health(health_.get());
  }
  catalog_ = std::make_unique<query::Catalog>();

  query::ContinuousQueryExecutor::Options options;
  options.epoch = config.epoch;
  options.scheduler_name = config.scheduler;
  options.use_probing = config.use_probing;
  options.use_locks = config.use_locks;
  options.max_retries = config.max_retries;
  options.health = health_.get();
  options.shard = shard;
  options.predicate_index = config.predicate_index;
  options.aggregate_cache = config.aggregate_cache;
  executor_ = std::make_unique<query::ContinuousQueryExecutor>(
      registry_.get(), comm_.get(), scan_broker_.get(), prober_.get(),
      locks_.get(), loop_, catalog_.get(), rng.fork(), options);
  if (health_ != nullptr) {
    // Surface quarantine/recovery next to query events in the trace; a
    // worker's instants carry its node id so merged traces stay legible.
    std::string trace_prefix = shard < 0 ? "" : node_id + ":";
    health_->set_transition_hook(
        [this, tracer, trace_prefix](const device::DeviceId& id,
                                     HealthState from, HealthState to) {
          std::string change = std::string(health_state_name(from)) + " -> " +
                               std::string(health_state_name(to));
          executor_->record_trace(query::TraceEntry{loop_->now(), "", "health",
                                                    id + ": " + change});
          AORTA_TRACE_INSTANT(tracer, obs::SpanCat::kHealth,
                              trace_prefix + "transition:" + id, loop_->now(),
                              change);
        });
  }

  scan_broker_->set_tracer(tracer);
  executor_->set_tracer(tracer);
  comm_->engine().rpc().set_tracer(tracer);

  (void)registry_->register_type(devices::camera_type_info());
  (void)registry_->register_type(devices::sensor_type_info());
  (void)registry_->register_type(devices::phone_type_info());
  register_builtin_function_library(catalog_.get(), registry_.get());
  register_builtin_action_library(catalog_.get(), registry_.get(),
                                  comm_.get());
  executor_->start();
}

Status Engine::add_camera(const device::DeviceId& id, std::string ip,
                          devices::CameraPose pose, double range_m) {
  return registry_->add(std::make_unique<devices::PtzCamera>(
      id, std::move(ip), pose, range_m));
}

Status Engine::add_mote(const device::DeviceId& id, device::Location loc,
                        int hops) {
  AORTA_RETURN_IF_ERROR(
      registry_->add(std::make_unique<devices::Mica2Mote>(id, loc, hops)));
  return network_->set_link(id, devices::Mica2Mote::link_for_hops(hops));
}

Status Engine::add_phone(const device::DeviceId& id, std::string phone_no,
                         device::Location loc) {
  return registry_->add(
      std::make_unique<devices::MmsPhone>(id, std::move(phone_no), loc));
}

devices::PtzCamera* Engine::camera(const device::DeviceId& id) {
  return dynamic_cast<devices::PtzCamera*>(registry_->find(id));
}
devices::Mica2Mote* Engine::mote(const device::DeviceId& id) {
  return dynamic_cast<devices::Mica2Mote*>(registry_->find(id));
}
devices::MmsPhone* Engine::phone(const device::DeviceId& id) {
  return dynamic_cast<devices::MmsPhone*>(registry_->find(id));
}

namespace {

bool targets_device(util::FaultEvent::Kind kind) {
  return kind == util::FaultEvent::Kind::kCrash ||
         kind == util::FaultEvent::Kind::kRevive ||
         kind == util::FaultEvent::Kind::kGlitchSpike;
}

// The engine that owns `e`'s target, or nullptr if none does.
Engine* home_of(const util::FaultEvent& e,
                const std::vector<Engine*>& engines) {
  for (Engine* engine : engines) {
    if (targets_device(e.kind) ? engine->registry().find(e.target) != nullptr
                               : engine->network().attached(e.target)) {
      return engine;
    }
  }
  return nullptr;
}

// Schedule one validated event on its home engine's loop, mutating that
// engine's network segment / registry when it fires.
void schedule_fault_event(const util::FaultEvent& e, Engine* home) {
  aorta::util::EventLoop* loop = &home->loop();
  net::Network* network = &home->network();
  device::DeviceRegistry* registry = &home->registry();
  loop->schedule(Duration::seconds(e.at_s), [loop, network, registry, e]() {
    switch (e.kind) {
      case util::FaultEvent::Kind::kCrash:
      case util::FaultEvent::Kind::kRevive: {
        device::Device* dev = registry->find(e.target);
        if (dev != nullptr) {
          dev->set_online(e.kind == util::FaultEvent::Kind::kRevive);
        }
        break;
      }
      case util::FaultEvent::Kind::kPartition:
        network->partition(e.target);
        break;
      case util::FaultEvent::Kind::kHeal:
        network->heal(e.target);
        break;
      case util::FaultEvent::Kind::kLossSpike:
      case util::FaultEvent::Kind::kDuplicateSpike:
      case util::FaultEvent::Kind::kReorderSpike:
      case util::FaultEvent::Kind::kDelaySpike: {
        // Capture the link as it is *now* (it may have changed since the
        // plan was applied) and restore it when the spike interval ends.
        // All four verbs perturb the chaos_* fields, which draw from the
        // network's dedicated chaos RNG: injecting them never shifts the
        // main traffic streams (see net::LinkModel). Spike and restore
        // each touch only this verb's own fields against the link's state
        // at that moment, so overlapping spikes on one link (a storm
        // stacking loss + duplicate + reorder + delay) compose and
        // un-compose independently instead of clobbering each other with
        // whole-link snapshots.
        const net::LinkModel* current = network->link(e.target);
        if (current == nullptr) break;
        const net::LinkModel before = *current;
        net::LinkModel spiked = before;
        switch (e.kind) {
          case util::FaultEvent::Kind::kLossSpike:
            spiked.chaos_loss_prob = e.prob;
            break;
          case util::FaultEvent::Kind::kDuplicateSpike:
            spiked.chaos_dup_factor = e.factor;
            break;
          case util::FaultEvent::Kind::kReorderSpike:
            spiked.chaos_reorder_prob = e.prob;
            spiked.chaos_reorder_window_s = e.window_s;
            break;
          case util::FaultEvent::Kind::kDelaySpike:
            spiked.chaos_delay_s = e.add_s;
            break;
          default:
            break;
        }
        (void)network->set_link(e.target, spiked);
        loop->schedule(Duration::seconds(e.for_s), [network, e, before]() {
          const net::LinkModel* cur = network->link(e.target);
          if (cur == nullptr) return;
          net::LinkModel next = *cur;
          switch (e.kind) {
            case util::FaultEvent::Kind::kLossSpike:
              next.chaos_loss_prob = before.chaos_loss_prob;
              break;
            case util::FaultEvent::Kind::kDuplicateSpike:
              next.chaos_dup_factor = before.chaos_dup_factor;
              break;
            case util::FaultEvent::Kind::kReorderSpike:
              next.chaos_reorder_prob = before.chaos_reorder_prob;
              next.chaos_reorder_window_s = before.chaos_reorder_window_s;
              break;
            case util::FaultEvent::Kind::kDelaySpike:
              next.chaos_delay_s = before.chaos_delay_s;
              break;
            default:
              break;
          }
          (void)network->set_link(e.target, next);
        });
        break;
      }
      case util::FaultEvent::Kind::kGlitchSpike: {
        device::Device* dev = registry->find(e.target);
        if (dev == nullptr) break;
        double restored = dev->reliability().glitch_prob;
        dev->reliability().glitch_prob = e.prob;
        loop->schedule(Duration::seconds(e.for_s), [registry, e, restored]() {
          device::Device* d = registry->find(e.target);
          if (d != nullptr) d->reliability().glitch_prob = restored;
        });
        break;
      }
    }
    AORTA_LOG(kInfo, "fault")
        << util::fault_event_kind_name(e.kind) << " " << e.target;
  });
}

}  // namespace

Status schedule_fault_plan(const util::FaultPlan& plan,
                           const std::vector<Engine*>& engines) {
  std::vector<Engine*> homes;
  homes.reserve(plan.events.size());
  for (const util::FaultEvent& e : plan.events) {
    if (e.shard >= 0) {
      return aorta::util::invalid_argument_error(
          "fault plan targets shard " + std::to_string(e.shard) +
          " but this system has no sharded plane (run with num_shards > 0)");
    }
    Engine* home = home_of(e, engines);
    if (home == nullptr) {
      return aorta::util::not_found_error(
          (targets_device(e.kind) ? "fault plan targets unknown device: "
                                  : "fault plan targets unattached node: ") +
          e.target);
    }
    homes.push_back(home);
  }
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    schedule_fault_event(plan.events[i], homes[i]);
  }
  return Status::ok();
}

}  // namespace aorta::core
