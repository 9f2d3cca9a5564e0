#include "core/aorta.h"

#include <optional>
#include <thread>

#include "device/profile_io.h"
#include "util/logging.h"
#include "util/strings.h"

// Propagate a Status failure out of exec() as a Result<ExecResult>.
#define AORTA_RETURN_IF_ERROR_EXEC(expr)                            \
  do {                                                              \
    ::aorta::util::Status _s = (expr);                              \
    if (!_s.is_ok()) return ::aorta::util::Result<ExecResult>(_s);  \
  } while (false)

namespace aorta::core {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;

Aorta::Aorta(Config config)
    : tracer_(config.trace_capacity), config_(config), rng_(config.seed) {
  tracer_.set_enabled(config_.tracing);
  tracers_.push_back(&tracer_);
  runtime_ = std::make_unique<aorta::util::LoopGroup>(config_.runtime_quantum);
  int threads = config_.runtime_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  runtime_->set_threads(threads);
  fabric_ = std::make_unique<net::Fabric>(runtime_.get());
  clock_ = runtime_->clock(0);
  loop_ = runtime_->control();
  aorta::util::Logger::instance().attach_clock(clock_);

  engine_ = std::make_unique<Engine>(fabric_.get(), 0, rng_, config_,
                                     comm::EngineNode::kNodeId, -1, &tracer_);
  enroll_system_metrics();
}

void Aorta::enroll_system_metrics() {
  const net::NetworkStats& net = engine_->network().stats();
  metrics_.enroll_counter("network.sent", &net.sent);
  metrics_.enroll_counter("network.delivered", &net.delivered);
  metrics_.enroll_counter("network.dropped_loss", &net.dropped_loss);
  metrics_.enroll_counter("network.dropped_no_route", &net.dropped_no_route);
  metrics_.enroll_counter("network.dropped_partition", &net.dropped_partition);
  metrics_.enroll_counter("network.dropped_offline", &net.dropped_offline);
  metrics_.enroll_counter("network.bounced", &net.bounced);
  metrics_.enroll_counter("network.dropped_chaos", &net.dropped_chaos);
  metrics_.enroll_counter("network.chaos_dup_copies", &net.chaos_dup_copies);
  metrics_.enroll_counter("network.chaos_reordered", &net.chaos_reordered);
  metrics_.enroll_counter("network.chaos_delayed", &net.chaos_delayed);

  const net::RpcStats& rpc = engine_->comm().engine().rpc().stats();
  metrics_.enroll_counter("network.rpc.completed", &rpc.completed);
  metrics_.enroll_counter("network.rpc.timeouts", &rpc.timeouts);
  metrics_.enroll_counter("network.rpc.late_replies", &rpc.late_replies);
  metrics_.enroll_counter("network.rpc.unreachable", &rpc.unreachable);
  metrics_.enroll_counter("network.rpc.slow_replies", &rpc.slow_replies);

  const sync::LockStats& locks = engine_->locks().stats();
  metrics_.enroll_counter("sync.locks.acquisitions", &locks.acquisitions);
  metrics_.enroll_counter("sync.locks.releases", &locks.releases);
  metrics_.enroll_counter("sync.locks.contentions", &locks.contentions);
  metrics_.enroll_counter("sync.locks.max_queue_depth", &locks.max_queue_depth);
  metrics_.enroll_counter("sync.locks.wait_timeouts", &locks.wait_timeouts);
  const sync::ProbeStats& probes = engine_->prober().stats();
  metrics_.enroll_counter("sync.probes.probes", &probes.probes);
  metrics_.enroll_counter("sync.probes.responses", &probes.responses);
  metrics_.enroll_counter("sync.probes.timeouts", &probes.timeouts);

  metrics_.enroll_gauge_bool(
      "health.enabled", [this]() { return engine_->health() != nullptr; });
  if (engine_->health() != nullptr) {
    const HealthStats& hs = engine_->health()->stats();
    metrics_.enroll_gauge("health.quarantined", [this]() {
      return static_cast<std::int64_t>(engine_->health()->quarantined_count());
    });
    metrics_.enroll_counter("health.reports_ok", &hs.reports_ok);
    metrics_.enroll_counter("health.reports_failed", &hs.reports_failed);
    metrics_.enroll_counter("health.quarantines", &hs.quarantines);
    metrics_.enroll_counter("health.recoveries", &hs.recoveries);
    metrics_.enroll_counter("health.probes_sent", &hs.probes_sent);
    metrics_.enroll_counter("health.probes_failed", &hs.probes_failed);
  }

  const query::EvalStats& es = engine_->executor().eval_stats();
  metrics_.enroll_counter("eval.programs_compiled", &es.programs_compiled);
  metrics_.enroll_counter("eval.compiled_evals", &es.compiled_evals);
  engine_->executor().set_index_metrics(&metrics_, "eval.index.");
  engine_->executor().set_agg_metrics(&metrics_, "eval.agg.",
                                      "broker.agg_cache.");

  metrics_.enroll_counter("network.cross_sent", &net.cross_sent);
  metrics_.enroll_gauge("runtime.loops", [this]() {
    return static_cast<std::int64_t>(runtime_->size());
  });
  metrics_.enroll_gauge("runtime.windows", [this]() {
    return static_cast<std::int64_t>(runtime_->windows());
  });
  // Thread count is an execution-environment property, not virtual state:
  // volatile so same-seed snapshots match across thread counts.
  metrics_.enroll_gauge("runtime.threads", [this]() {
    return static_cast<std::int64_t>(runtime_->threads());
  });
  metrics_.mark_volatile("runtime.threads");
  enroll_loop_runtime_metrics(0);

  engine_->scan_broker().set_metrics(&metrics_);
}

void Aorta::enroll_loop_runtime_metrics(int loop_index) {
  const aorta::util::LoopRuntimeStats& rs = runtime_->stats(loop_index);
  const std::string p = "runtime." + std::to_string(loop_index) + ".";
  metrics_.enroll_counter(p + "barrier_waits", &rs.barrier_waits);
  metrics_.enroll_counter(p + "posts_out", &rs.posts_out);
  metrics_.enroll_counter(p + "posts_in", &rs.posts_in);
  metrics_.enroll_counter(p + "posts_clamped", &rs.posts_clamped);
  metrics_.enroll_counter(p + "max_outbox_depth", &rs.max_outbox_depth);
  metrics_.enroll_gauge(p + "queue_depth", [this, loop_index]() {
    return static_cast<std::int64_t>(runtime_->loop(loop_index)->pending());
  });
  // Barrier stall time is wall-clock (how long this loop's thread parked
  // at the rendezvous): enrolled volatile so it never perturbs the
  // deterministic snapshot, visible via snapshot_json(_, true).
  auto hist = std::make_unique<obs::LatencyHistogram>(0.0, 50.0, 50);
  runtime_->set_stall_sink(loop_index,
                           [h = hist.get()](double ms) { h->add(ms); });
  metrics_.enroll_histogram(p + "barrier_stall_ms", hist.get());
  metrics_.mark_volatile(p + "barrier_stall_ms");
  stall_hists_.push_back(std::move(hist));
}

Aorta::~Aorta() { aorta::util::Logger::instance().attach_clock(nullptr); }

Status Aorta::add_camera(const device::DeviceId& id, std::string ip,
                         devices::CameraPose pose, double range_m) {
  return engine_->add_camera(id, std::move(ip), pose, range_m);
}

Status Aorta::add_mote(const device::DeviceId& id, device::Location loc,
                       int hops) {
  return engine_->add_mote(id, loc, hops);
}

Status Aorta::add_phone(const device::DeviceId& id, std::string phone_no,
                        device::Location loc) {
  return engine_->add_phone(id, std::move(phone_no), loc);
}

Status Aorta::remove_device(const device::DeviceId& id) {
  return engine_->registry().remove(id);
}

devices::PtzCamera* Aorta::camera(const device::DeviceId& id) {
  return engine_->camera(id);
}
devices::Mica2Mote* Aorta::mote(const device::DeviceId& id) {
  return engine_->mote(id);
}
devices::MmsPhone* Aorta::phone(const device::DeviceId& id) {
  return engine_->phone(id);
}

void Aorta::add_virtual_file(const std::string& path, std::string content) {
  virtual_files_[path] = std::move(content);
}

std::map<device::DeviceTypeId, std::string> Aorta::export_device_types() const {
  std::map<device::DeviceTypeId, std::string> out;
  for (const auto& type_id : engine_->registry().type_ids()) {
    const device::DeviceTypeInfo* info =
        engine_->registry().type_info(type_id);
    if (info != nullptr) out[type_id] = device::device_type_to_xml(*info);
  }
  return out;
}

Status Aorta::register_type_from_xml(const std::string& xml) {
  auto info = device::device_type_from_xml(xml);
  if (!info.is_ok()) return info.status();
  return engine_->registry().register_type(std::move(info).value());
}

Status Aorta::register_action_impl(const std::string& name,
                                   query::ActionImpl impl) {
  return engine_->catalog().bind_action_impl(name, std::move(impl));
}

Result<ExecResult> Aorta::exec(const std::string& sql) {
  std::optional<Result<ExecResult>> outcome;
  exec_async(sql, ExecOptions{},
             [&outcome](Result<ExecResult> r) { outcome = std::move(r); });
  if (!outcome.has_value()) {
    // One-shot SELECT: sensory acquisition needs simulated time to pass;
    // bounded by the worst per-type probe timeout.
    const Duration kSelectDeadline = Duration::seconds(30.0);
    aorta::util::TimePoint deadline = loop_->now() + kSelectDeadline;
    while (!outcome.has_value() && loop_->now() < deadline &&
           runtime_->pending() > 0) {
      if (runtime_->running()) {
        // Re-entrant exec from inside an event: only the control loop can
        // be advanced from here; worker loops keep running to the barrier.
        loop_->run_until(loop_->now() + Duration::millis(10));
      } else {
        runtime_->run_until(loop_->now() + Duration::millis(10));
      }
    }
    if (!outcome.has_value()) {
      return Result<ExecResult>(
          aorta::util::timeout_error("SELECT did not complete"));
    }
  }
  return std::move(*outcome);
}

void Aorta::exec_async(const std::string& sql, ExecOptions options,
                       std::function<void(Result<ExecResult>)> done) {
  auto stmt = query::parse(sql);
  AORTA_TRACE_INSTANT(&tracer_, obs::SpanCat::kParse, "parse", loop_->now(),
                      stmt.is_ok() ? sql : "error: " + sql);
  if (!stmt.is_ok()) {
    done(Result<ExecResult>(stmt.status()));
    return;
  }
  query::Statement& s = stmt.value();

  if (s.kind == query::Statement::Kind::kSelect) {
    engine_->executor().run_select(
        s.select, [done = std::move(done)](
                      Result<std::vector<query::Row>> outcome) {
          if (!outcome.is_ok()) {
            done(Result<ExecResult>(outcome.status()));
            return;
          }
          ExecResult result;
          result.rows = std::move(outcome).value();
          result.message =
              aorta::util::str_format("%zu row(s)", result.rows.size());
          done(std::move(result));
        });
    return;
  }
  done(exec_ddl(s, sql, options));
}

Result<ExecResult> Aorta::exec_ddl(query::Statement& s, const std::string& sql,
                                   const ExecOptions& options) {
  switch (s.kind) {
    case query::Statement::Kind::kCreateAction: {
      const auto& ca = s.create_action;
      // Load the action profile from the virtual file store.
      auto file = virtual_files_.find(ca.profile_path);
      if (file == virtual_files_.end()) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "profile file not registered: " + ca.profile_path +
            " (use add_virtual_file)"));
      }
      auto profile = device::ActionProfile::from_xml(file->second);
      if (!profile.is_ok()) return Result<ExecResult>(profile.status());

      query::ActionDef def;
      def.name = ca.name;
      for (const auto& p : ca.params) {
        device::AttrType type = device::AttrType::kString;
        std::string lowered = aorta::util::to_lower(p.type_name);
        if (lowered == "double" || lowered == "float") {
          type = device::AttrType::kDouble;
        } else if (lowered == "int" || lowered == "integer") {
          type = device::AttrType::kInt;
        } else if (lowered == "location") {
          type = device::AttrType::kLocation;
        }
        def.params.push_back(query::ActionParam{type, p.name});
      }
      def.device_type = profile.value().device_type();
      def.library_path = ca.library_path;

      const device::DeviceTypeInfo* info =
          engine_->registry().type_info(def.device_type);
      if (info == nullptr) {
        return Result<ExecResult>(aorta::util::not_found_error(
            "action profile references unknown device type: " +
            def.device_type));
      }
      def.cost_model = query::ProfileCostModel::from_profile(profile.value(),
                                                             info->op_costs);
      // Device binding defaults: first parameter against the conventional
      // identity attribute of the device type.
      def.binding_param = 0;
      def.binding_attr = def.device_type == "phone"
                             ? "phone_no"
                             : (def.device_type == "camera" ? "ip" : "id");
      def.profile = std::move(profile).value();
      AORTA_RETURN_IF_ERROR_EXEC(
          engine_->catalog().register_action(std::move(def)));
      return ExecResult{"action " + ca.name + " registered (bind an "
                        "implementation with register_action_impl)",
                        {}};
    }

    case query::Statement::Kind::kCreateAq: {
      std::string name = options.name_prefix + s.create_aq.name;
      query::ContinuousQueryExecutor::AqHooks hooks;
      hooks.owner = options.owner;
      hooks.on_row = options.on_row;
      AORTA_RETURN_IF_ERROR_EXEC(engine_->executor().register_aq(
          name, s.create_aq.epoch_s, s.create_aq.select, sql,
          std::move(hooks)));
      return ExecResult{"continuous query " + name + " registered", {}};
    }

    case query::Statement::Kind::kDropAq: {
      std::string name = options.name_prefix + s.drop_aq.name;
      AORTA_RETURN_IF_ERROR_EXEC(engine_->executor().drop_aq(name));
      return ExecResult{"continuous query " + name + " dropped", {}};
    }

    case query::Statement::Kind::kExplain: {
      auto compiled =
          query::compile(s.select, engine_->catalog(), engine_->registry());
      if (!compiled.is_ok()) return Result<ExecResult>(compiled.status());
      return ExecResult{compiled.value().describe(), {}};
    }

    case query::Statement::Kind::kShow: {
      ExecResult result;
      using Target = query::ShowStmt::Target;
      switch (s.show.target) {
        case Target::kQueries:
          for (const std::string& name : engine_->executor().aq_names()) {
            const query::QueryStats* qs =
                engine_->executor().query_stats(name);
            query::QueryActionStats as =
                engine_->executor().action_stats(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("events",
                             static_cast<std::int64_t>(qs ? qs->events : 0));
            row.emplace_back("usable", static_cast<std::int64_t>(as.usable));
            row.emplace_back("bad", static_cast<std::int64_t>(as.total_bad()));
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kActions:
          for (const std::string& name : engine_->catalog().action_names()) {
            const query::ActionDef* def = engine_->catalog().find_action(name);
            query::Row row;
            row.emplace_back("name", name);
            row.emplace_back("device_type", def->device_type);
            row.emplace_back("params",
                             static_cast<std::int64_t>(def->params.size()));
            row.emplace_back("library", def->library_path);
            row.emplace_back("bound", def->impl ? true : false);
            result.rows.push_back(std::move(row));
          }
          break;
        case Target::kDevices:
          for (const auto& type_id : engine_->registry().type_ids()) {
            for (const auto& id : engine_->registry().ids_of_type(type_id)) {
              const device::Device* dev = engine_->registry().find(id);
              query::Row row;
              row.emplace_back("id", id);
              row.emplace_back("type", type_id);
              row.emplace_back("loc", dev->location());
              row.emplace_back("online", dev->online());
              result.rows.push_back(std::move(row));
            }
          }
          break;
      }
      result.message = aorta::util::str_format("%zu row(s)", result.rows.size());
      return result;
    }

    case query::Statement::Kind::kSelect:
      break;  // handled asynchronously in exec_async
  }
  return Result<ExecResult>(aorta::util::internal_error("bad statement kind"));
}

void Aorta::run_for(Duration span) {
  if (runtime_->running()) {
    // Called from inside an event (a test hook, say): the group is already
    // being driven, so only the calling loop may advance.
    loop_->run_for(span);
    return;
  }
  runtime_->run_for(span);
}

Status Aorta::apply_fault_plan(const util::FaultPlan& plan) {
  return schedule_fault_plan(plan, {engine_.get()});
}

const query::QueryStats* Aorta::query_stats(const std::string& name) const {
  return engine_->executor().query_stats(name);
}

query::QueryActionStats Aorta::action_stats(const std::string& name) const {
  return engine_->executor().action_stats(name);
}

SystemStats Aorta::stats() const {
  return SystemStats{engine_->locks().stats(), engine_->prober().stats(),
                     engine_->network().stats(),
                     engine_->comm().engine().rpc().stats()};
}

}  // namespace aorta::core
