// Aorta: the public facade of the pervasive query processing framework.
//
// Presents the whole stack from Section 2.1's architecture:
//   declarative interface (exec / SQL)          <- top layer
//   action-oriented query engine (src/query)    <- middle layer
//   uniform data communication layer (src/comm) <- bottom layer
// on top of the simulated device network (src/net, src/devices) that
// replaces the paper's physical pervasive lab. The two lower layers are
// one core::Engine on the control loop (core/engine.h); Aorta adds the
// declarative interface, the parallel runtime, fabric, clock, tracers,
// metrics and the virtual file store.
//
// Typical use:
//   aorta::core::Aorta sys(aorta::core::Config{});
//   sys.add_camera("cam1", "192.168.0.90", {{0, 0, 3}, 0.0});
//   sys.add_mote("mote1", {4, 2, 1});
//   sys.exec("CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, 'photos/admin') "
//            "FROM sensor s, camera c "
//            "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
//   sys.run_for(aorta::util::Duration::minutes(10));
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "util/loop_group.h"

namespace aorta::core {

// Result of exec(): DDL statements return a message; SELECT returns rows.
struct ExecResult {
  std::string message;
  std::vector<query::Row> rows;
  // Sharded one-shot SELECTs: how many shards contributed a partial out of
  // how many exist. answered < total marks a partial result (some shard
  // timed out or was down). -1/-1 everywhere else (unsharded, DDL).
  int shards_answered = -1;
  int shards_total = -1;
};

// Session-scoped execution options for the multi-tenant service layer
// (src/server). `name_prefix` isolates a session's AQ namespace (CREATE AQ
// and DROP AQ names are prefixed before reaching the executor); `owner`
// tags the registered query; `on_row` receives its continuous rows.
struct ExecOptions {
  std::string owner;
  std::string name_prefix;
  std::function<void(const std::string& query, const query::TimestampedRow&)>
      on_row;
};

struct SystemStats {
  sync::LockStats locks;
  sync::ProbeStats probes;
  net::NetworkStats network;
  net::RpcStats rpc;
};

class Aorta {
 public:
  explicit Aorta(Config config);
  ~Aorta();

  Aorta(const Aorta&) = delete;
  Aorta& operator=(const Aorta&) = delete;

  // ---- world building ----------------------------------------------------
  aorta::util::Status add_camera(const device::DeviceId& id, std::string ip,
                                 devices::CameraPose pose, double range_m = 25.0);
  // `hops` = depth in the multi-hop radio tree; deeper motes get slower,
  // lossier links and higher action costs (Section 2.3).
  aorta::util::Status add_mote(const device::DeviceId& id, device::Location loc,
                               int hops = 1);
  aorta::util::Status add_phone(const device::DeviceId& id, std::string phone_no,
                                device::Location loc);
  aorta::util::Status remove_device(const device::DeviceId& id);

  // Typed access to simulated devices (to script signals, flip power, ...).
  devices::PtzCamera* camera(const device::DeviceId& id);
  devices::Mica2Mote* mote(const device::DeviceId& id);
  devices::MmsPhone* phone(const device::DeviceId& id);

  // ---- declarative interface ----------------------------------------------
  // Execute one statement: CREATE ACTION / CREATE AQ / SELECT / DROP AQ.
  // SELECT runs the simulation until its tuples are acquired.
  aorta::util::Result<ExecResult> exec(const std::string& sql);

  // Asynchronous variant used by the service layer: DDL completes before
  // returning; a one-shot SELECT completes once enough simulated time has
  // passed for tuple acquisition (the caller keeps the event loop moving).
  // `done` is invoked exactly once.
  void exec_async(const std::string& sql, ExecOptions options,
                  std::function<void(aorta::util::Result<ExecResult>)> done);

  // Bind the implementation of a user-defined action registered via
  // CREATE ACTION (this reproduction's stand-in for loading the DLL).
  aorta::util::Status register_action_impl(const std::string& name,
                                           query::ActionImpl impl);

  // Virtual file system backing CREATE ACTION's PROFILE "path" clause.
  void add_virtual_file(const std::string& path, std::string content);

  // Device-type registrations as XML documents (the administrator's
  // profile files of Section 3.1): export every registered type, or
  // register a new type from a document.
  std::map<device::DeviceTypeId, std::string> export_device_types() const;
  aorta::util::Status register_type_from_xml(const std::string& xml);

  // ---- running -------------------------------------------------------------
  // Advance the simulated world (continuous queries evaluate as simulated
  // time passes).
  void run_for(aorta::util::Duration span);

  // Schedule a fault plan's events on the event loop, relative to the
  // current simulated time. Targets are validated up front (unknown
  // devices are an error); the events then fire deterministically as the
  // simulation advances. May be called multiple times (plans compose).
  aorta::util::Status apply_fault_plan(const util::FaultPlan& plan);

  // ---- statistics / internals ----------------------------------------------
  const query::QueryStats* query_stats(const std::string& name) const;
  query::QueryActionStats action_stats(const std::string& name) const;
  SystemStats stats() const;

  aorta::util::EventLoop& loop() { return *loop_; }
  // The parallel runtime: loop 0 is the control loop (czar / server /
  // host engine); the sharded plane adds one loop per worker.
  aorta::util::LoopGroup& runtime() { return *runtime_; }
  net::Fabric& fabric() { return *fabric_; }
  // The host's vertical stack on the control loop (core/engine.h); the
  // accessors below forward to it.
  Engine& engine() { return *engine_; }
  net::Network& network() { return engine_->network(); }
  device::DeviceRegistry& registry() { return engine_->registry(); }
  comm::CommLayer& comm() { return engine_->comm(); }
  comm::ScanBroker& scan_broker() { return engine_->scan_broker(); }
  const comm::ScanBroker& scan_broker() const { return engine_->scan_broker(); }
  sync::LockManager& locks() { return engine_->locks(); }
  sync::Prober& prober() { return engine_->prober(); }
  // nullptr when Config::health_supervision is off.
  HealthSupervisor* health() { return engine_->health(); }
  const HealthSupervisor* health() const { return engine_->health(); }
  query::Catalog& catalog() { return engine_->catalog(); }
  query::ContinuousQueryExecutor& executor() { return engine_->executor(); }
  // Observability: the registry every subsystem's counters are enrolled on
  // (the server layer adds its own sections), and the span tracer.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  // Multi-tracer export: worker stacks register their per-loop tracers so
  // trace_json() yields one merged Chrome trace document in deterministic
  // (virtual time, tracer index) order. Index 0 is the system tracer.
  void register_tracer(const obs::Tracer* t) { tracers_.push_back(t); }
  const std::vector<const obs::Tracer*>& tracers() const { return tracers_; }
  std::string trace_json() const { return obs::merged_chrome_json(tracers_); }
  aorta::util::Status export_trace(const std::string& path) const {
    return obs::export_merged_file(path, tracers_);
  }

  // Enroll runtime.<i>.* metrics for runtime loop `i`: barrier waits,
  // cross-post counters, queue depth, plus a volatile wall-clock barrier
  // stall histogram (excluded from deterministic snapshots). Called for
  // loop 0 at construction; the sharded plane calls it per worker loop.
  void enroll_loop_runtime_metrics(int loop_index);

  // Fork an independent deterministic RNG stream off the system seed. The
  // sharded plane forks one per worker stack so same-seed runs stay
  // byte-identical regardless of how work interleaves across shards.
  aorta::util::Rng fork_rng() { return rng_.fork(); }
  const Config& config() const { return config_; }

 private:
  // Synchronous statement kinds (everything but SELECT).
  aorta::util::Result<ExecResult> exec_ddl(query::Statement& s,
                                           const std::string& sql,
                                           const ExecOptions& options);

  void enroll_system_metrics();

  // Declared first so every component (which may hold enrolled counters or
  // a tracer pointer) is destroyed before the observability substrate.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  Config config_;
  aorta::util::Rng rng_;
  // The runtime owns every loop and clock; declared before the components
  // so it outlives them. `clock_` / `loop_` are views of loop 0.
  std::unique_ptr<aorta::util::LoopGroup> runtime_;
  std::unique_ptr<net::Fabric> fabric_;
  aorta::util::SimClock* clock_ = nullptr;
  aorta::util::EventLoop* loop_ = nullptr;
  std::vector<const obs::Tracer*> tracers_;
  std::vector<std::unique_ptr<obs::LatencyHistogram>> stall_hists_;
  std::unique_ptr<Engine> engine_;
  std::map<std::string, std::string> virtual_files_;
};

}  // namespace aorta::core
