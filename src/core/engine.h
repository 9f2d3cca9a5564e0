// Engine: one runtime loop's complete vertical query stack.
//
// The paper's processor (Sections 2-5) is one vertical engine: device
// registry, uniform comm layer, shared scan plane, synchronization (locks,
// prober), optional health supervision, catalog and the continuous-query
// executor. Engine is the only place that stack is assembled and wired.
// core::Aorta hosts one on the control loop; every shard::Worker hosts one
// on its own loop (DESIGN.md §11-§12). Nothing inside an engine knows
// whether it serves a whole system or one shard's device slice: the only
// differences are the comm endpoint's node id, the executor's shard index
// and the health trace names' "<node>:" prefix on a worker.
//
// Metric enrolment stays with the owner (the host enrolls the full system
// view, a worker its "shard.<i>." subset); fault plans are placed across a
// set of engines by schedule_fault_plan below.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/comm_module.h"
#include "comm/scan_broker.h"
#include "core/health.h"
#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "sync/lock_manager.h"
#include "sync/prober.h"
#include "util/fault_plan.h"
#include "util/rng.h"

namespace aorta::core {

struct Config {
  std::uint64_t seed = 42;
  aorta::util::Duration epoch = aorta::util::Duration::seconds(1.0);
  // One of the Section 6.3 algorithms: LERFA+SRFE, SRFAE, LS, SA, RANDOM.
  std::string scheduler = "SRFAE";
  // Device synchronization switches (Section 6.2's ablation).
  bool use_probing = true;
  bool use_locks = true;
  // Failover: how many times a failed action request is rescheduled on its
  // remaining candidate devices.
  int max_retries = 1;
  // Shared data-acquisition plane (comm::ScanBroker). When on, co-located
  // queries over the same device table share one batched sensory sweep
  // per epoch and concurrent (device, attr) reads are deduplicated; off
  // reverts to per-query private scans (the pre-broker baseline, kept for
  // bench_shared_scan's ablation).
  bool shared_scans = true;
  // Sensory values younger than this are served from the broker's cache
  // instead of a new radio round trip. Zero disables caching (in-flight
  // dedup still applies).
  aorta::util::Duration scan_freshness = aorta::util::Duration::zero();
  // Predicate-index matching (query/predicate_index.h): registered AQs'
  // compiled event predicates are indexed per device type so each swept
  // tuple evaluates only candidate queries — sub-linear in the AQ count.
  // false reverts to exhaustive per-AQ evaluation (byte-identical output;
  // the ablation arm of bench_eval's matching sweep).
  bool predicate_index = true;
  // Shared-aggregate cache (query/agg_cache.h): continuous aggregate AQs
  // with the same canonical query hash (normalized predicates + window
  // shape, GROUP BY excluded) share one broker subscription and one
  // incremental window accumulation, so N co-hashed dashboard tenants pay
  // one evaluation per tuple instead of N. false reverts to a private
  // cache entry per AQ (byte-identical output; bench_agg_cache's ablation
  // arm).
  bool aggregate_cache = true;
  // Device health supervision: per-device Healthy/Suspect/Quarantined
  // state machine fed by read/probe/action outcomes. Quarantined devices
  // are skipped by broker sweeps and action scheduling and re-probed with
  // capped exponential backoff instead of every epoch.
  bool health_supervision = true;
  HealthOptions health;
  // Degraded-mode results: a quarantined device's sensory attrs are served
  // last-known-good up to this age, with the tuples (and their rows and
  // server deliveries) tagged degraded. Zero disables degraded serving.
  aorta::util::Duration degraded_staleness = aorta::util::Duration::seconds(30.0);
  // Per-query span tracing (src/obs): when on, pipeline stages record
  // virtual-time spans into a ring buffer of `trace_capacity` spans,
  // exportable as Chrome trace-event JSON (Aorta::tracer()). Off by
  // default: instrumentation sites then cost one branch.
  bool tracing = false;
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
  // Parallel deterministic runtime (DESIGN.md §12). `runtime_threads` is
  // the number of OS threads driving the per-shard event loops between
  // epoch barriers: 1 keeps the barrier schedule but runs loops serially
  // (still byte-identical to any other thread count); 0 means hardware
  // concurrency. With no worker loops (unsharded) the group degenerates to
  // the single global loop regardless of this setting.
  int runtime_threads = 1;
  // Epoch-barrier lookahead quantum. Must not exceed the minimum
  // cross-loop link latency — the czar<->worker backplane's 200us one-way
  // hop — or cross-loop deliveries would land inside an open window and
  // get clamped to the next barrier (counted runtime.<i>.posts_clamped).
  aorta::util::Duration runtime_quantum = aorta::util::Duration::micros(400);
  // Reliable backplane (DESIGN.md §14): czar->worker fragment RPCs retry
  // with capped exponential backoff behind per-peer budgets and circuit
  // breakers; workers dedup requests by idempotency key and retain
  // sequenced result messages for NACK-driven retransmission until the
  // czar acks them. false restores the fail-fast pre-§14 path (single
  // attempt, no acks/replay) — the chaos benches' ablation arm.
  bool reliable_backplane = true;
};

class Engine {
 public:
  // Builds the stack on runtime loop `loop_index` of `fabric`'s loop group:
  // a network segment joined to the fabric, then registry, comm layer
  // (endpoint `node_id`), ScanBroker, locks, prober, optional
  // HealthSupervisor, catalog, executor (`shard` = -1 for an unsharded
  // engine), tracer wiring and the builtin types/functions/actions; the
  // executor is started last. Forks three streams off `rng`, in order:
  // network, registry, executor.
  Engine(net::Fabric* fabric, int loop_index, aorta::util::Rng& rng,
         const Config& config, const net::NodeId& node_id, int shard,
         obs::Tracer* tracer);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- world building ----------------------------------------------------
  aorta::util::Status add_camera(const device::DeviceId& id, std::string ip,
                                 devices::CameraPose pose, double range_m);
  // Deeper motes ride a slower, lossier multi-hop link (Section 2.3).
  aorta::util::Status add_mote(const device::DeviceId& id, device::Location loc,
                               int hops);
  aorta::util::Status add_phone(const device::DeviceId& id,
                                std::string phone_no, device::Location loc);
  devices::PtzCamera* camera(const device::DeviceId& id);
  devices::Mica2Mote* mote(const device::DeviceId& id);
  devices::MmsPhone* phone(const device::DeviceId& id);

  // ---- the stack -----------------------------------------------------------
  aorta::util::EventLoop& loop() { return *loop_; }
  net::Network& network() { return *network_; }
  device::DeviceRegistry& registry() { return *registry_; }
  comm::CommLayer& comm() { return *comm_; }
  comm::ScanBroker& scan_broker() { return *scan_broker_; }
  sync::LockManager& locks() { return *locks_; }
  sync::Prober& prober() { return *prober_; }
  // nullptr when Config::health_supervision is off.
  HealthSupervisor* health() { return health_.get(); }
  query::Catalog& catalog() { return *catalog_; }
  query::ContinuousQueryExecutor& executor() { return *executor_; }

 private:
  aorta::util::EventLoop* loop_;
  // Destruction runs bottom-up: the executor (which holds broker
  // subscriptions) goes first, the registry and its network segment last.
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<device::DeviceRegistry> registry_;
  std::unique_ptr<comm::CommLayer> comm_;
  std::unique_ptr<comm::ScanBroker> scan_broker_;
  std::unique_ptr<sync::LockManager> locks_;
  std::unique_ptr<sync::Prober> prober_;
  std::unique_ptr<HealthSupervisor> health_;
  std::unique_ptr<query::Catalog> catalog_;
  std::unique_ptr<query::ContinuousQueryExecutor> executor_;
};

// Schedule a fault plan's events relative to the current simulated time,
// each on its *home* engine: the first of `engines` whose registry holds
// the target device (crash/revive/glitch) or whose network segment has the
// target node attached (partition/heal/spikes). Fault state (device power,
// partition sets, link models) is thus only ever touched from its home
// loop. Every event is validated before any is scheduled, so a typo in a
// plan file fails the whole apply instead of no-opping one event mid-run.
// Events carrying a shard index are rejected: callers that understand
// shards (shard::Plane) rewrite them to node-level events first.
aorta::util::Status schedule_fault_plan(const util::FaultPlan& plan,
                                        const std::vector<Engine*>& engines);

}  // namespace aorta::core
