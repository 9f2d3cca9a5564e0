#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/aorta.h"
#include "devices/signal.h"
#include "server/service.h"
#include "shard/plane.h"

namespace perfbench {
namespace {

using aorta::server::Delivery;
using aorta::server::QueryService;
using aorta::server::SessionId;
using aorta::util::Duration;
using aorta::util::TimePoint;
using Clock = std::chrono::steady_clock;

constexpr int kMotes = 64;
constexpr int kTenants = 10;
// Every mote's accel_x spikes once per period, for kSpikeWidth, at a
// seeded offset; each spike of a mote has its own integer height, so a
// row's (mote, value) names the spike it reports.
constexpr double kSpikePeriodS = 6.0;
constexpr double kSpikeWidthS = 2.5;
// Offsets leave at least two epochs between a mote's spikes, so an
// edge-triggered AQ sees each spike as its own event.
constexpr double kSpikeGapS = 2.0;
constexpr int kSpikeHeights = 480;  // distinct heights 520, 522, ... 1478
// Detection samples come from spikes that start in the window early
// enough for the heartbeat-paced merge frontier to release their rows.
constexpr double kDetectGraceS = 3.0;
// Rows a traced run keeps for the rows-codec replay.
constexpr std::size_t kMaxCapturedRows = 50000;
// Simulated time set-up allows for every standing AQ to register.
constexpr double kRegisterLimitS = 60.0;

// Fixed work per workload: simulated seconds of warm-up and of the timed
// window, and the population sizes.
struct Shape {
  double warmup_s;
  double window_s;
  int sessions;       // select_storm / aq_churn clients, aq_monitor owners
  int aqs;            // aq_monitor standing AQs
  int trickle;        // aq_monitor closed-loop SELECT sessions
};

Shape shape_of(const std::string& workload) {
  if (workload == "select_storm") return {5.0, 160.0, 250, 0, 0};
  if (workload == "aq_monitor") return {10.0, 160.0, 100, 2000, 1};
  return {5.0, 35.0, 200, 0, 0};  // aq_churn
}

// splitmix64: the generator's own stream, independent of the engine RNG.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int index(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
  double exponential(double mean) {
    return -mean * std::log(1.0 - uniform());
  }
  Gen fork() { return Gen(next()); }

 private:
  std::uint64_t s_;
};

// FNV-1a 64 over a canonical little-endian byte stream.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  void value(const aorta::device::Value& v) {
    u64(v.index());
    std::visit(
        [this](const auto& x) {
          using T = std::decay_t<decltype(x)>;
          if constexpr (std::is_same_v<T, bool>) {
            u64(x ? 1 : 0);
          } else if constexpr (std::is_same_v<T, std::int64_t>) {
            u64(static_cast<std::uint64_t>(x));
          } else if constexpr (std::is_same_v<T, double>) {
            f64(x);
          } else if constexpr (std::is_same_v<T, std::string>) {
            str(x);
          } else if constexpr (std::is_same_v<T, aorta::device::Location>) {
            f64(x.x);
            f64(x.y);
            f64(x.z);
          }
        },
        v);
  }
};

bool as_number(const aorta::device::Value& v, double* out) {
  return aorta::device::value_as_double(v, out);
}

// "<prefix><n>", built by appending: GCC 12 misreports `"lit" + string`
// under -Wrestrict at -O3.
std::string numbered(const char* prefix, int n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

std::string mote_id(int m) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "m%02d", m);
  return buf;
}

// What the benchmark submitted, kept until the statement resolves.
enum class StmtType {
  kProject,   // SELECT s.id, s.temp FROM sensor s
  kFilter,    // SELECT s.id, s.light FROM sensor s WHERE s.temp > thr
  kCount,     // SELECT count(*) FROM sensor s WHERE s.temp > thr
  kAggregate, // SELECT min/max/avg(s.temp) FROM sensor s WHERE s.light > thr
  kCreate,
  kDrop,
};

struct Pending {
  StmtType type = StmtType::kProject;
  double thr = 0.0;
  TimePoint at;
};

// A standing AQ as the benchmark knows it, for checking its rows.
struct AqDesc {
  enum class Kind { kThreshold, kWindow, kBeep } kind = Kind::kThreshold;
  double lo = 0.0;  // accel_x > lo
  double hi = 1e9;  // accel_x < hi
  int mote = -1;    // s.id = mote, or any
  bool detect = false;  // contributes detection samples
  bool covers(int m, double v) const {
    return v > lo && v < hi && (mote < 0 || mote == m);
  }
};

struct Spike {
  int mote = 0;
  double start_s = 0.0;
  double value = 0.0;
};

enum class Role { kStorm, kOwner, kTrickle, kChurn };

struct Client {
  SessionId sid = 0;
  Role role = Role::kStorm;
  std::string prefix;
  Fnv digest;
  Gen gen{0};
  std::unordered_map<std::uint64_t, Pending> pending;
  int churn_next = 1;
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : options_(options), shape_(shape_of(options.workload)),
        gen_(options.seed ^ 0x5bd1e9955bd1e995ULL) {}

  RepResult run();

 private:
  TimePoint now() { return sys_->loop().now(); }
  bool in_window() const { return window_open_; }

  std::vector<int> permutation(int n);
  // The ordinal-th of evenly spread values in [0, range), jittered within
  // its stratum of width `step`.
  int stratified(int ordinal, int step, int range) {
    return (ordinal * step + gen_.index(step)) % range;
  }
  void build_world();
  std::size_t add_client(const std::string& tenant, Role role);
  void start_workload();
  void wait_registered();

  void submit(std::size_t ci, const std::string& sql, Pending p);
  void schedule(Duration delay, std::function<void()> fn);
  void storm_next(std::size_t ci);
  void churn_next(std::size_t ci, bool create);
  Pending random_select(Gen& g, std::string* sql);
  void register_aq(std::size_t ci, const std::string& name,
                   const std::string& body, AqDesc desc);

  // Empties every mailbox once per simulated second: the benchmark reads
  // deliveries through the notify hook, so the buffered copies are spare.
  void drain_mailboxes();
  void on_delivery(std::size_t ci, const Delivery& d);
  void check_result(const Pending& p, const Delivery& d);
  void check_row(const AqDesc& aq, std::size_t aq_index, const Delivery& d);
  void violation(const std::string& what);

  void collect(RepResult* out);

  Options options_;
  Shape shape_;
  Gen gen_;
  std::unique_ptr<aorta::core::Aorta> sys_;
  std::unique_ptr<QueryService> service_;
  std::shared_ptr<bool> running_ = std::make_shared<bool>(true);

  // The world as the benchmark scripted it.
  std::vector<double> temp_, light_;
  std::vector<Spike> spikes_;
  std::vector<std::unordered_map<int, std::size_t>> spike_by_value_;

  std::vector<Client> clients_;
  std::map<std::string, std::size_t> aq_by_name_;  // prefixed name -> index
  std::vector<AqDesc> aqs_;
  std::size_t aqs_pending_ = 0;  // CREATE AQs of setup not yet resolved
  // (aq index << 32 | spike index) -> first delivery of that spike's row.
  std::unordered_map<std::uint64_t, TimePoint> first_row_;

  bool window_open_ = false;
  TimePoint window_start_, window_end_;
  RepResult result_;
  std::map<std::string, std::uint64_t>& counts_ = result_.counts;
};

void Bench::violation(const std::string& what) {
  ++result_.violations;
  if (result_.violation_samples.size() < 5) {
    result_.violation_samples.push_back(what);
  }
}

void Bench::schedule(Duration delay, std::function<void()> fn) {
  auto running = running_;
  sys_->loop().schedule(delay, [running, fn = std::move(fn)]() {
    if (*running) fn();
  });
}

std::vector<int> Bench::permutation(int n) {
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(out[i], out[gen_.index(i + 1)]);
  return out;
}

void Bench::build_world() {
  aorta::core::Config cfg;
  cfg.seed = options_.seed;
  cfg.scan_freshness = Duration::millis(250);
  cfg.runtime_threads = options_.threads;
  cfg.tracing = options_.traced;
  sys_ = std::make_unique<aorta::core::Aorta>(cfg);

  aorta::server::ServiceConfig sc;
  sc.num_shards = kShards;
  // The dispatch budget and queue scale with the worker count, as in
  // bench_sharded_scale; quotas are open so the plane is what is loaded.
  sc.max_dispatch_per_tick = 64 * kShards;
  sc.admission.queue_capacity = 1024 * kShards;
  sc.admission.max_inflight_selects_per_tenant = 1 << 20;
  sc.admission.max_aqs_per_tenant = 1 << 20;
  sc.admission.policy = aorta::util::OverflowPolicy::kShedOldest;
  sc.admission.fair_dequeue = true;
  service_ = std::make_unique<QueryService>(sys_.get(), sc);

  aorta::shard::Plane* plane = service_->plane();
  // Spikes cover set-up (registration may take up to kRegisterLimitS),
  // warm-up and the window.
  const double horizon =
      kRegisterLimitS + shape_.warmup_s + shape_.window_s + kSpikePeriodS;
  spike_by_value_.resize(kMotes);
  // Per-mote constants are seeded permutations of fixed value sets, so a
  // seed changes which mote reads what, not how selective a filter is.
  const std::vector<int> temp_rank = permutation(kMotes);
  const std::vector<int> light_rank = permutation(kMotes);
  for (int m = 0; m < kMotes; ++m) {
    const std::string id = mote_id(m);
    (void)plane->add_mote(id, {static_cast<double>(m % 8) * 3.0,
                               static_cast<double>(m / 8) * 3.0, 1.0},
                          1 + m % 2);
    temp_.push_back(15.0 + 0.25 * temp_rank[m]);
    light_.push_back(100.0 + 12.0 * light_rank[m]);
    (void)plane->mote(id)->set_signal(
        "temp", aorta::devices::constant_signal(temp_.back()));
    (void)plane->mote(id)->set_signal(
        "light", aorta::devices::constant_signal(light_.back()));

    // A seeded permutation of the heights keeps them distinct per mote.
    const std::vector<int> heights = permutation(kSpikeHeights);
    auto signal = std::make_unique<aorta::devices::ScriptedSignal>(0.0);
    int k = 0;
    for (double base = 0.0; base < horizon && k < kSpikeHeights;
         base += kSpikePeriodS, ++k) {
      const double start =
          base + gen_.uniform(0.0, kSpikePeriodS - kSpikeWidthS - kSpikeGapS);
      const double value = 520 + 2 * heights[k];
      signal->add_spike(TimePoint::from_micros(
                            static_cast<std::int64_t>(start * 1e6)),
                        Duration::seconds(kSpikeWidthS), value);
      spike_by_value_[m][static_cast<int>(value)] = spikes_.size();
      spikes_.push_back({m, start, value});
    }
    (void)plane->mote(id)->set_signal("accel_x", std::move(signal));
  }
}

std::size_t Bench::add_client(const std::string& tenant, Role role) {
  Client c;
  c.sid = service_->connect(tenant);
  c.role = role;
  c.prefix = service_->session(c.sid)->name_prefix();
  c.gen = gen_.fork();
  const std::size_t ci = clients_.size();
  clients_.push_back(std::move(c));
  service_->session(clients_[ci].sid)->set_notify(
      [this, ci](const Delivery& d) { on_delivery(ci, d); });
  return ci;
}

void Bench::submit(std::size_t ci, const std::string& sql, Pending p) {
  Client& c = clients_[ci];
  p.at = now();
  ++counts_["submitted"];
  aorta::util::Result<std::uint64_t> r = [&] {
    if (!options_.traced) return service_->submit(c.sid, sql);
    const auto t0 = Clock::now();
    auto res = service_->submit(c.sid, sql);
    if (in_window()) {
      result_.submit_wall_us +=
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      ++result_.submit_calls;
    }
    return res;
  }();
  if (options_.traced && in_window()) result_.texts.push_back(sql);
  if (r.is_ok()) {
    c.pending.emplace(r.value(), p);
    return;
  }
  ++counts_["refused"];
  c.digest.str("refused");
  if (in_window()) {
    ++result_.attempted;
    ++result_.failed;
  }
  // A refused closed-loop client retries after a think time.
  if (c.role == Role::kStorm || c.role == Role::kTrickle) storm_next(ci);
  if (c.role == Role::kChurn) {
    churn_next(ci, p.type == StmtType::kCreate);
  }
}

Pending Bench::random_select(Gen& g, std::string* sql) {
  Pending p;
  char buf[160];
  switch (g.index(4)) {
    case 0:
      p.type = StmtType::kProject;
      *sql = "SELECT s.id, s.temp FROM sensor s";
      break;
    case 1:
      p.type = StmtType::kFilter;
      p.thr = 15.125 + 0.25 * g.index(60);
      std::snprintf(buf, sizeof buf,
                    "SELECT s.id, s.light FROM sensor s WHERE s.temp > %.3f",
                    p.thr);
      *sql = buf;
      break;
    case 2:
      p.type = StmtType::kCount;
      p.thr = 15.125 + 0.25 * g.index(60);
      std::snprintf(buf, sizeof buf,
                    "SELECT count(*) FROM sensor s WHERE s.temp > %.3f",
                    p.thr);
      *sql = buf;
      break;
    default:
      p.type = StmtType::kAggregate;
      p.thr = 99.5 + g.index(700);
      std::snprintf(buf, sizeof buf,
                    "SELECT min(s.temp), max(s.temp), avg(s.temp) FROM "
                    "sensor s WHERE s.light > %.1f",
                    p.thr);
      *sql = buf;
      break;
  }
  return p;
}

void Bench::storm_next(std::size_t ci) {
  Gen& g = clients_[ci].gen;
  schedule(Duration::seconds(g.uniform(0.5, 1.5)), [this, ci] {
    std::string sql;
    Pending p = random_select(clients_[ci].gen, &sql);
    submit(ci, sql, p);
  });
}

void Bench::register_aq(std::size_t ci, const std::string& name,
                        const std::string& body, AqDesc desc) {
  aq_by_name_[clients_[ci].prefix + name] = aqs_.size();
  aqs_.push_back(desc);
  Pending p;
  p.type = StmtType::kCreate;
  submit(ci, "CREATE AQ " + name + " AS " + body, p);
}

// Churn clients alternate CREATE AQ c<k> and DROP AQ c<k>.
void Bench::churn_next(std::size_t ci, bool create) {
  Gen& g = clients_[ci].gen;
  schedule(Duration::seconds(g.uniform(0.1, 0.5)), [this, ci, create] {
    Client& c = clients_[ci];
    const std::string name = numbered("c", c.churn_next);
    if (create) {
      AqDesc desc;
      desc.lo = 519.5 + 2 * c.gen.index(kSpikeHeights);
      desc.mote = c.gen.index(kMotes);
      char body[160];
      std::snprintf(body, sizeof body,
                    "SELECT s.id, s.accel_x FROM sensor s WHERE s.id = '%s' "
                    "AND s.accel_x > %.1f",
                    mote_id(desc.mote).c_str(), desc.lo);
      register_aq(ci, name, body, desc);
    } else {
      Pending p;
      p.type = StmtType::kDrop;
      submit(ci, "DROP AQ " + name, p);
    }
  });
}

void Bench::start_workload() {
  const std::string& w = options_.workload;

  if (w == "select_storm") {
    for (int i = 0; i < shape_.sessions; ++i) {
      const std::size_t ci =
          add_client(numbered("t", i % kTenants), Role::kStorm);
      storm_next(ci);
    }
  } else if (w == "aq_churn") {
    for (int i = 0; i < shape_.sessions; ++i) {
      const std::size_t ci =
          add_client(numbered("t", i % kTenants), Role::kChurn);
      churn_next(ci, true);
    }
  } else {
    // aq_monitor: standing AQs spread over the owner sessions.
    static const char* kWindowShapes[] = {
        "SELECT avg(s.temp) FROM sensor s GROUP BY s.hops WINDOW 10s EVERY 5s",
        "SELECT max(s.accel_x) FROM sensor s GROUP BY s.hops WINDOW 10s "
        "EVERY 5s",
        "SELECT count(*) FROM sensor s GROUP BY s.hops WINDOW 5s",
    };
    std::vector<std::size_t> owners;
    for (int i = 0; i < shape_.sessions; ++i) {
      owners.push_back(
          add_client(numbered("t", i % kTenants), Role::kOwner));
    }
    // The mix is fixed by position (2% beep actions, 10% windows, the rest
    // thresholds, one in five of those over every mote); the seed only
    // jitters motes and thresholds within evenly spread strata.
    int beeps = 0, windows = 0, local = 0, global = 0;
    for (int a = 0; a < shape_.aqs; ++a) {
      const std::size_t ci = owners[static_cast<std::size_t>(a) % owners.size()];
      AqDesc desc;
      char body[200];
      if (a % 50 == 49) {
        desc.kind = AqDesc::Kind::kBeep;
        desc.mote = stratified(beeps, 5, kMotes);
        desc.lo = 1199.5 + 2 * stratified(beeps++, 11, 140);
        std::snprintf(body, sizeof body,
                      "SELECT beep(s.id) FROM sensor s WHERE s.id = '%s' AND "
                      "s.accel_x > %.1f",
                      mote_id(desc.mote).c_str(), desc.lo);
      } else if (a % 10 == 4) {
        desc.kind = AqDesc::Kind::kWindow;
        std::snprintf(body, sizeof body, "%s", kWindowShapes[windows++ % 3]);
      } else if (a % 5 != 3) {
        desc.detect = true;
        desc.mote = stratified(local, 1, kMotes);
        desc.lo = 519.5 + 2 * stratified(local++, 7, kSpikeHeights);
        std::snprintf(body, sizeof body,
                      "SELECT s.id, s.accel_x FROM sensor s WHERE s.id = "
                      "'%s' AND s.accel_x > %.1f",
                      mote_id(desc.mote).c_str(), desc.lo);
      } else {
        desc.detect = true;
        desc.lo = 519.5 + 2 * stratified(global, 13, kSpikeHeights);
        desc.hi = desc.lo + 20.0 + 2 * stratified(global++, 29, 200);
        std::snprintf(body, sizeof body,
                      "SELECT s.id, s.accel_x FROM sensor s WHERE "
                      "s.accel_x > %.1f AND s.accel_x < %.1f",
                      desc.lo, desc.hi);
      }
      register_aq(ci, numbered("q", a), body, desc);
      ++aqs_pending_;
    }
    for (int t = 0; t < shape_.trickle; ++t) {
      storm_next(add_client(numbered("t", t), Role::kTrickle));
    }
  }
}

// Setup runs the simulation until every standing AQ of the setup phase
// has resolved, so registration cost lands in setup_s.
void Bench::wait_registered() {
  for (int i = 0; i < kRegisterLimitS * 10 && aqs_pending_ > 0; ++i) {
    sys_->run_for(Duration::millis(100));
  }
  if (aqs_pending_ > 0) violation("setup: standing AQs never registered");
}

void Bench::drain_mailboxes() {
  for (const Client& c : clients_) (void)service_->session(c.sid)->drain();
  schedule(Duration::seconds(1.0), [this] { drain_mailboxes(); });
}

void Bench::check_result(const Pending& p, const Delivery& d) {
  const bool complete = d.shards_total < 0 || d.shards_answered == d.shards_total;
  // An error is a failure (counted by the caller), never a wrong answer.
  if (d.kind == Delivery::Kind::kError) return;
  std::size_t expect = 0;
  switch (p.type) {
    case StmtType::kCreate:
    case StmtType::kDrop:
      return;
    case StmtType::kProject:
    case StmtType::kFilter: {
      std::vector<bool> seen(kMotes, false);
      for (const auto& row : d.rows) {
        if (row.size() != 2) return violation("select: row width");
        const auto* id = std::get_if<std::string>(&row[0].second);
        double v = 0.0;
        if (id == nullptr || id->size() != 3) {
          return violation("select: row types");
        }
        const int m = std::atoi(id->c_str() + 1);
        if (m < 0 || m >= kMotes || seen[m]) {
          return violation("select: bad or duplicate mote " + *id);
        }
        seen[m] = true;
        // A sensory column is NULL when its read failed on the radio.
        const bool null = std::holds_alternative<std::monostate>(row[1].second);
        if (null) {
          ++counts_["null_values"];
        } else if (!as_number(row[1].second, &v)) {
          return violation("select: row types");
        }
        if (p.type == StmtType::kProject && !null && v != temp_[m]) {
          return violation("select: wrong temp for " + *id);
        }
        if (p.type == StmtType::kFilter &&
            (temp_[m] <= p.thr || (!null && v != light_[m]))) {
          return violation("select: filter row for " + *id);
        }
      }
      for (int m = 0; m < kMotes; ++m) {
        expect += (p.type == StmtType::kProject || temp_[m] > p.thr) ? 1 : 0;
      }
      if (complete && d.rows.size() != expect) {
        ++counts_["complete_short"];
      }
      return;
    }
    case StmtType::kCount: {
      for (int m = 0; m < kMotes; ++m) expect += temp_[m] > p.thr ? 1 : 0;
      double n = 0.0;
      if (d.rows.size() != 1 || d.rows[0].size() != 1 ||
          !as_number(d.rows[0][0].second, &n) ||
          n > static_cast<double>(expect)) {
        return violation("count: wrong shape or too large");
      }
      if (complete && n != static_cast<double>(expect)) {
        ++counts_["complete_short"];
      }
      return;
    }
    case StmtType::kAggregate: {
      double lo = 1e9, hi = -1e9, sum = 0.0;
      int n = 0;
      for (int m = 0; m < kMotes; ++m) {
        if (light_[m] <= p.thr) continue;
        lo = std::min(lo, temp_[m]);
        hi = std::max(hi, temp_[m]);
        sum += temp_[m];
        ++n;
      }
      if (d.rows.size() != 1 || d.rows[0].size() != 3) {
        return violation("aggregate: wrong shape");
      }
      double got[3] = {0, 0, 0};
      for (int i = 0; i < 3; ++i) {
        if (!as_number(d.rows[0][i].second, &got[i]) && n > 0) {
          return violation("aggregate: non-numeric");
        }
      }
      if (n > 0 && (got[0] < lo || got[1] > hi || got[2] < lo || got[2] > hi ||
                    got[0] > got[1])) {
        return violation("aggregate: out of range");
      }
      if (n > 0 && (got[0] != lo || got[1] != hi ||
                    std::fabs(got[2] - sum / n) > 1e-9 * std::fabs(got[2]))) {
        ++counts_["complete_short"];
      }
      return;
    }
  }
}

void Bench::check_row(const AqDesc& aq, std::size_t aq_index,
                      const Delivery& d) {
  if (d.rows.size() != 1) return violation("row delivery without one row");
  const auto& row = d.rows[0];
  if (aq.kind == AqDesc::Kind::kWindow) {
    for (const auto& col : row) {
      double v = 0.0;
      if (std::holds_alternative<std::monostate>(col.second)) continue;
      if (!as_number(col.second, &v) || !std::isfinite(v) || v < 0.0) {
        return violation("window row: bad value");
      }
    }
    return;
  }
  if (row.size() != 2) return violation("threshold row: width");
  const auto* id = std::get_if<std::string>(&row[0].second);
  double v = 0.0;
  if (id == nullptr || id->size() != 3 || !as_number(row[1].second, &v)) {
    return violation("threshold row: types");
  }
  const int m = std::atoi(id->c_str() + 1);
  if (m < 0 || m >= kMotes || !aq.covers(m, v)) {
    return violation("threshold row outside its predicate");
  }
  auto it = spike_by_value_[m].find(static_cast<int>(v));
  if (it == spike_by_value_[m].end() || v != std::floor(v)) {
    return violation("threshold row matches no scripted spike");
  }
  if (aq.detect) {
    first_row_.try_emplace((static_cast<std::uint64_t>(aq_index) << 32) |
                               it->second,
                           now());
  }
}

void Bench::on_delivery(std::size_t ci, const Delivery& d) {
  Client& c = clients_[ci];
  c.digest.u64(static_cast<std::uint64_t>(d.kind));
  c.digest.u64(d.statement_id);
  c.digest.str(d.query);
  c.digest.u64(d.degraded ? 1 : 0);
  c.digest.u64(static_cast<std::uint64_t>(d.shards_answered + 1));
  c.digest.u64(static_cast<std::uint64_t>(d.shards_total + 1));
  c.digest.u64(d.rows.size());
  for (const auto& row : d.rows) {
    c.digest.u64(row.size());
    for (const auto& col : row) {
      c.digest.str(col.first);
      c.digest.value(col.second);
    }
  }
  if (options_.traced && in_window()) {
    if (d.kind == Delivery::Kind::kResult) result_.result_rows += d.rows.size();
    for (const auto& row : d.rows) {
      if (result_.rows.size() < kMaxCapturedRows) {
        result_.rows.push_back({d.at, row, d.degraded});
      }
    }
  }

  switch (d.kind) {
    case Delivery::Kind::kRow: {
      ++counts_["rows"];
      auto it = aq_by_name_.find(d.query);
      if (it == aq_by_name_.end()) return violation("row for unknown AQ");
      check_row(aqs_[it->second], it->second, d);
      return;
    }
    case Delivery::Kind::kOutcome: {
      ++counts_["outcomes"];
      auto it = aq_by_name_.find(d.query);
      if (it == aq_by_name_.end() ||
          aqs_[it->second].kind != AqDesc::Kind::kBeep) {
        violation("outcome for a query without an action");
      }
      return;
    }
    case Delivery::Kind::kResult:
    case Delivery::Kind::kError:
      break;
  }

  auto pit = c.pending.find(d.statement_id);
  if (pit == c.pending.end()) return violation("result for unknown statement");
  const Pending p = pit->second;
  c.pending.erase(pit);
  const bool partial =
      d.kind == Delivery::Kind::kResult && d.shards_total >= 0 &&
      d.shards_answered < d.shards_total;
  ++counts_[d.kind == Delivery::Kind::kResult ? "completed" : "errors"];
  if (partial) ++counts_["partial"];
  if (in_window()) {
    ++result_.attempted;
    if (d.kind == Delivery::Kind::kError || partial) ++result_.failed;
    result_.stmt_ms.push_back((now() - p.at).to_millis());
  }
  check_result(p, d);

  if (p.type == StmtType::kCreate && c.role != Role::kChurn) {
    if (d.kind != Delivery::Kind::kResult) violation("standing AQ refused");
    if (aqs_pending_ > 0) --aqs_pending_;
  }
  if (c.role == Role::kStorm || c.role == Role::kTrickle) storm_next(ci);
  if (c.role == Role::kChurn) {
    if (p.type == StmtType::kDrop) ++c.churn_next;
    // After a failed CREATE the client tries the same name again.
    const bool created = p.type == StmtType::kCreate &&
                         d.kind == Delivery::Kind::kResult;
    churn_next(ci, !created);
  }
}

void Bench::collect(RepResult* out) {
  // Detection samples: every (detecting AQ, spike) pair whose spike began
  // in the window early enough and whose height the AQ's predicate covers.
  const double w0 = (window_start_ - TimePoint::origin()).to_seconds();
  const double w1 =
      (window_end_ - TimePoint::origin()).to_seconds() - kDetectGraceS;
  std::uint64_t missed = 0;
  for (std::size_t a = 0; a < aqs_.size(); ++a) {
    const AqDesc& aq = aqs_[a];
    if (!aq.detect) continue;
    for (std::size_t s = 0; s < spikes_.size(); ++s) {
      const Spike& sp = spikes_[s];
      if (sp.start_s < w0 || sp.start_s >= w1 || !aq.covers(sp.mote, sp.value)) {
        continue;
      }
      const TimePoint start =
          TimePoint::from_micros(static_cast<std::int64_t>(sp.start_s * 1e6));
      auto it = first_row_.find((static_cast<std::uint64_t>(a) << 32) | s);
      // A spike never detected counts with the time it went unseen until
      // the window closed: a censored latency, so misses raise the
      // percentiles instead of vanishing from them.
      if (it == first_row_.end()) ++missed;
      out->detect_ms.push_back(
          ((it == first_row_.end() ? window_end_ : it->second) - start)
              .to_millis());
    }
  }
  counts_["detect_missed"] = missed;
  counts_["detect_pairs"] = out->detect_ms.size();

  Fnv all;
  for (const Client& c : clients_) {
    all.u64(c.sid);
    all.u64(c.digest.h);
  }
  out->digest = all.h;
  if (options_.traced) {
    out->admission_p99_ms = service_->admission_latency_ms().empty()
                                ? 0.0
                                : service_->admission_latency_ms().percentile(99.0);
  }
}

RepResult Bench::run() {
  const auto t0 = Clock::now();
  build_world();
  start_workload();
  schedule(Duration::seconds(1.0), [this] { drain_mailboxes(); });
  wait_registered();
  sys_->run_for(Duration::seconds(shape_.warmup_s));
  const auto t1 = Clock::now();

  if (options_.traced) {
    const auto s0 = Clock::now();
    result_.stats_before = service_->stats_json();
    result_.stats_json_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
  }
  window_open_ = true;
  window_start_ = now();
  const auto t2 = Clock::now();
  sys_->run_for(Duration::seconds(shape_.window_s));
  const auto t3 = Clock::now();
  window_end_ = now();
  window_open_ = false;
  *running_ = false;
  if (options_.traced) {
    const auto s0 = Clock::now();
    result_.stats_after = service_->stats_json();
    result_.stats_json_ms =
        0.5 * (result_.stats_json_ms +
               std::chrono::duration<double, std::milli>(Clock::now() - s0)
                   .count());
  }

  result_.setup_s = std::chrono::duration<double>(t1 - t0).count();
  result_.window_wall_s = std::chrono::duration<double>(t3 - t2).count();
  result_.window_sim_s = shape_.window_s;
  collect(&result_);
  return std::move(result_);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "select_storm" || name == "aq_monitor" || name == "aq_churn";
}

RepResult run_rep(const Options& options) {
  Bench bench(options);
  return bench.run();
}

}  // namespace perfbench
