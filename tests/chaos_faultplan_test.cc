// Scripted fault plans: XML parsing/validation, round-tripping, and the
// deterministic execution of crash/revive, partition/heal and loss/glitch
// spikes through Aorta::apply_fault_plan.
#include <gtest/gtest.h>

#include "core/aorta.h"
#include "devices/mote.h"
#include "shard/plane.h"
#include "util/fault_plan.h"

namespace aorta {
namespace {

using util::Duration;
using util::FaultEvent;
using util::FaultPlan;

TEST(FaultPlanTest, ParsesAllKindsAndSortsByTime) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"40\" kind=\"revive\" device=\"m1\"/>"
      "<event at=\"10\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"15\" kind=\"partition\" device=\"m2\"/>"
      "<event at=\"25\" kind=\"heal\" device=\"m2\"/>"
      "<event at=\"50\" kind=\"loss\" device=\"m2\" prob=\"0.9\" for=\"10\"/>"
      "<event at=\"60\" kind=\"glitch\" device=\"c1\" prob=\"0.5\" for=\"5\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 6u);
  // Sorted by at_s regardless of document order.
  EXPECT_EQ(ev[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_DOUBLE_EQ(ev[0].at_s, 10.0);
  EXPECT_EQ(ev[0].target, "m1");
  EXPECT_EQ(ev[1].kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(ev[2].kind, FaultEvent::Kind::kHeal);
  EXPECT_EQ(ev[3].kind, FaultEvent::Kind::kRevive);
  EXPECT_EQ(ev[4].kind, FaultEvent::Kind::kLossSpike);
  EXPECT_DOUBLE_EQ(ev[4].prob, 0.9);
  EXPECT_DOUBLE_EQ(ev[4].for_s, 10.0);
  EXPECT_EQ(ev[5].kind, FaultEvent::Kind::kGlitchSpike);
}

TEST(FaultPlanTest, ShardTargetedEventsParseAndRoundTrip) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"10\" kind=\"crash\" shard=\"1\"/>"
      "<event at=\"20\" kind=\"revive\" shard=\"1\"/>"
      "<event at=\"30\" kind=\"partition\" shard=\"0\"/>"
      "<event at=\"40\" kind=\"heal\" shard=\"0\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].shard, 1);
  EXPECT_TRUE(ev[0].target.empty());
  EXPECT_EQ(ev[2].shard, 0);

  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(again.value().events[i].shard, ev[i].shard);
    EXPECT_EQ(again.value().events[i].kind, ev[i].kind);
  }
}

TEST(FaultPlanTest, RejectsMalformedShardEvents) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  // Exactly one of device/shard; spikes are link/device-level only.
  bad("<event at=\"1\" kind=\"crash\" device=\"m1\" shard=\"0\"/>");
  bad("<event at=\"1\" kind=\"loss\" shard=\"0\" prob=\"0.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"glitch\" shard=\"0\" prob=\"0.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"crash\" shard=\"-2\"/>");
  bad("<event at=\"1\" kind=\"crash\" shard=\"x\"/>");
}

TEST(FaultPlanTest, BackplaneVerbsParseAndRoundTrip) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"5\" kind=\"duplicate\" device=\"czar\" factor=\"1.5\""
      " for=\"10\"/>"
      "<event at=\"6\" kind=\"reorder\" device=\"shard-0\" prob=\"0.3\""
      " window=\"0.004\" for=\"10\"/>"
      "<event at=\"7\" kind=\"delay\" device=\"shard-1\" add=\"0.002\""
      " for=\"10\"/>"
      "<event at=\"8\" kind=\"reorder\" shard=\"1\" prob=\"0.2\""
      " window=\"0.01\" for=\"2\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const std::vector<FaultEvent>& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, FaultEvent::Kind::kDuplicateSpike);
  EXPECT_DOUBLE_EQ(ev[0].factor, 1.5);
  EXPECT_EQ(ev[1].kind, FaultEvent::Kind::kReorderSpike);
  EXPECT_DOUBLE_EQ(ev[1].prob, 0.3);
  EXPECT_DOUBLE_EQ(ev[1].window_s, 0.004);
  EXPECT_EQ(ev[2].kind, FaultEvent::Kind::kDelaySpike);
  EXPECT_DOUBLE_EQ(ev[2].add_s, 0.002);
  EXPECT_EQ(ev[3].shard, 1);  // backplane verbs may target a shard

  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), 4u);
  EXPECT_DOUBLE_EQ(again.value().events[0].factor, 1.5);
  EXPECT_DOUBLE_EQ(again.value().events[1].window_s, 0.004);
  EXPECT_DOUBLE_EQ(again.value().events[2].add_s, 0.002);
  EXPECT_EQ(again.value().events[3].shard, 1);
}

TEST(FaultPlanTest, RejectsMalformedBackplaneVerbs) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  // duplicate: factor must be >= 1 and present.
  bad("<event at=\"1\" kind=\"duplicate\" device=\"czar\" factor=\"0.5\""
      " for=\"2\"/>");
  bad("<event at=\"1\" kind=\"duplicate\" device=\"czar\" for=\"2\"/>");
  // reorder: window must be > 0; prob bounded like loss.
  bad("<event at=\"1\" kind=\"reorder\" device=\"czar\" prob=\"0.3\""
      " window=\"0\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"reorder\" device=\"czar\" prob=\"1.5\""
      " window=\"0.01\" for=\"2\"/>");
  // delay: negative add rejected.
  bad("<event at=\"1\" kind=\"delay\" device=\"czar\" add=\"-0.001\""
      " for=\"2\"/>");
  // All spikes need a positive duration.
  bad("<event at=\"1\" kind=\"delay\" device=\"czar\" add=\"0.001\"/>");
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  auto bad = [](const std::string& body) {
    auto r = FaultPlan::from_xml("<fault_plan>" + body + "</fault_plan>");
    EXPECT_FALSE(r.is_ok()) << body;
  };
  bad("<event at=\"1\" kind=\"meteor\" device=\"m1\"/>");      // unknown kind
  bad("<event at=\"1\" kind=\"crash\"/>");                     // no device
  bad("<event at=\"-1\" kind=\"crash\" device=\"m1\"/>");      // negative at
  bad("<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"1.5\" for=\"2\"/>");
  bad("<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"0.5\"/>");  // no for
  bad("<event at=\"x\" kind=\"crash\" device=\"m1\"/>");       // non-numeric
  EXPECT_FALSE(FaultPlan::from_xml("<wrong_root/>").is_ok());
}

TEST(FaultPlanTest, RoundTripsThroughXml) {
  auto plan = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"10\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"50\" kind=\"loss\" device=\"m2\" prob=\"0.25\" for=\"10\"/>"
      "</fault_plan>");
  ASSERT_TRUE(plan.is_ok());
  auto again = FaultPlan::from_xml(plan.value().to_xml());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  ASSERT_EQ(again.value().events.size(), plan.value().events.size());
  for (std::size_t i = 0; i < again.value().events.size(); ++i) {
    EXPECT_EQ(again.value().events[i].kind, plan.value().events[i].kind);
    EXPECT_EQ(again.value().events[i].target, plan.value().events[i].target);
    EXPECT_DOUBLE_EQ(again.value().events[i].at_s,
                     plan.value().events[i].at_s);
    EXPECT_DOUBLE_EQ(again.value().events[i].prob,
                     plan.value().events[i].prob);
  }
}

// ---------------------------------------------------------- apply + run

struct FaultPlanSystemFixture : public ::testing::Test {
  FaultPlanSystemFixture() {
    core::Config cfg;
    cfg.seed = 4;
    sys = std::make_unique<core::Aorta>(cfg);
    EXPECT_TRUE(sys->add_mote("m1", {1, 0, 1}).is_ok());
    sys->mote("m1")->reliability().glitch_prob = 0.0;
  }

  FaultPlan parse(const std::string& xml) {
    auto plan = FaultPlan::from_xml(xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    return plan.is_ok() ? std::move(plan).value() : FaultPlan{};
  }

  std::unique_ptr<core::Aorta> sys;
};

TEST_F(FaultPlanSystemFixture, ApplyValidatesTargetsUpFront) {
  FaultPlan plan = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" device=\"ghost\"/>"
      "</fault_plan>");
  util::Status s = sys->apply_fault_plan(plan);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);

  FaultPlan plan2 = parse(
      "<fault_plan><event at=\"1\" kind=\"partition\" device=\"nowhere\"/>"
      "</fault_plan>");
  EXPECT_FALSE(sys->apply_fault_plan(plan2).is_ok());

  // Backplane verbs validate their endpoint up front too.
  FaultPlan plan3 = parse(
      "<fault_plan><event at=\"1\" kind=\"duplicate\" device=\"ghost\""
      " factor=\"2\" for=\"1\"/></fault_plan>");
  util::Status s3 = sys->apply_fault_plan(plan3);
  EXPECT_FALSE(s3.is_ok());
  EXPECT_EQ(s3.code(), util::StatusCode::kNotFound);
}

TEST_F(FaultPlanSystemFixture, CrashAndReviveToggleTheDevice) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"2\" kind=\"crash\" device=\"m1\"/>"
      "<event at=\"5\" kind=\"revive\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  EXPECT_TRUE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(3));
  EXPECT_FALSE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(3));
  EXPECT_TRUE(sys->mote("m1")->online());
}

TEST_F(FaultPlanSystemFixture, PartitionAndHealDriveTheLink) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"partition\" device=\"m1\"/>"
      "<event at=\"4\" kind=\"heal\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_TRUE(sys->network().is_partitioned("m1"));
  sys->run_for(Duration::seconds(3));
  EXPECT_FALSE(sys->network().is_partitioned("m1"));
}

TEST_F(FaultPlanSystemFixture, LossSpikeRestoresTheOriginalLink) {
  // Loss spikes ride the chaos field (drawn from the network's isolated
  // chaos RNG stream), leaving the link's base loss_prob untouched so the
  // main RNG stream never shifts.
  const net::LinkModel* before = sys->network().link("m1");
  ASSERT_NE(before, nullptr);
  const double base_loss = before->loss_prob;
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"loss\" device=\"m1\" prob=\"0.99\" for=\"3\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->chaos_loss_prob, 0.99);
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->loss_prob, base_loss);
  sys->run_for(Duration::seconds(3));
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->chaos_loss_prob, 0.0);
  EXPECT_DOUBLE_EQ(sys->network().link("m1")->loss_prob, base_loss);
}

TEST_F(FaultPlanSystemFixture, BackplaneVerbsSpikeAndRestoreChaosFields) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"duplicate\" device=\"m1\" factor=\"1.5\""
      " for=\"3\"/>"
      "<event at=\"1\" kind=\"reorder\" device=\"m1\" prob=\"0.3\""
      " window=\"0.004\" for=\"3\"/>"
      "<event at=\"1\" kind=\"delay\" device=\"m1\" add=\"0.002\" for=\"3\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  const net::LinkModel* spiked = sys->network().link("m1");
  ASSERT_NE(spiked, nullptr);
  EXPECT_DOUBLE_EQ(spiked->chaos_dup_factor, 1.5);
  EXPECT_DOUBLE_EQ(spiked->chaos_reorder_prob, 0.3);
  EXPECT_DOUBLE_EQ(spiked->chaos_reorder_window_s, 0.004);
  EXPECT_DOUBLE_EQ(spiked->chaos_delay_s, 0.002);
  sys->run_for(Duration::seconds(3));
  const net::LinkModel* restored = sys->network().link("m1");
  EXPECT_DOUBLE_EQ(restored->chaos_dup_factor, 1.0);
  EXPECT_DOUBLE_EQ(restored->chaos_reorder_prob, 0.0);
  EXPECT_DOUBLE_EQ(restored->chaos_delay_s, 0.0);
  EXPECT_FALSE(restored->has_chaos());
}

TEST_F(FaultPlanSystemFixture, GlitchSpikeRestoresDeviceReliability) {
  FaultPlan plan = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"glitch\" device=\"m1\" prob=\"0.8\" for=\"2\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(plan).is_ok());
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->mote("m1")->reliability().glitch_prob, 0.8);
  sys->run_for(Duration::seconds(2));
  EXPECT_DOUBLE_EQ(sys->mote("m1")->reliability().glitch_prob, 0.0);
}

TEST_F(FaultPlanSystemFixture, UnshardedSystemRejectsShardEvents) {
  FaultPlan plan = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" shard=\"0\"/>"
      "</fault_plan>");
  util::Status s = sys->apply_fault_plan(plan);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("no sharded plane"), std::string::npos);
}

// A shard-targeted crash/revive pair through Plane::apply_fault_plan
// takes one worker off the network and brings it back; the czar's
// supervision marks the shard down in between (the bench_chaos scenario).
TEST(FaultPlanShardTest, ShardCrashIsRewrittenToWorkerPartition) {
  core::Config cfg;
  cfg.seed = 4;
  core::Aorta sys(cfg);
  shard::Plane plane(&sys, shard::Plane::Options{.num_shards = 2});
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(plane.add_mote(id, {double(i), 0, 1}).is_ok());
  }

  auto parsed = FaultPlan::from_xml(
      "<fault_plan>"
      "<event at=\"2\" kind=\"crash\" shard=\"0\"/>"
      "<event at=\"10\" kind=\"revive\" shard=\"0\"/>"
      "</fault_plan>");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  // Bounds are validated against the plane's own shard count.
  auto oob = FaultPlan::from_xml(
      "<fault_plan><event at=\"1\" kind=\"crash\" shard=\"7\"/>"
      "</fault_plan>");
  ASSERT_TRUE(oob.is_ok());
  EXPECT_FALSE(plane.apply_fault_plan(oob.value()).is_ok());

  ASSERT_TRUE(plane.apply_fault_plan(parsed.value()).is_ok());
  sys.run_for(Duration::seconds(1));
  EXPECT_FALSE(sys.network().is_partitioned("shard-0"));
  sys.run_for(Duration::seconds(5));  // crash fired, heartbeats silent
  EXPECT_TRUE(sys.network().is_partitioned("shard-0"));
  EXPECT_FALSE(plane.czar().worker_live(0));
  EXPECT_TRUE(plane.czar().worker_live(1));
  sys.run_for(Duration::seconds(6));  // revive fired, first heartbeat back
  EXPECT_FALSE(sys.network().is_partitioned("shard-0"));
  EXPECT_TRUE(plane.czar().worker_live(0));
}

// The plane places plans through the same validation as the unsharded
// system: an unknown device or an unattached node rejects the whole plan
// with Aorta::apply_fault_plan's error text, and nothing is scheduled.
TEST(FaultPlanShardTest, PlaneRejectsUnknownTargetsWhole) {
  core::Aorta reference(core::Config{});
  core::Aorta sys(core::Config{});
  shard::Plane plane(&sys, shard::Plane::Options{.num_shards = 2});
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(reference.add_mote(id, {double(i), 0, 1}).is_ok());
    ASSERT_TRUE(plane.add_mote(id, {double(i), 0, 1}).is_ok());
  }
  auto parse = [](const std::string& xml) {
    auto plan = FaultPlan::from_xml(xml);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    return plan.is_ok() ? std::move(plan).value() : FaultPlan{};
  };
  FaultPlan ghost = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"crash\" device=\"m0\"/>"
      "<event at=\"2\" kind=\"crash\" device=\"ghost\"/>"
      "</fault_plan>");
  FaultPlan nowhere = parse(
      "<fault_plan>"
      "<event at=\"1\" kind=\"partition\" device=\"m1\"/>"
      "<event at=\"1\" kind=\"partition\" device=\"nowhere\"/>"
      "</fault_plan>");

  const std::size_t pending = sys.runtime().pending();
  util::Status s = plane.apply_fault_plan(ghost);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), reference.apply_fault_plan(ghost).to_string());
  EXPECT_NE(s.message().find("unknown device: ghost"), std::string::npos);
  util::Status n = plane.apply_fault_plan(nowhere);
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.to_string(), reference.apply_fault_plan(nowhere).to_string());
  EXPECT_NE(n.message().find("unattached node: nowhere"), std::string::npos);
  EXPECT_EQ(sys.runtime().pending(), pending);

  sys.run_for(Duration::seconds(3));
  EXPECT_TRUE(plane.mote("m0")->online());
  EXPECT_FALSE(plane.worker(plane.shard_of_device("m1"))
                   .engine()
                   .network()
                   .is_partitioned("m1"));
}

// A plan mixing a worker-homed device and a shard-targeted event: each
// event is scheduled on the loop of the engine owning its target (the
// mote's worker; the partitioned worker's own segment), never on the
// control loop, and the run is identical at 1 and 2 runtime threads.
TEST(FaultPlanShardTest, MixedPlanFiresEachEventOnItsHomeLoop) {
  auto run = [](int threads) {
    core::Config cfg;
    cfg.seed = 11;
    cfg.runtime_threads = threads;
    core::Aorta sys(cfg);
    shard::Plane plane(&sys, shard::Plane::Options{.num_shards = 2});
    std::string mote;
    for (int i = 0; i < 6; ++i) {
      std::string id = "m" + std::to_string(i);
      EXPECT_TRUE(plane.add_mote(id, {double(i), 0, 1}).is_ok());
      if (mote.empty() && plane.shard_of_device(id) == 0) mote = id;
    }
    EXPECT_FALSE(mote.empty());
    auto plan = FaultPlan::from_xml(
        "<fault_plan>"
        "<event at=\"2\" kind=\"crash\" device=\"" + mote + "\"/>"
        "<event at=\"3\" kind=\"crash\" shard=\"1\"/>"
        "<event at=\"6\" kind=\"revive\" device=\"" + mote + "\"/>"
        "<event at=\"9\" kind=\"revive\" shard=\"1\"/>"
        "</fault_plan>");
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();

    core::Engine& host = sys.engine();
    core::Engine& home0 = plane.worker(0).engine();
    core::Engine& home1 = plane.worker(1).engine();
    const std::size_t host_before = host.loop().pending();
    const std::size_t w0_before = home0.loop().pending();
    const std::size_t w1_before = home1.loop().pending();
    EXPECT_TRUE(plane.apply_fault_plan(plan.value()).is_ok());
    EXPECT_EQ(host.loop().pending(), host_before);
    EXPECT_EQ(home0.loop().pending(), w0_before + 2);
    EXPECT_EQ(home1.loop().pending(), w1_before + 2);

    std::string observed;
    auto observe = [&](int until_s) {
      sys.run_for(Duration::seconds(until_s) -
                  (sys.loop().now() - util::TimePoint::origin()));
      observed += std::to_string(until_s) + ":" +
                  (plane.mote(mote)->online() ? "up" : "down") + "," +
                  (home1.network().is_partitioned("shard-1") ? "cut" : "ok") +
                  "," + (plane.czar().worker_live(1) ? "live" : "dead") + ";";
    };
    observe(1);
    observe(4);
    observe(7);
    observe(12);
    return observed + sys.metrics().snapshot_json();
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find("1:up,ok,live;4:down,cut,live;7:up,cut,dead;"
                        "12:up,ok,live;"),
            std::string::npos)
      << serial.substr(0, 120);
  EXPECT_EQ(run(2), serial);
}

TEST_F(FaultPlanSystemFixture, PlansCompose) {
  FaultPlan a = parse(
      "<fault_plan><event at=\"1\" kind=\"crash\" device=\"m1\"/>"
      "</fault_plan>");
  FaultPlan b = parse(
      "<fault_plan><event at=\"2\" kind=\"revive\" device=\"m1\"/>"
      "</fault_plan>");
  ASSERT_TRUE(sys->apply_fault_plan(a).is_ok());
  ASSERT_TRUE(sys->apply_fault_plan(b).is_ok());
  sys->run_for(Duration::seconds(1.5));
  EXPECT_FALSE(sys->mote("m1")->online());
  sys->run_for(Duration::seconds(1));
  EXPECT_TRUE(sys->mote("m1")->online());
}

}  // namespace
}  // namespace aorta
