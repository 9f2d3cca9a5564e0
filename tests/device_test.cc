// Tests for the device framework: value types, base Device behaviour
// (probe / read_attr / overload model), and the registry.
#include <gtest/gtest.h>

#include "device/registry.h"
#include "net/rpc.h"
#include "devices/mote.h"

namespace aorta {
namespace {

using device::Location;
using device::Value;
using util::Duration;

// ------------------------------------------------------------ value types

TEST(LocationTest, DistanceAndEquality) {
  Location a{0, 0, 0}, b{3, 4, 0};
  EXPECT_DOUBLE_EQ(a.distance_to(b), 5.0);
  EXPECT_EQ(a, (Location{0, 0, 0}));
  EXPECT_NE(a, b);
}

TEST(LocationTest, ParseAcceptsBothForms) {
  Location loc;
  EXPECT_TRUE(Location::parse("(1, 2.5, -3)", &loc));
  EXPECT_EQ(loc, (Location{1, 2.5, -3}));
  EXPECT_TRUE(Location::parse("4,5,6", &loc));
  EXPECT_EQ(loc, (Location{4, 5, 6}));
  EXPECT_FALSE(Location::parse("1,2", &loc));
  EXPECT_FALSE(Location::parse("a,b,c", &loc));
  EXPECT_FALSE(Location::parse("", &loc));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(device::value_to_string(Value{}), "NULL");
  EXPECT_EQ(device::value_to_string(Value{true}), "TRUE");
  EXPECT_EQ(device::value_to_string(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(device::value_to_string(Value{2.5}), "2.5");
  EXPECT_EQ(device::value_to_string(Value{std::string("x")}), "'x'");
}

TEST(ValueTest, NumericCoercion) {
  double out = 0;
  EXPECT_TRUE(device::value_as_double(Value{std::int64_t{3}}, &out));
  EXPECT_DOUBLE_EQ(out, 3.0);
  EXPECT_TRUE(device::value_as_double(Value{true}, &out));
  EXPECT_DOUBLE_EQ(out, 1.0);
  EXPECT_FALSE(device::value_as_double(Value{std::string("3")}, &out));
  EXPECT_FALSE(device::value_as_double(Value{}, &out));
}

TEST(ValueTest, TruthinessAndEquality) {
  EXPECT_FALSE(device::value_truthy(Value{}));
  EXPECT_FALSE(device::value_truthy(Value{std::int64_t{0}}));
  EXPECT_TRUE(device::value_truthy(Value{0.5}));
  EXPECT_FALSE(device::value_truthy(Value{std::string()}));
  EXPECT_TRUE(device::value_truthy(Value{Location{}}));
  // Cross-type numeric equality.
  EXPECT_TRUE(device::value_equal(Value{std::int64_t{2}}, Value{2.0}));
  EXPECT_FALSE(device::value_equal(Value{std::string("2")}, Value{2.0}));
}

TEST(AttrTypeTest, NamesRoundTrip) {
  for (auto t : {device::AttrType::kBool, device::AttrType::kInt,
                 device::AttrType::kDouble, device::AttrType::kString,
                 device::AttrType::kLocation}) {
    device::AttrType parsed;
    ASSERT_TRUE(device::attr_type_from_name(device::attr_type_name(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  device::AttrType parsed;
  EXPECT_FALSE(device::attr_type_from_name("quaternion", &parsed));
}

// --------------------------------------------------------------- fixture

struct DeviceFixture : public ::testing::Test {
  DeviceFixture()
      : loop(&clock),
        network(&loop, util::Rng(1)),
        registry(&network, &loop, util::Rng(2)) {
    (void)registry.register_type(devices::sensor_type_info());
  }

  // Engine-side endpoint for driving device protocols directly.
  struct Probe : public net::Endpoint {
    explicit Probe(net::Network* network) : rpc(network, "tester") {}
    void on_message(const net::Message& msg) override { rpc.on_reply(msg); }
    net::RpcClient rpc;
  };

  util::SimClock clock;
  util::EventLoop loop;
  net::Network network;
  device::DeviceRegistry registry;
};

// --------------------------------------------------------------- registry

TEST_F(DeviceFixture, AddLookupRemove) {
  ASSERT_TRUE(registry.add(std::make_unique<devices::Mica2Mote>(
                               "m1", Location{1, 2, 3}))
                  .is_ok());
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_NE(registry.find("m1"), nullptr);
  EXPECT_EQ(registry.find("m1")->type_id(), "sensor");
  EXPECT_TRUE(network.attached("m1"));

  EXPECT_EQ(registry.ids_of_type("sensor"),
            (std::vector<device::DeviceId>{"m1"}));
  EXPECT_TRUE(registry.ids_of_type("camera").empty());

  ASSERT_TRUE(registry.remove("m1").is_ok());
  EXPECT_EQ(registry.find("m1"), nullptr);
  EXPECT_FALSE(network.attached("m1"));
  EXPECT_FALSE(registry.remove("m1").is_ok());
}

TEST_F(DeviceFixture, RejectsDuplicateAndUnknownType) {
  ASSERT_TRUE(
      registry.add(std::make_unique<devices::Mica2Mote>("m1", Location{}))
          .is_ok());
  EXPECT_FALSE(
      registry.add(std::make_unique<devices::Mica2Mote>("m1", Location{}))
          .is_ok());

  // A device whose type was never registered is rejected.
  class AlienDevice : public device::Device {
   public:
    AlienDevice() : Device("alien1", "alien", Location{}) {}
    util::Result<Value> read_attribute(const std::string&) override {
      return Value{};
    }
    std::map<std::string, double> status_snapshot() const override { return {}; }

   protected:
    void handle_op(const net::Message&) override {}
  };
  EXPECT_FALSE(registry.add(std::make_unique<AlienDevice>()).is_ok());
}

TEST_F(DeviceFixture, StaticAttrsAreCached) {
  ASSERT_TRUE(registry.add(std::make_unique<devices::Mica2Mote>(
                               "m1", Location{1, 2, 3}))
                  .is_ok());
  const auto* attrs = registry.static_attrs("m1");
  ASSERT_NE(attrs, nullptr);
  EXPECT_TRUE(device::value_equal(attrs->at("id"), Value{std::string("m1")}));
  EXPECT_TRUE(device::value_equal(attrs->at("loc"), Value{Location{1, 2, 3}}));
  EXPECT_EQ(registry.static_attrs("ghost"), nullptr);
}

TEST_F(DeviceFixture, TypeRegistrationRules) {
  EXPECT_FALSE(registry.register_type(devices::sensor_type_info()).is_ok());
  device::DeviceTypeInfo empty;
  EXPECT_FALSE(registry.register_type(empty).is_ok());
  EXPECT_NE(registry.type_info("sensor"), nullptr);
  EXPECT_EQ(registry.type_info("toaster"), nullptr);
}

// --------------------------------------------------- base device protocol

TEST_F(DeviceFixture, ProbeReturnsStatusSnapshot) {
  ASSERT_TRUE(
      registry.add(std::make_unique<devices::Mica2Mote>("m1", Location{}))
          .is_ok());
  ASSERT_TRUE(network.set_link("m1", net::LinkModel::perfect()).is_ok());
  Probe probe(&network);
  ASSERT_TRUE(network.attach("tester", &probe, net::LinkModel::perfect()).is_ok());

  bool answered = false;
  probe.rpc.call("m1", "probe", {}, Duration::seconds(5),
                 [&](util::Result<net::Message> reply) {
                   answered = true;
                   ASSERT_TRUE(reply.is_ok());
                   EXPECT_EQ(reply.value().kind, "probe_ack");
                   EXPECT_EQ(reply.value().field_int("busy"), 0);
                   EXPECT_GT(reply.value().field_double("status.battery_v"), 2.0);
                 });
  loop.run_all();
  EXPECT_TRUE(answered);
}

TEST_F(DeviceFixture, OfflineDeviceIsSilent) {
  auto mote = std::make_unique<devices::Mica2Mote>("m1", Location{});
  devices::Mica2Mote* raw = mote.get();
  ASSERT_TRUE(registry.add(std::move(mote)).is_ok());
  ASSERT_TRUE(network.set_link("m1", net::LinkModel::perfect()).is_ok());
  raw->set_online(false);

  Probe probe(&network);
  ASSERT_TRUE(network.attach("tester", &probe, net::LinkModel::perfect()).is_ok());
  bool timed_out = false;
  probe.rpc.call("m1", "probe", {}, Duration::millis(100),
                 [&](util::Result<net::Message> reply) {
                   timed_out = !reply.is_ok();
                 });
  loop.run_all();
  EXPECT_TRUE(timed_out);

  // Back online, it answers again.
  raw->set_online(true);
  bool answered = false;
  probe.rpc.call("m1", "probe", {}, Duration::millis(500),
                 [&](util::Result<net::Message> reply) {
                   answered = reply.is_ok();
                 });
  loop.run_all();
  EXPECT_TRUE(answered);
}

// A mote whose board also reports an int and a string reading, so one
// device exercises every sensory value type on the read_attr wire.
class LabelledMote : public devices::Mica2Mote {
 public:
  using Mica2Mote::Mica2Mote;
  util::Result<Value> read_attribute(const std::string& name) override {
    if (name == "count") return Value{std::int64_t{-42}};
    if (name == "label") return Value{std::string("north 'wing'")};
    return Mica2Mote::read_attribute(name);
  }
};

TEST_F(DeviceFixture, ReadAttrReturnsTypedValueAndErrors) {
  auto mote = std::make_unique<LabelledMote>("m1", Location{});
  (void)mote->set_signal("temp", devices::constant_signal(25.5));
  mote->reliability().glitch_prob = 0.0;
  ASSERT_TRUE(registry.add(std::move(mote)).is_ok());
  ASSERT_TRUE(network.set_link("m1", net::LinkModel::perfect()).is_ok());

  Probe probe(&network);
  ASSERT_TRUE(network.attach("tester", &probe, net::LinkModel::perfect()).is_ok());
  int answered = 0;
  probe.rpc.call("m1", "read_attr", {{"attr", "temp"}}, Duration::seconds(5),
                 [&](util::Result<net::Message> reply) {
                   ++answered;
                   ASSERT_TRUE(reply.is_ok());
                   EXPECT_EQ(reply.value().field("ok"), "1");
                   // One encoding per value: a type tag and the value.
                   EXPECT_EQ(reply.value().fields.size(), 3u);
                   EXPECT_EQ(reply.value().field("type"), "double");
                   EXPECT_DOUBLE_EQ(reply.value().field_double("value"), 25.5);
                 });
  probe.rpc.call("m1", "read_attr", {{"attr", "count"}}, Duration::seconds(5),
                 [&](util::Result<net::Message> reply) {
                   ++answered;
                   ASSERT_TRUE(reply.is_ok());
                   EXPECT_EQ(reply.value().fields.size(), 3u);
                   EXPECT_EQ(reply.value().field("type"), "int");
                   EXPECT_EQ(reply.value().field("value"), "-42");
                 });
  probe.rpc.call("m1", "read_attr", {{"attr", "label"}}, Duration::seconds(5),
                 [&](util::Result<net::Message> reply) {
                   ++answered;
                   ASSERT_TRUE(reply.is_ok());
                   EXPECT_EQ(reply.value().fields.size(), 3u);
                   EXPECT_EQ(reply.value().field("type"), "string");
                   EXPECT_EQ(reply.value().field("value"), "north 'wing'");
                 });
  probe.rpc.call("m1", "read_attr", {{"attr", "nonexistent"}},
                 Duration::seconds(5), [&](util::Result<net::Message> reply) {
                   ++answered;
                   ASSERT_TRUE(reply.is_ok());
                   EXPECT_EQ(reply.value().field("ok"), "0");
                 });
  loop.run_all();
  EXPECT_EQ(answered, 4);
}

TEST_F(DeviceFixture, BusyDeviceDropsRequestsProbabilistically) {
  auto mote = std::make_unique<devices::Mica2Mote>("m1", Location{});
  devices::Mica2Mote* raw = mote.get();
  raw->reliability().glitch_prob = 0.0;
  raw->reliability().busy_drop_base = 1.0;  // always drop when busy
  ASSERT_TRUE(registry.add(std::move(mote)).is_ok());
  ASSERT_TRUE(network.set_link("m1", net::LinkModel::perfect()).is_ok());

  Probe probe(&network);
  ASSERT_TRUE(network.attach("tester", &probe, net::LinkModel::perfect()).is_ok());

  int ok = 0, timeouts = 0;
  // First beep occupies the mote (beep service time 0.1 s); the second
  // arrives while busy and is dropped.
  probe.rpc.call("m1", "beep", {}, Duration::seconds(5),
                 [&](util::Result<net::Message> reply) {
                   reply.is_ok() ? ++ok : ++timeouts;
                 });
  loop.run_for(Duration::millis(10));  // ensure ordering: beep in progress
  probe.rpc.call("m1", "beep", {}, Duration::millis(300),
                 [&](util::Result<net::Message> reply) {
                   reply.is_ok() ? ++ok : ++timeouts;
                 });
  loop.run_all();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(raw->op_stats().requests_dropped_busy, 1u);
}

}  // namespace
}  // namespace aorta
