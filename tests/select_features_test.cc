// Tests for one-shot SELECT features: aggregates, projections over joins,
// expression projections, and multi-action continuous queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/aorta.h"

namespace aorta {
namespace {

using device::Value;
using util::Duration;

struct SelectFixture : public ::testing::Test {
  SelectFixture() : sys(core::Config{.seed = 17}) {
    for (int i = 1; i <= 4; ++i) {
      std::string id = "m" + std::to_string(i);
      EXPECT_TRUE(sys.add_mote(id, {static_cast<double>(i), 0, 1}).is_ok());
      sys.mote(id)->reliability().glitch_prob = 0.0;
      auto link = net::LinkModel::mote_radio();
      link.loss_prob = 0.0;
      EXPECT_TRUE(sys.network().set_link(id, link).is_ok());
      // temp: 20, 22, 24, 26
      (void)sys.mote(id)->set_signal(
          "temp", devices::constant_signal(18.0 + 2.0 * i));
    }
  }

  // Returns the single value of a single-row, single-column result.
  Value scalar(const std::string& sql) {
    auto r = sys.exec(sql);
    EXPECT_TRUE(r.is_ok()) << sql << ": " << r.status().to_string();
    if (!r.is_ok() || r->rows.size() != 1 || r->rows[0].size() != 1) {
      ADD_FAILURE() << sql << " did not yield one scalar";
      return Value{};
    }
    return r->rows[0][0].second;
  }

  core::Aorta sys;
};

TEST_F(SelectFixture, CountAllRows) {
  EXPECT_TRUE(device::value_equal(scalar("SELECT count() FROM sensor s"),
                                  Value{std::int64_t{4}}));
}

TEST_F(SelectFixture, CountWithPredicate) {
  EXPECT_TRUE(device::value_equal(
      scalar("SELECT count(s.id) FROM sensor s WHERE s.temp > 23"),
      Value{std::int64_t{2}}));
}

TEST_F(SelectFixture, AvgMinMaxSum) {
  Value avg = scalar("SELECT avg(s.temp) FROM sensor s");
  double x = 0;
  ASSERT_TRUE(device::value_as_double(avg, &x));
  EXPECT_NEAR(x, 23.0, 1e-9);

  ASSERT_TRUE(device::value_as_double(
      scalar("SELECT min(s.temp) FROM sensor s"), &x));
  EXPECT_NEAR(x, 20.0, 1e-9);
  ASSERT_TRUE(device::value_as_double(
      scalar("SELECT max(s.temp) FROM sensor s"), &x));
  EXPECT_NEAR(x, 26.0, 1e-9);
  ASSERT_TRUE(device::value_as_double(
      scalar("SELECT sum(s.temp) FROM sensor s"), &x));
  EXPECT_NEAR(x, 92.0, 1e-9);
}

TEST_F(SelectFixture, MultipleAggregatesInOneQuery) {
  auto r = sys.exec("SELECT count(), avg(s.temp), max(s.temp) FROM sensor s");
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(r->rows[0].size(), 3u);
}

TEST_F(SelectFixture, AggregateOverEmptyMatchSet) {
  EXPECT_TRUE(device::value_equal(
      scalar("SELECT count() FROM sensor s WHERE s.temp > 1000"),
      Value{std::int64_t{0}}));
  // AVG of nothing is NULL.
  Value avg = scalar("SELECT avg(s.temp) FROM sensor s WHERE s.temp > 1000");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(avg));
}

TEST_F(SelectFixture, MixingAggregatesAndColumnsRejected) {
  EXPECT_FALSE(sys.exec("SELECT s.id, count() FROM sensor s").is_ok());
  EXPECT_FALSE(sys.exec("SELECT avg(s.temp, s.light) FROM sensor s").is_ok());
  EXPECT_FALSE(sys.exec("SELECT sum() FROM sensor s").is_ok());
}

TEST_F(SelectFixture, ExpressionProjection) {
  auto r = sys.exec("SELECT s.id, s.temp * 9 / 5 + 32 FROM sensor s "
                    "WHERE s.id = 'm1'");
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  double fahrenheit = 0;
  ASSERT_TRUE(device::value_as_double(r->rows[0][1].second, &fahrenheit));
  EXPECT_NEAR(fahrenheit, 68.0, 1e-9);
}

TEST_F(SelectFixture, StarProjectionListsAllColumns) {
  auto r = sys.exec("SELECT * FROM sensor s WHERE s.id = 'm2'");
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->rows.size(), 1u);
  // One column per catalog attribute.
  EXPECT_EQ(r->rows[0].size(),
            devices::sensor_type_info().catalog.attrs().size());
}

// SELECT * expands at compile time into qualified column refs: aliases in
// sorted order, each table's attributes in catalog order, labelled
// "alias.attr". One-shot SELECTs and continuous queries share the rule, so
// a CREATE AQ ... SELECT * delivers every attribute too.
TEST_F(SelectFixture, StarExpandsToEveryQualifiedColumnInBothModes) {
  const device::DeviceTypeInfo sensor = devices::sensor_type_info();
  const device::DeviceTypeInfo camera = devices::camera_type_info();
  std::vector<std::string> sensor_labels;
  for (const auto& attr : sensor.catalog.attrs()) {
    sensor_labels.push_back("s." + attr.name);
  }
  auto labels = [](const query::Row& row) {
    std::vector<std::string> out;
    for (const auto& [name, value] : row) out.push_back(name);
    return out;
  };

  auto r = sys.exec("SELECT * FROM sensor s WHERE s.id = 'm2'");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(labels(r->rows[0]), sensor_labels);
  EXPECT_TRUE(device::value_equal(r->rows[0][0].second,
                                  Value{std::string("m2")}));

  // Two tables: the camera alias "a" sorts before "s", whatever the FROM
  // clause order.
  ASSERT_TRUE(sys.add_camera("cam1", "10.0.0.9", {{0, 0, 3}, 0.0}).is_ok());
  sys.camera("cam1")->reliability().glitch_prob = 0.0;
  auto joined = sys.exec("SELECT * FROM sensor s, camera a WHERE s.id = 'm2'");
  ASSERT_TRUE(joined.is_ok()) << joined.status().to_string();
  ASSERT_EQ(joined->rows.size(), 1u);
  std::vector<std::string> join_labels;
  for (const auto& attr : camera.catalog.attrs()) {
    join_labels.push_back("a." + attr.name);
  }
  join_labels.insert(join_labels.end(), sensor_labels.begin(),
                     sensor_labels.end());
  EXPECT_EQ(labels(joined->rows[0]), join_labels);

  // Continuous: a level-triggered AQ delivers the same columns each epoch.
  ASSERT_TRUE(
      sys.exec("CREATE AQ star AS SELECT * FROM sensor s WHERE s.id = 'm2'")
          .is_ok());
  sys.run_for(Duration::seconds(3));
  auto rows = sys.executor().recent_results("star");
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_EQ(labels(row.row), sensor_labels);
    EXPECT_TRUE(device::value_equal(row.row[0].second,
                                    Value{std::string("m2")}));
    double temp = 0;
    const std::size_t temp_col = static_cast<std::size_t>(
        std::find(sensor_labels.begin(), sensor_labels.end(), "s.temp") -
        sensor_labels.begin());
    ASSERT_LT(temp_col, row.row.size());
    ASSERT_TRUE(device::value_as_double(row.row[temp_col].second, &temp));
    EXPECT_DOUBLE_EQ(temp, 22.0);
  }
}

TEST_F(SelectFixture, OneShotJoinMayUseSensoryAttrsOnBothTables) {
  // Camera head status (sensory) joined against sensor temperature
  // (sensory): rejected in continuous mode, but one-shot SELECTs scan
  // every table live.
  ASSERT_TRUE(sys.add_camera("camx", "10.0.0.7", {{0, 0, 3}, 0.0}).is_ok());
  sys.camera("camx")->reliability().glitch_prob = 0.0;
  sys.camera("camx")->set_head(devices::PtzPosition{42, -10, 2});

  auto r = sys.exec("SELECT s.id, c.pan FROM sensor s, camera c "
                    "WHERE s.temp > 23 AND c.pan > 0");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->rows.size(), 2u);  // m3, m4 x the one camera
  double pan = 0;
  ASSERT_TRUE(device::value_as_double(r->rows[0][1].second, &pan));
  EXPECT_DOUBLE_EQ(pan, 42.0);

  // The same shape as a continuous query is still rejected.
  EXPECT_FALSE(sys.exec("CREATE AQ bad AS SELECT photo(c.ip, s.loc, 'd') "
                        "FROM sensor s, camera c "
                        "WHERE s.temp > 23 AND c.pan > 0")
                   .is_ok());
}

TEST_F(SelectFixture, ExplainDescribesThePlan) {
  auto r = sys.exec("EXPLAIN SELECT s.id FROM sensor s WHERE s.temp > 25");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_NE(r->message.find("event table: s (sensor)"), std::string::npos);
  EXPECT_NE(r->message.find("edge-triggered"), std::string::npos);
  EXPECT_NE(r->message.find("(s.temp > 25)"), std::string::npos);

  // EXPLAIN does not register anything.
  auto queries = sys.exec("SHOW QUERIES");
  ASSERT_TRUE(queries.is_ok());
  EXPECT_TRUE(queries->rows.empty());
}

TEST_F(SelectFixture, ExplainCreateAqShowsActionsAndPushdown) {
  ASSERT_TRUE(sys.add_camera("cam1", "10.0.0.9", {{0, 0, 3}, 0.0}).is_ok());
  auto r = sys.exec(
      "EXPLAIN CREATE AQ snap AS SELECT photo(c.ip, s.loc, 'd') "
      "FROM sensor s, camera c "
      "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_NE(r->message.find("photo on camera via candidate table c"),
            std::string::npos);
  EXPECT_NE(r->message.find("coverage(c.id, s.loc)"), std::string::npos);
  EXPECT_NE(r->message.find("projection pushdown"), std::string::npos);
}

TEST_F(SelectFixture, ExplainRejectsBadTargets) {
  EXPECT_FALSE(sys.exec("EXPLAIN DROP AQ x").is_ok());
  EXPECT_FALSE(sys.exec("EXPLAIN SELECT x FROM warp").is_ok());
}

// --------------------------------------------------- multi-action queries

TEST(MultiActionTest, OneQueryTwoActionsTwoDeviceTypes) {
  core::Aorta sys(core::Config{.seed = 23});
  ASSERT_TRUE(sys.add_camera("cam1", "10.0.0.1", {{0, 0, 3}, 0.0}).is_ok());
  sys.camera("cam1")->reliability().glitch_prob = 0.0;
  sys.camera("cam1")->set_fatigue_coeff(0.0);
  ASSERT_TRUE(sys.add_mote("mote1", {2, 1, 1}).is_ok());
  sys.mote("mote1")->reliability().glitch_prob = 0.0;
  auto link = net::LinkModel::mote_radio();
  link.loss_prob = 0.0;
  ASSERT_TRUE(sys.network().set_link("mote1", link).is_ok());

  auto script = std::make_unique<devices::ScriptedSignal>(0.0);
  script->add_spike(util::TimePoint::from_micros(10'000'000),
                    Duration::seconds(2), 900.0);
  (void)sys.mote("mote1")->set_signal("accel_x", std::move(script));

  // On movement: photograph the spot AND beep the mote that sensed it —
  // two embedded actions on two device types from one query.
  ASSERT_TRUE(sys.exec("CREATE AQ both AS "
                       "SELECT photo(c.ip, s.loc, 'd'), beep(s.id) "
                       "FROM sensor s, camera c "
                       "WHERE s.accel_x > 500 AND coverage(c.id, s.loc)")
                  .is_ok());
  sys.run_for(Duration::seconds(60));

  auto as = sys.action_stats("both");
  EXPECT_EQ(as.requests, 2u);  // one photo request + one beep request
  EXPECT_EQ(as.usable, 2u);
  EXPECT_EQ(sys.camera("cam1")->camera_stats().photos_ok, 1u);
  EXPECT_EQ(sys.mote("mote1")->beeps(), 1u);
  // Two distinct shared operators exist (photo and beep).
  EXPECT_EQ(sys.executor().operators().size(), 2u);
}

}  // namespace
}  // namespace aorta
