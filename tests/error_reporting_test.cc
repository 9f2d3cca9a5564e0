// Negative tests for error reporting at the declarative interface:
// parser diagnostics must point at the offending statement fragment,
// statements calling unknown functions or projecting unknown columns are
// rejected up front, and
// malformed XML profile documents must fail loudly with element/attribute
// context instead of silently defaulting fields.
#include <gtest/gtest.h>

#include <string>

#include "core/aorta.h"
#include "device/profile_io.h"
#include "query/parser.h"
#include "shard/plane.h"
#include "util/xml.h"

namespace aorta {
namespace {

// --------------------------------------------------- parser diagnostics

TEST(ParserDiagnosticsTest, ErrorsCarryOffsetAndFragment) {
  auto result = query::parse("SELECT s.temp FROM WHERE s.temp > 0");
  ASSERT_FALSE(result.is_ok());
  std::string msg = result.status().message();
  EXPECT_NE(msg.find("at offset"), std::string::npos) << msg;
  EXPECT_NE(msg.find("near 'WHERE"), std::string::npos) << msg;
}

TEST(ParserDiagnosticsTest, FragmentPointsAtTheBadToken) {
  auto result = query::parse("CREATE AQ q AS SELECT s.temp FROM sensor s "
                             "WHERE s.temp >");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("at offset"), std::string::npos)
      << result.status().message();

  auto garbage = query::parse("SELECT s.temp FROM sensor s WHERE > 3");
  ASSERT_FALSE(garbage.is_ok());
  EXPECT_NE(garbage.status().message().find("near '> 3'"), std::string::npos)
      << garbage.status().message();

  // Stray characters are caught by the lexer, which reports the offset.
  auto stray = query::parse("SELECT s.temp FROM sensor s WHERE ^ > 3");
  ASSERT_FALSE(stray.is_ok());
  EXPECT_NE(stray.status().message().find("'^' at offset"), std::string::npos)
      << stray.status().message();
}

TEST(ParserDiagnosticsTest, LongStatementsTruncateTheFragment) {
  std::string tail(200, 'x');
  auto result =
      query::parse("SELECT s.temp FROM sensor s WHERE > " + tail);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("...'"), std::string::npos)
      << result.status().message();
}

// ------------------------------------------------ unknown functions
//
// A call to a function the catalog does not know is rejected when the
// statement compiles, naming the function — not accepted and evaluated to
// NULL on every row.

bool names_function(const util::Status& status) {
  return status.message().find("unknown function: nosuchfn") !=
         std::string::npos;
}

TEST(UnknownFunctionTest, OneShotSelectIsRejected) {
  core::Aorta sys(core::Config{});
  ASSERT_TRUE(sys.add_mote("m1", {1, 0, 1}).is_ok());
  auto r = sys.exec("SELECT nosuchfn(s.temp) FROM sensor s");
  ASSERT_FALSE(r.is_ok());
  EXPECT_TRUE(names_function(r.status())) << r.status().to_string();
  // In a predicate, too.
  auto where = sys.exec("SELECT s.id FROM sensor s WHERE nosuchfn(s.temp) > 1");
  ASSERT_FALSE(where.is_ok());
  EXPECT_TRUE(names_function(where.status())) << where.status().to_string();
}

TEST(UnknownFunctionTest, CreateAqIsRejectedAndNotRegistered) {
  core::Aorta sys(core::Config{});
  ASSERT_TRUE(sys.add_mote("m1", {1, 0, 1}).is_ok());
  auto r = sys.exec("CREATE AQ q AS SELECT nosuchfn(s.temp) FROM sensor s");
  ASSERT_FALSE(r.is_ok());
  EXPECT_TRUE(names_function(r.status())) << r.status().to_string();
  EXPECT_TRUE(sys.executor().aq_names().empty());
  // Inside an aggregate argument as well.
  auto agg = sys.exec(
      "CREATE AQ w AS SELECT sum(nosuchfn(s.temp)) FROM sensor s WINDOW 2s");
  ASSERT_FALSE(agg.is_ok());
  EXPECT_TRUE(names_function(agg.status())) << agg.status().to_string();
  EXPECT_TRUE(sys.executor().aq_names().empty());
}

TEST(UnknownFunctionTest, ShardedPlaneReturnsTheWorkerCompileError) {
  core::Aorta sys(core::Config{});
  shard::Plane::Options options;
  options.num_shards = 2;
  shard::Plane plane(&sys, options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(plane.add_mote("m" + std::to_string(i), {double(i), 0, 1})
                    .is_ok());
  }
  auto run = [&](const std::string& sql) {
    util::Result<core::ExecResult> out = util::internal_error("not called");
    plane.exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
      out = std::move(r);
    });
    sys.run_for(util::Duration::seconds(3.0));
    return out;
  };

  auto select = run("SELECT nosuchfn(s.temp) FROM sensor s");
  ASSERT_FALSE(select.is_ok());
  EXPECT_TRUE(names_function(select.status())) << select.status().to_string();

  auto aq = run("CREATE AQ q AS SELECT nosuchfn(s.temp) FROM sensor s");
  ASSERT_FALSE(aq.is_ok());
  EXPECT_TRUE(names_function(aq.status())) << aq.status().to_string();
  EXPECT_TRUE(plane.czar().aq_names().empty());
}

// ------------------------------------- unknown projection columns
//
// A qualified projection naming an unknown alias, or a column its alias's
// table lacks, is rejected when the statement compiles with the WHERE
// clause's error texts — not accepted and projected as NULL on every row.

bool names_alias(const util::Status& status) {
  return status.message().find("unknown table alias: x") != std::string::npos;
}

bool names_column(const util::Status& status) {
  return status.message().find("table s has no column nosuch") !=
         std::string::npos;
}

TEST(UnknownProjectionTest, OneShotSelectIsRejected) {
  core::Aorta sys(core::Config{});
  ASSERT_TRUE(sys.add_mote("m1", {1, 0, 1}).is_ok());
  auto column = sys.exec("SELECT s.nosuch FROM sensor s");
  ASSERT_FALSE(column.is_ok());
  EXPECT_TRUE(names_column(column.status())) << column.status().to_string();
  auto alias = sys.exec("SELECT x.temp FROM sensor s");
  ASSERT_FALSE(alias.is_ok());
  EXPECT_TRUE(names_alias(alias.status())) << alias.status().to_string();
  // The same text as the WHERE clause's check.
  auto where = sys.exec("SELECT s.temp FROM sensor s WHERE x.temp > 1");
  ASSERT_FALSE(where.is_ok());
  EXPECT_EQ(where.status().message(), alias.status().message());
  // Star forms are unaffected.
  EXPECT_TRUE(sys.exec("SELECT count(*) FROM sensor s").is_ok());
  EXPECT_TRUE(sys.exec("SELECT * FROM sensor s").is_ok());
}

TEST(UnknownProjectionTest, CreateAqIsRejectedAndNotRegistered) {
  core::Aorta sys(core::Config{});
  ASSERT_TRUE(sys.add_mote("m1", {1, 0, 1}).is_ok());
  auto column = sys.exec("CREATE AQ q AS SELECT s.nosuch FROM sensor s");
  ASSERT_FALSE(column.is_ok());
  EXPECT_TRUE(names_column(column.status())) << column.status().to_string();
  auto alias = sys.exec(
      "CREATE AQ w AS SELECT sum(x.temp) FROM sensor s WINDOW 2s");
  ASSERT_FALSE(alias.is_ok());
  EXPECT_TRUE(names_alias(alias.status())) << alias.status().to_string();
  EXPECT_TRUE(sys.executor().aq_names().empty());
}

TEST(UnknownProjectionTest, ShardedPlaneReturnsTheWorkerCompileError) {
  core::Aorta sys(core::Config{});
  shard::Plane::Options options;
  options.num_shards = 2;
  shard::Plane plane(&sys, options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(plane.add_mote("m" + std::to_string(i), {double(i), 0, 1})
                    .is_ok());
  }
  auto run = [&](const std::string& sql) {
    util::Result<core::ExecResult> out = util::internal_error("not called");
    plane.exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
      out = std::move(r);
    });
    sys.run_for(util::Duration::seconds(3.0));
    return out;
  };

  auto select = run("SELECT s.nosuch FROM sensor s");
  ASSERT_FALSE(select.is_ok());
  EXPECT_TRUE(names_column(select.status())) << select.status().to_string();

  auto aq = run("CREATE AQ q AS SELECT x.temp FROM sensor s");
  ASSERT_FALSE(aq.is_ok());
  EXPECT_TRUE(names_alias(aq.status())) << aq.status().to_string();
  EXPECT_TRUE(plane.czar().aq_names().empty());
}

// ------------------------------------------------- strict XML numerics

TEST(XmlCheckedAttrTest, AbsentAttributeYieldsFallback) {
  auto doc = util::xml_parse("<a/>");
  ASSERT_TRUE(doc.is_ok());
  auto d = doc.value()->attr_double_checked("missing", 1.5);
  ASSERT_TRUE(d.is_ok());
  EXPECT_DOUBLE_EQ(d.value(), 1.5);
  auto i = doc.value()->attr_int_checked("missing", 7);
  ASSERT_TRUE(i.is_ok());
  EXPECT_EQ(i.value(), 7);
}

TEST(XmlCheckedAttrTest, MalformedValueIsAParseErrorWithContext) {
  auto doc = util::xml_parse("<link speed=\"fast\" count=\"12xy\"/>");
  ASSERT_TRUE(doc.is_ok());
  auto d = doc.value()->attr_double_checked("speed", 0.0);
  ASSERT_FALSE(d.is_ok());
  EXPECT_EQ(d.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(d.status().message().find("link"), std::string::npos);
  EXPECT_NE(d.status().message().find("speed"), std::string::npos);

  auto i = doc.value()->attr_int_checked("count", 0);
  ASSERT_FALSE(i.is_ok());
  EXPECT_NE(i.status().message().find("count"), std::string::npos);
}

// ------------------------------------------- device profile documents

TEST(ProfileStrictParsingTest, MalformedTimeoutIsRejectedWithContext) {
  auto parsed = device::device_type_from_xml(
      "<device_type id=\"x\" probe_timeout_ms=\"soon\">"
      "<catalog device_type=\"x\"/></device_type>");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("probe_timeout_ms"),
            std::string::npos)
      << parsed.status().to_string();
}

TEST(ProfileStrictParsingTest, MalformedLinkAttributeIsRejected) {
  auto parsed = device::device_type_from_xml(
      "<device_type id=\"x\" probe_timeout_ms=\"2000\">"
      "<link latency_mean_s=\"0.002ish\"/>"
      "<catalog device_type=\"x\"/></device_type>");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("latency_mean_s"),
            std::string::npos)
      << parsed.status().to_string();
}

TEST(ProfileStrictParsingTest, FacadeSurfacesXmlErrorsWithContext) {
  core::Aorta sys(core::Config{});
  // A well-formed document whose numeric field is garbage must not
  // register a type with silently-defaulted fields.
  auto status = sys.register_type_from_xml(
      "<device_type id=\"flaky\" probe_timeout_ms=\"NaNms\">"
      "<catalog device_type=\"flaky\"/></device_type>");
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("probe_timeout_ms"), std::string::npos)
      << status.to_string();
  EXPECT_EQ(sys.registry().type_info("flaky"), nullptr);
}

}  // namespace
}  // namespace aorta
