// Tests for device-type XML bundles (profile persistence).
#include <gtest/gtest.h>

#include "core/aorta.h"
#include "device/profile_io.h"
#include "devices/camera.h"
#include "devices/mote.h"
#include "devices/phone.h"
#include "devices/smart_lock.h"

namespace aorta {
namespace {

TEST(ProfileIoTest, EveryBuiltinTypeRoundTrips) {
  for (const auto& info :
       {devices::camera_type_info(), devices::sensor_type_info(),
        devices::phone_type_info(), devices::doorlock_type_info()}) {
    std::string xml = device::device_type_to_xml(info);
    auto parsed = device::device_type_from_xml(xml);
    ASSERT_TRUE(parsed.is_ok()) << info.type_id << ": "
                                << parsed.status().to_string();
    const device::DeviceTypeInfo& round = parsed.value();
    EXPECT_EQ(round.type_id, info.type_id);
    EXPECT_EQ(round.probe_timeout, info.probe_timeout);
    EXPECT_DOUBLE_EQ(round.link.latency_mean_s, info.link.latency_mean_s);
    EXPECT_DOUBLE_EQ(round.link.loss_prob, info.link.loss_prob);
    ASSERT_EQ(round.catalog.attrs().size(), info.catalog.attrs().size());
    for (std::size_t i = 0; i < info.catalog.attrs().size(); ++i) {
      EXPECT_EQ(round.catalog.attrs()[i].name, info.catalog.attrs()[i].name);
      EXPECT_EQ(round.catalog.attrs()[i].sensory,
                info.catalog.attrs()[i].sensory);
    }
    ASSERT_EQ(round.op_costs.ops().size(), info.op_costs.ops().size());
    for (const auto& op : info.op_costs.ops()) {
      const device::AtomicOpCost* found = round.op_costs.find(op.name);
      ASSERT_NE(found, nullptr) << op.name;
      EXPECT_DOUBLE_EQ(found->fixed_s, op.fixed_s);
      EXPECT_DOUBLE_EQ(found->per_unit_s, op.per_unit_s);
    }
  }
}

TEST(ProfileIoTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(device::device_type_from_xml("<wrong/>").is_ok());
  EXPECT_FALSE(device::device_type_from_xml("<device_type/>").is_ok());
  // Missing catalog.
  EXPECT_FALSE(
      device::device_type_from_xml("<device_type id=\"x\"><link/></device_type>")
          .is_ok());
  // Catalog type mismatch.
  EXPECT_FALSE(device::device_type_from_xml(
                   "<device_type id=\"x\">"
                   "<catalog device_type=\"y\"/></device_type>")
                   .is_ok());
}

TEST(ProfileIoTest, FacadeExportsAndReimports) {
  core::Aorta sys(core::Config{});
  auto exported = sys.export_device_types();
  EXPECT_EQ(exported.size(), 3u);  // camera, sensor, phone
  ASSERT_TRUE(exported.count("camera"));

  // Re-register one of the exports in a fresh system under a new name.
  std::string xml = exported.at("camera");
  std::string renamed = xml;
  auto pos = renamed.find("\"camera\"");
  while (pos != std::string::npos) {
    renamed.replace(pos, 8, "\"camera2\"");
    pos = renamed.find("\"camera\"", pos);
  }
  ASSERT_TRUE(sys.register_type_from_xml(renamed).is_ok());
  EXPECT_NE(sys.registry().type_info("camera2"), nullptr);
  EXPECT_EQ(sys.registry().type_info("camera2")->catalog.attrs().size(),
            devices::camera_type_info().catalog.attrs().size());
  // Duplicate registration rejected.
  EXPECT_FALSE(sys.register_type_from_xml(xml).is_ok());
  // Garbage rejected.
  EXPECT_FALSE(sys.register_type_from_xml("not xml").is_ok());
}

}  // namespace
}  // namespace aorta
