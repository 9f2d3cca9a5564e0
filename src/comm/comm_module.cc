#include "comm/comm_module.h"

#include "devices/camera.h"
#include "util/logging.h"
#include "util/strings.h"

namespace aorta::comm {

using aorta::util::Duration;
using aorta::util::Result;
using aorta::util::Status;
using device::Value;

// -------------------------------------------------------------- EngineNode

EngineNode::EngineNode(net::Network* network, net::NodeId node_id)
    : network_(network), node_id_(std::move(node_id)),
      rpc_(network, node_id_) {
  // The engine host sits on the wired LAN.
  Status attach = network_->attach(node_id_, this, net::LinkModel::lan());
  if (!attach.is_ok()) {
    AORTA_LOG(kError, "comm") << "engine attach failed: " << attach.to_string();
  }
}

EngineNode::~EngineNode() { (void)network_->detach(node_id_); }

void EngineNode::on_message(const net::Message& msg) {
  if (rpc_.on_reply(msg)) return;
  if (push_handler_) push_handler_(msg);
}

// -------------------------------------------------------------- CommModule

CommModule::CommModule(device::DeviceRegistry* registry, EngineNode* engine,
                       device::DeviceTypeId type_id)
    : registry_(registry), engine_(engine), type_id_(std::move(type_id)) {}

Duration CommModule::default_timeout() const {
  const device::DeviceTypeInfo* info = registry_->type_info(type_id_);
  return info == nullptr ? Duration::millis(2000) : info->probe_timeout;
}

void CommModule::connect(const device::DeviceId& id,
                         std::function<void(Status)> done) {
  request(id, "probe", {}, default_timeout(),
          [this, id, done = std::move(done)](Result<net::Message> reply) {
            if (!reply.is_ok()) {
              connected_.erase(id);
              done(reply.status());
              return;
            }
            connected_.insert(id);
            done(Status::ok());
          });
}

void CommModule::close(const device::DeviceId& id) { connected_.erase(id); }

void CommModule::request(const device::DeviceId& id, std::string kind,
                         std::map<std::string, std::string> fields,
                         Duration timeout, ReplyCallback done,
                         std::size_t payload_bytes) {
  if (timeout == Duration::zero()) timeout = default_timeout();
  if (health_ != nullptr && kind == "probe") {
    // Probe outcomes feed health supervision before the caller sees them,
    // so a quarantined device's recovery is visible to whoever probed it.
    done = [health = health_, id, inner = std::move(done)](
               Result<net::Message> reply) {
      health->report(id, device::HealthOutcomeKind::kProbe, reply.is_ok());
      inner(std::move(reply));
    };
  }
  engine_->rpc().call(id, std::move(kind), std::move(fields), timeout,
                      std::move(done), payload_bytes);
}

void CommModule::read_attr(const device::DeviceId& id, const std::string& attr,
                           std::function<void(Result<Value>)> done) {
  if (health_ != nullptr) {
    // Report at the decoded-Result level so application-level failures
    // (glitched reads) count against the device, not just timeouts.
    done = [health = health_, id, inner = std::move(done)](Result<Value> v) {
      health->report(id, device::HealthOutcomeKind::kRead, v.is_ok());
      inner(std::move(v));
    };
  }
  request(id, "read_attr", {{"attr", attr}}, default_timeout(),
          [attr, id, done = std::move(done)](Result<net::Message> reply) {
            if (!reply.is_ok()) {
              done(Result<Value>(reply.status()));
              return;
            }
            const net::Message& msg = reply.value();
            if (msg.field("ok") != "1") {
              done(Result<Value>(aorta::util::action_failed_error(
                  "read_attr(" + attr + ") on " + id + ": " + msg.field("error"))));
              return;
            }
            // The device sends each value once, tagged with its type. Only
            // doubles, ints and strings are sensory; any other tag (or
            // none) lands in the default case.
            device::AttrType type = device::AttrType::kBool;
            (void)device::attr_type_from_name(msg.field("type"), &type);
            switch (type) {
              case device::AttrType::kDouble:
                done(Result<Value>(Value{msg.field_double("value")}));
                return;
              case device::AttrType::kInt:
                done(Result<Value>(Value{msg.field_int("value")}));
                return;
              case device::AttrType::kString:
                done(Result<Value>(Value{msg.field("value")}));
                return;
              default:
                done(Result<Value>(aorta::util::internal_error(
                    "read_attr(" + attr + ") on " + id +
                    ": unsupported value type '" + msg.field("type") + "'")));
                return;
            }
          });
}

// -------------------------------------------------------------- CameraComm

void CameraComm::photo(const device::DeviceId& id,
                       const devices::PtzPosition& position,
                       const std::string& size,
                       std::function<void(Result<PhotoOutcome>)> done) {
  std::map<std::string, std::string> fields;
  net::Message encode;  // reuse the typed setters for consistent formatting
  encode.set_double("pan", position.pan_deg)
      .set_double("tilt", position.tilt_deg)
      .set_double("zoom", position.zoom)
      .set("size", size);
  fields = encode.fields;

  // Allow the worst-case head sweep plus capture and transfer before
  // declaring the camera dead.
  Duration timeout = Duration::seconds(8.0);
  request(id, "photo", std::move(fields), timeout,
          [done = std::move(done)](Result<net::Message> reply) {
            if (!reply.is_ok()) {
              done(Result<PhotoOutcome>(reply.status()));
              return;
            }
            const net::Message& msg = reply.value();
            PhotoOutcome outcome;
            outcome.ok = msg.field("ok") == "1";
            outcome.blurred = msg.field("blurred") == "1";
            outcome.wrong_position = msg.field("wrong_position") == "1";
            outcome.pan_deg = msg.field_double("pan");
            outcome.tilt_deg = msg.field_double("tilt");
            outcome.bytes = msg.payload_bytes;
            done(outcome);
          });
}

// ---------------------------------------------------------------- MoteComm

namespace {
// Shared decoding for simple ok/error acks.
void ack_to_status(Result<net::Message> reply, const std::string& what,
                   const std::function<void(Status)>& done) {
  if (!reply.is_ok()) {
    done(reply.status());
    return;
  }
  if (reply.value().field("ok") != "1") {
    done(aorta::util::action_failed_error(
        what + " failed: " + reply.value().field("error", "device error")));
    return;
  }
  done(Status::ok());
}
}  // namespace

void MoteComm::beep(const device::DeviceId& id,
                    std::function<void(Status)> done) {
  request(id, "beep", {}, default_timeout(),
          [done = std::move(done)](Result<net::Message> reply) {
            ack_to_status(std::move(reply), "beep", done);
          },
          /*payload_bytes=*/36);
}

void MoteComm::blink(const device::DeviceId& id,
                     std::function<void(Status)> done) {
  request(id, "blink", {}, default_timeout(),
          [done = std::move(done)](Result<net::Message> reply) {
            ack_to_status(std::move(reply), "blink", done);
          },
          /*payload_bytes=*/36);
}

// --------------------------------------------------------------- PhoneComm

void PhoneComm::send_sms(const device::DeviceId& id, const std::string& text,
                         std::function<void(Status)> done) {
  request(id, "recv_sms", {{"body", text}}, Duration::seconds(10.0),
          [done = std::move(done)](Result<net::Message> reply) {
            ack_to_status(std::move(reply), "send_sms", done);
          },
          /*payload_bytes=*/text.size() + 40);
}

void PhoneComm::send_mms(const device::DeviceId& id, const std::string& body,
                         std::size_t bytes, std::function<void(Status)> done) {
  request(id, "recv_mms", {{"body", body}}, Duration::seconds(60.0),
          [done = std::move(done)](Result<net::Message> reply) {
            ack_to_status(std::move(reply), "send_mms", done);
          },
          bytes);
}

// --------------------------------------------------------------- CommLayer

CommLayer::CommLayer(device::DeviceRegistry* registry, net::Network* network,
                     net::NodeId node_id)
    : engine_(network, std::move(node_id)),
      camera_(registry, &engine_),
      mote_(registry, &engine_),
      phone_(registry, &engine_) {}

CommModule* CommLayer::module_for(const device::DeviceTypeId& type_id) {
  if (type_id == camera_.type_id()) return &camera_;
  if (type_id == mote_.type_id()) return &mote_;
  if (type_id == phone_.type_id()) return &phone_;
  auto it = extra_.find(type_id);
  return it == extra_.end() ? nullptr : it->second.get();
}

void CommLayer::register_module(std::unique_ptr<CommModule> module) {
  module->set_health(health_);
  extra_[module->type_id()] = std::move(module);
}

void CommLayer::set_health(device::HealthView* health) {
  health_ = health;
  camera_.set_health(health);
  mote_.set_health(health);
  phone_.set_health(health);
  for (auto& [type_id, module] : extra_) module->set_health(health);
}

}  // namespace aorta::comm
