#include "device/device.h"

#include <algorithm>

#include "net/rpc.h"
#include "util/logging.h"
#include "util/strings.h"

namespace aorta::device {

using aorta::util::Duration;

Device::Device(DeviceId id, DeviceTypeId type_id, Location location)
    : id_(std::move(id)), type_id_(std::move(type_id)), location_(location) {}

void Device::bind(net::Network* network, aorta::util::EventLoop* loop,
                  aorta::util::Rng rng) {
  network_ = network;
  loop_ = loop;
  rng_ = std::move(rng);
}

std::map<std::string, Value> Device::static_attrs() const {
  return {{"id", id_}, {"loc", location_}};
}

void Device::on_message(const net::Message& msg) {
  if (!online_) return;  // an offline device is silent; callers time out

  // Overload model: a device already busy with one or more operations may
  // drop an incoming request entirely ("it will fail to execute the second
  // action or has a very long delay for it", Section 4).
  if (active_ops_ > 0 && msg.kind != "probe") {
    double p = reliability_.busy_drop_base +
               reliability_.busy_drop_per_op * (active_ops_ - 1);
    if (rng_.chance(std::min(p, 0.95))) {
      ++op_stats_.requests_dropped_busy;
      return;
    }
  }

  if (msg.kind == "probe") {
    ++op_stats_.probes_answered;
    net::Message reply = make_reply(msg, "probe_ack");
    reply.set_int("busy", active_ops_ > 0 ? 1 : 0);
    for (const auto& [key, value] : status_snapshot()) {
      reply.set_double("status." + key, value);
    }
    send_reply(msg, std::move(reply));
    return;
  }

  if (msg.kind == "read_attr") {
    std::string attr = msg.field("attr");
    net::Message reply = make_reply(msg, "read_attr_ack");
    // Sensor-board glitches corrupt individual acquisitions.
    if (roll_glitch()) {
      reply.set("ok", "0");
      reply.set("error", "acquisition glitch");
      send_reply(msg, std::move(reply));
      return;
    }
    // One encoding per value: a type tag plus the value in that type's
    // wire form (the comm layer switches on the tag). Sensory attributes
    // are doubles, ints or strings.
    auto value = read_attribute(attr);
    const Value* v = value.is_ok() ? &value.value() : nullptr;
    if (v == nullptr) {
      reply.set("ok", "0");
      reply.set("error", value.status().to_string());
    } else if (const double* d = std::get_if<double>(v)) {
      reply.set("ok", "1").set("type", "double").set_double("value", *d);
    } else if (const std::int64_t* i = std::get_if<std::int64_t>(v)) {
      reply.set("ok", "1").set("type", "int").set_int("value", *i);
    } else if (const std::string* str = std::get_if<std::string>(v)) {
      reply.set("ok", "1").set("type", "string").set("value", *str);
    } else {
      reply.set("ok", "0");
      reply.set("error", "attribute " + attr + " has no wire encoding");
    }
    send_reply(msg, std::move(reply));
    return;
  }

  handle_op(msg);
}

void Device::run_op(double service_s, std::function<void()> body) {
  ++active_ops_;
  ++op_stats_.ops_started;
  op_stats_.max_concurrent_ops = std::max(
      op_stats_.max_concurrent_ops, static_cast<std::uint64_t>(active_ops_));

  double slowdown = 1.0 + reliability_.busy_slowdown_per_op * (active_ops_ - 1);
  loop_->schedule(Duration::seconds(service_s * slowdown), [this, body]() {
    --active_ops_;
    ++op_stats_.ops_completed;
    body();
  });
}

bool Device::roll_glitch() {
  if (rng_.chance(reliability_.glitch_prob)) {
    ++op_stats_.ops_glitched;
    return true;
  }
  return false;
}

void Device::send_reply(const net::Message& request, net::Message reply) {
  (void)request;
  // A device that went offline mid-operation (power loss) cannot reply:
  // callers observe a timeout even for work that was in flight.
  if (!online_) return;
  if (network_ != nullptr) network_->send(std::move(reply));
}

net::Message Device::make_reply(const net::Message& request, std::string kind) {
  net::Message reply = net::make_reply(request, std::move(kind));
  return reply;
}

}  // namespace aorta::device
