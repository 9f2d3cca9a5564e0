// Layer costs measured from outside: the traced run captures the
// statements it submitted and the rows it received; here they are fed
// again through the public functions each layer calls per statement,
// fragment and row, and each call's mean wall time is reported. The
// caller multiplies by the program's own call counts for est_share.
#include <chrono>
#include <cstdio>
#include <functional>

#include "core/aorta.h"
#include "query/compile.h"
#include "query/parser.h"
#include "shard/fragment.h"
#include "util/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Repeat `pass` (which makes `calls_per_pass` calls) until at least
// kMinSeconds have elapsed; return the mean wall seconds per call.
constexpr double kMinSeconds = 0.2;

double per_call_s(std::size_t calls_per_pass,
                  const std::function<void()>& pass) {
  if (calls_per_pass == 0) return 0.0;
  pass();  // warm caches and allocator
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    calls += calls_per_pass;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < kMinSeconds);
  return elapsed / static_cast<double>(calls);
}

}  // namespace

std::string replay_costs(const RepResult& rep) {
  // A plain engine supplies the catalog and the device-type schemas the
  // compiler resolves tables against.
  aorta::core::Aorta host{aorta::core::Config{}};

  std::vector<aorta::query::Statement> parsed;
  std::vector<std::string> texts;
  for (const std::string& text : rep.texts) {
    auto st = aorta::query::parse(text);
    if (!st.is_ok()) continue;
    texts.push_back(text);
    parsed.push_back(std::move(st.value()));
  }
  // The SELECT each statement compiles, and whether it runs once.
  std::vector<std::pair<const aorta::query::SelectStmt*, bool>> selects;
  for (const auto& st : parsed) {
    if (st.kind == aorta::query::Statement::Kind::kSelect) {
      selects.emplace_back(&st.select, true);
    } else if (st.kind == aorta::query::Statement::Kind::kCreateAq) {
      selects.emplace_back(&st.create_aq.select, false);
    }
  }

  const double parse_s = per_call_s(texts.size(), [&] {
    for (const std::string& t : texts) (void)aorta::query::parse(t);
  });
  const double compile_s = per_call_s(selects.size(), [&] {
    for (const auto& [select, one_shot] : selects) {
      (void)aorta::query::compile(*select, host.catalog(), host.registry(),
                                  one_shot);
    }
  });

  // One fragment per (statement, shard), as the czar builds them.
  std::vector<aorta::shard::FragmentSpec> specs;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& st = parsed[i];
    const bool aq = st.kind == aorta::query::Statement::Kind::kCreateAq;
    if (!aq && st.kind != aorta::query::Statement::Kind::kSelect) continue;
    const auto& sel = aq ? st.create_aq.select : st.select;
    const auto attrs = aorta::shard::needed_attributes(sel);
    for (int shard = 0; shard < kShards; ++shard) {
      aorta::shard::FragmentSpec spec;
      spec.name = aq ? st.create_aq.name : "";
      spec.sql = texts[i];
      spec.epoch_s = aq ? st.create_aq.epoch_s : 0.0;
      spec.once = !aq;
      spec.shard = shard;
      spec.num_shards = kShards;
      spec.gen = 1;
      spec.needed_attrs = aorta::util::join(
          std::vector<std::string>(attrs.begin(), attrs.end()), ",");
      spec.device_slice = "fnv1a(id) mod " + std::to_string(kShards) +
                          " == " + std::to_string(shard);
      specs.push_back(std::move(spec));
    }
  }
  const double fragment_s = per_call_s(specs.size(), [&] {
    for (const auto& spec : specs) {
      aorta::net::Message msg;
      aorta::shard::fragment_to_fields(spec, &msg);
      (void)aorta::shard::fragment_from_fields(msg);
    }
  });

  // Rows travel in bursts; replay them in bursts of 8.
  std::vector<std::vector<aorta::query::TimestampedRow>> bursts;
  for (std::size_t i = 0; i < rep.rows.size(); i += 8) {
    bursts.emplace_back(rep.rows.begin() + static_cast<std::ptrdiff_t>(i),
                        rep.rows.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(i + 8, rep.rows.size())));
  }
  const double rows_s = per_call_s(rep.rows.size(), [&] {
    std::vector<aorta::query::TimestampedRow> out;
    for (const auto& burst : bursts) {
      out.clear();
      (void)aorta::shard::decode_rows(aorta::shard::encode_rows(burst), &out);
    }
  });

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"parse_us\": %.6g, \"compile_us\": %.6g, "
                "\"fragment_codec_us\": %.6g, \"rows_codec_ns\": %.6g, "
                "\"replayed_statements\": %zu, \"replayed_rows\": %zu}",
                parse_s * 1e6, compile_s * 1e6, fragment_s * 1e6, rows_s * 1e9,
                texts.size(), rep.rows.size());
  return buf;
}

}  // namespace perfbench
