#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<Share> LayerShares(const LayerTracer& tracer) {
  std::vector<Share> shares;
  const auto wall = static_cast<double>(tracer.wall_ns());
  for (int i = 0; i < kNumLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    shares.push_back({LayerName(layer),
                      wall > 0 ? static_cast<double>(tracer.stats(layer).self_ns) / wall : 0.0});
  }
  shares.push_back(
      {"sim.residual", wall > 0 ? static_cast<double>(tracer.residual_ns()) / wall : 0.0});
  shares.push_back(
      {"trace.cost", wall > 0 ? static_cast<double>(tracer.tracer_ns()) / wall : 0.0});
  return shares;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += Quoted(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
