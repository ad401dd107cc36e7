#include "common/metrics.h"

namespace ncache {

void MetricRegistry::counter(std::string node, std::string name, U64Fn fn) {
  metrics_.push_back(Metric{std::move(node), std::move(name),
                            MetricKind::Counter, std::move(fn), {}, nullptr});
}

void MetricRegistry::gauge(std::string node, std::string name, F64Fn fn) {
  metrics_.push_back(Metric{std::move(node), std::move(name), MetricKind::Gauge,
                            {}, std::move(fn), nullptr});
}

void MetricRegistry::bytes(std::string node, std::string name, U64Fn fn) {
  metrics_.push_back(Metric{std::move(node), std::move(name), MetricKind::Bytes,
                            std::move(fn), {}, nullptr});
}

void MetricRegistry::histogram(std::string node, std::string name,
                               const LatencyHistogram* h) {
  metrics_.push_back(
      Metric{std::move(node), std::move(name), MetricKind::Histogram, {}, {}, h});
}

void MetricRegistry::host_counter(std::string node, std::string name,
                                  U64Fn fn) {
  metrics_.push_back(Metric{std::move(node), std::move(name),
                            MetricKind::Counter, std::move(fn), {}, nullptr,
                            true});
}

void MetricRegistry::on_reset(std::function<void()> fn) {
  reset_hooks_.push_back(std::move(fn));
}

void MetricRegistry::reset_all() {
  for (auto& fn : reset_hooks_) fn();
}

std::vector<MetricRegistry::Sample> MetricRegistry::sample() const {
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    Sample s;
    s.node = m.node;
    s.name = m.name;
    s.kind = m.kind;
    switch (m.kind) {
      case MetricKind::Counter:
      case MetricKind::Bytes:
        s.u64 = m.u64 ? m.u64() : 0;
        break;
      case MetricKind::Gauge:
        s.f64 = m.f64 ? m.f64() : 0.0;
        break;
      case MetricKind::Histogram:
        s.u64 = m.hist ? m.hist->count() : 0;
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

const MetricRegistry::Metric* MetricRegistry::find(std::string_view node,
                                                   std::string_view name) const {
  for (const auto& m : metrics_)
    if (m.node == node && m.name == name) return &m;
  return nullptr;
}

std::uint64_t MetricRegistry::counter_value(std::string_view node,
                                            std::string_view name) const {
  const Metric* m = find(node, name);
  if (!m) return 0;
  if (m->kind == MetricKind::Histogram) return m->hist ? m->hist->count() : 0;
  return m->u64 ? m->u64() : 0;
}

double MetricRegistry::gauge_value(std::string_view node,
                                   std::string_view name) const {
  const Metric* m = find(node, name);
  if (!m) return 0.0;
  if (m->kind == MetricKind::Gauge) return m->f64 ? m->f64() : 0.0;
  if (m->kind == MetricKind::Histogram) return double(m->hist ? m->hist->count() : 0);
  return double(m->u64 ? m->u64() : 0);
}

bool MetricRegistry::has(std::string_view node, std::string_view name) const {
  return find(node, name) != nullptr;
}

json::Value MetricRegistry::to_json(bool host_side) const {
  json::Value root = json::Value::object();
  for (const auto& m : metrics_) {
    if (m.host != host_side) continue;
    json::Value* group = root.find(m.node);
    if (!group) group = &root.set(m.node, json::Value::object());
    switch (m.kind) {
      case MetricKind::Counter:
      case MetricKind::Bytes:
        group->set(m.name, json::Value(m.u64 ? m.u64() : 0));
        break;
      case MetricKind::Gauge:
        group->set(m.name, json::Value(m.f64 ? m.f64() : 0.0));
        break;
      case MetricKind::Histogram: {
        json::Value h = json::Value::object();
        const LatencyHistogram* lh = m.hist;
        h.set("count", json::Value(lh ? lh->count() : 0));
        h.set("p50_ns", json::Value(lh ? lh->quantile_ns(0.5) : 0));
        h.set("p99_ns", json::Value(lh ? lh->quantile_ns(0.99) : 0));
        h.set("max_ns", json::Value(lh ? lh->max_ns() : 0));
        group->set(m.name, std::move(h));
        break;
      }
    }
  }
  return root;
}

}  // namespace ncache
