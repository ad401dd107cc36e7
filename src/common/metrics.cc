#include "common/metrics.h"

namespace ncache {

void MetricRegistry::counter(std::string node, std::string name,
                             std::uint64_t* cell) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Counter,
                            .cell = cell});
}

void MetricRegistry::bytes(std::string node, std::string name,
                           std::uint64_t* cell) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Bytes,
                            .cell = cell});
}

void MetricRegistry::computed_counter(std::string node, std::string name,
                                      U64Fn fn) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Counter,
                            .u64 = std::move(fn)});
}

void MetricRegistry::gauge(std::string node, std::string name, F64Fn fn) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Gauge,
                            .f64 = std::move(fn)});
}

void MetricRegistry::window_max(std::string node, std::string name,
                                std::uint64_t* cell) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Gauge,
                            .cell = cell});
}

void MetricRegistry::histogram(std::string node, std::string name,
                               LatencyHistogram* h) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Histogram,
                            .hist = h});
}

void MetricRegistry::host_counter(std::string node, std::string name,
                                  U64Fn fn) {
  metrics_.push_back(Metric{.node = std::move(node),
                            .name = std::move(name),
                            .kind = MetricKind::Counter,
                            .u64 = std::move(fn),
                            .host = true});
}

void MetricRegistry::on_reset(std::function<void()> fn) {
  reset_hooks_.push_back(std::move(fn));
}

void MetricRegistry::reset_all() {
  for (Metric& m : metrics_) {
    if (m.cell) *m.cell = 0;
    if (m.hist) m.hist->reset();
  }
  for (auto& fn : reset_hooks_) fn();
}

std::uint64_t MetricRegistry::count_of(const Metric& m) {
  switch (m.kind) {
    case MetricKind::Counter:
    case MetricKind::Bytes:
      if (m.cell) return *m.cell;
      return m.u64 ? m.u64() : 0;
    case MetricKind::Histogram:
      return m.hist ? m.hist->count() : 0;
    case MetricKind::Gauge:
      break;
  }
  return 0;
}

double MetricRegistry::value_of(const Metric& m) {
  if (m.cell) return double(*m.cell);
  return m.f64 ? m.f64() : 0.0;
}

std::vector<MetricRegistry::Sample> MetricRegistry::sample() const {
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    Sample s;
    s.node = m.node;
    s.name = m.name;
    s.kind = m.kind;
    if (m.kind == MetricKind::Gauge) {
      s.f64 = value_of(m);
    } else {
      s.u64 = count_of(m);
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
  return m ? count_of(*m) : 0;
}

double MetricRegistry::gauge_value(std::string_view node,
                                   std::string_view name) const {
  const Metric* m = find(node, name);
  if (!m) return 0.0;
  if (m->kind == MetricKind::Gauge) return value_of(*m);
  return double(count_of(*m));
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
        group->set(m.name, json::Value(count_of(m)));
        break;
      case MetricKind::Gauge:
        group->set(m.name, json::Value(value_of(m)));
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
