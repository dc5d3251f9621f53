#include "telemetry/span.hpp"

#include <iomanip>
#include <sstream>

#include "common/json.hpp"

namespace griphon::telemetry {

SpanId SpanTracer::start(std::string name, std::string actor,
                         CorrelationTag tag, SpanId parent, SimTime now) {
  Span s;
  s.id = next_++;
  s.parent = parent;
  s.tag = tag;
  if (s.tag == 0 && parent != 0) {
    if (const Span* p = find(parent)) s.tag = p->tag;
  }
  s.name = std::move(name);
  s.actor = std::move(actor);
  s.start = now;
  s.end = now;
  index_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  ++open_;
  return spans_.back().id;
}

void SpanTracer::end(SpanId id, SimTime now, bool ok, std::string detail) {
  if (id == 0) return;
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  Span& s = spans_[it->second];
  if (s.done) return;
  s.end = now;
  s.done = true;
  s.ok = ok;
  if (!detail.empty()) s.detail = std::move(detail);
  --open_;
}

SpanId SpanTracer::record(std::string name, std::string actor,
                          CorrelationTag tag, SpanId parent, SimTime start,
                          SimTime end, bool ok, std::string detail) {
  Span s;
  s.id = next_++;
  s.parent = parent;
  s.tag = tag;
  if (s.tag == 0 && parent != 0) {
    if (const Span* p = find(parent)) s.tag = p->tag;
  }
  s.name = std::move(name);
  s.actor = std::move(actor);
  s.detail = std::move(detail);
  s.start = start;
  s.end = end;
  s.done = true;
  s.ok = ok;
  index_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

const Span* SpanTracer::find(SpanId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

std::vector<const Span*> SpanTracer::for_tag(CorrelationTag tag) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (s.tag == tag) out.push_back(&s);
  return out;
}

std::vector<const Span*> SpanTracer::children_of(SpanId id) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (s.parent == id) out.push_back(&s);
  return out;
}

void SpanTracer::clear() {
  spans_.clear();
  index_.clear();
  open_ = 0;
}

std::string SpanTracer::to_json(CorrelationTag tag) const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Span& s : spans_) {
    if (tag != 0 && s.tag != tag) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"tag\":" << s.tag << ",\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"actor\":\"";
    json_escape(os, s.actor);
    os << "\",\"start\":" << std::fixed << std::setprecision(6)
       << to_seconds(s.start) << ",\"end\":" << to_seconds(s.end)
       << ",\"done\":" << (s.done ? "true" : "false")
       << ",\"ok\":" << (s.ok ? "true" : "false") << ",\"detail\":\"";
    json_escape(os, s.detail);
    os << "\"}";
  }
  os << "]";
  return os.str();
}

}  // namespace griphon::telemetry
