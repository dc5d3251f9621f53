#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json.hpp"

namespace griphon::sim {

const char* to_string(TraceLevel level) noexcept {
  switch (level) {
    case TraceLevel::kInfo:
      return "INFO";
    case TraceLevel::kWarn:
      return "WARN";
    case TraceLevel::kError:
      return "ERROR";
  }
  return "?";
}

void Trace::emit(SimTime when, TraceLevel level, std::string actor,
                 std::string event, std::string detail, CorrelationTag tag) {
  TraceRecord record{when, level, std::move(actor), std::move(event),
                     std::move(detail), tag};
  if (capacity_ != 0 && records_.size() == capacity_) {
    // Ring full: overwrite the oldest slot in place instead of shifting.
    records_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    if (!overflow_warned_) {
      // One warning so silent truncation of long soaks stays visible;
      // the warning itself goes through the ring (evicting one more
      // record, which dropped_ counts).
      overflow_warned_ = true;
      emit(when, TraceLevel::kWarn, "trace", "ring-full",
                  "capacity " + std::to_string(capacity_) +
                      " reached; oldest records are being dropped");
    }
    return;
  }
  records_.push_back(std::move(record));
}

void Trace::set_capacity(std::size_t capacity) {
  normalize();
  capacity_ = capacity;
  if (capacity_ != 0 && records_.size() > capacity_) {
    const std::size_t excess = records_.size() - capacity_;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(excess));
    dropped_ += excess;
  }
}

void Trace::normalize() const {
  if (head_ != 0) {
    std::rotate(records_.begin(),
                records_.begin() + static_cast<std::ptrdiff_t>(head_),
                records_.end());
    head_ = 0;
  }
}

const std::vector<TraceRecord>& Trace::records() const {
  normalize();
  return records_;
}

std::size_t Trace::count(std::string_view event) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [&](const TraceRecord& r) { return r.event == event; }));
}

std::string Trace::to_json() const {
  normalize();
  std::ostringstream os;
  os << "{\"dropped\":" << dropped_ << ",\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TraceRecord& r = records_[i];
    if (i > 0) os << ",";
    os << "{\"t\":" << std::fixed << std::setprecision(6)
       << to_seconds(r.when) << ",\"level\":\"" << to_string(r.level)
       << "\",\"actor\":\"";
    json_escape(os, r.actor);
    os << "\",\"event\":\"";
    json_escape(os, r.event);
    os << "\",\"detail\":\"";
    json_escape(os, r.detail);
    os << "\",\"tag\":" << r.tag << "}";
  }
  os << "]}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TraceRecord& r) {
  os << '[' << std::fixed << std::setprecision(3) << to_seconds(r.when)
     << "s] " << to_string(r.level) << ' ' << r.actor << ' ' << r.event;
  if (!r.detail.empty()) os << " (" << r.detail << ')';
  if (r.tag != 0) os << " #" << r.tag;
  return os;
}

}  // namespace griphon::sim
