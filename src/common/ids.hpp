// Strongly typed identifiers used across GRIPhoN.
//
// Every entity in the network (node, link, port, wavelength channel,
// connection, customer, ...) gets its own ID type so that mixing them up is
// a compile error rather than a silent bug. IDs are cheap value types:
// a 64-bit integer wrapped in a tag-discriminated template.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace griphon {

/// Generic strongly typed identifier. `Tag` is an empty struct that makes
/// each instantiation a distinct type.
template <typename Tag>
class Id {
 public:
  using value_type = std::uint64_t;

  /// Sentinel for "no id". Default-constructed ids are invalid.
  static constexpr value_type kInvalid = ~value_type{0};

  constexpr Id() noexcept = default;
  constexpr explicit Id(value_type v) noexcept : value_(v) {}

  [[nodiscard]] constexpr value_type value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return value_ != kInvalid;
  }
  constexpr explicit operator bool() const noexcept { return valid(); }

  friend constexpr bool operator==(Id a, Id b) noexcept {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Id a, Id b) noexcept {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(Id a, Id b) noexcept {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator>(Id a, Id b) noexcept {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator<=(Id a, Id b) noexcept {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>=(Id a, Id b) noexcept {
    return a.value_ >= b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  value_type value_ = kInvalid;
};

/// Monotonic generator for a given ID type. Not thread-safe by design: all
/// GRIPhoN state lives on the single-threaded simulation loop.
template <typename IdT>
class IdAllocator {
 public:
  [[nodiscard]] IdT next() noexcept { return IdT{next_++}; }
  [[nodiscard]] typename IdT::value_type issued() const noexcept {
    return next_;
  }

 private:
  typename IdT::value_type next_ = 0;
};

// --- topology ---------------------------------------------------------
using NodeId = Id<struct NodeTag>;        ///< ROADM/CO site in the graph
using LinkId = Id<struct LinkTag>;        ///< inter-node fiber link (bidir)
using SpanId = Id<struct SpanTag>;        ///< amplified fiber span in a link

// --- photonic layer ---------------------------------------------------
using RoadmId = Id<struct RoadmTag>;      ///< ROADM network element
using TransponderId = Id<struct OtTag>;   ///< optical transponder (OT)
using RegenId = Id<struct RegenTag>;      ///< optical regenerator
using MuxponderId = Id<struct MuxTag>;    ///< 10/40G muxponder (NTE)
using FxcId = Id<struct FxcTag>;          ///< fiber cross-connect
using PortId = Id<struct PortTag>;        ///< device port (scoped per device)

// --- electrical layers -------------------------------------------------
using OtnSwitchId = Id<struct OtnSwTag>;  ///< OTN switch element
using CarrierId = Id<struct CarrierTag>;  ///< OTU carrier riding a wavelength
using OduCircuitId = Id<struct OduCtTag>; ///< sub-wavelength ODU circuit
using StsCircuitId = Id<struct StsCtTag>; ///< SONET legacy circuit

// --- control plane ----------------------------------------------------
using ConnectionId = Id<struct ConnTag>;  ///< end-to-end BoD connection
using CustomerId = Id<struct CustTag>;    ///< cloud service provider tenant
using RequestId = Id<struct ReqTag>;      ///< protocol request correlation
using AlarmId = Id<struct AlarmTag>;      ///< raised alarm instance
using JobId = Id<struct JobTag>;          ///< workload bulk-transfer job

// --- BoD service layer -------------------------------------------------
using ReservationId = Id<struct ResvTag>; ///< calendar capacity reservation
using TransferId = Id<struct XferTag>;    ///< deadline-driven bulk transfer

/// Correlation tag grouping the spans and trace records of one operation
/// across components; by convention core::telemetry_tag(ConnectionId) =
/// id value + 1. 0 = untagged (global/plant records).
using CorrelationTag = std::uint64_t;

}  // namespace griphon

namespace std {
template <typename Tag>
struct hash<griphon::Id<Tag>> {
  size_t operator()(griphon::Id<Tag> id) const noexcept {
    return std::hash<typename griphon::Id<Tag>::value_type>{}(id.value());
  }
};
}  // namespace std
