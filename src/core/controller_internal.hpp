// Private to the controller's translation units (src/core/controller*.cpp):
// the operating values and helpers more than one of them uses, and the
// plan bring-up template. Not part of the library's interface; constants
// only one file needs live in that file.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::core {

// Operating values of the controller (paper §2.2).

/// Route computation time inside the controller.
inline constexpr SimTime kPathComputation = milliseconds(500);
/// Traffic hit when rolling between bridged paths (and on a 1+1 switch).
inline constexpr SimTime kRollHit = milliseconds(50);

[[nodiscard]] inline Status response_to_status(
    const Result<proto::Response>& r) {
  if (!r.ok()) return r.error();
  if (r.value().ok()) return Status::success();
  return Status{static_cast<ErrorCode>(r.value().code), r.value().message};
}

inline bool plan_uses_any(const WavelengthPlan& plan,
                          const std::set<LinkId>& links) {
  return std::any_of(plan.path.links.begin(), plan.path.links.end(),
                     [&](LinkId l) { return links.contains(l); });
}

/// Concatenate two step lists, re-basing the appended list's dependency
/// indices (they are positions within their own list).
inline void append_steps(StepList& dst, StepList src) {
  const std::size_t base = dst.size();
  for (Step& s : src) {
    for (std::size_t& d : s.deps) d += base;
    dst.push_back(std::move(s));
  }
}

template <typename Admitted>
Status GriphonController::bring_up(const Connection& c,
                                   const WavelengthPlan& plan,
                                   bool include_access,
                                   std::uint64_t admit_span,
                                   Admitted admitted) {
  // Probe-free optical admission: verify the plan's OSNR margins before
  // the first EMS command goes out, instead of probing mid-train.
  if (Status adm = admit_optical_plan(plan, c.rate, admit_span); !adm.ok())
    return adm;
  reserve_plan(plan);
  auto [run_span, then] = admitted();
  auto steps = std::make_shared<StepList>(
      build_wavelength_setup(c, plan, include_access));
  run_steps(steps, /*best_effort=*/false,
            [this, plan, steps, then = std::move(then)](
                Status status, std::vector<std::size_t> succeeded) mutable {
              unreserve_plan(plan);
              then(std::move(status), steps, std::move(succeeded));
            },
            run_span);
  return Status::success();
}

}  // namespace griphon::core
