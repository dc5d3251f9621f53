// Controller inventory: the GRIPhoN controller's view of network resources.
//
// Device state is authoritative (the ROADMs/OTs know what is configured);
// the inventory adds a *reservation overlay* for resources committed to
// in-flight setups whose EMS commands have not landed yet. RWA queries go
// through here so two concurrent setups never pick the same wavelength,
// OT or regenerator.
//
// Everything here sits on the RWA hot path, so the overlay is indexed
// rather than scanned (see DESIGN.md "Inventory indexing invariants"):
//  * channel reservations live in a per-link ChannelSet (O(words) to
//    subtract from link availability instead of scanning every
//    reservation in the network),
//  * OT/regen lookups go through per-site pools built once from the model
//    (O(pool-at-site) instead of O(all devices)),
//  * the per-channel usage table behind the most-/least-used wavelength
//    policies is cached and invalidated by the model's plant version
//    (O(1) amortized instead of O(links) per queried channel).
//
// Concurrency (DESIGN.md §15): everything is owner-thread state (the
// thread that mutates the NetworkModel) except the published-snapshot
// pointer. The read side for other threads is the immutable
// `Inventory::Snapshot` — a versioned, copy-on-publish view handed out as
// shared_ptr<const>. Mutators keep the snapshot ingredients up to date
// incrementally (O(1) per overlay change); `snapshot()` re-publishes only
// when something actually moved. Readers on other threads use
// `published_snapshot()`, which never touches the NetworkModel; only the
// pointer swap behind it is locked.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/sync.hpp"
#include "core/network_model.hpp"
#include "dwdm/wavelength.hpp"

namespace griphon::core {

namespace detail {
/// Grow-on-demand bitmaps keyed by device id value; back the O(1)
/// reserved/free checks behind the pool queries and the snapshot.
[[nodiscard]] inline bool bit_test(const std::vector<std::uint64_t>& bits,
                                   std::uint64_t i) noexcept {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  return word < bits.size() && ((bits[word] >> (i % 64)) & 1U) != 0;
}
inline void bit_set(std::vector<std::uint64_t>& bits, std::uint64_t i) {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  if (word >= bits.size()) bits.resize(word + 1, 0);
  bits[word] |= std::uint64_t{1} << (i % 64);
}
inline void bit_clear(std::vector<std::uint64_t>& bits,
                      std::uint64_t i) noexcept {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  if (word < bits.size()) bits[word] &= ~(std::uint64_t{1} << (i % 64));
}
}  // namespace detail

class Inventory {
 public:
  /// Immutable, versioned read view of planning state: per-link channel
  /// availability (device state minus reservations), free-OT/regen
  /// bitmaps over (rate, id)-sorted site pools, and the per-channel usage
  /// table. Built copy-on-publish by the owner thread; once handed
  /// out it is never written again, so any number of threads may read it
  /// without synchronization, and it never dereferences the NetworkModel.
  class Snapshot {
   public:
    /// Channels usable on `link`: free on the facing degree of both end
    /// ROADMs and not reserved, as of publish time. Empty if failed.
    [[nodiscard]] dwdm::ChannelSet available_on_link(LinkId link) const {
      if (link.value() >= avail_.size()) return {};
      return avail_[link.value()];
    }

    /// An idle, unreserved OT at `node` with line rate >= `min_rate` —
    /// same (rate, id) pick order as Inventory::find_free_ot.
    [[nodiscard]] std::optional<TransponderId> find_free_ot(
        NodeId node, DataRate min_rate) const;
    [[nodiscard]] std::size_t free_ot_count(NodeId node,
                                            DataRate min_rate) const;

    /// An unused, unreserved regenerator at `node`, skipping `exclude`.
    [[nodiscard]] std::optional<RegenId> find_free_regen(
        NodeId node, DataRate min_rate,
        const std::set<RegenId>& exclude = {}) const;
    [[nodiscard]] std::size_t free_regen_count(NodeId node,
                                               DataRate min_rate) const;

    /// Number of links where channel `ch` was configured at publish time.
    [[nodiscard]] std::size_t channel_usage(dwdm::ChannelIndex ch) const {
      if (ch < 0 || static_cast<std::size_t>(ch) >= usage_->size()) return 0;
      return (*usage_)[static_cast<std::size_t>(ch)];
    }

    /// Model version stamps captured at publish time.
    [[nodiscard]] std::uint64_t topology_version() const noexcept {
      return topology_version_;
    }
    [[nodiscard]] std::uint64_t plant_version() const noexcept {
      return plant_version_;
    }
    [[nodiscard]] std::uint64_t device_version() const noexcept {
      return device_version_;
    }
    /// Strictly increasing per publish; readers use it to detect that a
    /// newer view exists and to assert monotonic progress.
    [[nodiscard]] std::uint64_t publish_seq() const noexcept {
      return publish_seq_;
    }
    [[nodiscard]] std::size_t reservations() const noexcept {
      return reservations_;
    }

   private:
    friend class Inventory;
    Snapshot() = default;

    // Site pools shared (immutably) with the inventory; entries carry the
    // immutable device attributes so readers never chase device pointers.
    struct OtEntry {
      DataRate rate{};
      TransponderId id{};
      const dwdm::Transponder* dev = nullptr;  ///< owner-thread use only
    };
    struct RegenEntry {
      DataRate rate{};
      RegenId id{};
      const dwdm::Regenerator* dev = nullptr;  ///< owner-thread use only
    };
    struct PoolIndex {
      std::vector<std::vector<OtEntry>> ots_by_site;
      std::vector<std::vector<RegenEntry>> regens_by_site;
      std::size_t ot_count = 0;
      std::size_t regen_count = 0;
    };

    std::vector<dwdm::ChannelSet> avail_;  // by link index
    std::shared_ptr<const PoolIndex> pools_;
    std::shared_ptr<const std::vector<std::size_t>> usage_;
    std::vector<std::uint64_t> ot_free_bits_;     // by OT id value
    std::vector<std::uint64_t> regen_free_bits_;  // by regen id value
    std::uint64_t topology_version_ = 0;
    std::uint64_t plant_version_ = 0;
    std::uint64_t device_version_ = 0;
    std::uint64_t publish_seq_ = 0;
    std::size_t reservations_ = 0;
  };

  explicit Inventory(const NetworkModel* model) : model_(model) {}
  ~Inventory();

  Inventory(const Inventory&) = delete;
  Inventory& operator=(const Inventory&) = delete;

  /// Register for per-device change callbacks on `model` (the same
  /// deployment this inventory reads). From then on OT/regen lifecycle
  /// transitions update the snapshot free bitmaps in O(1) instead of
  /// forcing a full pool re-scan on the next snapshot() — device-only
  /// churn (tune/activate/release trains) re-publishes without ever
  /// touching the model. The model has one observer slot;
  /// the controller's inventory claims it, and the destructor detaches.
  void attach_device_listeners(NetworkModel* model);

  // --- reservation overlay ------------------------------------------------
  void reserve_channel(LinkId link, dwdm::ChannelIndex ch);
  void release_channel(LinkId link, dwdm::ChannelIndex ch);
  [[nodiscard]] bool channel_reserved(LinkId link,
                                      dwdm::ChannelIndex ch) const;
  void reserve_ot(TransponderId id);
  void release_ot(TransponderId id);
  [[nodiscard]] bool ot_reserved(TransponderId id) const;
  void reserve_regen(RegenId id);
  void release_regen(RegenId id);
  [[nodiscard]] bool regen_reserved(RegenId id) const;

  // --- combined availability (device state minus reservations) -----------
  /// Channels usable on `link`: free on the facing degree of both end
  /// ROADMs and not reserved. Empty if the link is failed.
  [[nodiscard]] dwdm::ChannelSet available_on_link(LinkId link) const;

  /// An idle, unreserved OT at `node` with line rate >= `min_rate`.
  [[nodiscard]] std::optional<TransponderId> find_free_ot(
      NodeId node, DataRate min_rate) const;
  [[nodiscard]] std::size_t free_ot_count(NodeId node, DataRate min_rate) const;

  /// An unused, unreserved regenerator at `node`, skipping any id in
  /// `exclude` (a plan may place several regens at one site).
  [[nodiscard]] std::optional<RegenId> find_free_regen(
      NodeId node, DataRate min_rate,
      const std::set<RegenId>& exclude = {}) const;
  [[nodiscard]] std::size_t free_regen_count(NodeId node,
                                             DataRate min_rate) const;

  /// Number of links where channel `ch` is currently configured — input to
  /// the most-used wavelength-assignment policy.
  [[nodiscard]] std::size_t channel_usage(dwdm::ChannelIndex ch) const;

  [[nodiscard]] std::size_t reservations() const;

  // --- versioned read snapshot --------------------------------------------
  /// Refresh-if-stale and return the current snapshot. Reads the
  /// NetworkModel when the model's version stamps moved, so it must only
  /// be called from the thread that owns model mutations (the controller
  /// event loop) — the same externally-synchronized contract as every
  /// model accessor. O(1) when nothing changed since the last call;
  /// overlay-only churn re-publishes from incrementally-maintained state
  /// without touching the model.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// Last published snapshot, or nullptr before the first snapshot()
  /// call. Never reads the NetworkModel — safe from any thread while the
  /// owner thread keeps mutating model and overlay.
  [[nodiscard]] std::shared_ptr<const Snapshot> published_snapshot() const
      EXCLUDES(published_mu_);

 private:
  using PoolIndex = Snapshot::PoolIndex;

  /// Grow-on-demand access to the per-link reservation set.
  dwdm::ChannelSet& reserved_on(LinkId link);

  /// Device-only availability on a link (no reservation overlay) — pure
  /// model read, shared by the live query and the rebuild path.
  [[nodiscard]] dwdm::ChannelSet device_availability(LinkId link) const;

  /// O(1) device-free-bit maintenance off the model's change observers
  /// (attach_device_listeners). Fires on the owner thread, after the
  /// model bumped device_version().
  void on_ot_changed(const dwdm::Transponder& ot);
  void on_regen_changed(const dwdm::Regenerator& regen);

  void ensure_pools() const;
  void ensure_usage() const;
  /// Full rebuild of the derived planning state from the model (link
  /// availability, device free bitmaps, pools, usage table).
  void rebuild() const;
  /// Assemble and publish a fresh immutable Snapshot from current state.
  void publish() const;

  const NetworkModel* model_;
  /// Non-null while this inventory holds the model's device-observer
  /// slot (owner-thread only; used to detach on destruction).
  NetworkModel* listening_ = nullptr;

  // Reservation overlay. `reserved_by_link_` is indexed by link id value;
  // `channel_reservation_count_` keeps reservations() O(1). OT/regen
  // reservations are bitmaps keyed by id value with explicit counts.
  std::vector<dwdm::ChannelSet> reserved_by_link_;
  std::size_t channel_reservation_count_ = 0;
  std::vector<std::uint64_t> reserved_ot_bits_;
  std::size_t reserved_ot_count_ = 0;
  std::vector<std::uint64_t> reserved_regen_bits_;
  std::size_t reserved_regen_count_ = 0;

  // Per-site device pools, built lazily from the model (sites are fixed at
  // model construction; pools are rebuilt if devices were added since).
  // OTs are sorted by (line_rate, id) so the first free adequate entry is
  // the smallest adequate rate with the lowest id — the same pick the
  // old full scan made. Regens keep id order. Shared immutably with
  // published snapshots.
  mutable std::shared_ptr<const PoolIndex> pools_;

  // Per-channel usage table (device state only, reservations excluded),
  // recomputed when the model's plant version moves. Shared immutably
  // with published snapshots.
  mutable std::shared_ptr<const std::vector<std::size_t>> usage_;
  mutable std::uint64_t usage_version_ = 0;

  // Incrementally-maintained snapshot ingredients, valid while the model
  // version stamps below match the model. `device_avail_` is device-only
  // per-link availability; `net_avail_` is device minus reservations and
  // is what publish copies into the snapshot.
  mutable bool built_ = false;
  mutable std::vector<dwdm::ChannelSet> device_avail_;
  mutable std::vector<dwdm::ChannelSet> net_avail_;
  mutable std::vector<std::uint64_t> ot_device_free_bits_;
  mutable std::vector<std::uint64_t> regen_device_free_bits_;
  mutable std::uint64_t built_plant_version_ = 0;
  mutable std::uint64_t built_topology_version_ = 0;
  mutable std::uint64_t built_device_version_ = 0;

  // Publish state: set when the overlay changed since the last publish.
  mutable bool overlay_dirty_ = false;
  mutable std::uint64_t publish_seq_ = 0;

  // The one cross-thread seam: the owner thread swaps in each new
  // snapshot, published_snapshot() readers on any thread copy it out.
  mutable Mutex published_mu_;  // griphon-lint: allow(owner-thread) any caller of published_snapshot()
  mutable std::shared_ptr<const Snapshot> published_
      GUARDED_BY(published_mu_);
};

}  // namespace griphon::core
