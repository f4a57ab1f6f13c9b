#include "fault/fault_layer.h"

#include <algorithm>
#include <string>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/logging.h"
#include "util/sorted_view.h"

namespace inband {

namespace {
// Hold of a reordered packet, uniform in [min, max); a duplicate re-arrives
// within [0, max).
constexpr SimTime kReorderHoldMin = us(50);
constexpr SimTime kReorderHoldMax = us(500);
}  // namespace

FaultLayer::FaultLayer(Simulator& sim, Network& net, FaultPlan plan,
                       std::vector<LinkRef> topology)
    : sim_{sim}, net_{net}, plan_{std::move(plan)} {
  plan_.validate();

  flaps_.reserve(plan_.flaps.size());
  for (const auto& spec : plan_.flaps) flaps_.push_back({spec, {}});

  links_.reserve(topology.size());
  for (const auto& ref : topology) {
    INBAND_ASSERT(ref.scope != LinkScope::kAll,
                  "topology entries need a concrete scope");
    INBAND_ASSERT(net_.has_link(ref.from, ref.to),
                  "fault topology names a missing link");
    LinkState& state = links_.emplace_back();
    state.ref = ref;
    for (const auto& spec : plan_.links) {
      if (matches(spec.scope, spec.index, ref)) state.specs.push_back(&spec);
    }
    for (std::size_t f = 0; f < flaps_.size(); ++f) {
      if (matches(flaps_[f].spec.scope, flaps_[f].spec.index, ref)) {
        state.flaps.push_back(f);
      }
    }
    // Per-link engine: the same plan seed faults the same packets on a link
    // regardless of what other links carry.
    state.rng.reseed(splitmix64(plan_.seed ^ link_key(ref.from, ref.to)));
  }
  std::sort(links_.begin(), links_.end(),
            [](const LinkState& a, const LinkState& b) {
              return link_key(a.ref.from, a.ref.to) <
                     link_key(b.ref.from, b.ref.to);
            });
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    const bool inserted =
        link_index_.emplace(link_key(links_[i].ref.from, links_[i].ref.to), i)
            .second;
    INBAND_ASSERT(inserted, "duplicate link in fault topology");
  }

  for (std::size_t f = 0; f < flaps_.size(); ++f) {
    sim_.schedule_at(flaps_[f].spec.down_at,
                     [this, f] { flap_transition(f, /*down=*/true); });
    sim_.schedule_at(flaps_[f].spec.up_at,
                     [this, f] { flap_transition(f, /*down=*/false); });
  }

  net_.set_interceptor(this);
}

FaultLayer::~FaultLayer() { net_.set_interceptor(nullptr); }

void FaultLayer::record_link_event(FaultEvent::Kind kind,
                                   const LinkRef& ref) {
  // hotlint:allow(hot-growth): one record per injected fault, not per packet
  events_.push_back({kind, sim_.now(), ref.from, ref.to, ref.index});
}

void FaultLayer::record_server_event(FaultEvent::Kind kind, int server) {
  events_.push_back({kind, sim_.now(), 0, 0, server});
  switch (kind) {
    case FaultEvent::Kind::kServerStall:
      ++counters_.get("fault.server_stalls");
      break;
    case FaultEvent::Kind::kServerCrash:
      ++counters_.get("fault.server_crashes");
      break;
    case FaultEvent::Kind::kServerRestart:
      ++counters_.get("fault.server_restarts");
      break;
    default:
      INBAND_ASSERT(false, "not a server fault event");
  }
}

void FaultLayer::flap_transition(std::size_t flap_index, bool down) {
  FlapState& flap = flaps_[flap_index];
  if (down) {
    INBAND_ASSERT(flap.phase == FlapPhase::kPending, "flap already down");
    flap.phase = FlapPhase::kDown;
  } else {
    INBAND_ASSERT(flap.phase == FlapPhase::kDown, "flap not down");
    flap.phase = FlapPhase::kRestored;
  }
  ++counters_.get("fault.flap_transitions");
  for (auto& link : links_) {
    for (const std::size_t f : link.flaps) {
      if (f != flap_index) continue;
      link.down_count += down ? 1 : -1;
      INBAND_DCHECK(link.down_count >= 0);
      record_link_event(down ? FaultEvent::Kind::kLinkDown
                             : FaultEvent::Kind::kLinkUp,
                        link.ref);
    }
  }
  LOG_INFO() << '[' << format_duration(sim_.now()) << "] fault: link flap "
             << (down ? "down" : "up") << " ("
             << link_scope_name(flap.spec.scope) << " index "
             << flap.spec.index << ")";
}

FaultLayer::LinkState* FaultLayer::find_link(Ipv4 from, Ipv4 to) {
  const auto it = link_index_.find(link_key(from, to));
  return it == link_index_.end() ? nullptr : &links_[it->second];
}

SendVerdict FaultLayer::on_send(const Packet& pkt, Ipv4 from, Ipv4 to) {
  LinkState* link = find_link(from, to);
  if (link == nullptr) return {};
  return decide(*link, pkt);
}

void FaultLayer::on_send_batch(const PacketBatch& batch, Ipv4 from, Ipv4 to,
                               BatchVerdict& out) {
  LinkState* link = find_link(from, to);  // one lookup per batch
  if (link == nullptr) return;  // verdicts default to pass-through
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    out.v[i] = decide(*link, *batch[i]);
  }
}

SendVerdict FaultLayer::decide(LinkState& link, const Packet& pkt) {
  ++decisions_;

  if (link.down_count > 0) {
    ++flap_drops_;
    // hotlint:allow(hot-growth): one id per dropped packet, faults only
    dropped_ids_.try_emplace(pkt.pkt_id);
    record_link_event(FaultEvent::Kind::kFlapDrop, link.ref);
    return {.drop = true};
  }

  const SimTime now = sim_.now();
  SendVerdict verdict;
  bool touched = false;
  for (const LinkFaultSpec* spec : link.specs) {
    if (now < spec->start || now >= spec->end) continue;
    if (spec->loss > 0.0 && link.rng.bernoulli(spec->loss)) {
      ++loss_;
      // hotlint:allow(hot-growth): one id per dropped packet, faults only
      dropped_ids_.try_emplace(pkt.pkt_id);
      record_link_event(FaultEvent::Kind::kLoss, link.ref);
      return {.drop = true};
    }
    if (spec->duplicate > 0.0 && verdict.duplicate_hold == kNoTime &&
        link.rng.bernoulli(spec->duplicate)) {
      // The copy re-arrives within the reorder window — a late duplicate
      // stresses the estimators harder than a back-to-back one.
      verdict.duplicate_hold = static_cast<SimTime>(link.rng.uniform_u64(
          0, static_cast<std::uint64_t>(kReorderHoldMax)));
      ++duplicates_;
      touched = true;
      record_link_event(FaultEvent::Kind::kDuplicate, link.ref);
    }
    if (spec->reorder > 0.0 && link.rng.bernoulli(spec->reorder)) {
      verdict.hold += static_cast<SimTime>(link.rng.uniform_u64(
          static_cast<std::uint64_t>(kReorderHoldMin),
          static_cast<std::uint64_t>(kReorderHoldMax)));
      ++reorders_;
      touched = true;
      record_link_event(FaultEvent::Kind::kReorder, link.ref);
    }
    if (spec->jitter_max > 0) {
      const SimTime j = static_cast<SimTime>(link.rng.uniform_u64(
          0, static_cast<std::uint64_t>(spec->jitter_max)));
      if (j > 0) {
        verdict.hold += j;
        ++jittered_;
      }
    }
  }
  ++passed_;
  // hotlint:allow(hot-growth): one id per faulted-but-forwarded packet
  if (touched) touched_forwarded_ids_.try_emplace(pkt.pkt_id);
  return verdict;
}

void FaultLayer::audit_invariants(AuditScope& scope) const {
  const std::uint64_t decisions = counters_.value("fault.decisions");
  const std::uint64_t drops = counters_.value("fault.loss") +
                              counters_.value("fault.flap_drops");
  scope.check(decisions == drops + counters_.value("fault.passed"),
              "decisions-partitioned",
              "decisions != drops + passed");
  scope.check(dropped_ids_.size() == drops, "dropped-ids-match-counters",
              "tracked dropped ids: " + std::to_string(dropped_ids_.size()) +
                  ", counted drops: " + std::to_string(drops));

  // A packet the layer dropped must never also have been forwarded: iterate
  // the smaller set against the larger. The sorted snapshot fixes which
  // offending pkt_id a failing audit names first.
  const auto& small = dropped_ids_.size() <= touched_forwarded_ids_.size()
                          ? dropped_ids_
                          : touched_forwarded_ids_;
  const auto& large = dropped_ids_.size() <= touched_forwarded_ids_.size()
                          ? touched_forwarded_ids_
                          : dropped_ids_;
  for (const auto* e : sorted_entries(small)) {
    const std::uint64_t id = e->first;
    if (!scope.check(!large.contains(id), "dropped-xor-delivered",
                     "pkt_id " + std::to_string(id) +
                         " both dropped and forwarded")) {
      break;
    }
  }

  // Flap state machines track the clock (<=/>= at the boundaries: the
  // transition event and an audit at the same instant run in FIFO order).
  const SimTime now = scope.now();
  for (std::size_t f = 0; f < flaps_.size(); ++f) {
    const FlapState& flap = flaps_[f];
    const std::string which = "flap " + std::to_string(f);
    switch (flap.phase) {
      case FlapPhase::kPending:
        scope.check(now <= flap.spec.down_at, "flap-phase-vs-clock",
                    which + " pending after down_at");
        break;
      case FlapPhase::kDown:
        scope.check(now >= flap.spec.down_at && now <= flap.spec.up_at,
                    "flap-phase-vs-clock", which + " down outside window");
        break;
      case FlapPhase::kRestored:
        scope.check(now >= flap.spec.up_at, "flap-phase-vs-clock",
                    which + " restored before up_at");
        break;
    }
  }
  for (const auto& link : links_) {
    int down = 0;
    for (const std::size_t f : link.flaps) {
      down += flaps_[f].phase == FlapPhase::kDown ? 1 : 0;
    }
    scope.check(link.down_count == down, "down-count-matches-flap-phases");
  }

  // The executed timeline is appended in simulation order.
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (!scope.check(events_[i - 1].t <= events_[i].t,
                     "event-timeline-monotone",
                     "event " + std::to_string(i) + " out of order")) {
      break;
    }
  }
}

void FaultLayer::digest_state(StateDigest& digest) const {
  digest.mix(links_.size());
  for (const auto& link : links_) {
    digest.mix(link_key(link.ref.from, link.ref.to));
    for (const std::uint64_t w : link.rng.state()) digest.mix(w);
    digest.mix_u32(static_cast<std::uint32_t>(link.down_count));
  }
  digest.mix(flaps_.size());
  for (const auto& flap : flaps_) {
    digest.mix_u32(static_cast<std::uint32_t>(flap.phase));
  }
  for (const auto& [name, value] : counters_.snapshot()) {
    digest.mix_string(name);
    digest.mix(value);
  }
  digest.mix(events_.size());
  for (const auto& ev : events_) {
    digest.mix_u32(static_cast<std::uint32_t>(ev.kind));
    digest.mix_i64(ev.t);
    digest.mix_u32(ev.from);
    digest.mix_u32(ev.to);
    digest.mix_i64(ev.index);
  }
  UnorderedDigest dropped;
  // detlint:allow(unordered-iter): per-id hashes fold through the commutative UnorderedDigest combiner
  for (const auto& [id, none] : dropped_ids_) dropped.add(splitmix64(id));
  dropped.mix_into(digest);
  UnorderedDigest touched;
  // detlint:allow(unordered-iter): per-id hashes fold through the commutative UnorderedDigest combiner
  for (const auto& [id, none] : touched_forwarded_ids_) {
    touched.add(splitmix64(id));
  }
  touched.mix_into(digest);
}

void FaultLayer::corrupt_bookkeeping_for_test() {
  dropped_ids_.try_emplace(0xdead);
  touched_forwarded_ids_.try_emplace(0xdead);
}

}  // namespace inband
