// The simulated packet.
//
// A TCP-ish segment: flow key, 32-bit sequence/ack numbers (with wraparound,
// as on the wire), flags, advertised window, timestamp option, and a payload
// *length* rather than payload bytes. Application messages ride along as
// PayloadRefs annotated with the stream offset at which they end, so the
// receiver's TCP can deliver a message object exactly when its final byte
// arrives in order — message content never teleports around the simulated
// network.
//
// Payload ownership is shard-local: an intrusive, non-atomic count in
// AppPayload, held by PayloadRef. A payload never crosses threads — the
// shard boundary deep-copies it (detach_packet_copy) — so the count needs
// no atomics and no control block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <typeinfo>
#include <utility>

#include "net/flow.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class PayloadRef;

// Base class for application payload objects carried inside packets.
INBAND_SHARD_LOCAL(owner)
struct AppPayload {
  AppPayload() = default;
  // A copy is a new object with no refs yet. It never reads the source's
  // count: at the shard boundary the source belongs to another thread.
  AppPayload(const AppPayload&) noexcept {}
  AppPayload& operator=(const AppPayload&) noexcept { return *this; }
  virtual ~AppPayload() = default;

  // Deep copy with fresh ownership, required when a packet crosses a shard
  // boundary (net/shard_channel.h): the clone must share no count or pooled
  // storage with the original, because the original's refs stay on the
  // producing shard's thread. Payload types that never cross shards may keep
  // the default (an empty ref); the boundary asserts on it.
  virtual PayloadRef clone_detached() const;

 protected:
  // Runs when the last PayloadRef drops. Pooled payload types return the
  // object to their pool (net/payload_pool.h); the default deletes it.
  virtual void recycle() const {
    // hotlint:allow(hot-alloc): unpooled payloads only (shard-boundary clones)
    delete this;
  }

 private:
  friend class PayloadRef;
  mutable std::uint32_t refs_ = 0;
};

// Counted handle to an AppPayload. Copying adds a ref, moving steals it,
// and dropping the last one recycles the payload.
INBAND_SHARD_LOCAL(owner)
class PayloadRef {
 public:
  PayloadRef() = default;
  // Takes a ref on `p` (a fresh object, or one other refs already hold).
  explicit PayloadRef(const AppPayload* p) noexcept : p_{p} {
    if (p_ != nullptr) ++p_->refs_;
  }
  PayloadRef(const PayloadRef& other) noexcept : PayloadRef{other.p_} {}
  PayloadRef(PayloadRef&& other) noexcept : p_{other.p_} {
    other.p_ = nullptr;
  }
  // By-value parameter: serves copy and move assignment alike.
  PayloadRef& operator=(PayloadRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PayloadRef() { reset(); }

  void reset() {
    if (p_ == nullptr) return;
    const AppPayload* p = p_;
    p_ = nullptr;
    if (--p->refs_ == 0) p->recycle();
  }

  const AppPayload* get() const { return p_; }
  const AppPayload& operator*() const {
    INBAND_DCHECK(p_ != nullptr);
    return *p_;
  }
  const AppPayload* operator->() const {
    INBAND_DCHECK(p_ != nullptr);
    return p_;
  }
  explicit operator bool() const { return p_ != nullptr; }

  // Refs held on the payload (0 for an empty handle).
  std::uint32_t use_count() const { return p_ != nullptr ? p_->refs_ : 0; }

 private:
  const AppPayload* p_ = nullptr;
};

inline PayloadRef AppPayload::clone_detached() const { return {}; }

// A fresh, unpooled heap payload of type T.
template <typename T, typename... Args>
PayloadRef make_payload(Args&&... args) {
  return PayloadRef{new T(std::forward<Args>(args)...)};
}

// The payload as its exact type T. Payload types are final, so an exact
// type check replaces a dynamic cast.
template <typename T>
const T& payload_as(const PayloadRef& ref) {
  INBAND_ASSERT(ref && typeid(*ref) == typeid(T),
                "payload is not of the expected type");
  return static_cast<const T&>(*ref);
}

// A message whose final byte lies within this segment's payload.
// `end_offset` is an absolute 64-bit stream offset (one past the last byte).
struct MessageRef {
  std::uint64_t end_offset = 0;
  PayloadRef payload;
};

// Message container with inline storage for the common case.
//
// Rig packets carry zero or one message boundary (a pipelined request or a
// response each fit in a single MSS); a std::vector here was the largest
// per-packet heap allocation in the fig-3 rig. Two refs live inline; longer
// lists (deep retransmission ranges) spill to a heap array. Only `push_msg`
// ever allocates, and only past the inline capacity.
INBAND_SHARD_LOCAL(owner)
class MsgList {
 public:
  static constexpr std::uint32_t kInline = 2;

  MsgList() = default;
  MsgList(std::initializer_list<MessageRef> init) {
    for (const MessageRef& m : init) push_msg(m);
  }
  MsgList(const MsgList& other) { copy_from(other); }
  MsgList(MsgList&& other) noexcept { move_from(std::move(other)); }
  MsgList& operator=(const MsgList& other) {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  MsgList& operator=(MsgList&& other) noexcept {
    if (this != &other) {
      clear();
      move_from(std::move(other));
    }
    return *this;
  }
  ~MsgList() { clear(); }

  void push_msg(MessageRef m) {
    if (heap_ == nullptr) {
      if (size_ < kInline) {
        inline_[size_++] = std::move(m);
        return;
      }
      INBAND_COLD_OK("spill past inline capacity: rig packets carry <=2 msgs");
      spill(2 * kInline);
    } else if (size_ == heap_cap_) {
      INBAND_COLD_OK("heap regrowth only beyond inline capacity");
      spill(2 * heap_cap_);
    }
    heap_[size_++] = std::move(m);
  }

  void clear() {
    if (size_ == 0) return;  // a spilled list is never empty
    if (heap_ != nullptr) {
      INBAND_COLD_OK("heap branch exists only after a >2-message spill");
      delete[] heap_;
      heap_ = nullptr;
      heap_cap_ = 0;
    } else {
      for (std::uint32_t i = 0; i < size_; ++i) inline_[i].payload.reset();
    }
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const MessageRef* begin() const { return data(); }
  const MessageRef* end() const { return data() + size_; }
  const MessageRef& operator[](std::size_t i) const { return data()[i]; }
  const MessageRef& front() const { return data()[0]; }
  const MessageRef& back() const { return data()[size_ - 1]; }

 private:
  const MessageRef* data() const { return heap_ != nullptr ? heap_ : inline_; }

  void spill(std::uint32_t new_cap) {
    MessageRef* grown = new MessageRef[new_cap];
    MessageRef* old = heap_ != nullptr ? heap_ : inline_;
    for (std::uint32_t i = 0; i < size_; ++i) grown[i] = std::move(old[i]);
    delete[] heap_;
    heap_ = grown;
    heap_cap_ = new_cap;
  }

  void copy_from(const MsgList& other) {
    for (const MessageRef& m : other) push_msg(m);
  }

  void move_from(MsgList&& other) noexcept {
    size_ = other.size_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      heap_cap_ = other.heap_cap_;
      other.heap_ = nullptr;
      other.heap_cap_ = 0;
    } else {
      for (std::uint32_t i = 0; i < size_; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
    }
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t heap_cap_ = 0;
  MessageRef* heap_ = nullptr;  // null while the list fits inline
  MessageRef inline_[kInline];
};

namespace tcpflag {
inline constexpr std::uint8_t kSyn = 1 << 0;
inline constexpr std::uint8_t kAck = 1 << 1;
inline constexpr std::uint8_t kFin = 1 << 2;
inline constexpr std::uint8_t kRst = 1 << 3;
inline constexpr std::uint8_t kPsh = 1 << 4;
}  // namespace tcpflag

// Every Packet field except the message list. PacketPool::acquire resets a
// recycled slot by assigning a fresh header (the list was emptied when the
// slot was released), so a field added here is reset with the rest.
INBAND_SHARD_LOCAL(owner)
struct PacketHeader {
  FlowKey flow;
  std::uint32_t seq = 0;        // sequence number of the first payload byte
  std::uint32_t ack = 0;        // cumulative ack (valid when kAck set)
  std::uint32_t wnd = 0;        // advertised receive window, bytes
  std::uint8_t flags = 0;
  std::uint32_t payload_len = 0;

  // TCP timestamp option (always on in this model).
  SimTime ts_val = kNoTime;  // sender clock at transmission
  SimTime ts_ecr = kNoTime;  // echoed peer timestamp

  // Bookkeeping stamped by Network::send_batch().
  std::uint64_t pkt_id = 0;
  SimTime sent_at = kNoTime;
};

INBAND_SHARD_LOCAL(owner)
struct Packet : PacketHeader {
  // Application message boundaries inside this segment (sender-ordered).
  MsgList msgs;

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  // Bytes on the wire: IPv4 (20) + TCP with timestamp option (32) + payload.
  std::uint32_t wire_size() const { return 52 + payload_len; }

  // Sequence space this segment occupies (SYN and FIN consume one each).
  std::uint32_t seq_len() const {
    return payload_len + (has(tcpflag::kSyn) ? 1u : 0u) +
           (has(tcpflag::kFin) ? 1u : 0u);
  }
};
// A field declared in Packet rather than PacketHeader would survive slot
// reuse in PacketPool::acquire and be lost by detach_packet_copy.
static_assert(sizeof(Packet) == sizeof(PacketHeader) + sizeof(MsgList),
              "every Packet field except msgs belongs in PacketHeader");

std::string format_packet(const Packet& p);

// Header copy whose message refs are deep clones with fresh ownership
// (AppPayload::clone_detached). The cross-shard ingress uses this instead of
// Packet's implicit copy, whose MsgList copy would share payload counts
// across the shard boundary: the consumer's copy could then be the last ref
// to drop, recycling into the producer's pool from the wrong thread.
// Asserts if a carried payload type does not implement clone_detached().
Packet detach_packet_copy(const Packet& src);

}  // namespace inband
