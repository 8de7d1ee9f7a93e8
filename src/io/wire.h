#ifndef CMP_IO_WIRE_H_
#define CMP_IO_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cmp/bundle.h"
#include "cmp/frontier.h"
#include "common/schema.h"
#include "hist/quantiles.h"
#include "tree/split.h"
#include "tree/tree.h"

namespace cmp {
namespace wire {

/// Versioned, endian-stable wire protocol for distributed CMP training
/// (src/dist/): length-prefixed frames over a stream socket, carrying
/// the per-pass structures the coordinator and its workers exchange —
/// the frontier skeleton out, HistBundle / Pending / collect state back.
///
/// The framing reuses the `.cmpb` header discipline of io/model_blob.cc:
/// a fixed magic, an explicit format version, an endianness probe word
/// that a cross-endian peer cannot misread as valid, and size caps
/// validated before any allocation. Every frame:
///
///   offset  size  field
///        0     4  magic "CMPW"
///        4     4  u32 protocol version (kVersion)
///        8     4  u32 endianness probe (kEndianProbe, 0x01020304)
///       12     4  u32 message type
///       16     8  u64 payload length (<= kMaxFrameBytes)
///       24     -  payload
///
/// Payloads are packed by WireWriter / WireReader: fixed-width ints and
/// raw-bit doubles in host order (safe because the probe rejects
/// cross-endian peers), LEB128 varints for counts and zigzag varints for
/// signed fields. Every reader is bounds-checked and fails sticky — a
/// truncated or corrupt payload yields ok() == false, never an
/// out-of-bounds read or a runaway allocation.

constexpr char kMagic[4] = {'C', 'M', 'P', 'W'};
/// Version 2 dropped the per-fresh-entry sibling index from kPassBegin.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kEndianProbe = 0x01020304u;
constexpr size_t kFrameHeaderBytes = 24;
/// Upper bound on one frame's payload; a length prefix beyond it is
/// treated as corruption, not as an allocation request.
constexpr uint64_t kMaxFrameBytes = 1ull << 30;

/// Coordinator/worker message types. The handshake pins the protocol
/// version; each subsequent frame re-states it so a desynchronized or
/// foreign peer fails on the very next frame.
enum class MsgType : uint32_t {
  kHello = 1,       // C->W: rank, table path, slice, options, grids
  kHelloAck = 2,    // W->C: slice record count (sanity echo)
  kPassBegin = 3,   // C->W: tree + frontier skeleton for one pass
  kPassResult = 4,  // W->C: merged local histograms / pending / collect
  kShutdown = 5,    // C->W: orderly exit
};

/// Serializes a frame header (exposed for the robustness tests).
std::string BuildFrameHeader(MsgType type, uint64_t payload_bytes);

/// Validates a kFrameHeaderBytes-long header. False with *error on bad
/// magic, version, endianness, or an oversized payload length.
bool ParseFrameHeader(const uint8_t* header, MsgType* type,
                      uint64_t* payload_bytes, std::string* error);

/// Writes one frame to a connected stream socket (EINTR-safe, no
/// SIGPIPE). False when the peer is gone.
bool SendFrame(int fd, MsgType type, const std::string& payload);

/// Blocks until one full frame arrives. False with *error on EOF or a
/// short read (a dead peer mid-frame), or on any header validation
/// failure. Never allocates more than the validated payload length.
bool RecvFrame(int fd, MsgType* type, std::string* payload,
               std::string* error);

/// Append-only payload builder.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  /// Raw bit pattern — doubles round-trip bit-exactly.
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  /// LEB128 varint.
  void PutVar(uint64_t v);
  /// Zigzag varint for signed fields (attr ids, interval ranges).
  void PutVarSigned(int64_t v);
  void PutString(const std::string& s);
  void PutRaw(const void* data, size_t size);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload reader with a sticky failure flag: after the
/// first short or invalid read every Get* returns zero and ok() stays
/// false, so callers can decode a whole structure and check once.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), n_(size) {}
  explicit WireReader(const std::string& payload)
      : WireReader(payload.data(), payload.size()) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  double GetF64();
  uint64_t GetVar();
  int64_t GetVarSigned();
  bool GetString(std::string* out);

  bool ok() const { return ok_; }
  /// Bytes not yet consumed — the generic sanity cap for element counts
  /// (every wire element is at least one byte, so a count larger than
  /// remaining() is corruption regardless of element type).
  size_t remaining() const { return n_ - off_; }
  /// True when the payload was consumed exactly (trailing garbage is a
  /// framing bug worth failing on).
  bool AtEnd() const { return ok_ && off_ == n_; }
  void Fail() { ok_ = false; }

 private:
  bool Take(void* out, size_t size);

  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------
// Structure serializers. Writers never fail; every reader returns false
// (leaving the output unspecified) on truncated or inconsistent input.

void WriteSplit(WireWriter* w, const Split& split);
bool ReadSplit(WireReader* r, Split* split);

/// The tree in routing form: per node only what ScanRange descends on
/// (has-children flag, split, child ids). Leaf classes, class counts
/// and depths stay coordinator-side.
void WriteTree(WireWriter* w, const DecisionTree& tree);
/// Appends the nodes onto `tree`, which must be freshly constructed
/// with the right schema.
bool ReadTree(WireReader* r, DecisionTree* tree);

/// Interval grids for every numeric attribute of `schema` (boundaries +
/// domain bounds); categorical attributes read back as default grids,
/// exactly as BuildGrids leaves them.
void WriteGrids(WireWriter* w, const Schema& schema,
                const std::vector<IntervalGrid>& grids);
bool ReadGrids(WireReader* r, const Schema& schema,
               std::vector<IntervalGrid>* grids);

/// A bundle's shape 4-tuple (variant, X attribute, X range). Together
/// with the schema and grids this reconstructs an empty bundle with
/// exactly CloneEmptyShape()'s dimensions.
void WriteBundleShape(WireWriter* w, const HistBundle& bundle);
bool ReadBundleShape(WireReader* r, const Schema& schema,
                     const std::vector<IntervalGrid>& grids,
                     HistBundle* bundle);

/// Every histogram cell of the bundle, in canonical (attribute-major,
/// row-major) order, prefixed by the total cell count as a shape check.
void WriteBundleCounts(WireWriter* w, const HistBundle& bundle);
/// Adds the written cells into `dst`, which must have the writer's
/// shape — the wire edition of MergeSameShape.
bool ReadBundleCountsInto(WireReader* r, HistBundle* dst);

/// A pending split's structure without any accumulated state: attr,
/// alive intervals, segment ranges/plans, bundle shapes, exact splits.
/// Reading reconstructs what ClonePendingEmpty would build from the
/// original — the empty mirror a worker scans into.
void WritePendingSkeleton(WireWriter* w, const Pending& p);
bool ReadPendingSkeleton(WireReader* r, const Schema& schema,
                         const std::vector<IntervalGrid>& grids,
                         int num_classes, std::unique_ptr<Pending>* out);

/// The state a scan accumulated into a pending: buffers, segment
/// counts, fresh bundle cells — walked in the skeleton's canonical
/// order.
void WritePendingState(WireWriter* w, const Pending& p);
/// Merges the written state into `dst` (structurally identical to the
/// writer's pending); buffered record ids are rebased by +rid_base —
/// the wire edition of MergePendingInto plus the worker-to-global id
/// translation.
bool ReadPendingStateInto(WireReader* r, Pending* dst, RecordId rid_base);

}  // namespace wire
}  // namespace cmp

#endif  // CMP_IO_WIRE_H_
