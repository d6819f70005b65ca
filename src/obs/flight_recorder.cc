#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace mpqe {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Node labels come from user programs and may contain anything.
std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

uint32_t ClampU32(uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
}

}  // namespace

const char* FlightEventTypeToString(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSessionStart: return "session_start";
    case FlightEventType::kSessionEnd: return "session_end";
    case FlightEventType::kSend: return "send";
    case FlightEventType::kDeliver: return "deliver";
    case FlightEventType::kNodeFire: return "node_fire";
    case FlightEventType::kPhase: return "phase";
    case FlightEventType::kTermination: return "termination";
    case FlightEventType::kStall: return "stall";
    case FlightEventType::kWatchdogDump: return "watchdog_dump";
    case FlightEventType::kPlanPrepare: return "plan_prepare";
    case FlightEventType::kEventTypeCount: break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  if (options_.ring_count == 0) options_.ring_count = 1;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  options_.ring_capacity = RoundUpPow2(options_.ring_capacity);
  slot_mask_ = options_.ring_capacity - 1;
  rings_ = std::vector<Ring>(options_.ring_count);
  for (Ring& ring : rings_) {
    ring.slots = std::make_unique<Slot[]>(options_.ring_capacity);
  }
}

FlightRecorder::Ring& FlightRecorder::ThisThreadRing() {
  // A process-wide thread counter assigns each thread a stable ring
  // index on first use. Plain thread_local POD: no destructor, no
  // reference to any recorder instance, so short-lived session worker
  // threads cannot leave dangling state behind.
  static std::atomic<uint32_t> thread_counter{0};
  thread_local uint32_t thread_index =
      thread_counter.fetch_add(1, std::memory_order_relaxed);
  return rings_[thread_index % rings_.size()];
}

void FlightRecorder::Record(FlightRecord record) {
  record.ts_ns = NowNs();
  uint64_t words[5];
  static_assert(sizeof(words) == sizeof(FlightRecord), "word count");
  std::memcpy(words, &record, sizeof(record));

  Ring& ring = ThisThreadRing();
  const uint64_t claim = ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[claim & slot_mask_];
  // Seqlock publish: odd while writing, then the unique even value for
  // this claim. A snapshot that observes mismatched or odd sequences
  // drops the slot. Two threads sharing a ring can race on one slot
  // only when their claims are a full ring apart; the loser's final
  // seq then fails the seq1==seq2 check and the slot reads as torn —
  // lost diagnostics, never a misread. The payload stores are release
  // so the odd mark cannot sink below them (and the reader's acquire
  // payload loads pair with them); fence-free on purpose — GCC rejects
  // atomic_thread_fence under -fsanitize=thread with -Werror.
  slot.seq.store(2 * claim + 1, std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(2 * (claim + 1), std::memory_order_release);
}

void FlightRecorder::RecordEvent(FlightEventType type, uint64_t query_id,
                                 int32_t a, int32_t b, uint32_t rows,
                                 uint32_t aux, uint8_t kind) {
  FlightRecord record;
  record.query_id = query_id;
  record.a = a;
  record.b = b;
  record.rows = rows;
  record.aux = aux;
  record.type = static_cast<uint8_t>(type);
  record.kind = kind;
  Record(record);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(rings_.size() * 64);
  for (const Ring& ring : rings_) {
    const uint64_t next = ring.next.load(std::memory_order_acquire);
    const uint64_t count =
        std::min<uint64_t>(next, options_.ring_capacity);
    for (uint64_t i = next - count; i < next; ++i) {
      const Slot& slot = ring.slots[i & slot_mask_];
      const uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0 || (seq1 & 1) != 0) continue;
      uint64_t words[5];
      // Acquire payload loads keep the seq2 re-read from hoisting above
      // them (an acquire load orders everything after it in program
      // order), standing in for the classic acquire fence, which GCC
      // refuses to compile under -fsanitize=thread with -Werror.
      for (int w = 0; w < 5; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
      }
      const uint64_t seq2 = slot.seq.load(std::memory_order_relaxed);
      if (seq1 != seq2) continue;  // torn: overwritten mid-copy
      FlightRecord record;
      std::memcpy(&record, words, sizeof(record));
      if (record.type >=
          static_cast<uint8_t>(FlightEventType::kEventTypeCount)) {
        continue;
      }
      out.push_back(record);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& x, const FlightRecord& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return out;
}

uint64_t FlightRecorder::recorded() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.next.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// FlightSessionObserver

void FlightSessionObserver::OnSend(const SendEvent& event) {
  uint32_t rows = 0;
  uint8_t kind = 0;
  if (event.message != nullptr) {
    kind = static_cast<uint8_t>(event.message->kind);
    if (event.message->kind == MessageKind::kTupleSegment) {
      rows = ClampU32(event.message->segment().num_rows);
    }
  }
  recorder_->RecordEvent(FlightEventType::kSend, query_id_, event.from,
                         event.to, rows, 0, kind);
}

void FlightSessionObserver::OnDeliver(const DeliverEvent& event) {
  recorder_->RecordEvent(FlightEventType::kDeliver, query_id_, event.from,
                         event.to, ClampU32(event.payload_rows),
                         ClampU32(event.handle_ns),
                         static_cast<uint8_t>(event.kind));
}

void FlightSessionObserver::OnNodeFire(const NodeFireEvent& event) {
  recorder_->RecordEvent(FlightEventType::kNodeFire, query_id_, event.node,
                         static_cast<int32_t>(event.tuples_in),
                         event.tuples_out, ClampU32(event.handle_ns),
                         static_cast<uint8_t>(event.trigger));
}

void FlightSessionObserver::OnPhase(const PhaseEvent& event) {
  recorder_->RecordEvent(FlightEventType::kPhase, query_id_,
                         event.begin ? 1 : 0, -1, 0, 0,
                         static_cast<uint8_t>(event.phase));
}

void FlightSessionObserver::OnTermination(const TerminationEvent& event) {
  recorder_->RecordEvent(
      FlightEventType::kTermination, query_id_, event.node,
      static_cast<int32_t>(event.wave),
      ClampU32(event.idleness < 0 ? 0 : static_cast<uint64_t>(event.idleness)),
      event.open_work ? 1 : 0, static_cast<uint8_t>(event.kind));
}

// ---------------------------------------------------------------------------
// FlightDump serialization (mpqe-flightdump-v1)

namespace {

// One flight record as a JSON object. Numeric raw fields are always
// present; the decoded `type`/detail names make dumps grep-able
// without a record-layout decoder at hand.
std::string RecordJson(const FlightRecord& r) {
  const auto type = static_cast<FlightEventType>(r.type);
  std::string detail;
  switch (type) {
    case FlightEventType::kSend:
    case FlightEventType::kDeliver:
      detail = StrCat(", \"kind\": \"",
                      MessageKindToString(static_cast<MessageKind>(r.kind)),
                      "\"");
      break;
    case FlightEventType::kNodeFire:
      detail = StrCat(", \"trigger\": \"",
                      MessageKindToString(static_cast<MessageKind>(r.kind)),
                      "\"");
      break;
    case FlightEventType::kPhase:
      detail = StrCat(", \"phase\": \"",
                      PhaseToString(static_cast<Phase>(r.kind)),
                      "\", \"begin\": ", r.a == 1 ? "true" : "false");
      break;
    case FlightEventType::kTermination:
      detail = StrCat(", \"event\": \"",
                      TerminationEvent::KindToString(
                          static_cast<TerminationEvent::Kind>(r.kind)),
                      "\"");
      break;
    default:
      break;
  }
  return StrCat("{\"ts_ns\": ", r.ts_ns, ", \"type\": \"",
                FlightEventTypeToString(type), "\", \"query_id\": ",
                r.query_id, ", \"a\": ", r.a, ", \"b\": ", r.b,
                ", \"rows\": ", r.rows, ", \"aux\": ", r.aux, detail, "}");
}

std::string SccJson(const FlightDumpScc& s) {
  return StrCat(
      "{\"scc\": ", s.scc, ", \"leader\": ", s.leader,
      ", \"queue_depth\": ", s.queue_depth, ", \"members\": ", s.members,
      ", \"nontrivial\": ", s.nontrivial ? "true" : "false",
      ", \"wave_active\": ", s.wave_active ? "true" : "false",
      ", \"wave\": ", s.wave, ", \"waves_started\": ", s.waves_started,
      ", \"waiting_for\": ", s.waiting_for,
      ", \"all_confirmed\": ", s.all_confirmed ? "true" : "false",
      ", \"idleness\": ", s.idleness,
      ", \"open_work\": ", s.open_work ? "true" : "false",
      ", \"notice_pending\": ", s.notice_pending ? "true" : "false", "}");
}

std::string NodeJson(const FlightDumpNode& n) {
  return StrCat("{\"node\": ", n.node, ", \"label\": \"",
                EscapeJson(n.label), "\", \"scc\": ", n.scc,
                ", \"queue_depth\": ", n.queue_depth,
                ", \"fires\": ", n.fires,
                ", \"last_fire_ts_ns\": ", n.last_fire_ts_ns,
                ", \"sends\": ", n.sends,
                ", \"deliveries\": ", n.deliveries,
                ", \"last_delivery_ts_ns\": ", n.last_delivery_ts_ns, "}");
}

template <typename Container, typename Formatter>
void AppendJsonArray(std::string* out, std::string_view key,
                     const Container& items, Formatter&& fmt) {
  *out += StrCat("  \"", key, "\": [\n");
  size_t i = 0;
  for (const auto& item : items) {
    *out += StrCat("    ", fmt(item), ++i < items.size() ? ",\n" : "\n");
  }
  *out += "  ]";
}

}  // namespace

std::string FlightDump::ToJson() const {
  std::string out = StrCat(
      "{\n  \"schema\": \"mpqe-flightdump-v1\",\n  \"reason\": \"",
      EscapeJson(reason), "\",\n  \"query_id\": ", query_id,
      ",\n  \"stalled_ms\": ", stalled_ms, ",\n  \"delivered\": ", delivered,
      ",\n  \"in_flight\": ", in_flight, ",\n  \"stuck_scc\": ", stuck_scc,
      ",\n");
  AppendJsonArray(&out, "sccs", sccs, SccJson);
  out += ",\n";
  AppendJsonArray(&out, "nodes", nodes, NodeJson);
  out += ",\n";
  AppendJsonArray(&out, "events", events, RecordJson);
  if (!query_log_entry_json.empty()) {
    out += StrCat(",\n  \"query_log_entry\": ", query_log_entry_json);
  }
  out += "\n}\n";
  return out;
}

}  // namespace mpqe
