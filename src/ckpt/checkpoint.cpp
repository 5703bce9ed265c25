#include "ckpt/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::ckpt {

namespace {

// Sanity bounds for shape checks: anything beyond these is a corrupt or
// hostile snapshot, not a real run (the largest suite miters are orders
// of magnitude smaller).
constexpr std::uint64_t kMaxPis = 1ull << 22;
constexpr std::uint64_t kMaxAnds = 1ull << 26;
constexpr std::uint64_t kMaxPos = 1ull << 20;
constexpr std::uint64_t kMaxBankWords = 1ull << 20;
constexpr std::uint64_t kMaxBoundaryLen = 32;
constexpr std::uint64_t kMaxRound = 1ull << 16;
constexpr std::uint64_t kMaxMetrics = 1ull << 16;
constexpr std::uint64_t kMaxMetricNameLen = 256;

/// True iff `name` is a catalogued metric: a registered leaf or a name
/// composed from a registered family prefix (DESIGN.md §2.6).
bool catalogued_metric(std::string_view name) {
  for (const char* leaf : obs::metric::kRegisteredMetrics)
    if (name == leaf) return true;
  for (const char* family : obs::metric::kMetricFamilies) {
    const std::string_view prefix(family);
    if (name.size() > prefix.size() && name.starts_with(prefix)) return true;
  }
  return false;
}

const std::uint32_t* crc_table() {
  static std::uint32_t table[256];
  static const bool init = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

/// Little-endian byte emitter.
struct Writer {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back((v >> (8 * i)) & 0xFF);
  }
  void f64(double v) {
    std::uint64_t raw;
    static_assert(sizeof raw == sizeof v);
    std::memcpy(&raw, &v, sizeof raw);
    u64(raw);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
};

/// Bounds-checked little-endian reader: every accessor checks space and
/// latches `ok = false` instead of reading past the end, so the parser is
/// UB-free on arbitrary mutated input (checkpoint fuzz contract).
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t i = 0;
  bool ok = true;

  bool have(std::size_t k) {
    if (n - i < k) ok = false;
    return ok;
  }
  std::uint8_t u8() {
    if (!have(1)) return 0;
    return p[i++];
  }
  std::uint32_t u32() {
    if (!have(4)) return 0;
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) v |= std::uint32_t{p[i++]} << (8 * k);
    return v;
  }
  std::uint64_t u64() {
    if (!have(8)) return 0;
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= std::uint64_t{p[i++]} << (8 * k);
    return v;
  }
  double f64() {
    const std::uint64_t raw = u64();
    double v;
    std::memcpy(&v, &raw, sizeof v);
    return v;
  }
  std::string str(std::uint64_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len || !have(len)) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p + i), len);
    i += len;
    return s;
  }
};

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    out->insert(out->end(), buf, buf + n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const std::uint32_t* table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> serialize(const Snapshot& s) {
  Writer w;
  w.bytes.insert(w.bytes.end(), kFormatId, kFormatId + sizeof kFormatId - 1);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(s.stage));
  w.u64(s.fingerprint);
  w.f64(s.elapsed_seconds);
  w.str(s.boundary);

  // Report: sorted metrics, each name + kind byte + its live value.
  w.u32(static_cast<std::uint32_t>(s.report.metrics.size()));
  for (const obs::Metric& m : s.report.metrics) {
    w.str(m.name);
    w.u8(static_cast<std::uint8_t>(m.kind));
    if (m.kind == obs::MetricKind::kCounter)
      w.u64(m.count);
    else
      w.f64(m.value);
  }
  w.u64(s.memory_words);
  w.u8(s.window_merging ? 1 : 0);

  // Miter: PIs, then ANDs in variable order (fanin literals only — the
  // variable ids are implicit), then PO literals.
  const aig::Aig& g = s.miter;
  w.u32(g.num_pis());
  w.u64(g.num_ands());
  for (aig::Var v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
    w.u32(g.fanin0(v));
    w.u32(g.fanin1(v));
  }
  w.u64(g.num_pos());
  for (aig::Lit po : g.pos()) w.u32(po);

  w.u8(s.bank ? 1 : 0);
  if (s.bank) {
    const sim::PatternBank& b = *s.bank;
    w.u32(b.num_pis());
    w.u64(b.num_words());
    for (std::size_t wd = 0; wd < b.num_words(); ++wd)
      for (unsigned pi = 0; pi < b.num_pis(); ++pi) w.u64(b.word(pi, wd));
  }

  w.u64(s.merges.size());
  for (const auto& [node, lit] : s.merges) {
    w.u32(node);
    w.u32(lit);
  }
  w.u64(s.removed.size());
  for (aig::Var v : s.removed) w.u32(v);
  w.u32(s.next_round);
  w.u64(s.sweep_pairs_proved);
  w.u64(s.sweep_pairs_disproved);
  w.u64(s.sweep_pairs_undecided);

  w.u32(crc32(w.bytes.data(), w.bytes.size()));
  return w.bytes;
}

std::optional<Snapshot> parse(const std::uint8_t* data, std::size_t size) {
  constexpr std::size_t kMagicLen = sizeof kFormatId - 1;
  if (data == nullptr || size < kMagicLen + 4 + 4) return std::nullopt;
  if (std::memcmp(data, kFormatId, kMagicLen) != 0) return std::nullopt;

  // CRC gate first: the trailer must re-derive over everything before it.
  std::uint32_t stored = 0;
  for (int k = 0; k < 4; ++k)
    stored |= std::uint32_t{data[size - 4 + k]} << (8 * k);
  if (crc32(data, size - 4) != stored) return std::nullopt;

  Reader r{data, size - 4, kMagicLen};
  if (r.u32() != kFormatVersion) return std::nullopt;

  Snapshot s;
  const std::uint32_t stage = r.u32();
  if (stage > static_cast<std::uint32_t>(Stage::kSweep)) return std::nullopt;
  s.stage = static_cast<Stage>(stage);
  s.fingerprint = r.u64();
  s.elapsed_seconds = r.f64();
  if (!(s.elapsed_seconds >= 0)) return std::nullopt;  // also rejects NaN
  s.boundary = r.str(kMaxBoundaryLen);

  const std::uint32_t num_metrics = r.u32();
  if (!r.ok || num_metrics > kMaxMetrics) return std::nullopt;
  s.report.metrics.reserve(num_metrics);
  for (std::uint32_t k = 0; k < num_metrics; ++k) {
    obs::Metric m;
    m.name = r.str(kMaxMetricNameLen);
    const std::uint8_t kind = r.u8();
    if (!r.ok || kind > static_cast<std::uint8_t>(obs::MetricKind::kGauge))
      return std::nullopt;
    m.kind = static_cast<obs::MetricKind>(kind);
    if (m.kind == obs::MetricKind::kCounter)
      m.count = r.u64();
    else
      m.value = r.f64();
    // Strictly increasing names keep Snapshot::find's binary search valid
    // and rule out duplicates; only catalogued, finite metrics may reach
    // a resumed run's registry.
    if (!r.ok || !catalogued_metric(m.name) || !std::isfinite(m.value) ||
        (!s.report.metrics.empty() && !(s.report.metrics.back().name < m.name)))
      return std::nullopt;
    s.report.metrics.push_back(std::move(m));
  }
  s.memory_words = r.u64();
  s.window_merging = r.u8() != 0;

  const std::uint32_t num_pis = r.u32();
  const std::uint64_t num_ands = r.u64();
  if (!r.ok || num_pis > kMaxPis || num_ands > kMaxAnds) return std::nullopt;
  // Structural round-trip rebuild: every AND must land on its recorded
  // variable (stored graphs are strash-canonical because they were built
  // through add_and, so an honest snapshot reproduces node-for-node; a
  // mutated one that folds or re-shares is rejected). This is what makes
  // a resumed verdict bit-identical — the miter is the same graph.
  aig::Aig g(num_pis);
  for (std::uint64_t a = 0; a < num_ands; ++a) {
    const aig::Var expected = static_cast<aig::Var>(num_pis + 1 + a);
    const aig::Lit f0 = r.u32();
    const aig::Lit f1 = r.u32();
    if (!r.ok || aig::lit_var(f0) >= expected || aig::lit_var(f1) >= expected)
      return std::nullopt;
    if (g.add_and(f0, f1) != aig::make_lit(expected)) return std::nullopt;
  }
  const std::uint64_t num_pos = r.u64();
  if (!r.ok || num_pos > kMaxPos) return std::nullopt;
  for (std::uint64_t o = 0; o < num_pos; ++o) {
    const aig::Lit po = r.u32();
    if (!r.ok || aig::lit_var(po) >= g.num_nodes()) return std::nullopt;
    g.add_po(po);
  }
  s.miter = std::move(g);

  if (r.u8() != 0) {
    const std::uint32_t bank_pis = r.u32();
    const std::uint64_t bank_words = r.u64();
    if (!r.ok || bank_pis != num_pis || bank_words > kMaxBankWords)
      return std::nullopt;
    if (!r.have(bank_words * bank_pis * 8)) return std::nullopt;
    sim::PatternBank b(bank_pis, bank_words);
    for (std::size_t wd = 0; wd < bank_words; ++wd)
      for (unsigned pi = 0; pi < bank_pis; ++pi) b.word(pi, wd) = r.u64();
    s.bank = std::move(b);
  }

  const std::uint64_t num_merges = r.u64();
  if (!r.ok || num_merges > s.miter.num_nodes()) return std::nullopt;
  s.merges.reserve(num_merges);
  for (std::uint64_t m = 0; m < num_merges; ++m) {
    const aig::Var node = r.u32();
    const aig::Lit lit = r.u32();
    if (!r.ok || node <= s.miter.num_pis() || node >= s.miter.num_nodes() ||
        aig::lit_var(lit) >= node)
      return std::nullopt;
    s.merges.emplace_back(node, lit);
  }
  const std::uint64_t num_removed = r.u64();
  if (!r.ok || num_removed > s.miter.num_nodes()) return std::nullopt;
  s.removed.reserve(num_removed);
  for (std::uint64_t m = 0; m < num_removed; ++m) {
    const aig::Var v = r.u32();
    if (!r.ok || v >= s.miter.num_nodes()) return std::nullopt;
    s.removed.push_back(v);
  }
  const std::uint32_t next_round = r.u32();
  if (!r.ok || next_round > kMaxRound) return std::nullopt;
  s.next_round = next_round;
  s.sweep_pairs_proved = r.u64();
  s.sweep_pairs_disproved = r.u64();
  s.sweep_pairs_undecided = r.u64();

  // Exact-length contract: trailing garbage is a shape mismatch.
  if (!r.ok || r.i != r.n) return std::nullopt;
  return s;
}

bool CheckpointManager::write_bytes_locked(
    const std::vector<std::uint8_t>& bytes) {
  // Injection site `ckpt.write` (DESIGN.md §2.8): a failed durable write
  // is recoverable — the last-good file stays, the snapshot stays
  // pending, the run continues.
  if (SIMSWEEP_FAULT_POINT(fault::sites::kCkptWrite)) return false;
  const std::string tmp = options_.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  // Retain the previous good snapshot, then atomically publish the new
  // one. The first rename fails harmlessly when <path> does not exist.
  const std::string prev = options_.path + ".prev";
  std::rename(options_.path.c_str(), prev.c_str());
  if (std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  wrote_any_ = true;
  since_last_write_.reset();
  ++writes_;
  if (options_.registry != nullptr) {
    // ckpt (rank 4) < registry (rank 5): publishing under the manager
    // lock respects the rank order.
    options_.registry->add(obs::metric::kCkptWrites, 1);
    options_.registry->add(obs::metric::kCkptBytes, bytes.size());
  }
  return true;
}

void CheckpointManager::offer(const Snapshot& snapshot) {
  if (options_.path.empty()) return;
  std::vector<std::uint8_t> bytes = serialize(snapshot);
  bool wrote = false;
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::ckpt);
    const bool due = !wrote_any_ || options_.checkpoint_interval <= 0 ||
                     since_last_write_.seconds() >=
                         options_.checkpoint_interval;
    if (!due || !write_bytes_locked(bytes)) {
      pending_ = std::move(bytes);
      return;
    }
    pending_.clear();
    wrote = true;
  }
  if (wrote) {
    // Injection site `ckpt.child_crash` (DESIGN.md §2.8): simulated
    // process death immediately AFTER a durable snapshot — the
    // supervisor's restarted child must resume from exactly this state.
    if (SIMSWEEP_FAULT_POINT(fault::sites::kCkptChildCrash)) {
      SIMSWEEP_LOG_WARN("child-crash drill armed: aborting after write");
      std::abort();
    }
    if (options_.on_write) options_.on_write();
  }
}

void CheckpointManager::flush() {
  if (options_.path.empty()) return;
  common::RankedMutexLock lock(mu_, common::lock_ranks::ckpt);
  if (pending_.empty()) return;
  if (write_bytes_locked(pending_)) pending_.clear();
}

std::optional<Snapshot> CheckpointManager::load(std::uint64_t fingerprint) {
  if (options_.path.empty()) return std::nullopt;
  for (const std::string& candidate :
       {options_.path, options_.path + ".prev"}) {
    std::vector<std::uint8_t> bytes;
    if (!read_file(candidate, &bytes) || bytes.empty()) continue;  // absent
    std::optional<Snapshot> snap;
    // Injection site `ckpt.load` (DESIGN.md §2.8): a torn or unreadable
    // candidate — fail closed and walk the ladder.
    if (!SIMSWEEP_FAULT_POINT(fault::sites::kCkptLoad)) {
      snap = parse(bytes.data(), bytes.size());
      if (snap && snap->fingerprint != fingerprint) snap.reset();
    }
    if (!snap) {
      SIMSWEEP_LOG_WARN("checkpoint %s rejected (corrupt, stale or "
                        "mismatched); falling through",
                        candidate.c_str());
      if (options_.registry != nullptr)
        options_.registry->add(obs::metric::kCkptLoadRejects, 1);
      continue;
    }
    return snap;
  }
  return std::nullopt;
}

std::uint64_t CheckpointManager::writes() const {
  common::RankedMutexLock lock(mu_, common::lock_ranks::ckpt);
  return writes_;
}

}  // namespace simsweep::ckpt
