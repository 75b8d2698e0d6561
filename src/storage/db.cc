#include "storage/db.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <unordered_set>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/strings.h"

namespace fabricpp::storage {

namespace fs = std::filesystem;

namespace {
constexpr char kManifestHeaderV2[] = "fabricpp-manifest-v2";
}  // namespace

Db::Db(std::string dir, DbOptions options)
    : dir_(std::move(dir)),
      options_(options),
      memtable_(std::make_unique<SkipList<MemEntry>>()) {
  if (options_.block_cache_bytes > 0) {
    cache_ = std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  levels_.resize(1);
}

Db::~Db() { wal_.Close(); }

std::string Db::TableFileName(uint64_t number) const {
  return dir_ + "/" + StrFormat("%06llu.sst",
                                static_cast<unsigned long long>(number));
}
std::string Db::WalFileName() const { return dir_ + "/wal.log"; }
std::string Db::ManifestFileName() const { return dir_ + "/MANIFEST"; }

Result<std::unique_ptr<Db>> Db::Open(const std::string& dir,
                                     DbOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create db dir: " + dir);

  std::unique_ptr<Db> db(new Db(dir, options));
  FABRICPP_RETURN_IF_ERROR(db->LoadManifest());
  // Reclaim .sst files no manifest entry references: a crash between a
  // table write and the manifest update (or between the manifest update
  // and the old-file removes after compaction) leaks them forever
  // otherwise. Runs before WAL replay so a subsequent flush cannot reuse a
  // leaked number's file.
  db->RemoveOrphanTables();

  // Recover the memtable from the WAL (idempotent against a completed but
  // not yet truncated flush: replayed writes simply overwrite). Records
  // passed their CRC, so any decode failure is corruption and must fail
  // recovery — silently dropping a record mid-log would lose committed
  // writes while keeping later ones, exactly the torn-state bug the batch
  // path exists to prevent.
  const auto replayed =
      ReplayWal(db->WalFileName(), [&](const Bytes& rec) -> Status {
        if (!rec.empty() && rec[0] == kWalBatchTag) {
          // A block-level batch: applied whole (the record framing already
          // guarantees all-or-nothing; decode re-checks internal shape).
          FABRICPP_ASSIGN_OR_RETURN(const WriteBatch batch,
                                    WriteBatch::DecodeFromWal(rec));
          for (const WriteBatch::Entry& entry : batch.entries()) {
            db->InsertMem(entry.key, entry.type, entry.value);
          }
          return Status::OK();
        }
        ByteReader reader(rec);
        FABRICPP_ASSIGN_OR_RETURN(const uint8_t type, reader.GetU8());
        if (type > static_cast<uint8_t>(EntryType::kDelete)) {
          return Status::DataLoss("wal record with bad entry type");
        }
        FABRICPP_ASSIGN_OR_RETURN(const std::string key, reader.GetString());
        FABRICPP_ASSIGN_OR_RETURN(std::string value, reader.GetString());
        if (!reader.AtEnd()) {
          return Status::DataLoss("wal record with trailing bytes");
        }
        db->InsertMem(key, static_cast<EntryType>(type), std::move(value));
        return Status::OK();
      });
  FABRICPP_RETURN_IF_ERROR(replayed.status());
  db->wal_records_replayed_ = *replayed;

  FABRICPP_RETURN_IF_ERROR(db->wal_.Open(db->WalFileName()));
  return db;
}

Status Db::LoadManifest() {
  std::FILE* file = std::fopen(ManifestFileName().c_str(), "rb");
  if (file == nullptr) return Status::OK();  // Fresh database.
  char line[256];
  bool v2 = false;
  bool first = true;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (first) {
      first = false;
      if (std::strncmp(line, kManifestHeaderV2,
                       std::strlen(kManifestHeaderV2)) == 0) {
        v2 = true;
        continue;
      }
    }
    uint64_t level = 0;
    uint64_t number = 0;
    if (v2) {
      unsigned long long a = 0, b = 0;
      if (std::sscanf(line, "next %llu", &a) == 1) {
        next_file_number_ = std::max<uint64_t>(next_file_number_, a);
        continue;
      }
      if (std::sscanf(line, "file %llu %llu", &a, &b) != 2) continue;
      level = a;
      number = b;
      if (level > 64) {
        std::fclose(file);
        return Status::Internal("manifest level out of range");
      }
    } else {
      // Legacy (v1) manifest: one table number per line, oldest first —
      // loaded as L0 (every pre-leveled table may overlap any other).
      number = std::strtoull(line, nullptr, 10);
      if (number == 0) continue;
    }
    auto table = Sstable::Open(TableFileName(number), cache_);
    if (!table.ok()) {
      std::fclose(file);
      return table.status();
    }
    EnsureLevel(level);
    levels_[level].push_back(LevelFile{number, std::move(table).value()});
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  std::fclose(file);
  return Status::OK();
}

Status Db::WriteManifest() {
  // Atomic replace: write a temp file, then rename over the manifest.
  const std::string tmp = ManifestFileName() + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::Internal("cannot write manifest");
  std::fprintf(file, "%s\n", kManifestHeaderV2);
  std::fprintf(file, "next %llu\n",
               static_cast<unsigned long long>(next_file_number_));
  for (size_t level = 0; level < levels_.size(); ++level) {
    for (const LevelFile& f : levels_[level]) {
      std::fprintf(file, "file %zu %llu\n", level,
                   static_cast<unsigned long long>(f.number));
    }
  }
  std::fclose(file);
  std::error_code ec;
  fs::rename(tmp, ManifestFileName(), ec);
  if (ec) return Status::Internal("manifest rename failed");
  return Status::OK();
}

void Db::RemoveOrphanTables() {
  std::unordered_set<uint64_t> live;
  for (const auto& level : levels_) {
    for (const LevelFile& f : level) live.insert(f.number);
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.substr(name.size() - 4) != ".sst") continue;
    const std::string digits = name.substr(0, name.size() - 4);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    const uint64_t number = std::strtoull(digits.c_str(), nullptr, 10);
    if (live.count(number) != 0) continue;
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
    if (!rm_ec) {
      ++stats_.orphaned_tables_removed;
      FABRICPP_LOG(Info) << "storage: reclaimed orphaned table " << name;
    }
  }
}

Status Db::AppendToWal(const Bytes& record, bool sync) {
  FABRICPP_RETURN_IF_ERROR(wal_.Append(record, sync));
  ++wal_appends_;
  if (sync) ++wal_syncs_;
  return Status::OK();
}

void Db::InsertMem(std::string_view key, EntryType type, std::string value) {
  memtable_bytes_ += key.size() + value.size() + 16;
  memtable_->Insert(key, MemEntry{type, std::move(value)});
}

Status Db::Write(EntryType type, std::string_view key,
                 std::string_view value) {
  Bytes record;
  ByteWriter writer(&record);
  writer.PutU8(static_cast<uint8_t>(type));
  writer.PutString(key);
  writer.PutString(value);
  FABRICPP_RETURN_IF_ERROR(AppendToWal(
      record, options_.sync_mode == WalSyncMode::kEveryWrite));
  InsertMem(key, type, std::string(value));
  return MaybeFlushAndCompact();
}

Status Db::ApplyBatch(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  // Group commit: the entire batch is one WAL record — one Append and (in
  // kBlock / kEveryWrite modes) one fsync, independent of batch size. Only
  // after the record is durable do the entries reach the memtable, so
  // recovery can never observe a prefix of the batch.
  FABRICPP_RETURN_IF_ERROR(AppendToWal(
      batch.EncodeForWal(), options_.sync_mode != WalSyncMode::kNone));
  for (const WriteBatch::Entry& entry : batch.entries()) {
    InsertMem(entry.key, entry.type, entry.value);
  }
  return MaybeFlushAndCompact();
}

Status Db::Put(std::string_view key, std::string_view value) {
  return Write(EntryType::kPut, key, value);
}

Status Db::Delete(std::string_view key) {
  return Write(EntryType::kDelete, key, "");
}

Result<std::string> Db::Get(std::string_view key) const {
  if (const MemEntry* entry = memtable_->Find(key)) {
    if (entry->type == EntryType::kDelete) {
      return Status::NotFound("deleted: " + std::string(key));
    }
    return entry->value;
  }
  // L0: files may overlap, newest shadows.
  const auto& l0 = levels_[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    const auto entry = it->table.Get(key);
    if (entry.has_value()) {
      if (entry->type == EntryType::kDelete) {
        return Status::NotFound("deleted: " + std::string(key));
      }
      return entry->value;
    }
  }
  // Deeper levels: non-overlapping sorted runs — at most one candidate file
  // per level (greatest smallest_key <= key).
  for (size_t level = 1; level < levels_.size(); ++level) {
    const auto& files = levels_[level];
    size_t lo = 0, hi = files.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (files[mid].table.smallest_key() <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) continue;
    const Sstable& table = files[lo - 1].table;
    if (key > table.largest_key()) continue;
    const auto entry = table.Get(key);
    if (entry.has_value()) {
      if (entry->type == EntryType::kDelete) {
        return Status::NotFound("deleted: " + std::string(key));
      }
      return entry->value;
    }
  }
  return Status::NotFound("no such key: " + std::string(key));
}

Status Db::Flush() {
  if (memtable_->empty()) return Status::OK();
  SstableBuilder builder(options_.bloom_bits_per_key);
  for (auto it = memtable_->NewIterator(); it.Valid(); it.Next()) {
    builder.Add(it.key(), it.value().type, it.value().value);
  }
  const uint64_t number = next_file_number_++;
  FABRICPP_RETURN_IF_ERROR(builder.Finish(TableFileName(number)));
  FABRICPP_ASSIGN_OR_RETURN(Sstable table,
                            Sstable::Open(TableFileName(number), cache_));
  levels_[0].push_back(LevelFile{number, std::move(table)});
  ++stats_.flushes;
  FABRICPP_RETURN_IF_ERROR(WriteManifest());

  // Reset memtable + WAL. Crash before the WAL truncation replays writes
  // that are already in the new table — harmless (overwrites).
  memtable_ = std::make_unique<SkipList<MemEntry>>();
  memtable_bytes_ = 0;
  wal_.Close();
  std::error_code ec;
  fs::remove(WalFileName(), ec);
  return wal_.Open(WalFileName());
}

void Db::EnsureLevel(size_t level) {
  if (levels_.size() <= level) levels_.resize(level + 1);
}

void Db::DropEmptyDeepLevels() {
  while (levels_.size() > 1 && levels_.back().empty()) levels_.pop_back();
}

uint64_t Db::level_bytes(size_t level) const {
  if (level >= levels_.size()) return 0;
  uint64_t total = 0;
  for (const LevelFile& f : levels_[level]) total += f.table.data_bytes();
  return total;
}

size_t Db::num_sstables() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

bool Db::AnyOverlapAtOrBelow(size_t level, const std::string& min_key,
                             const std::string& max_key) const {
  for (size_t l = level; l < levels_.size(); ++l) {
    for (const LevelFile& f : levels_[l]) {
      if (f.table.largest_key() < min_key || f.table.smallest_key() > max_key) {
        continue;
      }
      return true;
    }
  }
  return false;
}

Status Db::MergeTables(const std::vector<const Sstable*>& inputs,
                       bool drop_tombstones, size_t max_output_bytes,
                       std::vector<LevelFile>* outputs) {
  std::vector<Sstable::Iterator> iters;
  iters.reserve(inputs.size());
  for (const Sstable* table : inputs) iters.push_back(table->NewIterator());

  SstableBuilder builder(options_.bloom_bits_per_key);
  size_t chunk_bytes = 0;
  const auto finish_chunk = [&]() -> Status {
    if (builder.num_entries() == 0) return Status::OK();
    const uint64_t number = next_file_number_++;
    FABRICPP_RETURN_IF_ERROR(builder.Finish(TableFileName(number)));
    FABRICPP_ASSIGN_OR_RETURN(Sstable table,
                              Sstable::Open(TableFileName(number), cache_));
    stats_.compaction_bytes_written += table.file_bytes();
    outputs->push_back(LevelFile{number, std::move(table)});
    chunk_bytes = 0;
    return Status::OK();
  };

  while (true) {
    // Smallest key among valid inputs; the later (newer) input wins ties.
    int winner = -1;
    for (int i = 0; i < static_cast<int>(iters.size()); ++i) {
      if (!iters[i].Valid()) continue;
      if (winner < 0 || iters[i].entry().key <= iters[winner].entry().key) {
        winner = i;
      }
    }
    if (winner < 0) break;
    const TableEntry entry = iters[winner].entry();
    for (auto& it : iters) {
      while (it.Valid() && it.entry().key == entry.key) it.Next();
    }
    if (drop_tombstones && entry.type == EntryType::kDelete) continue;
    builder.Add(entry.key, entry.type, entry.value);
    chunk_bytes += entry.key.size() + entry.value.size() + 8;
    if (chunk_bytes >= max_output_bytes) {
      FABRICPP_RETURN_IF_ERROR(finish_chunk());
    }
  }
  return finish_chunk();
}

Status Db::CompactLevel(size_t level) {
  EnsureLevel(level + 1);

  // Victims: all of L0 (its files overlap each other), or the
  // oldest-numbered file of a deeper level (deterministic pick).
  std::vector<LevelFile> victims;
  if (level == 0) {
    victims = std::move(levels_[0]);
    levels_[0].clear();
  } else {
    size_t vi = 0;
    for (size_t i = 1; i < levels_[level].size(); ++i) {
      if (levels_[level][i].number < levels_[level][vi].number) vi = i;
    }
    victims.push_back(std::move(levels_[level][vi]));
    levels_[level].erase(levels_[level].begin() +
                         static_cast<ptrdiff_t>(vi));
  }
  if (victims.empty()) return Status::OK();

  std::string min_key = victims[0].table.smallest_key();
  std::string max_key = victims[0].table.largest_key();
  for (const LevelFile& f : victims) {
    min_key = std::min(min_key, f.table.smallest_key());
    max_key = std::max(max_key, f.table.largest_key());
  }

  // Partition level+1 into the files the victims overlap and the rest.
  std::vector<LevelFile> overlap;
  std::vector<LevelFile> keep;
  for (LevelFile& f : levels_[level + 1]) {
    if (f.table.largest_key() < min_key || f.table.smallest_key() > max_key) {
      keep.push_back(std::move(f));
    } else {
      overlap.push_back(std::move(f));
    }
  }

  const auto install = [&](std::vector<LevelFile> files) {
    for (LevelFile& f : files) keep.push_back(std::move(f));
    std::sort(keep.begin(), keep.end(),
              [](const LevelFile& a, const LevelFile& b) {
                return a.table.smallest_key() < b.table.smallest_key();
              });
    levels_[level + 1] = std::move(keep);
    ++stats_.compactions;
    DropEmptyDeepLevels();
  };

  // Trivial move: a single victim with nothing to merge against just
  // changes level (no rewrite, no write amplification).
  if (victims.size() == 1 && overlap.empty()) {
    install(std::move(victims));
    return WriteManifest();
  }

  // A tombstone may be dropped only when no level below the output can
  // still hold an older value for its key range.
  const bool drop_tombstones =
      !AnyOverlapAtOrBelow(level + 2, min_key, max_key);

  // Inputs oldest-first: the deeper (older) overlap files, then the victims
  // (L0 is kept oldest-first, so later index = newer there too).
  std::vector<const Sstable*> inputs;
  inputs.reserve(overlap.size() + victims.size());
  for (const LevelFile& f : overlap) inputs.push_back(&f.table);
  for (const LevelFile& f : victims) inputs.push_back(&f.table);

  std::vector<LevelFile> outputs;
  FABRICPP_RETURN_IF_ERROR(MergeTables(inputs, drop_tombstones,
                                       options_.target_file_bytes, &outputs));
  install(std::move(outputs));
  FABRICPP_RETURN_IF_ERROR(WriteManifest());

  // Inputs die only after the manifest references the outputs; a crash in
  // the window leaves orphans that Open reclaims.
  for (const LevelFile& f : victims) {
    std::error_code ec;
    fs::remove(TableFileName(f.number), ec);
  }
  for (const LevelFile& f : overlap) {
    std::error_code ec;
    fs::remove(TableFileName(f.number), ec);
  }
  return Status::OK();
}

Status Db::CompactAll() {
  FABRICPP_RETURN_IF_ERROR(Flush());
  if (num_sstables() <= 1) return Status::OK();

  // Full merge through the chunk-less k-way path (newest input wins,
  // tombstones drop out): streaming memory — O(inputs) iterator state
  // instead of materializing the whole key space.
  std::vector<const Sstable*> inputs;
  std::vector<uint64_t> old_numbers;
  for (size_t l = levels_.size(); l-- > 1;) {  // Deepest (oldest) first.
    for (const LevelFile& f : levels_[l]) {
      inputs.push_back(&f.table);
      old_numbers.push_back(f.number);
    }
  }
  for (const LevelFile& f : levels_[0]) {  // Oldest first; newest last.
    inputs.push_back(&f.table);
    old_numbers.push_back(f.number);
  }

  std::vector<LevelFile> outputs;
  FABRICPP_RETURN_IF_ERROR(MergeTables(
      inputs, /*drop_tombstones=*/true,
      /*max_output_bytes=*/std::numeric_limits<size_t>::max(), &outputs));
  levels_.clear();
  levels_.resize(2);
  levels_[1] = std::move(outputs);
  ++stats_.compactions;
  DropEmptyDeepLevels();
  FABRICPP_RETURN_IF_ERROR(WriteManifest());
  for (const uint64_t old_number : old_numbers) {
    std::error_code ec;
    fs::remove(TableFileName(old_number), ec);
  }
  return Status::OK();
}

Status Db::MaybeFlushAndCompact() {
  if (memtable_bytes_ >= options_.memtable_max_bytes) {
    FABRICPP_RETURN_IF_ERROR(Flush());
  }
  return MaybeCompact();
}

Status Db::MaybeCompact() {
  // L0 is bounded by file count (every L0 file widens every read), deeper
  // levels by a geometric byte budget.
  while (levels_[0].size() >= options_.compaction_trigger) {
    FABRICPP_RETURN_IF_ERROR(CompactLevel(0));
  }
  const size_t ratio = std::max<size_t>(1, options_.level_size_ratio);
  uint64_t max_bytes = options_.level_base_bytes;
  for (size_t level = 1; level < levels_.size(); ++level) {
    while (level < levels_.size() && level_bytes(level) > max_bytes) {
      FABRICPP_RETURN_IF_ERROR(CompactLevel(level));
    }
    if (max_bytes > (uint64_t{1} << 60) / ratio) break;  // No deeper budget.
    max_bytes *= ratio;
  }
  return Status::OK();
}

void Db::ForEach(const std::function<void(const std::string&,
                                          const std::string&)>& fn) const {
  // Streaming k-way merge — same visit order as before (ascending keys,
  // live entries only) without materializing the database in a std::map.
  for (auto it = NewIterator(); it.Valid(); it.Next()) {
    fn(it.key(), it.value());
  }
}

// ---------------------------------------------------------------------------
// Db::Iterator — lazy k-way merge.
// ---------------------------------------------------------------------------

struct Db::Iterator::Source {
  /// Higher priority = newer data (memtable > L0 newest..oldest > L1 > ...).
  int priority = 0;
  std::optional<SkipList<MemEntry>::Iterator> mem;
  std::optional<Sstable::Iterator> table;

  bool Valid() const {
    return mem.has_value() ? mem->Valid() : table->Valid();
  }
  const std::string& key() const {
    return mem.has_value() ? mem->key() : table->entry().key;
  }
  EntryType type() const {
    return mem.has_value() ? mem->value().type : table->entry().type;
  }
  const std::string& value() const {
    return mem.has_value() ? mem->value().value : table->entry().value;
  }
  void Next() {
    if (mem.has_value()) {
      mem->Next();
    } else {
      table->Next();
    }
  }
};

Db::Iterator::Iterator(const Db* db) {
  // Priorities ascend from the deepest (oldest) level up through L0 to the
  // memtable. Files within a level >= 1 never overlap, so their relative
  // priority is irrelevant; L0 is oldest-first, so later files rank higher.
  int priority = 0;
  const auto add_table = [&](const Sstable& table) {
    auto source = std::make_shared<Source>();
    source->priority = priority++;
    source->table.emplace(table.NewIterator());
    sources_.push_back(std::move(source));
  };
  for (size_t level = db->levels_.size(); level-- > 1;) {
    for (const LevelFile& f : db->levels_[level]) add_table(f.table);
  }
  for (const LevelFile& f : db->levels_[0]) add_table(f.table);
  auto mem_source = std::make_shared<Source>();
  mem_source->priority = priority;
  mem_source->mem.emplace(db->memtable_->NewIterator());
  sources_.push_back(std::move(mem_source));
  Advance();
}

void Db::Iterator::Next() { Advance(); }

void Db::Iterator::Advance() {
  while (true) {
    // Smallest key among valid sources; newest source wins ties.
    Source* winner = nullptr;
    for (const auto& source : sources_) {
      if (!source->Valid()) continue;
      if (winner == nullptr || source->key() < winner->key() ||
          (source->key() == winner->key() &&
           source->priority > winner->priority)) {
        winner = source.get();
      }
    }
    if (winner == nullptr) {
      valid_ = false;
      return;
    }
    const std::string key = winner->key();
    const EntryType type = winner->type();
    const std::string value = winner->value();
    // Consume this key from every source that carries it.
    for (const auto& source : sources_) {
      while (source->Valid() && source->key() == key) source->Next();
    }
    if (type == EntryType::kDelete) continue;  // Shadowed by tombstone.
    key_ = key;
    value_ = value;
    valid_ = true;
    return;
  }
}

}  // namespace fabricpp::storage
