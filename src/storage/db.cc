#include "storage/db.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/strings.h"

namespace fabricpp::storage {

namespace fs = std::filesystem;

Db::Db(std::string dir, DbOptions options)
    : dir_(std::move(dir)),
      options_(options),
      memtable_(std::make_unique<SkipList<MemEntry>>()) {}

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
  // Reclaim .sst files the manifest does not reference: a crash between a
  // table write and the manifest update (or between the manifest update
  // and the old-file removes after compaction) leaks them forever
  // otherwise. Runs before WAL replay so a subsequent flush cannot reuse a
  // leaked number's file.
  db->RemoveOrphanTables();

  // Recover the memtable from the WAL (idempotent against a completed but
  // not yet truncated flush: replayed writes simply overwrite). Records
  // passed their CRC, so any decode failure is corruption and must fail
  // recovery — silently dropping a record mid-log would lose committed
  // writes while keeping later ones.
  const auto replayed =
      ReplayWal(db->WalFileName(), [&](const Bytes& rec) -> Status {
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
  // Format: "next <n>", then one live table number per line, oldest first.
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long next = 0;
    if (std::sscanf(line, "next %llu", &next) == 1) {
      next_file_number_ = std::max<uint64_t>(next_file_number_, next);
      continue;
    }
    const uint64_t number = std::strtoull(line, nullptr, 10);
    if (number == 0) continue;
    auto table = Sstable::Open(TableFileName(number));
    if (!table.ok()) {
      std::fclose(file);
      return table.status();
    }
    tables_.push_back(TableFile{number, std::move(table).value()});
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
  std::fprintf(file, "next %llu\n",
               static_cast<unsigned long long>(next_file_number_));
  for (const TableFile& f : tables_) {
    std::fprintf(file, "%llu\n", static_cast<unsigned long long>(f.number));
  }
  std::fclose(file);
  std::error_code ec;
  fs::rename(tmp, ManifestFileName(), ec);
  if (ec) return Status::Internal("manifest rename failed");
  return Status::OK();
}

void Db::RemoveOrphanTables() {
  std::unordered_set<uint64_t> live;
  for (const TableFile& f : tables_) live.insert(f.number);
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
  FABRICPP_RETURN_IF_ERROR(wal_.Append(record, options_.sync_writes));
  InsertMem(key, type, std::string(value));
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
  for (auto it = tables_.rbegin(); it != tables_.rend(); ++it) {
    const auto entry = it->table.Get(key);
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
  SstableBuilder builder;
  for (auto it = memtable_->NewIterator(); it.Valid(); it.Next()) {
    builder.Add(it.key(), it.value().type, it.value().value);
  }
  const uint64_t number = next_file_number_++;
  FABRICPP_RETURN_IF_ERROR(builder.Finish(TableFileName(number)));
  FABRICPP_ASSIGN_OR_RETURN(Sstable table,
                            Sstable::Open(TableFileName(number)));
  tables_.push_back(TableFile{number, std::move(table)});
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

Status Db::CompactAll() {
  FABRICPP_RETURN_IF_ERROR(Flush());
  if (tables_.size() <= 1) return Status::OK();

  // K-way merge over the tables' iterators, oldest table first: the newest
  // input wins each key and tombstones drop out.
  std::vector<Sstable::Iterator> iters;
  iters.reserve(tables_.size());
  for (const TableFile& f : tables_) iters.push_back(f.table.NewIterator());
  SstableBuilder builder;
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
    if (entry.type == EntryType::kDelete) continue;
    builder.Add(entry.key, entry.type, entry.value);
  }

  std::vector<TableFile> output;
  if (builder.num_entries() > 0) {
    const uint64_t number = next_file_number_++;
    FABRICPP_RETURN_IF_ERROR(builder.Finish(TableFileName(number)));
    FABRICPP_ASSIGN_OR_RETURN(Sstable table,
                              Sstable::Open(TableFileName(number)));
    output.push_back(TableFile{number, std::move(table)});
  }
  const std::vector<TableFile> inputs =
      std::exchange(tables_, std::move(output));
  ++stats_.compactions;
  FABRICPP_RETURN_IF_ERROR(WriteManifest());

  // Inputs die only after the manifest references the output; a crash in
  // the window leaves orphans that Open reclaims.
  for (const TableFile& f : inputs) {
    std::error_code ec;
    fs::remove(TableFileName(f.number), ec);
  }
  return Status::OK();
}

Status Db::MaybeFlushAndCompact() {
  if (memtable_bytes_ >= options_.memtable_max_bytes) {
    FABRICPP_RETURN_IF_ERROR(Flush());
  }
  if (tables_.size() >= options_.compaction_trigger) {
    FABRICPP_RETURN_IF_ERROR(CompactAll());
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
  /// Higher priority = newer data (memtable > newest table > ... > oldest).
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
  int priority = 0;
  for (const TableFile& f : db->tables_) {  // Oldest first.
    auto source = std::make_shared<Source>();
    source->priority = priority++;
    source->table.emplace(f.table.NewIterator());
    sources_.push_back(std::move(source));
  }
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
