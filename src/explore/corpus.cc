#include "src/explore/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace explore {

namespace fs = std::filesystem;

Corpus::Corpus(std::string dir, bool read_only) : dir_(std::move(dir)), read_only_(read_only) {}

uint64_t Corpus::ContentHash(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Corpus::FileName(const std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx.repro",
                static_cast<unsigned long long>(ContentHash(text)));
  return buf;
}

namespace {

// Reads one entry file: the repro string is the first line, trailing whitespace trimmed.
bool ReadEntry(const fs::path& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  std::getline(in, line);
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
    line.pop_back();
  }
  *out = std::move(line);
  return true;
}

bool LoadDir(const fs::path& dir, std::vector<Corpus::Entry>* out,
             std::vector<std::string>* errors) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return true;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".repro") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    errors->push_back("corpus: cannot list " + dir.string() + ": " + ec.message());
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    Corpus::Entry entry;
    if (!ReadEntry(path, &entry.text) || entry.text.empty()) {
      errors->push_back("corpus: unreadable or empty entry " + path.string());
      continue;
    }
    if (!Repro::Decode(entry.text, &entry.input)) {
      errors->push_back("corpus: malformed repro in " + path.string());
      continue;
    }
    out->push_back(std::move(entry));
  }
  return true;
}

// Restores text order and keeps one entry per text.
void SortUnique(std::vector<Corpus::Entry>* list) {
  std::ranges::sort(*list, {}, &Corpus::Entry::text);
  const auto repeats = std::ranges::unique(*list, {}, &Corpus::Entry::text);
  list->erase(repeats.begin(), repeats.end());
}

}  // namespace

bool Corpus::Load(std::vector<std::string>* errors) {
  if (dir_.empty()) {
    return true;
  }
  std::error_code ec;
  if (!fs::exists(dir_, ec)) {
    if (read_only_) {
      errors->push_back("corpus: directory " + dir_ + " does not exist");
      return false;
    }
    return true;
  }
  bool ok = LoadDir(dir_, &entries_, errors);
  ok = LoadDir(fs::path(dir_) / "crashes", &crashes_, errors) && ok;
  SortUnique(&entries_);
  SortUnique(&crashes_);
  return ok;
}

bool Corpus::AddTo(const std::string& text, std::vector<Entry>* list,
                   const std::string& subdir) {
  const auto at = std::ranges::lower_bound(*list, text, {}, &Entry::text);
  if (at != list->end() && at->text == text) {
    return false;
  }
  Entry entry{text, {}};
  if (!Repro::Decode(text, &entry.input)) {
    return false;
  }
  list->insert(at, std::move(entry));
  if (!dir_.empty() && !read_only_) {
    std::error_code ec;
    fs::path target = subdir.empty() ? fs::path(dir_) : fs::path(dir_) / subdir;
    fs::create_directories(target, ec);
    std::ofstream out(target / FileName(text));
    out << text << "\n";
  }
  return true;
}

bool Corpus::Add(const std::string& text) { return AddTo(text, &entries_, ""); }

bool Corpus::AddCrash(const std::string& text) { return AddTo(text, &crashes_, "crashes"); }

}  // namespace explore
