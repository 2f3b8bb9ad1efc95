#include "graph/graph_io.h"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"

namespace simpush {

namespace {

constexpr size_t kBlockBytes = size_t{1} << 20;
// How much of a malformed line an error message echoes.
constexpr size_t kEchoBytes = 80;

// Whitespace inside a line: every isspace byte except '\n', which ends it.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Flat open-addressing map from raw 64-bit ids to dense NodeIds handed
// out in first-appearance order. Linear probing, load factor <= 1/2.
class IdInterner {
 public:
  IdInterner() { Resize(1024); }

  NodeId size() const { return size_; }

  NodeId Intern(uint64_t id) {
    for (size_t slot = SlotOf(id);; slot = (slot + 1) & mask_) {
      Slot& entry = slots_[slot];
      if (entry.node == kInvalidNode) {
        entry = {id, size_};
        const NodeId node = size_++;
        if (size_t{size_} * 2 > slots_.size()) Resize(slots_.size() * 2);
        return node;
      }
      if (entry.id == id) return entry.node;
    }
  }

 private:
  struct Slot {
    uint64_t id = 0;
    NodeId node = kInvalidNode;
  };

  size_t SlotOf(uint64_t id) const {
    // Fibonacci hashing: the product's top bits mix every input bit.
    return static_cast<size_t>(((id ^ (id >> 32)) * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  void Resize(size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - std::bit_width(mask_);  // top log2(capacity) bits
    for (const Slot& entry : old) {
      if (entry.node == kInvalidNode) continue;
      size_t slot = SlotOf(entry.id);
      while (slots_[slot].node != kInvalidNode) slot = (slot + 1) & mask_;
      slots_[slot] = entry;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  NodeId size_ = 0;
};

// One pass over the bytes: parses lines, interns both ids and appends
// the NodeId pair straight into a GraphBuilder.
class EdgeListParser {
 public:
  explicit EdgeListParser(bool undirected) : undirected_(undirected) {}

  // Parses every line in [begin, end). A line ends at '\n' or at `end`,
  // so callers pass whole lines; only the input's last may lack '\n'.
  Status ParseLines(const char* begin, const char* end) {
    const char* p = begin;
    while (p < end) {
      ++line_no_;
      const char* const line = p;
      while (p < end && IsBlank(*p)) ++p;
      if (p == end || *p == '\n' || *p == '#' || *p == '%') {
        p = LineEnd(p, end);
        if (p < end) ++p;
        continue;
      }
      uint64_t a = 0;
      uint64_t b = 0;
      if (!ParseId(&p, end, &a) || p == end || !IsBlank(*p)) {
        return Malformed(line, end);
      }
      while (p < end && IsBlank(*p)) ++p;
      if (!ParseId(&p, end, &b)) return Malformed(line, end);
      // Both ids may be new; kInvalidNode itself is never a node.
      if (ids_.size() > kInvalidNode - 2) {
        return Status::IOError("too many distinct node ids at line " +
                               std::to_string(line_no_));
      }
      // Two statements: the interning order is the documented
      // first-appearance id assignment.
      const NodeId src = ids_.Intern(a);
      const NodeId dst = ids_.Intern(b);
      if (undirected_) {
        builder_.AddUndirectedEdge(src, dst);
      } else {
        builder_.AddEdge(src, dst);
      }
      // Anything after the second id and its whitespace is ignored.
      if (p < end && *p != '\n') p = LineEnd(p, end);
      if (p < end) ++p;
    }
    return Status::OK();
  }

  StatusOr<Graph> Finish() && {
    builder_.SetNumNodes(ids_.size());
    ids_ = IdInterner();  // free the table before Build allocates the CSR
    if (undirected_) builder_.MarkSymmetric();
    return std::move(builder_).Build();
  }

 private:
  static const char* LineEnd(const char* p, const char* end) {
    const void* newline = std::memchr(p, '\n', static_cast<size_t>(end - p));
    return newline != nullptr ? static_cast<const char*>(newline) : end;
  }

  // An unsigned decimal id ending at whitespace or the end of the line.
  static bool ParseId(const char** cursor, const char* end, uint64_t* id) {
    const char* const digits = *cursor;
    const char* p = digits;
    uint64_t value = 0;
    for (; p < end && *p >= '0' && *p <= '9'; ++p) {
      const auto digit = static_cast<uint64_t>(*p - '0');
      if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
      value = value * 10 + digit;
    }
    if (p == digits || (p < end && *p != '\n' && !IsBlank(*p))) return false;
    *cursor = p;
    *id = value;
    return true;
  }

  Status Malformed(const char* line, const char* end) const {
    const size_t length = static_cast<size_t>(LineEnd(line, end) - line);
    const std::string_view text(line, length);
    return Status::IOError(
        "malformed edge at line " + std::to_string(line_no_) + ": '" +
        std::string(text.substr(0, kEchoBytes)) +
        (text.size() > kEchoBytes ? "...'" : "'"));
  }

  const bool undirected_;
  size_t line_no_ = 0;
  IdInterner ids_;
  GraphBuilder builder_{0};
};

struct FileCloser {
  void operator()(FILE* f) const { std::fclose(f); }
};

// The one extension rule of the *AnyFormat pair: ".spg" means SPG1.
bool IsBinaryGraphPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".spg") == 0;
}

}  // namespace

StatusOr<Graph> LoadEdgeList(const std::string& path,
                             const EdgeListOptions& options) {
  std::unique_ptr<FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IOError("cannot open '" + path + "'");
  EdgeListParser parser(options.undirected);
  // `buffer` holds the carried partial line at its front and the next
  // block behind it; it grows only for a line longer than a block.
  std::vector<char> buffer(kBlockBytes);
  size_t carry = 0;
  while (true) {
    if (carry == buffer.size()) buffer.resize(buffer.size() * 2);
    const size_t got = std::fread(buffer.data() + carry, 1,
                                  buffer.size() - carry, file.get());
    if (std::ferror(file.get())) {
      return Status::IOError("read failed for '" + path +
                             "': " + std::strerror(errno));
    }
    const char* const begin = buffer.data();
    const char* const filled = begin + carry + got;
    if (got == 0) {  // EOF: the carry is the unterminated last line
      SIMPUSH_RETURN_NOT_OK(parser.ParseLines(begin, filled));
      break;
    }
    // Parse up to the last newline; the partial line after it carries.
    const char* whole = filled;
    while (whole > begin && whole[-1] != '\n') --whole;
    if (whole == begin) {
      carry += got;
      continue;
    }
    SIMPUSH_RETURN_NOT_OK(parser.ParseLines(begin, whole));
    carry = static_cast<size_t>(filled - whole);
    std::memmove(buffer.data(), whole, carry);
  }
  return std::move(parser).Finish();
}

StatusOr<Graph> LoadGraphAnyFormat(const std::string& path,
                                   const EdgeListOptions& options) {
  // Chaos hook: lets the suite fail a graph load without corrupting a
  // real file (covers every serve-layer path that loads from disk).
  SIMPUSH_FAILPOINT("graph_io.load");
  if (IsBinaryGraphPath(path)) return LoadBinaryGraph(path);
  return LoadEdgeList(path, options);
}

Status SaveGraphAnyFormat(const Graph& graph, const std::string& path) {
  if (IsBinaryGraphPath(path)) return SaveBinaryGraph(graph, path);
  return SaveEdgeList(graph, path);
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      out << v << ' ' << w << '\n';
    }
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace simpush
