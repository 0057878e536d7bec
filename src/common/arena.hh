/**
 * @file
 * Chunked bump arena for per-run word scratch.
 *
 * The executor kernels (conv, pool, requantize and merge tasks, the
 * layout transposes of bitserial::storeVector/loadVector) need small
 * uint64_t scratch buffers on every window of every layer — hot
 * enough that a heap allocation per window shows up in perf_report.
 * An Arena hands them out by bumping a cursor through chunks that are
 * never freed, so steady-state allocation is pointer arithmetic.
 *
 * Growth appends a new chunk instead of reallocating, so previously
 * returned spans stay valid for as long as their scope holds (the
 * failure mode a plain std::vector-backed bump allocator would have).
 * release() rewinds to a Mark without touching memory; ArenaScope is
 * the RAII form. scratchArena() is thread_local, which makes the
 * whole scheme safe under the pool fan-outs without any locking:
 * each task's scopes nest on its own thread's arena.
 */

#ifndef NC_COMMON_ARENA_HH
#define NC_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace nc::common
{

/** Bump allocator over stable chunks; see file comment. */
class Arena
{
  public:
    /** A rewind point: the cursor position at mark() time. */
    struct Mark
    {
        size_t chunk;
        size_t used;
    };

    /** Uninitialized word scratch, valid until release() past it. */
    std::span<uint64_t>
    alloc(size_t n)
    {
        if (n == 0)
            return {};
        if (chunks.empty())
            chunks.emplace_back(n < kMinChunkWords ? kMinChunkWords
                                                   : n);
        while (used + n > chunks[cur].cap) {
            if (cur + 1 == chunks.size())
                chunks.emplace_back(
                    n < kMinChunkWords ? kMinChunkWords : n);
            ++cur;
            used = 0;
        }
        uint64_t *p = chunks[cur].data.get() + used;
        used += n;
        return {p, n};
    }

    Mark mark() const { return {cur, used}; }

    /** Rewind to @p m; spans handed out after it become invalid. */
    void
    release(Mark m)
    {
        cur = m.chunk;
        used = m.used;
    }

  private:
    struct Chunk
    {
        explicit Chunk(size_t cap_)
            : data(std::make_unique<uint64_t[]>(cap_)), cap(cap_)
        {
        }
        std::unique_ptr<uint64_t[]> data;
        size_t cap;
    };

    /** 32KB chunks: one covers every per-window buffer in practice. */
    static constexpr size_t kMinChunkWords = 4096;

    std::vector<Chunk> chunks;
    size_t cur = 0;  ///< chunk the cursor is in
    size_t used = 0; ///< words consumed of that chunk
};

/** This thread's scratch arena (one per pool worker, no locking). */
inline Arena &
scratchArena()
{
    thread_local Arena arena;
    return arena;
}

/**
 * RAII mark/release over the calling thread's scratch arena. Scopes
 * nest; a span allocated here dies with the scope, so never store
 * one beyond it (and never across a parallelFor boundary — the tasks
 * run on other threads' arenas).
 */
class ArenaScope
{
  public:
    ArenaScope() : arena(scratchArena()), m(arena.mark()) {}
    ~ArenaScope() { arena.release(m); }
    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    std::span<uint64_t> alloc(size_t n) { return arena.alloc(n); }

  private:
    Arena &arena;
    Arena::Mark m;
};

} // namespace nc::common

#endif // NC_COMMON_ARENA_HH
