/**
 * @file
 * Small-buffer-optimized one-shot callables.
 *
 * sim::Callback<Args...> is the simulator's one completion type: every
 * event the kernel runs (sim::Event is Callback<>) and every one-shot
 * completion of the datapath above it, with or without arguments (a
 * read's Status, an open's inode, a client's Result).  Callables up to
 * inlineSize bytes (the typical capture-by-value continuation: a
 * `this` pointer plus a few integers, or a sim::Join) are stored
 * inline, so handing one on performs no heap allocation; larger
 * callables fall back to the heap.  Unlike std::function, a Callback
 * is move-only and therefore accepts move-only captures (e.g. a
 * unique_ptr riding along a completion), so a completion owns what it
 * carries outright.
 */

#ifndef RAID2_SIM_EVENT_HH
#define RAID2_SIM_EVENT_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace raid2::sim {

namespace detail {

/** True for callables that can be compared against nullptr (function
 *  pointers, std::function); used to map "null" to an empty Callback. */
template <typename T, typename = void>
struct NullComparable : std::false_type
{};
template <typename T>
struct NullComparable<
    T, std::void_t<decltype(std::declval<const T &>() == nullptr)>>
    : std::true_type
{};

} // namespace detail

/**
 * Move-only `void(Args...)` callable with inline storage.
 *
 * The dispatch table is a pair of function pointers per concrete
 * callable type: invoke() and manage() (move-construct-into /
 * destroy).  An empty Callback has a null invoke pointer, so emptiness
 * is one pointer test and moved-from Callbacks are safely empty.  The
 * converting constructor takes only callables invocable with Args, so
 * overloads on Callbacks of different arguments stay unambiguous.
 */
template <typename... Args>
class Callback
{
  public:
    /** Inline storage; callables up to this size never hit the heap. */
    static constexpr std::size_t inlineSize = 48;

    Callback() = default;
    Callback(std::nullptr_t) {} // NOLINT: implicit by design

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &,
                                        Args...>>>
    Callback(F &&f) // NOLINT: implicit by design
    {
        using Fn = std::decay_t<F>;
        // An empty std::function or null function pointer makes an
        // empty Callback, preserving "done may be null" call sites.
        if constexpr (detail::NullComparable<Fn>::value) {
            if (f == nullptr)
                return;
        }
        if constexpr (sizeof(Fn) <= inlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(store)) Fn(std::forward<F>(f));
            _invoke = &invokeInline<Fn>;
            _manage = &manageInline<Fn>;
        } else {
            ptr() = new Fn(std::forward<F>(f));
            _invoke = &invokeHeap<Fn>;
            _manage = &manageHeap<Fn>;
        }
    }

    Callback(Callback &&other) noexcept { moveFrom(other); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return _invoke != nullptr; }

    /** Invoke the callable (must not be empty). */
    void
    operator()(Args... args)
    {
        _invoke(store, std::forward<Args>(args)...);
    }

    /** Drop the callable; the Callback becomes empty. */
    void
    reset()
    {
        if (_manage)
            _manage(nullptr, store);
        _invoke = nullptr;
        _manage = nullptr;
    }

  private:
    /** manage(dst, src): dst != null moves src into dst and destroys
     *  src; dst == null just destroys src. */
    using InvokeFn = void (*)(void *, Args &&...);
    using ManageFn = void (*)(void *dst, void *src);

    void *&ptr() { return *reinterpret_cast<void **>(store); }

    void
    moveFrom(Callback &other) noexcept
    {
        _invoke = other._invoke;
        _manage = other._manage;
        if (_manage)
            _manage(store, other.store);
        other._invoke = nullptr;
        other._manage = nullptr;
    }

    template <typename Fn>
    static void
    invokeInline(void *s, Args &&...args)
    {
        (*std::launder(reinterpret_cast<Fn *>(s)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageInline(void *dst, void *src)
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(src));
        if (dst)
            ::new (dst) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static void
    invokeHeap(void *s, Args &&...args)
    {
        (*static_cast<Fn *>(*reinterpret_cast<void **>(s)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageHeap(void *dst, void *src)
    {
        void *&p = *reinterpret_cast<void **>(src);
        if (dst)
            *reinterpret_cast<void **>(dst) = p;
        else
            delete static_cast<Fn *>(p);
        p = nullptr;
    }

    alignas(std::max_align_t) unsigned char store[inlineSize];
    InvokeFn _invoke = nullptr;
    ManageFn _manage = nullptr;
};

/** A scheduled event, and every completion that carries no value. */
using Event = Callback<>;

} // namespace raid2::sim

#endif // RAID2_SIM_EVENT_HH
